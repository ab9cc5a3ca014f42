"""Typed tensor containers, index movement, and finite differencing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.errors import OutsideDomain, VarianceMismatch
from phasetransport.metrics import schwarzschild
from phasetransport.tensor import (
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    Tensor2,
    Variance,
    flat_metric,
    lower_index,
    minkowski_norm,
    partial_derivative,
    raise_index,
)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_flat_metric_is_exact():
    g = flat_metric()
    x = SpacetimeEvent([0.3, -2.0, 7.1, 0.0])
    assert np.array_equal(g.matrix(x).values, ETA)
    assert np.array_equal(g.inverse(x).values, ETA)
    assert np.array_equal(g.derivative(x).values, np.zeros((4, 4, 4)))


def test_flat_chart_identity_survives_evaluator_replacement():
    g = flat_metric()
    assert isinstance(g, FlatMetric)
    assert isinstance(dataclasses.replace(g, inverse_fn=lambda c: ETA), FlatMetric)
    assert not isinstance(MetricField(matrix_fn=lambda c: ETA, name="minkowski"), FlatMetric)


def test_event_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        SpacetimeEvent([1.0, 2.0])
    with pytest.raises(ValueError):
        SpacetimeEvent([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        FourVector([np.inf, 0, 0, 0])


def test_components_are_frozen():
    v = FourVector([1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        v.components[0] = 2.0


def test_mixed_variance_addition_rejected():
    up = FourVector([1.0, 0, 0, 0], Variance.UP)
    down = FourVector([1.0, 0, 0, 0], Variance.DOWN)
    with pytest.raises(VarianceMismatch):
        up + down


def test_symmetry_marks():
    Tensor2(np.eye(4), symmetry="symmetric")
    with pytest.raises(ValueError):
        Tensor2(np.eye(4), symmetry="antisymmetric")
    lopsided = np.zeros((4, 4))
    lopsided[0, 1] = 1.0
    with pytest.raises(ValueError):
        Tensor2(lopsided, symmetry="symmetric")


def test_domain_guard_reports_and_raises():
    guard = DomainGuard(lambda c: "outside" if c[1] < 0 else None, label="half")
    good = SpacetimeEvent([0, 1.0, 0, 0])
    bad = SpacetimeEvent([0, -1.0, 0, 0])
    assert guard.reason(good) is None
    assert guard.reason(bad) == "outside"
    with pytest.raises(OutsideDomain):
        guard.check(bad)
    guard.check(good)


coords_strategy = st.tuples(
    st.floats(-5, 5),
    st.floats(3.0, 50.0),  # stay outside the r = 2 horizon of the unit-mass metric
    st.floats(0.3, 2.8),
    st.floats(-3.0, 3.0),
)
vector_strategy = st.tuples(*[st.floats(-10, 10) for _ in range(4)])


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, comps=vector_strategy)
def test_raise_lower_round_trip(coords, comps):
    g = schwarzschild(1.0)
    x = SpacetimeEvent(np.array(coords))
    v = FourVector(np.array(comps), Variance.UP)
    back = raise_index(lower_index(v, g, x), g, x)
    np.testing.assert_allclose(back.components, v.components, rtol=0, atol=1e-12)
    assert back.variance is Variance.UP


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, comps=vector_strategy)
def test_norm_computed_in_either_variance(coords, comps):
    g = schwarzschild(1.0)
    x = SpacetimeEvent(np.array(coords))
    v = FourVector(np.array(comps), Variance.UP)
    lowered = lower_index(v, g, x)
    direct = minkowski_norm(v, g, x)
    contracted = float(lowered.components @ v.components)
    np.testing.assert_allclose(direct, contracted, rtol=1e-12, atol=1e-12)


def test_raise_index_variance_is_enforced():
    g = flat_metric()
    x = SpacetimeEvent([0, 0, 0, 0])
    with pytest.raises(VarianceMismatch):
        raise_index(FourVector([1.0, 0, 0, 0], Variance.UP), g, x)
    with pytest.raises(VarianceMismatch):
        lower_index(FourVector([1.0, 0, 0, 0], Variance.DOWN), g, x)


def test_partial_derivative_of_polynomial_field():
    # f(x) = x1^2 * x2 has exact derivatives 2 x1 x2 and x1^2
    def field(x):
        return float(x.coords[1] ** 2 * x.coords[2])

    x = SpacetimeEvent([0.0, 1.5, -2.0, 0.7])
    d1 = partial_derivative(field, x, 1)
    d2 = partial_derivative(field, x, 2)
    np.testing.assert_allclose(d1, 2 * 1.5 * -2.0, rtol=1e-9)
    np.testing.assert_allclose(d2, 1.5**2, rtol=1e-9)
    with pytest.raises(ValueError):
        partial_derivative(field, x, 4)


def test_partial_derivative_preserves_container_type():
    def field(x):
        return FourVector([x.coords[1], 0.0, 0.0, 0.0], Variance.DOWN)

    x = SpacetimeEvent([0, 2.0, 0, 0])
    d = partial_derivative(field, x, 1)
    assert isinstance(d, FourVector)
    assert d.variance is Variance.DOWN
    np.testing.assert_allclose(d.components, [1.0, 0, 0, 0], atol=1e-9)
