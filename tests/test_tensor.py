"""Containers, raw metric evaluators, index movement, and finite differencing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.errors import OutsideDomain, ValidationError
from phasetransport.fields import coulomb_potential
from phasetransport.metrics import minkowski, schwarzschild, weak_field
from phasetransport.tensor import (
    FD_STEP_FIRST,
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    central_differences,
)
from phasetransport.transport import _trajectory

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_flat_metric_is_exact():
    g = minkowski()
    c = np.array([0.3, -2.0, 7.1, 0.0])
    assert np.array_equal(g.matrix_fn(c), ETA)
    assert np.array_equal(g.inverse_raw(c), ETA)
    assert np.array_equal(g.deriv_fn(c), np.zeros((4, 4, 4)))


def test_flat_chart_identity_survives_evaluator_replacement():
    g = minkowski()
    assert isinstance(g, FlatMetric)
    assert isinstance(dataclasses.replace(g, inverse_fn=lambda c: ETA), FlatMetric)
    assert not isinstance(MetricField(matrix_fn=lambda c: ETA, name="minkowski"), FlatMetric)


def test_event_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValidationError):
        SpacetimeEvent([1.0, 2.0])
    with pytest.raises(ValidationError, match=r"components \[0, 2\] of \[nan, 0.0, inf, 0.0\]"):
        SpacetimeEvent([np.nan, 0.0, np.inf, 0.0])
    with pytest.raises(ValidationError):
        FourVector([np.inf, 0, 0, 0])


def test_components_are_frozen():
    v = FourVector([1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        v.components[0] = 2.0


def test_domain_guard_reports_and_raises():
    guard = DomainGuard(lambda c: "outside" if c[1] < 0 else None, label="half")
    good = SpacetimeEvent([0, 1.0, 0, 0])
    bad = SpacetimeEvent([0, -1.0, 0, 0])
    assert guard.probe(good.coords) is None
    assert guard.probe(bad.coords) == "outside"
    with pytest.raises(OutsideDomain):
        guard.check(bad)
    guard.check(good)


def test_an_intersected_guard_names_the_first_rejected_event_of_a_batch():
    # the Coulomb guard rejects only the third event, the weak field's the
    # second and third: the batch's reason is the second's
    both = coulomb_potential(2.0).guard.intersect(weak_field(1.0).guard)
    rows = np.array([(0.0, 10.0, 1.0, 0.5), (0.0, 1.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    assert both.probe(rows) == both.probe(rows[1]) == "r = 1.5 inside guarded radius 2"
    assert both.probe(rows[::2]) == "r = 0.000e+00 at the potential singularity"
    assert both.probe(rows[:1]) is None


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
    c = np.array(coords)
    v = np.array(comps)
    back = g.inverse_raw(c) @ (g.matrix_fn(c) @ v)
    np.testing.assert_allclose(back, v, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, comps=vector_strategy)
def test_norm_computed_in_either_variance(coords, comps):
    # a trajectory's norm residual and energy come from the lowered velocity
    g = schwarzschild(1.0)
    c = np.array(coords)
    v = np.array(comps)
    traj = _trajectory(g, np.zeros(1), np.concatenate([c, v])[None], "completed", None)
    lowered = g.matrix_fn(c) @ v
    direct = float(v @ g.matrix_fn(c) @ v)
    np.testing.assert_allclose(traj.norm_residual[0] - 1.0, direct, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(traj.energy[0], -lowered[0], rtol=1e-12, atol=1e-12)


def test_partial_derivative_of_polynomial_field():
    # f(x) = x1^2 * x2 has exact derivatives 2 x1 x2 and x1^2
    def field(c):
        return c[1] ** 2 * c[2]

    d = central_differences(field, np.array([0.0, 1.5, -2.0, 0.7]), FD_STEP_FIRST)
    np.testing.assert_allclose(d[1], 2 * 1.5 * -2.0, rtol=1e-9)
    np.testing.assert_allclose(d[2], 1.5**2, rtol=1e-9)


def test_central_difference_step_override_applies_to_every_direction():
    # the central quotient of a cubic is exactly f' + h^2 f''' / 6, with the given h
    def field(c):
        return c[0] ** 3 + 2.0 * c[3] ** 3

    d = central_differences(field, np.array([0.5, 0.0, 0.0, -1.5]), FD_STEP_FIRST, step=0.25)
    np.testing.assert_allclose(d, [3 * 0.25 + 0.0625, 0.0, 0.0, 6 * 2.25 + 2 * 0.0625],
                               rtol=1e-14, atol=0)


def test_partial_derivative_preserves_container_type():
    # the derivative of a vector field keeps the field's shape, per direction,
    # on the axis the caller asks for
    def field(c):
        return np.array([c[1], 0.0, 0.0, 0.0])

    c = np.array([0, 2.0, 0, 0])
    first = central_differences(field, c, FD_STEP_FIRST)
    last = central_differences(field, c, FD_STEP_FIRST, axis=-1)
    assert first.shape == last.shape == (4, 4)
    np.testing.assert_allclose(first[1], [1.0, 0, 0, 0], atol=1e-9)
    np.testing.assert_array_equal(last, first.T)
