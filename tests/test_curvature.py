"""Connection coefficients, curvature tensors, and the two residual probes.

The convergence assertions pin second-order behaviour of the central
differences: halving the step must shrink bianchi/closure residuals by
a factor of 4 (within a 15% band), while analytically vanishing cases
must sit at rounding level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.curvature import (
    bianchi_residual,
    christoffel_raw,
    closure_residual,
    einstein_raw,
    faraday_matrix_raw,
    ricci_raw,
)
from phasetransport.fields import (
    coulomb_potential,
    uniform_field_potential,
    zero_potential,
)
from phasetransport.metrics import minkowski, schwarzschild, without_closed_form
from phasetransport.errors import OutsideDomain, SingularMetric
from phasetransport.tensor import MetricField, SpacetimeEvent


def event(t, r, th, ph):
    return SpacetimeEvent([t, r, th, ph])


X10 = event(0.0, 10.0, np.pi / 2, 0.0)


def scalar_curvature(g, x):
    """R = g^mn R_mn at the event `x`."""
    return float(np.einsum("mn,mn->", g.inverse_raw(x.coords), ricci_raw(g, x.coords)))


def _exact_christoffel_entries(mass, r):
    f = 1.0 - 2.0 * mass / r
    return {
        (1, 0, 0): mass / r**2 * f,
        (0, 0, 1): mass / (r**2 * f),
        (1, 1, 1): -mass / (r**2 * f),
        (2, 1, 2): 1.0 / r,
        (3, 1, 3): 1.0 / r,
        (1, 2, 2): -r * f,
        (1, 3, 3): -r * f,  # theta = pi/2
    }


def test_christoffel_closed_form_reference_values():
    gamma = christoffel_raw(schwarzschild(1.0), X10.coords)
    for (a, b, c), want in _exact_christoffel_entries(1.0, 10.0).items():
        np.testing.assert_allclose(gamma[a, b, c], want, rtol=1e-12, err_msg=str((a, b, c)))


def test_christoffel_finite_difference_matches_closed_form():
    g = schwarzschild(1.0)
    x = event(0.0, 8.0, 1.1, 0.7)
    exact = christoffel_raw(g, x.coords)
    numeric = christoffel_raw(without_closed_form(g), x.coords)
    np.testing.assert_allclose(numeric, exact, rtol=0, atol=1e-8)


def test_christoffel_variance_tags():
    # the first slot is the contravariant one: lowering it gives the
    # first-kind symbol Gamma_rtt = M/r^2, while Gamma^r_tt = (M/r^2)(1 - 2M/r)
    g = schwarzschild(1.0)
    gamma = christoffel_raw(g, X10.coords)
    lowered = np.einsum("ab,bmn->amn", g.matrix_fn(X10.coords), gamma)
    np.testing.assert_allclose(gamma[1, 0, 0], 0.008, rtol=1e-12)
    np.testing.assert_allclose(lowered[1, 0, 0], 0.01, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(r=st.floats(5.0, 60.0), th=st.floats(0.4, 2.7), mass=st.floats(0.5, 3.0))
def test_christoffel_symmetric_in_lower_indices(r, th, mass):
    gamma = christoffel_raw(schwarzschild(mass), event(0.0, r * mass, th, 1.0).coords)
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), rtol=0, atol=1e-9)


def test_vacuum_ricci_and_einstein_vanish_over_radial_range():
    g = schwarzschild(1.0)
    for r in (4.0, 6.0, 10.0, 20.0, 50.0, 100.0):
        x = event(0.0, r, 1.0, 0.3)
        assert np.max(np.abs(ricci_raw(g, x.coords))) < 1e-5
        assert np.max(np.abs(einstein_raw(g, x.coords))) < 1e-5


def test_vacuum_scalar_curvature_vanishes():
    g = schwarzschild(1.0)
    assert abs(scalar_curvature(g, event(0.0, 12.0, 1.3, 0.0))) < 1e-6


def test_trace_identity_links_einstein_and_ricci_scalar():
    # g^{mn} G_mn = -R in four dimensions
    g = schwarzschild(1.0)
    x = event(0.0, 6.0, 0.9, 0.2)
    ginv = g.inverse_raw(x.coords)
    lhs = float(np.tensordot(ginv, einstein_raw(g, x.coords), axes=2))
    rhs = -scalar_curvature(g, x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_flat_metric_curvature_identically_zero():
    g = minkowski()
    x = SpacetimeEvent([0.4, 1.0, -2.0, 3.0])
    assert np.max(np.abs(ricci_raw(g, x.coords))) == 0.0
    assert bianchi_residual(g, x) == 0.0


def test_bianchi_residual_second_order_in_step():
    g = schwarzschild(1.0)
    x = event(0.0, 8.0, 1.0, 0.3)
    coarse = bianchi_residual(g, x, step=0.02)
    fine = bianchi_residual(g, x, step=0.01)
    assert 3.4 < coarse / fine < 4.6
    assert fine < 1e-5


def test_bianchi_residual_small_at_default_step():
    g = schwarzschild(1.0)
    assert bianchi_residual(g, X10) < 1e-8


def test_bianchi_residual_checks_the_guard_and_the_determinant():
    with pytest.raises(OutsideDomain):
        bianchi_residual(schwarzschild(1.0), event(0.0, 1.5, 1.0, 0.0))  # inside the horizon
    degenerate = MetricField(matrix_fn=lambda c: np.diag([-1.0, 1.0, 1.0, 0.0]), name="degenerate")
    with pytest.raises(SingularMetric):
        bianchi_residual(degenerate, event(0.0, 1.0, 1.0, 0.0))


def test_closure_residual_zero_for_uniform_fields():
    pot = uniform_field_potential([0.3, 0.0, -0.1], [0.0, 0.5, 1.0])
    x = SpacetimeEvent([0.0, 1.0, 2.0, -1.0])
    assert closure_residual(pot, x) <= 1e-12
    assert closure_residual(zero_potential(), x) == 0.0


def test_closure_residual_second_order_for_coulomb():
    # needs the closed-form field derivative: differencing a field that is
    # itself centrally differenced satisfies the cyclic identity to
    # rounding at any step, which would hide the truncation order
    pot = coulomb_potential(1.0)
    x = SpacetimeEvent([0.0, 3.0, 2.0, -1.0])
    coarse = closure_residual(pot, x, step=0.02)
    fine = closure_residual(pot, x, step=0.01)
    assert 3.4 < coarse / fine < 4.6
    assert coarse > 1e-7  # genuinely resolving truncation, not noise


def test_closure_residual_tiny_for_differenced_potential():
    # strip the closed form: commuting difference operators make the
    # cyclic sum cancel almost exactly even at a large step
    pot = coulomb_potential(1.0)
    import dataclasses

    stripped = dataclasses.replace(pot, deriv_fn=None)
    x = SpacetimeEvent([0.0, 3.0, 2.0, -1.0])
    assert closure_residual(stripped, x, step=0.05) < 1e-12


def test_faraday_from_potential_matches_uniform_builder():
    e, b = [0.2, 0.1, 0.0], [0.0, 0.0, 1.5]
    pot = uniform_field_potential(e, b)
    x = SpacetimeEvent([0.0, 0.5, -0.3, 0.8])
    from phasetransport.fields import matrix_from_eb

    np.testing.assert_allclose(
        faraday_matrix_raw(pot, x.coords), matrix_from_eb(e, b), rtol=0, atol=1e-12
    )


def test_numeric_derivative_path_still_beats_vacuum_bound():
    g = without_closed_form(schwarzschild(1.0))
    x = event(0.0, 10.0, 1.0, 0.3)
    assert np.max(np.abs(ricci_raw(g, x.coords))) < 1e-5
