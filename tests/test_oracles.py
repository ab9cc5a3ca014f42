"""Internal consistency of the closed-form reference solutions.

Where two independent routes to the same number exist (trapezoidal
quadrature vs. complete elliptic integral for the apsidal advance),
they are required to agree far below the tolerances used elsewhere.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport import oracles


def test_gamma_round_trip():
    v = 0.6
    g = oracles.lorentz_gamma(v)
    u = g * v
    np.testing.assert_allclose(oracles.gamma_from_u([u, 0, 0]), g, rtol=1e-15)


def test_cyclotron_state_closes_after_one_proper_period():
    m, e, b, u_perp = 1.0, 1.0, 1.0, 0.1
    period = oracles.proper_period(m, e, b)
    np.testing.assert_allclose(period, 2 * math.pi, rtol=1e-15)
    x, u = oracles.cyclotron_state(m, e, b, u_perp, period)
    x0, u0 = oracles.cyclotron_state(m, e, b, u_perp, 0.0)
    np.testing.assert_allclose(u, u0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x[1:], x0[1:], rtol=0, atol=1e-14)
    # elapsed lab time is gamma times proper time
    gamma = oracles.gamma_from_u([u_perp, 0, 0])
    np.testing.assert_allclose(x[0], gamma * period, rtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    u_perp=st.floats(0.01, 5.0),
    tau=st.floats(0.0, 50.0),
    b=st.floats(0.2, 4.0),
)
def test_cyclotron_state_stays_unit_norm_and_on_circle(u_perp, tau, b):
    x, u = oracles.cyclotron_state(1.0, 1.0, b, u_perp, tau)
    np.testing.assert_allclose(u[0] ** 2 - u[1] ** 2 - u[2] ** 2, 1.0, rtol=1e-12)
    radius = oracles.larmor_radius(1.0, 1.0, b, u_perp)
    center_dist = math.hypot(x[1] - 0.0, x[2] + radius)
    np.testing.assert_allclose(center_dist, radius, rtol=1e-10, atol=1e-12)


def test_drift_velocity_formula_and_rejections():
    v = oracles.drift_velocity([0.1, 0.0, 0.0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(v, [0.0, -0.1, 0.0], rtol=0, atol=1e-16)
    with pytest.raises(ValueError):
        oracles.drift_velocity([0.1, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        oracles.drift_velocity([2.0, 0, 0], [0, 0, 1.0])  # |E| > |B|, no drift frame


def test_drift_window_reference_value():
    window = oracles.drift_window(1.0, 1.0, [0.1, 0.0, 0.0], [0.0, 0.0, 1.0], cycles=10)
    np.testing.assert_allclose(window, 63.14838833996553, rtol=1e-15)


def test_circular_orbit_closed_forms():
    np.testing.assert_allclose(
        oracles.circular_orbit_coordinate_rate(1.0, 10.0), math.sqrt(1e-3), rtol=1e-15
    )
    np.testing.assert_allclose(
        oracles.circular_orbit_time_component(1.0, 10.0), 1.0 / math.sqrt(0.7), rtol=1e-15
    )
    with pytest.raises(ValueError):
        oracles.circular_orbit_time_component(1.0, 3.0)  # photon sphere


def test_bound_orbit_constants_satisfy_turning_point_conditions():
    mass, rp, ra = 1.0, 18.0, 22.0
    energy, ell = oracles.bound_orbit_constants(mass, rp, ra)
    np.testing.assert_allclose(energy, 0.9761906491267601, rtol=1e-15)
    np.testing.assert_allclose(ell, 4.832143713177466, rtol=1e-15)
    for r in (rp, ra):
        f = 1.0 - 2.0 * mass / r
        np.testing.assert_allclose(energy**2, f * (1.0 + ell**2 / r**2), rtol=1e-14)
    with pytest.raises(ValueError):
        oracles.bound_orbit_constants(1.0, 22.0, 18.0)
    with pytest.raises(ValueError):
        oracles.bound_orbit_constants(1.0, 1.5, 22.0)


def test_apsidal_advance_two_routes_agree():
    quad = oracles.apsidal_advance_exact(1.0, 18.0, 22.0)
    elliptic = oracles.apsidal_advance_elliptic(1.0, 18.0, 22.0)
    np.testing.assert_allclose(quad, 1.2432620006629547, rtol=1e-13)
    np.testing.assert_allclose(elliptic, quad, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(r_peri=st.floats(6.5, 40.0), ecc=st.floats(0.0, 0.95))
def test_apsidal_advance_quadrature_matches_the_elliptic_route(r_peri, ecc):
    r_apo = r_peri * (1.0 + ecc) / (1.0 - ecc)
    np.testing.assert_allclose(oracles.apsidal_advance_exact(1.0, r_peri, r_apo),
                               oracles.apsidal_advance_elliptic(1.0, r_peri, r_apo), rtol=1e-12)


def test_periodic_quadrature_raises_on_a_kinked_integrand():
    # |sin psi - 1/2| has a kink at psi = pi/6, where the trapezoidal rule
    # converges only as n^-2 and cannot reach 1e-14 in 2**16 nodes
    with pytest.raises(RuntimeError):
        oracles._periodic_quadrature(lambda sin2: abs(math.sqrt(sin2) - 0.5))


def test_apsidal_advance_circular_limit_agrees_with_nearly_circular_orbit():
    limit = oracles.apsidal_advance_circular_limit(1.0, 20.0)
    nearly = oracles.apsidal_advance_exact(1.0, 19.999999, 20.000001)
    np.testing.assert_allclose(nearly, limit, rtol=1e-9)
    with pytest.raises(ValueError):
        oracles.apsidal_advance_circular_limit(1.0, 6.0)


def test_leading_order_formula_converges_far_from_the_hole():
    # at p ~ 2000 M the weak-field expression is good to a few parts in 1e3
    exact = oracles.apsidal_advance_exact(1.0, 1800.0, 2200.0)
    leading = oracles.apsidal_advance_leading_order(1.0, 1800.0, 2200.0)
    assert abs(exact - leading) / exact < 3e-3
    # while at p ~ 20 M it visibly under-predicts
    strong = oracles.apsidal_advance_exact(1.0, 18.0, 22.0)
    weak = oracles.apsidal_advance_leading_order(1.0, 18.0, 22.0)
    assert (strong - weak) / strong > 0.2


def test_radial_period_reference_value():
    period = oracles.radial_period_proper(1.0, 18.0, 22.0)
    np.testing.assert_allclose(period, 619.4597054103299, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(k=st.floats(0.001, 0.9))
def test_coulomb_circular_speed_balances_force(k):
    v = oracles.coulomb_circular_speed(k)
    assert 0.0 < v < 1.0
    gamma = oracles.lorentz_gamma(v)
    np.testing.assert_allclose(gamma * v * v, k, rtol=1e-12)


def test_newtonian_acceleration_points_inward():
    a = oracles.newtonian_acceleration(2.0, [3.0, 0.0, 4.0])
    np.testing.assert_allclose(a, [-2.0 * 3.0 / 125.0, 0.0, -2.0 * 4.0 / 125.0], rtol=1e-14)
