"""Worldline integration against closed-form references.

The numerical bounds here were measured once at the pinned steps and
then frozen with headroom of two to four orders of magnitude; a
regression that moves an error by less than that is invisible, anything
structural fails loudly.
"""

import dataclasses
import gc
import math
import sys
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasetransport import oracles, transport
from phasetransport.connection import (
    NonLinearConnection,
    Particle,
    electromagnetic_connection,
    gravitational_connection,
    superpose,
    zero_connection,
)
from phasetransport.curvature import faraday_field_of
from phasetransport.errors import (
    MalformedFaraday,
    NonMonotoneTime,
    OutsideDomain,
    StepRejected,
    ValidationError,
)
from phasetransport.fields import (
    AntisymmetricFaraday,
    FaradayField,
    VectorPotential,
    axial_magnetic_potential_spherical,
    coulomb_potential,
    uniform_faraday,
    uniform_field_potential,
    zero_potential,
)
from phasetransport.metrics import minkowski, schwarzschild, weak_field, without_closed_form
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin
from phasetransport.tensor import (
    EVERYWHERE,
    MINKOWSKI,
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    closed_form,
    metric_contraction,
    spec,
    with_spec,
)
from phasetransport.transport import (
    IntegratorConfig,
    PhaseState,
    Trajectory,
    TrajectorySample,
    _batch_rhs,
    _compile_canonical,
    _lone_rhs,
    _rejected,
    acceleration_terms,
    coordinate_force,
    geodesic_integrate,
    integrate,
    integrate_batch,
    minimal_substitution_trajectory,
)


def state(coords, u):
    return PhaseState(0.0, SpacetimeEvent(coords), FourVector(u))


def rest_state(coords=(0.0, 0.0, 0.0, 0.0)):
    return state(list(coords), [1.0, 0.0, 0.0, 0.0])


def circular_orbit_state(mass, radius):
    ut = oracles.circular_orbit_time_component(mass, radius)
    rate = oracles.circular_orbit_coordinate_rate(mass, radius)
    return state([0.0, radius, math.pi / 2, 0.0], [ut, 0.0, 0.0, rate * ut])


def bound_orbit_state(mass, rp, ra):
    energy, ell = oracles.bound_orbit_constants(mass, rp, ra)
    ut = energy / (1.0 - 2.0 * mass / rp)
    return state([0.0, rp, math.pi / 2, 0.0], [ut, 0.0, 0.0, ell / rp**2])


def counting(fn, calls):
    """`fn`, appending to `calls` on every call."""

    def wrapped(coords):
        calls.append(1)
        return fn(coords)

    return wrapped


# ---------------------------------------------------------------------------
# configuration and state validation


def test_integrator_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValidationError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(rtol=-1e-9)
    with pytest.raises(ValidationError):
        IntegratorConfig(rtol=0.0, atol=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(tau_max=-1.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(max_steps=0)
    for key in ("step", "tau_max", "rtol", "atol"):
        for value in (math.inf, -math.inf, math.nan, True, False, "0.1", None):
            with pytest.raises(ValidationError, match=f"{key} must be a finite real number"):
                IntegratorConfig(**{key: value})
    # only construct: a fractional step budget never ends an RK4 run
    for value in (2.5, math.nan, math.inf, True, "10", 0, -3):
        with pytest.raises(ValidationError, match="max_steps"):
            IntegratorConfig(max_steps=value)
    assert IntegratorConfig(max_steps=np.int64(7)).max_steps == 7


def test_phase_state_requires_future_directed_contravariant_velocity():
    x = SpacetimeEvent([0, 0, 0, 0])
    with pytest.raises(ValidationError):
        PhaseState(0.0, x, FourVector([-1.0, 0, 0, 0]))


# ---------------------------------------------------------------------------
# flat-space motion


def test_free_particle_is_linear():
    cfg = IntegratorConfig(step=0.1, tau_max=1.0)
    initial = state([0, 0, 0, 0], [math.sqrt(2.0), 1.0, 0.0, 0.0])
    traj = integrate(zero_connection(), Particle(1.0), initial, cfg)
    assert traj.status == "completed"
    assert len(traj) == 11
    for sample in traj:
        tau = sample.state.tau
        np.testing.assert_allclose(sample.state.x.coords[1], tau, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(
            sample.state.u.components, initial.u.components
        )


def test_cyclotron_endpoint_matches_exact_solution():
    m = e = b = 1.0
    u_perp = 0.1
    tau_end = oracles.proper_period(m, e, b)
    cfg = IntegratorConfig(step=1e-3, tau_max=tau_end)
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, b]), e)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([u_perp, 0, 0]), u_perp, 0, 0])
    traj = integrate(conn, Particle(m, e), initial, cfg)
    x_exact, u_exact = oracles.cyclotron_state(m, e, b, u_perp, tau_end)
    last = traj[-1].state
    np.testing.assert_allclose(last.x.coords, x_exact, rtol=0, atol=1e-12)
    np.testing.assert_allclose(last.u.components, u_exact, rtol=0, atol=1e-12)
    assert max(abs(s.norm_residual) for s in traj) < 1e-14


def test_exb_drift_velocity():
    e_vec, b_vec = [0.1, 0.0, 0.0], [0.0, 0.0, 1.0]
    window = oracles.drift_window(1.0, 1.0, e_vec, b_vec, cycles=10)
    cfg = IntegratorConfig(step=1e-2, tau_max=window)
    conn = electromagnetic_connection(uniform_faraday(e_vec, b_vec), 1.0)
    traj = integrate(conn, Particle(1.0, 1.0), rest_state(), cfg)
    first, last = traj[0].state, traj[-1].state
    elapsed = last.x.coords[0] - first.x.coords[0]
    drift = (last.x.coords[1:] - first.x.coords[1:]) / elapsed
    expected = oracles.drift_velocity(e_vec, b_vec)
    assert np.linalg.norm(drift - expected) < 1e-10


# ---------------------------------------------------------------------------
# curved-space motion


def test_schwarzschild_circular_orbit_rate_and_radius():
    mass, radius = 1.0, 10.0
    rate = oracles.circular_orbit_coordinate_rate(mass, radius)
    ut = oracles.circular_orbit_time_component(mass, radius)
    tau_orbit = 2.0 * math.pi / (rate * ut)
    cfg = IntegratorConfig(step=5e-2, tau_max=tau_orbit)
    traj = geodesic_integrate(
        schwarzschild(mass), Particle(1.0), circular_orbit_state(mass, radius), cfg
    )
    last = traj[-1].state
    measured_rate = last.x.coords[3] / last.x.coords[0]
    np.testing.assert_allclose(measured_rate, rate, rtol=1e-12)
    radii = np.array([s.state.x.coords[1] for s in traj])
    assert np.max(np.abs(radii - radius)) < 1e-12
    np.testing.assert_allclose(last.x.coords[3], 2.0 * math.pi, rtol=1e-12)


def test_energy_diagnostic_is_conserved_on_geodesics():
    traj = geodesic_integrate(
        schwarzschild(1.0),
        Particle(1.0),
        bound_orbit_state(1.0, 18.0, 22.0),
        IntegratorConfig(step=5e-2, tau_max=50.0),
    )
    energies = np.array([s.diagnostics["energy"] for s in traj])
    expected, _ = oracles.bound_orbit_constants(1.0, 18.0, 22.0)
    np.testing.assert_allclose(energies, expected, rtol=1e-12)


def test_adaptive_and_fixed_step_agree_on_eccentric_orbit():
    initial = bound_orbit_state(1.0, 18.0, 22.0)
    g = schwarzschild(1.0)
    fixed = geodesic_integrate(
        g, Particle(1.0), initial, IntegratorConfig(step=1e-2, tau_max=100.0)
    )
    adaptive = geodesic_integrate(
        g,
        Particle(1.0),
        initial,
        IntegratorConfig(method="rk45-adaptive", rtol=1e-11, atol=1e-13, tau_max=100.0),
    )
    assert adaptive.status == "completed"
    np.testing.assert_allclose(adaptive[-1].state.tau, 100.0, rtol=0, atol=0)
    gap = np.max(np.abs(adaptive[-1].state.x.coords - fixed[-1].state.x.coords))
    assert gap < 1e-7
    # the adaptive run should need far fewer steps
    assert len(adaptive) < len(fixed) / 5


def test_weak_field_release_reproduces_inverse_square_force():
    mass = 1.0
    g = weak_field(mass)
    traj = geodesic_integrate(
        g,
        Particle(1.0),
        rest_state((0.0, 1e4, 0.0, 0.0)),
        IntegratorConfig(step=1e-2, tau_max=10.0),
    )
    forces = coordinate_force(traj, Particle(1.0))
    worst = 0.0
    for t, f in forces[len(forces) // 10 : -len(forces) // 10]:
        expected = oracles.newtonian_acceleration(mass, [1e4, 0.0, 0.0])
        worst = max(worst, abs(np.linalg.norm(f) - np.linalg.norm(expected)))
    assert worst / abs(oracles.newtonian_acceleration(mass, [1e4, 0, 0])[0]) < 2e-4


# ---------------------------------------------------------------------------
# invariance properties


def test_geodesics_bit_identical_under_mass_rescaling():
    initial = bound_orbit_state(1.0, 18.0, 22.0)
    cfg = IntegratorConfig(step=5e-2, tau_max=30.0)
    g = schwarzschild(1.0)
    light = geodesic_integrate(g, Particle(1.0), initial, cfg)
    heavy = geodesic_integrate(g, Particle(17.0), initial, cfg)
    for a, b in zip(light, heavy):
        np.testing.assert_array_equal(a.state.x.coords, b.state.x.coords)
        np.testing.assert_array_equal(a.state.u.components, b.state.u.components)


def test_gravity_retraces_under_spatial_velocity_flip():
    # static metric: reversing the spatial velocity at the endpoint and
    # integrating the same span again returns to the start
    g = schwarzschild(1.0)
    initial = bound_orbit_state(1.0, 18.0, 22.0)
    cfg = IntegratorConfig(step=1e-2, tau_max=40.0)
    forward = geodesic_integrate(g, Particle(1.0), initial, cfg)
    end = forward[-1].state
    u_back = end.u.components * np.array([1.0, -1.0, -1.0, -1.0])
    back = geodesic_integrate(
        g, Particle(1.0), PhaseState(0.0, end.x, FourVector(u_back)), cfg
    )
    final = back[-1].state
    np.testing.assert_allclose(
        final.x.coords[1:], initial.x.coords[1:], rtol=0, atol=1e-10
    )
    flipped = final.u.components * np.array([1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(flipped, initial.u.components, rtol=0, atol=1e-11)


def test_magnetic_motion_retraces_under_field_reversal():
    # velocity flip alone reverses gravity but not the Lorentz term; the
    # return leg additionally needs B -> -B (an E field would keep its sign)
    u_perp = 0.3
    cfg = IntegratorConfig(step=1e-3, tau_max=2.0)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([u_perp, 0, 0]), u_perp, 0, 0])
    forward_conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    reverse_conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, -1.0]), 1.0)
    forward = integrate(forward_conn, Particle(1.0, 1.0), initial, cfg)
    end = forward[-1].state
    u_back = end.u.components * np.array([1.0, -1.0, -1.0, -1.0])
    back = integrate(
        reverse_conn,
        Particle(1.0, 1.0),
        PhaseState(0.0, end.x, FourVector(u_back)),
        cfg,
    )
    np.testing.assert_allclose(
        back[-1].state.x.coords[1:], initial.x.coords[1:], rtol=0, atol=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(
    u_phi=st.floats(0.01, 0.035),
    r0=st.floats(8.0, 30.0),
    step_size=st.floats(1e-2, 5e-2),
)
def test_norm_residual_stays_small_on_random_orbits(u_phi, r0, step_size):
    g = schwarzschild(1.0)
    gmat = g.matrix_fn(np.array([0.0, r0, math.pi / 2, 0.0]))
    u0 = math.sqrt((1.0 + gmat[3, 3] * u_phi**2) / -gmat[0, 0])
    initial = state([0.0, r0, math.pi / 2, 0.0], [u0, 0.0, 0.0, u_phi])
    traj = geodesic_integrate(
        g, Particle(1.0), initial, IntegratorConfig(step=step_size, tau_max=20.0)
    )
    assert abs(traj[0].norm_residual) < 1e-14
    if traj.status == "completed":
        assert max(abs(s.norm_residual) for s in traj) < 1e-9


# ---------------------------------------------------------------------------
# two-route checks


def test_minimal_substitution_matches_lorentz_route_for_uniform_field():
    u_perp = 0.1
    tau_end = oracles.proper_period(1.0, 1.0, 1.0)
    cfg = IntegratorConfig(step=1e-3, tau_max=tau_end)
    particle = Particle(1.0, 1.0)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([u_perp, 0, 0]), u_perp, 0, 0])
    pot = uniform_field_potential(b_field=[0, 0, 1.0])
    lorentz = integrate(
        electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0),
        particle,
        initial,
        cfg,
    )
    canonical = minimal_substitution_trajectory(pot, minkowski(), particle, initial, cfg)
    gap = np.max(np.abs(lorentz[-1].state.x.coords - canonical[-1].state.x.coords))
    assert gap < 1e-12


def test_minimal_substitution_with_zero_potential_reduces_to_geodesic():
    g = schwarzschild(1.0)
    particle = Particle(1.0, 1.0)
    initial = circular_orbit_state(1.0, 10.0)
    cfg = IntegratorConfig(step=5e-2, tau_max=20.0)
    geo = geodesic_integrate(g, particle, initial, cfg)
    canonical = minimal_substitution_trajectory(zero_potential(), g, particle, initial, cfg)
    gap = np.max(np.abs(geo[-1].state.x.coords - canonical[-1].state.x.coords))
    assert gap < 1e-9


def test_minimal_substitution_ends_at_the_potential_guard():
    # the flat metric admits every event, so only the potential's guard can end the run
    half = DomainGuard(lambda c: "x1 below zero" if c[1] < 0 else None, label="half-space")
    pot = VectorPotential(lambda c: np.zeros(4), deriv_fn=lambda c: np.zeros((4, 4)), guard=half)
    initial = state([0.0, 0.5, 0.0, 0.0], [math.sqrt(1.25), -0.5, 0.0, 0.0])
    cfg = IntegratorConfig(step=0.1, tau_max=5.0)
    traj = minimal_substitution_trajectory(pot, minkowski(), Particle(1.0, 1.0), initial, cfg)
    assert (traj.status, traj.reason) == ("domain-exit", "everywhere & half-space: x1 below zero")
    assert 5 < len(traj) < 12 and np.all(traj.state[:, 1] >= 0.0)


def test_canonical_run_without_a_step_fails_on_a_start_velocity_that_is_not_finite():
    # A(x0) overflows, so the start velocity is recovered from inf - inf; a run
    # that starts at tau_max takes no step whose law could catch it, and the
    # overflow at the start event is the run's signal, never a numpy warning
    pot = axial_magnetic_potential_spherical(1e307)
    start = circular_orbit_state(1.0, 10.0)
    initial = PhaseState(5.0, start.x, start.u)
    cfg = IntegratorConfig(step=0.1, tau_max=5.0)
    with pytest.raises(StepRejected, match="state became non-finite at tau = 5$"):
        minimal_substitution_trajectory(pot, schwarzschild(1.0), Particle(1.0, 1.0), initial, cfg)


@pytest.mark.parametrize("chart", ["schwarzschild", "weak-field"])
def test_canonical_route_fails_where_its_velocity_overflows(chart):
    # d_s g(u, u) sums dg's nonzero entries only; a velocity that overflows
    # still lands the state non-finite, on floats as on arrays
    g = schwarzschild(1.0) if chart == "schwarzschild" else weak_field(1.0)
    initial = state([0.0, 10.0, 1.2, 0.0], [1e200, 1e150, 1e151, 1e150])
    with pytest.raises(StepRejected, match=r"state became non-finite at tau = 0\.1$"):
        minimal_substitution_trajectory(zero_potential(), g, Particle(1.0, 1.0), initial,
                                        IntegratorConfig(step=0.1, tau_max=1.0))


# ---------------------------------------------------------------------------
# terminal statuses and error paths


def test_plunge_exits_domain_instead_of_crashing():
    g = schwarzschild(1.0)
    gmat = g.matrix_fn(np.array([0.0, 6.0, math.pi / 2, 0.0]))
    initial = state([0.0, 6.0, math.pi / 2, 0.0], [math.sqrt(-1.0 / gmat[0, 0]), 0, 0, 0])
    traj = geodesic_integrate(
        g, Particle(1.0), initial, IntegratorConfig(step=1e-2, tau_max=40.0)
    )
    assert traj.status == "domain-exit"
    assert traj.reason is not None
    # every retained sample is still outside the horizon
    assert all(s.state.x.coords[1] > 2.0 for s in traj)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0, 3.0])
def test_plunge_ends_with_the_guard_labelled_reason(h):
    # the reason is worded alike whether a stage (h = 2) or the landing
    # test (h = 0.5) caught the state inside the guard
    g = schwarzschild(1.0)
    gmat = g.matrix_fn(np.array([0.0, 6.0, math.pi / 2, 0.0]))
    initial = state([0.0, 6.0, math.pi / 2, 0.0], [math.sqrt(-1.0 / gmat[0, 0]), 0, 0, 0])
    cfg = IntegratorConfig(step=h, tau_max=40.0)
    traj = geodesic_integrate(g, Particle(1.0), initial, cfg)
    assert traj.status == "domain-exit"
    assert traj.reason.startswith("schwarzschild(M=1): r = ")
    assert traj.reason.endswith(" inside guarded radius 2")


def test_max_steps_status():
    cfg = IntegratorConfig(step=0.1, tau_max=10.0, max_steps=5)
    traj = integrate(zero_connection(), Particle(1.0), rest_state(), cfg)
    assert traj.status == "max-steps"
    assert len(traj) == 6  # initial sample plus five steps


# (tau_max, max_steps) -> (status, samples, last tau), at step 0.25 from tau = 0
RK4_PLAN_EDGES = {
    "exact-multiple": ((1.0, 100), ("completed", 5, 1.0)),
    "remainder-below-tolerance": ((1.0 + 1e-11, 100), ("completed", 5, 1.0 + 1e-11)),
    "remainder-above-tolerance": ((1.1, 100), ("completed", 6, 1.1)),
    "budget-exactly-enough": ((1.1, 5), ("completed", 6, 1.1)),
    "budget-one-short": ((1.1, 4), ("max-steps", 5, 1.0)),
    "multiple-budget-one-short": ((1.0, 3), ("max-steps", 4, 0.75)),
}


@pytest.mark.parametrize("case", sorted(RK4_PLAN_EDGES))
def test_fixed_step_plan_at_its_edges_alone_and_in_a_batch(case):
    (tau_max, max_steps), want = RK4_PLAN_EDGES[case]
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([0.3, 0, 0]), 0.3, 0, 0])
    cfg = IntegratorConfig(step=0.25, tau_max=tau_max, max_steps=max_steps)
    # the other rows end before, with and after this one
    cfgs = [dataclasses.replace(cfg, tau_max=0.6), cfg, dataclasses.replace(cfg, tau_max=2.0)]
    alone = integrate(conn, Particle(1.0, 1.0), initial, cfg)
    batched = integrate_batch(conn, Particle(1.0, 1.0), [initial] * 3, cfgs)[1]
    for traj in (alone, batched):
        assert (traj.status, len(traj), traj.tau[-1]) == want


def test_adaptive_rejects_impossible_tolerance():
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    cfg = IntegratorConfig(
        method="rk45-adaptive", rtol=0.0, atol=1e-300, tau_max=10.0
    )
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([0.5, 0, 0]), 0.5, 0, 0])
    with pytest.raises(StepRejected):
        integrate(conn, Particle(1.0, 1.0), initial, cfg)


def test_initial_point_outside_domain_raises():
    g = schwarzschild(1.0)
    bad = state([0.0, 1.5, math.pi / 2, 0.0], [1.0, 0, 0, 0])
    with pytest.raises(OutsideDomain):
        geodesic_integrate(g, Particle(1.0), bad, IntegratorConfig())


def columns_trajectory(coords, u):
    """A Trajectory of the given per-sample coordinates and velocities."""
    n = len(coords)
    return Trajectory(np.arange(n, dtype=float), np.hstack([coords, u]), np.zeros(n), np.zeros(n))


def test_coordinate_force_input_validation():
    empty = columns_trajectory(np.empty((0, 4)), np.empty((0, 4)))
    assert len(empty) == 0 and empty.status == "completed"
    with pytest.raises(ValueError):
        coordinate_force(empty, Particle(1.0))
    # strictly decreasing coordinate time must be rejected
    coords = np.array([[t, float(i), 0.0, 0.0] for i, t in enumerate([0.0, 1.0, 0.5, 2.0])])
    with pytest.raises(NonMonotoneTime):
        coordinate_force(columns_trajectory(coords, np.tile([1.0, 0, 0, 0], (4, 1))),
                         Particle(1.0))


def test_rk4_error_shrinks_sixteen_fold_per_halving():
    m = e = b = 1.0
    u_perp = 0.1
    tau_end = oracles.proper_period(m, e, b)
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, b]), e)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([u_perp, 0, 0]), u_perp, 0, 0])
    x_exact, _ = oracles.cyclotron_state(m, e, b, u_perp, tau_end)
    errors = []
    for h in (2e-2, 1e-2, 5e-3):
        traj = integrate(
            conn, Particle(m, e), initial, IntegratorConfig(step=h, tau_max=tau_end)
        )
        errors.append(np.max(np.abs(traj[-1].state.x.coords - x_exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 16 * 0.8 < coarse / fine < 16 * 1.2


# ---------------------------------------------------------------------------
# the compiled right-hand side against the covariant reference


def _flat_states(rng, n=100):
    for _ in range(n):
        coords = rng.uniform(-3.0, 3.0, 4) + np.array([0.0, 5.0, 0.0, 0.0])
        yield coords, np.concatenate([[1.5], rng.uniform(-0.5, 0.5, 3)])


def _spherical_states(rng, n=100):
    for _ in range(n):
        coords = np.array([rng.uniform(0.0, 5.0), rng.uniform(4.0, 30.0),
                           rng.uniform(0.3, 2.8), rng.uniform(0.0, 6.0)])
        yield coords, np.concatenate([[1.3], rng.uniform(-0.1, 0.1, 3)])


def _kernel_and_reference(conn, particle, states):
    """(compiled du/dtau, inverse metric @ (zeroth + first)) at each state, the
    compiled law taken both ways: a batch of one, and one state on floats."""
    batch = _batch_rhs(conn, particle.mass)
    lone = _lone_rhs(conn, particle.mass)
    for coords, u in states:
        y = np.concatenate([coords, u])
        zeroth, first = acceleration_terms(conn, particle, SpacetimeEvent(coords), FourVector(u))
        reference = conn.metric.inverse_raw(coords) @ (zeroth + first)
        yield batch(y[None])[0, 4:], reference
        yield np.array(lone(y.tolist())[4:]), reference


FLAT_EM = {
    "uniform": lambda: uniform_faraday([0.1, -0.2, 0.3], [1.0, 0.4, -0.7]),
    "coulomb": lambda: faraday_field_of(coulomb_potential(2.0)),
}


@pytest.mark.parametrize("field", sorted(FLAT_EM))
@pytest.mark.parametrize("mass", [1.0, 0.5, 2.0])
def test_compiled_flat_em_kernel_is_bit_exact(field, mass):
    # the kernel scales by 1/m, the reference divides by m: the same bits
    # whenever 1/m is exact, i.e. for powers of two
    conn = electromagnetic_connection(FLAT_EM[field](), 1.3)
    pairs = _kernel_and_reference(conn, Particle(mass, 1.3),
                                  _flat_states(np.random.default_rng(11)))
    for got, ref in pairs:
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("field", sorted(FLAT_EM))
def test_compiled_flat_em_kernel_within_an_ulp_for_any_mass(field):
    conn = electromagnetic_connection(FLAT_EM[field](), 1.3)
    pairs = _kernel_and_reference(conn, Particle(3.0, 1.3),
                                  _flat_states(np.random.default_rng(12)))
    for got, ref in pairs:
        np.testing.assert_allclose(got, ref, rtol=2.3e-16, atol=0.0)


def test_compiled_gravity_kernel_matches_lowered_reference():
    # the kernel contracts the raised block -Gamma^a_mn directly; the
    # reference lowers it with g and raises it back with g^-1, which
    # rounds differently, so agreement is to a few ulp, not bit for bit
    conn = gravitational_connection(schwarzschild(1.0))
    pairs = _kernel_and_reference(conn, Particle(1.0),
                                  _spherical_states(np.random.default_rng(13)))
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_compiled_combined_kernel_matches_lowered_reference():
    g = schwarzschild(1.0)
    em = electromagnetic_connection(faraday_field_of(axial_magnetic_potential_spherical(0.3)), 1.3)
    conn = superpose(gravitational_connection(g), em)
    pairs = _kernel_and_reference(conn, Particle(1.0, 1.3),
                                  _spherical_states(np.random.default_rng(14)))
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_flat_kernel_never_evaluates_the_inverse_metric():
    # the flat-chart identity is the metric's type, so it survives the
    # evaluator replacement that instrumentation performs
    calls = []
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    counted = counting(minkowski().inverse_raw, calls)
    conn = dataclasses.replace(conn, metric=dataclasses.replace(conn.metric, inverse_fn=counted))
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([0.1, 0, 0]), 0.1, 0, 0])
    integrate(conn, Particle(1.0, 1.0), initial, IntegratorConfig(step=0.1, tau_max=1.0))
    assert calls == []


def test_combined_kernel_evaluates_the_inverse_metric_once_per_point():
    # g^-1's formula runs once per point, for the geodesic term and the
    # raise of K0 both: alone on floats, and in a batch on all its points' columns
    calls = []
    g = schwarzschild(1.0)
    inverse = spec(g.inverse_fn)
    counted = dataclasses.replace(g, inverse_fn=closed_form(
        inverse.indices, lambda ops, c: calls.append(1) or inverse.formula(ops, c)))
    field = faraday_field_of(axial_magnetic_potential_spherical(0.05))
    conn = superpose(gravitational_connection(counted), electromagnetic_connection(field, 1.0))
    y = np.array([0.0, 10.0, np.pi / 2, 0.0, 1.2, 0.01, 0.0, 0.03])
    _lone_rhs(conn, 1.0)(y.tolist())
    assert len(calls) == 1
    rhs = _batch_rhs(conn, 1.0)
    rhs(y[None])
    assert len(calls) == 2
    rhs(np.stack([y, y, y]))  # a batch evaluates g^-1 for all its points in one call
    assert len(calls) == 3


@pytest.mark.parametrize("chart", ["schwarzschild", "weak-field"])
def test_geodesic_law_on_a_built_in_chart_evaluates_no_inverse_and_no_gradient(chart):
    # the geodesic term runs the formulas of g^-1 and dg from their specs,
    # alone and in a batch, and never calls the evaluators
    calls = []
    g = schwarzschild(1.0) if chart == "schwarzschild" else weak_field(1.0)
    g = dataclasses.replace(
        g, inverse_fn=with_spec(counting(g.inverse_fn, calls), spec(g.inverse_fn)),
        deriv_fn=with_spec(counting(g.deriv_fn, calls), spec(g.deriv_fn)))
    initial = (circular_orbit_state(1.0, 10.0) if chart == "schwarzschild"
               else state([0.0, 10.0, 0.0, 0.0], [1.2, 0.0, 0.3, 0.0]))
    conn = gravitational_connection(g)
    for cfg in (IntegratorConfig(step=0.5, tau_max=5.0),
                IntegratorConfig(method="rk45-adaptive", step=0.5, tau_max=5.0)):
        assert integrate(conn, Particle(1.0), initial, cfg).status == "completed"
        batch = integrate_batch(conn, Particle(1.0), [initial] * 2, [cfg] * 2)
        assert [t.status for t in batch] == ["completed"] * 2
    assert calls == []


@pytest.mark.parametrize("field", ["coulomb", "axial-b"])
def test_lorentz_law_on_a_built_in_field_never_builds_the_field_strength(field):
    # the law writes (e F) u out from F's spec, alone and in a batch: neither
    # dA's nor F's evaluator is called, and each batch row has the lone run's bits
    calls = []
    if field == "coulomb":
        potential, gravity = coulomb_potential(2.0), None
        u0 = oracles.gamma_from_u([0.0, 0.4, 0.0])
        initial = state([0.0, 10.0, 0.0, 0.0], [u0, 0.0, 0.4, 0.0])
    else:
        potential = axial_magnetic_potential_spherical(1e-3)
        gravity = gravitational_connection(schwarzschild(1.0))
        initial = bound_orbit_state(1.0, 18.0, 22.0)
    potential = dataclasses.replace(potential, deriv_fn=with_spec(
        counting(potential.deriv_fn, calls), spec(potential.deriv_fn)))
    f = faraday_field_of(potential)
    f = dataclasses.replace(f, matrix_fn=with_spec(counting(f.matrix_fn, calls),
                                                   spec(f.matrix_fn)))

    def law(f):
        em = electromagnetic_connection(f, 1.0)
        return em if gravity is None else superpose(gravity, em)

    particle = Particle(1.0, 1.0)
    for cfg in (IntegratorConfig(step=0.5, tau_max=5.0),
                IntegratorConfig(method="rk45-adaptive", step=0.5, tau_max=5.0)):
        calls.clear()
        lone = integrate(law(f), particle, initial, cfg)
        assert lone.status == "completed"
        assert calls == []
        batch = integrate_batch(law(f), particle, [initial] * 2, [cfg] * 2)
        for row in batch:
            assert_same_bits(row, lone)
        assert calls == []


def test_geodesic_run_without_closed_forms_lands_near_the_closed_form_run():
    # the Christoffel assembly over differenced dg and a numerical g^-1
    # traces the closed-form orbit to criterion 8's differenced bound
    g = schwarzschild(1.0)
    cfg = IntegratorConfig(step=0.5, tau_max=200.0)
    initial = bound_orbit_state(1.0, 18.0, 22.0)
    closed = geodesic_integrate(g, Particle(1.0), initial, cfg)
    numeric = geodesic_integrate(without_closed_form(g), Particle(1.0), initial, cfg)
    assert closed.status == numeric.status == "completed"
    assert np.array_equal(closed.tau, numeric.tau)
    assert np.max(np.abs(closed.state - numeric.state)) < 1e-6


def test_integers_beyond_float_range_are_invalid_input():
    for value in (10**400, -(10**400)):
        for key in ("step", "tau_max", "rtol", "atol"):
            with pytest.raises(ValidationError, match=f"{key} must be a finite real number"):
                IntegratorConfig(**{key: value})
        with pytest.raises(ValidationError, match="particle mass must be a finite real number"):
            Particle(mass=value)
        with pytest.raises(ValidationError, match="particle charge must be a finite real number"):
            Particle(1.0, charge=value)
        with pytest.raises(ValidationError, match="charge must be a finite real number"):
            electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), value)
    largest = int(sys.float_info.max)
    assert IntegratorConfig(tau_max=largest).tau_max == largest
    assert Particle(largest).mass == largest


CANONICAL_POTENTIALS = {
    "uniform": lambda: uniform_field_potential([0.1, -0.2, 0.3], [1.0, 0.4, -0.7]),
    "coulomb": lambda: coulomb_potential(2.0),
}


def _canonical_initial():
    u = [0.05, 0.2, -0.1]
    return state([0.0, 5.0, 1.0, -0.5], [math.sqrt(1.0 + sum(v * v for v in u)), *u])


def test_flat_canonical_route_never_evaluates_the_inverse_or_the_metric_gradient():
    # nor the potential's array evaluators per RHS: its specs, kept on the
    # counting wrappers, step the run, and the arrays serve the anchor A(x0)
    # and the one recovery of u over the recorded columns
    calls, values_calls, deriv_calls = [], [], []
    eta = minkowski()
    g = dataclasses.replace(eta, inverse_fn=counting(eta.inverse_fn, calls),
                            deriv_fn=counting(eta.deriv_fn, calls))
    pot = CANONICAL_POTENTIALS["coulomb"]()
    pot = dataclasses.replace(
        pot,
        values_fn=with_spec(counting(pot.values_fn, values_calls), spec(pot.values_fn)),
        deriv_fn=with_spec(counting(pot.deriv_fn, deriv_calls), spec(pot.deriv_fn)),
    )
    cfg = IntegratorConfig(step=0.1, tau_max=2.0)
    traj = minimal_substitution_trajectory(pot, g, Particle(3.0, 1.3), _canonical_initial(), cfg)
    assert traj.status == "completed" and len(traj) == 21
    assert calls == [] and deriv_calls == []
    assert len(values_calls) == 2


@pytest.mark.parametrize("charge", [1.3, 0.0])
@pytest.mark.parametrize("potential", sorted(CANONICAL_POTENTIALS))
def test_flat_canonical_route_lands_where_the_general_formula_does(potential, charge):
    # the same evaluators as a plain MetricField take the curved-chart law:
    # the raise by eta and the exactly-zero metric-gradient term
    eta = minkowski()
    plain = MetricField(eta.matrix_fn, deriv_fn=eta.deriv_fn, inverse_fn=eta.inverse_fn)
    pot = CANONICAL_POTENTIALS[potential]()
    cfg = IntegratorConfig(step=0.05, tau_max=2.0)
    particle, initial = Particle(3.0, charge), _canonical_initial()
    flat = minimal_substitution_trajectory(pot, eta, particle, initial, cfg)
    general = minimal_substitution_trajectory(pot, plain, particle, initial, cfg)
    assert flat.status == general.status == "completed"
    assert np.array_equal(flat.tau, general.tau)
    assert np.array_equal(flat.state[-1], general.state[-1])
    moved = np.max(np.abs(flat.state[-1, 4:] - initial.u.components))
    assert (moved > 1e-6) == (charge != 0.0)  # only a charge feels the potential


def test_integrate_rejects_a_non_antisymmetric_user_field():
    broken = FaradayField(lambda coords: np.diag([0.0, 1.0, 0.0, 0.0]), name="broken")
    conn = electromagnetic_connection(broken, charge=1.0)
    with pytest.raises(MalformedFaraday):
        integrate(conn, Particle(1.0, 1.0), rest_state(), IntegratorConfig(step=0.1, tau_max=1.0))


# ---------------------------------------------------------------------------
# batched integration: every row as it runs alone


def assert_same_trajectory(got, want):
    assert (got.status, got.reason, len(got)) == (want.status, want.reason, len(want))
    for a, b in zip(got, want):
        assert a.state.tau == b.state.tau
        np.testing.assert_array_equal(a.state.x.coords, b.state.x.coords)
        np.testing.assert_array_equal(a.state.u.components, b.state.u.components)
        assert a.norm_residual == b.norm_residual
        assert a.diagnostics == b.diagnostics
    for column in ("tau", "state", "norm_residual", "energy"):
        assert np.array_equal(getattr(got, column), getattr(want, column)), column


def assert_batch_matches_lone(conn, particle, initials, cfgs):
    trajs = integrate_batch(conn, particle, initials, cfgs)
    for traj, initial, cfg in zip(trajs, initials, cfgs):
        assert_same_trajectory(traj, integrate(conn, particle, initial, cfg))
    return trajs


BOUND_ORBITS = [(18.0, 22.0), (15.0, 19.0), (21.0, 27.0)]


@pytest.mark.parametrize("method,step_size", [("rk4-fixed", 0.5), ("rk45-adaptive", 1.0)])
def test_batch_rows_are_bit_identical_to_lone_runs(method, step_size):
    initials = [bound_orbit_state(1.0, rp, ra) for rp, ra in BOUND_ORBITS]
    cfgs = [IntegratorConfig(method=method, step=step_size, rtol=1e-10, atol=1e-12,
                             tau_max=tau_max) for tau_max in (150.0, 233.3, 97.0)]
    trajs = assert_batch_matches_lone(
        gravitational_connection(schwarzschild(1.0)), Particle(1.0), initials, cfgs
    )
    assert [t.status for t in trajs] == ["completed"] * 3
    assert [t[-1].state.tau for t in trajs] == [150.0, 233.3, 97.0]


def test_batch_rows_of_a_combined_law_are_bit_identical():
    g = schwarzschild(1.0)
    em = electromagnetic_connection(faraday_field_of(axial_magnetic_potential_spherical(1e-3)), 1.0)
    initials = [bound_orbit_state(1.0, rp, ra) for rp, ra in BOUND_ORBITS]
    cfgs = [IntegratorConfig(step=0.5, tau_max=tau_max) for tau_max in (40.0, 60.25, 50.0)]
    assert_batch_matches_lone(superpose(gravitational_connection(g), em), Particle(1.0, 1.0),
                              initials, cfgs)


def dense_metric(eps=0.02):
    """g = eta + eps S (k . x): every Christoffel symbol is nonzero, so a
    contraction summed in another order shows in the bits."""
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, (4, 4))
    s = s + s.T
    k = rng.uniform(-1.0, 1.0, 4)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    grad = eps * s[:, :, None] * k  # d g_mn / d x^s, constant

    def matrix(c):
        ct = c.T
        phase = ct[0] * k[0] + ct[1] * k[1] + ct[2] * k[2] + ct[3] * k[3]
        return eta + eps * s * phase[..., None, None]

    return MetricField(matrix_fn=matrix, deriv_fn=lambda c: grad, name="dense")


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_batch_rows_under_dense_coefficients_are_bit_identical(method):
    g = dense_metric()
    em = electromagnetic_connection(uniform_faraday([0.1, -0.2, 0.3], [1.0, 0.4, -0.7]), 0.8)
    conn = superpose(gravitational_connection(g), em)
    initials = [state([0.0, 0.3, -0.2, 0.1], [1.2, 0.1, -0.05, 0.02]),
                state([0.1, -0.4, 0.2, 0.0], [1.1, -0.2, 0.1, 0.3]),
                state([0.0, 0.1, 0.1, -0.3], [1.3, 0.0, 0.25, -0.1])]
    cfgs = [IntegratorConfig(method=method, step=0.05, rtol=1e-10, atol=1e-12, tau_max=tau_max)
            for tau_max in (1.0, 1.7, 0.6)]
    assert_batch_matches_lone(conn, Particle(1.5, 0.8), initials, cfgs)


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_batch_domain_exit_ends_only_its_row(method):
    # the middle row starts at rest at r = 6M and falls into the horizon guard
    plunge = state([0.0, 6.0, math.pi / 2, 0.0], [math.sqrt(1.5), 0.0, 0.0, 0.0])
    initials = [bound_orbit_state(1.0, 18.0, 22.0), plunge, bound_orbit_state(1.0, 15.0, 19.0)]
    cfgs = [IntegratorConfig(method=method, step=0.25, rtol=1e-10, atol=1e-12, tau_max=60.0)] * 3
    trajs = assert_batch_matches_lone(
        gravitational_connection(schwarzschild(1.0)), Particle(1.0), initials, cfgs
    )
    assert [t.status for t in trajs] == ["completed", "domain-exit", "completed"]
    assert "inside guarded radius" in trajs[1].reason


@pytest.mark.parametrize("method,step_size", [("rk4-fixed", 0.5), ("rk45-adaptive", 1.0)])
def test_batch_counts_max_steps_per_row(method, step_size):
    initials = [bound_orbit_state(1.0, rp, ra) for rp, ra in BOUND_ORBITS]
    cfgs = [IntegratorConfig(method=method, step=step_size, rtol=1e-12, atol=1e-14,
                             tau_max=tau_max, max_steps=40)
            for tau_max in (10.0, 20.0, 200.0)]
    trajs = assert_batch_matches_lone(
        gravitational_connection(schwarzschild(1.0)), Particle(1.0), initials, cfgs
    )
    assert trajs[-1].status == "max-steps"
    assert len(trajs[-1]) == 41
    assert len(trajs[0]) < 41


# flat uniform-field rows that differ in E, B, mass, charge, initial u and tau_max
UNIFORM_ROWS = [
    (([0.1, -0.2, 0.3], [1.0, 0.4, -0.7]), Particle(1.0, 1.0), [0.1, 0.0, 0.05], 2.0),
    (([0.0, 0.0, 0.0], [0.0, 0.0, 2.0]), Particle(0.7, -1.3), [0.3, 0.1, 0.0], 3.1),
    (([0.05, 0.0, 0.0], [0.0, 0.5, 0.0]), Particle(2.5, 0.4), [0.0, 0.2, -0.1], 1.45),
]


@pytest.mark.parametrize("method,curved", [
    ("rk4-fixed", False), ("rk45-adaptive", False), ("rk4-fixed", True),
])
def test_batch_rows_in_different_uniform_fields_are_bit_identical(method, curved):
    # each row's K0 = e F is its own constant; the first row's connection is shared
    faradays = [uniform_faraday(*fields) for fields, _, _, _ in UNIFORM_ROWS]
    conns = [electromagnetic_connection(f, particle.charge)
             for f, (_, particle, _, _) in zip(faradays, UNIFORM_ROWS)]
    order0 = np.stack([particle.charge * f.matrix_fn(np.zeros(4))
                       for f, (_, particle, _, _) in zip(faradays, UNIFORM_ROWS)])
    if curved:
        gravity = gravitational_connection(weak_field(0.5))
        conns = [superpose(gravity, conn) for conn in conns]
    start = [0.0, 20.0, 0.0, 0.0] if curved else [0.0, 0.0, 0.0, 0.0]
    initials = [state(start, [oracles.gamma_from_u(u), *u]) for _, _, u, _ in UNIFORM_ROWS]
    particles = [particle for _, particle, _, _ in UNIFORM_ROWS]
    cfgs = [IntegratorConfig(method=method, step=0.01, rtol=1e-10, atol=1e-12, tau_max=tau_max)
            for _, _, _, tau_max in UNIFORM_ROWS]
    trajs = integrate_batch(conns[0], particles, initials, cfgs, order0)
    for traj, conn, particle, initial, cfg in zip(trajs, conns, particles, initials, cfgs):
        assert_same_trajectory(traj, integrate(conn, particle, initial, cfg))
    assert [t.tau[-1] for t in trajs] == [2.0, 3.1, 1.45]
    # the rows really moved apart: unlike fields and particles give unlike orbits
    assert len({t.state[-1, 5] for t in trajs}) == 3


def test_batch_configs_may_differ_only_in_tau_max():
    conn = gravitational_connection(schwarzschild(1.0))
    initials = [bound_orbit_state(1.0, 18.0, 22.0)] * 2
    with pytest.raises(ValueError):
        integrate_batch(conn, Particle(1.0), initials,
                        [IntegratorConfig(step=0.5), IntegratorConfig(step=0.25)])
    with pytest.raises(ValueError):
        integrate_batch(conn, Particle(1.0), initials, [IntegratorConfig()])
    # per-row constants come one per row
    with pytest.raises(ValueError, match="one particle"):
        integrate_batch(conn, [Particle(1.0)] * 3, initials, [IntegratorConfig()] * 2)
    with pytest.raises(ValueError, match="order0"):
        integrate_batch(conn, Particle(1.0), initials, [IntegratorConfig()] * 2, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# columnar trajectories: samples are built on demand from the columns


def per_sample_reference(metric, traj):
    """(tau, coords, u, norm residual, energy) of each sample, as a sampler
    that evaluated the metric at one event at a time computed them."""
    out = []
    for tau, y in zip(traj.tau.tolist(), traj.state):
        coords, u = y[:4].copy(), y[4:].copy()
        u_cov = metric.matrix_fn(coords) @ u
        out.append((tau, coords, u, float(u @ u_cov + 1.0), -float(u_cov[0])))
    return out


def assert_samples_match(sample, ref):
    tau, coords, u, residual, energy = ref
    assert sample.state.tau == tau
    np.testing.assert_array_equal(sample.state.x.coords, coords)
    np.testing.assert_array_equal(sample.state.u.components, u)
    assert sample.norm_residual == residual
    assert sample.diagnostics == {"energy": energy}


COLUMN_CASES = {
    "cyclotron": lambda: (
        electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0),
        Particle(1.0, 1.0),
        state([0, 0, 0, 0], [oracles.gamma_from_u([0.3, 0, 0]), 0.3, 0, 0]),
        IntegratorConfig(step=0.05, tau_max=3.0),
    ),
    "schwarzschild-rk45": lambda: (
        gravitational_connection(schwarzschild(1.0)),
        Particle(1.0),
        bound_orbit_state(1.0, 18.0, 22.0),
        IntegratorConfig(method="rk45-adaptive", step=1.0, rtol=1e-10, tau_max=200.0),
    ),
    "dense-combined": lambda: (
        superpose(gravitational_connection(dense_metric()),
                  electromagnetic_connection(uniform_faraday([0.1, 0, 0], [0, 0, 1.0]), 0.8)),
        Particle(1.5, 0.8),
        state([0.0, 0.3, -0.2, 0.1], [1.2, 0.1, -0.05, 0.02]),
        IntegratorConfig(step=0.05, tau_max=1.0),
    ),
}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_samples_built_from_columns_match_per_sample_values(case):
    conn, particle, initial, cfg = COLUMN_CASES[case]()
    traj = integrate(conn, particle, initial, cfg)
    refs = per_sample_reference(conn.metric, traj)
    assert len(traj) == len(refs) > 10
    assert traj.state.shape == (len(traj), 8)
    for sample, ref in zip(traj, refs):
        assert_samples_match(sample, ref)
    assert_samples_match(traj[1], refs[1])
    assert_samples_match(traj[-1], refs[-1])
    assert_samples_match(traj[np.int64(-2)], refs[-2])
    with pytest.raises(IndexError):
        traj[len(traj)]
    part = traj[2:7:2]
    assert isinstance(part, type(traj)) and part.status == "completed"
    assert len(part) == 3
    for sample, ref in zip(part, refs[2:7:2]):
        assert_samples_match(sample, ref)
    for column in ("tau", "state", "norm_residual", "energy"):
        for arrays in (traj, part):
            with pytest.raises(ValueError):  # the columns are read-only
                getattr(arrays, column)[0] = 0.0
    cut = Trajectory(traj.tau[:-3], traj.state[:-3], traj.norm_residual[:-3], traj.energy[:-3],
                     status="domain-exit", reason="forced")
    assert (cut.status, cut.reason, len(cut)) == ("domain-exit", "forced", len(traj) - 3)
    for sample, ref in zip(cut, refs[:-3]):
        assert_samples_match(sample, ref)


def test_integrate_builds_no_sample_until_one_is_indexed(monkeypatch):
    built = []
    original = TrajectorySample.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TrajectorySample, "__init__", counted)
    conn, particle, initial, cfg = COLUMN_CASES["cyclotron"]()
    traj = integrate(conn, particle, initial, cfg)
    trajs = integrate_batch(conn, particle, [initial, initial], [cfg, cfg])
    assert built == []
    assert traj[-1].state.tau == cfg.tau_max
    assert len(built) == 1
    list(trajs[0])
    assert len(built) == 1 + len(trajs[0])


def nan_beyond_x_one():
    """A Lorentz connection whose field is NaN where x > 1 (zero elsewhere)."""

    def matrix(c):
        return np.where(c[..., 1, None, None] > 1.0, np.nan, 0.0) + np.zeros((4, 4))

    return electromagnetic_connection(AntisymmetricFaraday(matrix, name="nan-beyond"), 1.0)


def _assert_non_finite_state_raises_step_rejected_alone_and_in_a_batch(conn):
    moving = state([0, 0, 0, 0], [oracles.gamma_from_u([0.5, 0, 0]), 0.5, 0, 0])
    behind = state([0, -0.5, 0, 0], [oracles.gamma_from_u([0.5, 0, 0]), 0.5, 0, 0])
    cfg = IntegratorConfig(step=0.25, tau_max=5.0)
    message = "state became non-finite at tau = 2.25"
    with pytest.raises(StepRejected, match=message):
        integrate(conn, Particle(1.0, 1.0), moving, cfg)
    with pytest.raises(StepRejected, match=message):
        integrate_batch(conn, Particle(1.0, 1.0), [behind, moving], [cfg, cfg])


def test_non_finite_state_raises_step_rejected_alone_and_in_a_batch():
    _assert_non_finite_state_raises_step_rejected_alone_and_in_a_batch(nan_beyond_x_one())


def test_non_finite_state_is_no_domain_exit():
    # a NaN coordinate fails this guard's test; the run still fails as unguarded
    def probe(c):
        return None if np.all(c[..., 1] < 100.0) else "x1 beyond 100"

    conn = dataclasses.replace(nan_beyond_x_one(), guard=DomainGuard(probe, "x1 < 100"))
    _assert_non_finite_state_raises_step_rejected_alone_and_in_a_batch(conn)


def test_matrix_evaluator_without_batch_axes_is_a_clear_error():
    signs = np.array([-1.0, 1.0, 1.0, 1.0])

    def one_event_only(c):
        # np.diag of a batch (N, 4) returns its diagonal, not N matrices
        return np.diag(signs + 1e-3 * c * c)

    g = MetricField(matrix_fn=one_event_only, name="one-event")
    initial = state([0, 0.1, 0, 0], [1.0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"one-event: matrix_fn returned shape \(4,\) for 11"):
        geodesic_integrate(g, Particle(1.0), initial, IntegratorConfig(step=0.1, tau_max=1.0))


# ---------------------------------------------------------------------------
# the row count picks the arithmetic: a lone run on Python floats, a batch
# on arrays


@pytest.fixture
def array_steps(monkeypatch):
    """The number of rows of each call of an array stepper, RK4 or RK45."""
    calls = []

    def counting(step):
        def counted(rhs, y, h):
            calls.append(len(y) if np.ndim(y) == 2 else 1)
            return step(rhs, y, h)

        return counted

    for name in ("_rk4_step", "_rk45_step"):
        monkeypatch.setattr(transport, name, counting(getattr(transport, name)))
    return calls


def assert_same_bits(got, want):
    # tobytes, so that a zero's sign counts
    assert (got.status, got.reason, len(got)) == (want.status, want.reason, len(want))
    for column in ("tau", "state", "norm_residual", "energy"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column


def assert_lone_on_floats_matches_its_batch_row(conn, particle, initial, cfg, array_steps):
    lone = integrate(conn, particle, initial, cfg)
    assert array_steps == []  # the lone run stepped on floats
    pair = integrate_batch(conn, particle, [initial, initial], [cfg, cfg])
    assert array_steps[0] == 2  # the pair stepped as one array
    for row in pair:
        assert_same_bits(row, lone)
    return lone


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lone_built_in_run_on_floats_has_the_bits_of_its_batch_row(name, array_steps):
    # at most 6,400 steps of the configured step, which cuts coulomb's
    # horizon to a third and schwarzschild-precession's (RK45) to 90%
    scn = load_builtin(name)
    cfg = dataclasses.replace(scn.config,
                              tau_max=min(scn.config.tau_max, 6400 * scn.config.step))
    traj = assert_lone_on_floats_matches_its_batch_row(
        scn.connection(), scn.particle, scn.initial, cfg, array_steps)
    assert traj.status == "completed"


def test_a_lone_run_keeps_its_samples_as_doubles():
    # the record is eight doubles and tau per sample (72 B) while the run
    # goes, handed over without a copy; the metric's columns add the rest
    scn = load_builtin("coulomb")
    conn = scn.connection()
    cfg = dataclasses.replace(scn.config, tau_max=50.0)
    integrate(conn, scn.particle, scn.initial, dataclasses.replace(cfg, tau_max=1.0))
    tracemalloc.start()
    try:
        traj = integrate(conn, scn.particle, scn.initial, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 5001
    assert peak / len(traj) <= 160.0


def test_user_field_on_floats_has_the_bits_of_its_batch_row(array_steps):
    # a plain FaradayField's K0 has no spec: it is called on arrays
    f = uniform_faraday([0.1, -0.2, 0.3], [1.0, 0.4, -0.7])
    conn = electromagnetic_connection(FaradayField(f.matrix_fn, name="user"), 0.8)
    initial = state([0.0, 0.3, -0.2, 0.1], [oracles.gamma_from_u([0.1, -0.3, 0.0]), 0.1, -0.3, 0.0])
    for method in ("rk4-fixed", "rk45-adaptive"):
        array_steps.clear()
        cfg = IntegratorConfig(method=method, step=0.05, tau_max=5.0)
        assert_lone_on_floats_matches_its_batch_row(conn, Particle(1.5, 0.8), initial, cfg,
                                                    array_steps)


def _wrapped_as_traced(conn, calls):
    """`conn` with its terms, guard probe and inverse metric rebound to counting
    wrappers, as an outside tracer rebinds them with ``dataclasses.replace``."""

    def leaf(fn, key):
        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        return counted

    return dataclasses.replace(
        conn,
        order0_raw=leaf(conn.order0_raw, "k0"),
        order1_raw=leaf(conn.order1_raw, "k1"),
        guard=dataclasses.replace(conn.guard, probe=leaf(conn.guard.probe, "guard")),
        metric=dataclasses.replace(conn.metric, inverse_fn=leaf(conn.metric.inverse_fn, "inverse")),
    )


def test_wrapped_terms_on_floats_have_the_bits_and_the_calls_of_the_bare_ones(array_steps):
    # a wrapper has no spec, so each wrapped callable is called on
    # arrays, as often as before: once per RHS, and the guard once more per
    # sample (the RHS count a tracer derives is probe calls less samples);
    # RK45 rejects no step over this horizon, so it takes 7 RHS per sample
    scn = load_builtin("combined-schwarzschild-B")
    for method, stages in (("rk4-fixed", 4), ("rk45-adaptive", 7)):
        cfg = dataclasses.replace(scn.config, method=method, tau_max=20.0)
        calls = {}
        conn = _wrapped_as_traced(scn.connection(), calls)
        lone = integrate(conn, scn.particle, scn.initial, cfg)
        assert array_steps == []
        rhs = stages * (len(lone) - 1)
        assert calls == {"k0": rhs, "k1": rhs, "inverse": rhs, "guard": rhs + len(lone)}
        assert_same_bits(lone, integrate(scn.connection(), scn.particle, scn.initial, cfg))
        for row in integrate_batch(conn, scn.particle, [scn.initial] * 2, [cfg] * 2):
            assert_same_bits(row, lone)
        array_steps.clear()


def _canonical_run(scn, potential, tau_max):
    cfg = dataclasses.replace(scn.config, tau_max=tau_max)
    return minimal_substitution_trajectory(potential, scn.metric, scn.particle, scn.initial, cfg)


@pytest.mark.parametrize("name,tau_max", [("coulomb", 10.0), ("combined-schwarzschild-B", 20.0)])
def test_canonical_terms_without_a_spec_have_the_bits_and_the_calls_of_the_bare_ones(
        name, tau_max):
    # a traced potential's wrappers and a user potential's lambdas have no
    # spec, so each is called on arrays, once per RHS (RK4 takes 4 per
    # step); the values also give the anchor A(x0) and the recovered u
    scn = load_builtin(name)
    bare = scn.potential
    want = _canonical_run(scn, bare, tau_max)
    assert want.status == "completed"
    rhs = 4 * (len(want) - 1)
    calls = {}

    def leaf(fn, key):
        def counted(coords):
            calls[key] = calls.get(key, 0) + 1
            return fn(coords)

        return counted

    traced = dataclasses.replace(bare, values_fn=leaf(bare.values_fn, "values"),
                                 deriv_fn=leaf(bare.deriv_fn, "deriv"))
    assert_same_bits(_canonical_run(scn, traced, tau_max), want)
    assert calls == {"values": rhs + 2, "deriv": rhs}
    user = VectorPotential(lambda c: bare.values_fn(c), deriv_fn=lambda c: bare.deriv_fn(c),
                           guard=bare.guard, name="user")
    assert_same_bits(_canonical_run(scn, user, tau_max), want)


@pytest.mark.parametrize("name,per_rhs", [
    ("coulomb", 0), ("combined-schwarzschild-B", 0), ("exb-drift", 1)])
def test_canonical_route_calls_a_built_in_potential_on_arrays_only_outside_the_rhs(
        name, per_rhs):
    # the specs step the run; the arrays give the anchor A(x0) and the
    # recovered u, and the uniform potential's values x @ grad on every RHS
    scn = load_builtin(name)
    pot, values_calls, deriv_calls = scn.potential, [], []
    pot = dataclasses.replace(
        pot,
        values_fn=with_spec(counting(pot.values_fn, values_calls), spec(pot.values_fn)),
        deriv_fn=with_spec(counting(pot.deriv_fn, deriv_calls), spec(pot.deriv_fn)),
    )
    traj = _canonical_run(scn, pot, 20 * scn.config.step)
    assert_same_bits(traj, _canonical_run(scn, scn.potential, 20 * scn.config.step))
    assert (len(values_calls), len(deriv_calls)) == (2 + per_rhs * 4 * 20, 0)


#: Components that Python floats and numpy treat with care: signed zeros,
#: values whose products overflow, infinities and NaN.
SPECIAL = (0.0, -0.0, 1e200, -1e200, math.inf, -math.inf, math.nan)


def _special_states(y0, seed):
    """Random states about `y0` (8,), then `y0` with each component in turn
    set to each special value, then random states with special components."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        yield y0 * (1.0 + 0.2 * rng.standard_normal(8))
    for i in range(8):
        for v in SPECIAL:
            y = y0.copy()
            y[i] = v
            yield y
    for _ in range(80):
        y = y0 * (1.0 + 0.2 * rng.standard_normal(8))
        special = rng.random(8) < 0.25
        y[special] = rng.choice(SPECIAL, special.sum())
        yield y


def _bits(values):
    # tobytes, so that a zero's sign counts; a NaN's sign follows the operand
    # order of the machine instruction, which CPython's specialized float
    # operations and numpy do not share, and no NaN reaches a record
    return np.where(np.isnan(values), np.nan, values).tobytes()


def _mixing(v):
    """Eight rates from eight components `v`, Python floats or numpy columns,
    in the same IEEE operations: products overflow and a zero keeps its sign."""
    return [v[(i + 1) % 8] * 0.75 - v[i] * v[(i + 3) % 8] for i in range(8)]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(
    st.tuples(st.lists(st.sampled_from(SPECIAL) | st.floats(-10.0, 10.0), min_size=8,
                       max_size=8),
              st.floats(1e-3, 1.0)),
    min_size=1, max_size=5))
@example(rows=[([-0.0] * 8, 0.5), ([1e200, -0.0, 0.0, 1.0, 2.0, -1.0, 0.5, 3.0], 0.25)])
def test_each_generated_step_on_floats_has_the_bits_of_its_row_on_arrays(rows):
    # drawn states (n, 8) and a step per row (n, 1): each row stepped alone on
    # floats has the bits of its row of the array step, RK4's and RK45's
    # (a NaN's sign aside, see _bits); the 1e200 row overflows to inf and NaN
    y = np.array([state for state, _ in rows])
    h = np.array([[step] for _, step in rows])
    with np.errstate(all="ignore"):
        for on_arrays, on_floats in ((transport._rk4_step, transport._rk4_step_floats),
                                     (transport._rk45_step, transport._rk45_step_floats)):
            batch = on_arrays(lambda y: np.stack(_mixing(y.T), axis=1), y, h)
            for i, (state, step) in enumerate(rows):
                lone = on_floats(_mixing, state, step)
                if isinstance(batch, tuple):  # RK45's result and error estimate
                    assert [_bits(np.array(v)) for v in lone] == [_bits(v[i]) for v in batch]
                else:
                    assert _bits(np.array(lone)) == _bits(batch[i])


def _assert_same_bits_or_rejection(lone, reference, y):
    # the same rate bits, or the same OutsideDomain text
    try:
        want = reference(y)
    except OutsideDomain as err:
        with pytest.raises(OutsideDomain) as got:
            lone(y.tolist())
        assert str(got.value) == str(err), y
        return 1
    got = np.array(lone(y.tolist()))
    assert _bits(got) == _bits(want), (y, got, want)
    return 0


def _array_law(conn, mass):
    """The force route's right-hand side of a batch (N, 8) from the connection's
    public terms, in numpy's operations: (u, K1(u, u) + g^-1 (K0 u) (1/m)),
    with the raise a per-row sign folded into 1/m on the flat chart, and a
    rejected batch worded by the guard's probe."""
    def rhs(y):
        coords, u = y[:, :4], y[:, 4:]
        why = conn.guard.probe(coords)
        if why is not None:
            return _rejected(y, f"{conn.guard.label}: {why}")
        rate = np.zeros(u.shape)
        if conn.order0_raw is not None:
            k0 = conn.order0_raw(coords, u)
            if conn.order1_raw is None and isinstance(conn.metric, FlatMetric):
                rate = k0 * (np.diag(MINKOWSKI) * (1.0 / mass))
            else:
                rate = np.matmul(conn.metric.inverse_raw(coords), (k0 * (1.0 / mass))[..., None])
                rate = rate[..., 0]
        if conn.order1_raw is not None:
            k1 = conn.order1_raw(coords, u)
            rate = k1 if conn.order0_raw is None else k1 + rate
        return np.hstack([u, rate])

    return rhs


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generated_lone_rhs_has_the_bits_of_its_batch_row_on_special_states(name):
    # the float rendering and the column one, each against the law on arrays
    scn = load_builtin(name)
    conn, mass = scn.connection(), scn.particle.mass
    lone = _lone_rhs(conn, mass)
    batch = _batch_rhs(conn, mass)
    reference = _array_law(conn, mass)
    y0 = np.concatenate([scn.initial.x.coords, scn.initial.u.components])
    with np.errstate(all="ignore"):
        rejected = 0
        for y in _special_states(y0, BUILTIN_NAMES.index(name)):
            rejected += _assert_same_bits_or_rejection(
                lone, lambda y: reference(y[None])[0], y)
            _assert_same_bits_or_rejection(
                lambda y: batch(np.array([y]))[0], lambda y: reference(y[None])[0], y)
    # the guarded charts reject some finite states, the others none
    assert (rejected > 0) == (conn.guard.label != "everywhere")


@pytest.mark.parametrize("name,charge", [
    ("cyclotron", None), ("exb-drift", None), ("coulomb", None),
    ("combined-schwarzschild-B", None), ("coulomb", 0.0), ("combined-schwarzschild-B", 0.0)])
def test_canonical_lone_rhs_has_the_bits_of_its_array_law_on_special_states(name, charge):
    scn = load_builtin(name)
    a, g, m = scn.potential, scn.metric, scn.particle.mass
    e = scn.particle.charge if charge is None else charge
    guard = g.guard.intersect(a.guard)
    x0 = scn.initial.x.coords
    kinetic_up, lone = _compile_canonical(a, g, m, e, a.values_fn(x0), guard)

    def rate(coords, u):  # dpi/dtau = (m/2) g_ab,s u^a u^b + e A_a,s u^a on arrays
        if isinstance(g, FlatMetric):  # where dg is zero
            return np.zeros(4) if e == 0.0 else e * (a.deriv_fn(coords) @ u)
        gravity = 0.5 * m * metric_contraction(spec(g.deriv_fn))(coords, u)
        return gravity if e == 0.0 else gravity + e * (a.deriv_fn(coords) @ u)

    def reference(y):  # the route's law on arrays, in the force route's shell
        why = guard.probe(y[:4])
        if why is not None:
            return _rejected(y[None], f"{guard.label}: {why}")[0]
        u = kinetic_up(y[:4], y[4:])
        return np.concatenate([u, rate(y[:4], u)])

    y0 = np.concatenate([x0, m * (g.matrix_fn(x0) @ scn.initial.u.components)])
    with np.errstate(all="ignore"):
        for y in _special_states(y0, len(name)):
            _assert_same_bits_or_rejection(lone, reference, y)


#: Python calls per lone right-hand side, the right-hand side's own included:
#: the guard's admission test, which the body calls itself, and each
#: formula the law calls.
LONE_RHS_CALLS = {
    "free": 1,
    "cyclotron": 1,
    "exb-drift": 1,
    "coulomb": 3,  # the guard's test and the gradient formula
    # the guard's test and the formulas of g^-1 and dg
    "schwarzschild-circular": 4,
    "schwarzschild-precession": 4,
    "weak-field-newtonian": 4,
    # the guard's test and the formulas of the potential's gradient, of g^-1
    # (shared by the geodesic term and the raise of K0) and of dg
    "combined-schwarzschild-B": 5,
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_lone_rhs_takes_its_pinned_number_of_python_calls(name):
    scn = load_builtin(name)
    rhs = _lone_rhs(scn.connection(), scn.particle.mass)
    y = np.concatenate([scn.initial.x.coords, scn.initial.u.components]).tolist()
    calls = []
    gc.disable()  # a collection would add its callbacks' calls to the count
    sys.setprofile(lambda frame, event, arg: calls.append(frame) if event == "call" else None)
    try:
        rhs(y)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert len(calls) == LONE_RHS_CALLS[name], [f.f_code.co_name for f in calls]


class _TermFailed(Exception):
    pass


@pytest.mark.parametrize("method", ["rk4-fixed", "rk45-adaptive"])
def test_a_raising_user_term_shows_its_generated_lines_in_the_traceback(method):
    # the generated right-hand side and step (RK4 or RK45) are compiled under
    # filenames of their own that linecache serves, so a traceback (and a
    # profile) shows the generated lines that called the term
    def term(coords, u):
        raise _TermFailed

    conn = NonLinearConnection(metric=minkowski(), order0_raw=term)
    cfg = IntegratorConfig(method=method, step=0.1, tau_max=1.0)
    want = {1: ["k0_0, k0_1, k0_2, k0_3, k0_4, k0_5, k0_6, k0_7 = rhs(y)",
                "k0, k1, k2, k3 = k_fn(c, u)"],
            2: ["k0 = rhs(y)", "k0, k1, k2, k3 = k_fn(X, U).T"]}
    for rows, lines in want.items():  # alone on floats, and a batch on columns
        with pytest.raises(_TermFailed) as info:
            integrate_batch(conn, Particle(1.0, 1.0), [rest_state()] * rows, [cfg] * rows)
        generated = [frame.line for frame in traceback.extract_tb(info.tb)
                     if frame.filename.startswith("<phasetransport-generated-")]
        assert generated == lines


def test_a_float_hazard_takes_numpys_values_and_fails_as_its_batch_row(array_steps):
    # the closed Coulomb form, here without its guard, divides 0 by 0 at the
    # origin: Python floats raise where numpy gives NaN, so the lone run takes
    # numpy's NaN there and fails where its batch row fails
    field = dataclasses.replace(faraday_field_of(coulomb_potential(1.0)), guard=EVERYWHERE,
                                name="unguarded")
    conn = electromagnetic_connection(field, 1.0)
    cfg = IntegratorConfig(step=0.1, tau_max=1.0)
    with pytest.raises(StepRejected, match=r"state became non-finite at tau = 0\.1$"):
        integrate(conn, Particle(1.0, 1.0), rest_state(), cfg)
    assert array_steps == []
    with pytest.raises(StepRejected, match=r"state became non-finite at tau = 0\.1$"):
        integrate_batch(conn, Particle(1.0, 1.0), [rest_state()] * 2, [cfg] * 2)


def test_a_lone_run_renders_its_column_body_only_where_floats_first_raise(monkeypatch):
    # each _LoneSource is one rendering of the law: a lone run on ordinary
    # states renders it on floats alone, and a run whose every stage divides
    # 0 by 0 on floats (the unguarded Coulomb form at the origin) renders
    # the column body once, at the first stage, and reuses it
    columns = []

    class Counted(transport._LoneSource):
        def __init__(self, *args):
            super().__init__(*args)
            columns.append(self.columns)

    monkeypatch.setattr(transport, "_LoneSource", Counted)
    scn = load_builtin("coulomb")
    integrate(scn.connection(), scn.particle, scn.initial,
              dataclasses.replace(scn.config, tau_max=20 * scn.config.step))
    assert columns == [False]
    field = dataclasses.replace(faraday_field_of(coulomb_potential(1.0)), guard=EVERYWHERE,
                                name="unguarded")
    rhs = _lone_rhs(electromagnetic_connection(field, 1.0), 1.0)
    assert columns == [False, False]
    with np.errstate(all="ignore"):
        first, again = (rhs([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]) for _ in range(2))
    assert columns == [False, False, True]
    assert _bits(np.array(first)) == _bits(np.array(again))
    assert math.isnan(first[5])
    with pytest.raises(StepRejected, match=r"state became non-finite at tau = 0\.1$"):
        integrate(electromagnetic_connection(field, 1.0), Particle(1.0, 1.0), rest_state(),
                  IntegratorConfig(step=0.1, tau_max=1.0))
    assert columns == [False, False, True, False, True]


def test_a_float_hazard_on_the_canonical_route_takes_numpys_values():
    # the Coulomb potential without its guard, and a charge too small to
    # deflect: a stage lands on the origin, where the formulas on floats
    # divide by zero; the law on numpy columns gives numpy's inf there, so the
    # run fails as it did on arrays, and the potential's formula runs on numpy
    # only for the anchor and at that stage
    calls = []
    pot = coulomb_potential(1.0)
    values = spec(pot.values_fn)
    pot = dataclasses.replace(pot, guard=EVERYWHERE, values_fn=closed_form(
        values.indices, lambda ops, c: calls.append(ops) or values.formula(ops, c)))
    initial = state([0.0, -1.0, 0.0, 0.0], [math.sqrt(1.25), 0.5, 0.0, 0.0])
    with pytest.raises(StepRejected, match=r"state became non-finite at tau = 2$"):
        minimal_substitution_trajectory(pot, minkowski(), Particle(1.0, 1e-300), initial,
                                        IntegratorConfig(step=0.5, tau_max=5.0))
    assert [ops for ops in calls if ops is np] == [np, np]  # the anchor, the stage on the origin


def test_a_zero_error_scale_takes_numpys_norm_and_fails_as_its_batch_row(array_steps):
    # with atol = 0, a component exactly zero in both states (a planar
    # cyclotron's z) has the error scale 0: Python floats raise where numpy
    # gives a NaN norm, so the lone run takes numpy's norm and fails where
    # its batch row fails
    conn = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    initial = state([0, 0, 0, 0], [oracles.gamma_from_u([0.1, 0, 0]), 0.1, 0, 0])
    cfg = IntegratorConfig(method="rk45-adaptive", step=1e-3, atol=0.0, tau_max=1.0)
    unreachable = r"^tolerance unreachable at minimum step 1e-08 \(err norm nan\)$"
    with pytest.raises(StepRejected, match=unreachable):
        integrate(conn, Particle(1.0, 1.0), initial, cfg)
    assert array_steps == []
    with pytest.raises(StepRejected, match=unreachable):
        integrate_batch(conn, Particle(1.0, 1.0), [initial] * 2, [cfg] * 2)


def test_a_run_into_the_coulomb_singularity_ends_at_its_guard_on_floats(array_steps):
    # a charge too small to deflect the particle: x1 = -1 + 0.25 k exactly, and
    # the last stage of the fourth step lands on the origin itself
    conn = electromagnetic_connection(
        faraday_field_of(coulomb_potential(1.0)), 1e-300)
    initial = state([0.0, -1.0, 0.0, 0.0], [oracles.gamma_from_u([0.5, 0, 0]), 0.5, 0.0, 0.0])
    traj = assert_lone_on_floats_matches_its_batch_row(
        conn, Particle(1.0, 1e-300), initial, IntegratorConfig(step=0.5, tau_max=5.0), array_steps)
    assert (traj.status, traj.reason) == ("domain-exit",
                                          "coulomb: r = 0.000e+00 at the potential singularity")
    assert traj.tau.tolist() == [0.0, 0.5, 1.0, 1.5]
