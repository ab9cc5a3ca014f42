"""Acceptance gate: end-to-end physics and numerics criteria.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and pins
its tolerance in the assertion.  Criterion 2 is expected to fail for a
physical reason documented on the test; its companion validates the same
trajectory against the exact strong-field reference.
"""

import dataclasses
import time

import numpy as np
import pytest

from phasetransport import fields, metrics, oracles
from phasetransport.connection import gravitational_connection
from phasetransport.curvature import (
    christoffel_raw,
    closure_residual,
    einstein_raw,
    ricci_raw,
)
from phasetransport.report import check, run
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin
from phasetransport.tensor import SpacetimeEvent
from phasetransport.transport import integrate

EM_BUILTINS = ("cyclotron", "exb-drift", "coulomb", "combined-schwarzschild-B")


def _verdict(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_circular_orbit_rate():
    start = time.perf_counter()
    rep = run(load_builtin("schwarzschild-circular"))
    elapsed = time.perf_counter() - start
    err = rep.summary["oracle_rate_error"]
    ok = err < 1e-6 and elapsed < 1.0
    assert _verdict(
        1, ok, f"circular rate error {err:.3e} (< 1e-6), {elapsed:.2f}s (< 1s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the true apsidal advance at a = 20M, e = 0.1 exceeds the "
        "first-order formula 6*pi*M/(a*(1-e^2)) by ~30%: the expansion "
        "parameter 6M/p is ~0.3 there and far from small; the integrator "
        "itself matches the exact strong-field quadrature to ~1e-7 (see "
        "the companion cross-check test and scripts/precession_study.py)"
    ),
)
def test_criterion_2_precession_weak_field_band():
    start = time.perf_counter()
    rep = run(load_builtin("schwarzschild-precession"))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    measured = rep.summary["precession_measured"]
    a, e = 20.0, 0.1
    leading = 6.0 * np.pi / (a * (1.0 - e * e))
    rel = abs(measured - leading) / leading
    ok = rel < 0.02
    assert _verdict(
        2,
        ok,
        f"per-orbit advance {measured:.6f} vs first-order {leading:.6f}, "
        f"relative gap {rel:.3f} (< 0.02 required)",
    )


def test_criterion_2_companion_exact_reference_and_fixed_step_cross_check():
    start = time.perf_counter()
    rep = run(load_builtin("schwarzschild-precession"))
    measured = rep.summary["precession_measured"]
    n_orbits = rep.summary["precession_orbits"]
    assert n_orbits >= 10

    exact = oracles.apsidal_advance_exact(1.0, 18.0, 22.0)
    rel_exact = abs(measured - exact) / exact

    # re-run with a fixed step ten times smaller than the adaptive mean step
    sc = load_builtin("schwarzschild-precession")
    mean_step = sc.config.tau_max / (rep.summary["n_samples"] - 1)
    fixed = dataclasses.replace(
        sc, config=dataclasses.replace(sc.config, method="rk4-fixed", step=mean_step / 10.0)
    )
    cross = run(fixed).summary["precession_measured"]
    rel_cross = abs(measured - cross) / exact
    elapsed = time.perf_counter() - start

    ok = rel_exact < 1e-5 and rel_cross < 1e-5 and elapsed < 10.0
    assert _verdict(
        "2 (cross-check)",
        ok,
        f"adaptive vs exact quadrature {rel_exact:.2e}, adaptive vs 10x-finer "
        f"fixed step {rel_cross:.2e} (both < 1e-5), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_cyclotron_and_drift():
    cyc = run(load_builtin("cyclotron")).summary
    drift = run(load_builtin("exb-drift")).summary["oracle_drift_error"]
    ok = (
        cyc["oracle_radius_error"] < 1e-6
        and cyc["oracle_period_error"] < 1e-6
        and drift < 1e-4
    )
    assert _verdict(
        3,
        ok,
        f"radius {cyc['oracle_radius_error']:.2e}, period "
        f"{cyc['oracle_period_error']:.2e} (< 1e-6), drift {drift:.2e} (< 1e-4)",
    )


def test_criterion_4_mass_rescaling_and_charge_linearity():
    geo = check(load_builtin("schwarzschild-circular"), "mass-invariance").summary
    em = check(load_builtin("cyclotron"), "mass-invariance").summary
    ok = (
        geo["passed"]
        and geo["max_pointwise_deviation"] <= 1e-12
        and em["inverse_mass_deviation"] <= 1e-14
        and em["charge_linearity_deviation"] <= 1e-14
    )
    assert _verdict(
        4,
        ok,
        f"geodesic mass-rescale deviation {geo['max_pointwise_deviation']:.1e} "
        f"(<= 1e-12), EM 1/m {em['inverse_mass_deviation']:.1e} and "
        f"linear-e {em['charge_linearity_deviation']:.1e} (<= 1e-14)",
    )


def test_criterion_5_identity_chain_convergence():
    curved = check(load_builtin("schwarzschild-circular"), "bianchi").summary
    flat = check(load_builtin("free"), "bianchi").summary
    uniform = check(load_builtin("cyclotron"), "closure").summary

    # a varying field with closed-form derivatives exposes the genuine
    # second-order truncation of the differenced curl
    pot = fields.coulomb_potential(1.0)
    probe = SpacetimeEvent(np.array([0.0, 3.0, 2.0, -1.0]))
    coarse = closure_residual(pot, probe, step=0.02)
    fine = closure_residual(pot, probe, step=0.01)
    closure_ratio = coarse / fine

    ok = (
        3.4 < curved["ratio"] < 4.6
        and 3.4 < closure_ratio < 4.6
        and flat["residual"] <= 1e-12
        and uniform["residual"] <= 1e-12
    )
    assert _verdict(
        5,
        ok,
        f"bianchi ratio {curved['ratio']:.3f}, closure ratio "
        f"{closure_ratio:.3f} (4 +/- 15%), flat {flat['residual']:.1e} and "
        f"uniform {uniform['residual']:.1e} (<= 1e-12)",
    )


def test_criterion_6_minimal_substitution_endpoints():
    gaps = {}
    for name in EM_BUILTINS:
        summary = check(load_builtin(name), "minimal-substitution").summary
        gaps[name] = max(
            summary["endpoint_position_separation"],
            summary["endpoint_velocity_separation"],
        )
    worst = max(gaps.values())
    ok = worst < 1e-6
    assert _verdict(
        6, ok, f"worst endpoint separation {worst:.2e} (< 1e-6) across {sorted(gaps)}"
    )


def test_criterion_7_rk4_order_and_norm_residuals():
    sc = load_builtin("cyclotron")
    u_perp = 0.1
    gamma = oracles.gamma_from_u(np.array([u_perp, 0.0, 0.0]))

    def endpoint_error(step):
        cfg = dataclasses.replace(sc.config, method="rk4-fixed", step=step)
        last = integrate(sc.connection(), sc.particle, sc.initial, cfg)[-1]
        tau = last.state.tau
        exact = np.array(
            [gamma * tau, u_perp * np.sin(tau), u_perp * (np.cos(tau) - 1.0), 0.0]
        )
        return float(np.max(np.abs(last.state.x.coords - exact)))

    errs = [endpoint_error(h) for h in (2e-2, 1e-2, 5e-3)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]

    worst_norm = 0.0
    for name in BUILTIN_NAMES:
        scn = load_builtin(name)
        cfg = dataclasses.replace(
            scn.config, method="rk4-fixed", step=1e-2, tau_max=100.0
        )
        traj = integrate(scn.connection(), scn.particle, scn.initial, cfg)
        assert traj.status == "completed"
        worst_norm = max(worst_norm, float(np.max(np.abs(traj.norm_residual))))

    ok = all(12.8 < r < 19.2 for r in ratios) and worst_norm < 1e-8
    assert _verdict(
        7,
        ok,
        f"step-halving error ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(16 +/- 20%), worst norm residual {worst_norm:.2e} (< 1e-8) "
        f"over tau in [0,100] for all built-ins",
    )


def exact_gamma(r, th, M=1.0):
    """The Schwarzschild symbols Gamma^a_mn at (r, theta), written out."""
    f = 1.0 - 2.0 * M / r
    G = np.zeros((4, 4, 4))
    G[1, 0, 0] = M * f / r**2
    G[0, 0, 1] = G[0, 1, 0] = M / (r**2 * f)
    G[1, 1, 1] = -M / (r**2 * f)
    G[2, 1, 2] = G[2, 2, 1] = 1.0 / r
    G[3, 1, 3] = G[3, 3, 1] = 1.0 / r
    G[1, 2, 2] = -r * f
    G[1, 3, 3] = -r * f * np.sin(th) ** 2
    G[3, 2, 3] = G[3, 3, 2] = np.cos(th) / np.sin(th)
    G[2, 3, 3] = -np.sin(th) * np.cos(th)
    return G


def exact_weak_field_gamma(x, M=1.0):
    """The weak-field symbols: Gamma^i_00 = M x_i / r^3, Gamma^0_0i = that / (1 - 2M/r)."""
    r = np.linalg.norm(x)
    G = np.zeros((4, 4, 4))
    G[1:, 0, 0] = M * x / r**3
    G[0, 0, 1:] = G[0, 1:, 0] = G[1:, 0, 0] / (1.0 - 2.0 * M / r)
    return G


def test_criterion_8_curvature_correctness():
    M = 1.0
    g = metrics.schwarzschild(M)
    g_fd = metrics.without_closed_form(g)

    worst_closed = worst_fd = worst_vacuum = 0.0
    for r in (4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 70.0, 100.0):
        for th in (np.pi / 2, 1.0, 2.2):
            coords = np.array([0.0, r, th, 0.3])
            exact = exact_gamma(r, th)
            worst_closed = max(
                worst_closed, np.max(np.abs(christoffel_raw(g, coords) - exact))
            )
            worst_fd = max(
                worst_fd, np.max(np.abs(christoffel_raw(g_fd, coords) - exact))
            )
            worst_vacuum = max(
                worst_vacuum,
                np.max(np.abs(ricci_raw(g, coords))),
                np.max(np.abs(einstein_raw(g, coords))),
            )

    ok = worst_closed < 1e-8 and worst_fd < 1e-6 and worst_vacuum < 1e-5
    assert _verdict(
        8,
        ok,
        f"christoffel error {worst_closed:.1e} closed-form (< 1e-8) / "
        f"{worst_fd:.1e} differenced (< 1e-6), vacuum ricci/einstein "
        f"{worst_vacuum:.1e} (< 1e-5) for r in [4M, 100M]",
    )


def _random_velocities(rng, n):
    return np.column_stack([rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, (n, 3))])


def test_criterion_8_companion_closed_form_geodesic_terms():
    # each chart's geodesic term, written from its closed forms of g^-1 and
    # dg, is -Gamma^a_mn u^m u^n of the assembled
    # symbols and of the symbols written out, to 1e-14 of the term's size
    rng = np.random.default_rng(8)
    n = 400
    schwarzschild_events = np.column_stack([
        rng.uniform(0.0, 5.0, n), rng.uniform(3.0, 40.0, n),
        rng.uniform(0.3, 2.8, n), rng.uniform(0.0, 6.0, n)])
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    radii = 10.0 ** rng.uniform(np.log10(3.0), 4.0, n)  # 3 M to 1e4 M
    weak_events = np.column_stack([rng.uniform(0.0, 5.0, n), directions * radii[:, None]])
    cases = [
        (metrics.schwarzschild(1.0), schwarzschild_events, lambda c: exact_gamma(c[1], c[2])),
        (metrics.weak_field(1.0), weak_events, lambda c: exact_weak_field_gamma(c[1:])),
    ]
    worst = 0.0
    for g, events, exact in cases:
        term = gravitational_connection(g).order1_raw
        for coords, u in zip(events, _random_velocities(rng, n)):
            got = term(coords, u)
            for gamma in (christoffel_raw(g, coords), exact(coords)):
                want = -gamma.dot(u).dot(u)
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert _verdict(
        "8 companion",
        worst < 1e-14,
        f"closed-form geodesic term vs -Gamma u u: relative error {worst:.1e} (< 1e-14)",
    )
