"""Run reports: oracle summaries, property checkers, serialization."""

import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from phasetransport import report
from phasetransport.curvature import faraday_field_of
from phasetransport.errors import IncompatibleChecker, ValidationError
from phasetransport.report import CSV_COLUMNS, check, emit, run
from phasetransport.scenarios import builtin_text, load_builtin, load_scenario
from phasetransport.tensor import spec
from phasetransport.transport import Trajectory, minimal_substitution_trajectory


def cut_short(traj, drop):
    """`traj` without its last `drop` samples, ended by a forced domain exit."""
    return Trajectory(traj.tau[:-drop], traj.state[:-drop], traj.norm_residual[:-drop],
                      traj.energy[:-drop], status="domain-exit", reason="forced")


def test_free_run_is_eleven_linear_rows():
    rep = run(load_builtin("free"))
    assert rep.status == "completed"
    assert rep.summary["n_samples"] == 11
    assert rep.summary["oracle_linearity_error"] < 1e-14
    assert rep.summary["max_norm_residual"] < 1e-14


def test_cyclotron_summary_oracle_errors():
    rep = run(load_builtin("cyclotron"))
    assert rep.summary["oracle_radius_error"] < 1e-6
    assert rep.summary["oracle_period_error"] < 1e-6


def test_cyclotron_oracle_measures_a_field_whose_square_overflows():
    # B and mass both 1e300 gyrate as the built-in does, while |B|^2 is inf
    text = (builtin_text("cyclotron").replace("b_z = 1.0", "b_z = 1e300")
            .replace("mass = 1.0", "mass = 1e300"))
    assert text.count("= 1e300") == 2
    rep = run(load_scenario(text))
    assert rep.summary["oracle_radius_error"] < 1e-6
    assert rep.summary["oracle_period_error"] < 1e-6
    short = text.replace("tau_max = 6.283185307179586", "tau_max = 0.05")
    with pytest.raises(ValidationError, match="needs at least a quarter turn"):
        run(load_scenario(short))


def test_exb_summary_drift_error():
    rep = run(load_builtin("exb-drift"))
    assert rep.summary["oracle_drift_error"] < 1e-4


def test_circular_orbit_summaries():
    rep = run(load_builtin("schwarzschild-circular"))
    assert rep.summary["oracle_rate_error"] < 1e-6
    assert rep.summary["oracle_radius_drift"] < 1e-9
    rep = run(load_builtin("coulomb"))
    assert rep.summary["oracle_rate_error"] < 1e-6
    assert rep.summary["oracle_radius_drift"] < 1e-9


def test_newtonian_force_summary():
    rep = run(load_builtin("weak-field-newtonian"))
    assert rep.summary["oracle_force_error"] < 2e-4


def test_csv_emission_contract():
    rep = run(load_builtin("free"))
    text = emit(rep, "csv")
    lines = text.split("\n")
    assert lines[0] == "tau,t,x,y,z,u0,u1,u2,u3,norm_residual"
    assert text.endswith("\n")
    assert len([ln for ln in lines if ln]) == 12  # header + 11 rows
    # numbers round-trip bit-exactly through the text form
    for line, sample in zip(lines[1:], rep.samples):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed[0] == sample.state.tau
        assert parsed[1:5] == list(sample.state.x.coords)
        assert parsed[5:9] == list(sample.state.u.components)
        assert parsed[9] == sample.norm_residual


def test_json_emission_mirrors_csv_and_adds_summary():
    rep = run(load_builtin("free"))
    payload = json.loads(emit(rep, "json"))
    assert payload["columns"] == list(CSV_COLUMNS)
    assert len(payload["rows"]) == 11
    assert payload["summary"]["n_samples"] == 11
    assert payload["scenario"]["metric"]["type"] == "minkowski"
    # bit-exact mirror of the in-memory samples
    for row, sample in zip(payload["rows"], rep.samples):
        assert row[0] == sample.state.tau
        assert row[1:5] == list(sample.state.x.coords)


def test_emission_is_deterministic():
    a = emit(run(load_builtin("free")), "json")
    b = emit(run(load_builtin("free")), "json")
    assert a == b


def test_emit_to_file_object_and_path(tmp_path):
    rep = run(load_builtin("free"))
    buf = io.StringIO()
    emit(rep, "csv", buf)
    target = tmp_path / "out.csv"
    emit(rep, "csv", target)
    assert target.read_text() == buf.getvalue()


def test_emit_rejects_unknown_format_and_sampleless_csv():
    rep = run(load_builtin("free"))
    with pytest.raises(ValidationError):
        emit(rep, "xml")
    sampleless = dataclasses.replace(rep, samples=None)
    with pytest.raises(ValidationError):
        emit(sampleless, "csv")
    json_ok = emit(sampleless, "json")
    assert json.loads(json_ok)["rows"] == []


def test_bianchi_checker_flat_and_curved():
    flat = check(load_builtin("free"), "bianchi")
    assert flat.summary["passed"] and flat.summary["residual"] == 0.0
    curved = check(load_builtin("schwarzschild-circular"), "bianchi")
    assert curved.summary["passed"]
    assert 3.4 < curved.summary["ratio"] < 4.6


def test_closure_checker_uniform_gauge_is_exact():
    rep = check(load_builtin("cyclotron"), "closure")
    assert rep.summary["passed"]
    assert rep.summary["residual"] <= 1e-12


def test_closure_checker_requires_potential():
    with pytest.raises(IncompatibleChecker):
        check(load_builtin("free"), "closure")
    with pytest.raises(IncompatibleChecker):
        check(load_builtin("schwarzschild-circular"), "minimal-substitution")


def test_norm_checker_caps_horizon_and_passes():
    rep = check(load_builtin("schwarzschild-circular"), "norm")
    assert rep.summary["passed"]
    assert rep.summary["max_norm_residual"] < 1e-8
    assert rep.summary["tau_span"] <= 100.0
    assert rep.samples is not None


def test_mass_invariance_checker_both_modes():
    geo = check(load_builtin("schwarzschild-circular"), "mass-invariance")
    assert geo.summary["passed"]
    assert geo.summary["mode"] == "trajectory"
    assert geo.summary["max_pointwise_deviation"] <= 1e-12
    em = check(load_builtin("cyclotron"), "mass-invariance")
    assert em.summary["passed"]
    assert em.summary["mode"] == "term-scaling"
    assert em.summary["inverse_mass_deviation"] <= 1e-14
    assert em.summary["charge_linearity_deviation"] <= 1e-14


def test_mass_invariance_fails_on_mismatched_trajectories(monkeypatch):
    # the heavy run stops early; the checker must not compare a truncation
    original = report.integrate
    calls = []

    def integrate(*args):
        traj = original(*args)
        calls.append(1)
        if len(calls) == 2:
            traj = cut_short(traj, 3)
        return traj

    monkeypatch.setattr(report, "integrate", integrate)
    rep = check(load_builtin("schwarzschild-circular"), "mass-invariance")
    assert not rep.summary["passed"]
    n = rep.summary["n_samples"][0]
    assert rep.summary["n_samples"] == [n, n - 3]
    assert rep.summary["status"] == ["completed", "domain-exit"]
    assert "max_pointwise_deviation" not in rep.summary


def test_minimal_substitution_fails_on_routes_that_end_apart(monkeypatch, capsys):
    # the canonical-momentum route stops early; the checker must not
    # compare the endpoint of a truncation
    original = report.minimal_substitution_trajectory

    def truncated(*args):
        return cut_short(original(*args), 5)

    monkeypatch.setattr(report, "minimal_substitution_trajectory", truncated)
    rep = check(load_builtin("cyclotron"), "minimal-substitution")
    assert not rep.summary["passed"]
    assert rep.summary["status"] == ["completed", "domain-exit"]
    n = rep.summary["n_samples"][0]
    assert rep.summary["n_samples"] == [n, n - 5]
    assert "endpoint_position_separation" not in rep.summary

    from phasetransport.cli import main

    assert main(["check", "cyclotron", "--checker", "minimal-substitution"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_minimal_substitution_checker_on_combined_scenario():
    rep = check(load_builtin("combined-schwarzschild-B"), "minimal-substitution")
    assert rep.summary["passed"]
    assert rep.summary["endpoint_position_separation"] < 1e-6


def test_minimal_substitution_routes_difference_a_derivative_free_potential_alike():
    # without a closed-form gradient both routes difference A at the
    # first-derivative step; the force route once took the nested one
    scn = load_builtin("coulomb")
    pot = dataclasses.replace(scn.potential, deriv_fn=None)
    scn = dataclasses.replace(scn, potential=pot, faraday=faraday_field_of(pot),
                              config=dataclasses.replace(scn.config, tau_max=20.0))
    rep = check(scn, "minimal-substitution")
    assert rep.summary["endpoint_position_separation"] <= 1e-9
    assert rep.summary["endpoint_velocity_separation"] <= 1e-9


SPHERICAL_COULOMB = """
[scenario]
name = spherical-coulomb

[metric]
type = schwarzschild
mass = 1.0

[em]
type = coulomb
q = 0.5

[particle]
mass = 1.0
charge = 1.0

[initial]
orbit = bound
r_peri = 18.0
r_apo = 22.0

[integrator]
method = rk4-fixed
step = 5e-2
tau_max = 20.0
"""


def test_spherical_coulomb_closed_form_runs_with_the_generic_fields_bits():
    # no built-in puts a coulomb field on the spherical chart; this one does
    scn = load_scenario(SPHERICAL_COULOMB)
    assert spec(scn.faraday.matrix_fn) is not None
    closed = run(scn)
    # a wrapper keeps no spec: its lone run builds F on arrays
    generic_field = dataclasses.replace(scn.faraday, matrix_fn=lambda c: scn.faraday.matrix_fn(c))
    generic = run(dataclasses.replace(scn, faraday=generic_field))
    assert closed.status == generic.status == "completed"
    assert emit(closed, "csv") == emit(generic, "csv")
    assert closed.summary == generic.summary
    rep = check(scn, "minimal-substitution")
    assert rep.summary["passed"]


def test_unknown_checker_name():
    with pytest.raises(ValidationError):
        check(load_builtin("free"), "entropy")


def test_precession_summary_against_both_references():
    rep = run(load_builtin("schwarzschild-precession"))
    assert rep.summary["precession_orbits"] == 11
    # the trajectory's apsides agree with the exact reference to ~1e-7...
    assert rep.summary["precession_exact_error"] < 1e-5
    # ...while the weak-field formula is ~30% off at this tight radius
    assert rep.summary["precession_error"] > 0.25
    measured = rep.summary["radial_period_measured"]
    np.testing.assert_allclose(measured, 619.4597054103299, rtol=1e-6)


def _sampled_radius(steps):
    """(tau, r, u^r) of r = 20 - 2 cos tau on uneven steps, `steps` of them
    up to the maximum at tau = pi, which is a sample with u^r = 0 exactly
    as is the periapsis start, then on to 3.5 pi."""
    def uneven(n):
        widths = 1.0 + 0.25 * np.sin(np.arange(n))
        return np.cumsum(widths) / np.sum(widths)

    tau = np.concatenate(
        [[0.0], np.pi * uneven(steps), np.pi * (1.0 + 2.5 * uneven(5 * steps // 2))]
    )
    r, ur = 20.0 - 2.0 * np.cos(tau), 2.0 * np.sin(tau)
    ur[0] = ur[steps] = 0.0
    return tau, r, ur


def test_hermite_apsides_of_a_sampled_radius():
    errors = []
    for steps in (40, 80):
        tau, r, ur = _sampled_radius(steps)
        k, s, minimum = report._radial_extrema(tau, r, ur)
        # the zero at the start and the zero at an interior sample, once each
        assert list(minimum) == [True, False, True, False]
        assert list(k[:2]) == [0, steps] and list(s[:2]) == [0.0, 0.0]
        at = tau[k] + s * (tau[k + 1] - tau[k])
        errors.append(np.max(np.abs(at - np.pi * np.arange(4))))
    # at about 160 samples per period, as the built-in precession run has,
    # the apsis radii are good to 1e-9 and the apsis times to 1e-6, the
    # times converging at third order
    np.testing.assert_allclose(report._hermite(k, s, tau, r, ur), [18.0, 22.0, 18.0, 22.0],
                               rtol=1e-9)
    assert errors[1] < 1e-6 and errors[0] / errors[1] > 6.0


def test_oracle_requires_matching_scenario_shape():
    # circular-orbit oracle without the circular keyword cannot know the rate
    doc = (
        "[scenario]\noracle = circular-orbit\n\n[initial]\nu1 = 0.1\n\n"
        "[integrator]\ntau_max = 0.5\n"
    )
    with pytest.raises(ValidationError):
        run(load_scenario(doc))


def _json_reference(rep) -> str:
    rows = [
        [s.state.tau, *map(float, s.state.x.coords), *map(float, s.state.u.components),
         s.norm_residual]
        for s in (rep.samples or [])
    ]
    payload = {"scenario": rep.scenario, "status": rep.status, "columns": list(CSV_COLUMNS),
               "rows": rows, "summary": rep.summary}
    return json.dumps(payload, indent=2) + "\n"


def test_json_rows_template_gives_the_bytes_of_json_dumps():
    rep = run(load_builtin("cyclotron"))
    assert emit(rep, "json") == _json_reference(rep)
    no_samples = dataclasses.replace(check(load_builtin("free"), "bianchi"), samples=None)
    assert emit(no_samples, "json") == _json_reference(no_samples)
    # a value json spells its own way takes json's path for the rows
    first = rep.samples[:3]
    residual = first.norm_residual.copy()
    residual[1] = float("nan")
    odd = dataclasses.replace(
        rep, samples=Trajectory(first.tau, first.state, residual, first.energy))
    assert emit(odd, "json") == _json_reference(odd)
    assert "NaN" in emit(odd, "json")


def _csv_reference(rep) -> str:
    row = ",".join(["%.17g"] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)]
    for s in rep.samples:
        lines.append(row % (s.state.tau, *s.state.x.coords, *s.state.u.components,
                            s.norm_residual))
    return "\n".join(lines) + "\n"


def _with_rows(rep, n):
    return dataclasses.replace(rep, samples=rep.samples[:n])


@pytest.fixture(scope="module")
def cyclotron_report():
    rep = run(load_builtin("cyclotron"))
    assert len(rep.samples) > 2 * report._CHUNK + 1
    return rep


@pytest.mark.parametrize("chunks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_chunked_emission_gives_the_bytes_of_a_row_at_a_time(cyclotron_report, chunks, extra):
    n = chunks * report._CHUNK + extra
    cut = _with_rows(cyclotron_report, n)
    text = emit(cut, "csv")
    assert text == _csv_reference(cut)
    # one line per row and the header: without rows, exactly the header line
    assert text.count("\n") == n + 1
    assert emit(cut, "json") == _json_reference(cut)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_value_json_spells_in_a_later_chunk_takes_jsons_path(cyclotron_report, bad):
    cut = cyclotron_report.samples[:2 * report._CHUNK]
    state = cut.state.copy()
    state[report._CHUNK + 5, 6] = bad
    odd = dataclasses.replace(cyclotron_report, samples=Trajectory(
        cut.tau, state, cut.norm_residual, cut.energy))
    text = emit(odd, "json")
    assert text == _json_reference(odd)
    assert ("NaN" if bad != bad else "Infinity") in text
    assert emit(odd, "csv") == _csv_reference(odd)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emission_peaks_at_about_twice_its_text(cyclotron_report, fmt):
    # at the join, the chunks and the text are alive at once; no Python
    # object per row outlives its chunk
    emit(cyclotron_report, fmt)
    tracemalloc.start()
    try:
        text = emit(cyclotron_report, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# ---------------------------------------------------------------------------
# batches: what a row may bring of its own


def _variant(name, **changes):
    """A built-in scenario with values replaced; a change is named section__key."""
    lines, section = [], None
    for line in builtin_text(name).splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        key = line.partition("=")[0].strip()
        if f"{section}__{key}" in changes:
            line = f"{key} = {changes.pop(f'{section}__{key}')}"
        lines.append(line)
    assert not changes, changes
    return load_scenario("\n".join(lines), name=name)


def test_batch_key_leaves_out_only_what_a_row_brings_of_its_own():
    key = report.batch_key
    gyro = key(_variant("cyclotron"))
    # a uniform field's E and B, the particle and the horizon are per row
    assert key(_variant("cyclotron", em__b_z=2.5, particle__mass=0.5, particle__charge=-3.0,
                        integrator__tau_max=1.0)) == gyro
    assert key(_variant("exb-drift", integrator__step=1e-3)) == gyro
    # a neutral particle does not couple; the integrator is shared
    assert key(_variant("cyclotron", particle__charge=0.0)) != gyro
    assert key(_variant("cyclotron", integrator__step=2e-3)) != gyro
    # a non-uniform field is shared, with the charge that scales it
    coulomb = key(_variant("coulomb"))
    assert key(_variant("coulomb", particle__mass=2.0)) == coulomb
    assert key(_variant("coulomb", em__q=2.0)) != coulomb
    assert key(_variant("coulomb", particle__charge=2.0)) != coulomb
    combined = key(_variant("combined-schwarzschild-B"))
    assert key(_variant("combined-schwarzschild-B", em__b=2e-3)) != combined
    assert key(_variant("combined-schwarzschild-B", metric__mass=1.5)) != combined


def test_run_batch_rows_with_their_own_field_and_particle_match_run():
    groups = [
        [_variant("cyclotron", em__b_z=b, particle__mass=m, particle__charge=e, initial__u1=u,
                  integrator__tau_max=t)
         for b, m, e, u, t in [(1.0, 1.0, 1.0, 0.1, 2.0), (2.0, 0.5, 1.0, 0.2, 1.2),
                               (0.5, 1.0, -3.0, 0.15, 1.5)]]
        + [_variant("exb-drift", integrator__step=1e-3, integrator__tau_max=2.5)],
        [_variant("coulomb", particle__mass=m, integrator__tau_max=t)
         for m, t in [(1.0, 20.0), (2.0, 15.0), (0.5, 12.5)]],
    ]
    for scenarios in groups:
        assert len({report.batch_key(s) for s in scenarios}) == 1
        for scn, rep in zip(scenarios, report.run_batch(scenarios)):
            assert emit(rep, "json") == emit(run(scn), "json")


@pytest.mark.parametrize("x1", [1e6, 1e9, 1e12])
def test_canonical_route_starts_at_the_initial_state_wherever_the_origin_is(x1):
    # the route anchors the potential at the start event, so pi starts at m g u
    # and never carries e A(x0): the first recovered velocity is the initial
    # one bit for bit.  Out to 1e9 the two routes still meet the checker's
    # absolute bound; at 1e12 the chart resolves x only to 1.2e-4, which
    # reaches the recovered u through A(x), and the check fails.
    text = builtin_text("exb-drift").replace("t = 0.0", f"t = 0.0\nx1 = {x1!r}\nu2 = 0.3")
    scn = load_scenario(text)
    scn = dataclasses.replace(scn, config=dataclasses.replace(scn.config, tau_max=1.0))
    route = minimal_substitution_trajectory(scn.potential, scn.metric, scn.particle,
                                            scn.initial, scn.config)
    start = np.concatenate([scn.initial.x.coords, scn.initial.u.components])
    assert route.state[0].tobytes() == start.tobytes()
    assert check(scn, "minimal-substitution").summary["passed"] == (x1 < 1e12)
