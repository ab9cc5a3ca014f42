"""Run reports: oracle summaries, property checkers, serialization."""

import dataclasses
import io
import json

import numpy as np
import pytest

from phasetransport import report
from phasetransport.errors import IncompatibleChecker, ValidationError
from phasetransport.report import CSV_COLUMNS, check, emit, run
from phasetransport.scenarios import load_builtin, load_scenario
from phasetransport.transport import Trajectory


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
            traj = Trajectory(traj[:-3], status="domain-exit", reason="forced")
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
        traj = original(*args)
        return Trajectory(traj[:-5], status="domain-exit", reason="forced")

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


def test_unknown_checker_name():
    with pytest.raises(ValidationError):
        check(load_builtin("free"), "entropy")


def test_precession_summary_against_both_references():
    rep = run(load_builtin("schwarzschild-precession"))
    assert rep.summary["precession_orbits"] == 11
    # the trajectory agrees with the exact reference to spline accuracy...
    assert rep.summary["precession_exact_error"] < 1e-5
    # ...while the weak-field formula is ~30% off at this tight radius
    assert rep.summary["precession_error"] > 0.25
    measured = rep.summary["radial_period_measured"]
    np.testing.assert_allclose(measured, 619.4597054103299, rtol=1e-6)


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
    samples = list(rep.samples[:3])
    samples[1] = dataclasses.replace(samples[1], norm_residual=float("nan"))
    odd = dataclasses.replace(rep, samples=Trajectory(samples))
    assert emit(odd, "json") == _json_reference(odd)
    assert "NaN" in emit(odd, "json")
