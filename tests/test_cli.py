"""Command-line interface: exit codes, output files, overrides."""

import json

import pytest

from phasetransport.cli import main

HEADER = "tau,t,x,y,z,u0,u1,u2,u3,norm_residual"


def test_run_free_to_stdout(capsys):
    assert main(["run", "free"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.split("\n") if ln]
    assert lines[0] == HEADER
    assert len(lines) == 12
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    # the x column tracks tau for a unit-velocity free particle
    last = [float(tok) for tok in lines[-1].split(",")]
    assert abs(last[2] - last[0]) <= 1e-15


def test_run_is_deterministic(capsys):
    main(["run", "cyclotron", "--format", "json"])
    first = capsys.readouterr().out
    main(["run", "cyclotron", "--format", "json"])
    assert capsys.readouterr().out == first


def test_run_writes_file(tmp_path, capsys):
    target = tmp_path / "free.csv"
    assert main(["run", "free", "--out", str(target)]) == 0
    stdout_run = main(["run", "free"])
    assert stdout_run == 0
    assert target.read_text() == capsys.readouterr().out


def test_run_json_contains_summary(capsys):
    assert main(["run", "free", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "completed"
    assert payload["summary"]["n_samples"] == 11
    assert payload["columns"][0] == "tau"


def test_run_overrides_step_and_tau_max(capsys):
    assert main(["run", "free", "--format", "json", "--step", "0.5",
                 "--tau-max", "2.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 5
    assert payload["scenario"]["integrator"]["step"] == 0.5
    assert payload["scenario"]["integrator"]["tau_max"] == 2.0


def test_run_scenario_file(tmp_path, capsys):
    doc = "[initial]\nu1 = 1.0\n\n[integrator]\nstep = 0.25\ntau_max = 1.0\n"
    path = tmp_path / "drift.cfg"
    path.write_text(doc)
    assert main(["run", str(path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.split("\n") if ln]
    assert len(lines) == 6


def test_run_batch_requires_out(capsys):
    assert main(["run", "free", "cyclotron"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_batch_writes_directory(tmp_path, capsys):
    code = main(["run", "free", "exb-drift", "--out", str(tmp_path),
                 "--jobs", "2", "--tau-max", "1.0"])
    assert code == 0
    assert (tmp_path / "free.csv").exists()
    assert (tmp_path / "exb-drift.csv").exists()
    text = (tmp_path / "free.csv").read_text()
    assert text.startswith(HEADER)


def _orbit_doc(name, r_peri, r_apo, tau_max):
    return (f"[scenario]\nname = {name}\n\n[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
            f"[initial]\norbit = bound\nr_peri = {r_peri}\nr_apo = {r_apo}\n\n"
            f"[integrator]\nmethod = rk45-adaptive\nstep = 1.0\nrtol = 1e-10\n"
            f"tau_max = {tau_max}\n")


def _circular_doc(name, radius, tau_max):
    return (f"[scenario]\nname = {name}\noracle = circular-orbit\n\n"
            f"[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
            f"[initial]\norbit = circular\nradius = {radius}\n\n"
            f"[integrator]\nstep = 0.5\ntau_max = {tau_max}\n")


def test_run_output_is_the_same_alone_grouped_and_in_parallel(tmp_path, capsys):
    # three adaptive orbits and two fixed-step orbits, each group sharing
    # a law with different horizons, plus a cyclotron on its own law
    docs = {
        "orbit-a": _orbit_doc("orbit-a", 18.0, 22.0, 300.0),
        "orbit-b": _orbit_doc("orbit-b", 15.0, 19.0, 211.5),
        "orbit-c": _orbit_doc("orbit-c", 21.0, 27.0, 405.25),
        "ring-a": _circular_doc("ring-a", 10.0, 60.0),
        "ring-b": _circular_doc("ring-b", 14.0, 75.3),
    }
    paths = []
    for name, text in docs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        paths.append(str(path))
    paths.insert(2, "cyclotron")
    names = [*list(docs)[:2], "cyclotron", *list(docs)[2:]]
    alone = {}
    for path in paths:
        target = tmp_path / "alone.json"
        assert main(["run", path, "--out", str(target), "--format", "json"]) == 0
        alone[path] = target.read_bytes()
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", *paths, "--out", str(out), "--format", "json", "--jobs", jobs]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == [str(out / f"{name}.json") for name in names]
        for path, name in zip(paths, names):
            assert (out / f"{name}.json").read_bytes() == alone[path]


def test_unknown_scenario_token(capsys):
    assert main(["run", "does-not-exist"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "free" in err  # the message lists the built-in names


def test_invalid_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[metric]\nmasss = 1.0\n")
    assert main(["run", str(bad)]) == 1
    assert "masss" in capsys.readouterr().err


def test_validation_failure_exit(tmp_path, capsys):
    bad = tmp_path / "horizon.cfg"
    bad.write_text(
        "[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
        "[initial]\nx1 = 1.5\n"
    )
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


NON_FINITE_DOCS = {
    "mass-inf": ("[particle]\nmass = inf\n", "mass"),
    "u1-nan": ("[initial]\nu1 = nan\n", "u1"),
    "tau_max-inf": ("[integrator]\ntau_max = inf\n", "tau_max"),
    "rtol-nan": ("[integrator]\nmethod = rk45-adaptive\nrtol = nan\n", "rtol"),
    "b_z-nan": ("[em]\ntype = uniform\nb_z = nan\n\n[particle]\ncharge = 1.0\n", "b_z"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_DOCS))
def test_non_finite_literal_is_invalid_input(case, tmp_path, capsys):
    text, key = NON_FINITE_DOCS[case]
    path = tmp_path / f"{case}.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert f"key {key!r}" in errors[0] and "line " in errors[0]


@pytest.mark.parametrize("override", [["--tau-max", "inf"], ["--step", "inf"], ["--step", "nan"]])
def test_non_finite_override_is_invalid_input(override, capsys):
    assert main(["run", "free", *override]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and override[0] in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_invalid_input(jobs, tmp_path, capsys):
    code = main(["run", "free", "exb-drift", "--out", str(tmp_path), "--jobs", jobs])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err
    assert not any(tmp_path.iterdir())


def test_check_pass_and_exit_zero(capsys):
    assert main(["check", "schwarzschild-circular", "--checker", "bianchi"]) == 0
    out = capsys.readouterr().out
    assert "bianchi on schwarzschild-circular: PASS" in out
    assert "ratio" in out


def test_check_incompatible_is_invalid_usage(capsys):
    assert main(["check", "free", "--checker", "closure"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", "cyclotron", "--checker", "mass-invariance",
                 "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["status"] == "passed"
    assert payload["summary"]["checker"] == "mass-invariance"
    assert payload["rows"] == []


def test_check_norm_with_overrides(capsys):
    code = main(["check", "free", "--checker", "norm", "--tau-max", "2.0"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_check_failure_exits_two(capsys):
    # a deliberately coarse fixed step lets the four-velocity norm drift
    code = main(["check", "combined-schwarzschild-B", "--checker", "norm",
                 "--step", "16.0"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_check_unknown_checker_rejected_by_argparse(capsys):
    assert main(["check", "free", "--checker", "entropy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid choice" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["run", "free", "--jobs", "abc"], [],
                                  ["run", "free", "--format", "xml"]])
def test_usage_errors_are_invalid_input(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("free", "cyclotron", "exb-drift", "coulomb",
                 "schwarzschild-circular", "schwarzschild-precession",
                 "weak-field-newtonian", "combined-schwarzschild-B"):
        assert name in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "phasetransport", "run", "free"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(HEADER)
