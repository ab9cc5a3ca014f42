"""Command-line interface: exit codes, output files, overrides."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.cli import main
from phasetransport.scenarios import builtin_names, builtin_text

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


def test_two_scenarios_writing_one_file_is_invalid_input(tmp_path, capsys):
    other = tmp_path / "other.cfg"
    other.write_text(builtin_text("exb-drift").replace("name = exb-drift", "name = free"))
    out = tmp_path / "out"
    assert main(["run", "free", str(other), "--out", str(out), "--tau-max", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: two scenarios would write {out / 'free.csv'}"]


@pytest.mark.parametrize("name", ["../escaped", "a/b"])
def test_scenario_name_that_is_not_a_file_name_is_invalid_input(name, tmp_path, capsys):
    doc = tmp_path / "doc.cfg"
    doc.write_text(builtin_text("free").replace("name = free", f"name = {name}"))
    out = tmp_path / "outdir"
    assert main(["run", "free", str(doc), "--out", str(out), "--tau-max", "1.0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
    assert list(tmp_path.iterdir()) == [doc]


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


def _cyclotron_doc(name, b_z, mass, charge, u1, tau_max):
    text = builtin_text("cyclotron").replace("name = cyclotron", f"name = {name}")
    for old, new in (("b_z = 1.0", f"b_z = {b_z}"), ("mass = 1.0", f"mass = {mass}"),
                     ("charge = 1.0", f"charge = {charge}"), ("u1 = 0.1", f"u1 = {u1}")):
        text = text.replace(old, new)
    return text.replace("tau_max = 6.283185307179586", f"tau_max = {tau_max}")


def test_run_output_is_the_same_alone_grouped_and_in_parallel(tmp_path, capsys):
    # three adaptive orbits and two fixed-step orbits, each group sharing
    # a law with different horizons, plus the built-in cyclotron and two
    # more in other uniform fields, with other particles: one law, whose
    # K0 = e F and 1/m each row brings of its own
    docs = {
        "orbit-a": _orbit_doc("orbit-a", 18.0, 22.0, 300.0),
        "orbit-b": _orbit_doc("orbit-b", 15.0, 19.0, 211.5),
        "gyro-a": _cyclotron_doc("gyro-a", 2.0, 0.5, 1.0, 0.2, 2.0),
        "orbit-c": _orbit_doc("orbit-c", 21.0, 27.0, 405.25),
        "ring-a": _circular_doc("ring-a", 10.0, 60.0),
        "gyro-b": _cyclotron_doc("gyro-b", 0.5, 1.0, -3.0, 0.15, 1.5),
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


def _outcome(text, command, tmp_path, capsys):
    """(exit code, warnings, stderr lines) of `command` on the document `text`,
    with `--out` pointing into `tmp_path`."""
    path = tmp_path / "huge.cfg"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], str(path), *command[1:], "--out", str(tmp_path / "huge.out")])
    return code, [str(w.message) for w in caught], capsys.readouterr().err.splitlines()


def test_overflowing_field_ends_with_one_integration_error_line(tmp_path, capsys):
    # finite input whose force overflows: the run fails (exit 2) with its one
    # line, and numpy's overflow warnings stay off stderr
    text = builtin_text("cyclotron").replace("b_z = 1.0", "b_z = 1e300")
    assert _outcome(text, ["run"], tmp_path, capsys) == (
        2, [], ["integration error: state became non-finite at tau = 0.001"]
    )


def test_overflow_on_python_floats_ends_with_one_integration_error_line(tmp_path, capsys,
                                                                       monkeypatch):
    # a lone RK4 run steps on Python floats, which overflow to inf and never
    # warn: the run fails with its one line and no traceback
    from phasetransport import transport

    array_steps = []
    step = transport._rk4_step
    monkeypatch.setattr(transport, "_rk4_step",
                        lambda *args: array_steps.append(1) or step(*args))
    text = builtin_text("exb-drift").replace("e_x = 0.1", "e_x = 1e300")
    assert _outcome(text, ["run"], tmp_path, capsys) == (
        2, [], ["integration error: state became non-finite at tau = 0.01"]
    )
    assert array_steps == []


def test_zero_error_scale_on_python_floats_ends_with_one_integration_error_line(tmp_path,
                                                                               capsys):
    # atol = 0 and a planar cyclotron's z, exactly zero in both states, give
    # a zero error scale: Python floats raise there, and the run must fail
    # with numpy's NaN norm and its one line, not a traceback
    text = builtin_text("cyclotron").replace("method = rk4-fixed",
                                             "method = rk45-adaptive\natol = 0.0")
    unreachable = "integration error: tolerance unreachable at minimum step 1e-08 (err norm nan)"
    assert _outcome(text, ["run"], tmp_path, capsys) == (2, [], [unreachable])


#: built-in, replacements, command, the tau where the state overflows
OVERFLOWS = {
    # e F itself overflows, before the batch is integrated
    "cyclotron-e-b": ("cyclotron", [("b_z = 1.0", "b_z = 1e200"), ("charge = 1.0", "charge = 1e200")],
                      ["run"], "0.001"),
    # on a guarded chart the NaN state once ended the run as a domain exit
    "combined-b": ("combined-schwarzschild-B", [("b = 1e-3", "b = 1e200")], ["run"], "0.05"),
    "combined-b-canonical": ("combined-schwarzschild-B", [("b = 1e-3", "b = 1e200")],
                             ["check", "--checker", "minimal-substitution"], "0.05"),
    # A(x0) overflows, so the velocity recovered at the start event is
    # inf - inf; a step past tau_max is one step of tau_max, which lands on it
    "combined-b-canonical-start": ("combined-schwarzschild-B",
                                   [("b = 1e-3", "b = 1e307"), ("step = 5e-2", "step = 1e200")],
                                   ["check", "--checker", "minimal-substitution"], "166"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_coupling_ends_with_one_integration_error_line(case, tmp_path, capsys):
    name, replacements, command, tau = OVERFLOWS[case]
    text = builtin_text(name)
    for line, replacement in replacements:
        assert line in text
        text = text.replace(line, replacement)
    assert _outcome(text, command, tmp_path, capsys) == (
        2, [], [f"integration error: state became non-finite at tau = {tau}"]
    )


def test_horizon_past_the_step_budget_ends_at_max_steps(tmp_path, capsys):
    # tau_max / step overflows to inf: the step count is capped, not converted
    path = tmp_path / "far.cfg"
    path.write_text("[initial]\nu1 = 1.0\n\n[integrator]\nstep = 1e-5\ntau_max = 1e308\n"
                    "max_steps = 5\n")
    assert main(["run", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "max-steps"
    assert [row[0] for row in payload["rows"]] == [k * 1e-5 for k in range(6)]


@pytest.mark.parametrize("names", [["free"], ["free", "free-twin"]])
def test_step_past_the_horizon_takes_one_step_of_the_horizon(names, tmp_path, capsys):
    # the whole horizon is no rounding remainder of a step that dwarfs it,
    # alone and in a batch of two rows (two scenarios of one law)
    twin = tmp_path / "free-twin.cfg"
    twin.write_text(builtin_text("free").replace("name = free", "name = free-twin"))
    out = tmp_path / "out"
    out.mkdir()
    tokens = ["free", str(twin)][:len(names)]
    target = out if len(names) > 1 else out / "free.json"
    assert main(["run", *tokens, "--step", "1e200", "--tau-max", "0.05", "--format", "json",
                 "--out", str(target)]) == 0
    for name in names:
        payload = json.loads((out / f"{name}.json").read_text())
        assert payload["status"] == "completed"
        assert [row[0] for row in payload["rows"]] == [0.0, 0.05]


def test_huge_finite_coordinates_land_and_complete(tmp_path, capsys):
    # a landed state is finite component by component: the sum of these
    # coordinates overflows, and the run must not fail on it
    path = tmp_path / "far.cfg"
    path.write_text("[initial]\nx1 = 1e308\nx2 = 1e308\nu1 = 1.0\n\n"
                    "[integrator]\nstep = 0.1\ntau_max = 1.0\n")
    assert main(["run", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "completed"
    assert payload["summary"]["n_samples"] == 11


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


def test_renormalize_key_is_invalid_input(tmp_path, capsys):
    doc = tmp_path / "renormalize.cfg"
    doc.write_text("[integrator]\nrenormalize = false\n")
    assert main(["run", str(doc)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "renormalize" in lines[0]


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


#: built-in, key line, replacement: values that the orbit closed forms,
#: the unit-norm solve or an oracle reject (each once gave a traceback)
OUT_OF_DOMAIN = [
    ("free", "u1 = 1.0", "u1 = 1e300"),
    ("coulomb", "radius = 10.0", "radius = 0"),
    ("coulomb", "charge = 1.0", "charge = 1e300"),
    ("schwarzschild-circular", "radius = 10.0", "radius = 3"),
    ("schwarzschild-circular", "radius = 10.0", "radius = 1e300"),
    ("schwarzschild-precession", "r_apo = 22.0", "r_apo = 1e300"),
    ("cyclotron", "charge = 1.0", "charge = 0"),
    ("exb-drift", "e_x = 0.1", "e_x = 3"),
    ("weak-field-newtonian", "step = 1e-2", "step = 3"),
    # r^2 overflows in the metric, so the unit-norm u^0 is NaN
    ("schwarzschild-circular", "orbit = circular\nradius = 10.0",
     "x1 = 1e160\nx2 = 1.5707963267948966"),
]


@pytest.mark.parametrize("name,line,replacement", OUT_OF_DOMAIN)
def test_value_outside_a_closed_form_domain_is_invalid_input(name, line, replacement,
                                                             tmp_path, capsys):
    text = builtin_text(name)
    assert line in text
    code, caught, err = _outcome(text.replace(line, replacement), ["run", "--tau-max", "2.0"],
                                 tmp_path, capsys)
    assert (code, caught, len(err)) == (1, [], 1)
    assert err[0].startswith("error:")


#: built-in, key line, replacement: values that leave an oracle a 0/0 rate
DEGENERATE_RATES = [
    ("exb-drift", "t = 0.0", "t = 1e300"),  # elapsed coordinate time rounds to 0
    ("coulomb", "mass = 1.0", "mass = 1e300"),  # expected angular rate underflows to 0
    # r overflows to inf, so the expected acceleration is 0
    ("weak-field-newtonian", "x1 = 1e4", "x1 = 1e300"),
    ("weak-field-newtonian", "x1 = 1e4", "x1 = 1e4\nx2 = 1e300"),
]


@pytest.mark.parametrize("name,line,replacement", DEGENERATE_RATES)
def test_degenerate_oracle_rate_is_invalid_input(name, line, replacement, tmp_path, capsys):
    text = builtin_text(name)
    assert line in text
    path = tmp_path / f"{name}.cfg"
    path.write_text(text.replace(line, replacement, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path), "--tau-max", "0.05", "--format", "json"])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


#: built-in, two keys set to huge values: the oracle's closed forms overflow
#: (each pair once let a numpy RuntimeWarning reach stderr)
HUGE_PAIRS = [
    (name, first, value, second)
    for name, firsts in (("cyclotron", ("b_z",)), ("exb-drift", ("e_x", "b_z")))
    for first in firsts
    for value in ("1e300", "-1e300")
    for second in ("mass", "step")
]


def _huge_doc(name, first, value, second, path):
    """Write built-in `name` with `first` set to `value` and `second` to 1e300."""
    lines = builtin_text(name).splitlines()
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0].strip()
        if key in (first, second):
            lines[i] = f"{key} = {value if key == first else '1e300'}"
        elif key == "name":
            lines[i] = f"name = {path.stem}"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("name,first,value,second", HUGE_PAIRS)
def test_huge_values_on_two_keys_warn_nothing(name, first, value, second, tmp_path, capsys):
    path = _huge_doc(name, first, value, second, tmp_path / f"{name}.cfg")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", path, "--tau-max", "0.05", "--format", "json"])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    if second == "step":
        # the huge step is one step of the horizon, and the huge field overflows it
        assert (code, err.splitlines()) == (
            2, ["integration error: state became non-finite at tau = 0.05"])
        return
    # exit 1 with one error line, or exit 0 (a huge B and mass barely drift)
    assert (code, len(err.splitlines())) in ((1, 1), (0, 0))
    assert code == 0 or err.startswith("error:")


def test_parallel_batches_whose_closed_forms_overflow_warn_nothing(tmp_path, capsys):
    # two batch groups of two rows on the pool's threads: each group's e F and
    # oracle overflow outside the integration, in a thread of its own
    paths = [_huge_doc(name, "b_z", "1e300", "mass", tmp_path / f"{name}-{k}.cfg")
             for name in ("cyclotron", "exb-drift") for k in (1, 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", *paths, "--out", str(tmp_path / "out"), "--tau-max", "0.05",
                     "--jobs", "2"])
    assert [str(w.message) for w in caught] == []
    # the cyclotron group turns too little for its oracle; the exb-drift group completes
    assert (code, capsys.readouterr().err.splitlines()) == (
        1, ["error: cyclotron oracle needs at least a quarter turn"])


#: a Schwarzschild document that escapes to r ~ 1e157 in four steps, where
#: r^2 in the metric overflows: the run completes, and its norm residual is NaN
ESCAPE = ("[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
          "[initial]\nx1 = 1e150\nx2 = 1.5707963267948966\nu1 = 1e3\n\n"
          "[integrator]\nstep = 1e154\ntau_max = 4e154\n")


@pytest.mark.parametrize("rows", [1, 2])
def test_escape_to_where_the_metric_overflows_completes_without_a_warning(rows, tmp_path,
                                                                         capsys):
    # alone and as one batch of two rows
    paths = []
    for k in range(rows):
        paths.append(tmp_path / f"escape{k}.cfg")
        paths[-1].write_text(f"[scenario]\nname = escape{k}\n\n{ESCAPE}")
    out = tmp_path / "out"
    out.mkdir()
    target = out if rows > 1 else out / "escape0.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", *map(str, paths), "--format", "json", "--out", str(target)])
    assert (code, [str(w.message) for w in caught], capsys.readouterr().err) == (0, [], "")
    for k in range(rows):
        payload = json.loads((out / f"escape{k}.json").read_text())
        assert payload["status"] == "completed"
        assert payload["summary"]["n_samples"] == 5
        assert math.isnan(payload["summary"]["max_norm_residual"])


#: built-in, key line, replacement, checker: a huge coordinate overflows r^3
#: in the potential gradient or the metric's closed forms (each once let a
#: numpy RuntimeWarning reach stderr on a passing check)
HUGE_CHECKS = [
    ("coulomb", "radius = 10.0", "radius = 1e150", "mass-invariance"),
    ("coulomb", "radius = 10.0", "radius = 1e150", "closure"),
    ("weak-field-newtonian", "x1 = 1e4", "x1 = 1e150", "bianchi"),
    ("weak-field-newtonian", "x1 = 1e4", "x1 = -1e150", "bianchi"),
]


@pytest.mark.parametrize("name,line,replacement,checker", HUGE_CHECKS)
def test_checks_at_huge_coordinates_warn_nothing(name, line, replacement, checker,
                                                tmp_path, capsys):
    text = builtin_text(name)
    assert line in text
    command = ["check", "--checker", checker, "--tau-max", "0.05"]
    assert _outcome(text.replace(line, replacement), command, tmp_path, capsys) == (0, [], [])


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


def _child(*args):
    """`python *args` in a fresh child process."""
    import subprocess
    import sys

    # the child gets src/ on its path, as pytest's own import path has it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def _module_run(*args):
    """`python -m phasetransport run *args` in a child process."""
    return _child("-m", "phasetransport", "run", *args)


def test_module_entry_point():
    proc = _module_run("free")
    assert proc.returncode == 0
    assert proc.stdout.startswith(HEADER)


#: a child that runs commands and prints, after the import and after each
#: command, whether scipy has been imported
SCIPY_PROBE = """
import contextlib, io, sys
from phasetransport import cli
loaded = ["scipy" in sys.modules]
for argv in (["list-scenarios"], ["run", "cyclotron"], ["run", "coulomb"],
             ["check", "cyclotron", "--checker", "minimal-substitution"],
             ["run", "schwarzschild-precession"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_only_the_oracles_that_need_scipy_import_it():
    proc = _child("-c", SCIPY_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the precession oracle's splines are the first to need it
    assert proc.stdout == f"{[False] * 5 + [True]}\n"


def test_two_threads_first_importing_scipy_at_once_write_what_one_does(tmp_path):
    # two groups on the pool's threads, each reaching its oracle's first
    # scipy import in a fresh interpreter
    names = ("schwarzschild-precession", "weak-field-newtonian")
    out = {}
    for jobs in ("1", "2"):
        out[jobs] = tmp_path / f"jobs{jobs}"
        proc = _module_run(*names, "--out", str(out[jobs]), "--jobs", jobs)
        assert (proc.returncode, proc.stderr) == (0, "")
    files = sorted(os.listdir(out["1"]))
    assert files == sorted(os.listdir(out["2"])) == sorted(f"{name}.csv" for name in names)
    for name in files:
        assert (out["2"] / name).read_bytes() == (out["1"] / name).read_bytes()


def test_module_entry_point_keeps_stderr_empty_on_an_overflowing_escape(tmp_path):
    # the child's real stderr, with Python's own warning filters
    path = tmp_path / "escape.cfg"
    path.write_text(ESCAPE)
    proc = _module_run(str(path), "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["status"] == "completed"


# ---------------------------------------------------------------------------
# fuzzed exit-code contract: one or two keys of a built-in set to random literals


def _keyed_lines():
    """(built-in, line index, section, key, value) of every key = value line."""
    out = []
    for name in builtin_names():
        section = None
        for i, line in enumerate(builtin_text(name).splitlines()):
            text = line.split("#", 1)[0].strip()
            if text.startswith("["):
                section = text[1:-1]
            elif "=" in text:
                key, _, value = text.partition("=")
                out.append((name, i, section, key.strip(), value.strip()))
    return out


def _number(literal):
    try:
        return float(literal)
    except ValueError:
        return None


#: documented bounds of numeric keys; a value outside fails validation
OUT_OF_RANGE = {
    ("particle", "mass"): lambda v: not v > 0,
    ("metric", "mass"): lambda v: not v > 0,
    ("integrator", "step"): lambda v: not v > 0,
    ("integrator", "tau_max"): lambda v: not v > 0,
    ("integrator", "rtol"): lambda v: v < 0,
    ("integrator", "atol"): lambda v: v < 0,
}

LITERALS = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"]),
    st.floats(min_value=-1e300, max_value=-1e-300).map(repr),  # negative
    st.floats(min_value=1e200, max_value=1e308).map(repr),  # huge, either sign
    st.floats(min_value=-1e308, max_value=-1e200).map(repr),
    # garbage without digits (a small positive step could run for minutes)
    st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="#\n\r"),
            min_size=1, max_size=8),
)

KEYED_LINES = _keyed_lines()

#: one or two distinct lines of one built-in, each with its literal
EDITS = st.sampled_from(builtin_names()).flatmap(
    lambda name: st.lists(
        st.tuples(st.sampled_from([ln for ln in KEYED_LINES if ln[0] == name]), LITERALS),
        min_size=1, max_size=2, unique_by=lambda edit: edit[0][1],
    )
)


def _nan_summary_values(command, stdout):
    """The printed summary values of `command` that hold a NaN."""
    if command[0] == "run":
        summary = json.loads(stdout)["summary"] if stdout else {}
        values = [json.dumps(value) for value in summary.values()]
    else:  # check prints "  key = value" under its verdict line
        values = [line.partition(" = ")[2] for line in stdout.splitlines()[1:]]
    return [value for value in values if re.search(r"\bnan\b", value, re.IGNORECASE)]


@settings(max_examples=120, deadline=None)
@given(edits=EDITS, command=st.sampled_from([
    ["run", "--format", "json"],
    ["check", "--checker", "norm"],
    ["check", "--checker", "minimal-substitution"],
]))
def test_fuzzed_document_keeps_the_exit_code_contract(edits, command):
    lines = builtin_text(edits[0][0][0]).splitlines()
    for (_, index, _, key, _), literal in edits:
        lines[index] = f"{key} = {literal}"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        # an exception escaping main() is a traceback on the command line
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:], "--tau-max", "0.05"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, (edits, lines)
    assert all(line.startswith(("error:", "integration error:")) for line in lines), (edits, lines)
    assert _nan_summary_values(command, out.getvalue()) == [], (edits, out.getvalue())
    for (_, _, section, key, original), literal in edits:
        value = _number(literal)
        if value is not None and _number(original) is not None:
            bound = OUT_OF_RANGE.get((section, key))
            if not math.isfinite(value) or (bound is not None and bound(value)):
                assert code == 1, (edits, err.getvalue())
