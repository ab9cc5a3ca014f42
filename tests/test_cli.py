"""Command-line interface: exit codes, output files, overrides."""

import contextlib
import io
import json
import math
import os
import tempfile

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
]


@pytest.mark.parametrize("name,line,replacement", OUT_OF_DOMAIN)
def test_value_outside_a_closed_form_domain_is_invalid_input(name, line, replacement,
                                                             tmp_path, capsys):
    text = builtin_text(name)
    assert line in text
    path = tmp_path / f"{name}.cfg"
    path.write_text(text.replace(line, replacement))
    assert main(["run", str(path), "--tau-max", "2.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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


# ---------------------------------------------------------------------------
# fuzzed exit-code contract: one key of a built-in set to a random literal


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


@settings(max_examples=120, deadline=None)
@given(
    line=st.sampled_from(_keyed_lines()),
    literal=LITERALS,
    command=st.sampled_from([["run"], ["check", "--checker", "norm"]]),
)
def test_fuzzed_document_keeps_the_exit_code_contract(line, literal, command):
    name, index, section, key, original = line
    lines = builtin_text(name).splitlines()
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
    value = _number(literal)
    if value is not None and _number(original) is not None:
        bound = OUT_OF_RANGE.get((section, key))
        if not math.isfinite(value) or (bound is not None and bound(value)):
            assert code == 1, (literal, err.getvalue())
