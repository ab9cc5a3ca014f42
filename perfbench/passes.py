"""One pass of each workload, and the checks on what a pass produced.

A pass calls only the public API (`load_scenario`, `run`, `check`,
`emit`, `cli.main`), always through the module attribute, so that the
tracer's wrappers see every call.  A pass is a list of units, run in
order, each a call that returns a list of results; the benchmark times
each unit on its own.  Checks run after the pass, outside its timing;
each scenario run or check is one item, and an item fails if the
program reported a failure, if any error exceeds the bound the test
suite pins for it, or if its output breaks a promise of `report.py`
(bit-exact CSV, byte-identical repeat emission).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
from typing import Optional

import workloads
from phasetransport import cli, report, scenarios

#: Bounds pinned by the test suite for the oracle errors in a run summary.
RUN_BOUNDS = {
    "oracle_radius_error": 1e-6,
    "oracle_period_error": 1e-6,
    "oracle_drift_error": 1e-4,
    "oracle_rate_error": 1e-6,
    "oracle_radius_drift": 1e-9,
    "oracle_force_error": 2e-4,
    "oracle_linearity_error": 1e-14,
    "precession_exact_error": 1e-5,
    "max_norm_residual": 1e-8,
}
# `precession_error` (first-order formula) is the documented expected
# failure: reported in summaries, never gated.

# report.py's convergence band for the identity checkers: a ratio r
# counts as error |r - 4| against the half-width 0.6
_BAND_CENTER, _BAND_HALF_WIDTH = 4.0, 0.6


@dataclasses.dataclass
class Item:
    """One scenario run or check of a pass, with its verdict."""

    label: str
    ratio: Optional[float]  # worst error over its bound; None if unmeasured
    problems: list


def _run_ratio(summary: dict) -> tuple[float, list]:
    worst, problems = 0.0, []
    for key, bound in RUN_BOUNDS.items():
        if key in summary:
            ratio = abs(summary[key]) / bound
            worst = max(worst, ratio)
            if not ratio <= 1.0:
                problems.append(f"{key} = {summary[key]:.3e} over {bound:g}")
    return worst, problems


def _check_ratio(summary: dict) -> float:
    checker = summary["checker"]
    if checker == "minimal-substitution":
        return max(summary["endpoint_position_separation"],
                   summary["endpoint_velocity_separation"]) / summary["bound"]
    if checker == "mass-invariance":
        if summary["mode"] == "trajectory":
            return summary["max_pointwise_deviation"] / summary["bound"]
        return max(summary["inverse_mass_deviation"], summary["charge_linearity_deviation"],
                   summary["geometric_term_deviation"]) / summary["bound"]
    if "ratio" in summary:  # bianchi or closure above its floor
        return abs(summary["ratio"] - _BAND_CENTER) / _BAND_HALF_WIDTH
    floor = summary.get("flat_floor", summary.get("bound"))
    return summary["residual"] / floor


def _csv_problems(rep, text: str) -> list:
    """CSV must parse back bit-exactly to the in-memory samples."""
    lines = text.split("\n")
    if lines[0] != ",".join(report.CSV_COLUMNS) or lines[-1] != "":
        return ["CSV header or final newline malformed"]
    if len(lines) - 2 != len(rep.samples):
        return [f"CSV has {len(lines) - 2} rows for {len(rep.samples)} samples"]
    for line, s in zip(lines[1:], rep.samples):
        expected = (s.state.tau, *s.state.x.coords.tolist(), *s.state.u.components.tolist(),
                    s.norm_residual)
        # equal finite floats are equal bits, up to the sign of zero
        if tuple(map(float, line.split(","))) != expected:
            return [f"CSV row at tau={s.state.tau!r} does not parse back bit-exactly"]
    return []


def _same_as_first(ctx, key: str, data) -> bool:
    """Identical inputs must give identical bytes, pass after pass."""
    digest = hashlib.sha256(data.encode() if isinstance(data, str) else data).digest()
    return ctx.setdefault("digests", {}).setdefault(key, digest) == digest


# ---------------------------------------------------------------------------
# lorentz-flat and geodesic-curved: load -> run -> emit(csv)


def _api_unit(name: str, text: str) -> list:
    scn = scenarios.load_scenario(text, name=name)
    rep = report.run(scn)
    return [(name, rep, report.emit(rep, "csv"))]


def api_units(docs, ctx) -> list:
    """One unit per document."""
    return [functools.partial(_api_unit, name, text) for name, text in docs]


def check_api_pass(results, ctx) -> list:
    items = []
    for name, rep, text in results:
        ratio, problems = _run_ratio(rep.summary)
        if rep.status != "completed":
            problems.append(f"status {rep.status}")
        problems += _csv_problems(rep, text)
        if report.emit(rep, "csv") != text or not _same_as_first(ctx, name, text):
            problems.append("repeat emission differs")
        items.append(Item(name, ratio, problems))
    return items


# ---------------------------------------------------------------------------
# orbit-ensemble: one in-process CLI invocation over files


def _cli_unit(ctx) -> list:
    out_dir = ctx["out_dir"]
    for entry in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, entry))
    argv = ["run", *ctx["files"], "--out", out_dir, "--format", "json",
            "--jobs", str(workloads.ENSEMBLE_JOBS)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    return [(code, printed.getvalue())]


def cli_units(docs, ctx) -> list:
    """The whole pass is one unit: a single CLI invocation."""
    return [functools.partial(_cli_unit, ctx)]


def check_cli_pass(results, ctx) -> list:
    [(code, printed)] = results
    listed = set(printed.split())
    items = []
    for name, _ in ctx["docs"]:
        path = os.path.join(ctx["out_dir"], f"{name}.json")
        problems = [] if code == 0 else [f"exit code {code}"]
        if path not in listed:
            problems.append("path not printed")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            payload = json.loads(raw)
        except (OSError, ValueError) as err:
            items.append(Item(name, None, problems + [f"output unreadable: {err}"]))
            continue
        ratio, bad = _run_ratio(payload["summary"])
        problems += bad
        if payload["status"] != "completed":
            problems.append(f"status {payload['status']}")
        if len(payload["rows"]) != payload["summary"]["n_samples"]:
            problems.append("row count differs from n_samples")
        if not _same_as_first(ctx, name, raw):
            problems.append("output bytes differ from the first pass")
        items.append(Item(name, ratio, problems))
    return items


# ---------------------------------------------------------------------------
# checkers: report.check over the acceptance set


def _checker_unit(texts: dict, checker: str, names: list) -> list:
    out = []
    for name in names:
        scn = scenarios.load_scenario(texts[name], name=name)
        out.append((f"{checker}:{name}", report.check(scn, checker)))
    return out


def checker_units(docs, ctx) -> list:
    """One unit per checker, over its documents in plan order."""
    texts, names = dict(docs), {}
    for name, checker in ctx["plan"]:
        names.setdefault(checker, []).append(name)
    return [functools.partial(_checker_unit, texts, checker, group)
            for checker, group in names.items()]


def check_checkers_pass(results, ctx) -> list:
    items = []
    for label, rep in results:
        ratio = _check_ratio(rep.summary)
        problems = []
        if not rep.summary["passed"]:
            problems.append("verdict FAIL")
        if not ratio <= 1.0:
            problems.append(f"error ratio {ratio:.3g} over 1")
        text = report.emit(dataclasses.replace(rep, samples=None), "json")
        if not _same_as_first(ctx, label, text):
            problems.append("report bytes differ from the first pass")
        items.append(Item(label, ratio, problems))
    return items


PASSES = {
    "lorentz-flat": (api_units, check_api_pass),
    "geodesic-curved": (api_units, check_api_pass),
    "orbit-ensemble": (cli_units, check_cli_pass),
    "checkers": (checker_units, check_checkers_pass),
}


def run_pass(units) -> list:
    """Results of one pass, unit after unit."""
    return [result for unit in units for result in unit()]
