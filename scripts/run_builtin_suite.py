#!/usr/bin/env python3
"""Run every built-in scenario and tabulate oracle errors.

Usage:
    python3 scripts/run_builtin_suite.py [--checkers] [--out DIR]

With --checkers, also runs each property checker that is compatible with
the scenario (slower; the dual-route comparisons re-integrate everything).
With --out, the full JSON report of every run is written to DIR.
Each scenario's row ends with the first 12 hex digits of the sha256 of
its CSV output, and each checker's row with those of its JSON report
without the samples; both then give those of the report's summary alone.
Each scenario's wall time goes to stderr, so stdout holds no timing:
diffing it across two checkouts shows whether their CSV bytes and
numbers are identical, and a full-report digest that moved while the
summary digest did not says that only the parameter echo moved.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import time

# the package sits in src/ of a plain checkout
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from phasetransport.errors import IncompatibleChecker
from phasetransport.report import CHECKERS, check, emit, run
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin


def short_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def summary_sha256(report) -> str:
    return short_sha256(json.dumps(report.summary))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkers", action="store_true",
                    help="also run every compatible property checker")
    ap.add_argument("--out", type=pathlib.Path,
                    help="directory for per-scenario JSON reports")
    args = ap.parse_args()

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    print(f"{'scenario':28s} {'samples':>8s} {'tau':>10s} "
          f"{'max |g u.u + 1|':>16s}  oracle errors  csv-sha256 summary-sha256")
    for name in BUILTIN_NAMES:
        t0 = time.perf_counter()
        rep = run(load_builtin(name))
        dt = time.perf_counter() - t0
        digest = short_sha256(emit(rep, "csv"))
        s = rep.summary
        oracle_bits = ", ".join(
            f"{k.removeprefix('oracle_')}={v:.2e}"
            for k, v in sorted(s.items())
            if k.startswith("oracle_") or k in ("precession_exact_error",)
        ) or "-"
        print(f"{name:28s} {s['n_samples']:8d} {s['tau_final']:10.2f} "
              f"{s['max_norm_residual']:16.3e}  {oracle_bits}  {digest} {summary_sha256(rep)}")
        print(f"{name:28s} [{dt:.2f}s]", file=sys.stderr)
        if args.out:
            emit(rep, "json", args.out / f"{name}.json")

    if not args.checkers:
        return 0

    print()
    print(f"{'scenario':28s} {'checker':22s} verdict json-sha256  summary-sha256")
    failures = 0
    for name in BUILTIN_NAMES:
        for checker in CHECKERS:
            try:
                rep = check(load_builtin(name), checker)
            except IncompatibleChecker:
                continue
            verdict = "PASS" if rep.summary["passed"] else "FAIL"
            failures += rep.status != "passed"
            digest = short_sha256(emit(dataclasses.replace(rep, samples=None), "json"))
            print(f"{name:28s} {checker:22s} {verdict:7s} {digest} {summary_sha256(rep)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
