"""phasetransport benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Load is closed loop with one caller: each pass starts when the
previous one and its checks have finished.

--trace 0 measures the end-to-end metrics: `setup_s` (median of several
fresh interpreters that import the package and generate the workload's
documents), `pass_s` (untraced pass at the baseline machine's speed:
for each unit of a pass, its total wall time over the run times the
baseline reference reading over the total of the readings taken right
before and after each of its runs; summed over the units), `peak_rss_mb`
and `worst_error_ratio`.  --trace 1 runs untraced passes for half the time
and traced passes for the other half and reports the per-layer metrics,
the tracing overhead among them.

Every pass is checked (see passes.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
lines before it are a readable summary.  A failed check makes `correct`
false; a run that cannot start exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (stdlib only at import)

#: Fresh interpreters timed for one `setup_s` value.
SETUP_SAMPLES = 5
#: Longest a run may take, set-up and passes together.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "worst_error_ratio": "1",
}


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.4g}, q3 {q3:.4g}] n={len(values)}"


def _worker(*args, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "phasetransport", "__init__.py")):
        return _fail(f"no phasetransport sources under {os.path.join(ROOT, 'src')}")

    started = perf_counter()
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            done = _worker("setup", args.workload, args.seed, timeout=60)
            setup.append(perf_counter() - t0)
            if done.returncode != 0:
                return _fail(f"set-up failed:\n{done.stderr}")

    try:
        done = _worker("passes", args.workload, args.seed, args.seconds, args.trace,
                       timeout=RUN_LIMIT_S - (perf_counter() - started))
    except subprocess.TimeoutExpired:
        return _fail("passes did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return _fail(f"passes failed (exit {done.returncode}):\n{done.stderr}")
    raw = json.loads(lines[-1])

    passes = raw["pass_s"]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, one caller, "
          f"{len(passes)} untraced passes")
    print(f"  failed_frac        {raw['failed'] / raw['attempted']:.4g}  "
          f"({raw['failed']} of {raw['attempted']} runs and checks)")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}")
    if args.trace:
        metrics = {k: (v, unit) for k, v, unit in raw["layers"]}
        _print_trace(raw)
    else:
        units = list(zip(*raw["units"]))
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": sum(raw["reference_nominal_s"] * sum(took for took, _ in unit)
                          / sum(reading for _, reading in unit) for unit in units),
            "peak_rss_mb": raw["peak_rss_mb"],
            "worst_error_ratio": raw["worst_error_ratio"],
        }
        notes = {"setup_s": f"median {_quartiles(setup)}",
                 "pass_s": f"baseline s over {len(units)} units; wall median "
                           f"{statistics.median(passes):.4g} s {_quartiles(passes)}",
                 "worst_error_ratio": f"worst of the run: {raw['worst_item']}"}
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
        for name, (value, unit) in metrics.items():
            print(f"  {name:18s} {value:<12.6g} {unit:3s} {notes.get(name, '')}")

    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


def _print_trace(raw) -> None:
    layers = {name: value for name, value, _ in raw["layers"]}
    print(f"  traced passes {len(raw['traced_pass_s'])}: pass_s {layers['trace.pass_s']:.4f} s "
          f"against {layers['trace.untraced_pass_s']:.4f} s untraced "
          f"(overhead {100 * layers['trace.overhead_frac']:.1f}%); layer self times "
          f"cover {100 * layers['trace.attributed_frac']:.1f}% of the traced pass")
    for name, value, unit in raw["layers"]:
        print(f"  {name:28s} {value:<14.6g} {unit}")
    print("  integrations of the first traced pass (caller, method, rhs, accepted, "
          "rejected, samples, status):")
    for caller, attrs in raw["integrations"]:
        print(f"    {caller or '-':14s} {attrs['method']:14s} {attrs['rhs']:>8d} {attrs['accepted']:>7d} "
              f"{attrs['rejected']:>5d} {attrs['samples']:>7d}  {attrs['status']}")


if __name__ == "__main__":
    sys.exit(main())
