"""Child process of the benchmark: one fresh interpreter per job.

    python3 perfbench/worker.py setup WORKLOAD SEED
        import phasetransport and generate the workload's documents; the
        parent times the whole process as one set-up sample.

    python3 perfbench/worker.py passes WORKLOAD SEED SECONDS TRACE
        run timed passes of the workload for SECONDS (closed loop, one
        caller), check every pass, and print one JSON line of raw results.
        With TRACE 1 the first half of the time runs untraced and the
        second half traced.

The package is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (sits beside this file)

#: Fewest timed passes per phase, however long a pass takes.
MIN_PASSES = 2
#: Problems quoted in the result; the count covers all of them.
MAX_QUOTED = 5
#: Reference samples taken at each boundary between the units of an
#: untraced pass; the boundary's reading is their mean.
REFERENCE_SAMPLES = 2
#: RK4 steps per thread in one reference sample (about 25 ms).
REFERENCE_STEPS = 600
#: Reference reading on the baseline machine, by thread count.  A unit's
#: time in baseline seconds is its wall time times this over the mean of
#: the readings just before and just after it.
REFERENCE_NOMINAL_S = {1: 0.025, 2: 0.055}


def _peak_rss_mb() -> float:
    """This process's peak resident set plus its largest child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _reference_sample(threads: int) -> float:
    """Seconds for `threads` threads each running a fixed RK4 loop over 4x4
    numpy algebra.

    It shares no code with the package, so a change to the package leaves
    it alone, while a slower or faster machine moves it as it moves the
    passes.  The speed of a shared machine swings by up to a factor of two
    within seconds, so readings are taken right before and right after
    each unit of a pass.  The interpreter work per step (a guard, two
    matrix products, a fresh state array) mirrors one RHS evaluation of
    the package; with as many threads as the workload, it also pays the
    same interpreter-lock hand-offs between cores.
    """
    import numpy as np

    field = np.array([[0.0, -0.1, 0.0, 0.0], [0.1, 0.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def rhs(y):
        if not math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2) >= 0.0:
            raise ArithmeticError("reference state left its domain")
        out = np.empty(8)
        out[:4] = y[4:]
        out[4:] = eta @ ((field @ y[4:]) * 0.5)
        return out

    def loop(_):
        y, h = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.1, 0.0, 0.0]), 1e-2
        for _ in range(REFERENCE_STEPS):
            k1 = rhs(y)
            k2 = rhs(y + (0.5 * h) * k1)
            k3 = rhs(y + (0.5 * h) * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    t0 = perf_counter()
    if threads == 1:
        loop(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(loop, range(threads)))
    return perf_counter() - t0


def _context(workload: str, seed: int, docs) -> dict:
    ctx = {"workload": workload, "docs": docs, "plan": workloads.CHECK_PLAN}
    if workload == "orbit-ensemble":
        work = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
        os.makedirs(os.path.join(work, "docs"))
        os.makedirs(os.path.join(work, "out"))
        files = []
        for name, text in docs:
            path = os.path.join(work, "docs", f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files.append(path)
        ctx.update(work=work, files=files, out_dir=os.path.join(work, "out"))
    return ctx


def _reading(threads: int) -> float:
    return statistics.fmean(_reference_sample(threads) for _ in range(REFERENCE_SAMPLES))


def _untraced_pass(units, threads: int) -> tuple:
    """(results, wall seconds, [wall seconds, bracketing reading] per unit)."""
    results, wall, timed = [], 0.0, []
    before = _reading(threads)
    for unit in units:
        t0 = perf_counter()
        results += unit()
        took = perf_counter() - t0
        after = _reading(threads)
        wall += took
        timed.append([took, (before + after) / 2])
        before = after
    return results, wall, timed


def _passes(make_units, check, docs, ctx, budget, tracer=None):
    """Timed passes while the next one, with its checks, still ends within
    `budget` seconds; at least MIN_PASSES.

    Returns the wall time of each pass, the wall time and bracketing
    reading of each unit of each untraced pass, the check items and the
    per-layer metrics of each traced pass."""
    import passes

    times, timed, items, layers, cycles = [], [], [], [], []
    threads = workloads.threads(ctx["workload"])
    start = perf_counter()
    while len(times) < MIN_PASSES or (
        perf_counter() - start + statistics.median(cycles) <= budget
    ):
        cycle_start = perf_counter()
        units = make_units(docs, ctx)
        if tracer is None:
            results, wall, timed_units = _untraced_pass(units, threads)
            timed.append(timed_units)
        else:
            tracer.pass_id = len(times)
            root = tracer.begin("pass")
            t0 = perf_counter()
            results = passes.run_pass(units)
            wall = perf_counter() - t0
            tracer.end(root)
            layers.append(tracer.layer_metrics(tracer.pass_id))
        times.append(wall)
        items += check(results, ctx)
        del results
        cycles.append(perf_counter() - cycle_start)
    return times, timed, items, layers


def cmd_setup(workload: str, seed: int) -> int:
    import phasetransport  # noqa: F401  (numpy and scipy come with it)

    workloads.generate(workload, seed)
    return 0


def cmd_passes(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import passes

    docs = workloads.generate(workload, seed)
    make_units, check = passes.PASSES[workload]
    ctx = _context(workload, seed, docs)
    try:
        budget = seconds / 2 if trace else seconds
        times, timed, items, _ = _passes(make_units, check, docs, ctx, budget)
        result = {"pass_s": times, "units": timed,
                  "reference_nominal_s": REFERENCE_NOMINAL_S[workloads.threads(workload)]}
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_times, _, traced_items, layers = _passes(
                    make_units, check, docs, ctx, budget, tracer)
            finally:
                tracer.uninstall()
            items += traced_items
            metrics = tracing.median_metrics(layers)
            metrics["trace.untraced_pass_s"] = statistics.median(times)
            metrics["trace.overhead_frac"] = metrics["trace.pass_s"] / statistics.median(times) - 1
            if workload == "orbit-ensemble":
                metrics["cli.files_written"] = len(os.listdir(ctx["out_dir"]))
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl"))
            layers_out = [[k, metrics[k], unit] for k, unit in tracing.LAYER_UNITS.items()]
            result.update(traced_pass_s=traced_times, layers=layers_out,
                          integrations=tracer.integrations(0))
    finally:
        if "work" in ctx:
            shutil.rmtree(ctx["work"], ignore_errors=True)

    failed = [item for item in items if item.problems]
    measured = [item for item in items if item.ratio is not None]
    worst = max(measured, key=lambda item: item.ratio) if measured else passes.Item("-", 0.0, [])
    result.update(
        attempted=len(items),
        failed=len(failed),
        problems=[f"{item.label}: {'; '.join(item.problems)}" for item in failed[:MAX_QUOTED]],
        worst_error_ratio=worst.ratio,
        worst_item=worst.label,
        peak_rss_mb=_peak_rss_mb(),
    )
    print(json.dumps(result))
    return 0


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        return cmd_setup(argv[1], int(argv[2]))
    if argv[:1] == ["passes"] and len(argv) == 5:
        return cmd_passes(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
