"""Self-test of the benchmark (not of the package).

    python3 perfbench/selftest.py

Asserts that:

1. the same seed gives byte-identical documents, for every workload;
2. seed 0 of `lorentz-flat` and `geodesic-curved` is the built-in documents;
3. generated parameters stay inside their bands, and a rescaled built-in
   keeps the built-in's number of steps;
4. on the built-in documents the outside-in counters reproduce the
   baseline RHS and step counts recorded in ROADMAP.md;
5. every deterministic counter repeats exactly across two traced runs,
   and every run and check of those runs passes.

Prints one line per assertion and exits 0 when all hold.
"""

from __future__ import annotations

import math
import shutil
import sys

import worker  # puts src/ on the path  # noqa: I001
import passes
import tracing
import workloads
from phasetransport.oracles import radial_period_proper
from phasetransport.scenarios import builtin_text, load_scenario

#: Baseline RHS evaluations per built-in (ROADMAP.md, measured in-program).
BASELINE_RHS = {
    "cyclotron": 25_136,
    "exb-drift": 25_260,
    "coulomb": 77_516,
    "schwarzschild-circular": 13_300,
    "schwarzschild-precession": 12_145,
    "weak-field-newtonian": 4_000,
    "combined-schwarzschild-B": 13_280,
}
BASELINE_PRECESSION_STEPS = (1_670, 65)  # accepted, rejected
SEEDS = (0, 1, 2, 17)

def within(value: float, band) -> bool:
    return band[0] <= value <= band[1]


def traced_pass(workload: str, seed: int):
    """One traced pass: (per-layer metrics, integrations in call order, items)."""
    docs = workloads.generate(workload, seed)
    make_units, check = passes.PASSES[workload]
    ctx = worker._context(workload, seed, docs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        root = tracer.begin("pass")
        result = passes.run_pass(make_units(docs, ctx))
        tracer.end(root)
    finally:
        tracer.uninstall()
    try:
        items = check(result, ctx)
    finally:
        shutil.rmtree(ctx.get("work", ""), ignore_errors=True)
    return tracer.layer_metrics(0), [attrs for _, attrs in tracer.integrations(0)], items


def deterministic(metrics: dict) -> dict:
    keys = [k for k, unit in tracing.LAYER_UNITS.items() if unit in ("count", "B", "tau")]
    return {k: metrics[k] for k in keys + ["transport.accept_ratio"]}


def check_generation():
    for workload in workloads.WORKLOADS:
        same = all(workloads.generate(workload, s) == workloads.generate(workload, s)
                   for s in SEEDS)
        yield (same, f"{workload}: same seed gives byte-identical documents")
        distinct = len({tuple(workloads.generate(workload, s)) for s in SEEDS}) == len(SEEDS)
        yield (distinct, f"{workload}: seeds {SEEDS} give distinct documents")
    for workload in ("lorentz-flat", "geodesic-curved"):
        docs = workloads.generate(workload, 0)
        yield (all(text == builtin_text(name) for name, text in docs),
                f"{workload}: seed 0 is the built-in documents")


def check_bands():
    for workload, scale_band, share in (
        ("lorentz-flat", workloads.SCALE_BAND, 1.0),
        ("geodesic-curved", workloads.SCALE_BAND, 1.0),
        ("checkers", (1.0, 1.0), workloads.CHECKERS_TAU_SHARE),
    ):
        ok = True
        for seed in SEEDS[1:]:
            for name, text in workloads.generate(workload, seed):
                cfg, ref = load_scenario(text).config, load_scenario(builtin_text(name)).config
                scale = cfg.tau_max / (ref.tau_max * share)
                ok &= within(scale, (scale_band[0] * (1 - 1e-12), scale_band[1] * (1 + 1e-12)))
                ok &= cfg.method == ref.method
                ok &= math.isclose(cfg.tau_max / cfg.step, share * ref.tau_max / ref.step,
                                   rel_tol=1e-12)
        yield (ok, f"{workload}: scale inside its band, steps per horizon as built-in")

    ok = True
    for seed in SEEDS:
        for name, text in workloads.generate("orbit-ensemble", seed):
            scn = load_scenario(text, name=name)
            init, cfg = scn.parameters["initial"], scn.config
            if name.startswith("orbit-"):
                r_peri, r_apo = init["r_peri"], init["r_apo"]
                ecc = (r_apo - r_peri) / (r_apo + r_peri)
                periods = cfg.tau_max / radial_period_proper(1.0, r_peri, r_apo)
                ok &= within(r_peri, workloads.R_PERI_BAND)
                ok &= within(ecc, (workloads.ECCENTRICITY_BAND[0] - 1e-12,
                                   workloads.ECCENTRICITY_BAND[1] + 1e-12))
                ok &= math.isclose(periods, workloads.RADIAL_PERIODS, rel_tol=1e-12)
                ok &= cfg.method == "rk45-adaptive" and cfg.rtol == 1e-10
            else:
                b = scn.parameters["em"]["b"][2]
                ok &= within(b, workloads.B_BAND)
                ok &= within(init["u"][1], workloads.U_PERP_BAND)
                ok &= cfg.method == "rk4-fixed" and cfg.step == workloads.ENSEMBLE_RK4_STEP
                ok &= math.isclose(cfg.tau_max * b, 2.0 * math.pi, rel_tol=1e-12)
    yield (ok, "orbit-ensemble: r_peri, e, B and u_perp inside their bands")


def check_counters():
    for workload, names in (("lorentz-flat", workloads.LORENTZ_FLAT),
                            ("geodesic-curved", workloads.GEODESIC_CURVED)):
        _, integrations, _ = traced_pass(workload, 0)
        got = {name: attrs["rhs"] for name, attrs in zip(names, integrations)}
        yield (got == {name: BASELINE_RHS[name] for name in names},
                f"{workload} seed 0: RHS evaluations match the baseline {got}")
        if workload == "geodesic-curved":
            attrs = integrations[names.index("schwarzschild-precession")]
            steps = (attrs["accepted"], attrs["rejected"])
            yield (steps == BASELINE_PRECESSION_STEPS,
                    f"schwarzschild-precession: accepted, rejected steps {steps}")


def check_repeat():
    for workload in workloads.WORKLOADS:
        first, _, items_a = traced_pass(workload, 1)
        second, _, items_b = traced_pass(workload, 1)
        same = deterministic(first) == deterministic(second)
        yield (same, f"{workload} seed 1: deterministic counters repeat exactly")
        bad = [f"{i.label}: {i.problems}" for i in items_a + items_b if i.problems]
        yield (not bad, f"{workload} seed 1: every run and check passes {bad[:3]}")


def main() -> int:
    failures = 0
    for check in (check_generation, check_bands, check_counters, check_repeat):
        for ok, what in check():
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
