"""Outside-in tracing: spans and counters around the package's public callables.

Nothing inside the package changes.  `Tracer.install` rebinds public
callables on the module each caller resolves them through, and wraps the
callables a `NonLinearConnection`, `MetricField`, `DomainGuard` and
`VectorPotential` carry (with `dataclasses.replace`) at each `integrate`
call.  Coarse calls (load, connection build, integrate, run, check, emit,
oracles, identity residuals, `cli.main`) become span records; the hot
per-RHS callables (guard probe, K0, K1, metric, potential) are too many
to record one by one, so each is counted and timed into its enclosing
integrate span.

Counts the package does not expose are derived from outside:

* RHS evaluations = guard probe calls - samples (each RHS probes once;
  the start check and each accepted step's landing check probe once per
  sample);
* rejected RK45 steps = RHS evaluations / 7 - accepted steps;
* step sizes from the differences of the sample proper times.

A span's self time is its duration minus the part of it that child spans
cover and minus its counted hot calls; the layers' self times add up to
the traced pass time when the pass runs on one thread.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
from time import perf_counter

from phasetransport import cli, oracles, report, scenarios

#: Hot callables counted inside an integrate span: slot -> layer metric stem.
LEAF_LAYERS = {
    "guard": "tensor.guard",
    "guard_aux": "tensor.guard",
    "k0": "connection.k0",
    "k1": "curvature.k1",
    "matrix": "metrics.matrix",
    "inverse": "metrics.inverse",
    "deriv": "metrics.deriv",
    "potential": "fields.potential",
    "potential_grad": "fields.potential_grad",
}

#: Coarse span name -> layer metric that receives its self time.
SELF_LAYERS = {
    "pass": "bench.self_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
    "scenarios.load": "scenarios.load_s",
    "connection.build": "connection.build_s",
    "transport.integrate": "transport.self_s",
    "curvature.identity": "curvature.identity_s",
    "report.run": "report.oracle_s",
    "report.check": "report.check_s",
    "report.emit.csv": "report.emit_csv_s",
    "report.emit.json": "report.emit_json_s",
    "cli.main": "cli.self_s",
}

#: Per-layer metrics and units, in report order.
LAYER_UNITS = {
    "scenarios.load_s": "s", "scenarios.loads": "count",
    "connection.build_s": "s", "connection.k0_s": "s", "connection.k0_calls": "count",
    "connection.k0_us": "us",
    "curvature.k1_s": "s", "curvature.k1_calls": "count", "curvature.k1_us": "us",
    "curvature.identity_s": "s",
    "fields.potential_s": "s", "fields.potential_calls": "count",
    "fields.potential_grad_s": "s", "fields.potential_grad_calls": "count",
    "metrics.matrix_s": "s", "metrics.matrix_calls": "count",
    "metrics.inverse_s": "s", "metrics.inverse_calls": "count",
    "metrics.deriv_s": "s", "metrics.deriv_calls": "count",
    "tensor.guard_s": "s", "tensor.guard_calls": "count",
    "transport.integrate_s": "s", "transport.self_s": "s", "transport.rhs_evals": "count",
    "transport.steps_accepted": "count", "transport.steps_rejected": "count",
    "transport.accept_ratio": "1", "transport.us_per_rhs": "us",
    "transport.h_min": "tau", "transport.h_max": "tau", "transport.samples": "count",
    "oracles.s": "s",
    "report.oracle_s": "s", "report.check_s": "s", "report.emit_csv_s": "s",
    "report.emit_json_s": "s", "report.emit_bytes": "B", "report.emit_mb_per_s": "MB/s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.files_written": "count",
    "bench.self_s": "s", "trace.bookkeeping_s": "s",
    "trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_frac": "1",
    "trace.attributed_frac": "1",
}


class Span:
    __slots__ = ("id", "name", "parent", "pass_id", "thread", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, pass_id, thread, start):
        self.id, self.name, self.parent = span_id, name, parent
        self.pass_id, self.thread, self.start = pass_id, thread, start
        self.end = None
        self.attrs = {}

    def record(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _leaf(fn, slot):
    """Count and time every call of a hot callable into `slot` = [calls, s]."""

    def counted(*args):
        t0 = perf_counter()
        out = fn(*args)
        slot[1] += perf_counter() - t0
        slot[0] += 1
        return out

    return counted


def _replace_known(obj, **changes):
    """dataclasses.replace with only the fields `obj` has and that are set."""
    names = {f.name for f in dataclasses.fields(obj) if f.init}
    kept = {k: v for k, v in changes.items() if k in names and getattr(obj, k) is not None}
    return dataclasses.replace(obj, **kept) if kept else obj


def _wrap_fields(obj, slots, leaves):
    """Copy of `obj` whose callable fields named in `slots` count into `leaves`."""
    names = {f.name for f in dataclasses.fields(obj) if f.init}
    changes = {
        field: _leaf(getattr(obj, field), leaves[slot])
        for field, slot in slots.items()
        if field in names and getattr(obj, field) is not None
    }
    return dataclasses.replace(obj, **changes) if changes else obj


def _counted_metric(g, leaves):
    return _wrap_fields(g, {"matrix_fn": "matrix", "inverse_fn": "inverse", "deriv_fn": "deriv"},
                        leaves)


def _instrument_integrate(leaves, c, particle, initial, cfg):
    """`integrate(c, ...)`: the connection's blocks, guard and metric."""
    c = _wrap_fields(c, {"order0_raw": "k0", "order1_raw": "k1", "order1_contra_raw": "k1"},
                     leaves)
    c = _replace_known(c, guard=_wrap_fields(c.guard, {"probe": "guard"}, leaves),
                       metric=_counted_metric(c.metric, leaves))
    return c, particle, initial, cfg


def _instrument_canonical(leaves, a, g, particle, initial, cfg):
    """`minimal_substitution_trajectory(a, g, ...)`: potential, metric, guards.
    Only the metric's guard counts toward RHS evaluations; both probe per RHS."""
    a = _wrap_fields(a, {"values_fn": "potential", "deriv_fn": "potential_grad"}, leaves)
    a = _replace_known(a, guard=_wrap_fields(a.guard, {"probe": "guard_aux"}, leaves))
    g = _counted_metric(g, leaves)
    g = _replace_known(g, guard=_wrap_fields(g.guard, {"probe": "guard"}, leaves))
    return a, g, particle, initial, cfg


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.main_thread()
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's outermost span belongs to whatever the main
        # thread has open (cli.main's thread pool)
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1].id if parent_stack else None
        span = Span(next(self._ids), name, parent, self.pass_id, threading.get_ident(),
                    perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _spanned(self, name, fn, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name_of(args, kwargs) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if name_of is not None and isinstance(out, str):
                span.attrs["bytes"] = len(out)
            return out

        return traced

    # -- integration wrappers ----------------------------------------------

    def _finish_integration(self, span, traj, leaves, method):
        book = self.begin("trace.bookkeeping")
        taus = [s.state.tau for s in traj]
        steps = [b - a for a, b in zip(taus, taus[1:])]
        samples = len(traj)
        rhs = leaves["guard"][0] - samples
        accepted = samples - 1
        rejected = round(rhs / 7) - accepted if method == "rk45-adaptive" else 0
        span.attrs.update(
            leaves={k: list(v) for k, v in leaves.items()},
            samples=samples, rhs=rhs, accepted=accepted, rejected=rejected,
            h_min=min(steps) if steps else None, h_max=max(steps) if steps else None,
            status=traj.status, method=method,
        )
        self.end(book)

    def _integration(self, original, instrument):
        """Wrap an integration entry point whose last argument is the config;
        `instrument(leaves, *args)` returns the arguments with counted callables."""
        tracer = self

        @functools.wraps(original)
        def traced(*args):
            leaves = {slot: [0, 0.0] for slot in LEAF_LAYERS}
            args = instrument(leaves, *args)
            span = tracer.begin("transport.integrate")
            try:
                traj = original(*args)
            finally:
                tracer.end(span)
            tracer._finish_integration(span, traj, leaves, args[-1].method)
            return traj

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Rebind the public callables; `uninstall` restores them."""

        def emit_name(args, kwargs):
            fmt = kwargs.get("format", args[1] if len(args) > 1 else "csv")
            return f"report.emit.{fmt}"

        spanned = self._spanned
        self._patch(scenarios, "load_scenario", lambda f: spanned("scenarios.load", f))
        self._patch(scenarios.Scenario, "connection", lambda f: spanned("connection.build", f))
        self._patch(report, "integrate",
                    lambda f: self._integration(f, _instrument_integrate))
        self._patch(report, "minimal_substitution_trajectory",
                    lambda f: self._integration(f, _instrument_canonical))
        for name in ("bianchi_residual", "closure_residual"):
            self._patch(report, name, lambda f: spanned("curvature.identity", f))
        for name in getattr(oracles, "__all__", ()):
            self._patch(oracles, name, lambda f, n=name: spanned(f"oracles.{n}", f))
        traced = {}
        for module in (report, cli):
            for name, span_name, name_of in (("run", "report.run", None),
                                             ("check", "report.check", None),
                                             ("emit", "report.emit", emit_name)):
                def make(f, s=span_name, n=name_of):
                    # one wrapper per function object, however many modules bind it
                    if f not in traced:
                        traced[f] = spanned(s, f, n)
                    return traced[f]
                self._patch(module, name, make)
        self._patch(cli, "main", lambda f: spanned("cli.main", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")

    def layer_metrics(self, pass_id) -> dict:
        """Per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        children: dict = {}
        for s in spans:
            children.setdefault(s.parent, []).append((s.start, s.end))
        out = {name: 0.0 for name in LAYER_UNITS}
        h_min, h_max = [], []
        for s in spans:
            leaves = s.attrs.get("leaves", {})
            leaf_s = sum(v[1] for v in leaves.values())
            self_s = s.end - s.start - _covered(s, children.get(s.id, ())) - leaf_s
            layer = SELF_LAYERS.get(s.name)
            if s.name.startswith("oracles."):
                layer = "oracles.s"
            if layer:
                out[layer] += self_s
            if s.name == "pass":
                out["trace.pass_s"] += s.end - s.start
            elif s.name == "scenarios.load":
                out["scenarios.loads"] += 1
            elif s.name.startswith("report.emit."):
                out["report.emit_bytes"] += s.attrs.get("bytes", 0)
            elif s.name == "cli.main":
                out["cli.main_s"] += s.end - s.start
            elif s.name == "transport.integrate":
                out["transport.integrate_s"] += s.end - s.start
                for slot, (calls, secs) in leaves.items():
                    stem = LEAF_LAYERS[slot]
                    out[f"{stem}_s"] += secs
                    out[f"{stem}_calls"] += calls
                out["transport.rhs_evals"] += s.attrs["rhs"]
                out["transport.steps_accepted"] += s.attrs["accepted"]
                out["transport.steps_rejected"] += s.attrs["rejected"]
                out["transport.samples"] += s.attrs["samples"]
                if s.attrs["h_min"] is not None:
                    h_min.append(s.attrs["h_min"])
                    h_max.append(s.attrs["h_max"])
        trials = out["transport.steps_accepted"] + out["transport.steps_rejected"]
        out["transport.accept_ratio"] = out["transport.steps_accepted"] / trials if trials else 0.0
        out["transport.us_per_rhs"] = _per_call_us(out["transport.integrate_s"],
                                                   out["transport.rhs_evals"])
        out["transport.h_min"] = min(h_min, default=0.0)
        out["transport.h_max"] = max(h_max, default=0.0)
        out["connection.k0_us"] = _per_call_us(out["connection.k0_s"], out["connection.k0_calls"])
        out["curvature.k1_us"] = _per_call_us(out["curvature.k1_s"], out["curvature.k1_calls"])
        emit_s = out["report.emit_csv_s"] + out["report.emit_json_s"]
        out["report.emit_mb_per_s"] = out["report.emit_bytes"] / emit_s / 1e6 if emit_s else 0.0
        parts = set(SELF_LAYERS.values()) | {"oracles.s"}
        parts |= {f"{stem}_s" for stem in LEAF_LAYERS.values()}
        attributed = sum(out[k] for k in parts)
        out["trace.attributed_frac"] = attributed / out["trace.pass_s"]
        return out

    def integrations(self, pass_id) -> list:
        """(caller span name, integrate attrs) for one pass, in call order."""
        by_id = {s.id: s for s in self.spans if s.pass_id == pass_id}
        return [
            (by_id[s.parent].name if s.parent in by_id else None, s.attrs)
            for s in sorted(by_id.values(), key=lambda s: s.start)
            if s.name == "transport.integrate"
        ]


def _per_call_us(seconds: float, calls: float) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def _covered(span: Span, intervals) -> float:
    """Length of the union of child intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
