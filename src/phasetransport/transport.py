"""Worldline integration under a momentum-affine connection.

The integrated state is (x^m, u^m) with the four-velocity contravariant.
The transport law supplies the covariant rate, raised with the local
metric.  ``_make_rhs`` compiles the law once per connection: which
blocks it has and how each term is raised are decided there, so the
right-hand side does per-point work only, and on the flat chart it
evaluates no inverse metric.  For metric-built connections the raised
order-1 block is available directly, so the gravitational term is the
standard contravariant geodesic form with no lower/raise round trip (the
equivalence of the covariant and contravariant formulations is exercised
by the canonical-momentum integrator below, which evolves covariant
momenta and must land on the same worldline).

Two steppers are provided: a fixed-step classical RK4 and an embedded
adaptive pair with absolute plus relative error control.  Step sizes are
clamped to [1e-8, tau_max / 10]; a tolerance that cannot be met at the
minimum step raises ``StepRejected``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .connection import NonLinearConnection, Particle, gravitational_connection
from .errors import NonMonotoneTime, OutsideDomain, StepRejected
from .fields import VectorPotential
from .tensor import (
    DIM,
    FD_STEP_FIRST,
    MINKOWSKI,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    Variance,
)

#: Hard lower bound on adaptive step size.
H_MIN = 1e-8
#: Fraction of tau_max used as the upper step clamp.
H_MAX_FRACTION = 0.1

_METHODS = ("rk4-fixed", "rk45-adaptive")


def _sample_trusted(
    tau: float, coords: np.ndarray, u: np.ndarray, residual: float, diagnostics: dict
) -> TrajectorySample:
    """Build a sample without re-running constructor validation.

    The integration loop guarantees finiteness (a non-finite state fails
    the finiteness gate in the sampler) and future-direction, so the
    typed wrappers are assembled directly; arrays are fresh copies already.
    """
    x = object.__new__(SpacetimeEvent)
    object.__setattr__(x, "coords", coords)
    v = object.__new__(FourVector)
    object.__setattr__(v, "components", u)
    object.__setattr__(v, "variance", Variance.UP)
    state = object.__new__(PhaseState)
    object.__setattr__(state, "tau", tau)
    object.__setattr__(state, "x", x)
    object.__setattr__(state, "u", v)
    return TrajectorySample(state, residual, diagnostics)


@dataclass(frozen=True, slots=True)
class PhaseState:
    """Point of phase space: proper time, event, contravariant four-velocity."""

    tau: float
    x: SpacetimeEvent
    u: FourVector

    def __post_init__(self):
        if self.u.variance is not Variance.UP:
            raise ValueError("PhaseState.u must be contravariant")
        if not self.u.components[0] > 0:
            raise ValueError("u^0 must be positive (future-directed)")


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One accepted integrator step plus pointwise diagnostics."""

    state: PhaseState
    norm_residual: float
    diagnostics: dict = field(default_factory=dict)


class Trajectory(list):
    """Sequence of samples with a terminal status.

    status is one of 'completed', 'domain-exit', 'max-steps'; `reason`
    carries the guard message for domain exits.
    """

    def __init__(self, samples: Iterable[TrajectorySample] = (), status: str = "completed",
                 reason: Optional[str] = None):
        super().__init__(samples)
        self.status = status
        self.reason = reason


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration policy.

    ``step`` is the fixed RK4 step and the initial guess for the adaptive
    method; ``rtol``/``atol`` drive the embedded error control.
    Renormalization of the velocity norm is off by default; the norm
    residual is monitored either way and recorded per sample.
    """

    method: str = "rk4-fixed"
    step: float = 1e-2
    rtol: float = 1e-9
    atol: float = 1e-12
    tau_max: float = 10.0
    max_steps: int = 1_000_000
    renormalize: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.rtol < 0 or self.atol < 0 or self.rtol + self.atol <= 0:
            raise ValueError("tolerances must be nonnegative and not both zero")
        if not self.tau_max > 0:
            raise ValueError("tau_max must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


# ---------------------------------------------------------------------------
# transport right-hand side
# ---------------------------------------------------------------------------


def acceleration_terms(
    c: NonLinearConnection, particle: Particle, x: SpacetimeEvent, u: FourVector
) -> tuple[FourVector, FourVector]:
    """Covariant acceleration components, split by momentum order.

    Returns (zeroth, first): the momentum-independent force term scaled
    by 1/mass, and the momentum-linear (geodesic) term.  Their sum is
    the proper-time acceleration vector lowered with the local metric,
    g_ma du^a/dtau.  (Note this is not d(u_m)/dtau, which picks up an
    extra metric-gradient term where g varies; the canonical-momentum
    integrator below evolves that form, and the two must trace the same
    worldline.)
    """
    if u.variance is not Variance.UP:
        raise ValueError("acceleration expects a contravariant velocity")
    c.guard.check(x)
    uu = u.components
    zeroth = np.zeros(DIM)
    if c.order0_raw is not None:
        zeroth = (c.order0_raw(x.coords) @ uu) / particle.mass
    first = np.zeros(DIM)
    if c.order1_raw is not None:
        first = c.order1_raw(x.coords).dot(uu).dot(uu)
    return (
        FourVector(zeroth, Variance.DOWN),
        FourVector(first, Variance.DOWN),
    )


def acceleration(
    c: NonLinearConnection, particle: Particle, x: SpacetimeEvent, u: FourVector
) -> FourVector:
    """Full covariant acceleration under the transport law at one point."""
    zeroth, first = acceleration_terms(c, particle, x, u)
    return FourVector(zeroth.components + first.components, Variance.DOWN)


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for one event; for a batch, per event, with the same bits."""
    if v.ndim == 1:
        return a @ v
    return np.matmul(a, v[..., None])[..., 0]


def _quadratic(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k[a, m, n] u^m u^n with the bits of k.dot(u).dot(u) on every event.

    For a batch, each inner product is a (1, 4) @ (4, 1) slice, the dot
    product that ``k.dot(u)`` takes per element on one event.
    """
    if u.ndim == 1:
        return k.dot(u).dot(u)
    ku = np.matmul(k[..., None, :], u[..., None, None, :, None])[..., 0, 0]
    return np.matmul(ku, u[..., None])[..., 0]


def _compile_acceleration(
    c: NonLinearConnection, particle: Particle
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Contravariant du/dtau as a function of (coords, u), shaped once per connection.

    A raised K1 block, when the connection has one, supersedes the
    covariant one.  The covariant remainder is raised with the inverse
    metric, except on the flat chart: eta is a +-1 diagonal, so raising
    (K0 u) * (1/m) is a per-row sign folded into the 1/m scale, with the
    same bits as eta @ ((K0 u) * (1/m)) up to the sign of a zero.
    `coords` and `u` are one event ``(4,)`` or a batch ``(N, 4)``.
    """
    o0, o1c = c.order0_raw, c.order1_contra_raw
    o1 = c.order1_raw if o1c is None else None
    inv_mass = 1.0 / particle.mass
    inverse = c.metric.inverse_raw

    if o1 is None and o0 is None:
        raised = None
    elif o1 is None and isinstance(c.metric, FlatMetric):
        scale = np.diag(MINKOWSKI) * inv_mass  # (-1/m, 1/m, 1/m, 1/m)

        def raised(coords, u):
            return _mv(o0(coords), u) * scale

    elif o1 is None:

        def raised(coords, u):
            return _mv(inverse(coords), _mv(o0(coords), u) * inv_mass)

    elif o0 is None:

        def raised(coords, u):
            return _mv(inverse(coords), _quadratic(o1(coords), u))

    else:

        def raised(coords, u):
            return _mv(inverse(coords), _quadratic(o1(coords), u) + _mv(o0(coords), u) * inv_mass)

    if o1c is None:
        if raised is None:
            zero = np.zeros(DIM)
            return lambda coords, u: zero
        return raised
    if raised is None:
        return lambda coords, u: _quadratic(o1c(coords), u)
    return lambda coords, u: _quadratic(o1c(coords), u) + raised(coords, u)


def _make_rhs(c: NonLinearConnection, particle: Particle) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the ODE right-hand side for the (x, u-contravariant) state.

    The body does per-point work only: one guard probe, the acceleration
    from ``_compile_acceleration``, and the 8-vector assembly.  The state
    is one point ``(8,)`` or a batch ``(N, 8)``; a batch with any point
    outside the domain raises ``OutsideDomain`` as one point would.
    """
    probe = c.guard.probe
    label = c.guard.label
    accel = _compile_acceleration(c, particle)

    def rhs(y: np.ndarray) -> np.ndarray:
        coords = y[..., :4]
        u = y[..., 4:]
        why = probe(coords)
        if why is not None:
            raise OutsideDomain(f"{label}: {why}")
        out = np.empty(y.shape)
        out[..., :4] = u
        out[..., 4:] = accel(coords, u)
        return out

    return rhs


# ---------------------------------------------------------------------------
# steppers
#
# Both take one state (8,) with a float step, or a batch (N, 8) with a
# step per row (N, 1).  Every operation is elementwise or per row, so a
# row of a batch gets the bits it gets alone.
# ---------------------------------------------------------------------------


def _rk4_step(rhs, y: np.ndarray, h) -> np.ndarray:
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), accumulated in place in that order
    # (IEEE addition and multiplication commute, so the bits are the same)
    half = 0.5 * h
    k1 = rhs(y)
    stage = half * k1
    stage += y
    k2 = rhs(stage)
    stage = half * k2
    stage += y
    k3 = rhs(stage)
    stage = h * k3
    stage += y
    k4 = rhs(stage)
    acc = 2.0 * k2
    acc += k1
    k3 *= 2.0
    acc += k3
    acc += k4
    acc *= h / 6.0
    acc += y
    return acc


# Dormand-Prince 5(4) tableau (autonomous form; the law has no explicit
# proper-time dependence, so stage abscissae never enter).  Each stage and
# each weight sum lists its nonzero terms as (stage index, coefficient).
_DP_A = (
    ((0, 1 / 5),),
    ((0, 3 / 40), (1, 9 / 40)),
    ((0, 44 / 45), (1, -56 / 15), (2, 32 / 9)),
    ((0, 19372 / 6561), (1, -25360 / 2187), (2, 64448 / 6561), (3, -212 / 729)),
    ((0, 9017 / 3168), (1, -355 / 33), (2, 46732 / 5247), (3, 49 / 176), (4, -5103 / 18656)),
    ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84)),
)
_DP_B5 = ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84))
_DP_B4 = (
    (0, 5179 / 57600), (2, 7571 / 16695), (3, 393 / 640), (4, -92097 / 339200),
    (5, 187 / 2100), (6, 1 / 40),
)


def _dp_stages(rhs, y: np.ndarray, h):
    k = [rhs(y)]
    for (_, a0), *rest in _DP_A:
        acc = a0 * k[0]
        for j, a in rest:
            acc = acc + a * k[j]
        k.append(rhs(y + h * acc))
    return k


def _rk45_step(rhs, y: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """One embedded trial step: (5th-order result, error-estimate vector)."""
    k = _dp_stages(rhs, y, h)
    y5 = y + h * sum(b * k[j] for j, b in _DP_B5)
    y4 = y + h * sum(b * k[j] for j, b in _DP_B4)
    return y5, y5 - y4


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                rtol: float, atol: float) -> np.ndarray:
    """RMS of the scaled error over the last axis: one value per row."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    with np.errstate(over="ignore", divide="ignore"):
        return np.sqrt(np.mean((err / scale) ** 2, axis=-1))


# ---------------------------------------------------------------------------
# integration loops
# ---------------------------------------------------------------------------


def _renormalized(u: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    norm = float(u @ gmat @ u)
    if norm >= 0:
        raise StepRejected(f"cannot renormalize non-timelike velocity (norm {norm:.3e})")
    return u / math.sqrt(-norm)


class _Row:
    """One trajectory of an integration: its state, clock, step and samples.

    ``target`` is the proper time the pending step lands at.  For RK4,
    ``n_main`` steps of ``cfg.step`` come first, then one ``extra`` step
    of the remainder up to tau_max unless the step budget ran out
    (``limited``, status 'max-steps').
    """

    __slots__ = ("out", "cfg", "y", "tau0", "tau", "h", "target", "steps", "n_full",
                 "n_main", "remainder", "extra", "limited")

    def __init__(self, out: Trajectory, cfg: IntegratorConfig, y: np.ndarray, tau0: float):
        self.out, self.cfg, self.y = out, cfg, y
        self.tau0 = self.tau = tau0
        self.steps = 0
        if cfg.method == "rk4-fixed":
            self.h = cfg.step
            self.n_full = int(math.floor((cfg.tau_max - tau0) / cfg.step * (1.0 + 1e-12) + 1e-12))
            remainder = cfg.tau_max - (tau0 + self.n_full * cfg.step)
            self.remainder = 0.0 if remainder <= 1e-9 * cfg.step else remainder
            self.n_main = min(self.n_full, cfg.max_steps)
            planned = self.n_full + (1 if self.remainder else 0)
            self.limited = self.n_full >= cfg.max_steps and planned > cfg.max_steps
            self.extra = 0.0 if self.limited else self.remainder
        else:
            self.h = min(max(cfg.step, H_MIN), cfg.tau_max * H_MAX_FRACTION)

    def end(self, status: str, reason: Optional[str] = None) -> None:
        self.out.status, self.out.reason = status, reason


def _integrate_engine(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    tau0: Sequence[float],
    cfgs: Sequence[IntegratorConfig],
    sampler: Callable[[float, np.ndarray], TrajectorySample],
    renorm: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    admit: Optional[Callable[[np.ndarray], Optional[str]]] = None,
) -> list[Trajectory]:
    """Integrate one trajectory (`y0` of shape (8,)) or a batch (N, 8) under one law.

    Row i starts at ``tau0[i]`` with ``cfgs[i]``; the configs may differ
    only in ``tau_max``.  Each row keeps its own clock, step size, step
    count, status and samples, and takes exactly the arithmetic it takes
    alone: a row whose stage leaves the domain ends there while the
    others go on.  A lone trajectory keeps its 1-D state.  A row stays
    'completed' while it runs; ending otherwise takes it out.
    """
    lone = y0.ndim == 1
    rows = [
        _Row(Trajectory([sampler(tau, y)]), cfg, y, tau)
        for tau, cfg, y in zip(tau0, cfgs, [y0] if lone else y0)
    ]
    active = [row for row in rows if row.cfg.tau_max - row.tau > 0]
    cfg = cfgs[0]

    def attempt(stepper, stepping):
        """(rows that stepped, stepper results) over `stepping`."""
        if lone:
            row = stepping[0]
            try:
                return stepping, stepper(row.y, row.h)
            except OutsideDomain as err:
                row.end("domain-exit", str(err))
                return [], None
        try:
            y = np.stack([row.y for row in stepping])
            return stepping, stepper(y, np.array([row.h for row in stepping])[:, None])
        except OutsideDomain:
            pass
        # some row's stage left the domain: step the rows one at a time
        # (the same bits as in the batch) to learn which rows end here
        kept, parts = [], []
        for row in stepping:
            try:
                parts.append(stepper(row.y, row.h))
            except OutsideDomain as err:
                row.end("domain-exit", str(err))
                continue
            kept.append(row)
        if not kept:
            return [], None
        return kept, tuple(np.stack(column) for column in zip(*parts))

    def land(stepped, y_new) -> None:
        """Move each row to its accepted state unless that lies outside the domain.

        A step may jump clean across the guard margin without any stage
        evaluation failing; never retain such a state.
        """
        states = [y_new] if lone else list(y_new)
        if renorm is not None:
            states = [renorm(y) for y in states]
        if admit is None:
            exits = [None] * len(states)
        elif lone:
            exits = [admit(states[0][:4])]
        elif admit((y_new if renorm is None else np.stack(states))[:, :4]) is None:
            exits = [None] * len(states)
        else:
            exits = [admit(y[:4]) for y in states]
        for row, y, why in zip(stepped, states, exits):
            if why is not None:
                row.end("domain-exit", why)
                continue
            row.y, row.tau = y, row.target
            row.out.append(sampler(row.tau, y))

    if cfg.method == "rk4-fixed":

        def rk4(y, h):
            return (_rk4_step(rhs, y, h),)

        k = 0
        while active:
            k += 1
            stepping = []
            for row in active:
                if k <= row.n_main:
                    last = k == row.n_full and not row.remainder
                    row.target = row.cfg.tau_max if last else row.tau0 + k * cfg.step
                elif k == row.n_main + 1 and row.extra:
                    row.h, row.target = row.extra, row.cfg.tau_max
                else:
                    if row.limited:
                        row.end("max-steps")
                    continue
                stepping.append(row)
            if not stepping:
                break
            stepped, result = attempt(rk4, stepping)
            if stepped:
                land(stepped, result[0])
            active = [row for row in stepped if row.out.status == "completed"]
        return [row.out for row in rows]

    # adaptive embedded pair, with the step-size controller run per row
    def rk45(y, h):
        y5, err = _rk45_step(rhs, y, h)
        return y5, _error_norm(err, y, y5, cfg.rtol, cfg.atol)

    while active:
        stepping = []
        for row in active:
            tau_max = row.cfg.tau_max
            if not row.tau < tau_max * (1.0 - 1e-14):
                continue
            if row.steps >= cfg.max_steps:
                row.end("max-steps")
                continue
            row.h = min(row.h, tau_max - row.tau)
            stepping.append(row)
        if not stepping:
            break
        stepped, result = attempt(rk45, stepping)
        if not stepped:
            break
        y_new, enorms = result
        enorms = [float(enorms)] if lone else enorms.tolist()
        accepted = []
        for p, (row, enorm) in enumerate(zip(stepped, enorms)):
            tau_max = row.cfg.tau_max
            h_max = tau_max * H_MAX_FRACTION
            if enorm <= 1.0:
                accepted.append(p)
                row.target = (tau_max if tau_max - (row.tau + row.h) < 1e-14 * tau_max
                              else row.tau + row.h)
                row.steps += 1
                growth = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
                row.h = min(max(row.h * growth, H_MIN), h_max)
            else:
                if row.h <= H_MIN * (1.0 + 1e-12):
                    raise StepRejected(
                        f"tolerance unreachable at minimum step {H_MIN:g} (err norm {enorm:.3e})"
                    )
                row.h = min(max(row.h * max(0.2, 0.9 * enorm ** -0.2), H_MIN), h_max)
        if accepted:
            land([stepped[p] for p in accepted], y_new if lone else y_new[accepted])
        active = [row for row in stepped if row.out.status == "completed"]
    return [row.out for row in rows]


#: y @ 0 is NaN exactly when a component of y is NaN or infinite.
_ZERO_STATE = np.zeros(2 * DIM)


def _norm_sampler(metric: MetricField) -> Callable[[float, np.ndarray], TrajectorySample]:
    def sampler(tau: float, y: np.ndarray) -> TrajectorySample:
        if math.isnan(y @ _ZERO_STATE):
            raise StepRejected(f"state became non-finite at tau = {tau:g}")
        coords = y[:4].copy()
        u = y[4:].copy()
        u_cov = metric.matrix_raw(coords) @ u
        residual = float(u @ u_cov + 1.0)
        return _sample_trusted(tau, coords, u, residual, {"energy": -float(u_cov[0])})

    return sampler


def step(
    c: NonLinearConnection, particle: Particle, state: PhaseState, cfg: IntegratorConfig
) -> PhaseState:
    """Advance one integrator step (one accepted step for the adaptive method)."""
    rhs = _make_rhs(c, particle)
    y = np.concatenate([state.x.coords, state.u.components])
    if cfg.method == "rk4-fixed":
        y_new = _rk4_step(rhs, y, cfg.step)
        tau_new = state.tau + cfg.step
    else:
        h = min(max(cfg.step, H_MIN), cfg.tau_max * H_MAX_FRACTION)
        while True:
            y_new, err = _rk45_step(rhs, y, h)
            enorm = float(_error_norm(err, y, y_new, cfg.rtol, cfg.atol))
            if enorm <= 1.0:
                tau_new = state.tau + h
                break
            if h <= H_MIN * (1.0 + 1e-12):
                raise StepRejected(
                    f"tolerance unreachable at minimum step {H_MIN:g} (err norm {enorm:.3e})"
                )
            h = max(h * max(0.2, 0.9 * enorm ** -0.2), H_MIN)
    if cfg.renormalize:
        gmat = c.metric.matrix_raw(y_new[:4])
        y_new[4:] = _renormalized(y_new[4:], gmat)
    return PhaseState(tau_new, SpacetimeEvent(y_new[:4]), FourVector(y_new[4:], Variance.UP))


def _metric_renorm(metric: MetricField) -> Callable[[np.ndarray], np.ndarray]:
    def renorm(y: np.ndarray) -> np.ndarray:
        y = y.copy()
        y[4:] = _renormalized(y[4:], metric.matrix_raw(y[:4]))
        return y

    return renorm


def integrate(
    c: NonLinearConnection, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the transport law from `initial` until tau_max.

    Samples include the initial state.  Domain exits during the run are
    reported through the trajectory status, not raised; an initial state
    already outside the domain raises ``OutsideDomain``.
    """
    return integrate_batch(c, particle, [initial], [cfg])[0]


def integrate_batch(
    c: NonLinearConnection,
    particle: Particle,
    initials: Sequence[PhaseState],
    cfgs: Sequence[IntegratorConfig],
) -> list[Trajectory]:
    """Integrate several worldlines under one law as one (N, 8) batch.

    ``cfgs[i]`` goes with ``initials[i]``; the configs may differ only in
    ``tau_max``.  Every trajectory is bit-identical to ``integrate`` of
    its row alone, status and samples included; one row leaving the
    domain never stops the others.  An error that a lone run raises (a
    non-finite state, an unreachable tolerance) ends the whole batch.
    The connection's evaluators must take a batch of coordinates, as the
    built-in ones do.  A single row runs on 1-D state, as ``integrate``
    does.
    """
    if len(initials) != len(cfgs) or not cfgs:
        raise ValueError("need one config per initial state, and at least one")
    first = cfgs[0]
    if any(dataclasses.replace(cfg, tau_max=first.tau_max) != first for cfg in cfgs[1:]):
        raise ValueError("the configs of one batch may differ only in tau_max")
    for initial in initials:
        c.guard.check(initial.x)
    states = [np.concatenate([i.x.coords, i.u.components]) for i in initials]
    y0 = states[0] if len(states) == 1 else np.stack(states)
    return _integrate_engine(
        _make_rhs(c, particle),
        y0,
        [initial.tau for initial in initials],
        cfgs,
        _norm_sampler(c.metric),
        _metric_renorm(c.metric) if first.renormalize else None,
        c.guard.probe,
    )


def geodesic_integrate(
    g: MetricField, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Free fall in `g`: integrate under the metric's own connection."""
    return integrate(gravitational_connection(g), particle, initial, cfg)


# ---------------------------------------------------------------------------
# coordinate-time force extraction
# ---------------------------------------------------------------------------


def coordinate_force(
    samples: Sequence[TrajectorySample], particle: Particle
) -> list[tuple[float, np.ndarray]]:
    """d(m u^i)/dt on a uniform coordinate-time grid.

    Since u^i equals gamma v^i, this is the coordinate force familiar
    from the low-velocity limit.  The samples are resampled onto a
    uniform grid in t with a cubic spline, then differenced (central in
    the interior, one-sided second order at the ends).
    """
    if len(samples) < 4:
        raise ValueError("need at least four samples for cubic resampling")
    t = np.array([s.state.x.coords[0] for s in samples])
    if np.any(np.diff(t) <= 0):
        raise NonMonotoneTime("coordinate time is not strictly increasing")
    momenta = particle.mass * np.array([s.state.u.components[1:] for s in samples])
    grid = np.linspace(t[0], t[-1], len(t))
    resampled = CubicSpline(t, momenta, axis=0)(grid)
    force = np.gradient(resampled, grid[1] - grid[0], axis=0)
    return [(float(tc), force[i]) for i, tc in enumerate(grid)]


# ---------------------------------------------------------------------------
# canonical-momentum (minimal-substitution) route
# ---------------------------------------------------------------------------


def minimal_substitution_trajectory(
    a: VectorPotential,
    g: MetricField,
    particle: Particle,
    initial: PhaseState,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate with the canonical momentum pi_m = p_m + e A_m as the state.

    The evolution uses only the metric gradient and the unantisymmetrized
    potential gradient,

        dpi_m/dtau = (m/2) g_ab,m u^a u^b + e A_a,m u^a,
        u_m = (pi_m - e A_m) / m,

    which is the free-particle transport law with the momentum argument
    shifted by the potential.  No field-strength matrix is ever formed,
    so agreement with the Lorentz-coupling route is a genuine two-route
    check.  Samples report the recovered kinetic velocity.
    """
    g.guard.check(initial.x)
    a.guard.check(initial.x)
    m = particle.mass
    e = particle.charge
    probe_g = g.guard.probe
    probe_a = a.guard.probe

    def d_potential(coords: np.ndarray) -> np.ndarray:
        da = a.deriv_raw(coords)
        if da is not None:
            return da
        out = np.empty((DIM, DIM))
        shifted = coords.copy()
        for s in range(DIM):
            h = FD_STEP_FIRST * max(1.0, abs(coords[s]))
            shifted[s] = coords[s] + h
            plus = a.values_fn(shifted)
            shifted[s] = coords[s] - h
            minus = a.values_fn(shifted)
            shifted[s] = coords[s]
            out[s, :] = (plus - minus) / (2.0 * h)
        return out

    def metric_gradient(coords: np.ndarray) -> np.ndarray:
        dg = g.deriv_raw(coords)
        if dg is not None:
            return dg
        out = np.empty((DIM, DIM, DIM))
        shifted = coords.copy()
        for s in range(DIM):
            h = FD_STEP_FIRST * max(1.0, abs(coords[s]))
            shifted[s] = coords[s] + h
            plus = g.matrix_fn(shifted)
            shifted[s] = coords[s] - h
            minus = g.matrix_fn(shifted)
            shifted[s] = coords[s]
            out[:, :, s] = (plus - minus) / (2.0 * h)
        return out

    def kinetic_up(coords: np.ndarray, pi: np.ndarray) -> np.ndarray:
        u_cov = (pi - e * a.values_fn(coords)) / m
        return g.inverse_raw(coords) @ u_cov

    def rhs(y: np.ndarray) -> np.ndarray:
        coords = y[:4]
        pi = y[4:]
        why = probe_g(coords) or probe_a(coords)
        if why is not None:
            raise OutsideDomain(why)
        u = kinetic_up(coords, pi)
        dg = metric_gradient(coords)
        dpi = 0.5 * m * np.einsum("abs,a,b->s", dg, u, u)
        if e != 0.0:
            dpi = dpi + e * (d_potential(coords) @ u)
        out = np.empty(2 * DIM)
        out[:4] = u
        out[4:] = dpi
        return out

    def sampler(tau: float, y: np.ndarray) -> TrajectorySample:
        if math.isnan(y @ _ZERO_STATE):
            raise StepRejected(f"state became non-finite at tau = {tau:g}")
        coords = y[:4].copy()
        u = kinetic_up(coords, y[4:])
        u_cov = g.matrix_raw(coords) @ u
        residual = float(u @ u_cov + 1.0)
        return _sample_trusted(tau, coords, u, residual, {"energy": -float(u_cov[0])})

    renorm = None
    if cfg.renormalize:

        def renorm(y: np.ndarray) -> np.ndarray:
            y = y.copy()
            coords = y[:4]
            u = kinetic_up(coords, y[4:])
            u = _renormalized(u, g.matrix_raw(coords))
            y[4:] = m * (g.matrix_raw(coords) @ u) + e * a.values_fn(coords)
            return y

    def admit(coords: np.ndarray) -> Optional[str]:
        return probe_g(coords) or probe_a(coords)

    x0 = initial.x.coords
    u0_cov = g.matrix_raw(x0) @ initial.u.components
    pi0 = m * u0_cov + e * a.values_fn(x0)
    y0 = np.concatenate([x0, pi0])
    return _integrate_engine(rhs, y0, [initial.tau], [cfg], sampler, renorm, admit)[0]
