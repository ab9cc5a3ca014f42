"""Worldline integration under a momentum-affine connection.

The integrated state is (x^m, u^m) with the four-velocity contravariant,
and the law is  du^a/dtau = K1^a_mn u^m u^n + g^ab K0_bn u^n / m.  The
connection stores both terms contracted with u: K1 raised, so the
geodesic term is the standard contravariant vector as it is, and K0
covariant, so only K0 u is raised here.
``_compile_acceleration`` compiles the law once per connection: which
blocks it has and how K0 is raised are decided there, so the
right-hand side does per-point work only.  On a curved chart it
evaluates the inverse metric once per point, for the raise of K0 only
(a geodesic-only law evaluates none); on the flat chart it evaluates
none.

There are two lanes, and the row count alone picks one.  A batch steps
on numpy arrays, one state (N, 8) (``_rk4_step``, ``_rk45_step``,
``_make_rhs``, ``_compile_acceleration``).  A lone trajectory steps on
Python floats, eight per state, whatever its method or route
(``_rk4_step_floats``, ``_rk45_step_floats``, ``_make_lone_rhs``,
``_compile_lone_acceleration``).  Each built-in closed form, guard
probe and inverse metric is one formula, run on numpy columns or on
Python floats (``tensor.closed_form``, ``tensor.columnwise``,
``tensor.guard_probe``), and the lone law takes its float lane
(``tensor.with_floats``); any other callable is called on arrays,
``fn(np.array(x), np.array(u)).tolist()``.  Both lanes take the same
IEEE operations in the same order, so a lone run has the bits of its row
in a batch; where Python floats raise and numpy gives inf or NaN, the
float lane evaluates that point on arrays.

The equivalence of this contravariant form and a covariant one is
exercised by the canonical-momentum route below, which evolves the
covariant momentum pi = m u + e (A - A(x0)), the potential anchored at
the start event, and must land on the same worldline.
Its law is compiled once per route in the same way
(``_compile_canonical``), and the two routes differ only in that law:
a run of this route is always lone, so it shares the float lane's
shell (``_make_lone_rhs``) and the engine, and its law steps on floats
too.
Neither rescales u: the law keeps g(u, u) = -1 by itself.
A state that is not finite is no event: no guard rejects it, and the run
fails with ``StepRejected`` where the step lands.

Two steppers are provided.  The fixed-step classical RK4 plans each
row's run once (``_rk4_plan``): n steps, the last of which lands on
tau_max, or ends the row at the step budget.  The embedded Dormand-Prince
5(4) pair keeps absolute plus relative error control; its seventh stage
is evaluated at the 5th-order result.  Adaptive step sizes are clamped to
[1e-8, tau_max / 10]; a tolerance that cannot be met at the minimum step
raises ``StepRejected``.  A run returns a ``Trajectory`` built from its
columns.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .connection import NonLinearConnection, Particle, _mv, _mv_floats, gravitational_connection
from .curvature import _metric_deriv_raw, _potential_deriv_raw
from .errors import NonMonotoneTime, OutsideDomain, StepRejected, ValidationError
from .fields import VectorPotential
from .tensor import (
    DIM,
    MINKOWSKI,
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    _finite_real,
    float_lane,
)

#: Hard lower bound on adaptive step size.
H_MIN = 1e-8
#: Fraction of tau_max used as the upper step clamp.
H_MAX_FRACTION = 0.1

_METHODS = ("rk4-fixed", "rk45-adaptive")


@dataclass(frozen=True, slots=True)
class PhaseState:
    """Point of phase space: proper time, event, contravariant four-velocity."""

    tau: float
    x: SpacetimeEvent
    u: FourVector

    def __post_init__(self):
        if not self.u.components[0] > 0:
            raise ValidationError("u^0 must be positive (future-directed)")


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One accepted integrator step plus pointwise diagnostics."""

    state: PhaseState
    norm_residual: float
    diagnostics: dict = field(default_factory=dict)


def _assembled(cls, **fields):
    """An instance of a frozen dataclass, without re-running its validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class Trajectory(Sequence):
    """Accepted states of one integration, stored as columns, with a terminal status.

    ``Trajectory(tau, state, norm_residual, energy, status, reason)``
    takes the columns as float arrays over the n samples: ``tau (n,)``,
    ``state (n, 8)`` (coordinates followed by the contravariant u),
    ``norm_residual (n,)`` and ``energy (n,)``; it marks them read-only
    and keeps them without a copy.  Indexing and iteration build each
    ``TrajectorySample`` on demand, with ``diagnostics = {"energy":
    ...}``; a slice is a ``Trajectory`` of views of the columns with the
    default status.

    status is one of 'completed', 'domain-exit', 'max-steps'; `reason`
    carries the guard message for domain exits.
    """

    __slots__ = ("tau", "state", "norm_residual", "energy", "status", "reason")

    def __init__(self, tau: np.ndarray, state: np.ndarray, norm_residual: np.ndarray,
                 energy: np.ndarray, status: str = "completed", reason: Optional[str] = None):
        for column in (tau, state, norm_residual, energy):
            column.setflags(write=False)
        self.tau, self.state, self.norm_residual, self.energy = tau, state, norm_residual, energy
        self.status, self.reason = status, reason

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trajectory(self.tau[i], self.state[i], self.norm_residual[i], self.energy[i])
        i = range(len(self.tau))[i]  # negative indices count from the end; IndexError past it
        state = _assembled(
            PhaseState,
            tau=float(self.tau[i]),
            x=_assembled(SpacetimeEvent, coords=self.state[i, :DIM]),
            u=_assembled(FourVector, components=self.state[i, DIM:]),
        )
        return TrajectorySample(state, float(self.norm_residual[i]),
                                {"energy": float(self.energy[i])})

    def __iter__(self):
        return (self[i] for i in range(len(self.tau)))


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration policy.

    ``step`` is the fixed RK4 step and the initial guess for the adaptive
    method; ``rtol``/``atol`` drive the embedded error control.  The
    velocity norm is never rescaled; its residual is recorded per sample.
    """

    method: str = "rk4-fixed"
    step: float = 1e-2
    rtol: float = 1e-9
    atol: float = 1e-12
    tau_max: float = 10.0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}, got {self.method!r}")
        for name in ("step", "rtol", "atol", "tau_max"):
            _finite_real(name, getattr(self, name))
        if not (self.step > 0 and self.tau_max > 0):
            raise ValidationError(
                f"step and tau_max must be positive, got {self.step} and {self.tau_max}")
        if self.rtol < 0 or self.atol < 0 or self.rtol + self.atol <= 0:
            raise ValidationError("tolerances must be nonnegative and not both zero")
        steps = self.max_steps
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValidationError(f"max_steps must be an integer of at least 1, got {steps!r}")


# ---------------------------------------------------------------------------
# transport right-hand side
# ---------------------------------------------------------------------------


def acceleration_terms(
    c: NonLinearConnection, particle: Particle, x: SpacetimeEvent, u: FourVector
) -> tuple[np.ndarray, np.ndarray]:
    """Covariant acceleration components at a contravariant `u`, split by momentum order.

    Returns (zeroth, first), two covariant ``(4,)`` arrays: the stored
    K0_mn u^n divided by the mass (the momentum-independent force term),
    and the momentum-linear (geodesic) term.  Their sum is
    the proper-time acceleration vector lowered with the local metric,
    g_ma du^a/dtau; the first term lowers the stored K1^a_mn u^m u^n.
    (Note this is not d(u_m)/dtau, which picks up an extra
    metric-gradient term where g varies; the canonical-momentum
    integrator below evolves that form, and the two must trace the same
    worldline.)
    """
    c.guard.check(x)
    coords, uu = x.coords, u.components
    zeroth = np.zeros(DIM)
    if c.order0_raw is not None:
        zeroth = c.order0_raw(coords, uu) / particle.mass
    first = np.zeros(DIM)
    if c.order1_raw is not None:
        first = c.metric.matrix_fn(coords) @ c.order1_raw(coords, uu)
    return zeroth, first


def _compile_acceleration(
    c: NonLinearConnection, mass, order0: Optional[np.ndarray] = None
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Contravariant du/dtau as a function of (coords, u), shaped once per connection.

    Both terms are the connection's contracted vectors, ``o1(coords, u)``
    and ``o0(coords, u)``.  K1 is used as it is.  K0 u / m is raised with
    the inverse metric, except on the flat chart: eta is a +-1 diagonal,
    so raising (K0 u) * (1/m) is a per-row sign folded into the 1/m
    scale, with the same bits as eta @ ((K0 u) * (1/m)) up to the sign
    of a zero.  Elsewhere g^-1 is evaluated once per point, for that
    raise only; a law without K0 evaluates none here.
    `coords` and `u` are a batch ``(N, 4)``: this is the array lane's
    law, and ``_compile_lone_acceleration`` falls back on it with a batch
    of one.  `mass` is the particle mass, one float or one per event
    ``(N,)``.  `order0`, when given, is the constant K0 block of each
    event ``(N, 4, 4)`` (or one ``(4, 4)`` for all), e F of a uniform
    field, contracted here as ``_mv(order0, u)`` in place of the
    connection's ``order0_raw``; a matrix-vector product per event has
    the bits of the lone one, so a row gets what it gets alone.
    """
    o1 = c.order1_raw
    if order0 is None:
        o0 = c.order0_raw
    else:

        def o0(coords, u):
            return _mv(order0, u)

    inv_mass = 1.0 / (mass if np.ndim(mass) == 0 else mass[:, None])
    inverse = c.metric.inverse_raw

    if o1 is None and o0 is None:
        zero = np.zeros(DIM)
        return lambda coords, u: zero
    if o1 is None and isinstance(c.metric, FlatMetric):
        scale = np.diag(MINKOWSKI) * inv_mass  # (-1/m, 1/m, 1/m, 1/m), per event
        return lambda coords, u: o0(coords, u) * scale
    if o1 is None:
        return lambda coords, u: _mv(inverse(coords), o0(coords, u) * inv_mass)
    if o0 is None:
        return o1
    return lambda coords, u: o1(coords, u) + _mv(inverse(coords), o0(coords, u) * inv_mass)


def _on_floats(fn: Callable[..., np.ndarray]) -> Callable[..., list]:
    """`fn` of one event on Python floats, four per ``(4,)`` argument: its own
    float lane (``tensor.with_floats``), or `fn` called on arrays, with the
    same bits."""
    lane = float_lane(fn)
    if lane is not None:
        return lane
    return lambda *args: fn(*map(np.array, args)).tolist()


def _or_on_arrays(
    lane: Callable[[list, list], list], fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Callable[[list, list], list]:
    """`lane` of (x, v), except where Python floats raise (a division by
    zero, a math-domain error, an overflow): there `fn`, the same law on
    numpy values, evaluates the event again and gives inf or NaN as numpy
    does.  An error of the law's own raises again."""

    def guarded(x: list, v: list) -> list:
        try:
            return lane(x, v)
        except (ArithmeticError, ValueError):
            return fn(np.array(x), np.array(v)).tolist()

    return guarded


def _raised_on_floats(g: MetricField) -> Callable[[list, list], list]:
    """``_mv(g.inverse_raw(coords), v)`` of one event on Python floats: the
    inverse metric's float rows where it has them, else on arrays."""
    inverse, rows = g.inverse_raw, float_lane(g.inverse_fn)
    if rows is None:
        return _on_floats(lambda coords, v: _mv(inverse(coords), v))
    return lambda x, v: _mv_floats(rows(x), v)


def _probe_on_floats(guard: DomainGuard) -> Callable[[list], Optional[str]]:
    """`guard`'s probe of one event given as four Python floats: its float
    lane, or its probe called on an array."""
    lane, probe = float_lane(guard.probe), guard.probe
    if lane is not None:
        return lane
    return lambda x: probe(np.array(x))


def _compile_lone_acceleration(
    c: NonLinearConnection, mass: float, order0: Optional[np.ndarray] = None
) -> Callable[[list, list], list]:
    """``_compile_acceleration`` for one event on Python floats: four floats each
    for the coordinates, u and the rate.

    Each term is its float lane where it has one (the built-in closed
    forms, a uniform field's block and the curved charts' inverse-metric
    rows), and is called on arrays otherwise (``_on_floats``).  The law
    takes the array law's operations in its order, so it has its bits.
    Where Python floats raise, the event is evaluated again by the array
    law as a batch of one (``_or_on_arrays``), on numpy columns, which
    give inf or NaN there as they do for any batch row.  `order0`, when
    given, is the event's constant K0 block ``(4, 4)``.
    """
    arrays = _compile_acceleration(c, mass, order0)
    o1 = None if c.order1_raw is None else _on_floats(c.order1_raw)
    if order0 is not None:
        rows = order0.tolist()

        def o0(x, u):
            return _mv_floats(rows, u)

    else:
        o0 = None if c.order0_raw is None else _on_floats(c.order0_raw)
    inv_mass = 1.0 / float(mass)

    if o1 is None and o0 is None:
        return lambda x, u: [0.0] * DIM
    if o1 is None and isinstance(c.metric, FlatMetric):
        scale = (np.diag(MINKOWSKI) * inv_mass).tolist()

        def rate(x, u):
            return [a * s for a, s in zip(o0(x, u), scale)]

    elif o0 is None:
        rate = o1
    else:
        raised = _raised_on_floats(c.metric)

        def k0(x, u):
            return raised(x, [a * inv_mass for a in o0(x, u)])

        rate = k0 if o1 is None else lambda x, u: [a + b for a, b in zip(o1(x, u), k0(x, u))]

    return _or_on_arrays(rate, lambda coords, u: arrays(coords[None], u[None])[0])


def _make_rhs(
    guard: DomainGuard, rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """The ODE right-hand side of a batch of states (x, u) ``(N, 8)``:
    (dx/dtau, du/dtau) = (u, rate(x, u)).

    This is the force route's shell on arrays.  The body probes `guard`
    once and hands a rejected batch to ``_rejected`` with the reason
    ``"<label>: <why>"``: a batch with any point outside the domain
    raises ``OutsideDomain`` as one point would.
    """
    probe, label = guard.probe, guard.label

    def rhs(y: np.ndarray) -> np.ndarray:
        coords = y[:, :DIM]
        why = probe(coords)
        if why is not None:
            return _rejected(y, f"{label}: {why}")
        u = y[:, DIM:]
        out = np.empty(y.shape)
        out[:, :DIM] = u
        out[:, DIM:] = rate(coords, u)
        return out

    return rhs


def _make_lone_rhs(
    guard: DomainGuard,
    rate: Callable[[list, list], list],
    velocity: Optional[Callable[[list, list], list]] = None,
) -> Callable[[list], list]:
    """The ODE right-hand side of one state (x, p) held as eight Python floats:
    (dx/dtau, dp/dtau) = (u, rate(x, u)).

    Both routes share this shell.  The force law's p is the contravariant
    u itself (`velocity` None); the canonical route's p is the momentum
    pi, and ``velocity(x, pi)`` recovers u.  `rate` and `velocity` take
    and give four floats each.  The probe is ``_probe_on_floats(guard)``;
    a rejected state goes to ``_rejected`` as a batch of one with the
    reason ``"<label>: <why>"``, so a state that is not finite gets a NaN
    rate and never raises ``OutsideDomain``.
    """
    probe, label = _probe_on_floats(guard), guard.label

    def rhs(y: list) -> list:
        x = y[:DIM]
        why = probe(x)
        if why is not None:
            return _rejected(np.array([y]), f"{label}: {why}")[0].tolist()
        u = y[DIM:] if velocity is None else velocity(x, y[DIM:])
        return [*u, *rate(x, u)]

    return rhs


# ---------------------------------------------------------------------------
# steppers
#
# Each comes twice: on a batch (N, 8) with a step per row (N, 1), and
# (``_floats``) on one state held as eight Python floats with a float
# step.  Every array operation is elementwise or per row, and the float
# twin takes it in its order one component at a time, so a row of a
# batch gets the bits it gets alone.
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


def _rk4_step_floats(rhs, y: list, h: float) -> list:
    # _rk4_step's operations in its order, one component at a time: IEEE
    # addition and multiplication of Python floats give numpy's bits
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs([half * k + v for k, v in zip(k1, y)])
    k3 = rhs([half * k + v for k, v in zip(k2, y)])
    k4 = rhs([h * k + v for k, v in zip(k3, y)])
    sixth = h / 6.0
    return [(2.0 * b + a + 2.0 * c + d) * sixth + v for a, b, c, d, v in zip(k1, k2, k3, k4, y)]


# Dormand-Prince 5(4) tableau (autonomous form; the law has no explicit
# proper-time dependence, so stage abscissae never enter).  Each stage and
# the 4th-order weight sum list their nonzero terms as (stage index,
# coefficient).  The last stage's row is the 5th-order weights, so the
# seventh stage is evaluated at the 5th-order result itself.
_DP_A = (
    ((0, 1 / 5),),
    ((0, 3 / 40), (1, 9 / 40)),
    ((0, 44 / 45), (1, -56 / 15), (2, 32 / 9)),
    ((0, 19372 / 6561), (1, -25360 / 2187), (2, 64448 / 6561), (3, -212 / 729)),
    ((0, 9017 / 3168), (1, -355 / 33), (2, 46732 / 5247), (3, 49 / 176), (4, -5103 / 18656)),
    ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784), (5, 11 / 84)),
)
_DP_B4 = (
    (0, 5179 / 57600), (2, 7571 / 16695), (3, 393 / 640), (4, -92097 / 339200),
    (5, 187 / 2100), (6, 1 / 40),
)


def _rk45_step(rhs, y: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """One embedded trial step: (5th-order result, error-estimate vector)."""
    k = [rhs(y)]
    for (_, a0), *rest in _DP_A:
        acc = a0 * k[0]
        for j, a in rest:
            acc = acc + a * k[j]
        stage = y + h * acc
        k.append(rhs(stage))
    y4 = y + h * sum(b * k[j] for j, b in _DP_B4)
    return stage, stage - y4


def _rk45_step_floats(rhs, y: list, h: float) -> tuple[list, list]:
    # _rk45_step's operations in its order, one component at a time; the
    # 4th-order sum starts from 0, as Python's sum over the arrays does
    k = [rhs(y)]
    for (_, a0), *rest in _DP_A:
        stage = []
        for v, ks in zip(y, zip(*k)):
            acc = a0 * ks[0]
            for j, a in rest:
                acc = acc + a * ks[j]
            stage.append(v + h * acc)
        k.append(rhs(stage))
    y4 = [v + h * sum(b * ks[j] for j, b in _DP_B4) for v, ks in zip(y, zip(*k))]
    return stage, [a - b for a, b in zip(stage, y4)]


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                rtol: float, atol: float) -> np.ndarray:
    """RMS of the scaled error over the last axis: one value per row."""
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return np.sqrt(np.mean((err / scale) ** 2, axis=-1))


def _error_norm_floats(err: list, y_old: list, y_new: list, rtol: float, atol: float) -> float:
    """``_error_norm`` of one state held as eight Python floats, with its bits.

    The larger magnitude is NaN where either is, as ``np.maximum`` gives
    it, and the squares are summed in numpy's pairwise order.  Where
    Python floats raise (a zero scale, with ``atol = 0``), the norm is
    ``_error_norm``'s on arrays, inf or NaN.
    """
    try:
        q = [e / (atol + rtol * (a if a > b or a != a else b))
             for e, a, b in zip(err, map(abs, y_old), map(abs, y_new))]
    except ArithmeticError:
        return float(_error_norm(np.array(err), np.array(y_old), np.array(y_new), rtol, atol))
    q0, q1, q2, q3, q4, q5, q6, q7 = (v * v for v in q)
    return math.sqrt((((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))) / 8)


# ---------------------------------------------------------------------------
# integration loops
# ---------------------------------------------------------------------------


#: y @ 0 is NaN exactly when a component of y is NaN or infinite.
_ZERO_STATE = np.zeros(2 * DIM)


def _first_nonfinite(y: np.ndarray) -> Optional[int]:
    """The first row of a batch `y` (N, 8) with a component that is not finite, or None."""
    bad = np.isnan(y @ _ZERO_STATE)
    return int(bad.argmax()) if bad.any() else None


def _require_finite(y: np.ndarray, taus) -> None:
    """Raise ``StepRejected`` if a row of a batch `y` (N, 8) landed at `taus` (N,)
    is not finite."""
    bad = _first_nonfinite(y)
    if bad is not None:
        raise StepRejected(f"state became non-finite at tau = {taus[bad]:g}")


def _rejected(y: np.ndarray, reason: str) -> np.ndarray:
    """The rate at a batch `y` (N, 8) that a guard rejected with `reason`.

    A batch of finite states has a point outside the domain: raise
    ``OutsideDomain``.  A state that is not finite is no event, whatever
    the guard says: the rate is NaN, so the step lands on a state that is
    not finite and the run fails with ``StepRejected`` there, as on a
    chart without a guard.
    """
    if _first_nonfinite(y) is None:
        raise OutsideDomain(reason)
    return np.full(y.shape, np.nan)


def _rk4_plan(cfg: IntegratorConfig, tau0: float) -> tuple[int, float, float, str]:
    """(n, h_last, tau_last, status) of a fixed-step run from tau0.

    The run takes ``n`` steps: those before the last are of ``cfg.step``
    and land on tau0 + k step; the last, of ``h_last``, lands on
    ``tau_last``.  The row then ends with ``status``: 'completed' on
    tau_max, or 'max-steps' when the step budget ran out short of it.
    """
    span = cfg.tau_max - tau0
    # a count past max_steps + 1 changes no outcome, and it may not fit an int
    n_full = math.floor(min(span / cfg.step * (1.0 + 1e-12) + 1e-12, cfg.max_steps + 1))
    remainder = cfg.tau_max - (tau0 + n_full * cfg.step)
    # rounding leaves less than a step and less than the span (a huge step leaves it all)
    if remainder <= 1e-9 * min(cfg.step, span):
        if n_full <= cfg.max_steps:
            return n_full, cfg.step, cfg.tau_max, "completed"
    elif n_full < cfg.max_steps:
        return n_full + 1, remainder, cfg.tau_max, "completed"
    return cfg.max_steps, cfg.step, tau0 + cfg.max_steps * cfg.step, "max-steps"


class _Rows:
    """The rows of one integration: the live ones as one state, and the record.

    `y0` is the batch's start states ``(N, 8)``.  A lone row (N = 1)
    steps on Python floats from its first right-hand side to its record:
    ``y`` is its state as eight floats, ``rows`` is None and ``rhs`` is
    ``law(None)``, the right-hand side on floats, and each landed state
    is recorded as its list of floats.  A batch steps on arrays:
    ``rows`` indexes the rows that still step (an index array into the
    batch), ``y`` holds their states in that order ``(n, 8)`` and
    ``rhs`` is ``law(rows)``, bound again whenever the set shrinks.
    ``ids`` lists the live rows as ints.  A row leaves the set when it
    ends, with its status and reason.  Each landing appends one block to
    the record: the rows that landed, their proper times and their
    states; ``records`` cuts each row's record from the blocks once, at
    the end.
    """

    def __init__(self, law, y0: np.ndarray, tau0: Sequence[float], guard):
        self.law, self.guard = law, guard
        n = len(tau0)
        self.lone = n == 1
        self.status, self.reason = ["completed"] * n, [None] * n
        self.rows = None if self.lone else np.arange(n)
        self.ids = list(range(n))
        self.y = y0[0].tolist() if self.lone else y0
        self.rhs = law(self.rows)
        self.landed = [self.rows]
        self.taus = [tau0[0]] if self.lone else [np.array(tau0, dtype=float)]
        self.states = [self.y]
        self.probe = _probe_on_floats(guard) if self.lone else guard.probe

    def end(self, p: int, status: str, reason: Optional[str] = None) -> None:
        """Give the live row at position `p` its final status (it leaves at the next `keep`)."""
        i = self.ids[p]
        self.status[i], self.reason[i] = status, reason

    def keep(self, pos: Sequence[int]) -> None:
        """Shrink the live rows to those at positions `pos` of the current order."""
        if len(pos) == len(self.ids):
            return
        if not pos:
            self.ids = []
            return
        idx = np.array(pos)
        self.rows, self.y = self.rows[idx], self.y[idx]
        self.ids = self.rows.tolist()
        self.rhs = self.law(self.rows)

    def attempt(self, stepper, h):
        """The stepper's results over the live rows, or None when none is left.

        `h` is one float or a column ``(n, 1)`` over the live rows.  A row
        whose stage leaves the domain ends there: the rows are stepped one
        at a time (the same bits as in the batch) to learn which, and the
        others step again together.
        """
        try:
            return stepper(self.rhs, self.y, h)
        except OutsideDomain as err:
            if self.lone:
                self.end(0, "domain-exit", str(err))
                self.keep([])
                return None
        inside = []
        for p in range(len(self.ids)):
            one = slice(p, p + 1)
            try:
                stepper(self.law(self.rows[one]), self.y[one], h if np.ndim(h) == 0 else h[one])
            except OutsideDomain as err:
                self.end(p, "domain-exit", str(err))
                continue
            inside.append(p)
        self.keep(inside)
        if not inside:
            return None
        return stepper(self.rhs, self.y, h if np.ndim(h) == 0 else h[inside])

    def land(self, y_new: np.ndarray, taus, pos: Optional[list[int]] = None) -> None:
        """Move the live rows at positions `pos` (all by default) to their accepted states.

        `y_new` and `taus` are those rows' states and proper times (alone,
        eight floats and a float).  A state that is not finite raises; a
        finite one may jump clean across the guard margin without any stage
        evaluation failing: never retain it, that row ends instead.
        """
        if self.lone:
            # v * 0.0 is NaN exactly where v is NaN or infinite; a sum of
            # the components themselves could overflow on finite ones
            if math.isnan(sum([v * 0.0 for v in y_new])):
                raise StepRejected(f"state became non-finite at tau = {taus:g}")
            why = self.probe(y_new[:DIM])
            if why is not None:
                self.end(0, "domain-exit", f"{self.guard.label}: {why}")
                self.keep([])
                return
            self.y = y_new
            self.taus.append(taus)
            self.states.append(y_new)
            return
        if pos is None:
            pos = range(len(self.ids))
        _require_finite(y_new, taus)
        left = []
        probe = self.probe
        if probe(y_new[..., :DIM]) is not None:
            whys = [probe(y[:DIM]) for y in y_new]
            for q, why in enumerate(whys):
                if why is not None:
                    self.end(pos[q], "domain-exit", f"{self.guard.label}: {why}")
                    left.append(pos[q])
            inside = [q for q, why in enumerate(whys) if why is None]
            pos, y_new, taus = [pos[q] for q in inside], y_new[inside], taus[inside]
        if len(pos) == len(self.ids):
            self.y = y_new
            self.landed.append(self.rows)
        elif pos:
            self.y = self.y.copy()  # the old array is a recorded block
            self.y[pos] = y_new
            self.landed.append(self.rows[pos])
        if len(pos):
            self.taus.append(taus)
            self.states.append(y_new)
        if left:
            self.keep([p for p in range(len(self.ids)) if p not in left])

    def rk4(self, tau0: Sequence[float], cfgs: Sequence[IntegratorConfig]) -> None:
        step = cfgs[0].step
        n, h_last, tau_last, status = zip(*(_rk4_plan(cfg, t) for cfg, t in zip(cfgs, tau0)))
        starts = np.array(tau0, dtype=float)
        k = ending = 0  # ending: the next step that is some live row's last
        while self.ids:
            if k == ending:
                for p, i in enumerate(self.ids):
                    if n[i] == k:
                        self.end(p, status[i])
                self.keep([p for p, i in enumerate(self.ids) if n[i] > k])
                if not self.ids:
                    break
                ending = min(n[i] for i in self.ids)
            k += 1
            h = step
            if k == ending:
                hs = [h_last[i] if n[i] == k else step for i in self.ids]
                h = hs[0] if self.lone else np.array(hs)[:, None]
            # a row may leave the live set here
            y_new = self.attempt(_rk4_step_floats if self.lone else _rk4_step, h)
            if y_new is None:
                break
            if k < ending:
                taus = tau0[0] + k * step if self.lone else starts[self.rows] + k * step
            else:
                taus = [tau_last[i] if n[i] == k else tau0[i] + k * step for i in self.ids]
                taus = taus[0] if self.lone else np.array(taus)
            self.land(y_new, taus)

    def rk45(self, tau0: Sequence[float], cfgs: Sequence[IntegratorConfig]) -> None:
        # the step-size controller runs per row in Python floats
        cfg = cfgs[0]
        tau_max = [c.tau_max for c in cfgs]
        tau = list(tau0)
        h = [min(max(cfg.step, H_MIN), t * H_MAX_FRACTION) for t in tau_max]
        steps = [0] * len(cfgs)

        step, norm = ((_rk45_step_floats, _error_norm_floats) if self.lone
                      else (_rk45_step, _error_norm))

        def rk45(rhs, y, hs):
            y5, err = step(rhs, y, hs)
            return y5, norm(err, y, y5, cfg.rtol, cfg.atol)

        while self.ids:
            going = []
            for p, i in enumerate(self.ids):
                if not tau[i] < tau_max[i] * (1.0 - 1e-14):
                    continue
                if steps[i] >= cfg.max_steps:
                    self.end(p, "max-steps")
                    continue
                h[i] = min(h[i], tau_max[i] - tau[i])
                going.append(p)
            self.keep(going)
            if not self.ids:
                break
            hs = h[self.ids[0]] if self.lone else np.array([h[i] for i in self.ids])[:, None]
            result = self.attempt(rk45, hs)
            if result is None:
                break
            y_new, enorms = result
            enorms = [enorms] if self.lone else enorms.tolist()
            accepted, taus = [], []
            for p, (i, enorm) in enumerate(zip(self.ids, enorms)):
                h_max = tau_max[i] * H_MAX_FRACTION
                if enorm <= 1.0:
                    accepted.append(p)
                    tau[i] = (tau_max[i] if tau_max[i] - (tau[i] + h[i]) < 1e-14 * tau_max[i]
                              else tau[i] + h[i])
                    taus.append(tau[i])
                    steps[i] += 1
                    growth = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
                    h[i] = min(max(h[i] * growth, H_MIN), h_max)
                else:
                    if h[i] <= H_MIN * (1.0 + 1e-12):
                        raise StepRejected(
                            f"tolerance unreachable at minimum step {H_MIN:g} (err norm {enorm:.3e})"
                        )
                    h[i] = min(max(h[i] * max(0.2, 0.9 * enorm ** -0.2), H_MIN), h_max)
            if self.lone:
                if accepted:
                    self.land(y_new, taus[0])
            elif len(accepted) == len(self.ids):
                self.land(y_new, np.array(taus))
            elif accepted:
                self.land(y_new[accepted], np.array(taus), accepted)

    def records(self) -> list[tuple[np.ndarray, np.ndarray, str, Optional[str]]]:
        """(tau (n,), state (n, 8), status, reason) per row; the blocks are let go."""
        if self.lone:
            return [(np.array(self.taus), np.array(self.states), self.status[0], self.reason[0])]
        rows = np.concatenate(self.landed)
        order = np.argsort(rows, kind="stable")  # each row's samples, in step order
        ends = np.cumsum(np.bincount(rows, minlength=len(self.status))).tolist()
        tau, state = np.concatenate(self.taus), np.concatenate(self.states)
        self.landed = self.taus = self.states = None
        # each row owns its arrays, so that one trajectory can go before the others
        return [(tau[order[a:b]], state[order[a:b]], status, reason)
                for a, b, status, reason in zip([0, *ends], ends, self.status, self.reason)]


def _integrate_engine(
    law: Callable[..., Callable[[np.ndarray], np.ndarray]],
    y0: np.ndarray,
    tau0: Sequence[float],
    cfgs: Sequence[IntegratorConfig],
    guard: DomainGuard,
) -> list[tuple[np.ndarray, np.ndarray, str, Optional[str]]]:
    """Integrate a batch of start states `y0` (N, 8) under one law.

    ``law(rows)`` is the right-hand side for the states of `rows`, an
    index array into the batch (``_make_rhs``).  A lone row (N = 1) steps
    on Python floats, whatever its method, with ``law(None)``, the
    right-hand side of its state as eight floats (``_make_lone_rhs``),
    and records its landed states as floats too.  Row i starts at
    ``tau0[i]`` with ``cfgs[i]``; the configs may differ only in
    ``tau_max``.  Each row keeps its own clock,
    step size, step count, status and record, and takes exactly the
    arithmetic it takes alone: a row whose stage or landed state leaves
    `guard`'s domain ends there, with the reason ``"<label>: <why>"``,
    while the others go on.  The live rows step as one state array
    (``_Rows``).  Returns, per row, its accepted proper times and states,
    the initial state included, with its status and reason.  A state that
    is not finite raises ``StepRejected``; the two callers keep numpy's
    warnings off, so that error is all one sees.
    """
    bad = _first_nonfinite(y0)
    if bad is not None:
        raise StepRejected(f"state became non-finite at tau = {tau0[bad]:g}")
    run = _Rows(law, y0, tau0, guard)
    run.keep([p for p, cfg in enumerate(cfgs) if cfg.tau_max - tau0[p] > 0])
    if cfgs[0].method == "rk4-fixed":
        run.rk4(tau0, cfgs)
    else:
        run.rk45(tau0, cfgs)
    return run.records()


def _trajectory(
    metric: MetricField, tau: np.ndarray, state: np.ndarray, status: str, reason: Optional[str]
) -> Trajectory:
    """The columns of one integration; the norm residual g(u, u) + 1 and the
    energy -u_0 come from one metric evaluation over the whole coordinate column.
    A huge velocity or coordinate overflows them to inf; its callers keep that quiet.
    """
    g = metric.matrix_fn(state[:, :DIM])
    if np.shape(g) not in ((DIM, DIM), (len(state), DIM, DIM)):
        raise ValueError(
            f"{metric.name}: matrix_fn returned shape {np.shape(g)} for {len(state)} events;"
            f" integration needs a matrix_fn that takes a batch (N, 4) of coordinates and"
            f" returns (N, 4, 4), or a constant (4, 4)"
        )
    u = state[:, DIM:]
    u_cov = _mv(g, u)
    # per event, the bits of the 1-D dot product u @ u_cov
    residual = np.matmul(u[:, None, :], u_cov[:, :, None])[:, 0, 0] + 1.0
    return Trajectory(tau, state, residual, -u_cov[:, 0], status, reason)


def integrate(
    c: NonLinearConnection, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the transport law from `initial` until tau_max.

    Samples include the initial state.  Domain exits during the run are
    reported through the trajectory status, not raised; an initial state
    already outside the domain raises ``OutsideDomain``.  The norm
    residual and energy columns come from one call of the metric's
    ``matrix_fn`` on the trajectory's ``(n, 4)`` coordinates, so it must
    take batch axes (or return a constant ``(4, 4)``), as the built-in
    metrics do; a wrong shape raises ``ValueError``.
    """
    return integrate_batch(c, particle, [initial], [cfg])[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_batch(
    c: NonLinearConnection,
    particle,
    initials: Sequence[PhaseState],
    cfgs: Sequence[IntegratorConfig],
    order0: Optional[np.ndarray] = None,
) -> list[Trajectory]:
    """Integrate several worldlines under one law as one (N, 8) batch.

    ``cfgs[i]`` goes with ``initials[i]``; the configs may differ only in
    ``tau_max``.  `particle` is one ``Particle`` for every row or a
    sequence of one per row: the mass scales the row's K0 term (the
    charge is already part of the connection's K0).  `order0`, when
    given, is each row's constant K0 block ``(N, 4, 4)``, e F of its own
    uniform field, in place of the connection's ``order0_raw``.  Every
    trajectory is bit-identical to ``integrate`` of its row alone (with
    its particle, and its K0 block as the connection's), status and
    samples included; one row leaving the domain never stops the others.
    An error that a lone run raises (a non-finite state, an unreachable
    tolerance) ends the whole batch.  The connection's evaluators must
    take a batch of coordinates, as the built-in ones do.  The engine
    gets the start states as one ``(N, 8)`` array; a single row runs on
    Python floats, as ``integrate`` does, and its metric still gets the
    batch call that fills the columns.  numpy's warnings are off for the
    whole call: a value that is not finite ends a row or raises, never warns.
    """
    n = len(cfgs)
    if len(initials) != n or not cfgs:
        raise ValueError("need one config per initial state, and at least one")
    particles = [particle] * n if isinstance(particle, Particle) else list(particle)
    if len(particles) != n:
        raise ValueError("need one particle, or one per initial state")
    if order0 is not None and np.shape(order0) != (n, DIM, DIM):
        raise ValueError(f"order0 must have shape ({n}, 4, 4), got {np.shape(order0)}")
    first = cfgs[0]
    if any(dataclasses.replace(cfg, tau_max=first.tau_max) != first for cfg in cfgs[1:]):
        raise ValueError("the configs of one batch may differ only in tau_max")
    for initial in initials:
        c.guard.check(initial.x)
    masses = np.array([p.mass for p in particles])

    def law(rows):
        row_order0 = None if order0 is None else order0[0 if rows is None else rows]
        if rows is None:  # the lone row, on Python floats
            return _make_lone_rhs(c.guard, _compile_lone_acceleration(c, masses[0], row_order0))
        return _make_rhs(c.guard, _compile_acceleration(c, masses[rows], row_order0))

    states = [np.concatenate([i.x.coords, i.u.components]) for i in initials]
    records = _integrate_engine(law, np.stack(states), [initial.tau for initial in initials],
                                cfgs, c.guard)
    return [_trajectory(c.metric, *record) for record in records]


def geodesic_integrate(
    g: MetricField, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Free fall in `g`: integrate under the metric's own connection."""
    return integrate(gravitational_connection(g), particle, initial, cfg)


# ---------------------------------------------------------------------------
# coordinate-time force extraction
# ---------------------------------------------------------------------------


def coordinate_force(traj: Trajectory, particle: Particle) -> list[tuple[float, np.ndarray]]:
    """d(m u^i)/dt along `traj` on a uniform coordinate-time grid.

    Since u^i equals gamma v^i, this is the coordinate force familiar
    from the low-velocity limit.  The samples are resampled onto a
    uniform grid in t with a cubic spline, then differenced (central in
    the interior, one-sided second order at the ends).  scipy's spline is
    imported at the first call, not with the package.
    """
    from scipy.interpolate import CubicSpline

    if len(traj) < 4:
        raise ValueError("need at least four samples for cubic resampling")
    t, u = traj.state[:, 0], traj.state[:, DIM + 1:]
    if np.any(np.diff(t) <= 0):
        raise NonMonotoneTime("coordinate time is not strictly increasing")
    momenta = particle.mass * u
    grid = np.linspace(t[0], t[-1], len(t))
    resampled = CubicSpline(t, momenta, axis=0)(grid)
    force = np.gradient(resampled, grid[1] - grid[0], axis=0)
    return [(float(tc), force[i]) for i, tc in enumerate(grid)]


# ---------------------------------------------------------------------------
# canonical-momentum (minimal-substitution) route
# ---------------------------------------------------------------------------


def _compile_canonical(
    a: VectorPotential, g: MetricField, m: float, e: float, a0: np.ndarray
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
           Callable[[list, list], list], Callable[[list, list], list]]:
    """(kinetic u of (coords, pi) on arrays, and on Python floats the kinetic
    u of (x, pi) and dpi/dtau of (x, u)), shaped once per route.

    The kinetic velocity is u^m = g^mn (pi_n - e (A_n - a0_n)) / m, with
    the potential anchored at its value `a0` at the start event.  On the flat
    chart eta is a +-1 diagonal, so the raise is a division by the signed
    mass m diag(eta), with the bits of eta @ ((pi - e A) / m) up to the
    sign of a zero, and the metric-gradient term of dpi/dtau, exactly
    zero there, is dropped.  Elsewhere the law is evaluated as written.
    An uncharged particle feels no potential gradient.  The kinetic u on
    arrays takes one event ``(4,)`` or every sample ``(n, 4)``.

    The float law takes and gives four floats per vector, and takes the
    array law's operations at one event in its order, so it has its bits.
    Each term is its float lane where it has one (the built-in potentials'
    values and gradients, the curved charts' inverse-metric rows) and is
    called on arrays otherwise (``_on_floats``), once per evaluation: a
    user potential, a wrapper, the uniform potential's values and the
    metric-gradient term (its 64 products on floats cost more than the
    einsum on arrays).  The contraction dA @ u is ``_mv_floats``, the
    order of numpy's 4x4 matrix-vector product.  Where Python floats
    raise, the array law evaluates that event (``_or_on_arrays``).
    """
    def values(coords):
        return a.values_fn(coords) - a0

    d_potential = a.deriv_fn or (lambda coords: _potential_deriv_raw(a, coords))
    values_floats, d_potential_floats, a0_floats = (
        _on_floats(a.values_fn), _on_floats(d_potential), a0.tolist())

    def kinetic_momentum(x, pi):  # pi - e (A - a0), on floats
        return [p - e * (v - b) for p, v, b in zip(pi, values_floats(x), a0_floats)]

    def lorentz(x, u):  # e (dA @ u), on floats
        return [e * w for w in _mv_floats(d_potential_floats(x), u)]

    if isinstance(g, FlatMetric):
        signed_mass = m * np.diag(MINKOWSKI)  # (-m, m, m, m)
        signed_masses = signed_mass.tolist()

        def kinetic_up(coords, pi):
            return (pi - e * values(coords)) / signed_mass

        def velocity(x, pi):
            return [p / s for p, s in zip(kinetic_momentum(x, pi), signed_masses)]

        if e == 0.0:
            zero = np.zeros(DIM)
            rate, rate_floats = (lambda coords, u: zero), (lambda x, u: [0.0] * DIM)
        else:
            rate, rate_floats = (lambda coords, u: e * (d_potential(coords) @ u)), lorentz
        return kinetic_up, _or_on_arrays(velocity, kinetic_up), _or_on_arrays(rate_floats, rate)

    inverse = g.inverse_raw
    raised = _raised_on_floats(g)
    d_metric = g.deriv_fn or (lambda coords: _metric_deriv_raw(g, coords, None))

    def kinetic_up(coords, pi):
        return _mv(inverse(coords), (pi - e * values(coords)) / m)

    def velocity(x, pi):
        return raised(x, [p / m for p in kinetic_momentum(x, pi)])

    def gravity(coords, u):
        return 0.5 * m * np.einsum("abs,a,b->s", d_metric(coords), u, u)

    gravity_floats = _on_floats(gravity)
    if e == 0.0:
        rate, rate_floats = gravity, gravity_floats
    else:

        def rate(coords, u):
            return gravity(coords, u) + e * (d_potential(coords) @ u)

        def rate_floats(x, u):
            return [s + t for s, t in zip(gravity_floats(x, u), lorentz(x, u))]

    return kinetic_up, _or_on_arrays(velocity, kinetic_up), _or_on_arrays(rate_floats, rate)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    check.  The law is compiled once per route (``_compile_canonical``):
    on the flat chart it evaluates neither the inverse metric nor the
    metric gradient.  A run of this route is one row, so it steps on
    Python floats: the right-hand side is the float lane's shell
    (``_make_lone_rhs``) with u recovered from pi, and the law on floats,
    each term on its float lane where it has one.  It probes the intersection of the metric's and the
    potential's guards once, and the run ends where either rejects a
    state.  The potential is anchored at the start
    event x0: the route evolves pi = m g u + e (A - A(x0)), a constant
    gauge change that leaves F and dpi/dtau as they are, so pi starts at m
    g u and never carries e A(x0), however far x0 is from the chart's
    origin.  Samples report the recovered kinetic velocity, recovered in
    one call over the recorded columns; a sample whose velocity is not
    finite raises ``StepRejected``, as a state that lands non-finite does.
    As in ``integrate_batch``, numpy's warnings are off for the whole call.
    """
    g.guard.check(initial.x)
    a.guard.check(initial.x)
    m = particle.mass
    e = particle.charge
    guard = g.guard.intersect(a.guard)
    x0 = initial.x.coords
    kinetic_up, velocity, momentum_rate = _compile_canonical(a, g, m, e, a.values_fn(x0))
    pi0 = m * (g.matrix_fn(x0) @ initial.u.components)
    lone = _make_lone_rhs(guard, momentum_rate, velocity)
    tau, state, status, reason = _integrate_engine(
        lambda rows: lone,
        np.concatenate([x0, pi0])[None], [initial.tau], [cfg], guard,
    )[0]
    # record the recovered kinetic velocity in place of the canonical momentum;
    # a potential that overflows at a sample (even the start event, where
    # A - A(x0) is inf - inf) recovers no velocity, and the run fails there
    state[:, DIM:] = kinetic_up(state[:, :DIM], state[:, DIM:])
    _require_finite(state, tau)
    return _trajectory(g, tau, state, status, reason)
