"""Worldline integration under a momentum-affine connection.

The integrated state is (x^m, u^m) with the four-velocity contravariant,
and the law is  du^a/dtau = K1^a_mn u^m u^n + g^ab K0_bn u^n / m.  The
connection stores both terms contracted with u: K1 raised, so the
geodesic term is the standard contravariant vector as it is, and K0
covariant, so only K0 u is raised here.
``_compile_acceleration`` compiles the law once per connection: which
blocks it has and how K0 is raised are decided there, so the
right-hand side does per-point work only.  On a curved chart g^-1 is
evaluated once per point, shared by the raise of K0 and a geodesic term
summed from its closed form; on the flat chart none is evaluated.

The row count alone picks how a run steps.  A batch steps on numpy
arrays, one state (N, 8) (``_rk4_step``, ``_rk45_step``, ``_make_rhs``,
``_compile_acceleration``).  A lone trajectory steps on Python floats,
eight per state, whatever its method or route (``_rk4_step_floats`` and
``_rk45_step_floats``).  Each method's two steps are generated from its
tableau (``_steppers``) in one expression order.  A lone
right-hand side is one generated function (``_LoneSource``,
``_lone_rhs``), compiled once per law shape: it unpacks the state,
probes the guard on floats once (``tensor.float_probe``), and writes
the law out in the array law's operations and order.  Each built-in
closed form, guard probe and inverse metric is one formula, run on
numpy columns or on Python floats (``tensor.closed_form``,
``tensor.constant``, ``tensor.guard_probe``); the generated body calls
a formula directly from its spec, once, and spells out a metric
gradient's sums (``tensor.metric_source``), a uniform field's block, a
Lorentz term's rows and the raise of K0 u.  A callable without a spec
is called on arrays, ``fn(np.array(x), np.array(u)).tolist()``.  Both
ways take the same IEEE operations in the same order, so a lone run has
the bits of its row in a batch; where Python floats raise and numpy
gives inf or NaN, the body's one ``except`` evaluates that state again
with the array law.

The equivalence of this contravariant form and a covariant one is
exercised by the canonical-momentum route below, which evolves the
covariant momentum pi = m u + e (A - A(x0)), the potential anchored at
the start event, and must land on the same worldline.
Its law is compiled once per route in the same way
(``_compile_canonical``), and the two routes differ only in that law:
a run of this route is always lone, so its right-hand side comes from
the same generator, with u recovered from pi in the body, and it shares
the engine.
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
import functools
import itertools
import math
import numbers
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .connection import NonLinearConnection, Particle, _mv, _quadratic, gravitational_connection
from .curvature import _metric_deriv_raw, _potential_deriv_raw
from .errors import NonMonotoneTime, OutsideDomain, StepRejected, ValidationError
from .fields import VectorPotential
from .tensor import (
    _MATH_OPS,
    DIM,
    EVERYWHERE,
    MINKOWSKI,
    U_NAMES,
    ClosedForm,
    Contracted,
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    _finite_real,
    compiled,
    curl_source,
    float_probe,
    metric_contraction,
    metric_source,
    row_source,
    spec,
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
    of a zero.  Elsewhere g^-1 is evaluated once per point for that
    raise, and a K1 summed from its closed form reads that evaluation.
    `coords` and `u` are a batch ``(N, 4)``: this is the law on arrays,
    and ``_lone_rhs`` falls back on it with a batch of one.  `mass`
    is the particle mass, one float or one per event ``(N,)``.  `order0`,
    when given, is the constant K0 block of each event ``(N, 4, 4)`` (or
    one ``(4, 4)`` for all), e F of a uniform field, contracted here as
    ``_mv(order0, u)`` in place of the connection's ``order0_raw``; a
    matrix-vector product per event has the bits of the lone one, so a
    row gets what it gets alone.
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
    summed = getattr(spec(o1), "inverse", None)  # the g^-1 that K1's sums read, if any
    shared = summed is not None and summed is spec(c.metric.inverse_fn)

    def both(coords, u):
        ginv = inverse(coords)  # once, for K1's sums too where they read it
        k1 = o1(coords, u, ginv) if shared else o1(coords, u)
        return k1 + _mv(ginv, o0(coords, u) * inv_mass)

    return both


def _on_floats(fn: Callable[..., np.ndarray]) -> Callable[..., list]:
    """`fn` of one event on Python floats, four per ``(4,)`` argument: `fn`
    called on arrays, for a callable without a spec."""
    return lambda *args: fn(*map(np.array, args)).tolist()


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


def _rejected_lone(y: list, reason: str) -> list:
    """``_rejected`` of one state held as eight Python floats."""
    return _rejected(np.array([y]), reason)[0].tolist()


@functools.cache
def _lone_rhs_maker(params: tuple, body: str) -> Callable:
    """``make(*values) -> rhs``: the lone right-hand side whose body is `body`,
    reading the names `params` bound to `values`.  Compiled once per law shape."""
    return compiled(f"def make({', '.join(params)}):\n    def rhs(y):\n{body}    return rhs\n",
                    "make")


class _LoneSource:
    """The source of one lone right-hand side, a function of the state held
    as eight Python floats, and the values of the names it reads.

    The body unpacks the state into x0..x3 and the route's momentum (u0..u3
    on the force route, p0..p3 on the canonical one), probes the guard on
    floats once (``tensor.float_probe``) and hands a rejected state to
    ``_rejected`` with the reason ``"<label>: <why>"``, as ``_make_rhs``
    does.  The law follows in the array law's operations and order: a
    closed form is its formula's call (``tensor.ClosedForm``, with math's
    own ``ops``, made once for every term that reads it), a metric
    contraction its sums, a constant block or a curl its rows, and any
    other callable one call on arrays (``_on_floats``).
    Where Python floats raise, the one ``except`` evaluates the state again
    with the route's array law.  Every constant and callable is a bound
    name, so the source depends on the law's shape alone and is compiled
    once per shape (``_lone_rhs_maker``).
    """

    def __init__(self, guard: DomainGuard, momentum: str):
        self.names = {"ops": _MATH_OPS}
        self.made = set()
        self.values = {}
        self.head = [f"x0, x1, x2, x3, {momentum}0, {momentum}1, {momentum}2, {momentum}3 = y"]
        self.lines = []
        probe = float_probe(guard.probe)
        if probe is not EVERYWHERE.probe:  # that probe admits everything
            self.made.add("c")
            self.head += [
                "c = (x0, x1, x2, x3)",
                f"why = {self.bind('probe', probe)}(c)",
                "if why is not None:",
                f"    return {self.bind('rejected', _rejected_lone)}"
                f"(y, f'{{{self.bind('label', guard.label)}}}: {{why}}')",
            ]

    def bind(self, name: str, value) -> str:
        self.names[name] = value
        return name

    def need(self, name: str) -> None:
        """Pack the coordinates as ``c`` or the velocity as ``u``, once."""
        if name not in self.made:
            self.made.add(name)
            parts = ("x0", "x1", "x2", "x3") if name == "c" else U_NAMES
            self.lines.append(f"{name} = ({', '.join(parts)})")

    def let(self, name: str, exprs) -> list:
        """Assign each expression to a name of its own; the names."""
        names = [f"{name}{n}" for n in range(len(exprs))]
        self.lines += [f"{n} = {expr}" for n, expr in zip(names, exprs)]
        return names

    def formula(self, closed: ClosedForm, name: str) -> list:
        """Call a closed form's formula at c, once; the names of its values."""
        if closed not in self.values:
            self.need("c")
            self.values[closed] = values = [f"{name}{k}" for k in range(len(closed.indices))]
            call = f"{self.bind(name + '_fn', closed.formula)}(ops, c)"
            self.lines.append(f"{', '.join(values)}, = {call}")
        return self.values[closed]

    def entries(self, fn: Callable, name: str, rank: int) -> list:
        """The entries of ``fn(c)``, a vector (`rank` 1) or the rows of a matrix
        (`rank` 2): a closed form's values and "0.0" elsewhere, or the
        entries of one call on floats."""
        index = list(itertools.product(range(DIM), repeat=rank))
        closed = spec(fn)
        if isinstance(closed, ClosedForm):
            at = dict(zip(closed.indices, self.formula(closed, name)))
            flat = [at.get(i, "0.0") for i in index]
        else:
            self.need("c")
            flat = [name + "".join(map(str, i)) for i in index]
            groups = [", ".join(flat[m:m + DIM]) for m in range(0, len(flat), DIM)]
            target = groups[0] if rank == 1 else ", ".join(f"({group})" for group in groups)
            self.lines.append(f"{target} = {self.bind(name + '_fn', _on_floats(fn))}(c)")
        return flat if rank == 1 else [flat[m:m + DIM] for m in range(0, len(flat), DIM)]

    def term(self, fn: Callable, name: str) -> list:
        """The four components of the contracted term ``fn(c, u)``."""
        contracted = spec(fn)
        if isinstance(contracted, Contracted) and contracted.block is not None:
            e, = contracted.args  # e F, entry by entry, as numpy scales it
            return self.block([[e * a for a in row] for row in contracted.block], name)
        if isinstance(contracted, Contracted) and contracted.curl is not None:
            e = self.bind(name + "_e", *contracted.args)
            lines, rows = curl_source(contracted.curl.indices,
                                      self.formula(contracted.curl, name), U_NAMES, e, name + "_z")
        elif isinstance(contracted, Contracted) and contracted.dg is not None:
            dg, inverse = contracted.dg, contracted.inverse
            lines, rows = metric_source(dg.indices, self.formula(dg, name), *(
                (inverse.indices, self.formula(inverse, "n")) if inverse else ()))
        else:
            self.need("c")
            self.need("u")
            rows = [f"{name}{n}" for n in range(DIM)]
            lines = [f"{', '.join(rows)} = {self.bind(name + '_fn', _on_floats(fn))}(c, u)"]
        self.lines += lines
        return rows

    def block(self, rows: list, name: str) -> list:
        """The four components of ``rows @ u`` for a constant matrix's rows."""
        return self.rows([[self.bind(f"{name}{m}{n}", a) for n, a in enumerate(row)]
                          for m, row in enumerate(rows)], U_NAMES)

    @staticmethod
    def rows(matrix: list, v) -> list:
        """``matrix @ v`` for a matrix's rows: each row summed in numpy's order."""
        return [row_source([f"{a} * {w}" for a, w in zip(row, v)]) for row in matrix]

    def function(self, rate: list, fallback: Callable[[list], list]) -> Callable[[list], list]:
        """The right-hand side ``[u0..u3, rate]``, with ``fallback(y)`` giving
        the eight rates on arrays where floats raise."""
        body = self.head + [
            "try:",
            *(f"    {line}" for line in self.lines),
            f"    return [{', '.join(U_NAMES)}, {', '.join(rate)}]",
            "except (ArithmeticError, ValueError):",
            f"    return {self.bind('fallback', fallback)}(y)",
        ]
        make = _lone_rhs_maker(tuple(self.names), "".join(f"        {line}\n" for line in body))
        return make(*self.names.values())


def _lone_rhs(
    c: NonLinearConnection, mass: float, order0: Optional[np.ndarray] = None
) -> Callable[[list], list]:
    """The force route's right-hand side of one state (x, u) held as eight
    Python floats, (dx/dtau, du/dtau) = (u, du/dtau), written out as one
    function (``_LoneSource``).

    It takes ``_compile_acceleration``'s operations in its order, one
    component at a time, so it has the bits of its batch-of-one row, and
    that law evaluates an event again where Python floats raise.  `order0`,
    when given, is the event's constant K0 block ``(4, 4)``.
    """
    arrays = _compile_acceleration(c, mass, order0)
    src = _LoneSource(c.guard, "u")
    k0 = k1 = None
    if order0 is not None:
        k0 = src.block(order0.tolist(), "k")
    elif c.order0_raw is not None:
        k0 = src.term(c.order0_raw, "k")
    if c.order1_raw is not None:
        k1 = src.term(c.order1_raw, "g")
    inv_mass = 1.0 / float(mass)
    if k0 is None:
        rate = ["0.0"] * DIM if k1 is None else k1
    elif k1 is None and isinstance(c.metric, FlatMetric):
        scale = (np.diag(MINKOWSKI) * inv_mass).tolist()  # eta / m, a per-row sign
        rate = [f"({a}) * {src.bind(f's{n}', s)}" for n, (a, s) in enumerate(zip(k0, scale))]
    else:
        w = src.let("w", [f"({a}) * {src.bind('inv_mass', inv_mass)}" for a in k0])
        raised = src.rows(src.entries(c.metric.inverse_fn or c.metric.inverse_raw, "n", 2), w)
        rate = raised if k1 is None else [f"({g}) + ({r})" for g, r in zip(k1, raised)]

    def fallback(y: list) -> list:
        return [*y[DIM:], *arrays(np.array([y[:DIM]]), np.array([y[DIM:]]))[0].tolist()]

    return src.function(rate, fallback)


# ---------------------------------------------------------------------------
# steppers
#
# Each method is written once, as its tableau: the source of its stages
# and results over the state {y}, the step h and the stage derivatives
# {k0}, {k1}, ..., in the method's own summation order.  ``_steppers``
# writes it out twice, over whole arrays for a batch (N, 8) with h a float
# or a column (n, 1), and over eight named Python floats for one state
# with a float step.  Every array operation is elementwise, so the one
# expression order gives a row of a batch the bits it gets alone.
# ---------------------------------------------------------------------------


def _steppers(scalars: tuple, stages: tuple, result: tuple) -> tuple[Callable, Callable]:
    """One method's ``step(rhs, y, h)`` on arrays and on floats, each compiled
    from its own source.

    `scalars` are lines over h alone.  {k0} is evaluated at {y} and {k<j>}
    at the state ``stages[j - 1]``; the step returns `result`, where ``s``,
    written without a field, is the last stage's state.  On floats,
    component i of {y}, {k<j>} and {s} is y_i, k<j>_i and s[i].
    """
    fields = ["y", *(f"k{j}" for j in range(len(stages) + 1))]

    def source(names: list) -> str:
        def spelled(template: str) -> str:
            each = [template.format(**n) for n in names]
            return each[0] if len(each) == 1 or "{" not in template else f"[{', '.join(each)}]"

        def unpacked(field: str) -> str:
            return ", ".join(n[field] for n in names)

        lines = list(scalars)
        if len(names) > 1:  # the eight floats by name
            lines.append(f"{unpacked('y')} = y")
        lines.append(f"{unpacked('k0')} = rhs(y)")
        for j, stage in enumerate(stages, 1):
            lines += [f"s = {spelled(stage)}", f"{unpacked(f'k{j}')} = rhs(s)"]
        lines.append(f"return {', '.join(map(spelled, result))}")
        return "def step(rhs, y, h):\n" + "".join(f"    {line}\n" for line in lines)

    arrays = [{"s": "s", **{f: f for f in fields}}]
    floats = [{"s": f"s[{i}]", **{f: f"{f}_{i}" for f in fields}} for i in range(2 * DIM)]
    return compiled(source(arrays), "step"), compiled(source(floats), "step")


# classical RK4, y + (h/6) (k0 + 2 k1 + 2 k2 + k3), in its summation order
_rk4_step, _rk4_step_floats = _steppers(
    ("half = 0.5 * h", "sixth = h / 6.0"),
    ("half * {k0} + {y}", "half * {k1} + {y}", "h * {k2} + {y}"),
    ("(2.0 * {k1} + {k0} + 2.0 * {k2} + {k3}) * sixth + {y}",))

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


def _weighted(pairs) -> str:  # each coefficient its exact literal
    return "h * (" + " + ".join(f"{a!r} * {{k{j}}}" for j, a in pairs) + ")"


# the 5th-order result and its difference from the 4th-order one
_rk45_step, _rk45_step_floats = _steppers(
    (), tuple(f"{{y}} + {_weighted(row)}" for row in _DP_A),
    ("s", f"{{s}} - ({{y}} + {_weighted(_DP_B4)})"))


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
    and its proper time are appended to two buffers of doubles, so that
    a sample costs 72 B while the run goes.  A batch steps on arrays:
    ``rows`` indexes the rows that still step (an index array into the
    batch), ``y`` holds their states in that order ``(n, 8)`` and
    ``rhs`` is ``law(rows)``, bound again whenever the set shrinks.
    ``ids`` lists the live rows as ints.  A row leaves the set when it
    ends, with its status and reason.  Each landing appends one block to
    the record: the rows that landed, their proper times and their
    states; ``records`` cuts each row's record from the blocks once, at
    the end, and hands a lone row's buffers over as arrays without a copy.
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
        if self.lone:
            self.taus, self.states = array("d", tau0[:1]), array("d", self.y)
        else:
            self.taus, self.states = [np.array(tau0, dtype=float)], [self.y]
        self.probe = float_probe(guard.probe) if self.lone else guard.probe

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
            y0, y1, y2, y3, y4, y5, y6, y7 = y_new
            if math.isnan(y0 * 0.0 + y1 * 0.0 + y2 * 0.0 + y3 * 0.0
                          + y4 * 0.0 + y5 * 0.0 + y6 * 0.0 + y7 * 0.0):
                raise StepRejected(f"state became non-finite at tau = {taus:g}")
            why = self.probe(y_new[:DIM])
            if why is not None:
                self.end(0, "domain-exit", f"{self.guard.label}: {why}")
                self.keep([])
                return
            self.y = y_new
            self.taus.append(taus)
            self.states.extend(y_new)
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
            # writable views of the buffers, which the canonical route writes u into
            state = np.frombuffer(self.states).reshape(-1, 2 * DIM)
            return [(np.frombuffer(self.taus), state, self.status[0], self.reason[0])]
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
    right-hand side of its state as eight floats (``_lone_rhs``),
    and appends its landed states and times to buffers of doubles, which
    become its columns without a copy.  Row i starts at
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
            return _lone_rhs(c, masses[0], row_order0)
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
    """d(m u^i)/dt along `traj`, at each sample's own coordinate time.

    Since u^i equals gamma v^i, this is the coordinate force familiar
    from the low-velocity limit.  The momenta are differenced against the
    samples' coordinate times, which need not be evenly spaced: central
    second order in the interior, one-sided second order at the ends.
    """
    if len(traj) < 3:
        raise ValueError("need at least three samples for second-order differences")
    t, u = traj.state[:, 0], traj.state[:, DIM + 1:]
    if np.any(np.diff(t) <= 0):
        raise NonMonotoneTime("coordinate time is not strictly increasing")
    force = np.gradient(particle.mass * u, t, axis=0, edge_order=2)
    return [(float(tc), force[i]) for i, tc in enumerate(t)]


# ---------------------------------------------------------------------------
# canonical-momentum (minimal-substitution) route
# ---------------------------------------------------------------------------


def _compile_canonical(
    a: VectorPotential, g: MetricField, m: float, e: float, a0: np.ndarray, guard: DomainGuard
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], Callable[[list], list]]:
    """(kinetic u of (coords, pi) on arrays, and the right-hand side of one
    state (x, pi) held as eight Python floats), shaped once per route.

    The kinetic velocity is u^m = g^mn (pi_n - e (A_n - a0_n)) / m, with
    the potential anchored at its value `a0` at the start event.  On the flat
    chart eta is a +-1 diagonal, so the raise is a division by the signed
    mass m diag(eta), with the bits of eta @ ((pi - e A) / m) up to the
    sign of a zero, and the metric-gradient term of dpi/dtau, exactly
    zero there, is dropped.  Elsewhere the law is evaluated as written,
    d_s g(u, u) summed over the nonzero entries of a closed-form dg.
    An uncharged particle feels no potential gradient.  The kinetic u on
    arrays takes one event ``(4,)`` or every sample ``(n, 4)``.

    The right-hand side (dx/dtau, dpi/dtau) = (u, dpi/dtau) is written out
    as one function (``_LoneSource``) in the array law's operations at one
    event, in its order, so it has its bits.  The potential's values and
    gradient and the curved charts' inverse metric and metric gradient are
    their closed forms' formulas where they have them, and one call each
    otherwise: a user potential or metric, a wrapper and the uniform
    potential's values are called on arrays.  The contraction dA @ u is
    summed in the order of numpy's 4x4 matrix-vector product.  Where
    Python floats raise, the array law, kinetic u and dpi/dtau of
    (coords, u), evaluates that event.
    """
    def values(coords):
        return a.values_fn(coords) - a0

    d_potential = a.deriv_fn or (lambda coords: _potential_deriv_raw(a, coords))
    src = _LoneSource(guard, "p")
    charge = src.bind("e", e)
    kinetic = [f"p{n} - {charge} * ({v} - {src.bind(f'a0_{n}', b)})"
               for n, (v, b) in enumerate(zip(src.entries(a.values_fn, "A", 1), a0.tolist()))]

    def lorentz():  # e (dA @ u)
        return [f"{charge} * ({w})" for w in src.rows(src.entries(d_potential, "dA", 2), U_NAMES)]

    if isinstance(g, FlatMetric):
        signed_mass = m * np.diag(MINKOWSKI)  # (-m, m, m, m)

        def kinetic_up(coords, pi):
            return (pi - e * values(coords)) / signed_mass

        def rate(coords, u):
            return np.zeros(DIM) if e == 0.0 else e * (d_potential(coords) @ u)

        src.let("u", [f"({q}) / {src.bind(f's{n}', s)}"
                      for n, (q, s) in enumerate(zip(kinetic, signed_mass.tolist()))])
        rate_floats = ["0.0"] * DIM if e == 0.0 else lorentz()
    else:
        inverse = g.inverse_raw
        dg = spec(g.deriv_fn)
        dg_uu = metric_contraction(dg) if isinstance(dg, ClosedForm) else (  # dg[m, n, s] u^m u^n
            lambda c, u: _quadratic(np.moveaxis(_metric_deriv_raw(g, c, None), -1, -3), u))
        half_m = 0.5 * m

        def kinetic_up(coords, pi):
            return _mv(inverse(coords), (pi - e * values(coords)) / m)

        def rate(coords, u):
            gravity = half_m * dg_uu(coords, u)
            return gravity if e == 0.0 else gravity + e * (d_potential(coords) @ u)

        w = src.let("w", [f"({q}) / {src.bind('m', m)}" for q in kinetic])
        src.let("u", src.rows(src.entries(g.inverse_fn or inverse, "n", 2), w))
        rate_floats = [f"{src.bind('half_m', half_m)} * ({q})" for q in src.term(dg_uu, "gr")]
        if e != 0.0:
            rate_floats = [f"{s} + ({t})" for s, t in zip(rate_floats, lorentz())]

    def fallback(y: list) -> list:
        coords = np.array(y[:DIM])
        u = kinetic_up(coords, np.array(y[DIM:]))
        return [*u.tolist(), *rate(coords, u).tolist()]

    return kinetic_up, src.function(rate_floats, fallback)


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
    Python floats, with a right-hand side generated as the force route's
    is (``_LoneSource``) that recovers u from pi in its body.  It probes
    the intersection of the metric's and the potential's guards once, and
    the run ends where either rejects a state.  The potential is anchored
    at the start event x0: the route evolves pi = m g u + e (A - A(x0)), a
    constant gauge change that leaves F and dpi/dtau as they are, so pi
    starts at m g u and never carries e A(x0), however far x0 is from the
    chart's origin.  Samples report the recovered kinetic velocity, recovered in
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
    kinetic_up, lone = _compile_canonical(a, g, m, e, a.values_fn(x0), guard)
    pi0 = m * (g.matrix_fn(x0) @ initial.u.components)
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
