"""Core containers, the metric evaluator and its flat-chart type, the
builders of the built-in closed forms, and the central-difference stencil.

Everything lives on a four-dimensional manifold with metric signature
(-, +, +, +) and geometric units (c = 1).  Index variance is not tagged:
the slot that holds the components says it (a ``PhaseState``'s u is
contravariant, ``acceleration_terms`` returns covariant arrays).
Containers are immutable; the arrays they wrap are frozen on
construction, and a wrong shape or a component that is not finite raises
``ValidationError``.  They carry no arithmetic: array code works on the
raw components.  Every numerical derivative in the package is one call
of ``central_differences`` over raw coordinates.

Each built-in closed form is one formula over the coordinate columns,
written once and run two ways: on numpy columns, for a batch or one
event ``(4,)``, and on Python floats, for the lane that a lone
trajectory steps on (``with_floats``).  The formula takes an ``ops``
namespace for its square roots, sines and cosines: numpy itself, or
math's functions.  Addition, subtraction, multiplication, division and
the square root round correctly both ways, and numpy's float64 sin and
cos give math's bits, so both runs give the same bits.  A float lane
and a guard probe run with numpy's NaN for the sine or cosine of an
infinite angle (``_FLOAT_OPS``); the generated body of a lone
right-hand side calls the formulas with math's own (``_MATH_OPS``) and
evaluates an event where they raise again on arrays.
``closed_form`` builds a potential's or a metric's evaluator from the
nonzero entries of its result, ``columnwise`` a contracted geodesic
term, ``closed_form_curl`` the contracted Lorentz term of a
``closed_form`` gradient from that gradient's own formula, and
``guard_probe`` a guard's probe from its admission tests.  Each
evaluator keeps its spec (``spec``: a ``ClosedForm`` or a
``Contracted``), from which ``transport`` writes a lone right-hand side
out as one function.  A callable without a float lane is called on
arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
import types
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import OutsideDomain, SingularMetric, ValidationError

DIM = 4
#: Minkowski matrix for the (-, +, +, +) signature used throughout.
MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
MINKOWSKI.setflags(write=False)

#: Default relative step for first-order central differences.
FD_STEP_FIRST = float(np.cbrt(np.finfo(float).eps))
#: Coarser relative step for nested (second-level) differences.
FD_STEP_NESTED = float(np.finfo(float).eps ** 0.25)


#: The one-event Python-float lane of each evaluator that has one, keyed by
#: the evaluator itself, so that a wrapper of it is never taken for it.
_FLOAT_LANES = weakref.WeakKeyDictionary()
#: The spec of each evaluator built from a formula here, kept by the same rule.
_SPECS = weakref.WeakKeyDictionary()


class ClosedForm(NamedTuple):
    """The spec of a ``closed_form`` evaluator: ``formula(ops, c)`` gives the
    entries at `indices`, in their order; every other entry is zero."""

    indices: tuple
    formula: Callable


class Contracted(NamedTuple):
    """The spec of a contracted term ``(coords, u) -> (4,)`` on Python floats.

    ``terms(ops, c, u, *args)`` gives its four components (``columnwise``).
    A ``closed_form_curl`` term also keeps its gradient's ``ClosedForm`` as
    `curl`, and a uniform field's term is ``block @ u`` with `block` its
    constant rows, summed as ``connection._mv_floats`` sums them.
    """

    terms: Optional[Callable] = None
    args: tuple = ()
    curl: Optional[ClosedForm] = None
    block: Optional[list] = None


def with_floats(fn, lane, spec=None):
    """Register `lane` as `fn`'s lane for one event on Python floats, and
    `spec`, when given, as its spec; return `fn`.

    `lane` takes what `fn` takes for one event with each ``(4,)`` array
    as four Python floats, and gives what `fn` gives in Python floats (a
    vector as four, a matrix as four rows of four), with the same bits.
    """
    _FLOAT_LANES[fn] = lane
    if spec is not None:
        _SPECS[fn] = spec
    return fn


def _registered(registry, fn):
    try:
        return registry.get(fn)
    except TypeError:  # not weakly referenceable, so never registered
        return None


def float_lane(fn):
    """The lane that ``with_floats`` registered for `fn`, or None."""
    return _registered(_FLOAT_LANES, fn)


def spec(fn):
    """The ``ClosedForm`` or ``Contracted`` spec registered for `fn`, or None."""
    return _registered(_SPECS, fn)


# ---------------------------------------------------------------------------
# closed forms: one formula, run on numpy columns or on Python floats


def _nan_if_infinite(fn: Callable[[float], float]) -> Callable[[float], float]:
    """math's `fn` of one angle, NaN where the angle is infinite, as numpy gives it."""

    def angle_fn(a: float) -> float:
        try:
            return fn(a)
        except ValueError:
            return math.nan

    return angle_fn


#: The ``ops`` a closed form runs with on Python floats; on arrays it is numpy.
_FLOAT_OPS = types.SimpleNamespace(sqrt=math.sqrt, sin=_nan_if_infinite(math.sin),
                                   cos=_nan_if_infinite(math.cos), logical_not=operator.not_)
#: The same with math's own sine and cosine, which raise at an infinite angle.
_MATH_OPS = types.SimpleNamespace(sqrt=math.sqrt, sin=math.sin, cos=math.cos,
                                  logical_not=operator.not_)


@functools.cache
def _dense_lane_maker(indices: tuple) -> Callable:
    """``make(formula, ops) -> lane``, where ``lane(x)`` is the nested tuples of
    a result that is zero but at `indices`, where it holds ``formula(ops, x)``.

    The layout is written out as a literal and compiled once per `indices`.
    """

    def literal(prefix):
        if len(prefix) == len(indices[0]):
            return f"v{indices.index(prefix)}" if prefix in indices else "0.0"
        return "(" + ", ".join(literal(prefix + (i,)) for i in range(DIM)) + ")"

    names = "".join(f"v{k}, " for k in range(len(indices)))
    namespace: dict = {}
    exec(f"def make(formula, ops):\n"
         f"    def lane(x):\n"
         f"        {names}= formula(ops, x)\n"
         f"        return {literal(())}\n"
         f"    return lane\n", namespace)
    return namespace["make"]


def closed_form(indices, formula) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of a ``(4,)``, ``(4, 4)`` or ``(4, 4, 4)`` result that is
    zero but at `indices`, where ``formula(ops, c)`` gives its values in
    their order, from the four coordinate columns ``c``.

    On arrays the formula runs once with ``ops`` numpy and ``c`` the
    transposed coordinates, columns of a batch ``(..., 4)`` or the numpy
    scalars of one event ``(4,)``, and the result is ``(..., 4, ...)``.
    Its float lane runs it on one event's four Python floats with math's
    operations and gives nested tuples.  Each operation rounds the same
    way every time, so a row of a batch, a lone call and the lane get
    the same bits.
    """
    indices = tuple(tuple(i % DIM for i in index) for index in indices)
    shape = (DIM,) * len(indices[0])
    slots = [index[::-1] for index in indices]  # of out.T

    def on_arrays(c: np.ndarray) -> np.ndarray:
        out = np.zeros(c.shape[:-1] + shape)
        t = out.T
        for slot, value in zip(slots, formula(np, c.T)):
            t[slot] = value
        return out

    return with_floats(on_arrays, _dense_lane_maker(indices)(formula, _FLOAT_OPS),
                       ClosedForm(indices, formula))


def row_source(products) -> str:
    """The source of the sum of one row's four products, in the order numpy's
    4x4 matrix-vector product sums it with the OpenBLAS it ships (0.3.31,
    x86-64): ((p0 + p2) + (p1 + p3)) + 0.0, the last term turning a zero
    sum's sign to +0 (``connection._mv_floats``)."""
    p0, p1, p2, p3 = products
    return f"(({p0} + {p2}) + ({p1} + {p3})) + 0.0"


def curl_source(indices: tuple, v: list, u: list, e: str, z: str) -> tuple[list, list]:
    """(lines, rows): the source of the contracted e (dA[m, n] - dA[n, m]) u^n
    of a gradient dA that is zero but at `indices`, where it holds the names
    `v`, with u's components named `u` and the charge `e`.

    Every entry is written out, zeros included (a zero times an infinite
    component is a NaN): the `lines` set `z` to e * 0.0 and ``z<n>`` to
    z * u^n for each n that a zero entry needs.  Each row is summed as
    numpy sums it (``row_source``): the bits of ``(e * (dA - dA^T)) @ u``.
    """
    zeros = set()

    def entry(m, n):
        a, b = (v[indices.index(i)] if i in indices else "0.0" for i in ((m, n), (n, m)))
        if a == b == "0.0":
            zeros.add(n)
            return f"{z}{n}"
        return f"{e} * ({a} - {b}) * {u[n]}"

    rows = [row_source([entry(m, n) for n in range(DIM)]) for m in range(DIM)]
    used = sorted(zeros)
    lines = [f"{z} = {e} * 0.0"] if used else []
    return lines + [f"{z}{n} = {z} * {u[n]}" for n in used], rows


@functools.cache
def _curl_terms_maker(indices: tuple) -> Callable:
    """``make(formula) -> terms``, where ``terms(ops, c, u, e)`` is the
    contracted term of ``curl_source`` for the gradient that
    ``formula(ops, c)`` gives at `indices`.  Compiled once per `indices`."""
    v = [f"v{k}" for k in range(len(indices))]
    lines, rows = curl_source(indices, v, ["u0", "u1", "u2", "u3"], "e", "z")
    body = "".join(f"        {line}\n" for line in lines)
    namespace: dict = {}
    exec(f"def make(formula):\n"
         f"    def terms(ops, c, u, e):\n"
         f"        {', '.join(v)}, = formula(ops, c)\n"
         f"        u0, u1, u2, u3 = u\n"
         f"{body}"
         f"        return ({', '.join(rows)})\n"
         f"    return terms\n", namespace)
    return namespace["make"]


def closed_form_curl(gradient) -> Optional[Callable[..., np.ndarray]]:
    """The contracted term ``(coords, u, e) -> e (dA - dA^T) u`` of the
    closed-form gradient ``dA[..., m, n]`` that ``closed_form`` built, run
    as ``columnwise`` runs it, or None for any other callable (a wrapper
    of one included).  Its spec keeps the gradient's as ``curl``."""
    closed = spec(gradient)
    if not isinstance(closed, ClosedForm):
        return None
    return columnwise(_curl_terms_maker(closed.indices)(closed.formula), closed)


def columnwise(terms, curl: Optional[ClosedForm] = None) -> Callable[..., np.ndarray]:
    """The contracted term ``(coords, u, *args) -> (4,)`` whose four
    components are ``terms(ops, c, u, *args)``, from the four columns
    each of the coordinates and of u.

    It takes one event ``(4,)`` with ``u (4,)`` or a batch ``(N, 4)`` of
    each, run as ``closed_form`` runs its formula, and its float lane
    takes four Python floats each, so every way gets the same bits.  Its
    spec is ``Contracted(terms, curl=curl)``.
    """

    def on_arrays(c: np.ndarray, u: np.ndarray, *args) -> np.ndarray:
        out = np.empty(u.shape)
        out.T[:] = terms(np, c.T, u.T, *args)
        return out

    return with_floats(on_arrays, functools.partial(terms, _FLOAT_OPS),
                       Contracted(terms, curl=curl))


def guard_probe(admits, why) -> Callable[[np.ndarray], Optional[str]]:
    """A ``DomainGuard`` probe from its admission test and the reason it gives.

    ``admits(ops, c)`` is true where an event is admissible, run as
    ``closed_form`` runs its formula; ``why(x)`` words the rejection of
    one event given as four Python floats.  The probe takes one event
    ``(4,)`` or a batch ``(..., 4)``: a batch that fails is probed event
    by event, so the reason is the first rejected event's, worded as for
    that event alone.  The float lane probes one event.
    """

    def lane(x: list) -> Optional[str]:
        return None if admits(_FLOAT_OPS, x) else why(x)

    def probe(coords: np.ndarray) -> Optional[str]:
        if admits(np, coords.T).all():
            return None
        for row in coords.reshape(-1, DIM).tolist():
            reason = lane(row)
            if reason is not None:
                return reason
        return None

    return with_floats(probe, lane)


def _frozen(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"expected shape {shape}, got {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"components {bad.tolist()} of {arr.tolist()} are not finite")
    arr.setflags(write=False)
    return arr


def _finite_real(name: str, value) -> None:
    """Raise ``ValidationError`` naming `name` unless `value` is a finite real, not a bool.

    The bound is the largest float, so an int too large for one (say
    ``10**400``) is rejected here instead of overflowing in a later
    conversion; a NaN fails the comparison.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True, slots=True)
class SpacetimeEvent:
    """A point of the manifold, stored as four coordinates (x0..x3)."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(self.coords, (DIM,)))


@dataclass(frozen=True, slots=True)
class FourVector:
    """Four components; the slot that holds them says their variance."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, (DIM,)))


@dataclass(frozen=True)
class DomainGuard:
    """Validity predicate for field evaluation.

    ``probe`` takes raw coordinates, one event ``(4,)`` or a batch
    ``(..., 4)``, and returns None when every event is admissible, or a
    human-readable reason for the first rejected one.  ``check`` is the
    typed form for a single ``SpacetimeEvent``: it raises ``OutsideDomain``.
    """

    probe: Callable[[np.ndarray], Optional[str]]
    label: str = "domain"

    def check(self, x: SpacetimeEvent) -> None:
        why = self.probe(x.coords)
        if why is not None:
            raise OutsideDomain(f"{self.label}: {why}")

    def intersect(self, other: "DomainGuard") -> "DomainGuard":
        def both(coords: np.ndarray) -> Optional[str]:
            why = self.probe(coords) or other.probe(coords)
            if why is None or coords.ndim == 1:
                return why
            # a batch that fails is probed event by event, as ``guard_probe``
            # does, so the reason is its first rejected event's
            return next(filter(None, map(both, coords.reshape(-1, DIM))), why)

        a, b = float_lane(self.probe), float_lane(other.probe)
        if a is not None and b is not None:
            # the lane that admits everything adds nothing to the other
            with_floats(both, a if b is _admit else b if a is _admit else lambda x: a(x) or b(x))
        return DomainGuard(both, label=f"{self.label} & {other.label}")


def _admit(coords) -> None:
    return None


#: Guard that admits every event.
EVERYWHERE = DomainGuard(with_floats(_admit, _admit), label="everywhere")


@dataclass(frozen=True)
class MetricField:
    """Pseudo-Riemannian metric as an evaluator over events.

    Parameters
    ----------
    matrix_fn : callable
        Raw evaluator ``coords (4,) -> (4, 4) ndarray`` of covariant
        components g_{mu nu}.
    deriv_fn : callable, optional
        Closed-form first derivatives ``coords -> (4, 4, 4)`` with layout
        ``out[m, n, s] = d g_{mn} / d x^s``.  When absent, consumers fall
        back to central differences of `matrix_fn`.
    inverse_fn : callable, optional
        Closed-form inverse metric; defaults to numerical inversion.
    geodesic_fn : callable, optional
        Closed-form geodesic term ``(coords, u) -> (4,)``, the contracted
        -Gamma^a_mn u^m u^n at a contravariant `u`.  When absent, the
        gravitational connection assembles the symbols from `deriv_fn`
        (or differences) and `inverse_fn` and contracts them.
    guard : DomainGuard
        Admissible region of the chart.
    name : str
        Identifier used in labels and error messages.

    The built-in evaluators also take a batch ``coords (..., 4)`` and
    return ``(..., 4, 4)`` (``(..., 4, 4, 4)``), or a constant that
    broadcasts to it; batched integration relies on that.  A
    ``geodesic_fn`` takes one event ``(4,)`` with ``u (4,)`` or a batch
    ``(N, 4)`` of each, and gives every row of a batch the bits of its
    lone call.
    """

    matrix_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    geodesic_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    guard: DomainGuard = EVERYWHERE
    name: str = "metric"

    def inverse_raw(self, coords: np.ndarray) -> np.ndarray:
        if self.inverse_fn is not None:
            return self.inverse_fn(coords)
        g = self.matrix_fn(coords)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as err:
            raise SingularMetric(f"{self.name}: not invertible at {coords}") from err


@dataclass(frozen=True)
class FlatMetric(MetricField):
    """The Minkowski chart: g = eta exactly, at every event.

    ``metrics.minkowski()`` builds it.  The type is the flat-chart
    identity: consumers that can exploit a constant +-1 diagonal metric
    (the transport loop's index raising, ``superpose``, scenario
    resolution) test ``isinstance(g, FlatMetric)``.  It survives
    ``dataclasses.replace`` of the evaluators, which keeps the class.
    """


def central_differences(
    fn: Callable[[np.ndarray], np.ndarray],
    coords: np.ndarray,
    rel_step: float,
    step: Optional[float] = None,
    axis: int = 0,
) -> np.ndarray:
    """Second-order central differences of `fn` along each coordinate of one event.

    The step along x^s is `step`, or ``rel_step * max(1, |x^s|)``
    (``FD_STEP_FIRST`` for a first derivative, ``FD_STEP_NESTED`` for a
    difference of differences).  Each slice is ``(fn(x + h e_s) - fn(x -
    h e_s)) / (2 h)``; the slices stack along a new axis `axis` of the
    result, so ``out.take(s, axis)`` is the derivative along x^s.
    """
    shifted = coords.copy()
    slices = []
    for s in range(DIM):
        h = step if step is not None else rel_step * max(1.0, abs(coords[s]))
        shifted[s] = coords[s] + h
        plus = fn(shifted)
        shifted[s] = coords[s] - h
        minus = fn(shifted)
        shifted[s] = coords[s]
        slices.append((plus - minus) / (2.0 * h))
    return np.stack(slices, axis=axis)
