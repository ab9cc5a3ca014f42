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
event ``(4,)``, and on Python floats, in the generated right-hand side
of a lone trajectory.  The formula takes an ``ops`` namespace for its
square roots, sines and cosines: numpy itself, or math's functions.
Addition, subtraction, multiplication, division and the square root
round correctly both ways, and numpy's float64 sin and cos give math's
bits, so both runs give the same bits.  On floats the formulas and a
guard's admission tests run with math's operations (``_MATH_OPS``),
and where math raises (the sine or cosine of an infinite angle, a
division by zero) the event is evaluated again with numpy, whose NaN or
infinity is the answer.
``closed_form`` builds a potential's or a metric's evaluator from the
nonzero entries of its result (``filled``), ``constant`` one that gives
the same array at every event, ``metric_contraction`` a metric's
d_s g(u, u) or geodesic term from its closed forms, and ``guard_probe``
a guard's probe from its admission tests.  Each evaluator keeps its
spec (``spec``: a ``ClosedForm``, a ``Contracted`` or an
``Admission``), from which ``transport`` writes the law's right-hand
side out as one function per rendering (``compiled``), and
``float_probe`` runs a probe on floats.  A
field strength's spec is a ``Contracted`` too: the rows of a uniform F,
or the gradient whose curl F is (``curl_source`` writes e F u out from
that gradient's formula).  A callable without a spec is called on arrays.
"""

from __future__ import annotations

import functools
import itertools
import linecache
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


#: The spec of each evaluator built from a formula here, keyed by the
#: evaluator itself, so that a wrapper of it is never taken for it.
_SPECS = weakref.WeakKeyDictionary()
#: Tells apart the files that ``compiled`` gives generated source.
_GENERATED = itertools.count()


class ClosedForm(NamedTuple):
    """The spec of a ``closed_form`` evaluator: ``formula(ops, c)`` gives the
    entries at `indices`, in their order; every other entry is zero."""

    indices: tuple
    formula: Callable


class Contracted(NamedTuple):
    """The spec of a contracted term ``(coords, u) -> (4,)``, or of a field
    strength F, which the Lorentz term contracts with u.

    A ``metric_contraction`` keeps the ``ClosedForm``s of dg and of g^-1
    (if any) as `dg` and `inverse`.  A field strength keeps the constant
    rows of a uniform F as `block`, or the ``ClosedForm`` of the gradient
    dA whose curl F is as `curl`; the Lorentz term (e F) u keeps F's spec
    with the charge as `args`, ``(e,)``, and each row of it is summed as
    ``row_source`` sums it.
    """

    args: tuple = ()
    curl: Optional[ClosedForm] = None
    block: Optional[list] = None
    dg: Optional[ClosedForm] = None
    inverse: Optional[ClosedForm] = None


class Admission(NamedTuple):
    """The spec of a guard probe: its ``(admits, why)`` tests, in order.

    An event is admissible where every ``admits(ops, c)`` is true; a
    rejected event gets ``why(x)`` of the first test that rejects it,
    worded from its four Python floats.  ``EVERYWHERE`` has no tests.
    """

    tests: tuple


def with_spec(fn, spec):
    """Register `spec` (a ``ClosedForm``, ``Contracted`` or ``Admission``, or
    None) as `fn`'s spec; return `fn`."""
    _SPECS[fn] = spec
    return fn


def spec(fn):
    """The spec registered for `fn`, or None."""
    try:
        return _SPECS.get(fn)
    except TypeError:  # not weakly referenceable, so never registered
        return None


def compiled(source: str, name: str) -> Callable:
    """The function `name` that `source` defines, compiled under a filename of
    its own that ``linecache`` serves, so that a traceback or a profile
    shows the generated lines."""
    filename = f"<phasetransport-generated-{next(_GENERATED)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# ---------------------------------------------------------------------------
# closed forms: one formula, run on numpy columns or on Python floats


#: The ``ops`` the formulas and admission tests run with on Python floats;
#: on arrays they run with numpy.  math's sine and cosine raise at an
#: infinite angle, where numpy's give NaN.
_MATH_OPS = types.SimpleNamespace(sqrt=math.sqrt, sin=math.sin, cos=math.cos,
                                  logical_not=operator.not_)


def closed_form(indices, formula) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of a ``(4,)``, ``(4, 4)`` or ``(4, 4, 4)`` result that is
    zero but at `indices`, where ``formula(ops, c)`` gives its values in
    their order, from the four coordinate columns ``c``.

    On arrays the formula runs once with ``ops`` numpy and ``c`` the
    transposed coordinates, columns of a batch ``(..., 4)`` or the numpy
    scalars of one event ``(4,)``, and the result is ``(..., 4, ...)``.
    On one event's four Python floats it runs with math's operations
    (``ClosedForm``, its spec).  Each operation rounds the same way every
    time, so a row of a batch, a lone call and the floats get the same
    bits.
    """
    indices = tuple(tuple(i % DIM for i in index) for index in indices)

    def on_arrays(c: np.ndarray) -> np.ndarray:
        return filled(c.shape[:-1], indices, formula(np, c.T))

    return with_spec(on_arrays, ClosedForm(indices, formula))


def filled(lead: tuple, indices: tuple, values) -> np.ndarray:
    """The array ``lead + (4, ...)`` that is zero but at `indices`, where it
    holds `values`, numbers or columns over `lead`, in their order."""
    out = np.zeros(lead + (DIM,) * len(indices[0]))
    t = out.T
    for index, value in zip(indices, values):
        t[index[::-1]] = value
    return out


def constant(value) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator that gives the array `value`, frozen and unbroadcast, at
    every event.  Its spec is a ``ClosedForm`` over every entry, so each
    entry's bits are bound as they are, signed zeros included."""
    value = np.array(value, dtype=float)  # a copy: the caller's array stays writable
    value.setflags(write=False)
    entries = tuple(value.ravel().tolist())
    return with_spec(lambda c: value, ClosedForm(tuple(np.ndindex(value.shape)),
                                                 lambda ops, c: entries))


def row_source(products) -> str:
    """The source of the sum of one row's four products, in the order numpy's
    4x4 matrix-vector product sums it with the OpenBLAS it ships (0.3.31,
    x86-64): ((p0 + p2) + (p1 + p3)) + 0.0, zero products included, the
    last term turning a zero sum's sign to +0."""
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


#: The names of u's components in generated source.
U_NAMES = ("u0", "u1", "u2", "u3")


def metric_source(dg: tuple, v: list, inverse: tuple = (), w: list = ()) -> tuple[list, list]:
    """(lines, terms): the source of the sums d_s g(u, u) = dg[m, n, s] u^m u^n
    of a metric gradient that is zero but at the indices `dg`, where it holds
    the names `v`, with u named ``U_NAMES``; or, given g^-1's nonzero
    `inverse` entries named `w`, of K1 (u, u) = -Gamma^a_mn u^m u^n =
    g^ad (d_d g(u, u) / 2 - dg[d, n, m] u^n u^m).  Only nonzero entries
    are summed, in index order; a term with none is "0.0"."""
    u, at = U_NAMES, list(enumerate(dg))
    lines = [f"dgu{k} = {value} * {u[n]}" for (k, (_, n, _)), value in zip(at, v)]
    # dgu<k> enters both sums: dg[d, n, s] u^n u^s and dg[m, n, d] u^m u^n
    first = [[f"dgu{k} * {u[s]}" for k, (m, _, s) in at if m == d] for d in range(DIM)]
    second = [[f"dgu{k} * {u[m]}" for k, (m, _, s) in at if s == d] for d in range(DIM)]
    if not inverse:
        return lines, [" + ".join(q) or "0.0" for q in second]
    live = [d for d in range(DIM) if first[d] or second[d]]
    for d in live:  # d_d g(u, u) / 2 - dg[d, n, m] u^n u^m, without a half that is zero
        half = f"0.5 * ({' + '.join(second[d])})" if second[d] else ""
        lines.append(f"dgw{d} = {half}" + (f" - ({' + '.join(first[d])})" if first[d] else ""))
    rows = [[f"{value} * dgw{d}" for (b, d), value in zip(inverse, w) if b == a and d in live]
            for a in range(DIM)]
    return lines, [" + ".join(row) or "0.0" for row in rows]


@functools.cache
def _metric_sums(dg: tuple, inverse: tuple) -> Callable:
    """``metric_source``'s terms as a function of dg's values, g^-1's and u's, compiled once."""
    v, w = [f"v{k}" for k in range(len(dg))], [f"w{k}" for k in range(len(inverse))]
    lines, terms = metric_source(dg, v, inverse, w)
    body = "".join(f"    {line}\n" for line in lines + [f"return {', '.join(terms)}"])
    return compiled(f"def sums({', '.join([*v, *w, *U_NAMES])}):\n{body}", "sums")


def metric_contraction(dg: ClosedForm,
                       inverse: Optional[ClosedForm] = None) -> Callable[..., np.ndarray]:
    """The term ``(coords, u) -> (4,)`` d_s g(u, u) of the gradient whose spec
    is `dg`, or, given g^-1's, -Gamma(u, u) (``metric_source``), for one
    event or a batch: the formulas run as ``closed_form`` runs them, and
    the sums on the columns.  Its spec, ``Contracted(dg=, inverse=)``,
    lets the transport law write them out."""
    sums = _metric_sums(dg.indices, inverse.indices if inverse else ())

    def on_arrays(c: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape)
        w = () if inverse is None else inverse.formula(np, c.T)
        for a, term in enumerate(sums(*dg.formula(np, c.T), *w, *u.T)):
            out[..., a] = term
        return out

    return with_spec(on_arrays, Contracted(dg=dg, inverse=inverse))


def guard_probe(*tests) -> Callable[[np.ndarray], Optional[str]]:
    """A ``DomainGuard`` probe from its ``(admits, why)`` admission tests, in order.

    ``admits(ops, c)`` is true where an event is admissible, run as
    ``closed_form`` runs its formula; ``why(x)`` words the rejection of
    one event given as four Python floats.  The probe takes one event
    ``(4,)`` or a batch ``(..., 4)`` and runs every test with numpy: a
    batch that fails is probed again one event at a time, so the reason
    is the first rejected event's, from the first test that rejects it,
    worded as for that event alone.  Its spec is the tests' ``Admission``
    (``float_probe``); with no test it admits every event.
    """

    def probe(coords: np.ndarray) -> Optional[str]:
        if all(admits(np, coords.T).all() for admits, _ in tests):
            return None
        for row in coords.reshape(-1, DIM):
            for admits, why in tests:
                if not admits(np, row):
                    return why(row.tolist())
        return None

    return with_spec(probe, Admission(tests))


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
        """The guard of the events both admit: one ``guard_probe`` of both
        sides' tests where each has an ``Admission`` spec, or else each
        probe in turn, a batch that fails event by event."""
        label = f"{self.label} & {other.label}"
        a, b = spec(self.probe), spec(other.probe)
        if isinstance(a, Admission) and isinstance(b, Admission):
            return DomainGuard(guard_probe(*a.tests, *b.tests), label=label)

        def both(coords: np.ndarray) -> Optional[str]:
            why = self.probe(coords) or other.probe(coords)
            if why is None or coords.ndim == 1:
                return why
            return next(filter(None, map(both, coords.reshape(-1, DIM))), why)

        return DomainGuard(both, label=label)


#: Guard that admits every event.
EVERYWHERE = DomainGuard(guard_probe(), label="everywhere")


def float_probe(probe: Callable[[np.ndarray], Optional[str]]) -> Callable[[list], Optional[str]]:
    """`probe` of one event given as four Python floats, with the reason it
    gives on an array.

    A probe with an ``Admission`` spec runs its tests in order with math's
    operations (``_MATH_OPS``), and where math raises (the sine or cosine
    of an infinite angle) it is called on an array, as any other probe is.
    """
    admission = spec(probe)
    if not isinstance(admission, Admission):
        return lambda x: probe(np.array(x))
    tests = admission.tests

    def on_floats(x: list) -> Optional[str]:
        try:
            for admits, why in tests:
                if not admits(_MATH_OPS, x):
                    return why(x)
        except (ArithmeticError, ValueError):
            return probe(np.array(x))
        return None

    return on_floats


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
    guard : DomainGuard
        Admissible region of the chart.
    name : str
        Identifier used in labels and error messages.

    The built-in evaluators also take a batch ``coords (..., 4)`` and
    return ``(..., 4, 4)`` (``(..., 4, 4, 4)``), or a constant that
    broadcasts to it; batched integration relies on that.  When
    `inverse_fn` and `deriv_fn` are both ``closed_form`` evaluators, the
    geodesic term is summed from their formulas (``metric_contraction``).
    """

    matrix_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
