"""Core containers, the metric evaluator and its flat-chart type, and the
central-difference stencil.

Everything lives on a four-dimensional manifold with metric signature
(-, +, +, +) and geometric units (c = 1).  Index variance is not tagged:
the slot that holds the components says it (a ``PhaseState``'s u is
contravariant, ``acceleration_terms`` returns covariant arrays).
Containers are immutable; the arrays they wrap are frozen on
construction, and a wrong shape or a component that is not finite raises
``ValidationError``.  They carry no arithmetic: array code works on the
raw components.  Every numerical derivative in the package is one call
of ``central_differences`` over raw coordinates.

A built-in evaluator may also carry a lane for one event on Python
floats (``with_floats``), which a lone trajectory steps on; a
callable without one is called on arrays.
"""

from __future__ import annotations

import math
import numbers
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

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


def with_floats(fn, lane):
    """Register `lane` as `fn`'s lane for one event on Python floats; return `fn`.

    `lane` takes what `fn` takes for one event with each ``(4,)`` array
    as four Python floats, and gives what `fn` gives in Python floats (a
    vector as four, a matrix as four rows of four), with the same bits.
    """
    _FLOAT_LANES[fn] = lane
    return fn


def float_lane(fn):
    """The lane that ``with_floats`` registered for `fn`, or None."""
    try:
        return _FLOAT_LANES.get(fn)
    except TypeError:  # not weakly referenceable, so never registered
        return None


def sin_cos(th: float) -> tuple[float, float]:
    """(sin, cos) of one angle on Python floats, as np.sin and np.cos give them.

    numpy's float64 sin and cos give math's bits; math raises on an
    infinite angle, where numpy gives NaN, so that angle gives NaN here.
    """
    return (math.sin(th), math.cos(th)) if math.isfinite(th) else (math.nan, math.nan)


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
            return self.probe(coords) or other.probe(coords)

        a, b = float_lane(self.probe), float_lane(other.probe)
        if a is not None and b is not None:
            with_floats(both, lambda x: a(x) or b(x))
        return DomainGuard(both, label=f"{self.label} & {other.label}")


def batch_probe(
    one: Callable[[np.ndarray], Optional[str]], every: Callable[[np.ndarray], bool]
) -> Callable[[np.ndarray], Optional[str]]:
    """A guard probe for one event ``(4,)`` or a batch ``(..., 4)``.

    `one(x)` probes a single event given as four Python floats; it is
    also the probe's float lane.  `every(coords.T)` is the vectorized
    test that every event is admissible; coordinates that fail it are
    probed event by event, so the reason is the first offending event's,
    worded as for that event alone.
    """

    def probe(coords: np.ndarray) -> Optional[str]:
        if every(coords.T):
            return None
        for row in coords.reshape(-1, DIM).tolist():
            why = one(row)
            if why is not None:
                return why
        return None

    return with_floats(probe, one)


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


def euclidean_radius(ct: np.ndarray):
    """The radius sqrt(x^2 + y^2 + z^2) of Cartesian events.

    `ct` is one event ``(4,)`` or a transposed batch ``(4, ...)``, so
    ``ct[1]`` is x either way.  A square that overflows gives r = inf
    without a warning: one event is summed in Python floats, which never
    warn and round as numpy's scalars do; a batch turns numpy's overflow
    warning off.
    """
    if ct.ndim == 1:
        x, y, z = ct[1:].tolist()
        return np.float64(math.sqrt(x * x + y * y + z * z))
    with np.errstate(over="ignore"):
        return np.sqrt(ct[1] * ct[1] + ct[2] * ct[2] + ct[3] * ct[3])


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
