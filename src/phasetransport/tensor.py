"""Core tensor containers and pointwise operations.

Everything lives on a four-dimensional manifold with metric signature
(-, +, +, +) and geometric units (c = 1).  Index variance is tracked
explicitly: ``Variance.UP`` marks a contravariant slot, ``Variance.DOWN``
a covariant one.  Containers are immutable; the arrays they wrap are
frozen on construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import OutsideDomain, SingularMetric, VarianceMismatch

DIM = 4
#: Minkowski matrix for the (-, +, +, +) signature used throughout.
MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
MINKOWSKI.setflags(write=False)

#: Default relative step for first-order central differences.
FD_STEP_FIRST = float(np.cbrt(np.finfo(float).eps))
#: Coarser relative step for nested (second-level) differences.
FD_STEP_NESTED = float(np.finfo(float).eps ** 0.25)

_SYMMETRY_TOL = 1e-12
_DET_FLOOR = 1e-250


class Variance(enum.Enum):
    """Index variance tag: UP is contravariant, DOWN is covariant."""

    UP = "up"
    DOWN = "down"


def _frozen(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("components must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, slots=True)
class SpacetimeEvent:
    """A point of the manifold, stored as four coordinates (x0..x3)."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen(self.coords, (DIM,)))

    @property
    def t(self) -> float:
        return float(self.coords[0])

    def shifted(self, direction: int, amount: float) -> "SpacetimeEvent":
        """Return the event displaced by `amount` along coordinate `direction`."""
        out = self.coords.copy()
        out[direction] += amount
        return SpacetimeEvent(out)

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True, slots=True)
class FourVector:
    """Four components plus a variance tag.

    Adding vectors of mixed variance raises ``VarianceMismatch``; there is
    no implicit metric involved in arithmetic.
    """

    components: np.ndarray
    variance: Variance = Variance.UP

    def __post_init__(self):
        object.__setattr__(self, "components", _frozen(self.components, (DIM,)))
        if not isinstance(self.variance, Variance):
            raise TypeError("variance must be a Variance member")

    def __add__(self, other: "FourVector") -> "FourVector":
        if not isinstance(other, FourVector):
            return NotImplemented
        if other.variance is not self.variance:
            raise VarianceMismatch(
                f"cannot add {self.variance.value} and {other.variance.value} vectors"
            )
        return FourVector(self.components + other.components, self.variance)

    def __mul__(self, scalar: float) -> "FourVector":
        return FourVector(self.components * float(scalar), self.variance)

    __rmul__ = __mul__


def _check_symmetry(values: np.ndarray, symmetry: Optional[str]):
    if symmetry is None:
        return
    if symmetry == "symmetric":
        gap = np.max(np.abs(values - values.T))
    elif symmetry == "antisymmetric":
        gap = np.max(np.abs(values + values.T))
    else:
        raise ValueError(f"unknown symmetry mark {symmetry!r}")
    if gap > _SYMMETRY_TOL:
        raise ValueError(f"{symmetry} mark violated by {gap:.3e}")


@dataclass(frozen=True)
class Tensor2:
    """Dense rank-2 tensor with per-slot variance and an optional symmetry mark."""

    values: np.ndarray
    variance: tuple[Variance, Variance] = (Variance.DOWN, Variance.DOWN)
    symmetry: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, (DIM, DIM)))
        object.__setattr__(self, "variance", tuple(self.variance))
        if len(self.variance) != 2 or not all(isinstance(v, Variance) for v in self.variance):
            raise TypeError("variance must be two Variance members")
        _check_symmetry(self.values, self.symmetry)


@dataclass(frozen=True)
class Tensor3:
    values: np.ndarray
    variance: tuple[Variance, Variance, Variance] = (
        Variance.DOWN,
        Variance.DOWN,
        Variance.DOWN,
    )

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, (DIM, DIM, DIM)))
        object.__setattr__(self, "variance", tuple(self.variance))
        if len(self.variance) != 3 or not all(isinstance(v, Variance) for v in self.variance):
            raise TypeError("variance must be three Variance members")


@dataclass(frozen=True)
class Tensor4:
    values: np.ndarray
    variance: tuple[Variance, Variance, Variance, Variance] = (
        Variance.DOWN,
    ) * 4

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, (DIM,) * 4))
        object.__setattr__(self, "variance", tuple(self.variance))
        if len(self.variance) != 4 or not all(isinstance(v, Variance) for v in self.variance):
            raise TypeError("variance must be four Variance members")


@dataclass(frozen=True)
class DomainGuard:
    """Validity predicate for field evaluation.

    ``probe`` takes raw coordinates, one event ``(4,)`` or a batch
    ``(..., 4)``, and returns None when every event is admissible, or a
    human-readable reason for the first rejected one.  ``reason`` and
    ``check`` are the typed forms for a single ``SpacetimeEvent``.
    """

    probe: Callable[[np.ndarray], Optional[str]]
    label: str = "domain"

    def reason(self, x: SpacetimeEvent) -> Optional[str]:
        return self.probe(x.coords)

    def check(self, x: SpacetimeEvent) -> None:
        why = self.probe(x.coords)
        if why is not None:
            raise OutsideDomain(f"{self.label}: {why}")

    def intersect(self, other: "DomainGuard") -> "DomainGuard":
        def both(coords: np.ndarray) -> Optional[str]:
            return self.probe(coords) or other.probe(coords)

        return DomainGuard(both, label=f"{self.label} & {other.label}")


def batch_probe(
    one: Callable[[np.ndarray], Optional[str]], every: Callable[[np.ndarray], bool]
) -> Callable[[np.ndarray], Optional[str]]:
    """A guard probe for one event ``(4,)`` or a batch ``(..., 4)``.

    `one(coords)` probes a single event.  `every(coords.T)` is the
    vectorized test that every event of a batch is admissible; a batch
    that fails it is probed event by event, so its reason is the first
    offending event's, worded as for that event alone.
    """

    def probe(coords: np.ndarray) -> Optional[str]:
        if coords.ndim == 1:
            return one(coords)
        if every(coords.T):
            return None
        for row in coords.reshape(-1, DIM):
            why = one(row)
            if why is not None:
                return why
        return None

    return probe


#: Guard that admits every event.
EVERYWHERE = DomainGuard(lambda coords: None, label="everywhere")


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
    broadcasts to it; batched integration relies on that.
    """

    matrix_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    guard: DomainGuard = EVERYWHERE
    name: str = "metric"
    coordinate_names: tuple[str, str, str, str] = ("t", "x", "y", "z")

    #: Signature record, fixed package-wide.
    signature: tuple[int, int, int, int] = field(default=(-1, 1, 1, 1), init=False)

    # -- raw accessors (hot path, no container overhead) --------------------

    def matrix_raw(self, coords: np.ndarray) -> np.ndarray:
        return self.matrix_fn(coords)

    def deriv_raw(self, coords: np.ndarray) -> Optional[np.ndarray]:
        return None if self.deriv_fn is None else self.deriv_fn(coords)

    def inverse_raw(self, coords: np.ndarray) -> np.ndarray:
        if self.inverse_fn is not None:
            return self.inverse_fn(coords)
        g = self.matrix_fn(coords)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as err:
            raise SingularMetric(f"{self.name}: not invertible at {coords}") from err

    # -- typed accessors -----------------------------------------------------

    def matrix(self, x: SpacetimeEvent) -> Tensor2:
        """Covariant components at `x`, checked for symmetry and invertibility."""
        self.guard.check(x)
        g = self.matrix_fn(x.coords)
        det = np.linalg.det(g)
        if not np.isfinite(det) or abs(det) < _DET_FLOOR:
            raise SingularMetric(f"{self.name}: determinant {det:.3e} at {x.coords}")
        return Tensor2(g, (Variance.DOWN, Variance.DOWN), symmetry="symmetric")

    def inverse(self, x: SpacetimeEvent) -> Tensor2:
        self.matrix(x)  # runs the guard and the determinant check
        return Tensor2(self.inverse_raw(x.coords), (Variance.UP, Variance.UP),
                       symmetry="symmetric")

    def derivative(self, x: SpacetimeEvent, step: Optional[float] = None) -> Tensor3:
        """First derivatives d g_{mn} / d x^s as a rank-3 array [m, n, s]."""
        self.guard.check(x)
        if self.deriv_fn is not None:
            return Tensor3(self.deriv_fn(x.coords))
        out = np.empty((DIM, DIM, DIM))
        for s in range(DIM):
            h = step if step is not None else default_step(x.coords[s])
            out[:, :, s] = (
                self.matrix_fn(x.shifted(s, +h).coords)
                - self.matrix_fn(x.shifted(s, -h).coords)
            ) / (2.0 * h)
        return Tensor3(out)


@dataclass(frozen=True)
class FlatMetric(MetricField):
    """The Minkowski chart: g = eta exactly, at every event.

    The type is the flat-chart identity: consumers that can exploit a
    constant +-1 diagonal metric (the transport loop's index raising,
    ``superpose``, scenario resolution) test ``isinstance(g, FlatMetric)``.
    It survives ``dataclasses.replace`` of the evaluators, which keeps
    the class.
    """


def flat_metric() -> FlatMetric:
    """The Minkowski default: exact eta everywhere, trivially invertible."""
    eta = MINKOWSKI
    inv = MINKOWSKI  # its own inverse
    zeros = np.zeros((DIM, DIM, DIM))
    zeros.setflags(write=False)
    return FlatMetric(
        matrix_fn=lambda c: eta,
        deriv_fn=lambda c: zeros,
        inverse_fn=lambda c: inv,
        guard=EVERYWHERE,
        name="minkowski",
    )


def default_step(anchor: float) -> float:
    """Central-difference step: cube root of machine eps, scaled by coordinate size."""
    return FD_STEP_FIRST * max(1.0, abs(anchor))


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

TensorLike = Union[FourVector, Tensor2, Tensor3, Tensor4, float, np.ndarray]


def raise_index(t: Union[Tensor2, FourVector], g: MetricField, x: SpacetimeEvent):
    """Raise the first index with the inverse metric at `x`.

    A (DOWN, DOWN) rank-2 input becomes (UP, DOWN); a covariant vector
    becomes contravariant.
    """
    ginv = g.inverse(x).values
    if isinstance(t, FourVector):
        if t.variance is not Variance.DOWN:
            raise VarianceMismatch("raise_index expects a covariant vector")
        return FourVector(ginv @ t.components, Variance.UP)
    if isinstance(t, Tensor2):
        if t.variance[0] is not Variance.DOWN:
            raise VarianceMismatch("raise_index expects the first slot covariant")
        return Tensor2(ginv @ t.values, (Variance.UP, t.variance[1]))
    raise TypeError("raise_index handles FourVector and Tensor2")


def lower_index(t: Union[Tensor2, FourVector], g: MetricField, x: SpacetimeEvent):
    """Lower the first index with the metric at `x` (inverse of raise_index)."""
    gm = g.matrix(x).values
    if isinstance(t, FourVector):
        if t.variance is not Variance.UP:
            raise VarianceMismatch("lower_index expects a contravariant vector")
        return FourVector(gm @ t.components, Variance.DOWN)
    if isinstance(t, Tensor2):
        if t.variance[0] is not Variance.UP:
            raise VarianceMismatch("lower_index expects the first slot contravariant")
        return Tensor2(gm @ t.values, (Variance.DOWN, t.variance[1]))
    raise TypeError("lower_index handles FourVector and Tensor2")


def minkowski_norm(u: FourVector, g: MetricField, x: SpacetimeEvent) -> float:
    """Scalar g_{mn} u^m u^n; equals -1 for unit timelike tangents."""
    if u.variance is not Variance.UP:
        raise VarianceMismatch("minkowski_norm expects a contravariant vector")
    gm = g.matrix(x).values
    return float(u.components @ gm @ u.components)


def _values_of(obj: TensorLike):
    if isinstance(obj, (FourVector,)):
        return obj.components
    if isinstance(obj, (Tensor2, Tensor3, Tensor4)):
        return obj.values
    return np.asarray(obj, dtype=float)


def _rebuild_like(template: TensorLike, values):
    if isinstance(template, FourVector):
        return FourVector(values, template.variance)
    if isinstance(template, Tensor2):
        # a derivative need not inherit the symmetry mark
        return Tensor2(values, template.variance)
    if isinstance(template, Tensor3):
        return Tensor3(values, template.variance)
    if isinstance(template, Tensor4):
        return Tensor4(values, template.variance)
    if np.ndim(values) == 0:
        return float(values)
    return values


def partial_derivative(
    field_fn: Callable[[SpacetimeEvent], TensorLike],
    x: SpacetimeEvent,
    direction: int,
    step: Optional[float] = None,
) -> TensorLike:
    """Second-order central difference of a field along one coordinate.

    The default step is ``max(1, |x_direction|) * eps**(1/3)``; pass `step`
    to override.  The result has the shape and variance of the field values.
    """
    if not 0 <= direction < DIM:
        raise ValueError("direction must be 0..3")
    h = step if step is not None else default_step(x.coords[direction])
    plus = field_fn(x.shifted(direction, +h))
    minus = field_fn(x.shifted(direction, -h))
    diff = (_values_of(plus) - _values_of(minus)) / (2.0 * h)
    return _rebuild_like(plus, diff)
