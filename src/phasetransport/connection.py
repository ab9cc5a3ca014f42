"""Momentum-affine connections: the transport kernel and its builders.

A connection here is the pair of coefficient fields in the momentum
expansion of the transport kernel

    f_mn(x; p) = order0_mn(x) + order1_mna(x) p^a

acting through  dp_m/dtau = f_mn(x; p) u^n.  Both coefficient blocks are
stored all-covariant; contractions take metric-raised momenta.  The two
physically distinguished builders are:

* ``gravitational_connection(g)``: order0 = 0 and order1_mna equal to
  minus the all-covariant connection coefficients of ``g`` (first slot
  lowered with the metric).  Transporting a particle's own momentum then
  reproduces geodesic motion exactly.
* ``electromagnetic_connection(F, e)``: order1 = 0 and order0 = e F, the
  Lorentz coupling.  Independent of momentum, hence of mass.

``superpose`` adds coefficient blocks so both forces act through a
single law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curvature import christoffel_raw
from .fields import AntisymmetricFaraday, FaradayField, require_antisymmetric
from .metrics import minkowski
from .tensor import (
    DIM,
    DomainGuard,
    EVERYWHERE,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    Tensor2,
    Tensor3,
    Variance,
)

_EM_ANTISYMMETRY_TOL = 1e-10

RawField2 = Callable[[np.ndarray], np.ndarray]
RawField3 = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Particle:
    """Point test particle: strictly positive mass, finite charge."""

    mass: float
    charge: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")


@dataclass(frozen=True)
class NonLinearConnection:
    """Coefficient fields of the transport kernel, plus the chart they live on.

    ``order0_raw`` and ``order1_raw`` evaluate the all-covariant blocks;
    ``None`` stands for an identically zero block.  ``order1_contra_raw``
    optionally evaluates the order-1 block with its first index already
    raised (for metric-built connections this is exactly the standard
    contravariant coefficient array, so the transport loop can use it
    without a lower/raise round trip).  The built-in blocks take one
    event ``(4,)`` or a batch ``(..., 4)``, as their metric and field
    evaluators do.
    """

    metric: MetricField
    order0_raw: Optional[RawField2] = None
    order1_raw: Optional[RawField3] = None
    order1_contra_raw: Optional[RawField3] = field(default=None, repr=False)
    guard: DomainGuard = EVERYWHERE
    label: str = "connection"

    def order0(self, x: SpacetimeEvent) -> Tensor2:
        """Momentum-independent block at `x` (zero tensor when absent)."""
        self.guard.check(x)
        vals = np.zeros((DIM, DIM)) if self.order0_raw is None else self.order0_raw(x.coords)
        return Tensor2(vals, (Variance.DOWN, Variance.DOWN))

    def order1(self, x: SpacetimeEvent) -> Tensor3:
        """Momentum-linear block at `x` (zero tensor when absent)."""
        self.guard.check(x)
        vals = (
            np.zeros((DIM, DIM, DIM)) if self.order1_raw is None else self.order1_raw(x.coords)
        )
        return Tensor3(vals, (Variance.DOWN, Variance.DOWN, Variance.DOWN))


def eval_connection(c: NonLinearConnection, x: SpacetimeEvent, p: FourVector) -> Tensor2:
    """Kernel f_mn(x; p) = order0_mn(x) + order1_mna(x) p^a, all-covariant.

    `p` must be contravariant; the result is exactly linear in `p` by
    construction.
    """
    if p.variance is not Variance.UP:
        raise ValueError("eval_connection expects a contravariant momentum")
    c.guard.check(x)
    out = np.zeros((DIM, DIM))
    if c.order0_raw is not None:
        out = out + c.order0_raw(x.coords)
    if c.order1_raw is not None:
        out = out + c.order1_raw(x.coords) @ p.components
    return Tensor2(out, (Variance.DOWN, Variance.DOWN))


def zero_connection(metric: Optional[MetricField] = None) -> NonLinearConnection:
    """The additive identity: both blocks vanish everywhere."""
    return NonLinearConnection(metric=metric or minkowski(), label="zero")


def gravitational_connection(g: MetricField) -> NonLinearConnection:
    """Connection whose transport law is geodesic motion in `g`.

    The stored covariant block is order1_mna = -g_mb Gamma^b_na; its
    raised counterpart -Gamma^a_mn feeds the transport loop directly.
    """

    def contra(coords: np.ndarray) -> np.ndarray:
        return -christoffel_raw(g, coords)

    def lowered(coords: np.ndarray) -> np.ndarray:
        gamma = christoffel_raw(g, coords)
        return -np.einsum("...mb,...bna->...mna", g.matrix_fn(coords), gamma)

    return NonLinearConnection(
        metric=g,
        order1_raw=lowered,
        order1_contra_raw=contra,
        guard=g.guard,
        label=f"gravity[{g.name}]",
    )


def electromagnetic_connection(f: FaradayField, charge: float) -> NonLinearConnection:
    """Connection for the Lorentz coupling of charge `charge` to field `f`.

    The antisymmetry check runs only where it can fail.  A user-supplied
    ``FaradayField`` is re-checked (to 1e-10) on every evaluation and
    raises ``MalformedFaraday`` on failure; an ``AntisymmetricFaraday``
    (``uniform_faraday``, checked once when built, and
    ``faraday_field_of``, exact by construction) is used as it is.
    """
    e = float(charge)
    if not np.isfinite(e):
        raise ValueError("charge must be finite")
    matrix = f.matrix_fn

    if isinstance(f, AntisymmetricFaraday):

        def block(coords: np.ndarray) -> np.ndarray:
            return e * matrix(coords)

    else:

        def block(coords: np.ndarray) -> np.ndarray:
            return e * require_antisymmetric(matrix(coords), f.name, _EM_ANTISYMMETRY_TOL)

    return NonLinearConnection(
        metric=minkowski(),
        order0_raw=block,
        guard=f.guard,
        label=f"lorentz[{f.name}, e={e:g}]",
    )


def _sum_raw(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return lambda coords: a(coords) + b(coords)


def superpose(a: NonLinearConnection, b: NonLinearConnection) -> NonLinearConnection:
    """Blockwise sum of two connections; guards intersect.

    Both operands must live on the same chart: at most one may carry a
    non-flat metric, which the sum inherits.
    """
    a_flat = isinstance(a.metric, FlatMetric)
    b_flat = isinstance(b.metric, FlatMetric)
    if not a_flat and not b_flat and a.metric is not b.metric:
        raise ValueError(
            f"cannot superpose connections on different charts: "
            f"{a.metric.name} vs {b.metric.name}"
        )
    metric = b.metric if a_flat and not b_flat else a.metric

    # the raised block can only be reused when no covariant order-1 data
    # from the other side would be silently dropped
    if a.order1_raw is None:
        contra = b.order1_contra_raw
    elif b.order1_raw is None:
        contra = a.order1_contra_raw
    elif a.order1_contra_raw is not None and b.order1_contra_raw is not None:
        contra = _sum_raw(a.order1_contra_raw, b.order1_contra_raw)
    else:
        contra = None

    return NonLinearConnection(
        metric=metric,
        order0_raw=_sum_raw(a.order0_raw, b.order0_raw),
        order1_raw=_sum_raw(a.order1_raw, b.order1_raw),
        order1_contra_raw=contra,
        guard=a.guard.intersect(b.guard),
        label=f"{a.label} + {b.label}",
    )
