"""Momentum-affine connections: the transport kernel and its builders.

A connection is the pair of coefficient terms of the transport law

    du^a/dtau = K1^a_mn(x) u^m u^n + g^ab(x) K0_bn(x) u^n / m,

a zeroth-order term (``order0_raw``, the momentum-independent force) and
a first-order term (``order1_raw``, the momentum-linear geodesic term).
Both are stored contracted with the velocity, since that is all the law
reads of them: ``order0_raw(coords, u)`` is the covariant vector
K0_mn u^n, and ``order1_raw(coords, u)`` the raised vector
K1^a_mn u^m u^n (a caller that wants it covariant lowers it with the
metric).  The two physically distinguished builders are:

* ``gravitational_connection(g)``: K0 = 0 and K1 = -Gamma^a_mn, minus
  the connection coefficients of ``g``.  Transporting a particle's own
  momentum then reproduces geodesic motion exactly.
* ``electromagnetic_connection(F, e)``: K1 = 0 and K0 = e F, the
  Lorentz coupling.  Independent of momentum, hence of mass.

The gravitational builder sums the contracted term from the metric's
closed forms of g^-1 and dg when it has both
(``tensor.metric_contraction``, whose spec the transport law writes out
for a batch and for a lone trajectory alike), and otherwise builds the
symbols and contracts them.  The Lorentz term is always (e F) u on
arrays; it keeps F's spec (``tensor.spec``: a uniform field's rows, or
the gradient formula of ``curvature.faraday_field_of``) with the charge
bound, so the law's generated right-hand side writes the term out.

``superpose`` adds the terms so both forces act through a single law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curvature import christoffel_raw
from .errors import ValidationError
from .fields import AntisymmetricFaraday, FaradayField, require_antisymmetric
from .metrics import minkowski
from .tensor import (
    ClosedForm,
    Contracted,
    DomainGuard,
    EVERYWHERE,
    FlatMetric,
    MetricField,
    _finite_real,
    metric_contraction,
    spec,
    with_spec,
)

_EM_ANTISYMMETRY_TOL = 1e-10

RawTerm = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Particle:
    """Point test particle: strictly positive mass, finite charge."""

    mass: float
    charge: float = 0.0

    def __post_init__(self):
        _finite_real("particle mass", self.mass)
        _finite_real("particle charge", self.charge)
        if not self.mass > 0:
            raise ValidationError(f"particle mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class NonLinearConnection:
    """Coefficient terms of the transport law, plus the chart they live on.

    Both terms are evaluated at the contravariant velocity `u`:
    ``order0_raw(coords, u)`` gives the covariant K0_mn u^n and
    ``order1_raw(coords, u)`` the raised K1^a_mn u^m u^n.  ``None``
    stands for an identically zero term.  The built-in terms take one
    event ``(4,)`` with ``u (4,)`` or a batch ``(N, 4)`` of each, as
    their metric and field evaluators do.
    """

    metric: MetricField
    order0_raw: Optional[RawTerm] = None
    order1_raw: Optional[RawTerm] = None
    guard: DomainGuard = EVERYWHERE


def zero_connection(metric: Optional[MetricField] = None) -> NonLinearConnection:
    """The additive identity: both blocks vanish everywhere."""
    return NonLinearConnection(metric=metric or minkowski())


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v per event, for one event ``(4,)`` or a batch ``(N, 4)``: every
    event gets the bits of its own ``a @ v``."""
    return np.matmul(a, v[..., None])[..., 0]


def _quadratic(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k[a, m, n] u^m u^n with the bits of k.dot(u).dot(u) on every event.

    `u` is one event ``(4,)`` or a batch ``(N, 4)``.  Each inner product
    is a (1, 4) @ (4, 1) slice, the dot product that ``k.dot(u)`` takes
    per element on one event.
    """
    ku = np.matmul(k[..., None, :], u[..., None, None, :, None])[..., 0, 0]
    return np.matmul(ku, u[..., None])[..., 0]


def gravitational_connection(g: MetricField) -> NonLinearConnection:
    """Connection whose transport law is geodesic motion in `g`: K1 = -Gamma^a_mn.

    When ``g.inverse_fn`` and ``g.deriv_fn`` both carry a ``ClosedForm``
    spec, the term is summed from those two formulas over their nonzero
    entries (``tensor.metric_contraction``), with no symbols per point.
    Otherwise the symbols are assembled from g^-1 and dg and contracted
    twice with u.
    """
    inverse, dg = spec(g.inverse_fn), spec(g.deriv_fn)
    if isinstance(inverse, ClosedForm) and isinstance(dg, ClosedForm):
        term = metric_contraction(dg, inverse)
    else:

        def term(coords: np.ndarray, u: np.ndarray) -> np.ndarray:
            return -_quadratic(christoffel_raw(g, coords), u)

    return NonLinearConnection(metric=g, order1_raw=term, guard=g.guard)


def electromagnetic_connection(f: FaradayField, charge: float) -> NonLinearConnection:
    """Connection for the Lorentz coupling of charge `charge` to field `f`.

    The term K0_mn u^n is ``(e * F) @ u`` with F from ``f.matrix_fn``,
    and the antisymmetry check runs only where it can fail.  A
    user-supplied ``FaradayField`` is re-checked (to 1e-10) on every
    evaluation and raises ``MalformedFaraday`` on failure; an
    ``AntisymmetricFaraday`` (``uniform_faraday``, checked once when
    built, and ``faraday_field_of``, exact by construction) is used as
    it is, and its F's spec, with e bound, is the term's: the transport
    law writes the term out from it and never calls F's evaluator.
    """
    _finite_real("charge", charge)
    e = float(charge)
    matrix = f.matrix_fn

    if isinstance(f, AntisymmetricFaraday):

        def term(coords: np.ndarray, u: np.ndarray) -> np.ndarray:
            return _mv(e * matrix(coords), u)

        contracted = spec(matrix)
        if isinstance(contracted, Contracted):
            with_spec(term, contracted._replace(args=(e,)))

    else:

        def term(coords: np.ndarray, u: np.ndarray) -> np.ndarray:
            return _mv(e * require_antisymmetric(matrix(coords), f.name, _EM_ANTISYMMETRY_TOL), u)

    return NonLinearConnection(
        metric=minkowski(),
        order0_raw=term,
        guard=f.guard,
    )


def _sum_raw(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return lambda *args: a(*args) + b(*args)


def superpose(a: NonLinearConnection, b: NonLinearConnection) -> NonLinearConnection:
    """Termwise sum of two connections; guards intersect.

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

    return NonLinearConnection(
        metric=metric,
        order0_raw=_sum_raw(a.order0_raw, b.order0_raw),
        order1_raw=_sum_raw(a.order1_raw, b.order1_raw),
        guard=a.guard.intersect(b.guard),
    )
