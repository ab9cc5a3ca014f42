"""Electromagnetic field-strength matrices and vector potentials.

Sign convention (fixed package-wide, signature (-, +, +, +)): the
covariant field-strength matrix stores

    F_0i = -E_i        F_i0 = +E_i        F_ij = eps_ijk B_k

so that the transport law du_m/dtau = (e/m) F_mn u^n reproduces
d(m v)/dt = e (E + v x B) in the low-velocity limit.  The cyclotron and
linear-acceleration oracles in the test suite pin this choice.

Potentials are stored covariantly, A_m = (A_0, A_i), with F = dA, i.e.
F_mn = d_m A_n - d_n A_m.  For a static potential A_0 = -phi this gives
the usual E = -grad(phi).  The uniform field's F keeps its constant rows
as its spec (``tensor.Contracted``), from which the transport law writes
the Lorentz term (e F) u out.

Each closed form here (the Coulomb and axial potentials' values and
gradients and the Coulomb guard) is one formula, run on numpy columns or
on Python floats (``tensor.closed_form``, ``tensor.guard_probe``).  A
lone trajectory and the canonical-momentum route, which always steps
alone, run it on floats.  ``curvature.faraday_field_of`` gives a
potential's field the spec of its gradient formula.  The zero
potential and the uniform potential's constant gradient are
``tensor.constant`` evaluators, whose every entry is bound as it is.
The uniform potential's values ``x @ grad`` keep no spec: numpy sums
that vector-matrix product as a fused multiply-add chain, which Python
floats cannot take (there is no ``math.fma`` before Python 3.13), so
the route calls it on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import MalformedFaraday
from .tensor import (DIM, Contracted, DomainGuard, EVERYWHERE, closed_form, constant, guard_probe,
                     with_spec)

_ANTISYMMETRY_TOL = 1e-12


def matrix_from_eb(e_field, b_field) -> np.ndarray:
    """Covariant F_mn for uniform E and B three-vectors (Cartesian chart)."""
    ex, ey, ez = (float(v) for v in e_field)
    bx, by, bz = (float(v) for v in b_field)
    return np.array(
        [
            [0.0, -ex, -ey, -ez],
            [ex, 0.0, bz, -by],
            [ey, -bz, 0.0, bx],
            [ez, by, -bx, 0.0],
        ]
    )


def eb_from_matrix(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert matrix_from_eb: recover (E, B) from a covariant F_mn."""
    e_field = np.array([f[1, 0], f[2, 0], f[3, 0]])
    b_field = np.array([f[2, 3], -f[1, 3], f[1, 2]])
    return e_field, b_field


def require_antisymmetric(f: np.ndarray, name: str, tol: float = _ANTISYMMETRY_TOL) -> np.ndarray:
    """Return `f` unchanged, or raise ``MalformedFaraday`` if |f + f^T| exceeds `tol`.

    `f` is one matrix or a batch ``(..., 4, 4)``; the worst one counts.
    """
    gap = float(np.max(np.abs(f + f.swapaxes(-1, -2))))
    if gap > tol:
        raise MalformedFaraday(f"{name}: antisymmetry violated by {gap:.3e}")
    return f


@dataclass(frozen=True)
class FaradayField:
    """Antisymmetric covariant field strength as an evaluator over events.

    Consumers call ``matrix_fn`` on raw coordinates.  A plain
    ``FaradayField`` wraps a user-supplied evaluator, so every consumer
    re-checks antisymmetry on each evaluation.  The built-in evaluators
    take one event ``(4,)`` or a batch ``(..., 4)``, and carry a spec
    (``tensor.Contracted``: a uniform F's rows, or the gradient whose curl
    F is), from which the transport law writes (e F) u out without calling them.
    """

    matrix_fn: Callable[[np.ndarray], np.ndarray]
    guard: DomainGuard = EVERYWHERE
    name: str = "faraday"


@dataclass(frozen=True)
class AntisymmetricFaraday(FaradayField):
    """A field strength that is antisymmetric by construction.

    The package builds these itself: ``uniform_faraday`` checks its
    frozen matrix once, and ``faraday_field_of`` evaluates dA - dA^T,
    whose transpose negates it exactly in IEEE arithmetic.  Consumers
    skip the per-evaluation antisymmetry check for this type.
    """


def uniform_faraday(e_field=(0.0, 0.0, 0.0), b_field=(0.0, 0.0, 0.0)) -> AntisymmetricFaraday:
    """Constant E and B throughout a Cartesian chart (checked once, here)."""
    f = require_antisymmetric(matrix_from_eb(e_field, b_field), "uniform-eb")
    f.setflags(write=False)
    return AntisymmetricFaraday(with_spec(lambda c: f, Contracted(block=f.tolist())),
                                name="uniform-eb")


@dataclass(frozen=True)
class VectorPotential:
    """Covariant potential A_m as an evaluator over events.

    Consumers call ``values_fn`` and ``deriv_fn`` on raw coordinates and
    probe ``guard`` themselves.  ``deriv_fn`` optionally supplies closed-form gradients with layout
    ``out[m, n] = d A_n / d x^m``; built-in potentials carry one so that
    the derived field strength (and hence its closure residual) is exact
    for linear potentials.  Built-in evaluators take one event ``(4,)``
    or a batch ``(..., 4)``; a constant may be returned unbroadcast.  Most
    also carry a spec (``tensor.spec``), which the canonical-momentum
    route's generated right-hand side writes out; a callable without one
    is called on arrays.
    """

    values_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    guard: DomainGuard = EVERYWHERE
    name: str = "potential"


def zero_potential() -> VectorPotential:
    return VectorPotential(constant(np.zeros(DIM)), deriv_fn=constant(np.zeros((DIM, DIM))),
                           name="zero")


def uniform_field_potential(e_field=(0.0, 0.0, 0.0), b_field=(0.0, 0.0, 0.0)) -> VectorPotential:
    """Potential for uniform E and B in a Cartesian chart.

    A_0 = E . x  (so F_0i = -E_i) plus the symmetric gauge
    A_i = (B x r)_i / 2 for the magnetic part.  The potential is linear,
    so it is its constant gradient applied to the event: A_n = x^m d_m A_n.
    """
    ev = np.array([float(v) for v in e_field])
    bv = np.array([float(v) for v in b_field])
    # out[m, n] = d A_n / d x^m
    grad = np.zeros((DIM, DIM))
    grad[1:, 0] = ev
    grad[1:, 1:] = 0.5 * np.cross(bv, np.eye(3))  # row i: B x e_i / 2
    # c @ grad keeps no spec: numpy sums it as a fused multiply-add chain,
    # which Python floats cannot take
    return VectorPotential(lambda c: c @ grad, deriv_fn=constant(grad), name="uniform-eb-gauge")


def coulomb_potential(charge: float, radial_index: Optional[int] = None) -> VectorPotential:
    """Monopole potential A_0 = q / r.

    With ``radial_index=None`` the chart is Cartesian and r is the
    Euclidean radius; pass ``radial_index=1`` for spherical-type charts
    where the radius is a coordinate.
    """
    q = float(charge)

    if radial_index is None:

        def values(ops, c):
            _, x, y, z = c
            return (q / ops.sqrt(x * x + y * y + z * z),)

        def deriv(ops, c):
            # out[m, n] = d A_n / d x^m
            _, x, y, z = c
            r = ops.sqrt(x * x + y * y + z * z)
            r3 = r * r * r
            return -q * x / r3, -q * y / r3, -q * z / r3

        def admits(ops, c):
            _, x, y, z = c
            return ops.sqrt(x * x + y * y + z * z) > 1e-9

        def why(c):
            _, x, y, z = c
            return f"r = {math.sqrt(x * x + y * y + z * z):.3e} at the potential singularity"

        probe = guard_probe((admits, why))
        nonzero = ((1, 0), (2, 0), (3, 0))

    else:
        k = radial_index

        def values(ops, c):
            return (q / c[k],)

        def deriv(ops, c):
            return (-q / (c[k] * c[k]),)

        probe = guard_probe((lambda ops, c: c[k] > 1e-9,
                             lambda c: "radial coordinate at singularity"))
        nonzero = ((k, 0),)

    return VectorPotential(
        closed_form(((0,),), values), deriv_fn=closed_form(nonzero, deriv),
        guard=DomainGuard(probe, "coulomb"), name=f"coulomb(q={q:g})"
    )


def axial_magnetic_potential_spherical(b_strength: float) -> VectorPotential:
    """Asymptotically uniform magnetic field along the polar axis, spherical chart.

    A_phi = (B/2) r^2 sin^2(theta); the derived field strength falls off
    to the uniform Cartesian B_z = B far from the origin.  This is the
    standard axially symmetric test field on a black-hole chart.
    """
    B = float(b_strength)

    def values(ops, c):
        _, r, th, _ = c
        s = ops.sin(th)
        return (0.5 * B * r * r * (s * s),)

    def deriv(ops, c):
        # out[m, n] = d A_n / d x^m
        _, r, th, _ = c
        s = ops.sin(th)
        return B * r * (s * s), B * r * r * s * ops.cos(th)

    return VectorPotential(closed_form(((3,),), values),
                           deriv_fn=closed_form(((1, 3), (2, 3)), deriv), name=f"axial-b(B={B:g})")

