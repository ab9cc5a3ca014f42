"""Built-in metrics with closed-form first derivatives.

Three charts ship with the package:

* ``minkowski()``      -- Cartesian (t, x, y, z), exact eta, as a ``FlatMetric``.
* ``schwarzschild(M)`` -- curvature coordinates (t, r, theta, phi),
  guarded to r > 2M(1 + 1e-6) and away from the polar axis.
* ``weak_field(M)``    -- Cartesian chart with g_00 = -(1 + 2 Phi),
  Phi = -M/r, spatial part exactly flat.

Each carries analytic derivative and inverse evaluators (``deriv_fn``,
``inverse_fn``) so that downstream consumers (Christoffel assembly, transport) avoid one level
of numerical differentiation.  The two curved charts also carry their
geodesic term -Gamma^a_mn u^m u^n in closed form (``geodesic_fn``), so
geodesic transport assembles no symbols at all.  Wrap any of them with
``without_closed_form`` to exercise the finite-difference fallbacks.

On the two curved charts each closed form (the metric, its inverse and
gradient, the geodesic term and the guard's admission tests) is one
formula over the coordinate columns, run on numpy columns for a batch
or one event and on Python floats from its spec (``tensor.closed_form``,
``tensor.columnwise``, ``tensor.guard_probe``); Minkowski's inverse is
a ``tensor.constant``.
A lone trajectory's generated right-hand side calls the inverse
metric's formula and raises K0 u with its rows, in numpy's own
summation order.  The canonical route's metric-gradient term stays on
arrays, one einsum per evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .tensor import (
    DIM,
    MINKOWSKI,
    DomainGuard,
    FlatMetric,
    MetricField,
    closed_form,
    columnwise,
    constant,
    guard_probe,
)

#: Relative safety margin kept outside the Schwarzschild horizon.
HORIZON_MARGIN = 1e-6
#: Polar-axis exclusion for spherical-type charts (sin(theta) floor).
AXIS_MARGIN = 1e-8


def minkowski() -> FlatMetric:
    """The flat chart: exact eta at every event, its own inverse, zero derivatives."""
    zeros = np.zeros((DIM, DIM, DIM))
    zeros.setflags(write=False)
    return FlatMetric(
        matrix_fn=lambda c: MINKOWSKI,
        deriv_fn=lambda c: zeros,
        inverse_fn=constant(MINKOWSKI),
        name="minkowski",
    )


def _schwarzschild_guard(mass: float) -> DomainGuard:
    r_min = 2.0 * mass * (1.0 + HORIZON_MARGIN)

    def admits(ops, c):  # a NaN radius is rejected, a NaN angle admitted
        return (c[1] > r_min) & ops.logical_not(abs(ops.sin(c[2])) < AXIS_MARGIN)

    def why(c):
        _, r, th, _ = c
        if not r > r_min:
            return f"r = {r:.6g} inside guarded radius {r_min:.6g}"
        return f"theta = {th:.6g} too close to the polar axis"

    return DomainGuard(guard_probe(admits, why), label=f"schwarzschild(M={mass:g})")


_DIAGONAL = ((0, 0), (1, 1), (2, 2), (3, 3))


def schwarzschild(mass: float = 1.0) -> MetricField:
    """Vacuum black-hole exterior in curvature coordinates (t, r, theta, phi).

    The evaluators take one event or a batch ``(..., 4)``.
    """
    if not mass > 0:
        raise ValidationError("metric mass must be positive")
    M = float(mass)

    def matrix(ops, c):
        _, r, th, _ = c
        s = ops.sin(th)
        f = 1.0 - 2.0 * M / r
        return -f, 1.0 / f, r * r, r * r * (s * s)

    def inverse(ops, c):
        _, r, th, _ = c
        s = ops.sin(th)
        f = 1.0 - 2.0 * M / r
        return -1.0 / f, f, 1.0 / (r * r), 1.0 / (r * r * (s * s))

    def deriv(ops, c):
        # out[m, n, s] = d g_mn / d x^s
        _, r, th, _ = c
        f = 1.0 - 2.0 * M / r
        df = 2.0 * M / (r * r)
        sin_th, cos_th = ops.sin(th), ops.cos(th)
        return (-df, -df / (f * f), 2.0 * r, 2.0 * r * (sin_th * sin_th),
                2.0 * r * r * sin_th * cos_th)

    def geodesic(ops, c, u):
        # the nine nonzero symbols: Gamma^t_tr = -Gamma^r_rr = k, Gamma^r_tt
        # = M f / r^2, Gamma^r_thth = -r f, Gamma^r_phph = -r f s^2,
        # Gamma^th_rth = Gamma^ph_rph = 1/r, Gamma^th_phph = -s cs and
        # Gamma^ph_thph = cs / s
        _, r, th, _ = c
        ut, ur, uth, uph = u
        s, cs = ops.sin(th), ops.cos(th)
        f = 1.0 - 2.0 * M / r
        k = M / (r * r * f)
        two_ur_r = 2.0 * ur / r
        uph2 = uph * uph
        return (
            -2.0 * k * ut * ur,
            k * ur * ur - M * f / (r * r) * ut * ut + r * f * (uth * uth + s * s * uph2),
            s * cs * uph2 - two_ur_r * uth,
            -(two_ur_r + 2.0 * cs / s * uth) * uph,
        )

    return MetricField(
        matrix_fn=closed_form(_DIAGONAL, matrix),
        deriv_fn=closed_form(((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (3, 3, 2)), deriv),
        inverse_fn=closed_form(_DIAGONAL, inverse),
        geodesic_fn=columnwise(geodesic),
        guard=_schwarzschild_guard(M),
        name=f"schwarzschild(M={M:g})",
    )


def weak_field(mass: float = 1.0) -> MetricField:
    """Newtonian-limit chart: g_00 = -(1 + 2 Phi) with Phi = -M/r, flat space part.

    The time-time component changes sign at r = 2M, so the same horizon
    guard as Schwarzschild applies.  Evaluators take one event or a batch.
    """
    if not mass > 0:
        raise ValidationError("metric mass must be positive")
    M = float(mass)
    r_min = 2.0 * M * (1.0 + HORIZON_MARGIN)

    def outside(ops, c):
        _, x, y, z = c
        return ops.sqrt(x * x + y * y + z * z) > r_min

    def why(c):
        _, x, y, z = c
        return f"r = {math.sqrt(x * x + y * y + z * z):.6g} inside guarded radius {r_min:.6g}"

    def matrix(ops, c):
        _, x, y, z = c
        return -(1.0 - 2.0 * M / ops.sqrt(x * x + y * y + z * z)), 1.0, 1.0, 1.0

    def inverse(ops, c):
        _, x, y, z = c
        return -1.0 / (1.0 - 2.0 * M / ops.sqrt(x * x + y * y + z * z)), 1.0, 1.0, 1.0

    def deriv(ops, c):
        # d g_00 / d x^i = -2 dPhi/dx^i = -2 M x_i / r^3
        _, x, y, z = c
        r = ops.sqrt(x * x + y * y + z * z)
        r3 = r * r * r
        return -2.0 * M * x / r3, -2.0 * M * y / r3, -2.0 * M * z / r3

    def geodesic(ops, c, u):
        # Gamma^i_00 = M x_i / r^3 and Gamma^0_0i = Gamma^i_00 / (1 - 2M/r)
        _, x, y, z = c
        ut, ux, uy, uz = u
        r = ops.sqrt(x * x + y * y + z * z)
        w = M / (r * r * r)
        a0 = -2.0 * w / (1.0 - 2.0 * M / r) * ut * (x * ux + y * uy + z * uz)
        wt2 = w * ut * ut
        return a0, -wt2 * x, -wt2 * y, -wt2 * z

    return MetricField(
        matrix_fn=closed_form(_DIAGONAL, matrix),
        deriv_fn=closed_form(((0, 0, 1), (0, 0, 2), (0, 0, 3)), deriv),
        inverse_fn=closed_form(_DIAGONAL, inverse),
        geodesic_fn=columnwise(geodesic),
        guard=DomainGuard(guard_probe(outside, why), label=f"weak-field(M={M:g})"),
        name=f"weak-field(M={M:g})",
    )


def without_closed_form(g: MetricField) -> MetricField:
    """Copy of `g` stripped to its bare matrix evaluator.

    Forces downstream code onto the finite-difference path (and the
    geodesic term onto the Christoffel assembly); used to test the
    documented looser tolerances for user-supplied metrics.
    """
    return MetricField(
        matrix_fn=g.matrix_fn,
        deriv_fn=None,
        inverse_fn=None,
        geodesic_fn=None,
        guard=g.guard,
        name=f"{g.name} [numeric]",
    )
