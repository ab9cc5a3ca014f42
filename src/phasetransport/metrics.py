"""Built-in metrics with closed-form first derivatives.

Three charts ship with the package:

* ``minkowski()``      -- Cartesian (t, x, y, z), exact eta, as a ``FlatMetric``.
* ``schwarzschild(M)`` -- curvature coordinates (t, r, theta, phi),
  guarded to r > 2M(1 + 1e-6) and away from the polar axis.
* ``weak_field(M)``    -- Cartesian chart with g_00 = -(1 + 2 Phi),
  Phi = -M/r, spatial part exactly flat.

Each carries analytic derivative and inverse evaluators (``deriv_fn``,
``inverse_fn``), so that consumers avoid one level of numerical
differentiation; each chart writes g, g^-1 and dg once, and no Gamma:
the geodesic term and the canonical route's d_s g(u, u) are summed from
the closed forms of g^-1 and dg (``tensor.metric_contraction``).  Wrap
any of them with ``without_closed_form`` to exercise the
finite-difference fallbacks.

On the two curved charts each closed form (the metric, its inverse and
gradient, and the guard's admission tests) is one formula over the
coordinate columns, run on numpy columns for a batch or one event and
on Python floats from its spec (``tensor.closed_form``,
``tensor.guard_probe``); Minkowski's inverse is a ``tensor.constant``.
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

    return DomainGuard(guard_probe((admits, why)), label=f"schwarzschild(M={mass:g})")


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
        s, r2 = ops.sin(th), r * r
        f = 1.0 - 2.0 * M / r
        return -1.0 / f, f, 1.0 / r2, 1.0 / (r2 * (s * s))

    def deriv(ops, c):
        # out[m, n, s] = d g_mn / d x^s
        _, r, th, _ = c
        f = 1.0 - 2.0 * M / r
        minus_df, two_r = -(2.0 * M / (r * r)), 2.0 * r
        sin_th, cos_th = ops.sin(th), ops.cos(th)
        # r (sin cos) first, so that the last entry overflows only where its value does
        return (minus_df, minus_df / (f * f), two_r, two_r * (sin_th * sin_th),
                two_r * (r * (sin_th * cos_th)))

    return MetricField(
        matrix_fn=closed_form(_DIAGONAL, matrix),
        deriv_fn=closed_form(((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (3, 3, 2)), deriv),
        inverse_fn=closed_form(_DIAGONAL, inverse),
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

    return MetricField(
        matrix_fn=closed_form(_DIAGONAL, matrix),
        deriv_fn=closed_form(((0, 0, 1), (0, 0, 2), (0, 0, 3)), deriv),
        inverse_fn=closed_form(_DIAGONAL, inverse),
        guard=DomainGuard(guard_probe((outside, why)), label=f"weak-field(M={M:g})"),
        name=f"weak-field(M={M:g})",
    )


def without_closed_form(g: MetricField) -> MetricField:
    """Copy of `g` stripped to its bare matrix evaluator.

    Forces downstream code onto the finite-difference path (and the
    geodesic term onto the assembled symbols); used to test the
    documented looser tolerances for user-supplied metrics.
    """
    return MetricField(g.matrix_fn, guard=g.guard, name=f"{g.name} [numeric]")
