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

A ``geodesic_fn`` here is one formula over the columns of its
arguments: a batch runs it on numpy columns (``np.sin``), one event
``(4,)`` on numpy scalars, and the term's float lane
(``tensor.with_floats``), which a lone trajectory steps on, on Python
floats (``math.sin``).  Each operation is the same correctly rounded
IEEE one every way, and numpy's float64 ``sin``/``cos`` give ``math``'s
bits, so a row of a batch gets the bits of its lone call.  The guards'
one-event probes have float lanes too, and so, for the two curved
charts, do the rows of the inverse metric: both are diagonal, and a
lone trajectory raises K0 u with those rows in numpy's own summation
order.
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
    batch_probe,
    euclidean_radius,
    sin_cos,
    with_floats,
)

#: Relative safety margin kept outside the Schwarzschild horizon.
HORIZON_MARGIN = 1e-6
#: Polar-axis exclusion for spherical-type charts (sin(theta) floor).
AXIS_MARGIN = 1e-8


def minkowski() -> FlatMetric:
    """The flat chart: exact eta at every event, its own inverse, zero derivatives."""
    zeros = np.zeros((DIM, DIM, DIM))
    zeros.setflags(write=False)
    rows = MINKOWSKI.tolist()
    return FlatMetric(
        matrix_fn=lambda c: MINKOWSKI,
        deriv_fn=lambda c: zeros,
        inverse_fn=with_floats(lambda c: MINKOWSKI, lambda x: rows),
        name="minkowski",
    )


def _schwarzschild_guard(mass: float) -> DomainGuard:
    r_min = 2.0 * mass * (1.0 + HORIZON_MARGIN)

    def one(c: list):
        _, r, th, _ = c
        if not r > r_min:
            return f"r = {r:.6g} inside guarded radius {r_min:.6g}"
        if abs(sin_cos(th)[0]) < AXIS_MARGIN:
            return f"theta = {th:.6g} too close to the polar axis"
        return None

    def every(ct: np.ndarray) -> bool:
        return (ct[1] > r_min).all() and not (np.abs(np.sin(ct[2])) < AXIS_MARGIN).any()

    return DomainGuard(batch_probe(one, every), label=f"schwarzschild(M={mass:g})")


def schwarzschild(mass: float = 1.0) -> MetricField:
    """Vacuum black-hole exterior in curvature coordinates (t, r, theta, phi).

    The evaluators take one event or a batch ``(..., 4)``; they write
    through transposed views (``c.T[1]`` is r for either shape), so one
    event costs about what a scalar formula does.
    """
    if not mass > 0:
        raise ValidationError("metric mass must be positive")
    M = float(mass)

    def matrix(c: np.ndarray) -> np.ndarray:
        ct = c.T
        r, s = ct[1], np.sin(ct[2])
        f = 1.0 - 2.0 * M / r
        g = np.zeros(c.shape[:-1] + (DIM, DIM))
        gt = g.T
        gt[0, 0] = -f
        gt[1, 1] = 1.0 / f
        gt[2, 2] = r * r
        gt[3, 3] = r * r * (s * s)
        return g

    def inverse(c: np.ndarray) -> np.ndarray:
        ct = c.T
        r, s = ct[1], np.sin(ct[2])
        f = 1.0 - 2.0 * M / r
        gi = np.zeros(c.shape[:-1] + (DIM, DIM))
        git = gi.T
        git[0, 0] = -1.0 / f
        git[1, 1] = f
        git[2, 2] = 1.0 / (r * r)
        git[3, 3] = 1.0 / (r * r * (s * s))
        return gi

    def inverse_rows(c: list):
        _, r, th, _ = c
        s = sin_cos(th)[0]
        f = 1.0 - 2.0 * M / r
        return ((-1.0 / f, 0.0, 0.0, 0.0), (0.0, f, 0.0, 0.0),
                (0.0, 0.0, 1.0 / (r * r), 0.0), (0.0, 0.0, 0.0, 1.0 / (r * r * (s * s))))

    def deriv(c: np.ndarray) -> np.ndarray:
        # out[..., m, n, s] = d g_mn / d x^s, written as d[s, n, m, ...]
        ct = c.T
        r, th = ct[1], ct[2]
        f = 1.0 - 2.0 * M / r
        df = 2.0 * M / (r * r)
        sin_th, cos_th = np.sin(th), np.cos(th)
        out = np.zeros(c.shape[:-1] + (DIM, DIM, DIM))
        d = out.T
        d[1, 0, 0] = -df
        d[1, 1, 1] = -df / (f * f)
        d[1, 2, 2] = 2.0 * r
        d[1, 3, 3] = 2.0 * r * (sin_th * sin_th)
        d[2, 3, 3] = 2.0 * r * r * sin_th * cos_th
        return out

    def terms(r, s, cs, ut, ur, uth, uph):
        # the nine nonzero symbols: Gamma^t_tr = -Gamma^r_rr = k, Gamma^r_tt
        # = M f / r^2, Gamma^r_thth = -r f, Gamma^r_phph = -r f s^2,
        # Gamma^th_rth = Gamma^ph_rph = 1/r, Gamma^th_phph = -s cs and
        # Gamma^ph_thph = cs / s
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

    def geodesic_floats(c: list, u: list):
        _, r, th, _ = c
        return terms(r, *sin_cos(th), *u)

    def geodesic(c: np.ndarray, u: np.ndarray) -> np.ndarray:
        ct = c.T
        out = np.empty(u.shape)
        out.T[:] = terms(ct[1], np.sin(ct[2]), np.cos(ct[2]), *u.T)
        return out

    return MetricField(
        matrix_fn=matrix,
        deriv_fn=deriv,
        inverse_fn=with_floats(inverse, inverse_rows),
        geodesic_fn=with_floats(geodesic, geodesic_floats),
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

    def one(c: list):
        _, x, y, z = c
        r = math.sqrt(x * x + y * y + z * z)
        if not r > r_min:
            return f"r = {r:.6g} inside guarded radius {r_min:.6g}"
        return None

    def diagonal(c: np.ndarray, g00) -> np.ndarray:
        g = np.zeros(c.shape[:-1] + (DIM, DIM))
        gt = g.T
        gt[0, 0] = g00
        gt[1, 1] = gt[2, 2] = gt[3, 3] = 1.0
        return g

    def matrix(c: np.ndarray) -> np.ndarray:
        return diagonal(c, -(1.0 - 2.0 * M / euclidean_radius(c.T)))

    def inverse(c: np.ndarray) -> np.ndarray:
        return diagonal(c, -1.0 / (1.0 - 2.0 * M / euclidean_radius(c.T)))

    def inverse_rows(c: list):
        _, x, y, z = c
        g00 = -1.0 / (1.0 - 2.0 * M / math.sqrt(x * x + y * y + z * z))
        return ((g00, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))

    def deriv(c: np.ndarray) -> np.ndarray:
        # d g_00 / d x^i = -2 dPhi/dx^i = -2 M x_i / r^3, written as d[i, 0, 0, ...]
        ct = c.T
        r = euclidean_radius(ct)
        r3 = r * r * r
        out = np.zeros(c.shape[:-1] + (DIM, DIM, DIM))
        d = out.T
        d[1, 0, 0] = -2.0 * M * ct[1] / r3
        d[2, 0, 0] = -2.0 * M * ct[2] / r3
        d[3, 0, 0] = -2.0 * M * ct[3] / r3
        return out

    def terms(r, x, y, z, ut, ux, uy, uz):
        # Gamma^i_00 = M x_i / r^3 and Gamma^0_0i = Gamma^i_00 / (1 - 2M/r)
        w = M / (r * r * r)
        a0 = -2.0 * w / (1.0 - 2.0 * M / r) * ut * (x * ux + y * uy + z * uz)
        wt2 = w * ut * ut
        return a0, -wt2 * x, -wt2 * y, -wt2 * z

    def geodesic_floats(c: list, u: list):
        _, x, y, z = c
        return terms(math.sqrt(x * x + y * y + z * z), x, y, z, *u)

    def geodesic(c: np.ndarray, u: np.ndarray) -> np.ndarray:
        ct = c.T
        out = np.empty(u.shape)
        out.T[:] = terms(euclidean_radius(ct), ct[1], ct[2], ct[3], *u.T)
        return out

    return MetricField(
        matrix_fn=matrix,
        deriv_fn=deriv,
        inverse_fn=with_floats(inverse, inverse_rows),
        geodesic_fn=with_floats(geodesic, geodesic_floats),
        guard=DomainGuard(
            batch_probe(one, lambda ct: (euclidean_radius(ct) > r_min).all()),
            label=f"weak-field(M={M:g})",
        ),
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
