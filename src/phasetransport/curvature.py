"""Curvature and field-strength operators derived by differentiation.

The chain implemented here is: metric -> Christoffel symbols -> Ricci ->
scalar -> Einstein tensor -> divergence residual, and in the
electromagnetic sector: potential -> field strength -> closure residual.
Both residuals vanish identically in exact arithmetic for any smooth
input; numerically they shrink at second order in the differencing step,
which the checkers and tests rely on.

Index conventions:

    Gamma^a_mn   = g^ab (g_bm,n + g_bn,m - g_mn,b) / 2
    R_mn         = Gamma^a_mn,a - Gamma^a_ma,n
                   + Gamma^a_ba Gamma^b_mn - Gamma^a_bn Gamma^b_ma
    G_mn         = R_mn - g_mn R / 2          (no coupling constant)
    div(G)_n     = g^ma (G_mn,a - Gamma^l_ma G_ln - Gamma^l_na G_ml)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import SingularMetric
from .fields import AntisymmetricFaraday, VectorPotential
from .tensor import (
    DIM,
    FD_STEP_FIRST,
    FD_STEP_NESTED,
    MetricField,
    SpacetimeEvent,
    central_differences,
    closed_form_curl,
)

__all__ = [
    "christoffel_raw",
    "ricci_raw",
    "einstein_raw",
    "bianchi_residual",
    "faraday_matrix_raw",
    "closure_residual",
]

_DET_FLOOR = 1e-250


def _metric_deriv_raw(g: MetricField, coords: np.ndarray, step: Optional[float]) -> np.ndarray:
    """d g_mn / d x^s with layout [..., m, n, s]; closed form when available.

    `step` only controls the fallback differencing; a closed-form
    evaluator is exact and ignores it.  The fallback differences one
    event at a time, so a batch loops over its events.
    """
    if g.deriv_fn is not None:
        return g.deriv_fn(coords)
    if coords.ndim > 1:
        return np.stack([_metric_deriv_raw(g, row, step) for row in coords])
    return central_differences(g.matrix_fn, coords, FD_STEP_FIRST, step, axis=-1)


def christoffel_raw(g: MetricField, coords: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Mixed symbols Gamma^a_mn as a (..., 4, 4, 4) array indexed [..., a, m, n].

    `coords` is one event ``(4,)`` or a batch ``(N, 4)``; each event of a
    batch gets the same bits as on its own (the final product is one
    4x4 by 4x16 matrix product per event).
    """
    ginv = g.inverse_raw(coords)
    dg = _metric_deriv_raw(g, coords, step)
    # brackets[..., b, m, n] = g_bm,n + g_bn,m - g_mn,b
    brackets = dg + dg.swapaxes(-1, -2) - dg.swapaxes(-1, -3).swapaxes(-1, -2)
    flat = (0.5 * ginv) @ brackets.reshape(brackets.shape[:-2] + (DIM * DIM,))
    return flat.reshape(flat.shape[:-1] + (DIM, DIM))


def ricci_raw(g: MetricField, coords: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Ricci components R_mn from one central-difference level over the symbols."""
    gamma = christoffel_raw(g, coords, step)
    dgamma = central_differences(  # [a, m, n, s] = d_s Gamma^a_mn
        lambda c: christoffel_raw(g, c, step), coords, FD_STEP_NESTED, step, axis=-1
    )
    term1 = np.einsum("amna->mn", dgamma)
    term2 = np.einsum("aman->mn", dgamma)
    term3 = np.einsum("aba,bmn->mn", gamma, gamma)
    term4 = np.einsum("abn,bma->mn", gamma, gamma)
    return term1 - term2 + term3 - term4


def einstein_raw(g: MetricField, coords: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Trace-reversed Ricci, G_mn = R_mn - g_mn R / 2, no coupling factor."""
    r_mn = ricci_raw(g, coords, step)
    ginv = g.inverse_raw(coords)
    r_scalar = np.einsum("mn,mn->", ginv, r_mn)
    return r_mn - 0.5 * g.matrix_fn(coords) * r_scalar


def bianchi_residual(g: MetricField, x: SpacetimeEvent, step: Optional[float] = None) -> float:
    """max_n | divergence of the Einstein tensor | at `x`.

    Every differencing level in the chain scales with `step`, so halving
    it shrinks the residual by about four for smooth curved metrics.  For
    the flat default the residual is exactly zero.  An event outside the
    metric's guard raises ``OutsideDomain``; one where det g vanishes
    raises ``SingularMetric``.
    """
    g.guard.check(x)
    coords = x.coords
    det = np.linalg.det(g.matrix_fn(coords))
    if not np.isfinite(det) or abs(det) < _DET_FLOOR:
        raise SingularMetric(f"{g.name}: determinant {det:.3e} at {coords}")
    gamma = christoffel_raw(g, coords, step)
    ginv = g.inverse_raw(coords)
    g_here = einstein_raw(g, coords, step)
    dG = central_differences(  # [m, n, a] = d_a G_mn
        lambda c: einstein_raw(g, c, step), coords, FD_STEP_NESTED, step, axis=-1
    )
    cov = (
        dG
        - np.einsum("lma,ln->mna", gamma, g_here)
        - np.einsum("lna,ml->mna", gamma, g_here)
    )
    divergence = np.einsum("ma,mna->n", ginv, cov)
    return float(np.max(np.abs(divergence)))


# ---------------------------------------------------------------------------
# electromagnetic sector
# ---------------------------------------------------------------------------


def _potential_deriv_raw(a: VectorPotential, coords: np.ndarray, step: Optional[float] = None,
                         rel_step: float = FD_STEP_FIRST) -> np.ndarray:
    """d A_n / d x^m, layout [..., m, n]: the closed form, else central differences
    per event at `step` or `rel_step`; both transport routes use this one fallback."""
    if a.deriv_fn is not None:
        return a.deriv_fn(coords)
    if coords.ndim > 1:
        return np.stack([_potential_deriv_raw(a, row, step, rel_step) for row in coords])
    return central_differences(a.values_fn, coords, rel_step, step)


def faraday_matrix_raw(a: VectorPotential, coords: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Covariant F_mn = d_m A_n - d_n A_m at one event or a batch ``(N, 4)``;
    exact when A carries derivatives, else from ``_potential_deriv_raw``'s differences."""
    da = _potential_deriv_raw(a, coords, step)
    return da - da.swapaxes(-1, -2)


def faraday_field_of(a: VectorPotential) -> AntisymmetricFaraday:
    """Wrap a potential as a FaradayField evaluator (F = dA pointwise).

    dA - dA^T is exactly antisymmetric in IEEE arithmetic, so the result
    is marked as such and never re-checked.  When ``a.deriv_fn`` is a
    ``tensor.closed_form`` gradient (every built-in one that varies), the
    field also carries its Lorentz term in closed form, derived from that
    same formula (``tensor.closed_form_curl``), with the bits of
    ``(e * faraday_matrix_raw(a, coords)) @ u``.
    """
    return AntisymmetricFaraday(
        matrix_fn=lambda coords: faraday_matrix_raw(a, coords),
        guard=a.guard,
        name=f"d({a.name})",
        lorentz_fn=closed_form_curl(a.deriv_fn),
    )


def closure_residual(a: VectorPotential, x: SpacetimeEvent, step: Optional[float] = None) -> float:
    """max over index triples of | F_mn,a + F_na,m + F_am,n | for F = dA.

    Identically zero in exact arithmetic (the derived field strength has
    no four-divergence-free part to lose); numerically second order in
    `step`, and exactly zero for potentials whose field strength is
    uniform.
    """
    a.guard.check(x)

    def faraday(c):  # differenced again, so at the nested step
        da = _potential_deriv_raw(a, c, step, FD_STEP_NESTED)
        return da - da.swapaxes(-1, -2)

    dF = central_differences(faraday, x.coords, FD_STEP_NESTED, step)  # [a, m, n] = d_a F_mn
    cyclic = dF + dF.transpose(1, 2, 0) + dF.transpose(2, 0, 1)
    return float(np.max(np.abs(cyclic)))
