"""The curved charts' first derivatives against a symbolic derivation.

Each chart writes dg once (``metrics.py``), and both the geodesic term
K1 (u, u) = -Gamma^a_mn u^m u^n and the canonical route's d_s g(u, u)
are summed from it (``tensor.metric_contraction``).  Here the textbook
Schwarzschild and weak-field metrics are written in sympy, Gamma is
derived from them by differentiation, and both sums are evaluated in
50-digit arithmetic at hypothesis-drawn admitted events.  The package's
three paths are held to them: the connection's term on a batch, the lone
right-hand side on Python floats, and the canonical route's sum.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.connection import gravitational_connection
from phasetransport.metrics import HORIZON_MARGIN, schwarzschild, weak_field
from phasetransport.tensor import DIM, metric_contraction, spec
from phasetransport.transport import _lone_rhs

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(float).eps)
#: Allowed error, in units of EPS times a sum's scale (``_derived``).
ULPS = 16.0


def _textbook(chart: str):
    """(coordinate symbols, mass symbol, diagonal g) of `chart`."""
    M = sympy.Symbol("M", positive=True)
    if chart == "schwarzschild":
        t, r, th, ph = xs = sympy.symbols("t r theta phi", real=True)
        f = 1 - 2 * M / r
        return xs, M, sympy.diag(-f, 1 / f, r**2, r**2 * sympy.sin(th) ** 2)
    t, x, y, z = xs = sympy.symbols("t x y z", real=True)
    phi = -M / sympy.sqrt(x**2 + y**2 + z**2)  # the Newtonian potential
    return xs, M, sympy.diag(-(1 + 2 * phi), 1, 1, 1)


@functools.cache
def _derived(chart: str):
    """(K1 (u, u), d_s g(u, u), their scales) of `chart` as 50-digit
    functions of (M, x, u), from
    Gamma^a_mn = g^ad (d_m g_dn + d_n g_dm - d_d g_mn) / 2.

    A sum's scale is the largest, over its components, of the sum of its
    terms' sizes, |Gamma^a_mn u^m u^n| or |d_s g_mn u^m u^n|."""
    xs, M, g = _textbook(chart)
    us = sympy.symbols("u0:4", real=True)
    ginv = g.inv()
    dg = [[[sympy.diff(g[m, n], xs[s]) for s in range(DIM)] for n in range(DIM)]
          for m in range(DIM)]
    gamma = [[[sum(ginv[a, d] * (dg[d][n][m] + dg[d][m][n] - dg[m][n][d]) / 2
                   for d in range(DIM)) for n in range(DIM)] for m in range(DIM)]
             for a in range(DIM)]
    k1 = [-sum(gamma[a][m][n] * us[m] * us[n] for m in range(DIM) for n in range(DIM))
          for a in range(DIM)]
    dguu = [sum(dg[m][n][s] * us[m] * us[n] for m in range(DIM) for n in range(DIM))
            for s in range(DIM)]
    k1_scale = [sum(abs(gamma[a][m][n] * us[m] * us[n]) for m in range(DIM)
                    for n in range(DIM)) for a in range(DIM)]
    dg_scale = [sum(abs(dg[m][n][s] * us[m] * us[n]) for m in range(DIM) for n in range(DIM))
                for s in range(DIM)]
    args = (M, *xs, *us)
    return tuple(sympy.lambdify(args, e, modules="mpmath")
                 for e in (k1, dguu, k1_scale, dg_scale))


def _exact(chart: str, mass: float, coords, u):
    """(K1 (u, u), d_s g(u, u), K1's scale, d_s g(u, u)'s scale) at one
    event, each rounded to floats from 50 digits."""
    with mpmath.workdps(50):
        args = [mpmath.mpf(float(v)) for v in (mass, *coords, *u)]
        k1, dguu, k1_scale, dg_scale = (fn(*args) for fn in _derived(chart))
        return (np.array([float(v) for v in k1]), np.array([float(v) for v in dguu]),
                float(max(k1_scale)), float(max(dg_scale)))


def _event(chart: str, mass: float, r: float, a: float, b: float, t: float):
    """An event of `chart` at radius r: (t, r, theta = a, phi = b) on
    Schwarzschild, the Cartesian point at polar angle a and azimuth b on
    the weak field."""
    if chart == "schwarzschild":
        return np.array([t, r, a, b])
    s = np.sin(a)
    return np.array([t, r * s * np.cos(b), r * s * np.sin(b), r * np.cos(a)])


CHARTS = {"schwarzschild": schwarzschild, "weak-field": weak_field}

#: Admitted events: radii from just outside the guarded horizon margin to
#: far away, angles off the polar axis, and four-velocities of either sign.
#: Near r = 2M the float f = 1 - 2M/r keeps only the digits 2M/r leaves,
#: so the bound grows with 1/f there (``_tolerance``).
_EVENTS = st.lists(
    st.tuples(
        st.floats(2.0 * (1.0 + 2.0 * HORIZON_MARGIN), 1e4),  # r / M
        st.floats(0.01, np.pi - 0.01),
        st.floats(-np.pi, np.pi),
        st.floats(-1e3, 1e3),
        st.lists(st.floats(-5.0, 5.0), min_size=DIM, max_size=DIM),
    ),
    min_size=1, max_size=6,
)


def _tolerance(mass: float, r: float, scale: float) -> float:
    """ULPS rounding errors of the event's scale, times f's condition 1/f,
    and no less than the smallest normal double (a subnormal u keeps no
    relative precision)."""
    f = 1.0 - 2.0 * mass / r
    return ULPS * EPS * scale / f + np.finfo(float).tiny


def _assert_close(got, want, tol):
    assert np.all(np.abs(np.asarray(got) - want) <= tol), (got, want, tol)


@pytest.mark.parametrize("chart", sorted(CHARTS))
@settings(max_examples=40, deadline=None)
@given(mass=st.floats(0.25, 8.0), events=_EVENTS)
def test_derived_geodesic_and_metric_gradient_sums_match_the_textbook_metric(
        chart, mass, events):
    g = CHARTS[chart](mass)
    conn = gravitational_connection(g)
    lone = _lone_rhs(conn, 1.0)  # K1 alone: a neutral particle's du/dtau
    dg_uu = metric_contraction(spec(g.deriv_fn))
    coords = np.array([_event(chart, mass, rm * mass, a, b, t) for rm, a, b, t, _ in events])
    u = np.array([ev[4] for ev in events])
    assert all(g.guard.probe(c) is None for c in coords)
    batch_k1, batch_dg = conn.order1_raw(coords, u), dg_uu(coords, u)
    for i, (rm, *_rest) in enumerate(events):
        k1, dguu, k1_scale, dg_scale = _exact(chart, mass, coords[i], u[i])
        tol = _tolerance(mass, rm * mass, k1_scale)
        _assert_close(batch_k1[i], k1, tol)
        _assert_close(lone([*coords[i].tolist(), *u[i].tolist()])[4:], k1, tol)
        _assert_close(batch_dg[i], dguu, _tolerance(mass, rm * mass, dg_scale))
