"""Metric charts: closed-form components, derivatives, and domain guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.connection import gravitational_connection
from phasetransport.errors import OutsideDomain
from phasetransport.fields import coulomb_potential
from phasetransport.metrics import (
    HORIZON_MARGIN,
    minkowski,
    schwarzschild,
    weak_field,
    without_closed_form,
)
from phasetransport.tensor import (
    FD_STEP_FIRST,
    SpacetimeEvent,
    central_differences,
    float_probe,
    spec,
)


def event(t, r, th, ph):
    return SpacetimeEvent([t, r, th, ph])


def test_schwarzschild_components_at_reference_point():
    g = schwarzschild(1.0)
    x = event(0.0, 10.0, np.pi / 2, 0.0)
    m = g.matrix_fn(x.coords)
    f = 1.0 - 2.0 / 10.0
    np.testing.assert_allclose(m[0, 0], -f, rtol=1e-15)
    np.testing.assert_allclose(m[1, 1], 1.0 / f, rtol=1e-15)
    np.testing.assert_allclose(m[2, 2], 100.0, rtol=1e-15)
    np.testing.assert_allclose(m[3, 3], 100.0, rtol=1e-15)  # sin(pi/2) = 1
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


def test_schwarzschild_closed_form_derivative_matches_finite_difference():
    g = schwarzschild(1.0)
    bare = without_closed_form(g)
    x = event(0.0, 7.3, 1.1, 0.4)
    closed = g.deriv_fn(x.coords)
    assert bare.deriv_fn is None
    numeric = central_differences(bare.matrix_fn, x.coords, FD_STEP_FIRST, axis=-1)
    np.testing.assert_allclose(numeric, closed, rtol=0, atol=2e-8)


def test_schwarzschild_inverse_is_closed_form_and_consistent():
    g = schwarzschild(2.5)
    x = event(1.0, 30.0, 0.8, -2.0)
    prod = g.matrix_fn(x.coords) @ g.inverse_raw(x.coords)
    np.testing.assert_allclose(prod, np.eye(4), rtol=0, atol=1e-14)


def test_horizon_guard_blocks_interior_and_margin():
    g = schwarzschild(1.0)
    with pytest.raises(OutsideDomain):
        g.guard.check(event(0, 1.5, 1.0, 0.0))
    with pytest.raises(OutsideDomain):
        g.guard.check(event(0, 2.0, 1.0, 0.0))  # exactly on the horizon
    g.guard.check(event(0, 2.1, 1.0, 0.0))  # slightly outside is fine


def test_polar_axis_guard():
    g = schwarzschild(1.0)
    with pytest.raises(OutsideDomain):
        g.guard.check(event(0, 10.0, 0.0, 0.0))


def test_weak_field_reduces_to_newtonian_potential():
    g = weak_field(1.0)
    x = SpacetimeEvent([0.0, 1e4, 0.0, 0.0])
    m = g.matrix_fn(x.coords)
    np.testing.assert_allclose(m[0, 0], -(1.0 - 2.0 * 1e-4), rtol=1e-15)
    np.testing.assert_allclose(m[1:, 1:], np.eye(3), rtol=0, atol=0)


def test_weak_field_guard_blocks_sign_change():
    g = weak_field(1.0)
    with pytest.raises(OutsideDomain):
        g.guard.check(SpacetimeEvent([0.0, 1.0, 0.0, 0.0]))


def test_minkowski_has_no_guard_surprises():
    g = minkowski()
    g.guard.check(SpacetimeEvent([0, -1e6, 2e5, 0]))


def test_without_closed_form_strips_but_preserves_values():
    # the geodesic term is written from the closed forms only while g has them
    g = schwarzschild(1.0)
    assert spec(gravitational_connection(g).order1_raw) is not None
    bare = without_closed_form(g)
    assert bare.deriv_fn is None
    assert bare.inverse_fn is None
    assert spec(gravitational_connection(bare).order1_raw) is None
    assert spec(gravitational_connection(without_closed_form(weak_field(1.0))).order1_raw) is None
    x = event(0.0, 12.0, 1.2, 0.3)
    np.testing.assert_array_equal(bare.matrix_fn(x.coords), g.matrix_fn(x.coords))
    with pytest.raises(OutsideDomain):
        bare.guard.check(event(0, 1.0, 1.0, 0.0))  # guard carried over


@settings(max_examples=40, deadline=None)
@given(
    mass=st.floats(0.1, 10.0),
    r_factor=st.floats(2.5, 40.0),
    th=st.floats(0.2, 2.9),
)
def test_schwarzschild_determinant_sign(mass, r_factor, th):
    # det g = -r^4 sin^2(theta) independent of mass outside the horizon
    g = schwarzschild(mass)
    r = r_factor * mass
    x = event(0.0, r, th, 1.0)
    det = np.linalg.det(g.matrix_fn(x.coords))
    np.testing.assert_allclose(det, -(r**4) * np.sin(th) ** 2, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(mass=st.floats(0.1, 10.0), r_factor=st.floats(2.5, 40.0), th=st.floats(0.2, 2.9))
def test_deriv_layout_last_slot_is_direction(mass, r_factor, th):
    g = schwarzschild(mass)
    x = event(0.0, r_factor * mass, th, 0.5)
    d = g.deriv_fn(x.coords)
    # static and axisymmetric: no t or phi dependence anywhere
    assert np.max(np.abs(d[:, :, 0])) == 0.0
    assert np.max(np.abs(d[:, :, 3])) == 0.0
    # g_tt varies with r
    assert d[0, 0, 1] != 0.0


@pytest.mark.parametrize("chart", ["schwarzschild", "weak-field"])
def test_geodesic_term_of_a_batch_row_is_its_lone_call(chart):
    # the term written from the closed forms of g^-1 and dg runs their
    # formulas and its sums on one event's numpy scalars or on a batch's
    # columns; every row must get the bits of its lone call
    rng = np.random.default_rng(17)
    n = 2000
    if chart == "schwarzschild":
        g = schwarzschild(1.5)
        coords = np.column_stack([rng.uniform(0.0, 5.0, n), rng.uniform(4.5, 60.0, n),
                                  rng.uniform(0.3, 2.8, n), rng.uniform(-6.0, 6.0, n)])
    else:
        g = weak_field(1.5)
        coords = np.column_stack([rng.uniform(0.0, 5.0, n), rng.uniform(-1e4, 1e4, (n, 3))])
        coords[:, 1] += np.sign(coords[:, 1]) * 4.0  # keep r > 2M
    u = np.column_stack([rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, (n, 3))])
    term = gravitational_connection(g).order1_raw
    batch = term(coords, u)
    assert batch.shape == (n, 4)
    lone = np.array([term(c, v) for c, v in zip(coords, u)])
    assert np.array_equal(batch.view(np.int64), lone.view(np.int64))


# ---------------------------------------------------------------------------
# guard verdicts: the exact reason (or None) of each built-in guard on
# degenerate events, on arrays and on Python floats (``tensor.float_probe``)

_R_MIN = 2.0 * (1.0 + HORIZON_MARGIN)  # the guarded radius at M = 1


def _verdict_events():
    base = (0.0, 10.0, 1.0, 0.5)
    events = {"base": base}
    for i in range(4):
        for label, v in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf),
                         ("1e200", 1e200)):
            events[f"x{i}={label}"] = base[:i] + (v,) + base[i + 1:]
    events["r=r_min"] = (0.0, _R_MIN, 1.0, 0.5)
    events["x1=r_min"] = (0.0, _R_MIN, 0.0, 0.0)
    events["theta=0"] = (0.0, 10.0, 0.0, 0.5)
    events["theta=pi"] = (0.0, 10.0, math.pi, 0.5)
    events["origin"] = (0.0, 0.0, 0.0, 0.0)
    return events


VERDICT_EVENTS = _verdict_events()

_SCHWARZSCHILD_REJECTS = {
    "x1=nan": "r = nan inside guarded radius 2",
    "x1=-inf": "r = -inf inside guarded radius 2",
    "r=r_min": "r = 2 inside guarded radius 2",
    "x1=r_min": "r = 2 inside guarded radius 2",
    "theta=0": "theta = 0 too close to the polar axis",
    "theta=pi": "theta = 3.14159 too close to the polar axis",
    "origin": "r = 0 inside guarded radius 2",
}

#: Each guard's rejected events and their reasons; it admits every other event.
GUARD_REJECTS = {
    "coulomb": (lambda: coulomb_potential(2.0).guard, {
        "x1=nan": "r = nan at the potential singularity",
        "x2=nan": "r = nan at the potential singularity",
        "x3=nan": "r = nan at the potential singularity",
        "origin": "r = 0.000e+00 at the potential singularity",
    }),
    "coulomb-radial": (lambda: coulomb_potential(2.0, 1).guard, {
        "x1=nan": "radial coordinate at singularity",
        "x1=-inf": "radial coordinate at singularity",
        "origin": "radial coordinate at singularity",
    }),
    "schwarzschild": (lambda: schwarzschild(1.0).guard, _SCHWARZSCHILD_REJECTS),
    "weak-field": (lambda: weak_field(1.0).guard, {
        "x1=nan": "r = nan inside guarded radius 2",
        "x2=nan": "r = nan inside guarded radius 2",
        "x3=nan": "r = nan inside guarded radius 2",
        "x1=r_min": "r = 2 inside guarded radius 2",
        "origin": "r = 0 inside guarded radius 2",
    }),
    "schwarzschild&coulomb-radial": (
        lambda: schwarzschild(1.0).guard.intersect(coulomb_potential(2.0, 1).guard),
        _SCHWARZSCHILD_REJECTS),
}


@pytest.mark.parametrize("name", sorted(GUARD_REJECTS))
def test_guard_verdicts_on_degenerate_events(name):
    # a NaN radius is rejected, a NaN or infinite angle admitted (its sine
    # is NaN), and r = r_min exactly is inside
    build, rejects = GUARD_REJECTS[name]
    probe = build().probe
    on_floats = float_probe(probe)
    with np.errstate(over="ignore", invalid="ignore"):
        for event, coords in VERDICT_EVENTS.items():
            want = rejects.get(event)
            assert probe(np.array(coords)) == want, event
            assert on_floats(list(coords)) == want, event


@pytest.mark.parametrize("name, rows, want", [
    ("schwarzschild", ("base", "theta=0", "origin"), "theta = 0 too close to the polar axis"),
    ("schwarzschild", ("base", "origin", "theta=pi"), "r = 0 inside guarded radius 2"),
    ("weak-field", ("base", "x1=r_min", "x2=nan"), "r = 2 inside guarded radius 2"),
    ("coulomb", ("base", "x3=nan", "origin"), "r = nan at the potential singularity"),
])
def test_a_batch_probe_gives_its_first_rejected_rows_reason(name, rows, want):
    probe = GUARD_REJECTS[name][0]().probe
    with np.errstate(invalid="ignore"):
        assert probe(np.array([VERDICT_EVENTS[r] for r in rows])) == want
