"""Transport-kernel coefficient blocks and their builders.

Reference values below come from the closed-form connection
coefficients of the unit-mass vacuum metric at r = 10, theta = pi/2:
Gamma^r_tt = (M/r^2)(1 - 2M/r) = 0.008, Gamma^theta_{r theta} = 1/r = 0.1,
and the all-covariant (first slot lowered) Gamma_rtt = M/r^2 = 0.01.
The connection stores K1 = -Gamma^a_mn raised and contracted:
``order1_raw(coords, u)`` is K1^a_mn u^m u^n, and polarization recovers
the symmetric bilinear form K1^a_mn u^m v^n from it.  K0 is stored
contracted too: ``order0_raw(coords, u)`` is K0_mn u^n, so its block is
read column by column at the basis velocities.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.connection import (
    NonLinearConnection,
    Particle,
    _mv_floats,
    electromagnetic_connection,
    gravitational_connection,
    superpose,
    zero_connection,
)
from phasetransport.errors import MalformedFaraday, OutsideDomain, ValidationError
from phasetransport.curvature import christoffel_raw, faraday_field_of
from phasetransport.fields import (
    AntisymmetricFaraday,
    FaradayField,
    UniformFaraday,
    axial_magnetic_potential_spherical,
    coulomb_potential,
    matrix_from_eb,
    uniform_faraday,
    uniform_field_potential,
    zero_potential,
)
from phasetransport.metrics import minkowski, schwarzschild, weak_field
from phasetransport.tensor import EVERYWHERE, FourVector, SpacetimeEvent, float_lane
from phasetransport.transport import acceleration_terms

X_REF = SpacetimeEvent([0.0, 10.0, np.pi / 2, 0.0])


E_T, E_R, E_TH, E_PH = np.eye(4)


def k1(c, x, u, v=None):
    """K1^a_mn u^m v^n of `c` at the event `x` (v defaults to u).

    The connection stores only the contracted K1(u, u); the bilinear form
    is its polarization (K1(u + v, u + v) - K1(u - v, u - v)) / 4.
    """
    if v is None:
        return c.order1_raw(x.coords, u)
    return (c.order1_raw(x.coords, u + v) - c.order1_raw(x.coords, u - v)) / 4.0


def k0_block(c, coords):
    """The block K0_mn of `c` at `coords`: column n is K0 contracted with e_n."""
    return np.stack([c.order0_raw(coords, e_n) for e_n in np.eye(4)], axis=1)


def test_particle_validation():
    Particle(1.0, -2.0)
    with pytest.raises(ValidationError):
        Particle(0.0)
    with pytest.raises(ValidationError):
        Particle(-1.0)
    with pytest.raises(ValidationError):
        Particle(1.0, np.nan)
    # a bool or a string is no number, whatever it converts to
    for value in (True, "2.0", None, np.inf):
        with pytest.raises(ValidationError, match="particle mass must be a finite real number"):
            Particle(mass=value)
        with pytest.raises(ValidationError, match="particle charge must be a finite real number"):
            Particle(1.0, charge=value)
    assert Particle(np.float64(2.0), 3).mass == 2.0


def test_gravitational_block_reference_values():
    c = gravitational_connection(schwarzschild(1.0))
    np.testing.assert_allclose(-k1(c, X_REF, E_T)[1], 0.008, rtol=1e-13)  # Gamma^r_tt
    np.testing.assert_allclose(-k1(c, X_REF, E_R, E_TH)[2], 0.1, rtol=1e-13)  # Gamma^th_rth
    # the covariant block, lowered where a typed caller asks for it:
    # with u = d/dt the first term is order1_mtt
    u_t = FourVector([1.0, 0.0, 0.0, 0.0])
    _, lowered = acceleration_terms(c, Particle(1.0), X_REF, u_t)
    np.testing.assert_allclose(lowered[1], -0.01, rtol=1e-13)
    assert c.order0_raw is None


def test_gravitational_block_symmetric_in_trailing_slots():
    # the contracted term keeps the symmetric part of the block only; the
    # bilinear form it gives by polarization is -Gamma(u, v) and -Gamma(v, u)
    g = schwarzschild(1.0)
    c = gravitational_connection(g)
    x = SpacetimeEvent([0.0, 7.0, 1.2, 0.4])
    gamma = christoffel_raw(g, x.coords)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u, v = rng.uniform(-1.0, 1.0, (2, 4))
        bilinear = k1(c, x, u, v)
        for first, second in ((u, v), (v, u)):
            np.testing.assert_allclose(bilinear, -gamma.dot(second).dot(first),
                                       rtol=0, atol=1e-13)


def test_em_block_is_charge_times_field():
    e, b = [0.1, 0.0, 0.2], [0.0, 1.0, 0.0]
    c = electromagnetic_connection(uniform_faraday(e, b), charge=3.0)
    x = SpacetimeEvent([0, 0, 0, 0])
    np.testing.assert_array_equal(k0_block(c, x.coords), 3.0 * matrix_from_eb(e, b))
    u = np.array([1.3, 0.2, -0.4, 0.1])
    np.testing.assert_array_equal(c.order0_raw(x.coords, u), (3.0 * matrix_from_eb(e, b)) @ u)
    assert c.order1_raw is None


def test_em_antisymmetry_gate_fires_on_evaluation():
    broken = FaradayField(lambda coords: np.eye(4), name="broken")
    c = electromagnetic_connection(broken, charge=1.0)
    with pytest.raises(MalformedFaraday):
        c.order0_raw(np.zeros(4), E_T)


def test_zero_connection_blocks_vanish():
    c = zero_connection()
    x = SpacetimeEvent([1, 2, 3, 4])
    assert c.order0_raw is None and c.order1_raw is None
    zeroth, first = acceleration_terms(c, Particle(1.0), x, FourVector([1.0, 0.5, 0, 0]))
    assert np.all(zeroth == 0.0)
    assert np.all(first == 0.0)


def test_superpose_adds_blocks_and_intersects_guards():
    g = schwarzschild(1.0)
    grav = gravitational_connection(g)
    em = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), charge=2.0)
    both = superpose(grav, em)
    u = np.array([1.2, 0.01, 0.02, 0.03])
    np.testing.assert_array_equal(both.order0_raw(X_REF.coords, u), em.order0_raw(X_REF.coords, u))
    np.testing.assert_array_equal(k1(both, X_REF, u), k1(grav, X_REF, u))
    assert both.metric is g
    with pytest.raises(OutsideDomain):
        both.guard.check(SpacetimeEvent([0, 1.0, 1.0, 0.0]))  # inside the horizon guard


def test_superpose_rejects_two_curved_charts():
    a = gravitational_connection(schwarzschild(1.0))
    b = gravitational_connection(schwarzschild(2.0))
    with pytest.raises(ValueError):
        superpose(a, b)


def test_superpose_decides_flatness_by_chart_type_not_name():
    # a curved metric that merely borrows the flat chart's name is still curved
    g = schwarzschild(1.0)
    impostor = dataclasses.replace(g, name="minkowski")
    with pytest.raises(ValueError):
        superpose(gravitational_connection(g), gravitational_connection(impostor))
    # the flat chart keeps its identity through evaluator replacement
    flat = minkowski()
    em = electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0)
    em = dataclasses.replace(em, metric=dataclasses.replace(flat, matrix_fn=flat.matrix_fn))
    assert superpose(gravitational_connection(g), em).metric is g


def test_em_antisymmetry_is_trusted_only_for_fields_built_antisymmetric():
    x = SpacetimeEvent([0.0, 1.0, 2.0, 3.0])
    built = [uniform_faraday([0.1, 0, 0], [0, 0, 1.0]),
             faraday_field_of(coulomb_potential(1.0))]
    assert all(isinstance(f, AntisymmetricFaraday) for f in built)
    for f in built:
        c = electromagnetic_connection(f, 2.0)
        np.testing.assert_array_equal(k0_block(c, x.coords), 2.0 * f.matrix_fn(x.coords))
    # a user evaluator is re-checked on every evaluation, even if it is
    # antisymmetric at first and only later goes wrong
    calls = []

    def drifting(coords):
        calls.append(1)
        return matrix_from_eb([0.1, 0, 0], [0, 0, 1.0]) + (len(calls) > 1) * np.eye(4)

    c = electromagnetic_connection(FaradayField(drifting, name="drifting"), 1.0)
    c.order0_raw(x.coords, E_T)
    with pytest.raises(MalformedFaraday):
        c.order0_raw(x.coords, E_T)


def test_superpose_same_curved_chart_doubles_coefficients():
    g = schwarzschild(1.0)
    c = gravitational_connection(g)
    doubled = superpose(c, c)
    rng = np.random.default_rng(4)
    for u in rng.uniform(-1.0, 1.0, (20, 4)):
        np.testing.assert_array_equal(k1(doubled, X_REF, u), 2.0 * k1(c, X_REF, u))
    batch = rng.uniform(-1.0, 1.0, (5, 4))
    coords = np.tile(X_REF.coords, (5, 1))
    np.testing.assert_array_equal(doubled.order1_raw(coords, batch),
                                  2.0 * c.order1_raw(coords, batch))


@settings(max_examples=40, deadline=None)
@given(
    mass=st.floats(0.5, 8.0),
    charge=st.floats(-3.0, 3.0),
    factor=st.floats(1.5, 4.0),
)
def test_em_acceleration_scales_inverse_mass_and_linear_charge(mass, charge, factor):
    field = uniform_faraday([0.1, 0.0, 0.0], [0.0, 0.0, 1.0])
    x = SpacetimeEvent([0, 0, 0, 0])
    u = FourVector([np.sqrt(1.26), 0.5, 0.0, -0.1])

    base = electromagnetic_connection(field, charge)
    zeroth, first = acceleration_terms(base, Particle(mass, charge), x, u)
    assert np.all(first == 0.0)

    heavier = acceleration_terms(base, Particle(mass * factor, charge), x, u)[0]
    np.testing.assert_allclose(heavier * factor, zeroth, rtol=1e-14, atol=1e-300)

    scaled_conn = electromagnetic_connection(field, charge * factor)
    scaled, _ = acceleration_terms(scaled_conn, Particle(mass, charge * factor), x, u)
    np.testing.assert_allclose(scaled, factor * zeroth, rtol=1e-14, atol=1e-300)


@settings(max_examples=30, deadline=None)
@given(mass=st.floats(0.5, 8.0), factor=st.floats(1.5, 16.0))
def test_geodesic_block_ignores_particle_mass(mass, factor):
    c = gravitational_connection(schwarzschild(1.0))
    u = FourVector([1.2, 0.01, 0.0, 0.03])
    _, first_a = acceleration_terms(c, Particle(mass), X_REF, u)
    _, first_b = acceleration_terms(c, Particle(mass * factor), X_REF, u)
    np.testing.assert_array_equal(first_a, first_b)


# ---------------------------------------------------------------------------
# float lanes: one event on Python floats, with the bits of the array call


def _with_specials(values, rng):
    """`values` with some components set to exact zeros of either sign, inf or NaN."""
    values = values.copy()
    n = len(values)
    for special in (0.0, -0.0, np.inf, -np.inf, np.nan):
        rows = rng.choice(n, n // 20, replace=False)
        values[rows, rng.integers(0, 4, len(rows))] = special
    return values


def _bits(values) -> bytes:
    """The bytes of `values` as floats, every NaN made one NaN: a NaN's sign
    bit is not kept by either lane, and no trajectory records a NaN."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def test_float_matrix_vector_product_has_the_bits_of_numpys():
    rng = np.random.default_rng(5)
    vs = _with_specials(rng.normal(size=(500, 4)), rng)
    with np.errstate(invalid="ignore"):
        for k, v in enumerate(vs):
            a = rng.normal(size=(4, 4))
            if k % 2:  # a diagonal matrix, as the curved charts' inverses are
                a = np.diag(np.diag(a))
            if k % 3 == 0:
                a[rng.integers(0, 4), rng.integers(0, 4)] = 0.0
            assert _bits(_mv_floats(a.tolist(), v.tolist())) == _bits(a @ v), (a, v)


def _flat_events(rng, n):
    coords = np.column_stack([rng.uniform(-5, 5, n), rng.normal(0.0, 20.0, (n, 3))])
    coords[::9, 1:] = 0.0  # the origin, where the closed Coulomb form divides 0 by 0
    return coords


def _spherical_events(rng, n):
    return np.column_stack([rng.uniform(-5, 5, n), rng.uniform(2.5, 60.0, n),
                            rng.uniform(0.3, 2.8, n), rng.uniform(0, 6, n)])


LANE_CONNECTIONS = {
    "uniform": (_flat_events, lambda: electromagnetic_connection(
        uniform_faraday([0.1, -0.2, 0.3], [1.0, 0.4, -0.7]), 1.3)),
    "coulomb": (_flat_events, lambda: electromagnetic_connection(
        faraday_field_of(coulomb_potential(2.0)), -0.7)),
    "coulomb-radial": (_spherical_events, lambda: electromagnetic_connection(
        faraday_field_of(coulomb_potential(2.0, 1)), 1.1)),
    "axial-b": (_spherical_events, lambda: electromagnetic_connection(
        faraday_field_of(axial_magnetic_potential_spherical(0.3)), 1.1)),
    "schwarzschild": (_spherical_events, lambda: gravitational_connection(schwarzschild(1.2))),
    "weak-field": (_flat_events, lambda: gravitational_connection(weak_field(1.2))),
}


@pytest.mark.parametrize("name", sorted(LANE_CONNECTIONS))
def test_built_in_float_lanes_have_the_bits_of_their_array_calls(name):
    # the term, the guard's probe and the inverse metric's rows, signed
    # zeros, infinities and NaN included; Python floats raise where numpy
    # divides by zero, and no more than that
    events, build = LANE_CONNECTIONS[name]
    conn = build()
    rng = np.random.default_rng(sorted(LANE_CONNECTIONS).index(name))
    coords = _with_specials(events(rng, 400), rng)
    us = _with_specials(np.column_stack([rng.uniform(1, 2, 400), rng.normal(0, 0.4, (400, 3))]),
                        rng)
    term = conn.order0_raw or conn.order1_raw
    lanes = [float_lane(f) for f in (term, conn.guard.probe, conn.metric.inverse_fn)]
    assert None not in lanes
    term_lane, probe_lane, inverse_lane = lanes
    with np.errstate(all="ignore"):
        for x, u in zip(coords, us):
            assert probe_lane(x.tolist()) == conn.guard.probe(x)
            try:
                got = term_lane(x.tolist(), u.tolist())
            except ZeroDivisionError:
                assert not np.all(np.isfinite(term(x[None], u[None])))
                continue
            assert _bits(got) == _bits(term(x, u)), (x, u)
            try:
                rows = inverse_lane(x.tolist())
            except ZeroDivisionError:
                continue
            assert _bits(rows) == _bits(conn.metric.inverse_fn(x)), x


def _lane_evaluators():
    """(events, evaluator, velocity?, trailing arguments) of every built-in
    evaluator that registers a float lane, by name."""
    potentials = {
        "coulomb": (_flat_events, coulomb_potential(2.0)),
        "coulomb-radial": (_spherical_events, coulomb_potential(2.0, 1)),
        "axial-b": (_spherical_events, axial_magnetic_potential_spherical(0.3)),
        "zero": (_flat_events, zero_potential()),
        "uniform": (_flat_events, uniform_field_potential([0.1, -0.2, 0.3], [1.0, 0.4, -0.7])),
    }
    metrics = {
        "minkowski": (_flat_events, minkowski()),
        "schwarzschild": (_spherical_events, schwarzschild(1.2)),
        "weak-field": (_flat_events, weak_field(1.2)),
    }
    cases = {"everywhere.probe": (_flat_events, EVERYWHERE.probe, False, ())}
    for name, (events, a) in potentials.items():
        cases[f"{name}.values_fn"] = (events, a.values_fn, False, ())
        cases[f"{name}.deriv_fn"] = (events, a.deriv_fn, False, ())
        if a.guard is not EVERYWHERE:
            cases[f"{name}.probe"] = (events, a.guard.probe, False, ())
    for name, (events, g) in metrics.items():
        for attr in ("matrix_fn", "deriv_fn", "inverse_fn"):
            cases[f"{name}.{attr}"] = (events, getattr(g, attr), False, ())
        cases[f"{name}.geodesic_fn"] = (events, g.geodesic_fn, True, ())
        if g.guard is not EVERYWHERE:
            cases[f"{name}.probe"] = (events, g.guard.probe, False, ())
    for name, e in (("coulomb", -0.7), ("coulomb-radial", 1.1), ("axial-b", 1.1)):
        events, a = potentials[name]
        cases[f"{name}.lorentz_fn"] = (events, faraday_field_of(a).lorentz_fn, True, (e,))
    both = schwarzschild(1.2).guard.intersect(coulomb_potential(2.0, 1).guard)
    cases["schwarzschild&coulomb-radial.probe"] = (_spherical_events, both.probe, False, ())
    return {name: case for name, case in cases.items() if float_lane(case[1]) is not None}


LANE_EVALUATORS = _lane_evaluators()


def test_the_built_in_evaluators_that_must_carry_a_float_lane_carry_one():
    # the uniform potential's values x @ grad keep none: numpy sums them as
    # a fused multiply-add chain
    must = {f"{a}.{f}" for a in ("coulomb", "coulomb-radial", "axial-b", "zero")
            for f in ("values_fn", "deriv_fn")}
    must |= {f"{g}.{f}" for g in ("schwarzschild", "weak-field")
             for f in ("inverse_fn", "geodesic_fn")}
    must |= {f"{name}.probe" for name in ("everywhere", "coulomb", "coulomb-radial",
                                          "schwarzschild", "weak-field",
                                          "schwarzschild&coulomb-radial")}
    must |= {"uniform.deriv_fn", "minkowski.inverse_fn", "coulomb.lorentz_fn",
             "coulomb-radial.lorentz_fn", "axial-b.lorentz_fn"}
    assert must <= set(LANE_EVALUATORS)
    assert "uniform.values_fn" not in LANE_EVALUATORS


def _numpy_fails_at(fn, *args) -> bool:
    """Whether the array call gives a value that is not finite, or divides by
    zero on the way (weak-field's g^00 at the origin is -1 / (1 - inf) = 0)."""
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        try:
            return not np.all(np.isfinite(fn(*args)))
        except FloatingPointError:
            return True


@pytest.mark.parametrize("name", sorted(LANE_EVALUATORS))
def test_every_built_in_float_lane_has_the_bits_of_its_array_calls(name):
    # one event (4,) on the lane, on arrays and as its row of a batch, signed
    # zeros, infinities and NaN included; a lane raises only where numpy
    # divides by zero or gives inf or NaN, and a probe's batch gives its
    # first rejected row's reason
    events, fn, with_u, tail = LANE_EVALUATORS[name]
    lane = float_lane(fn)
    rng = np.random.default_rng(sorted(LANE_EVALUATORS).index(name))
    coords = _with_specials(events(rng, 300), rng)
    us = _with_specials(np.column_stack([rng.uniform(1, 2, 300), rng.normal(0, 0.4, (300, 3))]),
                        rng)

    def args(c, u):
        return (c, u, *tail) if with_u else (c,)

    with np.errstate(all="ignore"):
        if name.endswith(".probe"):
            for x in coords:
                assert lane(x.tolist()) == fn(x) == fn(x[None]), x
            first = next((w for w in map(lane, coords.tolist()) if w is not None), None)
            assert fn(coords) == first
            return
        batch = fn(*args(coords, us))
        rows = np.broadcast_to(batch, (len(coords),) + np.shape(fn(*args(coords[0], us[0]))))
        for x, u, row in zip(coords, us, rows):
            one = fn(*args(x, u))
            assert _bits(row) == _bits(one), (x, u)
            try:
                got = lane(*args(x.tolist(), u.tolist()))
            except (ArithmeticError, ValueError):
                assert _numpy_fails_at(fn, *args(x, u)), (x, u)
                continue
            assert _bits(got) == _bits(one), (x, u)


def test_a_uniform_field_forms_its_block_once():
    calls = []
    f = uniform_faraday(b_field=[0.0, 0.0, 1.0])
    counted = dataclasses.replace(f, matrix_fn=lambda c: calls.append(1) or f.matrix_fn(c))
    assert isinstance(counted, UniformFaraday)
    conn = electromagnetic_connection(counted, 2.0)
    assert len(calls) == 1
    u = np.array([1.2, 0.3, -0.1, 0.2])
    for _ in range(3):
        assert conn.order0_raw(np.zeros(4), u).tobytes() == ((2.0 * f.matrix_fn(None)) @ u).tobytes()
        assert conn.order0_raw(np.zeros((2, 4)), np.stack([u, u])).shape == (2, 4)
    assert len(calls) == 1
