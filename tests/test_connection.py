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
    axial_magnetic_potential_spherical,
    coulomb_potential,
    matrix_from_eb,
    uniform_faraday,
    uniform_field_potential,
    zero_potential,
)
from phasetransport import transport
from phasetransport.metrics import minkowski, schwarzschild, weak_field, without_closed_form
from phasetransport.tensor import (
    _MATH_OPS,
    EVERYWHERE,
    Admission,
    ClosedForm,
    Contracted,
    FourVector,
    MetricField,
    SpacetimeEvent,
    closed_form,
    float_probe,
    row_source,
    spec,
    with_spec,
)
from phasetransport.transport import (
    IntegratorConfig,
    PhaseState,
    _batch_rhs,
    _LoneSource,
    _lone_rhs,
    acceleration_terms,
    integrate,
)

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
# specs: one event on Python floats, as the generated right-hand side runs
# it, with the bits of the array call


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
    bit is not kept by Python floats, and no trajectory records a NaN."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


#: ``a @ v`` on Python floats, each row the source that ``row_source`` writes
#: for the generated right-hand side, with `a` a matrix's rows and `v` a vector.
MATRIX_VECTOR = compile("[" + ", ".join(row_source([f"a[{m}][{n}] * v[{n}]" for n in range(4)])
                                        for m in range(4)) + "]", "<row_source>", "eval")


def _row_sums(a, v) -> list:
    return eval(MATRIX_VECTOR, {"a": a, "v": v})


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
            assert _bits(_row_sums(a.tolist(), v.tolist())) == _bits(a @ v), (a, v)


def _float_hazard(y):
    raise ArithmeticError("Python floats raise here, where the array law takes over")


def _lone_term(term):
    """The contracted `term` of one event ``(x, u)``, four Python floats each,
    as a lone run's generated right-hand side writes it out from its spec.
    It raises where Python floats raise."""
    src = _LoneSource(EVERYWHERE, "u")
    rhs = src.function(src.term(term, "k"), _float_hazard)
    return lambda x, u: rhs([*x, *u])[4:]


def _assert_spec_bits(fn, one, x, u=None):
    """What the generated right-hand side computes of `fn` at one event `x`
    (and `u`) from its spec has the bits of `fn`'s array result `one` there:
    a closed form's values at its indices, and zeros elsewhere, or a
    contracted term's four components.  Python floats may raise."""
    given = spec(fn)
    if isinstance(given, ClosedForm):
        values = given.formula(_MATH_OPS, x.tolist())
        rest = np.ones(np.shape(one), dtype=bool)
        for index in given.indices:
            rest[index] = False
        assert _bits([one[index] for index in given.indices]) == _bits(values), x
        assert _bits(one[rest]) == _bits(np.zeros(rest.sum())), x
        return
    assert isinstance(given, Contracted), fn
    assert _bits(_lone_term(fn)(x.tolist(), u.tolist())) == _bits(one), (x, u)


def _flat_events(rng, n):
    coords = np.column_stack([rng.uniform(-5, 5, n), rng.normal(0.0, 20.0, (n, 3))])
    coords[::9, 1:] = 0.0  # the origin, where the closed Coulomb form divides 0 by 0
    return coords


def _spherical_events(rng, n):
    return np.column_stack([rng.uniform(-5, 5, n), rng.uniform(2.5, 60.0, n),
                            rng.uniform(0.3, 2.8, n), rng.uniform(0, 6, n)])


SPEC_CONNECTIONS = {
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


@pytest.mark.parametrize("name", sorted(SPEC_CONNECTIONS))
def test_built_in_specs_have_the_bits_of_their_array_calls(name):
    # the term, the guard's probe and the inverse metric's rows, signed
    # zeros, infinities and NaN included; Python floats raise where numpy
    # gives inf or NaN, and no more than that
    events, build = SPEC_CONNECTIONS[name]
    conn = build()
    rng = np.random.default_rng(sorted(SPEC_CONNECTIONS).index(name))
    coords = _with_specials(events(rng, 400), rng)
    us = _with_specials(np.column_stack([rng.uniform(1, 2, 400), rng.normal(0, 0.4, (400, 3))]),
                        rng)
    term = conn.order0_raw or conn.order1_raw
    inverse = conn.metric.inverse_fn
    assert None not in (spec(term), spec(conn.guard.probe), spec(inverse))
    probe = float_probe(conn.guard.probe)
    with np.errstate(all="ignore"):
        for x, u in zip(coords, us):
            assert probe(x.tolist()) == conn.guard.probe(x)
            try:
                _assert_spec_bits(term, term(x, u), x, u)
            except (ArithmeticError, ValueError):
                assert not np.all(np.isfinite(term(x[None], u[None])))
                continue
            try:
                _assert_spec_bits(inverse, inverse(x), x)
            except (ArithmeticError, ValueError):
                assert _numpy_fails_at(inverse, x), x


def _spec_evaluators():
    """(events, evaluator, velocity?) of every built-in evaluator that
    registers a spec, by name."""
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
    cases = {"everywhere.probe": (_flat_events, EVERYWHERE.probe, False)}
    for name, (events, a) in potentials.items():
        cases[f"{name}.values_fn"] = (events, a.values_fn, False)
        cases[f"{name}.deriv_fn"] = (events, a.deriv_fn, False)
        if a.guard is not EVERYWHERE:
            cases[f"{name}.probe"] = (events, a.guard.probe, False)
    for name, (events, g) in metrics.items():
        for attr in ("matrix_fn", "deriv_fn", "inverse_fn"):
            cases[f"{name}.{attr}"] = (events, getattr(g, attr), False)
        cases[f"{name}.order1_raw"] = (events, gravitational_connection(g).order1_raw, True)
        if g.guard is not EVERYWHERE:
            cases[f"{name}.probe"] = (events, g.guard.probe, False)
    for name, e in (("coulomb", -0.7), ("coulomb-radial", 1.1), ("axial-b", 1.1)):
        events, a = potentials[name]
        term = electromagnetic_connection(faraday_field_of(a), e).order0_raw
        cases[f"{name}.order0_raw"] = (events, term, True)
    both = schwarzschild(1.2).guard.intersect(coulomb_potential(2.0, 1).guard)
    cases["schwarzschild&coulomb-radial.probe"] = (_spherical_events, both.probe, False)
    return {name: case for name, case in cases.items() if spec(case[1]) is not None}


SPEC_EVALUATORS = _spec_evaluators()


def test_the_built_in_evaluators_that_must_carry_a_spec_carry_one():
    # the uniform potential's values x @ grad keep none: numpy sums them as
    # a fused multiply-add chain
    must = {f"{a}.{f}" for a in ("coulomb", "coulomb-radial", "axial-b", "zero")
            for f in ("values_fn", "deriv_fn")}
    must |= {f"{g}.{f}" for g in ("schwarzschild", "weak-field")
             for f in ("inverse_fn", "order1_raw")}
    must |= {f"{name}.probe" for name in ("everywhere", "coulomb", "coulomb-radial",
                                          "schwarzschild", "weak-field",
                                          "schwarzschild&coulomb-radial")}
    must |= {"uniform.deriv_fn", "minkowski.inverse_fn", "coulomb.order0_raw",
             "coulomb-radial.order0_raw", "axial-b.order0_raw"}
    assert must <= set(SPEC_EVALUATORS)
    assert "uniform.values_fn" not in SPEC_EVALUATORS
    # an intersection's tests are its two sides' one each; EVERYWHERE has none
    assert len(spec(SPEC_EVALUATORS["schwarzschild&coulomb-radial.probe"][1]).tests) == 2
    assert spec(EVERYWHERE.probe) == Admission(())


def _numpy_fails_at(fn, *args) -> bool:
    """Whether the array call gives a value that is not finite, or divides by
    zero on the way (weak-field's g^00 at the origin is -1 / (1 - inf) = 0)."""
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        try:
            return not np.all(np.isfinite(fn(*args)))
        except FloatingPointError:
            return True


@pytest.mark.parametrize("name", sorted(SPEC_EVALUATORS))
def test_every_built_in_spec_has_the_bits_of_its_array_calls(name):
    # one event (4,) from the spec on floats, on arrays and as its row of a
    # batch, signed zeros, infinities and NaN included; a formula raises
    # only where numpy divides by zero or gives inf or NaN, and a probe's
    # batch gives its first rejected row's reason
    events, fn, with_u = SPEC_EVALUATORS[name]
    rng = np.random.default_rng(sorted(SPEC_EVALUATORS).index(name))
    coords = _with_specials(events(rng, 300), rng)
    us = _with_specials(np.column_stack([rng.uniform(1, 2, 300), rng.normal(0, 0.4, (300, 3))]),
                        rng)

    def args(c, u):
        return (c, u) if with_u else (c,)

    with np.errstate(all="ignore"):
        if name.endswith(".probe"):
            probe = float_probe(fn)
            for x in coords:
                assert probe(x.tolist()) == fn(x) == fn(x[None]), x
            first = next((w for w in map(probe, coords.tolist()) if w is not None), None)
            assert fn(coords) == first
            return
        batch = fn(*args(coords, us))
        rows = np.broadcast_to(batch, (len(coords),) + np.shape(fn(*args(coords[0], us[0]))))
        for x, u, row in zip(coords, us, rows):
            one = fn(*args(x, u))
            assert _bits(row) == _bits(one), (x, u)
            try:
                _assert_spec_bits(fn, one, x, u)
            except (ArithmeticError, ValueError):
                assert _numpy_fails_at(fn, *args(x, u)), (x, u)


def _rotating_cylindrical(omega: float) -> MetricField:
    """Flat space in cylindrical coordinates (t, rho, phi, z) that rotate at
    `omega`: g_tphi = omega rho^2, so g, g^-1 and dg all have entries off
    the diagonal."""

    def matrix(ops, c):
        _, rho, _, _ = c
        rho2 = rho * rho
        return -(1.0 - omega * omega * rho2), omega * rho2, omega * rho2, 1.0, rho2, 1.0

    def inverse(ops, c):
        _, rho, _, _ = c
        return -1.0, omega, omega, 1.0, 1.0 / (rho * rho) - omega * omega, 1.0

    def deriv(ops, c):  # out[m, n, s] = d g_mn / d x^s, along rho only
        _, rho, _, _ = c
        return 2.0 * omega * omega * rho, 2.0 * omega * rho, 2.0 * omega * rho, 2.0 * rho

    layout = ((0, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 3))
    return MetricField(
        matrix_fn=closed_form(layout, matrix),
        deriv_fn=closed_form(((0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1)), deriv),
        inverse_fn=closed_form(layout, inverse),
        name="rotating-cylindrical",
    )


def test_a_non_diagonal_user_metric_gets_the_geodesic_term_written_from_its_closed_forms(
        monkeypatch):
    # a user chart whose g^-1 and dg are closed forms gets -Gamma(u, u) from
    # them, over their off-diagonal entries too: the batch, each lone call
    # and the lone right-hand side, which calls nothing on arrays
    g = _rotating_cylindrical(0.1)
    term = gravitational_connection(g).order1_raw
    numeric = gravitational_connection(without_closed_form(g)).order1_raw
    rng = np.random.default_rng(28)
    n = 200
    coords = np.column_stack([rng.uniform(-5, 5, n), rng.uniform(0.5, 5.0, n),
                              rng.uniform(0, 6, n), rng.uniform(-5, 5, n)])
    us = np.column_stack([rng.uniform(1, 2, n), rng.normal(0, 0.4, (n, 3))])
    batch = term(coords, us)
    for x, u, row in zip(coords, us, batch):
        one = term(x, u)
        assert _bits(row) == _bits(one), (x, u)
        gamma = christoffel_raw(g, x)
        want = -gamma.dot(u).dot(u)
        # the size of the sum before it cancels: Gamma^t is zero here
        scale = np.max(np.abs(gamma).dot(np.abs(u)).dot(np.abs(u)))
        assert np.max(np.abs(one - want)) <= 1e-14 * scale, (x, u)
        assert np.max(np.abs(numeric(x, u) - one)) <= 1e-6 * scale, (x, u)
    arrays = []
    monkeypatch.setattr(transport, "_on_floats", lambda fn: arrays.append(fn))
    conn = gravitational_connection(g)
    lone = _lone_rhs(conn, 1.0)
    assert arrays == []
    rhs = _batch_rhs(conn, 1.0)
    for y, want in zip(np.hstack([coords, us])[:20], np.hstack([us, batch])):
        assert _bits(lone(y.tolist())) == _bits(rhs(y[None])[0]) == _bits(want), y


def test_a_uniform_lone_run_never_calls_matrix_fn_per_rhs():
    # the lone right-hand side writes (e F) u out from F's rows, scaled by e
    # once; on arrays the term evaluates F on each call
    calls = []
    f = uniform_faraday(b_field=[0.0, 0.0, 1.0])
    counted = dataclasses.replace(f, matrix_fn=with_spec(
        lambda c: calls.append(1) or f.matrix_fn(c), spec(f.matrix_fn)))
    conn = electromagnetic_connection(counted, 2.0)
    u = np.array([1.2, 0.3, -0.1, 0.2])
    initial = PhaseState(0.0, SpacetimeEvent(np.zeros(4)), FourVector(u))
    traj = integrate(conn, Particle(1.0, 2.0), initial, IntegratorConfig(step=0.1, tau_max=1.0))
    assert len(traj) == 11
    assert calls == []
    for _ in range(3):
        assert conn.order0_raw(np.zeros(4), u).tobytes() == ((2.0 * f.matrix_fn(None)) @ u).tobytes()
        assert conn.order0_raw(np.zeros((2, 4)), np.stack([u, u])).shape == (2, 4)
    assert len(calls) == 6


def test_a_uniform_field_whose_e_f_overflows_builds_without_a_warning():
    # nothing forms e F when the connection is built; a lone run scales F's
    # rows by e on floats, to numpy's infinities
    f = uniform_faraday(b_field=[0.0, 0.0, 1e300])
    conn = electromagnetic_connection(f, 1e300)
    u = np.array([1.0, 0.0, 1.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        want = (1e300 * f.matrix_fn(None)) @ u
    assert np.isinf(want[1]) and np.isnan(want[2])
    assert _bits(_lone_term(conn.order0_raw)([0.0] * 4, u.tolist())) == _bits(want)
