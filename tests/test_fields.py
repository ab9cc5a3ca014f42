"""Field-strength matrices and vector potentials.

Sign conventions under test: with signature (-,+,+,+) the covariant
matrix has F_0i = -E_i and F_12 = B_z, which produces d(m v)/dt =
e (E + v x B) in the flat-chart slow-motion limit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasetransport.connection import electromagnetic_connection
from phasetransport.curvature import faraday_field_of, faraday_matrix_raw
from phasetransport.errors import MalformedFaraday, OutsideDomain
from phasetransport.fields import (
    axial_magnetic_potential_spherical,
    coulomb_potential,
    eb_from_matrix,
    matrix_from_eb,
    uniform_faraday,
    uniform_field_potential,
    zero_potential,
    FaradayField,
    VectorPotential,
    require_antisymmetric,
)
from phasetransport.tensor import Contracted, SpacetimeEvent, spec
from test_connection import _bits, _lone_term

three_vec = st.tuples(*[st.floats(-5, 5) for _ in range(3)])


def test_matrix_layout_single_components():
    f = matrix_from_eb([1.0, 0, 0], [0, 0, 0])
    assert f[0, 1] == -1.0 and f[1, 0] == 1.0
    f = matrix_from_eb([0, 0, 0], [0, 0, 1.0])
    assert f[1, 2] == 1.0 and f[2, 1] == -1.0


@settings(max_examples=50, deadline=None)
@given(e=three_vec, b=three_vec)
def test_eb_round_trip(e, b):
    f = matrix_from_eb(e, b)
    np.testing.assert_array_equal(f, -f.T)
    e2, b2 = eb_from_matrix(f)
    np.testing.assert_array_equal(e2, np.array(e))
    np.testing.assert_array_equal(b2, np.array(b))


def test_faraday_antisymmetry_enforced():
    bad = FaradayField(lambda c: np.eye(4), name="broken")
    with pytest.raises(MalformedFaraday):
        require_antisymmetric(bad.matrix_fn(np.zeros(4)), bad.name)


def test_uniform_potential_reproduces_field_by_differentiation():
    e, b = [0.2, -0.1, 0.4], [1.0, 0.5, -0.3]
    pot = uniform_field_potential(e, b)
    x = SpacetimeEvent([0.7, 1.0, -2.0, 3.0])
    da = pot.deriv_fn(x.coords)
    f = da - da.T
    np.testing.assert_allclose(f, matrix_from_eb(e, b), rtol=0, atol=1e-12)
    # A_0 = E . r and A_i = (B x r)_i / 2, for one event and for a batch
    r = x.coords[1:]
    want = np.concatenate([[np.dot(e, r)], 0.5 * np.cross(b, r)])
    np.testing.assert_allclose(pot.values_fn(x.coords), want, rtol=0, atol=1e-15)
    batch = np.stack([x.coords] * 2)
    np.testing.assert_array_equal(pot.values_fn(batch), [pot.values_fn(x.coords)] * 2)


def test_zero_potential_is_exactly_zero():
    pot = zero_potential()
    x = SpacetimeEvent([1, 2, 3, 4])
    assert np.all(pot.values_fn(x.coords) == 0.0)
    assert np.all(pot.deriv_fn(x.coords) == 0.0)


def test_coulomb_potential_cartesian_values_and_derivatives():
    pot = coulomb_potential(2.0)
    x = SpacetimeEvent([0.0, 3.0, 0.0, 4.0])  # r = 5
    vals = pot.values_fn(x.coords)
    np.testing.assert_allclose(vals[0], 2.0 / 5.0, rtol=1e-15)
    assert np.all(vals[1:] == 0.0)
    # E = -grad A_0 = q rhat / r^2 inward gradient: dA0/dx = -q x / r^3
    da = pot.deriv_fn(x.coords)
    np.testing.assert_allclose(da[1, 0], -2.0 * 3.0 / 125.0, rtol=1e-14)
    np.testing.assert_allclose(da[3, 0], -2.0 * 4.0 / 125.0, rtol=1e-14)


def test_coulomb_potential_guards_the_origin():
    pot = coulomb_potential(1.0)
    with pytest.raises(OutsideDomain):
        pot.guard.check(SpacetimeEvent([0, 0, 0, 0]))


def test_coulomb_potential_spherical_chart_uses_radial_coordinate():
    pot = coulomb_potential(1.0, radial_index=1)
    x = SpacetimeEvent([0.0, 4.0, 1.0, 2.0])
    np.testing.assert_allclose(pot.values_fn(x.coords)[0], 0.25, rtol=1e-15)


def test_axial_potential_component():
    pot = axial_magnetic_potential_spherical(2.0)
    x = SpacetimeEvent([0.0, 3.0, np.pi / 2, 1.0])
    vals = pot.values_fn(x.coords)
    np.testing.assert_allclose(vals[3], 0.5 * 2.0 * 9.0, rtol=1e-15)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 0.0


@settings(max_examples=50, deadline=None)
@given(e=three_vec, b=three_vec)
def test_uniform_faraday_matches_matrix_builder(e, b):
    field = uniform_faraday(e, b)
    x = SpacetimeEvent([0, 1, 2, 3])
    np.testing.assert_array_equal(field.matrix_fn(x.coords), matrix_from_eb(e, b))


# ---------------------------------------------------------------------------
# closed-form Lorentz terms: the bits of (e F) @ u, lone and batched


def _velocities(rng, n):
    u = np.column_stack([rng.uniform(1.0, 3.0, n), rng.uniform(-1.0, 1.0, (n, 3))])
    for k in range(4):  # exact zeros, whose products' signs the row sums must keep
        u[k::7, k] = 0.0
    return u


def _cartesian_events(rng, n):
    r = np.exp(rng.uniform(math.log(0.5), math.log(1e4), n))
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    coords = np.column_stack([rng.uniform(-5.0, 5.0, n), r[:, None] * direction])
    for k in (1, 2, 3):  # events on the coordinate planes, where coulomb orbits run
        coords[k::5, k] = 0.0
    return coords


def _spherical_events(r_low, r_high):
    def events(rng, n):
        r = np.exp(rng.uniform(math.log(r_low), math.log(r_high), n))
        return np.column_stack([rng.uniform(-5.0, 5.0, n), r, rng.uniform(0.3, 2.8, n),
                                rng.uniform(0.0, 6.0, n)])

    return events


CLOSED_FORMS = {
    "cartesian-coulomb": (_cartesian_events, [coulomb_potential(q) for q in (2.0, -1.5)]),
    "spherical-coulomb": (_spherical_events(0.5, 1e4), [
        coulomb_potential(q, radial_index=1) for q in (0.5, -1.5)]),
    "axial-b": (_spherical_events(3.0, 40.0), [
        axial_magnetic_potential_spherical(b) for b in (1e-3, -0.3)]),
}


def _assert_lorentz_bits(potential, coords, u, charges):
    """The term has the bits of (e F) @ u, lone, batched and written out on
    floats from the gradient's formula."""
    field = faraday_field_of(potential)
    assert isinstance(spec(field.matrix_fn), Contracted)
    for e in charges:
        lorentz = electromagnetic_connection(field, e).order0_raw
        floats = _lone_term(lorentz)  # as the generated right-hand side writes it out
        batch = lorentz(coords, u)
        for i in range(len(coords)):
            lone = lorentz(coords[i], u[i])
            want = (e * faraday_matrix_raw(potential, coords[i])) @ u[i]
            assert lone.tobytes() == want.tobytes(), (coords[i], u[i], e)
            assert batch[i].tobytes() == lone.tobytes(), (coords[i], u[i], e)
            written = np.array(floats(coords[i].tolist(), u[i].tolist()))
            assert written.tobytes() == lone.tobytes(), (coords[i], u[i], e)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_lorentz_term_has_the_bits_of_the_contracted_block(name):
    # bit for bit, signed zeros included: the derived term sums each row as
    # numpy's 4x4 matrix-vector product does
    events, potentials = CLOSED_FORMS[name]
    rng = np.random.default_rng(sorted(CLOSED_FORMS).index(name))
    coords, u = events(rng, 400), _velocities(rng, 400)
    for potential in potentials:
        _assert_lorentz_bits(potential, coords, u, (1.0, -0.7, 3.0, 0.0, -0.0))


@pytest.mark.parametrize("radial_index", [2, 3])
def test_coulomb_on_any_radial_coordinate_gets_a_derived_lorentz_term(radial_index):
    rng = np.random.default_rng(radial_index)
    coords = rng.uniform(-5.0, 5.0, (200, 4))
    coords[:, radial_index] = np.exp(rng.uniform(math.log(0.5), math.log(1e4), 200))
    _assert_lorentz_bits(coulomb_potential(1.5, radial_index=radial_index), coords,
                         _velocities(rng, 200), (1.0, -0.7))


def test_a_gradient_without_its_closed_form_falls_back_to_the_matrix_path():
    # a pass-through wrapper of a closed-form gradient, as instrumentation
    # rebinds one, and a user potential of lambdas carry no formula to derive
    # the term from: the connection contracts e F, with the same bits
    coulomb = coulomb_potential(2.0)
    wrapped = dataclasses.replace(coulomb, deriv_fn=lambda c: coulomb.deriv_fn(c))
    user = VectorPotential(lambda c: np.array([0.0, c[2], -c[1], 0.0]) / 2,
                           deriv_fn=lambda c: np.array([[0.0] * 4, [0.0, 0.0, -0.5, 0.0],
                                                        [0.0, 0.5, 0.0, 0.0], [0.0] * 4]))
    assert spec(faraday_field_of(coulomb).matrix_fn) is not None
    rng = np.random.default_rng(5)
    coords, u = _cartesian_events(rng, 100), _velocities(rng, 100)
    for potential in (wrapped, user):
        field = faraday_field_of(potential)
        assert spec(field.matrix_fn) is None
        k0 = electromagnetic_connection(field, -0.7).order0_raw
        for x, v in zip(coords, u):
            want = (-0.7 * faraday_matrix_raw(potential, x)) @ v
            assert k0(x, v).tobytes() == want.tobytes(), (x, v)
    derived = electromagnetic_connection(faraday_field_of(coulomb), -0.7).order0_raw
    fallback = electromagnetic_connection(faraday_field_of(wrapped), -0.7).order0_raw
    assert derived(coords, u).tobytes() == fallback(coords, u).tobytes()


@pytest.mark.parametrize("name", ["zero", "uniform", "uniform-eb"])
def test_a_constant_gradient_derives_a_lorentz_term_with_the_matrix_paths_bits(name):
    # every entry of a constant gradient is bound as it is, so the derived
    # term keeps the signs of its zeros: B = (-0.7, 0.4, -1.2) gives the
    # gradient 0.5 (B x e_i) entries of -0.0, and the term has the bits of
    # e (dA - dA^T) @ u on signed zeros, infinities and NaN.  A uniform F's
    # rows are scaled by e on floats as numpy scales them: this F has
    # entries of -0.0 and 1e300, so e = 1e300 overflows some of e F to inf
    if name == "uniform-eb":
        field = uniform_faraday([0.3, 0.0, -0.1], [-0.7, 1e300, -1.2])
        f = field.matrix_fn(np.zeros(4))
        assert np.any((f == 0.0) & np.signbit(f)) and np.max(f) == 1e300
    else:
        if name == "zero":
            potential = zero_potential()
        else:
            potential = uniform_field_potential([0.3, -0.1, 0.0], [-0.7, 0.4, -1.2])
            grad = potential.deriv_fn(np.zeros(4))
            assert np.any((grad == 0.0) & np.signbit(grad))
        field = faraday_field_of(potential)
    assert isinstance(spec(field.matrix_fn), Contracted)
    rng = np.random.default_rng(len(name))
    coords, u = _cartesian_events(rng, 200), _velocities(rng, 200)
    for special in (-0.0, math.inf, -math.inf, math.nan):
        rows = rng.choice(200, 20, replace=False)
        u[rows, rng.integers(0, 4, 20)] = special
    with np.errstate(invalid="ignore", over="ignore"):
        for e in (1.0, -0.7, 0.0, -0.0, 1e300):
            lorentz = electromagnetic_connection(field, e).order0_raw
            floats = _lone_term(lorentz)
            batch = lorentz(coords, u)
            for i in range(len(coords)):
                want = _bits((e * field.matrix_fn(coords[i])) @ u[i])
                assert _bits(lorentz(coords[i], u[i])) == want, (u[i], e)
                assert _bits(batch[i]) == want, (u[i], e)
                assert _bits(floats(coords[i].tolist(), u[i].tolist())) == want, (u[i], e)
