"""Field-strength matrices and vector potentials.

Sign conventions under test: with signature (-,+,+,+) the covariant
matrix has F_0i = -E_i and F_12 = B_z, which produces d(m v)/dt =
e (E + v x B) in the flat-chart slow-motion limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    require_antisymmetric,
)
from phasetransport.tensor import SpacetimeEvent

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
