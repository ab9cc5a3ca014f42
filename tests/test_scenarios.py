"""Scenario document parsing: strict schema, closed-form initial data."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from phasetransport import oracles, scenarios
from phasetransport.errors import ParseError, ValidationError
from phasetransport.scenarios import (
    builtin_names,
    load_builtin,
    load_scenario,
    solve_time_component,
)
from phasetransport.metrics import schwarzschild
from phasetransport.tensor import spec


def test_minimal_document_is_a_free_particle():
    s = load_scenario("")
    assert s.metric.name == "minkowski"
    assert s.potential is None and s.faraday is None
    assert s.particle.mass == 1.0 and s.particle.charge == 0.0
    np.testing.assert_array_equal(s.initial.u.components, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.initial.x.coords, [0.0, 0.0, 0.0, 0.0])


def test_comments_and_blank_lines_are_ignored():
    s = load_scenario(
        """
# leading comment
[particle]   # trailing comment
mass = 2.0   # another
"""
    )
    assert s.particle.mass == 2.0


def test_unknown_section_rejected_with_line_number():
    with pytest.raises(ParseError) as err:
        load_scenario("[nonsense]\n")
    assert err.value.line == 1


def test_unknown_key_rejected_with_line_and_key():
    with pytest.raises(ParseError) as err:
        load_scenario("[metric]\ntype = minkowski\nmasss = 1.0\n")
    assert err.value.line == 3
    assert err.value.key == "masss"


def test_duplicate_key_and_section_rejected():
    with pytest.raises(ParseError):
        load_scenario("[particle]\nmass = 1\nmass = 2\n")
    with pytest.raises(ParseError):
        load_scenario("[particle]\n[particle]\n")


def test_malformed_lines_rejected():
    with pytest.raises(ParseError):
        load_scenario("[particle]\nmass 1.0\n")  # no equals sign
    with pytest.raises(ParseError):
        load_scenario("mass = 1.0\n")  # key before any section
    with pytest.raises(ParseError):
        load_scenario("[particle]\nmass = not-a-number\n")


def test_renormalize_is_an_unknown_integrator_key():
    # the law keeps g(u, u) = -1 by itself; no option rescales u
    with pytest.raises(ParseError, match="unknown key in \\[integrator\\]") as err:
        load_scenario("[integrator]\nrenormalize = true\n")
    assert (err.value.key, err.value.line) == ("renormalize", 2)


def test_inside_horizon_start_is_a_validation_error():
    doc = "[metric]\ntype = schwarzschild\nmass = 1.0\n\n[initial]\nx1 = 1.5\n"
    with pytest.raises(ValidationError):
        load_scenario(doc)


@pytest.mark.parametrize("doc", [
    "[metric]\ntype = weak-field\nmass = 1.0\n\n[initial]\nx1 = 1e200\n",
    "[em]\ntype = coulomb\nq = 1.0\n\n[particle]\ncharge = 1.0\n\n[initial]\nx1 = 1e200\n",
    "[metric]\ntype = schwarzschild\nmass = 1.0\n\n[initial]\nx1 = 1e200\nx2 = 1.5\n",
], ids=["weak-field", "coulomb", "schwarzschild"])
def test_a_start_whose_square_overflows_loads_without_a_warning(doc):
    # load_scenario owns numpy's error state, as the integration entry points
    # do: it loads the document or rejects it, and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_scenario(doc)
        except ValidationError:
            pass


@pytest.mark.parametrize("initial", ["x1 = 10.0\nx2 = 1.0\nu3 = 0.01",
                                     "orbit = circular\nradius = 10.0"])
def test_initial_point_is_probed_once(initial, monkeypatch):
    # each branch of [initial] probes the metric guard at the start point once
    probes = []

    def counted_schwarzschild(mass):
        g = schwarzschild(mass)

        def probe(coords):
            probes.append(1)
            return g.guard.probe(coords)

        return dataclasses.replace(g, guard=dataclasses.replace(g.guard, probe=probe))

    monkeypatch.setattr(scenarios, "schwarzschild", counted_schwarzschild)
    load_scenario(f"[metric]\ntype = schwarzschild\nmass = 1.0\n\n[initial]\n{initial}\n")
    assert len(probes) == 1


def test_unknown_enums_are_validation_errors():
    with pytest.raises(ValidationError):
        load_scenario("[metric]\ntype = kerr\n")
    with pytest.raises(ValidationError):
        load_scenario("[em]\ntype = dipole\n")
    with pytest.raises(ValidationError):
        load_scenario("[scenario]\noracle = psychic\n")
    with pytest.raises(ValidationError):
        load_scenario("[initial]\norbit = parabolic\n")


def test_em_keys_must_match_field_type():
    with pytest.raises(ValidationError):
        load_scenario("[em]\ntype = coulomb\nb_z = 1.0\n")
    with pytest.raises(ValidationError):
        load_scenario("[em]\ntype = uniform\nq = 1.0\n")


def test_circular_keyword_reproduces_closed_form_rate():
    doc = (
        "[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
        "[initial]\norbit = circular\nradius = 10.0\n"
    )
    s = load_scenario(doc)
    u = s.initial.u.components
    rate = u[3] / u[0]
    np.testing.assert_allclose(rate, math.sqrt(1.0 / 1000.0), rtol=1e-15)
    np.testing.assert_allclose(u[0], oracles.circular_orbit_time_component(1.0, 10.0))
    assert s.parameters["initial"]["rate"] == pytest.approx(rate)


def test_bound_keyword_reproduces_turning_point_constants():
    doc = (
        "[metric]\ntype = schwarzschild\nmass = 1.0\n\n"
        "[initial]\norbit = bound\nr_peri = 18.0\nr_apo = 22.0\n"
    )
    s = load_scenario(doc)
    energy, ell = oracles.bound_orbit_constants(1.0, 18.0, 22.0)
    u = s.initial.u.components
    np.testing.assert_allclose(u[0] * (1.0 - 2.0 / 18.0), energy, rtol=1e-15)
    np.testing.assert_allclose(u[3] * 18.0**2, ell, rtol=1e-15)
    assert s.initial.x.coords[1] == 18.0


def test_orbit_keyword_conflicts_with_direct_velocity():
    doc = "[initial]\norbit = circular\nradius = 10.0\nu1 = 0.5\n"
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_orbit_parameters_without_orbit_keyword_rejected():
    with pytest.raises(ValidationError):
        load_scenario("[initial]\nradius = 10.0\n")


def test_bound_orbit_requires_spherical_chart():
    doc = "[initial]\norbit = bound\nr_peri = 18.0\nr_apo = 22.0\n"
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_circular_coulomb_orbit_needs_attraction():
    doc = (
        "[em]\ntype = coulomb\nq = 1.0\n\n[particle]\nmass = 1.0\ncharge = -1.0\n\n"
        "[initial]\norbit = circular\nradius = 10.0\n"
    )
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_time_component_always_solved_from_normalization():
    s = load_scenario("[initial]\nu1 = 3.0\nu2 = 4.0\n")
    u = s.initial.u.components
    np.testing.assert_allclose(u[0], math.sqrt(26.0), rtol=1e-15)
    np.testing.assert_allclose(-u[0] ** 2 + u[1] ** 2 + u[2] ** 2, -1.0, rtol=1e-14)


def test_solve_time_component_on_curved_chart():
    g = schwarzschild(1.0)
    coords = np.array([0.0, 10.0, math.pi / 2, 0.0])
    u0 = solve_time_component(g, coords, np.zeros(3))
    np.testing.assert_allclose(u0, 1.0 / math.sqrt(0.8), rtol=1e-15)


@pytest.mark.parametrize("coords,u_spatial", [
    ([0.0, 1e160, math.pi / 2, 0.0], [0.0, 0.0, 0.0]),  # r^2 overflows: 0 * inf
    ([0.0, 10.0, math.pi / 2, 0.0], [1e300, 0.0, 0.0]),  # u^r u^r overflows
])
def test_solve_time_component_rejects_a_u0_that_is_not_finite(coords, u_spatial):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValidationError, match=r"unit-norm u\^0 is (nan|inf) here"):
        solve_time_component(schwarzschild(1.0), np.array(coords), np.array(u_spatial))


def test_integrator_section_round_trips_to_config():
    doc = (
        "[integrator]\nmethod = rk45-adaptive\nstep = 0.5\nrtol = 1e-8\n"
        "atol = 1e-10\ntau_max = 42.0\nmax_steps = 777\n"
    )
    cfg = load_scenario(doc).config
    assert cfg.method == "rk45-adaptive"
    assert cfg.step == 0.5
    assert cfg.rtol == 1e-8
    assert cfg.atol == 1e-10
    assert cfg.tau_max == 42.0
    assert cfg.max_steps == 777


def test_bad_integrator_values_become_validation_errors():
    with pytest.raises(ValidationError):
        load_scenario("[integrator]\nmethod = euler\n")
    with pytest.raises(ValidationError):
        load_scenario("[integrator]\nstep = -0.1\n")


def test_every_builtin_loads_and_carries_its_name():
    for name in builtin_names():
        s = load_builtin(name)
        assert s.name == name
        assert s.config.tau_max > 0


def test_builtin_registry_rejects_unknown_names():
    with pytest.raises(ValidationError):
        load_builtin("not-a-scenario")


def test_axial_field_requires_spherical_chart():
    with pytest.raises(ValidationError):
        load_scenario("[em]\ntype = axial-b\nb = 0.1\n")


def test_uniform_field_requires_cartesian_chart():
    doc = (
        "[metric]\ntype = schwarzschild\nmass = 1.0\n\n[em]\ntype = uniform\nb_z = 1.0\n\n"
        "[initial]\norbit = circular\nradius = 10.0\n"
    )
    with pytest.raises(ValidationError):
        load_scenario(doc)


def test_coulomb_and_axial_fields_carry_their_closed_form_lorentz_terms():
    # F's spec: the uniform field's constant rows; the other two the closed
    # form of the gradient whose curl F is, from which (e F) u is written out
    specs = {name: spec(load_builtin(name).faraday.matrix_fn) for name in
             ("cyclotron", "coulomb", "combined-schwarzschild-B")}
    assert specs["cyclotron"].block is not None
    assert specs["coulomb"].curl is not None
    assert specs["combined-schwarzschild-B"].curl is not None
