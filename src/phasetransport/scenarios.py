"""Scenario documents: strict key=value configs resolved to runnable setups.

A scenario document has flat ``key = value`` sections; the accepted
sections are [scenario], [metric], [em], [particle], [initial], and
[integrator].  Parsing is strict: unknown sections, unknown keys,
duplicate keys, and malformed or non-finite literals all fail with a
ParseError carrying the line number and key.  Semantic problems (a start
point inside the horizon, an impossible normalization) fail with
ValidationError after parsing.

The [initial] section either gives spatial coordinates and spatial
velocity components directly — the time component of the velocity is
always solved from the unit-norm condition, never supplied — or names a
closed-form orbit (``orbit = circular`` / ``orbit = bound``) whose
initial data the loader derives from the metric and field parameters.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from . import oracles
from .connection import (
    NonLinearConnection,
    Particle,
    electromagnetic_connection,
    gravitational_connection,
    superpose,
    zero_connection,
)
from .curvature import faraday_field_of
from .errors import ParseError, ValidationError
from .fields import (
    FaradayField,
    VectorPotential,
    axial_magnetic_potential_spherical,
    coulomb_potential,
    uniform_faraday,
    uniform_field_potential,
)
from .metrics import minkowski, schwarzschild, weak_field
from .tensor import DomainGuard, FlatMetric, FourVector, MetricField, SpacetimeEvent
from .transport import IntegratorConfig, PhaseState

__all__ = [
    "Scenario",
    "load_scenario",
    "load_scenario_file",
    "builtin_names",
    "builtin_text",
    "load_builtin",
    "solve_time_component",
]

BUILTIN_NAMES = (
    "free",
    "cyclotron",
    "exb-drift",
    "coulomb",
    "schwarzschild-circular",
    "schwarzschild-precession",
    "weak-field-newtonian",
    "combined-schwarzschild-B",
)

_ORACLES = (
    "free",
    "cyclotron",
    "exb-drift",
    "circular-orbit",
    "precession",
    "newtonian-force",
    "none",
)

# section -> key -> converter; converters raise ValueError on bad literals
_FLOAT_KEYS = {
    "metric": ("mass",),
    "em": ("e_x", "e_y", "e_z", "b_x", "b_y", "b_z", "q", "b"),
    "particle": ("mass", "charge"),
    "initial": ("t", "x1", "x2", "x3", "u1", "u2", "u3", "radius", "r_peri", "r_apo"),
    "integrator": ("step", "rtol", "atol", "tau_max"),
}
_SCHEMA = {
    "scenario": {"name": str, "oracle": str},
    "metric": {"type": str},
    "em": {"type": str},
    "particle": {},
    "initial": {"orbit": str},
    "integrator": {"method": str, "max_steps": int},
}
for _sec, _keys in _FLOAT_KEYS.items():
    for _k in _keys:
        _SCHEMA[_sec][_k] = float


def _parse_document(text: str) -> dict[str, dict[str, object]]:
    """Raw pass: sections of typed key-value pairs, strictly validated."""
    out: dict[str, dict[str, object]] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ParseError(f"unknown section [{section}]", line=lineno)
            if section in out:
                raise ParseError(f"duplicate section [{section}]", line=lineno)
            out[section] = {}
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        if section is None:
            raise ParseError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            raise ParseError(f"unknown key in [{section}]", line=lineno, key=key)
        if key in out[section]:
            raise ParseError(f"duplicate key in [{section}]", line=lineno, key=key)
        conv = schema[key]
        try:
            out[section][key] = conv(value)
        except ValueError as err:
            raise ParseError(str(err), line=lineno, key=key) from None
        if conv is float and not math.isfinite(out[section][key]):
            raise ParseError(f"not a finite number: {value!r}", line=lineno, key=key)
    return out


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run setup.

    `chart` records the coordinate meaning of the x/y/z output columns:
    'cartesian' for the flat and weak-field metrics, 'spherical'
    (r, theta, phi) for the vacuum metric.  `parameters` echoes the
    resolved configuration for reports.
    """

    name: str
    metric: MetricField
    particle: Particle
    initial: PhaseState
    config: IntegratorConfig
    potential: Optional[VectorPotential] = None
    faraday: Optional[FaradayField] = None
    oracle: str = "none"
    chart: str = "cartesian"
    parameters: dict = field(default_factory=dict)

    def connection(self) -> NonLinearConnection:
        flat = isinstance(self.metric, FlatMetric)
        gravity = None if flat else gravitational_connection(self.metric)
        em = None
        if self.faraday is not None and self.particle.charge != 0.0:
            em = electromagnetic_connection(self.faraday, self.particle.charge)
        if gravity is not None and em is not None:
            return superpose(gravity, em)
        if gravity is not None:
            return gravity
        if em is not None:
            return em
        return zero_connection(self.metric)


def solve_time_component(g: MetricField, coords: np.ndarray, u_spatial: np.ndarray) -> float:
    """u^0 > 0 making the velocity unit-norm at `coords`; the metrics here
    are block-diagonal in time so the quadratic has at most one positive
    root."""
    gmat = g.matrix_fn(coords)
    a = gmat[0, 0]
    b = 2.0 * float(gmat[0, 1:] @ u_spatial)
    c = float(u_spatial @ gmat[1:, 1:] @ u_spatial) + 1.0
    if a >= 0:
        raise ValidationError("metric time-time component is not negative here")
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise ValidationError("no real unit-norm time component for the given spatial velocity")
    root = (-b - math.sqrt(disc)) / (2.0 * a)  # positive branch since a < 0
    if not 0 < root < math.inf:  # NaN too
        raise ValidationError(f"the unit-norm u^0 is {root:g} here, not finite and positive")
    return root


def _metric_from(doc: dict) -> tuple[MetricField, str, float]:
    sec = doc.get("metric", {})
    kind = sec.get("type", "minkowski")
    mass = float(sec.get("mass", 1.0))
    if kind == "minkowski":
        return minkowski(), "cartesian", 0.0
    if kind == "schwarzschild":
        return schwarzschild(mass), "spherical", mass
    if kind == "weak-field":
        return weak_field(mass), "cartesian", mass
    raise ValidationError(f"unknown metric type {kind!r}")


def _em_from(doc: dict, chart: str):
    sec = doc.get("em", {})
    kind = sec.get("type", "none")
    given = set(sec) - {"type"}

    def allow(*keys):
        extra = given - set(keys)
        if extra:
            raise ValidationError(
                f"[em] keys {sorted(extra)} do not apply to type {kind!r}"
            )

    if kind == "none":
        allow()
        return None, None, {}
    if kind == "uniform":
        allow("e_x", "e_y", "e_z", "b_x", "b_y", "b_z")
        if chart != "cartesian":
            raise ValidationError("uniform fields require a Cartesian chart")
        e_vec = [float(sec.get(k, 0.0)) for k in ("e_x", "e_y", "e_z")]
        b_vec = [float(sec.get(k, 0.0)) for k in ("b_x", "b_y", "b_z")]
        pot = uniform_field_potential(e_vec, b_vec)
        return pot, uniform_faraday(e_vec, b_vec), {"e": e_vec, "b": b_vec}
    if kind == "coulomb":
        allow("q")
        q = float(sec.get("q", 1.0))
        pot = coulomb_potential(q, radial_index=1 if chart == "spherical" else None)
        return pot, faraday_field_of(pot), {"q": q}
    if kind == "axial-b":
        allow("b")
        if chart != "spherical":
            raise ValidationError("the axial potential is written in the spherical chart")
        b = float(sec.get("b", 0.0))
        pot = axial_magnetic_potential_spherical(b)
        return pot, faraday_field_of(pot), {"b": b}
    raise ValidationError(f"unknown em type {kind!r}")


def _orbit_initial(
    doc: dict, g: MetricField, chart: str, metric_mass: float, em_params: dict,
    em_kind: str, particle: Particle,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Closed-form initial data for orbit = circular | bound."""
    sec = doc.get("initial", {})
    orbit = sec["orbit"]
    direct = set(sec) & {"x1", "x2", "x3", "u1", "u2", "u3"}
    if direct:
        raise ValidationError(
            f"[initial] keys {sorted(direct)} conflict with orbit = {orbit}"
        )
    t0 = float(sec.get("t", 0.0))

    if orbit == "circular":
        radius = sec.get("radius")
        if radius is None:
            raise ValidationError("orbit = circular needs radius")
        radius = float(radius)
        if isinstance(g, FlatMetric):
            if em_kind != "coulomb":
                raise ValidationError("circular orbit on flat spacetime needs a coulomb field")
            coupling = particle.charge * em_params["q"] / (particle.mass * radius)
            if coupling <= 0:
                raise ValidationError("coulomb circular orbit needs attractive e*q > 0")
            v = oracles.coulomb_circular_speed(coupling)
            gam = oracles.lorentz_gamma(v)
            coords = np.array([t0, radius, 0.0, 0.0])
            u = np.array([gam, 0.0, gam * v, 0.0])
            rate = v / radius
        elif chart == "spherical":
            ut = oracles.circular_orbit_time_component(metric_mass, radius)
            rate = oracles.circular_orbit_coordinate_rate(metric_mass, radius)
            coords = np.array([t0, radius, 0.5 * math.pi, 0.0])
            u = np.array([ut, 0.0, 0.0, rate * ut])
        else:
            ut = oracles.circular_orbit_time_component(metric_mass, radius)
            rate = oracles.circular_orbit_coordinate_rate(metric_mass, radius)
            coords = np.array([t0, radius, 0.0, 0.0])
            u = np.array([ut, 0.0, math.sqrt(metric_mass / radius) * ut, 0.0])
        return coords, u, {"radius": radius, "rate": rate}

    if orbit == "bound":
        if chart != "spherical":
            raise ValidationError("orbit = bound is defined for the vacuum chart")
        r_peri = sec.get("r_peri")
        r_apo = sec.get("r_apo")
        if r_peri is None or r_apo is None:
            raise ValidationError("orbit = bound needs r_peri and r_apo")
        r_peri, r_apo = float(r_peri), float(r_apo)
        energy, ang_mom = oracles.bound_orbit_constants(metric_mass, r_peri, r_apo)
        ut = energy / (1.0 - 2.0 * metric_mass / r_peri)
        coords = np.array([t0, r_peri, 0.5 * math.pi, 0.0])
        u = np.array([ut, 0.0, 0.0, ang_mom / r_peri**2])
        return coords, u, {
            "r_peri": r_peri,
            "r_apo": r_apo,
            "energy": energy,
            "angular_momentum": ang_mom,
        }

    raise ValidationError(f"unknown orbit keyword {orbit!r}")


def _require_in_domain(guard: DomainGuard, coords: np.ndarray, what: str) -> None:
    why = guard.probe(coords)
    if why is not None:
        raise ValidationError(f"initial point outside the {what} domain: {why}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def load_scenario(text: str, name: Optional[str] = None) -> Scenario:
    """Resolve a scenario document into a runnable Scenario.

    numpy's warnings are off for the whole call: a start whose square
    overflows is rejected or loaded, never warned about.
    """
    doc = _parse_document(text)

    meta = doc.get("scenario", {})
    scen_name = str(meta.get("name", name or "unnamed"))
    # the name is the stem of the file `run --out DIR` writes, inside DIR
    if scen_name in ("", ".", "..") or any(
        sep and sep in scen_name for sep in ("/", os.sep, os.altsep)
    ):
        raise ValidationError(f"scenario name {scen_name!r} is not a plain file name")
    oracle = str(meta.get("oracle", "none"))
    if oracle not in _ORACLES:
        raise ValidationError(f"unknown oracle {oracle!r}; expected one of {_ORACLES}")

    g, chart, metric_mass = _metric_from(doc)

    particle = Particle(**{"mass": 1.0, **doc.get("particle", {})})

    em_kind = doc.get("em", {}).get("type", "none")
    potential, faraday, em_params = _em_from(doc, chart)

    isec = doc.get("initial", {})
    orbit_params: dict = {}
    if "orbit" in isec:
        try:
            coords, u_arr, orbit_params = _orbit_initial(
                doc, g, chart, metric_mass, em_params, em_kind, particle
            )
        except ValidationError:
            raise
        except (ValueError, ArithmeticError) as err:
            # the closed forms reject parameters outside their domain
            raise ValidationError(f"orbit = {isec['orbit']}: {err}") from None
    else:
        bad = set(isec) & {"radius", "r_peri", "r_apo"}
        if bad:
            raise ValidationError(f"[initial] keys {sorted(bad)} need orbit = ...")
        coords = np.array(
            [float(isec.get(k, 0.0)) for k in ("t", "x1", "x2", "x3")]
        )
        u_spatial = np.array([float(isec.get(k, 0.0)) for k in ("u1", "u2", "u3")])
        _require_in_domain(g.guard, coords, "metric")  # before the metric is evaluated there
        u0 = solve_time_component(g, coords, u_spatial)
        u_arr = np.concatenate([[u0], u_spatial])

    if "orbit" in isec:
        _require_in_domain(g.guard, coords, "metric")
    if potential is not None:
        _require_in_domain(potential.guard, coords, "field")

    config = IntegratorConfig(**doc.get("integrator", {}))

    initial = PhaseState(
        tau=0.0,
        x=SpacetimeEvent(coords),
        u=FourVector(u_arr),
    )

    parameters = {
        "name": scen_name,
        "oracle": oracle,
        "chart": chart,
        "metric": {"type": doc.get("metric", {}).get("type", "minkowski"), "mass": metric_mass},
        "em": {"type": em_kind, **em_params},
        "particle": dataclasses.asdict(particle),
        "initial": {"coords": coords.tolist(), "u": u_arr.tolist(), **orbit_params},
        "integrator": dataclasses.asdict(config),
    }

    return Scenario(
        name=scen_name,
        metric=g,
        particle=particle,
        initial=initial,
        config=config,
        potential=potential,
        faraday=faraday,
        oracle=oracle,
        chart=chart,
        parameters=parameters,
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return load_scenario(text, name=stem)


def builtin_names() -> tuple[str, ...]:
    return BUILTIN_NAMES


def builtin_text(name: str) -> str:
    if name not in BUILTIN_NAMES:
        raise ValidationError(
            f"unknown builtin scenario {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    ref = resources.files("phasetransport").joinpath(f"scenarios/{name}.cfg")
    return ref.read_text(encoding="utf-8")


def load_builtin(name: str) -> Scenario:
    return load_scenario(builtin_text(name), name=name)
