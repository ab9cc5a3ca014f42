"""Seeded scenario documents for the four benchmark workloads.

The program under test only ever sees the documents made here.  Seed 0
of `lorentz-flat` and `geodesic-curved` is the package's built-in
documents, verbatim.  Any other seed maps each built-in through a
symmetry of the transport law: a change of length unit (every length and
proper time times `scale`, fields and masses rescaled to match), a
rotation of the frame for the flat uniform-field scenarios, a shift of
the start point, and a common factor on particle mass and charge.  The
integrator then takes exactly as many steps as on the built-in, and
every oracle error equals the built-in's up to rounding, so per-seed
work and accuracy are comparable while the input bytes are all new.

`orbit-ensemble` instead spreads its 48 orbits over the parameter bands
named below with a Latin hypercube, so that every seed covers each band
evenly and the worst case of the ensemble sits near the band edges on
every seed.

Generation depends only on the seed: the same seed gives byte-identical
documents.  Floats are written with `repr`, which parses back exactly.
"""

from __future__ import annotations

import math
import random
import re

WORKLOADS = ("lorentz-flat", "geodesic-curved", "orbit-ensemble", "checkers")

LORENTZ_FLAT = ("cyclotron", "exb-drift", "coulomb")
GEODESIC_CURVED = (
    "schwarzschild-precession",
    "schwarzschild-circular",
    "weak-field-newtonian",
    "combined-schwarzschild-B",
)
EM_DOCS = ("cyclotron", "exb-drift", "coulomb", "combined-schwarzschild-B")

#: Band of the length-unit factor applied to built-ins on seeds other than 0.
SCALE_BAND = (0.5, 2.0)
#: Band of the common factor on particle mass and charge (keeps e/m fixed).
MASS_BAND = (0.5, 2.0)

#: orbit-ensemble sizes and parameter bands.
ENSEMBLE_ORBITS = 24
ENSEMBLE_CYCLOTRONS = 24
R_PERI_BAND = (15.0, 25.0)  # in units of M
ECCENTRICITY_BAND = (0.05, 0.15)
RADIAL_PERIODS = 2.3
B_BAND = (0.5, 2.0)
U_PERP_BAND = (0.05, 0.3)
ENSEMBLE_RK4_STEP = 1e-2
#: `--jobs` of the orbit-ensemble CLI run; every other workload is one thread.
ENSEMBLE_JOBS = 2

#: checkers: every integration horizon is cut to this share of its
#: document's, as `--tau-max` would; no bound is touched.
CHECKERS_TAU_SHARE = 0.125
#: checkers: (document, checker) pairs, the set the acceptance gate runs.
CHECK_PLAN = (
    [(name, "minimal-substitution") for name in EM_DOCS]
    + [(name, "mass-invariance") for name in (
        "schwarzschild-circular", "schwarzschild-precession",
        "weak-field-newtonian", "cyclotron")]
    + [(name, "bianchi") for name in LORENTZ_FLAT + GEODESIC_CURVED]
    + [(name, "closure") for name in EM_DOCS]
)

# built-in proper-time horizons and steps at unit scale
_CYCLOTRON_TAU = 2.0 * math.pi
_EXB_TAU = 63.14838833996553
_COULOMB_TAU = 193.7880644986276
_CIRCULAR_TAU = 166.23745764132164
_PRECESSION_TAU = 7123.786612218793


def _rng(workload: str, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"phasetransport-bench/{workload}/{seed}/{salt}")


def _log_uniform(rng: random.Random, band: tuple[float, float]) -> float:
    lo, hi = band
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rotation(rng: random.Random) -> list[list[float]]:
    """Uniformly random proper rotation (Shoemake's unit quaternion)."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a = math.sqrt(1.0 - u1) * math.sin(2.0 * math.pi * u2)
    b = math.sqrt(1.0 - u1) * math.cos(2.0 * math.pi * u2)
    c = math.sqrt(u1) * math.sin(2.0 * math.pi * u3)
    w = math.sqrt(u1) * math.cos(2.0 * math.pi * u3)
    return [
        [1 - 2 * (b * b + c * c), 2 * (a * b - c * w), 2 * (a * c + b * w)],
        [2 * (a * b + c * w), 1 - 2 * (a * a + c * c), 2 * (b * c - a * w)],
        [2 * (a * c - b * w), 2 * (b * c + a * w), 1 - 2 * (a * a + b * b)],
    ]


def _rotate(rot, vec) -> list[float]:
    return [sum(rot[i][j] * vec[j] for j in range(3)) for i in range(3)]


def document(name: str, oracle: str, **sections: dict) -> str:
    """Scenario document text; section values are written exactly."""
    lines = ["[scenario]", f"name = {name}", f"oracle = {oracle}"]
    for section, keys in sections.items():
        lines += ["", f"[{section}]"]
        for key, value in keys.items():
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _rescaled(name: str, rng: random.Random, scale_band) -> str:
    """A built-in mapped through a random symmetry of the transport law."""
    s = _log_uniform(rng, scale_band)
    mu = _log_uniform(rng, MASS_BAND)
    t0 = rng.uniform(0.0, 10.0) * s
    particle = {"mass": mu, "charge": mu}
    if name == "cyclotron":
        u_perp = rng.uniform(*U_PERP_BAND)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x = [rng.uniform(-1.0, 1.0) * s for _ in range(3)]
        return document(
            name, "cyclotron",
            metric={"type": "minkowski"},
            em={"type": "uniform", "b_z": 1.0 / s},
            particle=particle,
            initial={"t": t0, "x1": x[0], "x2": x[1], "x3": x[2],
                     "u1": u_perp * math.cos(angle), "u2": u_perp * math.sin(angle)},
            integrator={"method": "rk4-fixed", "step": 1e-3 * s, "tau_max": _CYCLOTRON_TAU * s},
        )
    if name == "exb-drift":
        rot = _rotation(rng)
        e_vec = _rotate(rot, [0.1 / s, 0.0, 0.0])
        b_vec = _rotate(rot, [0.0, 0.0, 1.0 / s])
        x = [rng.uniform(-1.0, 1.0) * s for _ in range(3)]
        em = {"type": "uniform"}
        em.update({f"e_{k}": v for k, v in zip("xyz", e_vec)})
        em.update({f"b_{k}": v for k, v in zip("xyz", b_vec)})
        return document(
            name, "exb-drift",
            metric={"type": "minkowski"},
            em=em,
            particle=particle,
            initial={"t": t0, "x1": x[0], "x2": x[1], "x3": x[2]},
            integrator={"method": "rk4-fixed", "step": 1e-2 * s, "tau_max": _EXB_TAU * s},
        )
    if name == "coulomb":
        return document(
            name, "circular-orbit",
            metric={"type": "minkowski"},
            em={"type": "coulomb", "q": s},
            particle=particle,
            initial={"orbit": "circular", "t": t0, "radius": 10.0 * s},
            integrator={"method": "rk4-fixed", "step": 1e-2 * s, "tau_max": _COULOMB_TAU * s},
        )
    if name == "schwarzschild-circular":
        return document(
            name, "circular-orbit",
            metric={"type": "schwarzschild", "mass": s},
            particle=particle,
            initial={"orbit": "circular", "t": t0, "radius": 10.0 * s},
            integrator={"method": "rk4-fixed", "step": 5e-2 * s, "tau_max": _CIRCULAR_TAU * s},
        )
    if name == "schwarzschild-precession":
        return document(
            name, "precession",
            metric={"type": "schwarzschild", "mass": s},
            particle=particle,
            initial={"orbit": "bound", "t": t0, "r_peri": 18.0 * s, "r_apo": 22.0 * s},
            integrator={"method": "rk45-adaptive", "step": 1.0 * s, "rtol": 1e-10,
                        "atol": 1e-12 * s, "tau_max": _PRECESSION_TAU * s},
        )
    if name == "weak-field-newtonian":
        rot = _rotation(rng)
        x = _rotate(rot, [1e4 * s, 0.0, 0.0])
        return document(
            name, "newtonian-force",
            metric={"type": "weak-field", "mass": s},
            particle={"mass": mu, "charge": 0.0},
            initial={"t": t0, "x1": x[0], "x2": x[1], "x3": x[2]},
            integrator={"method": "rk4-fixed", "step": 1e-2 * s, "tau_max": 10.0 * s},
        )
    if name == "combined-schwarzschild-B":
        return document(
            name, "none",
            metric={"type": "schwarzschild", "mass": s},
            em={"type": "axial-b", "b": 1e-3 / s},
            particle=particle,
            initial={"orbit": "bound", "t": t0, "r_peri": 18.0 * s, "r_apo": 22.0 * s},
            integrator={"method": "rk4-fixed", "step": 5e-2 * s, "tau_max": 166.0 * s},
        )
    raise ValueError(f"no seeded form of {name!r}")


def _seeded(names, workload: str, seed: int, scale_band=SCALE_BAND) -> list[tuple[str, str]]:
    if seed == 0:
        from phasetransport.scenarios import builtin_text

        return [(name, builtin_text(name)) for name in names]
    return [(name, _rescaled(name, _rng(workload, seed, name), scale_band)) for name in names]


def _latin_hypercube(rng: random.Random, n: int, bands) -> list[list[float]]:
    """n points, each band cut into n strata, every stratum used once."""
    columns = []
    for lo, hi in bands:
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / n for k in strata])
    return [list(point) for point in zip(*columns)]


def _ensemble(seed: int) -> list[tuple[str, str]]:
    from phasetransport.oracles import radial_period_proper

    rng = _rng("orbit-ensemble", seed)
    docs = []
    for i, (r_peri, ecc) in enumerate(
        _latin_hypercube(rng, ENSEMBLE_ORBITS, (R_PERI_BAND, ECCENTRICITY_BAND))
    ):
        r_apo = r_peri * (1.0 + ecc) / (1.0 - ecc)
        tau_max = RADIAL_PERIODS * radial_period_proper(1.0, r_peri, r_apo)
        name = f"orbit-{i:02d}"
        docs.append((name, document(
            name, "precession",
            metric={"type": "schwarzschild", "mass": 1.0},
            particle={"mass": 1.0, "charge": 0.0},
            initial={"orbit": "bound", "r_peri": r_peri, "r_apo": r_apo},
            integrator={"method": "rk45-adaptive", "step": 1.0, "rtol": 1e-10,
                        "atol": 1e-12, "tau_max": tau_max},
        )))
    for i, (b, u_perp) in enumerate(
        _latin_hypercube(rng, ENSEMBLE_CYCLOTRONS, (B_BAND, U_PERP_BAND))
    ):
        name = f"gyro-{i:02d}"
        docs.append((name, document(
            name, "cyclotron",
            metric={"type": "minkowski"},
            em={"type": "uniform", "b_z": b},
            particle={"mass": 1.0, "charge": 1.0},
            initial={"u1": u_perp},
            integrator={"method": "rk4-fixed", "step": ENSEMBLE_RK4_STEP,
                        "tau_max": 2.0 * math.pi / b},
        )))
    return docs


_TAU_LINE = re.compile(r"^tau_max = (.*)$", re.MULTILINE)


def _shortened(text: str) -> str:
    return _TAU_LINE.sub(lambda m: f"tau_max = {float(m.group(1)) * CHECKERS_TAU_SHARE!r}", text)


def threads(workload: str) -> int:
    """Threads the workload runs the package on."""
    return ENSEMBLE_JOBS if workload == "orbit-ensemble" else 1


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """The workload's documents for `seed`, as (name, text) pairs."""
    if workload == "lorentz-flat":
        return _seeded(LORENTZ_FLAT, workload, seed)
    if workload == "geodesic-curved":
        return _seeded(GEODESIC_CURVED, workload, seed)
    if workload == "orbit-ensemble":
        return _ensemble(seed)
    if workload == "checkers":
        # the identity checkers difference with fixed absolute steps, so
        # their convergence ratio depends on the length unit: keep M = 1
        seeded = _seeded(LORENTZ_FLAT + GEODESIC_CURVED, workload, seed, scale_band=(1.0, 1.0))
        return [(name, _shortened(text)) for name, text in seeded]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
