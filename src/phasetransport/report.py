"""Run a scenario, measure it against its closed-form reference, emit results.

`run` integrates a scenario and attaches oracle diagnostics to the
summary; `run_batch` does the same for scenarios that share one
transport law up to per-row constants (equal `batch_key`), integrated as
one batch.  `check`
evaluates one named structural property (bianchi, closure, norm,
mass-invariance, minimal-substitution) and reports its residuals with a
pass verdict against the documented bound.  `emit`
serializes a report as CSV or JSON.  Every float is written so that
parsing it back reproduces the in-memory value bit-exactly, and no
wall-clock data is recorded: identical inputs give identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import oracles
from .connection import Particle, electromagnetic_connection
from .curvature import bianchi_residual, closure_residual
from .errors import IncompatibleChecker, ValidationError
from .scenarios import Scenario
from .tensor import DIM
from .transport import (
    Trajectory,
    acceleration_terms,
    coordinate_force,
    integrate,
    integrate_batch,
    minimal_substitution_trajectory,
)

__all__ = [
    "RunReport", "run", "run_batch", "batch_key", "check", "emit", "CSV_COLUMNS", "CHECKERS",
]

CSV_COLUMNS = ("tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3", "norm_residual")

CHECKERS = ("bianchi", "closure", "norm", "mass-invariance", "minimal-substitution")

# order-2 convergence band: residual ratio on step halving, 4 +/- 15%
RATIO_BAND = (3.4, 4.6)
FLAT_FLOOR = 1e-12
CLOSURE_BOUND = 1e-8
NORM_BOUND = 1e-8
MASS_POINTWISE_BOUND = 1e-12
TERM_SCALING_BOUND = 1e-14
ENDPOINT_BOUND = 1e-6


@dataclass(frozen=True)
class RunReport:
    """Everything a run or a check produced: echo, samples, diagnostics."""

    scenario: dict
    summary: dict
    status: str
    samples: Optional[Trajectory] = None


def _plain(value):
    """Numpy scalars/containers -> builtin types, so summaries serialize."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _arrays(traj: Trajectory):
    """(tau, coords, u) columns of a trajectory."""
    return traj.tau, traj.state[:, :DIM], traj.state[:, DIM:]


def _fit_circle(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares circle through the points: returns (cx, cy, radius).

    Linear (Kasa) formulation: x^2 + y^2 = a x + b y + c.
    """
    design = np.column_stack([x, y, np.ones_like(x)])
    rhs = x * x + y * y
    (a, b, c), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    cx, cy = 0.5 * a, 0.5 * b
    return cx, cy, math.sqrt(c + cx * cx + cy * cy)


def _unwrapped_angle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.unwrap(np.arctan2(y, x))


def _hermite(k: np.ndarray, s: np.ndarray, tau: np.ndarray, y: np.ndarray, v: np.ndarray):
    """Cubic Hermite interpolant of samples y with exact tau-derivatives v,
    at fraction s of each step [tau_k, tau_k+1]."""
    h = tau[k + 1] - tau[k]
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y[k] + s * (1.0 - s) ** 2 * h * v[k]
            + s * s * (3.0 - 2.0 * s) * y[k + 1] - s * s * (1.0 - s) * h * v[k + 1])


def _radial_extrema(tau: np.ndarray, r: np.ndarray, ur: np.ndarray):
    """Minima and maxima of r(tau) from the samples of r and u^r.

    On each step where u^r changes sign, or is exactly zero at the step's
    left end (as at a periapsis start), the derivative of the cubic
    Hermite interpolant of (r, u^r) is a quadratic in the step fraction s
    with exactly one root in [0, 1], solved in closed form.  Returns the
    step index k and fraction s of each extremum, and whether it is a
    minimum (u^r turns from negative to positive).
    """
    v0, v1 = ur[:-1], ur[1:]
    k = np.flatnonzero((v0 == 0.0) & (v1 != 0.0) | (v0 < 0.0) & (v1 > 0.0)
                       | (v0 > 0.0) & (v1 < 0.0))
    h = tau[k + 1] - tau[k]
    hv0, hv1, d = h * v0[k], h * v1[k], r[k + 1] - r[k]
    # d(hermite)/ds = a s^2 + b s + c
    a = 3.0 * (hv0 + hv1) - 6.0 * d
    b = 6.0 * d - 4.0 * hv0 - 2.0 * hv1
    c = hv0
    # the two roots without cancellation: c / q, and q / a unless a = 0
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    small = np.divide(c, q, out=np.zeros_like(q), where=q != 0.0)
    large = np.divide(q, a, out=np.full_like(q, np.inf), where=a != 0.0)
    # the one in [0, 1] is the nearer to it, whatever the rounding
    nearer = np.abs(small - np.clip(small, 0.0, 1.0)) <= np.abs(large - np.clip(large, 0.0, 1.0))
    return k, np.clip(np.where(nearer, small, large), 0.0, 1.0), v1[k] > 0.0


# ---------------------------------------------------------------------------
# oracle measurements


def _measure_free(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    tau, coords, u = _arrays(traj)
    predicted = coords[0] + np.outer(tau, u[0])
    summary["oracle_linearity_error"] = float(np.max(np.abs(coords - predicted)))


def _measure_cyclotron(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    em = scn.parameters["em"]
    if em.get("type") != "uniform" or any(em.get("e", [0, 0, 0])):
        raise ValidationError("cyclotron oracle needs a purely magnetic uniform field")
    b_mag = math.hypot(*em["b"])  # a sum of squares would overflow at b_z = 1e300
    if b_mag == 0:
        raise ValidationError("cyclotron oracle needs a nonzero magnetic field")
    tau, coords, u = _arrays(traj)
    m, e = scn.particle.mass, scn.particle.charge
    u_perp = float(np.hypot(u[0, 1], u[0, 2]))
    expected_radius = oracles.larmor_radius(m, e, b_mag, u_perp)
    _, _, fitted = _fit_circle(coords[:, 1], coords[:, 2])
    summary["oracle_radius_error"] = abs(fitted - expected_radius) / expected_radius

    # rotation rate of the transverse velocity gives the coordinate period
    phase = _unwrapped_angle(u[:, 1], -u[:, 2])
    turns = abs(phase[-1] - phase[0]) / (2.0 * math.pi)
    if turns < 0.25:
        raise ValidationError("cyclotron oracle needs at least a quarter turn")
    expected_period = oracles.coordinate_period(m, e, b_mag, u_perp)
    measured_period = (coords[-1, 0] - coords[0, 0]) / turns
    summary["oracle_period_error"] = abs(measured_period - expected_period) / expected_period


def _elapsed_time(coords: np.ndarray, oracle: str) -> float:
    """Coordinate time from the first sample to the last, which a rate divides by."""
    elapsed = float(coords[-1, 0] - coords[0, 0])
    if not (math.isfinite(elapsed) and elapsed != 0.0):
        raise ValidationError(f"{oracle} oracle needs a nonzero elapsed time, not {elapsed:g}")
    return elapsed


def _measure_exb(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    em = scn.parameters["em"]
    if em.get("type") != "uniform":
        raise ValidationError("exb-drift oracle needs uniform fields")
    expected = oracles.drift_velocity(em["e"], em["b"])
    _, coords, _ = _arrays(traj)
    elapsed = _elapsed_time(coords, "exb-drift")
    measured = (coords[-1, 1:] - coords[0, 1:]) / elapsed
    summary["oracle_drift_error"] = float(np.linalg.norm(measured - expected))


def _measure_circular(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    init = scn.parameters["initial"]
    if "rate" not in init:
        raise ValidationError("circular-orbit oracle needs orbit = circular initial data")
    expected_rate = float(init["rate"])
    if not (math.isfinite(expected_rate) and expected_rate != 0.0):
        raise ValidationError(f"circular-orbit oracle needs a nonzero rate, not {expected_rate:g}")
    radius = float(init["radius"])
    _, coords, _ = _arrays(traj)
    if scn.chart == "spherical":
        r = coords[:, 1]
        phi = coords[:, 3]
    else:
        r = np.hypot(coords[:, 1], coords[:, 2])
        phi = _unwrapped_angle(coords[:, 1], coords[:, 2])
    measured_rate = (phi[-1] - phi[0]) / _elapsed_time(coords, "circular-orbit")
    summary["oracle_rate_error"] = abs(measured_rate - expected_rate) / expected_rate
    summary["oracle_radius_drift"] = float(np.max(np.abs(r - radius)) / radius)


def _measure_precession(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    mass = float(scn.parameters["metric"]["mass"])
    if mass <= 0 or scn.chart != "spherical":
        raise ValidationError("precession oracle needs a massive spherical-chart metric")
    tau, coords, u = _arrays(traj)
    k, s, minimum = _radial_extrema(tau, coords[:, 1], u[:, 1])
    if np.count_nonzero(minimum) < 2:
        raise ValidationError("trajectory too short to measure an apsidal advance")
    r_at = _hermite(k, s, tau, coords[:, 1], u[:, 1])
    kmin, smin = k[minimum], s[minimum]
    phi_at_min = _hermite(kmin, smin, tau, coords[:, 3], u[:, 3])
    n_gaps = len(kmin) - 1
    advance = (phi_at_min[-1] - phi_at_min[0]) / n_gaps - 2.0 * math.pi

    r_peri = float(np.median(r_at[minimum]))
    maximum = ~minimum
    r_apo = float(np.median(r_at[maximum])) if maximum.any() else float(np.max(coords[:, 1]))
    leading = oracles.apsidal_advance_leading_order(mass, r_peri, r_apo)
    init = scn.parameters["initial"]
    exact = oracles.apsidal_advance_exact(
        mass, float(init.get("r_peri", r_peri)), float(init.get("r_apo", r_apo))
    )
    summary["precession_measured"] = advance
    summary["precession_orbits"] = n_gaps
    summary["precession_error"] = abs(advance - leading) / leading
    summary["precession_exact_error"] = abs(advance - exact) / exact
    tau_at_min = tau[kmin] + smin * (tau[kmin + 1] - tau[kmin])
    summary["radial_period_measured"] = float(np.mean(np.diff(tau_at_min)))


def _measure_newtonian(scn: Scenario, traj: Trajectory, summary: dict) -> None:
    mass = float(scn.parameters["metric"]["mass"])
    if mass <= 0 or scn.chart != "cartesian":
        raise ValidationError("newtonian-force oracle needs a massive Cartesian-chart metric")
    forces = coordinate_force(traj, scn.particle)
    _, coords, _ = _arrays(traj)
    lo, hi = len(forces) // 10, len(forces) - len(forces) // 10
    worst = 0.0
    for (t, f), position in zip(forces[lo:hi], coords[lo:hi, 1:]):
        # the force at a sample against the acceleration at its own position
        expected = oracles.newtonian_acceleration(mass, position)
        scale = np.linalg.norm(expected)
        if not (np.isfinite(scale) and scale > 0.0):
            # an error relative to it would be NaN, which max() drops
            raise ValidationError(
                f"newtonian-force oracle needs a finite nonzero expected acceleration,"
                f" not {scale:g} at t = {t:g}"
            )
        err = np.linalg.norm(f / scn.particle.mass - expected) / scale
        worst = max(worst, float(err))
    summary["oracle_force_error"] = worst


_MEASURES = {
    "free": _measure_free,
    "cyclotron": _measure_cyclotron,
    "exb-drift": _measure_exb,
    "circular-orbit": _measure_circular,
    "precession": _measure_precession,
    "newtonian-force": _measure_newtonian,
}


def run(scenario: Scenario) -> RunReport:
    """Integrate the scenario and measure it against its named oracle."""
    traj = integrate(
        scenario.connection(), scenario.particle, scenario.initial, scenario.config
    )
    return _run_report(scenario, traj)


def batch_key(scenario: Scenario) -> str:
    """Scenarios with equal keys share one transport law and integrator.

    The key covers the chart, the metric, the em type with the
    parameters of a non-uniform field (coulomb ``q``, axial-b ``b``) and
    the particle charge that scales it, and the integrator section apart
    from tau_max, as resolved in the scenario's parameters.  What `run_batch`
    hands to the law per row stays out: the particle mass (the row's 1/m)
    and a uniform field's E and B with the charge (the row's constant K0 =
    e F); a uniform field keeps only whether the particle is charged,
    which decides whether it couples at all.
    """
    p = scenario.parameters
    charge = p["particle"]["charge"]
    if p["em"]["type"] == "uniform":
        em = {"type": "uniform", "charged": charge != 0.0}
    else:
        em = {**p["em"], "charge": charge}
    integrator = {k: v for k, v in p["integrator"].items() if k != "tau_max"}
    return repr((p["chart"], p["metric"], em, integrator))


def run_batch(scenarios) -> list[RunReport]:
    """`run` for scenarios of one `batch_key`, integrated as one batch.

    The rows share the first scenario's connection; each row brings its
    own particle mass and, in a uniform field, its own constant K0 = e F,
    which the compiled law reads per row.  Each report is identical to
    what `run` gives for its scenario alone.
    """
    scenarios = list(scenarios)
    key = batch_key(scenarios[0])
    if any(batch_key(s) != key for s in scenarios[1:]):
        raise ValueError("run_batch needs scenarios that share one batch_key")
    conn = scenarios[0].connection()
    order0 = None
    if scenarios[0].parameters["em"]["type"] == "uniform" and conn.order0_raw is not None:
        # the same everywhere: evaluate each row's e F where the row starts, as
        # its own connection would; it may overflow, which the integration reports
        order0 = np.stack([float(s.particle.charge) * s.faraday.matrix_fn(s.initial.x.coords)
                           for s in scenarios])
    trajs = integrate_batch(
        conn,
        [s.particle for s in scenarios],
        [s.initial for s in scenarios],
        [s.config for s in scenarios],
        order0,
    )
    return [_run_report(s, traj) for s, traj in zip(scenarios, trajs)]


def _run_report(scenario: Scenario, traj: Trajectory) -> RunReport:
    summary = {
        "n_samples": len(traj),
        "tau_final": float(traj.tau[-1]),
        "t_final": float(traj.state[-1, 0]),
        "max_norm_residual": float(np.max(np.abs(traj.norm_residual))),
        "terminal_status": traj.status,
    }
    if traj.reason:
        summary["terminal_reason"] = traj.reason
    if scenario.oracle != "none":
        try:
            _MEASURES[scenario.oracle](scenario, traj, summary)
        except ValidationError:
            raise
        except (ValueError, ArithmeticError) as err:
            # the closed forms reject parameters outside their domain
            raise ValidationError(f"{scenario.oracle} oracle: {err}") from None
    return RunReport(
        scenario=scenario.parameters,
        summary=_plain(summary),
        status=traj.status,
        samples=traj,
    )


# ---------------------------------------------------------------------------
# checkers


def _converges(residual, field, x, floor_key: str, floor: float) -> tuple[bool, dict, None]:
    """An identity residual ``residual(field, x)`` passes at or below `floor`;
    above it, halving the differencing step must divide it by about four."""
    base = residual(field, x)
    details: dict = {"point": x.coords.tolist(), "residual": base, floor_key: floor}
    if base <= floor:
        return True, details, None
    coarse = residual(field, x, step=0.02)
    fine = residual(field, x, step=0.01)
    ratio = coarse / fine
    details.update(
        residual_coarse=coarse, residual_fine=fine, ratio=ratio, ratio_band=list(RATIO_BAND)
    )
    return RATIO_BAND[0] <= ratio <= RATIO_BAND[1], details, None


def _check_bianchi(scn: Scenario) -> tuple[bool, dict, Optional[Trajectory]]:
    return _converges(bianchi_residual, scn.metric, scn.initial.x, "flat_floor", FLAT_FLOOR)


def _check_closure(scn: Scenario) -> tuple[bool, dict, Optional[Trajectory]]:
    if scn.potential is None:
        raise IncompatibleChecker("closure needs a scenario with a vector potential")
    return _converges(closure_residual, scn.potential, scn.initial.x, "bound", CLOSURE_BOUND)


def _check_norm(scn: Scenario) -> tuple[bool, dict, Optional[Trajectory]]:
    cfg = dataclasses.replace(scn.config, tau_max=min(scn.config.tau_max, 100.0))
    traj = integrate(scn.connection(), scn.particle, scn.initial, cfg)
    worst = float(np.max(np.abs(traj.norm_residual)))
    details = {
        "max_norm_residual": worst,
        "bound": NORM_BOUND,
        "tau_span": float(traj.tau[-1]),
        "n_samples": len(traj),
    }
    return worst < NORM_BOUND, details, traj


def _check_mass_invariance(scn: Scenario) -> tuple[bool, dict, Optional[Trajectory]]:
    conn = scn.connection()
    if scn.faraday is None or scn.particle.charge == 0.0:
        # gravity only: the worldline cannot depend on the particle mass
        base = integrate(conn, scn.particle, scn.initial, scn.config)
        heavy = integrate(
            conn,
            Particle(scn.particle.mass * 17.0, scn.particle.charge),
            scn.initial,
            scn.config,
        )
        if (base.status, len(base)) != (heavy.status, len(heavy)):
            # the runs must match sample for sample; never compare a truncation
            details = {
                "mode": "trajectory",
                "mass_factor": 17.0,
                "status": [base.status, heavy.status],
                "n_samples": [len(base), len(heavy)],
                "bound": MASS_POINTWISE_BOUND,
            }
            return False, details, base
        worst = float(np.max(np.abs(base.state - heavy.state)))
        details = {
            "mode": "trajectory",
            "mass_factor": 17.0,
            "max_pointwise_deviation": worst,
            "bound": MASS_POINTWISE_BOUND,
        }
        return worst <= MASS_POINTWISE_BOUND, details, base

    # charged case: the velocity-independent acceleration term must scale
    # exactly as e/m, the velocity-quadratic term must not move at all
    x, u = scn.initial.x, scn.initial.u
    zeroth, first = acceleration_terms(conn, scn.particle, x, u)
    double_mass = Particle(scn.particle.mass * 2.0, scn.particle.charge)
    zeroth_2m, first_2m = acceleration_terms(conn, double_mass, x, u)
    scale = float(np.max(np.abs(zeroth))) or 1.0
    mass_dev = float(np.max(np.abs(zeroth_2m - 0.5 * zeroth)) / scale)
    geom_dev = float(np.max(np.abs(first_2m - first)))

    # gravity never contributes to the velocity-independent term, so the
    # zeroth term of the full connection is already the pure field piece
    doubled_e = electromagnetic_connection(scn.faraday, scn.particle.charge * 2.0)
    zeroth_2e, _ = acceleration_terms(doubled_e, scn.particle, x, u)
    charge_dev = float(np.max(np.abs(zeroth_2e - 2.0 * zeroth)) / scale)
    details = {
        "mode": "term-scaling",
        "inverse_mass_deviation": mass_dev,
        "charge_linearity_deviation": charge_dev,
        "geometric_term_deviation": geom_dev,
        "bound": TERM_SCALING_BOUND,
    }
    ok = max(mass_dev, charge_dev, geom_dev) <= TERM_SCALING_BOUND
    return ok, details, None


def _check_minimal_substitution(scn: Scenario) -> tuple[bool, dict, Optional[Trajectory]]:
    if scn.potential is None:
        raise IncompatibleChecker(
            "minimal-substitution needs a scenario with a vector potential"
        )
    force_route = integrate(scn.connection(), scn.particle, scn.initial, scn.config)
    momentum_route = minimal_substitution_trajectory(
        scn.potential, scn.metric, scn.particle, scn.initial, scn.config
    )
    routes = (force_route, momentum_route)
    tau_a, tau_b = float(force_route.tau[-1]), float(momentum_route.tau[-1])
    if force_route.status != momentum_route.status or abs(tau_a - tau_b) > 1e-12:
        # the routes must end alike; never compare an endpoint of a
        # truncation.  Their sample counts match on a fixed step; an
        # adaptive step sizes each route's own state, so counts differ.
        details = {
            "status": [r.status for r in routes],
            "n_samples": [len(r) for r in routes],
            "tau_final": [tau_a, tau_b],
            "bound": ENDPOINT_BOUND,
        }
        return False, details, force_route
    gap = np.abs(force_route.state[-1] - momentum_route.state[-1])
    sep_x = float(np.max(gap[:DIM]))
    sep_u = float(np.max(gap[DIM:]))
    details = {
        "endpoint_position_separation": sep_x,
        "endpoint_velocity_separation": sep_u,
        "bound": ENDPOINT_BOUND,
        "tau_final": tau_a,
    }
    # np.max keeps a NaN separation, which the builtin max() would drop
    return bool(np.max(gap) < ENDPOINT_BOUND), details, force_route


_CHECK_FNS = {
    "bianchi": _check_bianchi,
    "closure": _check_closure,
    "norm": _check_norm,
    "mass-invariance": _check_mass_invariance,
    "minimal-substitution": _check_minimal_substitution,
}


def check(scenario: Scenario, checker: str) -> RunReport:
    """Evaluate one named structural property of the scenario."""
    if checker not in _CHECK_FNS:
        raise ValidationError(
            f"unknown checker {checker!r}; expected one of {', '.join(CHECKERS)}"
        )
    passed, details, traj = _CHECK_FNS[checker](scenario)
    summary = _plain({"checker": checker, "passed": passed, **details})
    status = "passed" if passed else "failed"
    return RunReport(
        scenario=scenario.parameters, summary=summary, status=status, samples=traj
    )


# ---------------------------------------------------------------------------
# emission


# rows per `%` template: a chunk's floats are the only per-row Python objects
_CHUNK = 1024


def _table(traj: Trajectory, a: int = 0, b: Optional[int] = None) -> np.ndarray:
    """Rows a:b of the emitted columns ``(n, 10)``."""
    return np.column_stack([traj.tau[a:b], traj.state[a:b], traj.norm_residual[a:b]])


def _chunks(traj: Trajectory, row: str, sep: str) -> list[str]:
    """The samples through the template `row` of one row's ten floats,
    joined by `sep`: one string per `_CHUNK` rows, from one `%` each."""
    chunks = []
    for a in range(0, len(traj), _CHUNK):
        block = _table(traj, a, a + _CHUNK)
        chunks.append(sep.join([row] * len(block)) % tuple(block.ravel().tolist()))
    return chunks


def _csv_text(report: RunReport) -> str:
    """The header, then one line per sample, each float as ``%.17g``."""
    if report.samples is None:
        raise ValidationError("report has no samples to write as CSV")
    row = "\n" + ",".join(["%.17g"] * len(CSV_COLUMNS))
    return "".join([",".join(CSV_COLUMNS), *_chunks(report.samples, row, ""), "\n"])


_ROWS_MARK = "rows are spliced in here"
# one row as json.dumps(indent=2) lays it out inside the top-level "rows"
_JSON_ROW = "    [\n" + ",\n".join(["      %r"] * len(CSV_COLUMNS)) + "\n    ]"


def _json_text(report: RunReport) -> str:
    """``json.dumps(payload, indent=2)``, with the rows formatted by a template.

    The rows are the bulk of the text, and an indenting dump runs
    json's pure-Python encoder; a ``%r`` template gives the same bytes
    for floats, a chunk of rows at a time, and the text is one join of
    json's dump around the chunks.  A chunk that holds what json spells
    otherwise (nan, inf: both contain an "n") sends all the rows through
    json, as does a report without rows.
    """
    payload = {
        "scenario": report.scenario,
        "status": report.status,
        "columns": list(CSV_COLUMNS),
        "rows": _ROWS_MARK,
        "summary": report.summary,
    }
    traj = report.samples
    chunks = [] if traj is None else _chunks(traj, _JSON_ROW, ",\n")
    if not chunks or any("n" in chunk for chunk in chunks):
        payload["rows"] = [] if traj is None else _table(traj).tolist()
        return json.dumps(payload, indent=2) + "\n"
    head, _, tail = json.dumps(payload, indent=2).partition(
        '\n  "rows": ' + json.dumps(_ROWS_MARK))
    rows = [",\n"] * (2 * len(chunks) - 1)
    rows[::2] = chunks
    return "".join([head, '\n  "rows": [\n', *rows, "\n  ]", tail, "\n"])


def emit(report: RunReport, format: str = "csv", destination=None) -> str:
    """Serialize the report; write to `destination` (path or file) if given."""
    if format == "csv":
        text = _csv_text(report)
    elif format == "json":
        text = _json_text(report)
    else:
        raise ValidationError(f"unknown format {format!r}; expected csv or json")
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)
    return text
