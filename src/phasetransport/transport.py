"""Worldline integration under a momentum-affine connection.

The integrated state is (x^m, u^m) with the four-velocity contravariant.
The transport law supplies the covariant rate, raised with the local
metric.  ``_make_rhs`` compiles the law once per connection: which
blocks it has and how each term is raised are decided there, so the
right-hand side does per-point work only, and on the flat chart it
evaluates no inverse metric.  For metric-built connections the raised
order-1 block is available directly, so the gravitational term is the
standard contravariant geodesic form with no lower/raise round trip (the
equivalence of the covariant and contravariant formulations is exercised
by the canonical-momentum integrator below, which evolves covariant
momenta and must land on the same worldline).

Two steppers are provided: a fixed-step classical RK4 and an embedded
adaptive pair with absolute plus relative error control.  Step sizes are
clamped to [1e-8, tau_max / 10]; a tolerance that cannot be met at the
minimum step raises ``StepRejected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .connection import NonLinearConnection, Particle, gravitational_connection
from .errors import NonMonotoneTime, OutsideDomain, StepRejected
from .fields import VectorPotential
from .tensor import (
    DIM,
    FD_STEP_FIRST,
    MINKOWSKI,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
    Variance,
)

#: Hard lower bound on adaptive step size.
H_MIN = 1e-8
#: Fraction of tau_max used as the upper step clamp.
H_MAX_FRACTION = 0.1

_METHODS = ("rk4-fixed", "rk45-adaptive")


def _event_trusted(coords: np.ndarray) -> SpacetimeEvent:
    # guards only read coordinates; skip the copy/validation of the ctor
    ev = object.__new__(SpacetimeEvent)
    object.__setattr__(ev, "coords", coords)
    return ev


def _sample_trusted(
    tau: float, coords: np.ndarray, u: np.ndarray, residual: float, diagnostics: dict
) -> TrajectorySample:
    """Build a sample without re-running constructor validation.

    The integration loop guarantees finiteness (a non-finite state fails
    the isfinite gate in the sampler) and future-direction, so the typed
    wrappers are assembled directly; arrays are fresh copies already.
    """
    x = object.__new__(SpacetimeEvent)
    object.__setattr__(x, "coords", coords)
    v = object.__new__(FourVector)
    object.__setattr__(v, "components", u)
    object.__setattr__(v, "variance", Variance.UP)
    state = object.__new__(PhaseState)
    object.__setattr__(state, "tau", tau)
    object.__setattr__(state, "x", x)
    object.__setattr__(state, "u", v)
    return TrajectorySample(state, residual, diagnostics)


@dataclass(frozen=True)
class PhaseState:
    """Point of phase space: proper time, event, contravariant four-velocity."""

    tau: float
    x: SpacetimeEvent
    u: FourVector

    def __post_init__(self):
        if self.u.variance is not Variance.UP:
            raise ValueError("PhaseState.u must be contravariant")
        if not self.u.components[0] > 0:
            raise ValueError("u^0 must be positive (future-directed)")


@dataclass(frozen=True)
class TrajectorySample:
    """One accepted integrator step plus pointwise diagnostics."""

    state: PhaseState
    norm_residual: float
    diagnostics: dict = field(default_factory=dict)


class Trajectory(list):
    """Sequence of samples with a terminal status.

    status is one of 'completed', 'domain-exit', 'max-steps'; `reason`
    carries the guard message for domain exits.
    """

    def __init__(self, samples: Iterable[TrajectorySample] = (), status: str = "completed",
                 reason: Optional[str] = None):
        super().__init__(samples)
        self.status = status
        self.reason = reason


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration policy.

    ``step`` is the fixed RK4 step and the initial guess for the adaptive
    method; ``rtol``/``atol`` drive the embedded error control.
    Renormalization of the velocity norm is off by default; the norm
    residual is monitored either way and recorded per sample.
    """

    method: str = "rk4-fixed"
    step: float = 1e-2
    rtol: float = 1e-9
    atol: float = 1e-12
    tau_max: float = 10.0
    max_steps: int = 1_000_000
    renormalize: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.rtol < 0 or self.atol < 0 or self.rtol + self.atol <= 0:
            raise ValueError("tolerances must be nonnegative and not both zero")
        if not self.tau_max > 0:
            raise ValueError("tau_max must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


# ---------------------------------------------------------------------------
# transport right-hand side
# ---------------------------------------------------------------------------


def acceleration_terms(
    c: NonLinearConnection, particle: Particle, x: SpacetimeEvent, u: FourVector
) -> tuple[FourVector, FourVector]:
    """Covariant acceleration components, split by momentum order.

    Returns (zeroth, first): the momentum-independent force term scaled
    by 1/mass, and the momentum-linear (geodesic) term.  Their sum is
    the proper-time acceleration vector lowered with the local metric,
    g_ma du^a/dtau.  (Note this is not d(u_m)/dtau, which picks up an
    extra metric-gradient term where g varies; the canonical-momentum
    integrator below evolves that form, and the two must trace the same
    worldline.)
    """
    if u.variance is not Variance.UP:
        raise ValueError("acceleration expects a contravariant velocity")
    c.guard.check(x)
    uu = u.components
    zeroth = np.zeros(DIM)
    if c.order0_raw is not None:
        zeroth = (c.order0_raw(x.coords) @ uu) / particle.mass
    first = np.zeros(DIM)
    if c.order1_raw is not None:
        first = c.order1_raw(x.coords).dot(uu).dot(uu)
    return (
        FourVector(zeroth, Variance.DOWN),
        FourVector(first, Variance.DOWN),
    )


def acceleration(
    c: NonLinearConnection, particle: Particle, x: SpacetimeEvent, u: FourVector
) -> FourVector:
    """Full covariant acceleration under the transport law at one point."""
    zeroth, first = acceleration_terms(c, particle, x, u)
    return FourVector(zeroth.components + first.components, Variance.DOWN)


def _compile_acceleration(
    c: NonLinearConnection, particle: Particle
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Contravariant du/dtau as a function of (coords, u), shaped once per connection.

    A raised K1 block, when the connection has one, supersedes the
    covariant one.  The covariant remainder is raised with the inverse
    metric, except on the flat chart: eta is a +-1 diagonal, so raising
    (K0 u) * (1/m) is a per-row sign folded into the 1/m scale, with the
    same bits as eta @ ((K0 u) * (1/m)) up to the sign of a zero.
    """
    o0, o1c = c.order0_raw, c.order1_contra_raw
    o1 = c.order1_raw if o1c is None else None
    inv_mass = 1.0 / particle.mass
    inverse = c.metric.inverse_raw

    if o1 is None and o0 is None:
        raised = None
    elif o1 is None and isinstance(c.metric, FlatMetric):
        scale = np.diag(MINKOWSKI) * inv_mass  # (-1/m, 1/m, 1/m, 1/m)

        def raised(coords, u):
            return (o0(coords) @ u) * scale

    elif o1 is None:

        def raised(coords, u):
            return inverse(coords) @ ((o0(coords) @ u) * inv_mass)

    elif o0 is None:

        def raised(coords, u):
            return inverse(coords) @ o1(coords).dot(u).dot(u)

    else:

        def raised(coords, u):
            return inverse(coords) @ (o1(coords).dot(u).dot(u) + (o0(coords) @ u) * inv_mass)

    if o1c is None:
        if raised is None:
            zero = np.zeros(DIM)
            return lambda coords, u: zero
        return raised
    if raised is None:
        return lambda coords, u: o1c(coords).dot(u).dot(u)
    return lambda coords, u: o1c(coords).dot(u).dot(u) + raised(coords, u)


def _make_rhs(c: NonLinearConnection, particle: Particle) -> Callable[[np.ndarray], np.ndarray]:
    """Compile the ODE right-hand side for the (x, u-contravariant) state.

    The body does per-point work only: one guard probe, the acceleration
    from ``_compile_acceleration``, and the 8-vector assembly.
    """
    probe = c.guard.probe
    label = c.guard.label
    accel = _compile_acceleration(c, particle)

    def rhs(y: np.ndarray) -> np.ndarray:
        coords = y[:4]
        u = y[4:]
        why = probe(_event_trusted(coords))
        if why is not None:
            raise OutsideDomain(f"{label}: {why}")
        out = np.empty(2 * DIM)
        out[:4] = u
        out[4:] = accel(coords, u)
        return out

    return rhs


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------


def _rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), accumulated in place in that order
    # (IEEE addition and multiplication commute, so the bits are the same)
    half = 0.5 * h
    k1 = rhs(y)
    stage = half * k1
    stage += y
    k2 = rhs(stage)
    stage = half * k2
    stage += y
    k3 = rhs(stage)
    stage = h * k3
    stage += y
    k4 = rhs(stage)
    acc = 2.0 * k2
    acc += k1
    k3 *= 2.0
    acc += k3
    acc += k4
    acc *= h / 6.0
    acc += y
    return acc


# Dormand-Prince 5(4) tableau (autonomous form; the law has no explicit
# proper-time dependence, so stage abscissae never enter).
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp_stages(rhs, y: np.ndarray, h: float):
    k = [rhs(y)]
    for i in range(1, 7):
        acc = _DP_A[i][0] * k[0]
        for j in range(1, i):
            if _DP_A[i][j] != 0.0:
                acc = acc + _DP_A[i][j] * k[j]
        k.append(rhs(y + h * acc))
    return k


def _rk45_step(rhs, y: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One embedded trial step: (5th-order result, error-estimate vector)."""
    k = _dp_stages(rhs, y, h)
    y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k) if b != 0.0)
    y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k) if b != 0.0)
    return y5, y5 - y4


def _error_norm(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.sqrt(np.mean((err / scale) ** 2)))


# ---------------------------------------------------------------------------
# integration loops
# ---------------------------------------------------------------------------


def _renormalized(u: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    norm = float(u @ gmat @ u)
    if norm >= 0:
        raise StepRejected(f"cannot renormalize non-timelike velocity (norm {norm:.3e})")
    return u / math.sqrt(-norm)


def _integrate_engine(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    tau0: float,
    cfg: IntegratorConfig,
    sampler: Callable[[float, np.ndarray], TrajectorySample],
    renorm: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    admit: Optional[Callable[[np.ndarray], Optional[str]]] = None,
) -> Trajectory:
    out = Trajectory()
    out.append(sampler(tau0, y0))
    span = cfg.tau_max - tau0
    if span <= 0:
        return out

    def landed_outside(y: np.ndarray) -> bool:
        # a step may jump clean across the guard margin without any stage
        # evaluation failing; never retain such a state
        if admit is None:
            return False
        why = admit(y[:4])
        if why is not None:
            out.status, out.reason = "domain-exit", why
            return True
        return False

    if cfg.method == "rk4-fixed":
        h = cfg.step
        quotient = span / h
        n_full = int(math.floor(quotient * (1.0 + 1e-12) + 1e-12))
        remainder = cfg.tau_max - (tau0 + n_full * h)
        if remainder <= 1e-9 * h:
            remainder = 0.0
        y = y0
        steps_planned = n_full + (1 if remainder else 0)
        for i in range(1, min(n_full, cfg.max_steps) + 1):
            tau = tau0 + i * h if i < n_full or remainder else cfg.tau_max
            try:
                y = _rk4_step(rhs, y, h)
            except OutsideDomain as err:
                out.status, out.reason = "domain-exit", str(err)
                return out
            if renorm is not None:
                y = renorm(y)
            if landed_outside(y):
                return out
            out.append(sampler(tau, y))
        if len(out) - 1 >= cfg.max_steps and steps_planned > cfg.max_steps:
            out.status = "max-steps"
            return out
        if remainder:
            try:
                y = _rk4_step(rhs, y, remainder)
            except OutsideDomain as err:
                out.status, out.reason = "domain-exit", str(err)
                return out
            if renorm is not None:
                y = renorm(y)
            if landed_outside(y):
                return out
            out.append(sampler(cfg.tau_max, y))
        return out

    # adaptive embedded pair
    h_max = cfg.tau_max * H_MAX_FRACTION
    h = min(max(cfg.step, H_MIN), h_max)
    tau = tau0
    y = y0
    steps = 0
    while tau < cfg.tau_max * (1.0 - 1e-14):
        if steps >= cfg.max_steps:
            out.status = "max-steps"
            return out
        h = min(h, cfg.tau_max - tau)
        try:
            y_new, err = _rk45_step(rhs, y, h)
        except OutsideDomain as exc:
            out.status, out.reason = "domain-exit", str(exc)
            return out
        enorm = _error_norm(err, y, y_new, cfg.rtol, cfg.atol)
        if enorm <= 1.0:
            tau = cfg.tau_max if cfg.tau_max - (tau + h) < 1e-14 * cfg.tau_max else tau + h
            y = y_new
            if renorm is not None:
                y = renorm(y)
            if landed_outside(y):
                return out
            out.append(sampler(tau, y))
            steps += 1
            growth = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
            h = min(max(h * growth, H_MIN), h_max)
        else:
            if h <= H_MIN * (1.0 + 1e-12):
                raise StepRejected(
                    f"tolerance unreachable at minimum step {H_MIN:g} (err norm {enorm:.3e})"
                )
            h = min(max(h * max(0.2, 0.9 * enorm ** -0.2), H_MIN), h_max)
    return out


def _norm_sampler(metric: MetricField) -> Callable[[float, np.ndarray], TrajectorySample]:
    def sampler(tau: float, y: np.ndarray) -> TrajectorySample:
        if not np.isfinite(y).all():
            raise StepRejected(f"state became non-finite at tau = {tau:g}")
        coords = y[:4].copy()
        u = y[4:].copy()
        u_cov = metric.matrix_raw(coords) @ u
        residual = float(u @ u_cov + 1.0)
        return _sample_trusted(tau, coords, u, residual, {"energy": -float(u_cov[0])})

    return sampler


def step(
    c: NonLinearConnection, particle: Particle, state: PhaseState, cfg: IntegratorConfig
) -> PhaseState:
    """Advance one integrator step (one accepted step for the adaptive method)."""
    rhs = _make_rhs(c, particle)
    y = np.concatenate([state.x.coords, state.u.components])
    if cfg.method == "rk4-fixed":
        y_new = _rk4_step(rhs, y, cfg.step)
        tau_new = state.tau + cfg.step
    else:
        h = min(max(cfg.step, H_MIN), cfg.tau_max * H_MAX_FRACTION)
        while True:
            y_new, err = _rk45_step(rhs, y, h)
            enorm = _error_norm(err, y, y_new, cfg.rtol, cfg.atol)
            if enorm <= 1.0:
                tau_new = state.tau + h
                break
            if h <= H_MIN * (1.0 + 1e-12):
                raise StepRejected(
                    f"tolerance unreachable at minimum step {H_MIN:g} (err norm {enorm:.3e})"
                )
            h = max(h * max(0.2, 0.9 * enorm ** -0.2), H_MIN)
    if cfg.renormalize:
        gmat = c.metric.matrix_raw(y_new[:4])
        y_new[4:] = _renormalized(y_new[4:], gmat)
    return PhaseState(tau_new, SpacetimeEvent(y_new[:4]), FourVector(y_new[4:], Variance.UP))


def integrate(
    c: NonLinearConnection, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Integrate the transport law from `initial` until tau_max.

    Samples include the initial state.  Domain exits during the run are
    reported through the trajectory status, not raised; an initial state
    already outside the domain raises ``OutsideDomain``.
    """
    c.guard.check(initial.x)
    rhs = _make_rhs(c, particle)
    y0 = np.concatenate([initial.x.coords, initial.u.components])
    renorm = None
    if cfg.renormalize:
        metric = c.metric

        def renorm(y: np.ndarray) -> np.ndarray:
            y = y.copy()
            y[4:] = _renormalized(y[4:], metric.matrix_raw(y[:4]))
            return y

    def admit(coords: np.ndarray) -> Optional[str]:
        return c.guard.reason(_event_trusted(coords))

    return _integrate_engine(
        rhs, y0, initial.tau, cfg, _norm_sampler(c.metric), renorm, admit
    )


def geodesic_integrate(
    g: MetricField, particle: Particle, initial: PhaseState, cfg: IntegratorConfig
) -> Trajectory:
    """Free fall in `g`: integrate under the metric's own connection."""
    return integrate(gravitational_connection(g), particle, initial, cfg)


# ---------------------------------------------------------------------------
# coordinate-time force extraction
# ---------------------------------------------------------------------------


def coordinate_force(
    samples: Sequence[TrajectorySample], particle: Particle
) -> list[tuple[float, np.ndarray]]:
    """d(m u^i)/dt on a uniform coordinate-time grid.

    Since u^i equals gamma v^i, this is the coordinate force familiar
    from the low-velocity limit.  The samples are resampled onto a
    uniform grid in t with a cubic spline, then differenced (central in
    the interior, one-sided second order at the ends).
    """
    if len(samples) < 4:
        raise ValueError("need at least four samples for cubic resampling")
    t = np.array([s.state.x.coords[0] for s in samples])
    if np.any(np.diff(t) <= 0):
        raise NonMonotoneTime("coordinate time is not strictly increasing")
    momenta = particle.mass * np.array([s.state.u.components[1:] for s in samples])
    grid = np.linspace(t[0], t[-1], len(t))
    resampled = CubicSpline(t, momenta, axis=0)(grid)
    force = np.gradient(resampled, grid[1] - grid[0], axis=0)
    return [(float(tc), force[i]) for i, tc in enumerate(grid)]


# ---------------------------------------------------------------------------
# canonical-momentum (minimal-substitution) route
# ---------------------------------------------------------------------------


def minimal_substitution_trajectory(
    a: VectorPotential,
    g: MetricField,
    particle: Particle,
    initial: PhaseState,
    cfg: IntegratorConfig,
) -> Trajectory:
    """Integrate with the canonical momentum pi_m = p_m + e A_m as the state.

    The evolution uses only the metric gradient and the unantisymmetrized
    potential gradient,

        dpi_m/dtau = (m/2) g_ab,m u^a u^b + e A_a,m u^a,
        u_m = (pi_m - e A_m) / m,

    which is the free-particle transport law with the momentum argument
    shifted by the potential.  No field-strength matrix is ever formed,
    so agreement with the Lorentz-coupling route is a genuine two-route
    check.  Samples report the recovered kinetic velocity.
    """
    g.guard.check(initial.x)
    a.guard.check(initial.x)
    m = particle.mass
    e = particle.charge
    probe_g = g.guard.probe
    probe_a = a.guard.probe

    def d_potential(coords: np.ndarray) -> np.ndarray:
        da = a.deriv_raw(coords)
        if da is not None:
            return da
        out = np.empty((DIM, DIM))
        shifted = coords.copy()
        for s in range(DIM):
            h = FD_STEP_FIRST * max(1.0, abs(coords[s]))
            shifted[s] = coords[s] + h
            plus = a.values_fn(shifted)
            shifted[s] = coords[s] - h
            minus = a.values_fn(shifted)
            shifted[s] = coords[s]
            out[s, :] = (plus - minus) / (2.0 * h)
        return out

    def metric_gradient(coords: np.ndarray) -> np.ndarray:
        dg = g.deriv_raw(coords)
        if dg is not None:
            return dg
        out = np.empty((DIM, DIM, DIM))
        shifted = coords.copy()
        for s in range(DIM):
            h = FD_STEP_FIRST * max(1.0, abs(coords[s]))
            shifted[s] = coords[s] + h
            plus = g.matrix_fn(shifted)
            shifted[s] = coords[s] - h
            minus = g.matrix_fn(shifted)
            shifted[s] = coords[s]
            out[:, :, s] = (plus - minus) / (2.0 * h)
        return out

    def kinetic_up(coords: np.ndarray, pi: np.ndarray) -> np.ndarray:
        u_cov = (pi - e * a.values_fn(coords)) / m
        return g.inverse_raw(coords) @ u_cov

    def rhs(y: np.ndarray) -> np.ndarray:
        coords = y[:4]
        pi = y[4:]
        ev = _event_trusted(coords)
        why = probe_g(ev) or probe_a(ev)
        if why is not None:
            raise OutsideDomain(why)
        u = kinetic_up(coords, pi)
        dg = metric_gradient(coords)
        dpi = 0.5 * m * np.einsum("abs,a,b->s", dg, u, u)
        if e != 0.0:
            dpi = dpi + e * (d_potential(coords) @ u)
        out = np.empty(2 * DIM)
        out[:4] = u
        out[4:] = dpi
        return out

    def sampler(tau: float, y: np.ndarray) -> TrajectorySample:
        if not np.isfinite(y).all():
            raise StepRejected(f"state became non-finite at tau = {tau:g}")
        coords = y[:4].copy()
        u = kinetic_up(coords, y[4:])
        u_cov = g.matrix_raw(coords) @ u
        residual = float(u @ u_cov + 1.0)
        return _sample_trusted(tau, coords, u, residual, {"energy": -float(u_cov[0])})

    renorm = None
    if cfg.renormalize:

        def renorm(y: np.ndarray) -> np.ndarray:
            y = y.copy()
            coords = y[:4]
            u = kinetic_up(coords, y[4:])
            u = _renormalized(u, g.matrix_raw(coords))
            y[4:] = m * (g.matrix_raw(coords) @ u) + e * a.values_fn(coords)
            return y

    def admit(coords: np.ndarray) -> Optional[str]:
        ev = _event_trusted(coords)
        return probe_g(ev) or probe_a(ev)

    x0 = initial.x.coords
    u0_cov = g.matrix_raw(x0) @ initial.u.components
    pi0 = m * u0_cov + e * a.values_fn(x0)
    y0 = np.concatenate([x0, pi0])
    return _integrate_engine(rhs, y0, initial.tau, cfg, sampler, renorm, admit)
