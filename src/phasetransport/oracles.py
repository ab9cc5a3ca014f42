"""Closed-form references the test suite and run reports compare against.

Everything here is derived independently of the integrator modules:
textbook relativistic kinematics (gyration, crossed-field drift), exact
central-orbit quadratures reduced to complete elliptic integrals, and
the leading-order apsidal-advance formula.  Geometric units, c = 1.

The two quadratures, `apsidal_advance_exact` and `radial_period_proper`,
are trapezoidal sums over a period on Python floats, so the module needs
`math` and numpy only.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "lorentz_gamma",
    "gamma_from_u",
    "larmor_radius",
    "gyro_frequency",
    "proper_period",
    "coordinate_period",
    "cyclotron_state",
    "drift_velocity",
    "drift_window",
    "circular_orbit_coordinate_rate",
    "circular_orbit_time_component",
    "bound_orbit_constants",
    "apsidal_advance_leading_order",
    "apsidal_advance_exact",
    "apsidal_advance_elliptic",
    "apsidal_advance_circular_limit",
    "radial_period_proper",
    "coulomb_circular_speed",
    "newtonian_acceleration",
]


def lorentz_gamma(speed: float) -> float:
    return 1.0 / math.sqrt(1.0 - speed * speed)


def gamma_from_u(u_spatial) -> float:
    """Time component of a unit timelike vector with the given spatial part (flat chart)."""
    s = np.asarray(u_spatial, dtype=float)
    return math.sqrt(1.0 + float(s @ s))


# ---------------------------------------------------------------------------
# uniform magnetic field: relativistic gyration
# ---------------------------------------------------------------------------


def larmor_radius(mass: float, charge: float, b_z: float, u_perp: float) -> float:
    """Gyroradius m*u_perp/(e*B); u_perp is the spatial four-velocity gamma*v."""
    return mass * u_perp / (charge * b_z)


def gyro_frequency(mass: float, charge: float, b_z: float) -> float:
    """Rotation rate of the spatial four-velocity in proper time, e*B/m."""
    return charge * b_z / mass


def proper_period(mass: float, charge: float, b_z: float) -> float:
    return 2.0 * math.pi / abs(gyro_frequency(mass, charge, b_z))


def coordinate_period(mass: float, charge: float, b_z: float, u_perp: float) -> float:
    """Lab-time gyration period 2*pi*gamma*m/(e*B)."""
    return gamma_from_u([u_perp, 0.0, 0.0]) * proper_period(mass, charge, b_z)


def cyclotron_state(
    mass: float, charge: float, b_z: float, u_perp: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact worldline for initial u = (gamma, u_perp, 0, 0) in uniform B = B_z zhat.

    Returns (x, u) with x = (t, x, y, z) and u contravariant.  The
    spatial velocity turns clockwise in the x-y plane for e*B > 0 and
    the guiding center sits at (0, -r_L, 0).
    """
    gamma = gamma_from_u([u_perp, 0.0, 0.0])
    omega = gyro_frequency(mass, charge, b_z)
    r = larmor_radius(mass, charge, b_z, u_perp)
    phase = omega * tau
    x = np.array([gamma * tau, r * math.sin(phase), r * (math.cos(phase) - 1.0), 0.0])
    u = np.array([gamma, u_perp * math.cos(phase), -u_perp * math.sin(phase), 0.0])
    return x, u


# ---------------------------------------------------------------------------
# crossed uniform fields
# ---------------------------------------------------------------------------


def drift_velocity(e_field, b_field) -> np.ndarray:
    """Guiding-center drift E x B / B^2 (requires |E| < |B|)."""
    e = np.asarray(e_field, dtype=float)
    b = np.asarray(b_field, dtype=float)
    b2 = float(b @ b)
    if b2 == 0.0:
        raise ValueError("drift velocity undefined for vanishing magnetic field")
    v = np.cross(e, b) / b2
    if float(v @ v) >= 1.0:
        raise ValueError("drift speed would exceed 1; need |E| < |B|")
    return v


def drift_window(mass: float, charge: float, e_field, b_field, cycles: int = 10) -> float:
    """Proper time spanning `cycles` full gyration arches for a particle
    starting at rest.

    In the frame comoving with the drift the electric field vanishes
    and the motion is uniform circular at the drift speed, with the
    reduced field B' = B/gamma_d and frame period 2*pi*gamma_d*m/(e*B');
    dividing by the constant gamma_d of the circling particle gives
    proper time 2*pi*gamma_d*m/(e*B) per arch.  After an integer number
    of arches the lab velocity returns exactly to zero and the mean lab
    velocity equals the drift velocity with no averaging error.
    """
    v = drift_velocity(e_field, b_field)
    gamma_d = lorentz_gamma(float(np.sqrt(v @ v)))
    b_mag = float(np.linalg.norm(np.asarray(b_field, dtype=float)))
    return cycles * 2.0 * math.pi * gamma_d * mass / (charge * b_mag)


# ---------------------------------------------------------------------------
# static spherically symmetric orbits
# ---------------------------------------------------------------------------


def circular_orbit_coordinate_rate(mass: float, radius: float) -> float:
    """d(phi)/dt on a circular orbit: sqrt(M/r^3), exact in both the
    vacuum chart and the weak-field chart used by the built-in metrics."""
    return math.sqrt(mass / radius**3)


def circular_orbit_time_component(mass: float, radius: float) -> float:
    """u^t = 1/sqrt(1 - 3M/r) on a circular orbit (same closed form in
    both built-in charts); diverges at the photon radius r = 3M."""
    if radius <= 3.0 * mass:
        raise ValueError("no timelike circular orbit at or inside r = 3M")
    return 1.0 / math.sqrt(1.0 - 3.0 * mass / radius)


def bound_orbit_constants(mass: float, r_peri: float, r_apo: float) -> tuple[float, float]:
    """(energy, angular momentum) per unit mass for an equatorial bound
    orbit of the vacuum metric with the given turning radii."""
    if not 2.0 * mass < r_peri < r_apo:
        raise ValueError("need 2M < r_peri < r_apo")
    f_p = 1.0 - 2.0 * mass / r_peri
    f_a = 1.0 - 2.0 * mass / r_apo
    l2 = (f_a - f_p) / (f_p / r_peri**2 - f_a / r_apo**2)
    if l2 <= 0:
        raise ValueError("turning radii admit no bound orbit")
    e2 = f_p * (1.0 + l2 / r_peri**2)
    return math.sqrt(e2), math.sqrt(l2)


def apsidal_advance_leading_order(mass: float, r_peri: float, r_apo: float) -> float:
    """Perihelion shift per orbit, 6*pi*M/(a(1-e^2)) with a(1-e^2) the
    semi-latus rectum 2*r_p*r_a/(r_p + r_a).  First order in M over the
    orbit scale; see the exact quadrature for the regime of validity."""
    semi_latus = 2.0 * r_peri * r_apo / (r_peri + r_apo)
    return 6.0 * math.pi * mass / semi_latus


def _cubic_roots(mass: float, r_peri: float, r_apo: float) -> tuple[float, float, float]:
    # radial potential roots in u = 1/r; the third follows from the trace
    u_a = 1.0 / r_apo
    u_p = 1.0 / r_peri
    u_3 = 1.0 / (2.0 * mass) - u_a - u_p
    if u_3 <= u_p:
        raise ValueError("turning radii too deep: no stable bound orbit")
    return u_a, u_p, u_3


def _periodic_quadrature(integrand: Callable[[float], float]) -> float:
    """Integral of integrand(sin^2 psi) over psi from 0 to pi/2.

    integrand(sin^2 psi) is pi-periodic and even, so the integral is half
    its trapezoidal sum over one period, and for a smooth integrand that
    sum converges geometrically (Trefethen & Weideman, SIAM Rev. 56
    (2014) 385).  The n nodes double from 8, each new sum the mean of the
    last and the midpoint sum on its grid, until two agree to 1e-14
    relative; past 2**16 nodes the quadrature has failed to converge.
    """
    n = 8
    total = math.fsum(integrand(math.sin(k * math.pi / n) ** 2) for k in range(n)) / n
    while n < 2**16:
        mid = math.fsum(integrand(math.sin((k + 0.5) * math.pi / n) ** 2) for k in range(n)) / n
        last, total, n = total, 0.5 * (total + mid), 2 * n
        if abs(total - last) <= 1e-14 * abs(total):
            return 0.5 * math.pi * total
    raise RuntimeError(f"periodic quadrature failed to converge in {n} nodes")


def apsidal_advance_exact(mass: float, r_peri: float, r_apo: float) -> float:
    """Azimuth swept between successive perihelia minus 2*pi, exact.

    The orbit quadrature d(phi)/du = L / sqrt(E^2 - (1-2Mu)(1+L^2 u^2))
    has turning-point singularities; u = u_a + (u_p - u_a) sin^2(psi)
    removes them, leaving a smooth periodic integrand for
    `_periodic_quadrature`.  Cross-checked against the
    complete-elliptic-integral closed form (see
    apsidal_advance_circular_limit for the r_p -> r_a reduction).
    """
    u_a, u_p, u_3 = _cubic_roots(mass, r_peri, r_apo)

    def integrand(sin2: float) -> float:
        return 4.0 / math.sqrt(2.0 * mass * (u_3 - u_a - (u_p - u_a) * sin2))

    return _periodic_quadrature(integrand) - 2.0 * math.pi


def apsidal_advance_elliptic(mass: float, r_peri: float, r_apo: float) -> float:
    """Same quantity as apsidal_advance_exact via K(m); independent route.

    The complete elliptic integral K(m) = pi / (2 AGM(1, sqrt(1 - m)))
    comes from the arithmetic-geometric mean (Abramowitz & Stegun 17.6),
    which converges quadratically: once a and b agree to 1e-9, their
    mean is the limit to rounding.
    """
    u_a, u_p, u_3 = _cubic_roots(mass, r_peri, r_apo)
    m_par = (u_p - u_a) / (u_3 - u_a)
    a, b = 1.0, math.sqrt(1.0 - m_par)
    while abs(a - b) > 1e-9 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    total = 4.0 / math.sqrt(2.0 * mass * (u_3 - u_a)) * math.pi / (a + b)
    return total - 2.0 * math.pi


def apsidal_advance_circular_limit(mass: float, radius: float) -> float:
    """r_p = r_a limit of the exact advance: 2*pi*((1-6M/r)^(-1/2) - 1)."""
    if radius <= 6.0 * mass:
        raise ValueError("no stable circular orbit at or inside r = 6M")
    return 2.0 * math.pi * (1.0 / math.sqrt(1.0 - 6.0 * mass / radius) - 1.0)


def radial_period_proper(mass: float, r_peri: float, r_apo: float) -> float:
    """Proper time between successive perihelion passages, exact quadrature."""
    u_a, u_p, u_3 = _cubic_roots(mass, r_peri, r_apo)
    _, ang_mom = bound_orbit_constants(mass, r_peri, r_apo)

    def integrand(sin2: float) -> float:
        u = u_a + (u_p - u_a) * sin2
        return 4.0 / (u * u * ang_mom * math.sqrt(2.0 * mass * (u_3 - u)))

    return _periodic_quadrature(integrand)


# ---------------------------------------------------------------------------
# other references
# ---------------------------------------------------------------------------


def coulomb_circular_speed(coupling: float) -> float:
    """Speed of a circular orbit with attractive inverse-square coupling
    k = |e q| / (m r): solves v^4 + k^2 v^2 - k^2 = 0 (relativistic
    force balance gamma m v^2 / r = |e q| / r^2)."""
    if not 0.0 < coupling:
        raise ValueError("coupling must be positive")
    k2 = coupling * coupling
    w = 0.5 * (-k2 + math.sqrt(k2 * k2 + 4.0 * k2))
    return math.sqrt(w)


def newtonian_acceleration(mass: float, position) -> np.ndarray:
    """Inverse-square acceleration -M x / r^3 toward the origin."""
    x = np.asarray(position, dtype=float)
    r = float(np.linalg.norm(x))
    return -mass * x / r**3
