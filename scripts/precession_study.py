#!/usr/bin/env python3
"""Where the first-order apsidal-advance formula stops working.

For a family of bound Schwarzschild orbits with fixed eccentricity the
script compares three numbers per orbit size:

  * exact     — turning-point quadrature for the azimuth between perihelia
  * 1st-order — 6*pi*M / (a * (1 - e^2)), the far-field approximation
  * measured  — secular advance extracted from an actual integrated
                trajectory (only for the smaller orbits; the radial
                period grows like a**1.5 and integration time with it)

The first-order column converges to the exact one as the orbit grows,
but at a = 20M it is ~30% low: the expansion parameter 6M/p is ~0.3
there and the discarded quadratic term is not small.  The integrator
column tracks the exact quadrature at every size, which is the evidence
that the discrepancy belongs to the formula, not to the dynamics.
"""

import argparse
import os
import sys

# the package sits in src/ of a plain checkout
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from phasetransport import oracles
from phasetransport.report import run_batch
from phasetransport.scenarios import load_scenario

ORBIT_DOC = """\
[scenario]
oracle = precession

[metric]
type = schwarzschild
mass = 1.0

[initial]
orbit = bound
r_peri = {rp}
r_apo = {ra}

[integrator]
method = rk45-adaptive
step = 1.0
rtol = 1e-10
atol = 1e-12
tau_max = {tau}
"""

SEMI_MAJOR_AXES = [20.0, 30.0, 50.0, 100.0, 300.0, 1000.0, 3000.0]
ECCENTRICITY = 0.1


def measured_advances(axes: list[float], orbits: float) -> list[float]:
    """Measured advance for each semi-major axis, integrated as one batch.

    The orbits share the metric and the integrator and differ only in
    initial data and horizon, so `run_batch` steps them together.
    """
    scenarios = []
    for a in axes:
        rp = a * (1.0 - ECCENTRICITY)
        ra = a * (1.0 + ECCENTRICITY)
        tau = orbits * oracles.radial_period_proper(1.0, rp, ra)
        doc = ORBIT_DOC.format(rp=rp, ra=ra, tau=tau)
        scenarios.append(load_scenario(doc, name=f"bound-{rp:g}-{ra:g}"))
    reports = run_batch(scenarios) if scenarios else []
    return [rep.summary["precession_measured"] for rep in reports]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--integrate-up-to", type=float, default=50.0, metavar="A",
                    help="integrate trajectories for a <= A (default 50)")
    ap.add_argument("--orbits", type=float, default=3.2,
                    help="radial periods per integrated trajectory")
    args = ap.parse_args()

    integrated = [a for a in SEMI_MAJOR_AXES if a <= args.integrate_up_to]
    measured_by_a = dict(zip(integrated, measured_advances(integrated, args.orbits)))

    print(f"{'a/M':>7s} {'6M/p':>7s} {'exact':>12s} {'1st-order':>12s} "
          f"{'formula gap':>11s} {'measured':>12s} {'integr. gap':>11s}")
    for a in SEMI_MAJOR_AXES:
        rp = a * (1.0 - ECCENTRICITY)
        ra = a * (1.0 + ECCENTRICITY)
        p = a * (1.0 - ECCENTRICITY**2)
        exact = oracles.apsidal_advance_exact(1.0, rp, ra)
        leading = oracles.apsidal_advance_leading_order(1.0, rp, ra)
        gap = abs(leading - exact) / exact
        if a in measured_by_a:
            measured = measured_by_a[a]
            mgap = abs(measured - exact) / exact
            tail = f"{measured:12.6f} {mgap:11.2e}"
        else:
            tail = f"{'-':>12s} {'-':>11s}"
        print(f"{a:7.0f} {6.0 / p:7.3f} {exact:12.6f} {leading:12.6f} "
              f"{gap:11.2e} {tail}")


if __name__ == "__main__":
    main()
