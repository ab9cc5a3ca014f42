#!/usr/bin/env python3
"""Convergence study for the two differential-identity residuals.

Sweeps the differencing step and prints the contracted-curvature
(divergence-of-Einstein) residual on a Schwarzschild background and the
antisymmetrized-curl residual of a Coulomb potential, together with the
observed convergence order between consecutive steps.  Both central
differences are second order, so the order column should settle near 2.

A uniform field in the symmetric gauge is included as the degenerate
case: its potential is linear in the coordinates, every second
derivative vanishes, and the residual is exactly zero at any step.
"""

import dataclasses
import math
import os
import sys

import numpy as np

# the package sits in src/ of a plain checkout
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from phasetransport import fields, metrics
from phasetransport.curvature import bianchi_residual, closure_residual
from phasetransport.tensor import SpacetimeEvent

CURVED_POINT = SpacetimeEvent(np.array([0.0, 10.0, math.pi / 2, 0.0]))
FIELD_POINT = SpacetimeEvent(np.array([0.0, 3.0, 2.0, -1.0]))
STEPS = [0.16, 0.08, 0.04, 0.02, 0.01]


def sweep(label, fn):
    print(label)
    print(f"  {'step':>8s} {'residual':>14s} {'order':>7s}")
    prev = None
    for h in STEPS:
        res = fn(h)
        order = "" if prev is None or res == 0.0 else f"{math.log2(prev / res):7.3f}"
        print(f"  {h:8.3g} {res:14.4e} {order:>7s}")
        prev = res
    print()


def main() -> None:
    g = metrics.schwarzschild(1.0)
    coulomb = fields.coulomb_potential(1.0)
    uniform = fields.uniform_field_potential(b_field=(0.0, 0.0, 1.0))

    sweep("divergence of Einstein tensor, Schwarzschild at r = 10M:",
          lambda h: bianchi_residual(g, CURVED_POINT, step=h))
    sweep("curl defect of the Coulomb potential (closed-form derivatives):",
          lambda h: closure_residual(coulomb, FIELD_POINT, step=h))
    sweep("curl defect of a uniform field, symmetric gauge (exact zero):",
          lambda h: closure_residual(uniform, FIELD_POINT, step=h))

    # When the potential's own derivatives are supplied by central
    # differences, the outer difference of an inner difference satisfies
    # the cyclic identity to rounding at ANY step: the truncation terms
    # cancel because the two difference operators commute.  The residual
    # is then a rounding floor, not a convergence measurement.
    differenced = dataclasses.replace(coulomb, deriv_fn=None)
    sweep("curl defect with nested differencing (rounding floor only):",
          lambda h: closure_residual(differenced, FIELD_POINT, step=h))


if __name__ == "__main__":
    main()
