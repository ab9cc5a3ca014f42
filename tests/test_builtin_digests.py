"""The built-in scenarios' output, pinned to the bit.

Each built-in's CSV, run summary and run JSON hash to the first 12 hex
digits of sha256 that ``scripts/run_builtin_suite.py`` prints for them.
A change to the stepper, the law, a closed form or an emitter that moves
one bit of a run fails here.  The pins hold for numpy's float64 arithmetic with the
OpenBLAS it ships (0.3.31, x86-64): a BLAS that sums a 4x4
matrix-vector product in another order moves them without being wrong.

Every check is pinned the same way: the summary of each built-in's check
by each checker it is compatible with, which takes the paths that a run
does not (the canonical-momentum route, the symbols behind the Bianchi
residual, the lone RK45 runs).  So are the states of the canonical
route, which always runs alone, with RK45, and on starts off the axes,
where a row of dA @ u or a component of a uniform potential sums three
nonzero terms, so that the order of the sum shows in the bits.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from phasetransport.connection import Particle
from phasetransport.errors import IncompatibleChecker
from phasetransport.fields import (
    axial_magnetic_potential_spherical,
    coulomb_potential,
    uniform_field_potential,
)
from phasetransport.metrics import minkowski, schwarzschild
from phasetransport.report import CHECKERS, check, emit, run
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin, solve_time_component
from phasetransport.tensor import FourVector, SpacetimeEvent
from phasetransport.transport import IntegratorConfig, PhaseState, minimal_substitution_trajectory

#: built-in -> (csv sha256, summary sha256, run-json sha256), 12 hex digits each
DIGESTS = {
    "free": ("6687c1350b04", "65ea6a64c75f", "39e6546c24ff"),
    "cyclotron": ("15e8e38b20d8", "c9766f2512f5", "7fa73c4c8ebb"),
    "exb-drift": ("bc367cbd5fbd", "6a4a8cbf481c", "83a903a8d0d0"),
    "coulomb": ("c4f628cfdaca", "4fb67d58739f", "1fbae783da6f"),
    "schwarzschild-circular": ("be0af0eab2dc", "9f61dddd45c1", "13d717c85176"),
    "schwarzschild-precession": ("b4370af892a0", "6dfec6856974", "96bb0d841fe1"),
    "weak-field-newtonian": ("0ec294239dd3", "807d066e5c58", "23e1ec1129f8"),
    "combined-schwarzschild-B": ("a0cd6e0222d6", "29c008f524a8", "186b76614ffd"),
}


def short_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_every_built_in_is_pinned():
    assert sorted(DIGESTS) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_built_in_csv_and_summary_keep_their_digests(name):
    # the run JSON is pinned with them: its rows are written by a template of their own
    rep = run(load_builtin(name))
    assert (short_sha256(emit(rep, "csv")), short_sha256(json.dumps(rep.summary)),
            short_sha256(emit(rep, "json"))) == DIGESTS[name]


#: (built-in, checker) -> its check's summary sha256, 12 hex digits, for
#: every checker that the built-in is compatible with
CHECK_DIGESTS = {
    ("free", "bianchi"): "ceeff9a3e414",
    ("free", "norm"): "8cc0e4acadb3",
    ("free", "mass-invariance"): "949cd967b3cf",
    ("cyclotron", "bianchi"): "ceeff9a3e414",
    ("cyclotron", "closure"): "f7cc2180092d",
    ("cyclotron", "norm"): "40ee4b299ddb",
    ("cyclotron", "mass-invariance"): "8e16296054f8",
    ("cyclotron", "minimal-substitution"): "a9750cbea916",
    ("exb-drift", "bianchi"): "ceeff9a3e414",
    ("exb-drift", "closure"): "f7cc2180092d",
    ("exb-drift", "norm"): "bf257e7cf6ff",
    ("exb-drift", "mass-invariance"): "8e16296054f8",
    ("exb-drift", "minimal-substitution"): "5abf589f2727",
    ("coulomb", "bianchi"): "8f4869d24dea",
    ("coulomb", "closure"): "43fb61458842",
    ("coulomb", "norm"): "badc56ac4c2e",
    ("coulomb", "mass-invariance"): "8e16296054f8",
    ("coulomb", "minimal-substitution"): "d4e68151e831",
    ("schwarzschild-circular", "bianchi"): "bf81375dccee",
    ("schwarzschild-circular", "norm"): "266d3d3fa1a1",
    ("schwarzschild-circular", "mass-invariance"): "949cd967b3cf",
    ("schwarzschild-precession", "bianchi"): "9e65193edc35",
    ("schwarzschild-precession", "norm"): "c7d5acd5a7f9",
    ("schwarzschild-precession", "mass-invariance"): "949cd967b3cf",
    ("weak-field-newtonian", "bianchi"): "a911c50db0ad",
    ("weak-field-newtonian", "norm"): "d2daa450c412",
    ("weak-field-newtonian", "mass-invariance"): "949cd967b3cf",
    ("combined-schwarzschild-B", "bianchi"): "9e65193edc35",
    ("combined-schwarzschild-B", "closure"): "d50791da6b74",
    ("combined-schwarzschild-B", "norm"): "271a282dea83",
    ("combined-schwarzschild-B", "mass-invariance"): "8e16296054f8",
    ("combined-schwarzschild-B", "minimal-substitution"): "bf22be18ea97",
}


def test_every_compatible_check_is_pinned():
    for name in BUILTIN_NAMES:
        for checker in CHECKERS:
            if (name, checker) not in CHECK_DIGESTS:
                with pytest.raises(IncompatibleChecker):
                    check(load_builtin(name), checker)


@pytest.mark.parametrize("name,checker", sorted(CHECK_DIGESTS))
def test_check_keeps_its_digest(name, checker):
    rep = check(load_builtin(name), checker)
    assert short_sha256(json.dumps(rep.summary)) == CHECK_DIGESTS[name, checker]


#: built-in -> (tau_max, sha256 of the canonical route's state column, 12 hex
#: digits) with rk45-adaptive
CANONICAL_RK45 = {
    "exb-drift": (5.0, "9f7d401b4b46"),
    "combined-schwarzschild-B": (20.0, "099f61f66ad4"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_RK45))
def test_canonical_route_with_rk45_keeps_its_digest(name):
    tau_max, digest = CANONICAL_RK45[name]
    scn = load_builtin(name)
    cfg = dataclasses.replace(scn.config, method="rk45-adaptive", tau_max=tau_max)
    traj = minimal_substitution_trajectory(scn.potential, scn.metric, scn.particle,
                                           scn.initial, cfg)
    assert hashlib.sha256(traj.state.tobytes()).hexdigest()[:12] == digest


def _start(g, x, u):
    u0 = solve_time_component(g, np.array(x), np.array(u))
    return PhaseState(0.0, SpacetimeEvent(x), FourVector([u0, *u]))


#: case -> (potential, metric, start, config, sha256 of the canonical route's
#: state column, 12 hex digits), for a unit charge of unit mass, off the axes
#: where the built-ins keep E and B, the start and u
CANONICAL_OFF_AXES = {
    # exb-drift's E and B turned so that E, B, x and u have three nonzero components
    "exb-drift-rotated": (
        lambda: uniform_field_potential([0.2 / 3, -0.1 / 3, 0.2 / 3], [2 / 3, 2 / 3, -1 / 3]),
        minkowski, [0.0, 0.3, -0.2, 0.1], [0.1, -0.05, 0.08],
        IntegratorConfig(step=1e-2, tau_max=5.0), "8ae64cf57501"),
    "coulomb-off-axes": (
        lambda: coulomb_potential(1.0), minkowski, [0.0, 6.0, -5.0, 4.0], [0.1, 0.15, 0.05],
        IntegratorConfig(step=5e-2, tau_max=20.0), "79c14b8a4544"),
    # combined-schwarzschild-B's field at theta = 1.1, with u^theta
    "combined-schwarzschild-B-off-equator": (
        lambda: axial_magnetic_potential_spherical(1e-3), lambda: schwarzschild(1.0),
        [0.0, 20.0, 1.1, 0.4], [0.01, 0.005, 0.01],
        IntegratorConfig(step=5e-2, tau_max=50.0), "a08ad2471e4c"),
}


@pytest.mark.parametrize("case", sorted(CANONICAL_OFF_AXES))
def test_canonical_route_off_the_axes_keeps_its_digest(case):
    potential, metric, x, u, cfg, digest = CANONICAL_OFF_AXES[case]
    g = metric()
    traj = minimal_substitution_trajectory(potential(), g, Particle(1.0, 1.0), _start(g, x, u), cfg)
    assert traj.status == "completed"
    assert hashlib.sha256(traj.state.tobytes()).hexdigest()[:12] == digest
