"""The built-in scenarios' output, pinned to the bit.

Each built-in's CSV and run summary hash to the first 12 hex digits of
sha256 that ``scripts/run_builtin_suite.py`` prints for them.  A change
to the stepper, the law or a closed form that moves one bit of a run
fails here.  The pins hold for numpy's float64 arithmetic with the
OpenBLAS it ships (0.3.31, x86-64): a BLAS that sums a 4x4
matrix-vector product in another order moves them without being wrong.

The runs that have no batch to be compared with are pinned the same way:
the summaries of ``schwarzschild-precession``'s checks, two of which
integrate it alone with RK45, and the states of the canonical-momentum
route, which always runs alone, with RK45.
"""

import dataclasses
import hashlib
import json

import pytest

from phasetransport.report import check, emit, run
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin
from phasetransport.transport import minimal_substitution_trajectory

#: built-in -> (csv sha256, summary sha256), 12 hex digits each
DIGESTS = {
    "free": ("6687c1350b04", "65ea6a64c75f"),
    "cyclotron": ("15e8e38b20d8", "c9766f2512f5"),
    "exb-drift": ("bc367cbd5fbd", "6a4a8cbf481c"),
    "coulomb": ("c4f628cfdaca", "4fb67d58739f"),
    "schwarzschild-circular": ("be0af0eab2dc", "9f61dddd45c1"),
    "schwarzschild-precession": ("b4370af892a0", "ad6ded4fc20a"),
    "weak-field-newtonian": ("0ec294239dd3", "e2e8adedc061"),
    "combined-schwarzschild-B": ("a0cd6e0222d6", "29c008f524a8"),
}


def short_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_every_built_in_is_pinned():
    assert sorted(DIGESTS) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_built_in_csv_and_summary_keep_their_digests(name):
    rep = run(load_builtin(name))
    assert (short_sha256(emit(rep, "csv")), short_sha256(json.dumps(rep.summary))) == DIGESTS[name]


#: schwarzschild-precession's checker -> its summary's sha256, 12 hex digits
PRECESSION_CHECKS = {
    "bianchi": "9e65193edc35",
    "norm": "c7d5acd5a7f9",
    "mass-invariance": "949cd967b3cf",
}


@pytest.mark.parametrize("checker", sorted(PRECESSION_CHECKS))
def test_precession_checks_keep_their_digests(checker):
    rep = check(load_builtin("schwarzschild-precession"), checker)
    assert short_sha256(json.dumps(rep.summary)) == PRECESSION_CHECKS[checker]


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
