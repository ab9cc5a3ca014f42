"""The built-in scenarios' output, pinned to the bit.

Each built-in's CSV and run summary hash to the first 12 hex digits of
sha256 that ``scripts/run_builtin_suite.py`` prints for them.  A change
to the stepper, the law or a closed form that moves one bit of a run
fails here.  The pins hold for numpy's float64 arithmetic with the
OpenBLAS it ships (0.3.31, x86-64): a BLAS that sums a 4x4
matrix-vector product in another order moves them without being wrong.
"""

import hashlib
import json

import pytest

from phasetransport.report import emit, run
from phasetransport.scenarios import BUILTIN_NAMES, load_builtin

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
