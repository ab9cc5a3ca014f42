"""What the benchmark under perfbench/ reads of the package.

Its tracer rebinds callables by name and skips a name that is gone, so a
rename would only zero the traced metrics; its CSV check walks the
samples of a run.  These tests fail loudly instead.
"""

import dataclasses

import numpy as np
import pytest

from phasetransport import cli, oracles, report, scenarios
from phasetransport.connection import Particle, electromagnetic_connection
from phasetransport.fields import uniform_faraday, uniform_field_potential
from phasetransport.metrics import minkowski
from phasetransport.scenarios import load_builtin
from phasetransport.tensor import FourVector, SpacetimeEvent
from phasetransport.transport import IntegratorConfig, PhaseState

TRACED = [
    (report, "integrate"),
    (report, "minimal_substitution_trajectory"),
    (report, "bianchi_residual"),
    (report, "closure_residual"),
    (report, "run"),
    (report, "check"),
    (report, "emit"),
    (scenarios, "load_scenario"),
    (scenarios.Scenario, "connection"),
    (cli, "main"),
]


@pytest.mark.parametrize("owner, name", TRACED, ids=[name for _, name in TRACED])
def test_traced_callables_exist(owner, name):
    assert callable(getattr(owner, name, None))


def test_samples_read_back_as_the_csv_rows():
    scn = load_builtin("cyclotron")
    scn = dataclasses.replace(scn, config=dataclasses.replace(scn.config, tau_max=2.0))
    rep = report.run(scn)
    lines = report.emit(rep, "csv").split("\n")
    assert lines[0] == ",".join(report.CSV_COLUMNS) and lines[-1] == ""
    rows = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
    samples = [
        (s.state.tau, *s.state.x.coords.tolist(), *s.state.u.components.tolist(),
         s.norm_residual)
        for s in rep.samples
    ]
    assert len(samples) == 2001
    assert rows == samples


def _counted_guard(owner, calls):
    def probe(coords):
        calls.append(1)
        return owner.guard.probe(coords)

    return dataclasses.replace(owner, guard=dataclasses.replace(owner.guard, probe=probe))


def test_an_rk4_run_probes_its_guard_five_times_per_sample_less_four():
    # four RHS probes per step, one per landed state and one at the start:
    # the tracer derives its RHS count as probe calls minus samples
    cfg = IntegratorConfig(step=0.1, tau_max=1.0)
    particle = Particle(1.0, 1.0)
    u = [oracles.gamma_from_u([0.3, 0, 0]), 0.3, 0.0, 0.0]
    initial = PhaseState(0.0, SpacetimeEvent([0.0, 0.0, 0.0, 0.0]), FourVector(u))

    calls = []
    conn = _counted_guard(electromagnetic_connection(uniform_faraday(b_field=[0, 0, 1.0]), 1.0),
                          calls)
    force = report.integrate(conn, particle, initial, cfg)
    assert (len(force), len(calls)) == (11, 51)

    calls.clear()
    metric = _counted_guard(minkowski(), calls)
    canonical = report.minimal_substitution_trajectory(
        uniform_field_potential(b_field=[0, 0, 1.0]), metric, particle, initial, cfg
    )
    assert (len(canonical), len(calls)) == (11, 51)
    np.testing.assert_allclose(canonical.state, force.state, rtol=0, atol=1e-14)
