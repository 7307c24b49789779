"""Golden outputs: short runs of the paper's figures against pinned digests.

The rerun tests in ``test_differential_scheduler.py`` compare a run only
with itself, so a change that moves a figure's output by the same amount
on every run passes them.  These tests pin what the simulator produced
before such a change: the SHA-256 of ``repr`` of each run's results and
the number of events the kernel executed.  A performance change to a hot
loop must leave both untouched.

Each run is short (1-2 ms of simulated time) but long enough to exercise
the fig5 path flips (TCP SACK recovery, window-blocked MTP routes), the
fig6 open-loop workload (ECMP hashes host addresses and message ids)
and fig7's two traffic classes.  Identifiers come from the run's own
:class:`Simulator`, so a pin holds however the run is reached: first in
a fresh process, after another experiment, or in a ``sweep_map`` worker.

If a change is *meant* to move the output, regenerate the pins and record
every moved number in CHANGES.md.
"""

import hashlib

import pytest

from repro.experiments import (Fig5Config, Fig6Config, Fig7Config, run_fig5,
                               run_fig6, run_fig7)
from repro.perf import sweep_map
from repro.sim import Simulator, microseconds, milliseconds


def _fig5(protocol):
    def run(sim):
        config = Fig5Config(duration_ns=milliseconds(1))
        return run_fig5(protocol, config, sim=sim).series
    return run


def _fig6(system):
    def run(sim):
        config = Fig6Config(duration_ns=milliseconds(2), seed=1)
        result = run_fig6(system, config, sim=sim)
        return result.messages_offered, result.fct.completions()
    return run


def _fig7(system):
    def run(sim):
        config = Fig7Config(duration_ns=milliseconds(1),
                            warmup_ns=microseconds(200))
        result = run_fig7(system, config, sim=sim)
        return sorted(result.tenant_goodput_bps.items())
    return run


#: name -> (run, sha256 of repr(results), events executed).
GOLDEN = {
    "fig5_dctcp": (
        _fig5("dctcp"),
        "8928bdd7e528068e67a7800c2fde295e038b84ea0d7abf600c45dd71b58e2a09",
        47248),
    "fig5_mtp": (
        _fig5("mtp"),
        "c58ec455fcdb3e61a62b7af17de85ae85649af05c107749f2faf900547250d70",
        40158),
    "fig6_ecmp": (
        _fig6("ecmp"),
        "4c13cf943cbd6356c248dce65c8fa8a305a86208a7f385a0c7112d0c35bd1231",
        112913),
    "fig6_spray": (
        _fig6("spray"),
        "c9a2687a96fb093c624ec91a8b706f9963736520068717c289ac8c64954a802c",
        198449),
    "fig6_mtp_lb": (
        _fig6("mtp_lb"),
        "96c77883b86e88adc18f22828b8ee1b4582789657e201734401f6966840cac48",
        111000),
    "fig7_fair_share": (
        _fig7("fair_share"),
        "119f39990d01794d971a566012c865a3d9b2e1de8dae3879381c45a89babd543",
        43372),
}


def _digest_and_events(name):
    """Run golden entry ``name`` on a fresh simulator.

    Module-level so ``sweep_map`` can hand it to worker processes.
    """
    sim = Simulator()
    results = GOLDEN[name][0](sim)
    return (hashlib.sha256(repr(results).encode()).hexdigest(),
            sim.events_executed)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name):
    digest, events = _digest_and_events(name)
    assert events == GOLDEN[name][2]
    assert digest == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_independent_of_process_history(name):
    """Another experiment run first in this process leaves the pin alone."""
    _digest_and_events("fig5_dctcp" if name == "fig5_mtp" else "fig5_mtp")
    assert _digest_and_events(name) == GOLDEN[name][1:]


def test_parallel_sweep_reproduces_every_pin():
    names = sorted(GOLDEN)
    assert (sweep_map(_digest_and_events, names, jobs=2)
            == [GOLDEN[name][1:] for name in names])
