"""Golden outputs: short runs of the paper's figures against pinned digests.

The rerun tests in ``test_differential_scheduler.py`` compare a run only
with itself, so a change that moves a figure's output by the same amount
on every run passes them.  These tests pin what the simulator produced
before such a change: the SHA-256 of ``repr`` of each run's results and
the number of events the kernel executed.  A performance change to a hot
loop must leave both untouched.

Each run is short (1-2 ms of simulated time) but long enough to exercise
the fig5 path flips (TCP SACK recovery, window-blocked MTP routes), the
fig6 open-loop workload (ECMP hashes host addresses and message ids),
fig7's two traffic classes over its DropTail, DRR and FairShare queues,
fig3's per-message and persistent TCP connections, fig2's proxy, and
fig8's fault schedule (a link that goes down drops the packets still
serializing or propagating on it).  Identifiers come from the run's own
:class:`Simulator`, so a pin holds however the run is reached: first in
a fresh process, after another experiment, or in a ``sweep_map`` worker.

If a change is *meant* to move the output, regenerate the pins and record
every moved number in CHANGES.md.
"""

import hashlib

import pytest

from repro.experiments import (Fig2Config, Fig3Config, Fig5Config,
                               Fig6Config, Fig7Config, Fig8Config, run_fig2,
                               run_fig3, run_fig5, run_fig6, run_fig7,
                               run_fig8, sweep_map)
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


def _fig3(mode):
    def run(sim):
        config = Fig3Config(duration_ns=milliseconds(1))
        result = run_fig3(mode, config, sim=sim)
        return result.series, result.messages_completed
    return run


def _fig2(sim):
    result = run_fig2(Fig2Config(duration_ns=milliseconds(1)), sim=sim)
    return result.buffer_series, result.server_received, result.client_sent


def _fig8(protocol):
    def run(sim):
        # The full fault schedule (link flap, offload migration,
        # corruption window), compressed into 1.2 ms.
        config = Fig8Config(flap_down_ns=microseconds(300),
                            flap_up_ns=microseconds(600),
                            migrate_ns=microseconds(800),
                            corrupt_start_ns=microseconds(900),
                            corrupt_stop_ns=microseconds(1100),
                            duration_ns=microseconds(1200))
        result = run_fig8(protocol, config, sim=sim)
        return (result.series, result.applied,
                [verdict.as_dict() for verdict in result.recoveries],
                result.failovers, result.retransmissions)
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
    "fig7_shared": (
        _fig7("shared"),
        "1bcf68d76be771c6f7caf60ffdc07b4687ef7f3c6c769683b72c99578ec2db03",
        93826),
    "fig7_separate": (
        _fig7("separate"),
        "c2994f0a119cf680756cbbfa6d222d9a0e0ee4ccb8d8049dbe95ccdb69d170e3",
        96114),
    "fig3_per_message": (
        _fig3("per_message"),
        "aa2f974d8551ddf06b8717b7d11b542107e7583b736197f479cdebaa29bab787",
        93096),
    "fig3_persistent": (
        _fig3("persistent"),
        "391fbbdc5d41f3a53aae4945384a98af307bb7a4c04f1a4c8cc40eeab304cbb4",
        105337),
    "fig2": (
        _fig2,
        "dff6d1a789251b9a9d296f64c25ecc8e2f3a38d40f48811314fafdab1b38fcec",
        45026),
    "fig8_dctcp": (
        _fig8("dctcp"),
        "ba41a58639577f900591b9d202bb81129bffae611d3249b15a0d1ac7795daee2",
        33378),
    "fig8_mtp": (
        _fig8("mtp"),
        "e65b3c946ce3eb9b2fde1ddcea5a7c0482889fe143392a3db32c13a42ef557e6",
        11985),
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
