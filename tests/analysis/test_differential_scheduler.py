"""Differential scheduler checks: each experiment against its own rerun.

The kernel has one event store, so the differential is between two runs
of the same seeded experiment in one process, made with the replay
machinery (:func:`~repro.analysis.check_replay`): the digests over every
executed event's ``(time, kind, packet-uid)`` must match byte-for-byte on
the paper's own workloads, and so must the experiments' own results.
The sanitizing subclass is also checked against the plain kernel, event
for event.
fig8 runs under a compressed chaos schedule (link flap, offload
migration, corruption window) so the adversity path is covered too.
"""

import pytest

from repro.analysis import (SanitizingSimulator, check_replay,
                            find_divergence, trace_run)
from repro.experiments.fig2_proxy import Fig2Config, run_fig2
from repro.experiments.fig5_multipath import Fig5Config, run_fig5
from repro.experiments.fig8_failover import Fig8Config, run_fig8
from repro.sim import microseconds


def _chaos_config():
    """A compressed fig8 fault timeline that fits a short trace."""
    return Fig8Config(detection_delay_ns=microseconds(20),
                      sample_interval_ns=microseconds(25),
                      flap_down_ns=microseconds(150),
                      flap_up_ns=microseconds(300),
                      migrate_ns=microseconds(400),
                      corrupt_start_ns=microseconds(430),
                      corrupt_stop_ns=microseconds(480),
                      corrupt_probability=0.05,
                      duration_ns=microseconds(600))


def _assert_replays(setup):
    """Run ``setup`` twice; return both results after checking the digests."""
    report = check_replay(setup)
    assert report.ok, report.describe()
    assert report.events[0] > 100  # a real run, not a trivial one
    return report.results


class TestSchedulerDifferential:
    def test_fig2_proxy_identical_traces(self):
        config = Fig2Config(duration_ns=microseconds(200))
        _assert_replays(lambda sim: run_fig2(config, sim=sim))

    @pytest.mark.parametrize("protocol", ["dctcp", "mtp"])
    def test_fig5_multipath_identical_traces(self, protocol):
        config = Fig5Config(duration_ns=microseconds(300))
        _assert_replays(lambda sim: run_fig5(protocol, config, sim=sim))

    def test_fig5_results_identical_across_runs(self):
        config = Fig5Config(duration_ns=microseconds(300))
        first, second = _assert_replays(
            lambda sim: run_fig5("mtp", config, sim=sim))
        assert first.series == second.series

    @pytest.mark.parametrize("protocol", ["dctcp", "mtp"])
    def test_fig8_chaos_identical_traces(self, protocol):
        # The chaos schedule (link flap, offload migration, corruption
        # window) must replay event for event.
        config = _chaos_config()
        _assert_replays(lambda sim: run_fig8(protocol, config, sim=sim))

    def test_fig8_applied_faults_identical_across_runs(self):
        config = _chaos_config()
        first, second = _assert_replays(
            lambda sim: run_fig8("mtp", config, sim=sim))
        assert first.applied == second.applied
        assert first.series == second.series

    def test_fig8_chaos_replays_itself(self):
        # The sanitizing subclass replays itself, and event for event
        # matches the plain kernel: its checks observe but never perturb.
        config = _chaos_config()

        def setup(sim):
            return run_fig8("mtp", config, sim=sim)

        report = check_replay(setup, sim_factory=SanitizingSimulator)
        assert report.ok, report.describe()
        plain, _ = trace_run(setup)
        sanitized, _ = trace_run(setup, sim_factory=SanitizingSimulator)
        divergence = find_divergence(plain, sanitized)
        assert divergence is None, divergence.describe()
        assert plain.digest() == report.digests[0]
