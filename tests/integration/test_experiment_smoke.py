"""Smoke tests: every experiment driver runs end to end at tiny scale.

The benchmarks run the full configurations and
``test_experiment_claims.py`` the quick ones; these keep the drivers
honest at tiny scale (wiring, result objects, edge cases).
"""

import pytest

from repro.experiments import (Fig2Config, Fig3Config, Fig5Config,
                               Fig6Config, Fig7Config, Fig8Config,
                               compare_fig2, compare_fig8, run_fig3,
                               run_fig5, run_fig6, run_fig7, run_fig8,
                               render_paper_table)
from repro.experiments.common import Claim
from repro.sim import microseconds, milliseconds


class TestFig2Driver:
    def test_modes_and_metrics(self):
        results = compare_fig2(Fig2Config(duration_ns=milliseconds(0.5)),
                               limited_buffer_bytes=64 * 1024)
        unlimited, limited = results["unlimited"], results["limited"]
        assert unlimited.peak_buffer_bytes > limited.peak_buffer_bytes
        assert unlimited.buffer_growth_bps() > 0
        assert "unlimited" in unlimited.mode
        assert "limited" in limited.mode


class TestFig3Driver:
    def test_modes(self):
        config = Fig3Config(duration_ns=milliseconds(1), concurrency=4)
        per_message = run_fig3("per_message", config)
        persistent = run_fig3("persistent", config)
        assert per_message.messages_completed > 0
        assert persistent.mean_throughput_bps > 0
        assert per_message.series  # dense series produced

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_fig3("bogus")


class TestFig5Driver:
    @pytest.mark.parametrize("protocol", ["dctcp", "mtp", "mptcp"])
    def test_protocols(self, protocol):
        config = Fig5Config(duration_ns=milliseconds(1.5))
        result = run_fig5(protocol, config)
        assert result.mean_goodput_bps > 0
        assert result.protocol == protocol

    def test_pathlet_modes(self):
        for mode in ("per_link", "single"):
            config = Fig5Config(duration_ns=milliseconds(1),
                                pathlet_mode=mode)
            assert run_fig5("mtp", config).mean_goodput_bps > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Fig5Config(pathlet_mode="nope")
        with pytest.raises(ValueError):
            Fig5Config(mtp_feedback="nope")
        with pytest.raises(ValueError):
            run_fig5("carrier-pigeon")


class TestFig6Driver:
    @pytest.mark.parametrize("system", ["ecmp", "spray", "mtp_lb"])
    def test_systems(self, system):
        config = Fig6Config(duration_ns=milliseconds(2),
                            max_message_bytes=200_000)
        result = run_fig6(system, config)
        assert result.messages_completed > 0
        assert result.p99_fct_ns() > 0

    def test_arrival_rate_scales_with_load(self):
        low = Fig6Config(offered_load=0.2).arrival_rate_per_sec()
        high = Fig6Config(offered_load=0.8).arrival_rate_per_sec()
        assert high == pytest.approx(4 * low)

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_fig6("wishful-thinking")


class TestFig7Driver:
    @pytest.mark.parametrize("system", ["shared", "separate", "fair_share"])
    def test_systems(self, system):
        config = Fig7Config(duration_ns=milliseconds(1.2),
                            warmup_ns=milliseconds(0.3))
        result = run_fig7(system, config)
        assert set(result.tenant_goodput_bps) == {"tenant1", "tenant2"}
        assert 0 < result.fairness <= 1.0

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_fig7("anarchy")


def _quick_fig8_config():
    return Fig8Config(detection_delay_ns=microseconds(20),
                      flap_down_ns=microseconds(200),
                      flap_up_ns=milliseconds(1.2),
                      migrate_ns=milliseconds(1.5),
                      corrupt_start_ns=milliseconds(1.8),
                      corrupt_stop_ns=milliseconds(2.0),
                      duration_ns=milliseconds(2.5))


class TestFig8Driver:
    def test_headline_mtp_recovers_faster(self):
        results = compare_fig8(_quick_fig8_config())
        mtp, tcp = results["mtp"], results["dctcp"]
        assert mtp.link_down_ttr_ns is not None
        if tcp.link_down_ttr_ns is not None:
            assert mtp.link_down_ttr_ns < tcp.link_down_ttr_ns
        for result in results.values():
            # Sanitizers were on by default and every packet accounted.
            assert result.conservation is not None
            assert result.conservation.ok, result.conservation.summary()
            # The identical chaos schedule was fully applied.
            assert len(result.applied) == 5
            assert result.telemetry.migrations == [("sw1", "sw2")]
            assert result.mean_goodput_bps > 0

    def test_failover_and_retransmissions_recorded(self):
        result = run_fig8("mtp", _quick_fig8_config())
        assert result.failovers >= 1
        assert result.retransmissions > 0
        assert result.recovery("link_down") is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fig8("smoke-signals")
        with pytest.raises(ValueError):
            Fig8Config(flap_down_ns=milliseconds(3),
                       flap_up_ns=milliseconds(2))


class TestTable1Driver:
    def test_render_contains_all_rows(self):
        table = render_paper_table()
        for row in ("MTP (this work)", "DCTCP", "RDMA UD", "QUIC"):
            assert row in table


class TestCliRunner:
    def test_cli_quick_subset(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--quick", "table1"]) == 0
        out = capsys.readouterr().out
        assert "MTP (this work)" in out
        assert "[PASS] data_mutation" in out
        assert "[PASS] udp_no_cc" in out  # baseline counterexamples ran too
        assert "[FAIL]" not in out

    def test_cli_fails_on_false_claim(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main
        from repro.experiments.registry import EXPERIMENTS
        table1 = EXPERIMENTS["table1"]
        false = Claim("never holds", "a claim the run cannot meet",
                      lambda results, config: False)
        monkeypatch.setitem(EXPERIMENTS, "table1", table1._replace(
            claims=table1.claims[:1] + (false,)))
        assert main(["--quick", "table1"]) == 1
        out = capsys.readouterr().out
        assert "  [PASS] data_mutation: " in out
        assert "  [FAIL] never holds: a claim the run cannot meet" in out

    def test_cli_rejects_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["figNaN"])
