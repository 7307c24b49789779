"""Ablations of MTP's design choices (DESIGN.md section "Key design
decisions").

* **Pathlet granularity** — per-link pathlets vs one global pathlet on the
  Figure-5 scenario.  One pathlet means one shared window: MTP degrades to
  TCP-like behaviour, quantifying how much of the Figure-5 win comes from
  per-pathlet state (the paper's central mechanism).
* **Feedback type** — the same bottleneck speaking ECN vs explicit-rate vs
  delay feedback, showing the multi-algorithm machinery end to end.
* **Message atomicity** — the Figure-6 MTP balancer with and without
  intra-message spraying.
* **Figure-5 feedback dialects** — the Figure-5 scenario with its
  pathlets speaking ECN, delay or explicit-rate feedback (Section 4: MTP
  can implement DCTCP, Swift or RCP behaviour).

The first three drivers take a ``jobs`` argument: ablation points are
independent simulations, so they fan out over worker processes via
:func:`~repro.experiments.parallel.sweep_map`.  Results are merged in
point order — output is identical for any ``jobs`` value.
:func:`run_ablations` runs all four serially.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

from ..core import (BlobSender, DelayFeedbackSource, EcnFeedbackSource,
                    MtpStack, PathletRegistry, RateFeedbackSource)
from ..net import DropTailQueue, Network, RateMonitor
from ..sim import Simulator, gbps, microseconds, milliseconds
from .common import Claim, format_table
from .fig5_multipath import Fig5Config, Fig5Result, run_fig5
from .fig6_loadbalance import Fig6Config, Fig6Result, run_fig6
from .parallel import sweep_map

__all__ = ["ablate_pathlet_granularity", "ablate_feedback_types",
           "ablate_message_atomicity", "ablate_fig5_feedback",
           "run_ablations", "FEEDBACK_SOURCES", "FIG5_DIALECTS"]


def _variants(base, field: str, values) -> list:
    """Copies of config ``base`` that differ only in ``field``."""
    configs = []
    for value in values:
        config = copy.copy(base)
        setattr(config, field, value)
        configs.append(config)
    return configs


def _mtp_fig5_point(config: Fig5Config) -> Fig5Result:
    """Sweep worker: one Figure-5 MTP point (picklable)."""
    return run_fig5("mtp", config)


def ablate_pathlet_granularity(config: Optional[Fig5Config] = None,
                               jobs: int = 1) -> Dict[str, Fig5Result]:
    """Figure-5 scenario: per-link pathlets vs a single global pathlet."""
    modes = ("per_link", "single")
    configs = _variants(config or Fig5Config(), "pathlet_mode", modes)
    return dict(zip(modes, sweep_map(_mtp_fig5_point, configs, jobs=jobs)))


FEEDBACK_SOURCES = ("ecn", "rate", "delay")


def _feedback_point(job: Tuple[str, int, int, int]) -> Dict:
    """Sweep worker: one feedback-dialect point (picklable)."""
    kind, duration_ns, bottleneck_bps, n_competing = job
    sim = Simulator()
    net = Network(sim)
    sw = net.add_switch("sw")
    sink = net.add_host("sink")
    bottleneck = net.connect(sw, sink, bottleneck_bps, microseconds(5),
                             queue_factory=lambda: DropTailQueue(256,
                                                                 20))
    senders = []
    for index in range(n_competing):
        host = net.add_host(f"h{index}")
        net.connect(host, sw, bottleneck_bps, microseconds(1))
        senders.append(host)
    net.install_routes()
    registry = PathletRegistry(sim)
    port = bottleneck.port_a
    if kind == "ecn":
        source = EcnFeedbackSource(20)
    elif kind == "rate":
        source = RateFeedbackSource(sim, port,
                                    avg_rtt_ns=microseconds(15))
    else:
        source = DelayFeedbackSource()
    registry.register(port, source)
    monitor = RateMonitor(sim, microseconds(50))
    sink_stack = MtpStack(sink)
    sink_stack.endpoint(
        port=100,
        on_message=lambda ep, msg: monitor.record_bytes(msg.size))
    peak_queue = [0]
    for host in senders:
        endpoint = MtpStack(host).endpoint()
        BlobSender(endpoint, sink.address, 100, total_bytes=1 << 40,
                   window_messages=64)

    def sample_queue():
        peak_queue[0] = max(peak_queue[0], len(port.queue))
        sim.schedule(microseconds(10), sample_queue)

    sample_queue()
    sim.run(until=duration_ns)
    return {
        "goodput_bps": monitor.mean_bps(microseconds(500), duration_ns),
        "peak_queue_pkts": peak_queue[0],
        "capacity_bps": bottleneck_bps,
    }


def ablate_feedback_types(duration_ns: int = milliseconds(4),
                          bottleneck_bps: int = gbps(10),
                          n_competing: int = 4,
                          jobs: int = 1) -> Dict[str, Dict]:
    """One bottleneck, three feedback dialects, same workload.

    ``n_competing`` hosts blast blobs through a shared 10 Gbps link whose
    pathlet speaks ECN, explicit rate, or delay feedback.  Reports mean
    goodput and peak queue for each — all three should fill the link while
    the signal-specific controllers keep the queue bounded.
    """
    points = [(kind, duration_ns, bottleneck_bps, n_competing)
              for kind in FEEDBACK_SOURCES]
    return dict(zip(FEEDBACK_SOURCES,
                    sweep_map(_feedback_point, points, jobs=jobs)))


def _atomicity_point(config: Fig6Config) -> Fig6Result:
    """Sweep worker: one message-atomicity point (picklable)."""
    return run_fig6("mtp_lb", config)


def ablate_message_atomicity(config: Optional[Fig6Config] = None,
                             jobs: int = 1) -> Dict[str, Fig6Result]:
    """Figure-6 MTP balancer with message atomicity on vs off."""
    labels = ("atomic", "sprayed")
    configs = _variants(config or Fig6Config(), "mtp_intra_message_spray",
                        (False, True))
    return dict(zip(labels,
                    sweep_map(_atomicity_point, configs, jobs=jobs)))


FIG5_DIALECTS = ("ecn", "delay", "rate")


def ablate_fig5_feedback(config: Optional[Fig5Config] = None
                         ) -> Dict[str, Fig5Result]:
    """Figure-5 scenario, MTP only, under each pathlet feedback dialect."""
    configs = _variants(config or Fig5Config(), "mtp_feedback",
                        FIG5_DIALECTS)
    return dict(zip(FIG5_DIALECTS, map(_mtp_fig5_point, configs)))


def run_ablations(durations: Dict[str, int]) -> Dict[str, Dict]:
    """Every ablation, each at its own simulated duration."""
    return {
        "pathlet_granularity": ablate_pathlet_granularity(Fig5Config(
            duration_ns=durations["pathlet_granularity"])),
        "feedback_types": ablate_feedback_types(
            duration_ns=durations["feedback_types"]),
        "fig5_feedback": ablate_fig5_feedback(Fig5Config(
            duration_ns=durations["fig5_feedback"])),
        "message_atomicity": ablate_message_atomicity(Fig6Config(
            duration_ns=durations["message_atomicity"])),
    }


FULL = {"pathlet_granularity": milliseconds(5),
        "feedback_types": milliseconds(3),
        "fig5_feedback": milliseconds(4),
        "message_atomicity": milliseconds(6)}
QUICK = dict.fromkeys(FULL, milliseconds(3))


def report(results) -> str:
    return "\n\n".join([
        format_table(
            ["pathlet mode", "mean goodput (Gbps)", "CoV"],
            [[mode, f"{result.mean_goodput_bps / 1e9:.1f}",
              f"{result.stats['cov']:.2f}"]
             for mode, result in results["pathlet_granularity"].items()],
            title="Ablation: pathlet granularity (Figure-5 scenario)"),
        format_table(
            ["feedback", "goodput (Gbps)", "peak queue (pkts)"],
            [[kind, f"{info['goodput_bps'] / 1e9:.2f}",
              info["peak_queue_pkts"]]
             for kind, info in results["feedback_types"].items()],
            title="Ablation: feedback dialects (10 Gbps bottleneck, "
                  "4 senders)"),
        format_table(
            ["dialect", "mean goodput (Gbps)", "unconverged phases"],
            [[dialect, f"{result.mean_goodput_bps / 1e9:.1f}",
              result.unconverged_phases()]
             for dialect, result in results["fig5_feedback"].items()],
            title="Ablation: Figure-5 scenario under each pathlet "
                  "feedback dialect"),
        format_table(
            ["placement", "messages", "p50 FCT (us)", "p99 FCT (us)"],
            [[label, result.messages_completed,
              f"{result.p50_fct_ns() / 1e3:.0f}",
              f"{result.p99_fct_ns() / 1e3:.0f}"]
             for label, result in results["message_atomicity"].items()],
            title="Ablation: message atomicity (Figure-6 scenario)"),
    ])


def _feedback_claims(kind: str):
    info = lambda r: r["feedback_types"][kind]
    return (
        Claim(f"{kind} feedback goodput > 0.85x capacity",
              "every feedback dialect fills the bottleneck",
              lambda r, c: info(r)["goodput_bps"]
              > 0.85 * info(r)["capacity_bps"]),
        Claim(f"{kind} feedback peak queue < 256 pkts",
              "every feedback dialect keeps the queue bounded",
              lambda r, c: info(r)["peak_queue_pkts"] < 256))


def _dialect_claims(dialect: str):
    run = lambda r: r["fig5_feedback"][dialect]
    return (
        Claim(f"{dialect} dialect goodput > 35 Gbps",
              "MTP can implement DCTCP, Swift or RCP behaviour",
              lambda r, c: run(r).mean_goodput_bps > 35e9),
        Claim(f"{dialect} dialect converges in every phase",
              "MTP can implement DCTCP, Swift or RCP behaviour",
              lambda r, c: run(r).unconverged_phases() == 0))


def _completes(label: str):
    return Claim(f"{label} completes >= 95% of offered",
                 "atomicity is for offload correctness, not raw FCT",
                 lambda r, c: r["message_atomicity"][label]
                 .messages_completed
                 >= 0.95 * r["message_atomicity"][label].messages_offered)


_GRANULARITY = Claim(
    "per-link pathlets > single pathlet",
    "per-pathlet state is what wins Figure 5",
    lambda r, c: r["pathlet_granularity"]["per_link"].mean_goodput_bps
    > r["pathlet_granularity"]["single"].mean_goodput_bps)

CLAIMS = ((_GRANULARITY,)
          + sum(map(_feedback_claims, FEEDBACK_SOURCES), ())
          + sum(map(_dialect_claims, FIG5_DIALECTS), ())
          + tuple(map(_completes, ("atomic", "sprayed"))))
