"""The benchmark's three whole-figure workloads.

Each workload is one paper figure: every system of the figure, run
through the public experiment driver (``run_fig5``, ``run_fig6``,
``run_fig7``).  This module knows, per workload,

* which systems the figure compares and the config each one runs with;
* how to turn one system's result object into plain JSON outputs (the
  figure's report row, full-precision detail and the payload bytes the
  simulation delivered);
* how to render the figure's report from every system's outputs, and
  which shape checks the report must pass.  The shape checks are the
  assertions of ``benchmarks/test_fig5_multipath.py``,
  ``test_fig6_load_balancer.py`` and ``test_fig7_isolation.py``.

Nothing here imports ``repro`` at module level: the parent process imports
this file before it knows whether the checkout holds the simulator.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

# Simulated durations.  fig5 and fig6 run for the simulated time of their
# benchmarks under ``benchmarks/`` (6 and 8 ms), where the shape checks
# were set.  At the CLI's 8 ms, fig5's MTP gains only 1.20x over DCTCP
# even before the recovery-hardening regression, so its 1.25x check would
# fail on both sides and could not tell them apart.  fig6 needs its full
# length: with fewer messages the seed-to-seed spread of its input grows.
# fig7 runs at the CLI's ``--quick`` 3 ms, which holds its shape and keeps
# the benchmark inside its time budget.
DURATION_MS = {"fig5_multipath": 6, "fig6_loadbalance": 8,
               "fig7_isolation": 3}

SYSTEMS = {"fig5_multipath": ("dctcp", "mtp"),
           "fig6_loadbalance": ("ecmp", "spray", "mtp_lb"),
           "fig7_isolation": ("shared", "separate", "fair_share")}

#: Only fig6 has random input; the other figures ignore the seed.
SEEDED = {"fig5_multipath": False, "fig6_loadbalance": True,
          "fig7_isolation": False}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_system(workload: str, system: str, seed: int, sim):
    """Run one system of ``workload`` on ``sim`` and return its outputs.

    The outputs are JSON-able: ``row`` is the figure's report row,
    ``detail`` the full-precision numbers behind it, ``delivered_bytes``
    the application payload delivered, and ``shape`` the values the shape
    checks read.
    """
    from repro.experiments import (Fig5Config, Fig6Config, Fig7Config,
                                   run_fig5, run_fig6, run_fig7)
    from repro.sim import milliseconds

    duration_ns = milliseconds(DURATION_MS[workload])
    if workload == "fig5_multipath":
        result = run_fig5(system, Fig5Config(duration_ns=duration_ns),
                          sim=sim)
        goodput = result.mean_goodput_bps
        unconverged = result.unconverged_phases()
        return {
            "row": [system, f"{goodput / 1e9:.2f}",
                    f"{result.stats['cov']:.2f}", unconverged],
            "detail": [repr(goodput), repr(result.stats['cov']),
                       _sha256(repr(result.series))],
            "delivered_bytes": goodput * duration_ns / 8e9,
            "shape": {"goodput_bps": goodput, "unconverged": unconverged},
        }
    if workload == "fig6_loadbalance":
        from repro.stats import FctCollector
        delivered = []
        record = FctCollector.record

        def record_size(collector, size_bytes, completion_ns, tag=""):
            delivered.append(size_bytes)
            record(collector, size_bytes, completion_ns, tag)

        FctCollector.record = record_size
        try:
            result = run_fig6(system, Fig6Config(duration_ns=duration_ns,
                                                 seed=seed), sim=sim)
        finally:
            FctCollector.record = record
        p50, p99 = result.p50_fct_ns(), result.p99_fct_ns()
        return {
            "row": [system, result.messages_completed, f"{p50 / 1e3:.0f}",
                    f"{p99 / 1e3:.0f}"],
            "detail": [result.messages_offered, repr(p50), repr(p99),
                       _sha256(repr(result.fct.completions()))],
            "delivered_bytes": sum(delivered),
            "shape": {"p99_ns": p99, "completed": result.messages_completed,
                      "offered": result.messages_offered},
        }
    if workload == "fig7_isolation":
        config = Fig7Config(duration_ns=duration_ns)
        result = run_fig7(system, config, sim=sim)
        goodput = result.tenant_goodput_bps
        return {
            "row": [system, f"{goodput['tenant1'] / 1e9:.1f}",
                    f"{goodput['tenant2'] / 1e9:.1f}",
                    f"{result.fairness:.3f}"],
            "detail": [repr(goodput['tenant1']), repr(goodput['tenant2'])],
            "delivered_bytes": sum(goodput.values()) * duration_ns / 8e9,
            "shape": {"ratio": result.throughput_ratio(),
                      "fairness": result.fairness,
                      "total_bps": sum(goodput.values()),
                      "bottleneck_bps": config.bottleneck_rate_bps},
        }
    raise ValueError(f"unknown workload {workload!r}")


_HEADERS = {
    "fig5_multipath": ["protocol", "mean goodput (Gbps)", "CoV",
                       "unconverged phases"],
    "fig6_loadbalance": ["system", "messages", "p50 FCT (us)",
                         "p99 FCT (us)"],
    "fig7_isolation": ["system", "tenant1 (Gbps)", "tenant2 (Gbps)",
                       "Jain"],
}


def render_report(workload: str, seed: int,
                  outputs: Dict[str, dict]) -> str:
    """The figure's report: the CLI-style table plus full-precision detail."""
    from repro.experiments.common import format_table

    systems = SYSTEMS[workload]
    seed_note = f", seed {seed}" if SEEDED[workload] else ""
    lines = [format_table(
        _HEADERS[workload], [outputs[system]["row"] for system in systems],
        title=f"{workload} ({DURATION_MS[workload]} ms{seed_note})")]
    for system in systems:
        detail = " ".join(str(value) for value in outputs[system]["detail"])
        lines.append(f"{system}: {detail}")
    return "\n".join(lines) + "\n"


def shape_failures(workload: str, outputs: Dict[str, dict]) -> List[str]:
    """The figure's shape checks that ``outputs`` break (empty: all hold)."""
    shape = {system: outputs[system]["shape"] for system in SYSTEMS[workload]}
    checks = []
    if workload == "fig5_multipath":
        dctcp, mtp = shape["dctcp"], shape["mtp"]
        checks = [
            ("MTP goodput > 1.25x DCTCP",
             mtp["goodput_bps"] > 1.25 * dctcp["goodput_bps"]),
            ("MTP goodput > 35 Gbps", mtp["goodput_bps"] > 35e9),
            ("DCTCP goodput > 5 Gbps", dctcp["goodput_bps"] > 5e9),
            ("MTP converges in every phase", mtp["unconverged"] == 0),
            ("DCTCP misses some phase", dctcp["unconverged"] > 0),
        ]
    elif workload == "fig6_loadbalance":
        mtp = shape["mtp_lb"]
        checks = [
            ("mtp_lb p99 < ecmp p99", mtp["p99_ns"] < shape["ecmp"]["p99_ns"]),
            ("mtp_lb p99 < spray p99",
             mtp["p99_ns"] < shape["spray"]["p99_ns"]),
        ] + [(f"{system} completes >= 95% of offered",
              values["completed"] >= 0.95 * values["offered"])
             for system, values in shape.items()]
    elif workload == "fig7_isolation":
        checks = [("shared t2/t1 > 4", shape["shared"]["ratio"] > 4.0)]
        for system in ("separate", "fair_share"):
            checks += [
                (f"{system} t2/t1 in (0.7, 1.4)",
                 0.7 < shape[system]["ratio"] < 1.4),
                (f"{system} Jain > 0.95", shape[system]["fairness"] > 0.95),
            ]
        checks += [(f"{system} uses > 70% of the bottleneck",
                    values["total_bps"] > 0.7 * values["bottleneck_bps"])
                   for system, values in shape.items()]
    return [name for name, holds in checks if not holds]
