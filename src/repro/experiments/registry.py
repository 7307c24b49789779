"""The experiment registry: one entry per table/figure of the paper.

Each figure module owns its pieces next to its driver: the ``FULL`` and
``QUICK`` configs, ``report(results) -> str`` and ``CLAIMS``, the paper's
shape claims held to fixed thresholds.  This module maps the names the
CLI accepts to those pieces, so the CLI (``python -m repro.experiments``),
the benchmarks (``benchmarks/test_experiments.py``) and the tier-1 claim
tests all run, report and check an experiment the same way.

``FULL`` is the scale at which the claim thresholds were set; ``QUICK``
is a shorter run of the same scenario (coarser numbers).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from . import (ablations, fig2_proxy, fig3_one_rpf, fig5_multipath,
               fig6_loadbalance, fig7_isolation, fig8_failover, table1)
from .common import Claim

__all__ = ["Experiment", "EXPERIMENTS", "run", "check", "render"]


class Experiment(NamedTuple):
    """How to run, report and check one paper artifact."""

    run: Callable[[Any], Any]
    full: Any
    quick: Any
    report: Callable[[Any], str]
    claims: Tuple[Claim, ...]


def _entry(module, run: Callable[[Any], Any]) -> Experiment:
    return Experiment(run, module.FULL, module.QUICK, module.report,
                      module.CLAIMS)


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": _entry(table1, table1.run_table1),
    "fig2": _entry(fig2_proxy, fig2_proxy.compare_fig2),
    "fig3": _entry(fig3_one_rpf, fig3_one_rpf.compare_fig3),
    "fig5": _entry(fig5_multipath, fig5_multipath.compare_fig5),
    "fig6": _entry(fig6_loadbalance, fig6_loadbalance.compare_fig6),
    "fig7": _entry(fig7_isolation, fig7_isolation.compare_fig7),
    "fig8": _entry(fig8_failover, fig8_failover.compare_fig8),
    "ablations": _entry(ablations, ablations.run_ablations),
}


def run(name: str, quick: bool = False) -> Tuple[Any, Any]:
    """Run experiment ``name`` at its quick or full scale.

    Returns ``(config, results)``; every claim reads both.
    """
    experiment = EXPERIMENTS[name]
    config = experiment.quick if quick else experiment.full
    return config, experiment.run(config)


def check(name: str, config: Any,
          results: Any) -> List[Tuple[Claim, bool]]:
    """Every claim of experiment ``name`` with whether it holds."""
    return [(claim, bool(claim.holds(results, config)))
            for claim in EXPERIMENTS[name].claims]


def render(name: str, results: Any,
           verdicts: List[Tuple[Claim, bool]]) -> str:
    """The experiment's stdout block: banner, report, then each claim."""
    lines = [f"=== {name} " + "=" * (60 - len(name)),
             EXPERIMENTS[name].report(results), "", "Paper claims:"]
    lines += [f"  [{'PASS' if holds else 'FAIL'}] {claim.name}: "
              f"{claim.paper}" for claim, holds in verdicts]
    return "\n".join(lines) + "\n"
