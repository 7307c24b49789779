"""Sweep: Figure-6 load-balancer tails across offered loads.

The message-aware balancer wins clearly at light and moderate load, and
packet spraying's reordering penalty is there at every load.  At very
heavy load (0.75) MTP converges toward parity with ECMP: all of MTP's
messages share one host-wide per-pathlet window, whereas
connection-per-message DCTCP gets one window *per concurrent flow* — per-
entity congestion control deliberately trades that per-flow aggression
away (it is exactly what Figure 7 exploits for isolation).
"""

import os

from repro.experiments import Fig6Config, compare_fig6, sweep_map
from repro.experiments.common import format_table
from repro.sim import milliseconds

LOADS = (0.3, 0.55, 0.75)

#: Worker processes for the sweep (see test_sweep_flip_period).
SWEEP_JOBS = int(os.environ.get("REPRO_SWEEP_JOBS", "4"))


def _load_point(load):
    """Sweep worker (module-level so it pickles into worker processes)."""
    config = Fig6Config(offered_load=load,
                        duration_ns=milliseconds(6),
                        seed=3)
    return compare_fig6(config)


def test_mtp_lb_tail_advantage_across_loads(benchmark, report):
    def sweep():
        return dict(zip(LOADS, sweep_map(_load_point, LOADS,
                                         jobs=SWEEP_JOBS)))

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for load, by_system in results.items():
        rows.append([
            f"{load:.2f}",
            *(f"{by_system[system].p99_fct_ns() / 1e3:.0f}"
              for system in ("ecmp", "spray", "mtp_lb")),
        ])
    report("sweep_fig6_load", format_table(
        ["offered load", "ECMP p99 (us)", "spray p99 (us)",
         "MTP LB p99 (us)"], rows,
        title="Sweep: Figure-6 tail FCT vs offered load"))

    for load, by_system in results.items():
        mtp = by_system["mtp_lb"].p99_fct_ns()
        benchmark.extra_info[f"mtp_p99_us_load{load}"] = mtp / 1e3
        # MTP's balancer never loses meaningfully at any load...
        assert mtp <= 1.1 * by_system["ecmp"].p99_fct_ns()
        assert mtp <= 1.1 * by_system["spray"].p99_fct_ns()
    # ...and wins clearly at light and moderate loads.
    for load in LOADS[:2]:
        by_system = results[load]
        assert by_system["mtp_lb"].p99_fct_ns() \
            < by_system["ecmp"].p99_fct_ns()
        assert by_system["mtp_lb"].p99_fct_ns() \
            < by_system["spray"].p99_fct_ns()