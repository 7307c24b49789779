"""Command-line runner: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments            # everything, ~20 s on 2 cores
    python -m repro.experiments table1 fig5
    python -m repro.experiments --quick    # shorter simulations
    python -m repro.experiments --jobs 4   # experiments in parallel

Each experiment prints its report and then every paper claim as
``[PASS]`` or ``[FAIL]`` (see :mod:`.registry`); the exit status is 1
when any claim fails.  Reports go to stdout; progress/timing chatter goes
to stderr, so stdout is byte-identical for any ``--jobs`` value (each
experiment seeds its own simulator — parallelism cannot perturb results,
only wall clock).
"""

from __future__ import annotations

import argparse
import sys
import time

from .parallel import sweep_map
from .registry import EXPERIMENTS, check, render, run


def _run_experiment(job):
    """Sweep worker: ``(name, quick)`` -> ``(name, block, failed, s)``.

    Module-level so :func:`~repro.experiments.parallel.sweep_map` can
    pickle it into worker processes when ``--jobs N`` fans experiments
    out.
    """
    name, quick = job
    started = time.time()
    config, results = run(name, quick)
    verdicts = check(name, config, results)
    failed = [claim.name for claim, holds in verdicts if not holds]
    return (name, render(name, results, verdicts), failed,
            time.time() - started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the MTP paper's tables and figures and "
                    "check the paper's claims against them.")
    parser.add_argument("experiments", nargs="*",
                        help=f"subset to run (default: all of "
                             f"{', '.join(EXPERIMENTS)})")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations (coarser numbers)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes "
                             "(stdout is identical for any N)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments
               if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; "
                     f"choose from {', '.join(EXPERIMENTS)}")
    selected = args.experiments or list(EXPERIMENTS)
    jobs = [(name, args.quick) for name in selected]
    any_failed = False
    for name, block, failed, elapsed in sweep_map(_run_experiment, jobs,
                                                  jobs=args.jobs):
        print(block)
        print(f"--- {name} finished in {elapsed:.1f}s, "
              f"{len(failed)} claim(s) failed", file=sys.stderr)
        any_failed = any_failed or bool(failed)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
