"""repro.perf: process-parallel sweep fan-out.

:func:`sweep_map` (in :mod:`repro.perf.parallel`) fans independent
simulation points out over worker processes and merges the results in
input order.  ``python -m repro.experiments --jobs N``, the ablation
drivers and the sweep benchmarks use it.  The end-to-end benchmark is
``python3 figbench/run.py``.
"""

from .parallel import sweep_map

__all__ = ["sweep_map"]
