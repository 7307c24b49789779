"""Process-parallel sweep fan-out with a deterministic merge.

Simulation sweeps (parameter grids, protocol comparisons, ablation
points) are embarrassingly parallel: every point builds its own
:class:`~repro.sim.engine.Simulator` and shares no state with its
neighbours.  :func:`sweep_map` fans such points out over a
``ProcessPoolExecutor`` and returns results **in input order**, so the
merged output is byte-identical to a serial run no matter how the OS
schedules the workers.

Determinism contract:

* ``worker`` must be a module-level callable (picklable) whose result
  depends only on its argument — every simulation point constructs its
  own ``Simulator`` and derives randomness from seeds in the argument.
* results come back in the order of ``items`` (``executor.map``
  semantics), never completion order;
* ``jobs <= 1`` short-circuits to a plain in-process loop, keeping
  single-process debugging (pdb, coverage, profilers) trivial.

A worker exception propagates to the caller as itself, serial or
parallel.

Worker processes are started with the ``fork`` method where the
platform offers it: the simulation kernel holds no threads or open
descriptors that fork poorly, and fork skips re-importing the package
per worker.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, TypeVar

__all__ = ["sweep_map"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def _context() -> multiprocessing.context.BaseContext:
    """The ``fork`` context when available, else the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def sweep_map(worker: Callable[[_ItemT], _ResultT],
              items: Sequence[_ItemT],
              jobs: int = 1) -> List[_ResultT]:
    """Map ``worker`` over ``items``, optionally across processes.

    Args:
        worker: module-level callable applied to each item.  Must be
            picklable when ``jobs > 1``.
        items: sweep points, already in the order results should come
            back in.
        jobs: worker process count.  ``<= 1`` runs serially in-process;
            larger values are clamped to ``len(items)`` so no idle
            workers are spawned.

    Returns:
        ``[worker(item) for item in items]`` — same values, same order,
        regardless of ``jobs``.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_context()) as pool:
        # executor.map preserves input order: the merge is
        # deterministic even though completion order is not.
        return list(pool.map(worker, items, chunksize=1))
