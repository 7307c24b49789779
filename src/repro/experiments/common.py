"""Shared wiring and reporting helpers for the experiment drivers."""

from __future__ import annotations

from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    Tuple)

from ..core.pathlets import PathletRegistry
from ..net.node import Switch

__all__ = ["Claim", "attach_exclusion_lookup", "format_table",
           "series_stats"]


class Claim(NamedTuple):
    """One of the paper's shape claims, checked against a run's results.

    ``name`` is the check with its threshold ("MTP goodput > 1.25x
    DCTCP"), ``paper`` what the paper (or, for fig8, this reproduction)
    states, and ``holds(results, config)`` the predicate.
    """

    name: str
    paper: str
    holds: Callable[[Any, Any], bool]


def attach_exclusion_lookup(switch: Switch,
                            registry: PathletRegistry) -> None:
    """Let a switch honour MTP path-exclude lists using the registry."""
    switch.pathlet_lookup = registry.pathlet_of


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Plain-text table renderer for experiment reports."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [max(len(headers[col]),
                  max((len(row[col]) for row in cells), default=0))
              for col in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width)
                           for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)))
    return "\n".join(lines)


def series_stats(series: Sequence[Tuple[int, float]],
                 warmup_ns: int = 0) -> Dict[str, float]:
    """Mean/min/max/CoV of a ``(time, value)`` series after a warmup."""
    values = [value for time, value in series if time >= warmup_ns]
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "cov": 0.0}
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    std = variance ** 0.5
    return {
        "count": len(values),
        "mean": mean,
        "min": min(values),
        "max": max(values),
        "cov": std / mean if mean else 0.0,
    }

