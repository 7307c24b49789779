"""Named counters for simulation components (per-node `counters`)."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Sequence

__all__ = ["Counter"]


class Counter:
    """A named bundle of monotonically increasing counters.

    Counters live in a dict by default.  An owner on the per-packet path
    keeps its busiest counters as plain int attributes instead, which it
    increments directly, and names them in ``fields``; :meth:`add`,
    :meth:`get` and :meth:`as_dict` then go to those attributes, so
    readers see one bundle either way (``Node`` does this for its six
    per-packet counters).
    """

    def __init__(self, owner: Any = None, fields: Sequence[str] = ()) -> None:
        self._values: Dict[str, int] = defaultdict(int)
        self._owner = owner
        self._fields = frozenset(fields)

    def add(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        if name in self._fields:
            setattr(self._owner, name, getattr(self._owner, name) + amount)
        else:
            self._values[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        if name in self._fields:
            return getattr(self._owner, name)
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters that have been incremented."""
        values = dict(self._values)
        for name in sorted(self._fields):
            value = getattr(self._owner, name)
            if value:
                values[name] = value
        return values

    def __repr__(self) -> str:
        return f"Counter({self.as_dict()!r})"
