"""Deterministic random-number management.

Every stochastic component draws from a named stream derived from a single
experiment seed, so runs are reproducible and two components never perturb
each other's draws when one of them changes how many numbers it consumes.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict

__all__ = ["SeedSequence"]


class SeedSequence:
    """Derives independent ``random.Random`` streams from one root seed.

    >>> seeds = SeedSequence(42)
    >>> workload_rng = seeds.stream("workload")
    >>> ecmp_rng = seeds.stream("ecmp")

    Requesting the same name twice returns the same stream object, so
    components that share a name intentionally share a stream.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the named RNG stream, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        derived = self._derive(name)
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "SeedSequence":
        """Create a child sequence, e.g. one per tenant or per host."""
        return SeedSequence(self._derive(name))

    def _derive(self, name: str) -> int:
        # crc32 of the name mixed with the root seed: stable across runs and
        # Python versions (unlike hash(), which is salted).
        return ((self.root_seed * 0x9E3779B1 + zlib.crc32(name.encode()))
                % (2 ** 63))

    def __repr__(self) -> str:
        return (f"<SeedSequence root={self.root_seed} "
                f"streams={sorted(self._streams)}>")
