"""Unit helpers for virtual time and link rates.

The simulator uses **integer nanoseconds** for virtual time and **bits per
second** (plain ints) for link rates.  Integer time avoids floating-point
drift over long runs and makes event ordering deterministic.  All public
helpers return ints; sub-nanosecond remainders round up so that a packet is
never considered transmitted early.
"""

from __future__ import annotations

#: One nanosecond — the base tick of the simulator clock.
NANOSECOND = 1
#: Nanoseconds per microsecond.
MICROSECOND = 1_000
#: Nanoseconds per millisecond.
MILLISECOND = 1_000_000
#: Nanoseconds per second.
SECOND = 1_000_000_000

#: Bits per second in one gigabit per second.
GBPS = 1_000_000_000
#: Bits per second in one megabit per second.
MBPS = 1_000_000
#: Bits per second in one kilobit per second.
KBPS = 1_000

#: Bytes per kilobyte/megabyte/gigabyte (binary, as used in the paper's
#: message-size descriptions).
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def nanoseconds(value: float) -> int:
    """Convert a value in nanoseconds to integer ticks."""
    return round(value)


def microseconds(value: float) -> int:
    """Convert a value in microseconds to integer nanosecond ticks."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> int:
    """Convert a value in milliseconds to integer nanosecond ticks."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Convert a value in seconds to integer nanosecond ticks."""
    return round(value * SECOND)


def gbps(value: float) -> int:
    """Convert a rate in Gbit/s to bits per second."""
    return round(value * GBPS)


def mbps(value: float) -> int:
    """Convert a rate in Mbit/s to bits per second."""
    return round(value * MBPS)


def transmission_delay(nbytes: int, rate_bps: int) -> int:
    """Time in ns to serialize ``nbytes`` onto a link of ``rate_bps``.

    Rounds up: a packet occupies the link for at least the exact wire time.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if nbytes < 0:
        raise ValueError(f"byte count must be non-negative, got {nbytes}")
    bits = nbytes * 8
    return -(-bits * SECOND // rate_bps)  # ceil division


def bytes_in_interval(rate_bps: int, interval_ns: int) -> int:
    """Whole bytes a link of ``rate_bps`` carries in ``interval_ns``."""
    if rate_bps < 0 or interval_ns < 0:
        raise ValueError("rate and interval must be non-negative")
    return rate_bps * interval_ns // (8 * SECOND)


def throughput_bps(nbytes: int, interval_ns: int) -> float:
    """Average bit/s for ``nbytes`` delivered over ``interval_ns``."""
    if interval_ns <= 0:
        return 0.0
    return nbytes * 8 * SECOND / interval_ns


def format_time(time_ns: int) -> str:
    """Render a tick count as a human-readable time string."""
    if time_ns >= SECOND:
        return f"{time_ns / SECOND:.6f}s"
    if time_ns >= MILLISECOND:
        return f"{time_ns / MILLISECOND:.3f}ms"
    if time_ns >= MICROSECOND:
        return f"{time_ns / MICROSECOND:.3f}us"
    return f"{time_ns}ns"


def format_rate(rate_bps: float) -> str:
    """Render a bit/s rate as a human-readable string."""
    if rate_bps >= GBPS:
        return f"{rate_bps / GBPS:.2f}Gbps"
    if rate_bps >= MBPS:
        return f"{rate_bps / MBPS:.2f}Mbps"
    if rate_bps >= KBPS:
        return f"{rate_bps / KBPS:.2f}Kbps"
    return f"{rate_bps:.0f}bps"
