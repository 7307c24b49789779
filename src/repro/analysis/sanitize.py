"""Runtime sanitizers: kernel invariants, queue accounting, conservation.

Three opt-in layers, ordered by cost:

* :class:`SanitizingSimulator` — a drop-in :class:`~repro.sim.engine.Simulator`
  that type-checks every scheduled virtual time (integer nanoseconds only)
  and asserts the event clock never runs backwards.
* :func:`audit_queue` / :func:`audit_network_queues` — pure checks of a
  queue discipline's conservation counters against its actual contents
  (``enqueued − dequeued == resident``, byte totals match).
* :class:`PacketLedger` — end-of-run packet conservation.  Attach it to a
  simulator (``sim.ledger = PacketLedger()``) *before* building the
  topology (later assignment raises); hosts, switches, and ports then
  report every packet's life events, and :meth:`PacketLedger.finalize` checks

      injected == delivered + dropped + consumed + in-flight

  and names the component where any leaked packet was last seen — the
  packet-accounting analogue of a leak sanitizer.

Known limitation: an offload that *parks* a packet inside its own state and
re-forwards it in a later event shows up as in-flight at the switch; offloads
that consume-and-reinject (the repo's caches/aggregators) are fully tracked.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.link import Port
from ..net.packet import Packet
from ..net.queues import QueueDiscipline
from ..sim.engine import Simulator

__all__ = ["SanitizerError", "SanitizingSimulator", "PacketLedger",
           "ConservationReport", "audit_queue", "audit_network_queues"]


class SanitizerError(AssertionError):
    """A simulation invariant was violated (with the offender named)."""


def _callback_name(callback: Callable) -> str:
    return getattr(callback, "__qualname__",
                   getattr(callback, "__name__", type(callback).__name__))


class SanitizingSimulator(Simulator):
    """Simulator that enforces kernel invariants as events flow.

    Checks (beyond the base class's scheduling-in-the-past and re-entrant
    ``run`` errors):

    * every ``delay`` / ``time`` passed to :meth:`schedule`, :meth:`at` or
      :meth:`schedule_fast` is a plain integer — floats (SIM003 at
      runtime) and bools are rejected with the target callback named;
    * the event clock is monotonically non-decreasing across fired events
      (a violation means someone mutated handle/heap state behind the
      kernel's back).
    """

    __slots__ = ("_last_event_time", "checks_performed")

    def __init__(self, ledger: "Optional[PacketLedger]" = None):
        super().__init__()
        self._last_event_time = 0
        self.checks_performed = 0
        self.add_event_hook(self._check_event)
        if ledger is not None:
            self.ledger = ledger

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any):
        self._check_time_value("schedule", "delay", delay, callback)
        return super().schedule(delay, callback, *args)

    def at(self, time: int, callback: Callable[..., None], *args: Any):
        self._check_time_value("at", "time", time, callback)
        return super().at(time, callback, *args)

    def schedule_fast(self, delay: int, callback: Callable[..., None],
                      *args: Any) -> None:
        self._check_time_value("schedule_fast", "delay", delay, callback)
        super().schedule_fast(delay, callback, *args)

    @staticmethod
    def _check_time_value(method: str, argname: str, value: Any,
                          callback: Callable) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SanitizerError(
                f"Simulator.{method}() {argname}={value!r} "
                f"({type(value).__name__}) for {_callback_name(callback)}: "
                f"virtual time must be integer nanoseconds (SIM003)")

    def _check_event(self, time: int, callback: Callable,
                     args: Tuple) -> None:
        if time < self._last_event_time:
            raise SanitizerError(
                f"causality violation: event {_callback_name(callback)} "
                f"fires at t={time} after the clock reached "
                f"t={self._last_event_time}")
        self._last_event_time = time
        self.checks_performed += 1


def audit_queue(queue: QueueDiscipline, name: str = "queue") -> List[str]:
    """Check a queue's conservation counters; returns problem descriptions.

    Invariants (from the :class:`~repro.net.queues.QueueDiscipline`
    contract):

    * ``packets_enqueued − packets_dequeued == len(queue)``
    * resident packets (when enumerable) match ``len(queue)`` and their
      sizes sum to ``bytes_queued``
    * no counter is negative
    """
    problems: List[str] = []
    resident_delta = queue.packets_enqueued - queue.packets_dequeued
    if resident_delta != len(queue):
        problems.append(
            f"{name}: enqueued({queue.packets_enqueued}) - "
            f"dequeued({queue.packets_dequeued}) = {resident_delta} "
            f"but len(queue) = {len(queue)}")
    for counter in ("packets_enqueued", "packets_dequeued",
                    "packets_dropped", "bytes_queued", "bytes_dropped",
                    "bytes_offered"):
        value = getattr(queue, counter)
        if value < 0:
            problems.append(f"{name}: negative counter {counter}={value}")
    try:
        residents = list(queue.resident())
    except NotImplementedError:
        residents = None
    if residents is not None:
        if len(residents) != len(queue):
            problems.append(
                f"{name}: resident() yields {len(residents)} packets "
                f"but len(queue) = {len(queue)}")
        resident_bytes = sum(packet.size for packet in residents)
        if resident_bytes != queue.bytes_queued:
            problems.append(
                f"{name}: resident bytes {resident_bytes} != "
                f"bytes_queued {queue.bytes_queued}")
    return problems


def audit_network_queues(network) -> List[str]:
    """Run :func:`audit_queue` over every port queue of a network."""
    problems: List[str] = []
    for link in network.links:
        for port in (link.port_a, link.port_b):
            problems.extend(audit_queue(port.queue, name=port.name))
    return problems


class ConservationReport:
    """Outcome of a :meth:`PacketLedger.finalize` audit."""

    def __init__(self, injected: int, delivered: int, dropped: int,
                 consumed: int, trimmed: int, in_flight: int,
                 leaked: List[Tuple[int, str]],
                 accounting: List[str],
                 drop_reasons: Dict[str, int]):
        self.injected = injected
        self.delivered = delivered
        self.dropped = dropped
        self.consumed = consumed
        #: Trimmed packets continue as header-only packets and are counted
        #: again under delivered/dropped; informational, not a leg of the
        #: conservation equation.
        self.trimmed = trimmed
        self.in_flight = in_flight
        self.leaked = leaked
        self.accounting = accounting
        self.drop_reasons = drop_reasons

    @property
    def conserved(self) -> bool:
        """injected == delivered + dropped + consumed + in-flight."""
        return self.injected == (self.delivered + self.dropped
                                 + self.consumed + self.in_flight)

    @property
    def ok(self) -> bool:
        return self.conserved and not self.leaked and not self.accounting

    def summary(self) -> str:
        lines = [
            f"packet conservation: injected={self.injected} "
            f"delivered={self.delivered} dropped={self.dropped} "
            f"consumed={self.consumed} in_flight={self.in_flight} "
            f"trimmed={self.trimmed} -> "
            f"{'OK' if self.conserved else 'VIOLATED'}"]
        for uid, location in self.leaked:
            lines.append(f"  LEAK: packet #{uid} vanished; "
                         f"last seen {location}")
        for problem in self.accounting:
            lines.append(f"  ACCOUNTING: {problem}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<ConservationReport ok={self.ok} leaked={len(self.leaked)} "
                f"in_flight={self.in_flight}>")


class PacketLedger:
    """Tracks every packet from injection to a terminal event.

    Hosts, switches, and ports read ``sim.ledger`` once, at construction,
    and report each packet's life events to it, so attaching is just
    ``sim.ledger = PacketLedger()`` (or ``SanitizingSimulator(ledger=...)``)
    *before* the topology is built; ports self-register as they are made.
    Assigning ``sim.ledger`` after the first node exists raises
    :class:`~repro.sim.engine.SimulationError`.
    """

    def __init__(self) -> None:
        self.injected = 0
        self.delivered = 0
        self.dropped = 0
        self.consumed = 0
        self.untracked = 0
        self.drop_reasons: Dict[str, int] = {}
        #: uid -> last-seen location ("queued@port", "wire:port", ...).
        self._live: Dict[int, str] = {}
        self._ports: List[Port] = []

    # -- wiring ----------------------------------------------------------

    def register_port(self, port: Port) -> None:
        """Called by :class:`~repro.net.link.Port` at construction."""
        self._ports.append(port)

    # -- life events (called from repro.net) -----------------------------

    def packet_injected(self, packet: Packet, component: str) -> None:
        """A host or offload put a brand-new packet into the network."""
        self.injected += 1
        self._live[packet.uid] = f"injected@{component}"

    def packet_enqueued(self, packet: Packet, component: str) -> None:
        if packet.uid in self._live:
            self._live[packet.uid] = f"queued@{component}"

    def packet_wire(self, packet: Packet, component: str) -> None:
        if packet.uid in self._live:
            self._live[packet.uid] = f"wire:{component}"

    def packet_arrived(self, packet: Packet, node: str) -> None:
        if packet.uid in self._live:
            self._live[packet.uid] = f"node:{node}"

    def packet_delivered(self, packet: Packet, node: str) -> None:
        if self._live.pop(packet.uid, None) is None:
            self.untracked += 1
            return
        self.delivered += 1

    def packet_dropped(self, packet: Packet, component: str,
                       reason: str) -> None:
        if self._live.pop(packet.uid, None) is None:
            self.untracked += 1
            return
        self.dropped += 1
        key = f"{component}:{reason}"
        self.drop_reasons[key] = self.drop_reasons.get(key, 0) + 1

    def packet_consumed(self, packet: Packet, component: str) -> None:
        if self._live.pop(packet.uid, None) is None:
            self.untracked += 1
            return
        self.consumed += 1

    def packet_forwarded(self, packet: Packet, component: str) -> None:
        """A switch is forwarding ``packet``; injects it when never seen
        before (offloads emit in-network ACKs/aggregates via forward())."""
        if packet.uid not in self._live:
            self.packet_injected(packet, f"offload@{component}")

    def packet_transformed(self, original: Packet,
                           replacements: List[Packet],
                           component: str) -> None:
        """An offload replaced ``original`` with ``replacements`` (or none)."""
        replacement_uids = {packet.uid for packet in replacements}
        if original.uid not in replacement_uids:
            self.packet_consumed(original, component)
        for packet in replacements:
            if packet.uid != original.uid and packet.uid not in self._live:
                self.packet_injected(packet, f"offload@{component}")

    # -- audit -----------------------------------------------------------

    def in_flight(self) -> int:
        """Packets injected but not yet terminal."""
        return len(self._live)

    def finalize(self, sim: Optional[Simulator] = None) -> ConservationReport:
        """End-of-run audit: conservation, queue accounting, leak hunt.

        With a drained simulator (``pending_events() == 0``) every live
        packet must be resident in some queue; anything else leaked and is
        reported with the component where it was last seen.  While events
        are still pending (bounded runs), packets on the wire are accepted
        as in-flight.
        """
        drained = sim is not None and sim.pending_events() == 0
        resident_uids = set()
        unaudited: set = set()
        accounting: List[str] = []
        trimmed = 0
        for port in self._ports:
            queue = port.queue
            trimmed += getattr(queue, "packets_trimmed", 0)
            accounting.extend(audit_queue(queue, name=port.name))
            try:
                for packet in queue.resident():
                    resident_uids.add(packet.uid)
            except NotImplementedError:
                unaudited.add(f"queued@{port.name}")
        leaked: List[Tuple[int, str]] = []
        for uid in sorted(self._live):
            location = self._live[uid]
            if uid in resident_uids:
                continue
            if location in unaudited:
                continue  # cannot enumerate that queue; benefit of doubt
            if not drained and (location.startswith("wire:")
                                or location.startswith("node:")):
                continue  # still travelling in a bounded run
            leaked.append((uid, location))
        return ConservationReport(
            injected=self.injected, delivered=self.delivered,
            dropped=self.dropped, consumed=self.consumed, trimmed=trimmed,
            in_flight=len(self._live), leaked=leaked, accounting=accounting,
            drop_reasons=dict(self.drop_reasons))

    def __repr__(self) -> str:
        return (f"<PacketLedger injected={self.injected} "
                f"delivered={self.delivered} dropped={self.dropped} "
                f"consumed={self.consumed} live={len(self._live)}>")
