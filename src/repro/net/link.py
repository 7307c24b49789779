"""Links and ports.

A :class:`Port` is a node's attachment to one end of a link: it owns the
egress queue and the transmitter for the outgoing direction.  A
:class:`Link` bundles the two ports of a full-duplex connection.  Transmission
models store-and-forward: a packet occupies the transmitter for its
serialization time, then arrives at the peer after the propagation delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..sim.engine import Simulator
from ..sim.units import SECOND
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["Port", "Link", "DEFAULT_QUEUE_CAPACITY",
           "DEFAULT_HOST_QUEUE_CAPACITY"]

#: Nanoseconds one byte occupies a 1 bit/s transmitter.
_BYTE_NS = 8 * SECOND

#: Queue capacity used when a topology does not specify one (packets).
DEFAULT_QUEUE_CAPACITY = 256

#: Default capacity of a host's NIC queue.  Hosts don't drop their own
#: packets — the OS applies backpressure — so this is effectively lossless;
#: window-based transports keep it short in practice.
DEFAULT_HOST_QUEUE_CAPACITY = 1_000_000


class Port:
    """One directed half of a link: egress queue plus transmitter."""

    def __init__(self, sim: Simulator, node: "Node", rate_bps: int,
                 delay_ns: int, queue: Optional[QueueDiscipline] = None,
                 name: str = ""):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay_ns}")
        self.sim = sim
        self.node = node
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.queue = queue if queue is not None else DropTailQueue(
            DEFAULT_QUEUE_CAPACITY)
        self.name = name or f"{node.name}.port{len(node.ports)}"
        #: Read once: the simulator refuses a ledger attached later.
        self._ledger = sim.freeze_ledger()
        if self._ledger is not None:
            self._ledger.register_port(self)
        self.peer: Optional["Node"] = None
        self.peer_port: Optional["Port"] = None
        self._busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.busy_until = 0
        #: Link state: False while the attached link is administratively
        #: or physically down.  Egress is refused and in-flight packets
        #: (serializing or propagating) are lost when the link drops.
        self.up = True
        #: Monotonic failure epoch.  Every ``set_down()`` bumps it; the
        #: epoch travels with each scheduled wire event so completions
        #: scheduled before an outage are recognised as lost.
        self.down_epoch = 0
        #: Packets refused or lost because the link was down.
        self.link_down_drops = 0
        #: Optional hook called with each packet as it completes serialization
        #: (used by monitors and in-network telemetry).
        self.on_transmit: Optional[Callable[[Packet], None]] = None
        # The two wire events, bound once instead of once per packet.
        self._finish_event = self._finish_transmission
        self._deliver_event = self._deliver

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission; False when it was dropped."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        if not self.up:
            # A downed link refuses egress outright: the packet is lost at
            # the NIC, mirroring a cable pull / interface-down.
            self.link_down_drops += 1
            if self._ledger is not None:
                self._ledger.packet_dropped(packet, self.name, "link_down")
            return False
        accepted = self.queue.enqueue(packet, self.sim._now)
        ledger = self._ledger
        if ledger is not None:
            if accepted:
                ledger.packet_enqueued(packet, self.name)
            else:
                ledger.packet_dropped(packet, self.name, "queue_full")
        if accepted and not self._busy:
            self._transmit_next()
        return accepted

    def set_down(self) -> None:
        """Take the port down: in-flight packets are lost, egress refused.

        Packets already queued stay resident (they will transmit when the
        link comes back); the packet currently serializing and any packet
        propagating on the wire are dropped when their completion events
        fire and notice the stale epoch.
        """
        if not self.up:
            return
        self.up = False
        self.down_epoch += 1

    def set_up(self) -> None:
        """Bring the port back up and resume draining the egress queue."""
        if self.up:
            return
        self.up = True
        self._busy = False
        self._transmit_next()

    @property
    def queue_length(self) -> int:
        """Packets waiting in the egress queue (not the one on the wire)."""
        return len(self.queue)

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def _transmit_next(self) -> None:
        if not self.up:
            self._busy = False
            return
        sim = self.sim
        now = sim._now
        packet = self.queue.dequeue(now)
        if packet is None:
            self._busy = False
            return
        if self._ledger is not None:
            self._ledger.packet_wire(packet, self.name)
        self._busy = True
        # transmission_delay(packet.size, self.rate_bps), inlined: the
        # rate was checked positive at construction.
        tx_delay = -(-packet.size * _BYTE_NS // self.rate_bps)
        self.busy_until = now + tx_delay
        # Serialization completions are never cancelled: use the
        # handle-free fast path (one tuple instead of tuple + handle).
        # The epoch rides along so a completion scheduled before an
        # outage is recognised as belonging to a dead wire.
        sim.schedule_fast(tx_delay, self._finish_event, packet,
                          self.down_epoch)

    def _finish_transmission(self, packet: Packet, epoch: int = -1) -> None:
        if epoch != self.down_epoch or not self.up:
            # The link dropped while this packet was serializing: the
            # partial frame is lost on the floor.
            self.link_down_drops += 1
            if self._ledger is not None:
                self._ledger.packet_dropped(packet, self.name, "link_down")
            return
        self.bytes_transmitted += packet.size
        self.packets_transmitted += 1
        if self.on_transmit is not None:
            self.on_transmit(packet)
        # Propagation: packet arrives at the peer after the link delay.
        # Packets on the wire cannot be recalled — fast path again.
        self.sim.schedule_fast(self.delay_ns, self._deliver_event, packet,
                               self.down_epoch)
        self._transmit_next()

    def _deliver(self, packet: Packet, epoch: int = -1) -> None:
        assert self.peer is not None and self.peer_port is not None
        if epoch != self.down_epoch or not self.up:
            # The link went down mid-propagation: the bits never arrive.
            self.link_down_drops += 1
            if self._ledger is not None:
                self._ledger.packet_dropped(packet, self.name, "link_down")
            return
        self.peer.receive(packet, self.peer_port)

    def __repr__(self) -> str:
        peer = self.peer.name if self.peer else "unconnected"
        return f"<Port {self.name} -> {peer} q={self.queue_length}>"


class Link:
    """A full-duplex link: two :class:`Port` objects wired back-to-back.

    With no explicit ``queue_factory``, host-side ports get a large
    (effectively lossless) NIC queue while switch-side ports get the
    bounded default — a host's OS backpressures rather than dropping its
    own packets.  An explicit factory applies to both sides.
    """

    def __init__(self, sim: Simulator, a: "Node", b: "Node", rate_bps: int,
                 delay_ns: int,
                 queue_factory: Optional[Callable[[], QueueDiscipline]] = None,
                 rate_bps_ba: Optional[int] = None):
        def default_queue(node: "Node") -> QueueDiscipline:
            from .node import Host  # local import avoids a cycle
            if isinstance(node, Host):
                return DropTailQueue(DEFAULT_HOST_QUEUE_CAPACITY)
            return DropTailQueue(DEFAULT_QUEUE_CAPACITY)

        factory_a = queue_factory or (lambda: default_queue(a))
        factory_b = queue_factory or (lambda: default_queue(b))
        self.port_a = Port(sim, a, rate_bps, delay_ns, factory_a(),
                           name=f"{a.name}->{b.name}")
        self.port_b = Port(sim, b, rate_bps_ba or rate_bps, delay_ns,
                           factory_b(), name=f"{b.name}->{a.name}")
        self.port_a.peer = b
        self.port_a.peer_port = self.port_b
        self.port_b.peer = a
        self.port_b.peer_port = self.port_a
        a.attach_port(self.port_a)
        b.attach_port(self.port_b)

    @property
    def up(self) -> bool:
        """True while both directions of the link are up."""
        return self.port_a.up and self.port_b.up

    def set_down(self) -> None:
        """Fail the link in both directions (cable pull)."""
        self.port_a.set_down()
        self.port_b.set_down()

    def set_up(self) -> None:
        """Restore the link in both directions."""
        self.port_a.set_up()
        self.port_b.set_up()

    def __repr__(self) -> str:
        return f"<Link {self.port_a.name} / {self.port_b.name}>"
