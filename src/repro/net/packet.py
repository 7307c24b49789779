"""Packet model.

A :class:`Packet` is the unit moved by links and switches.  The network layer
only looks at ``src``, ``dst``, ``size``, ECN bits, the flow label, and the
entity (tenant) label; everything transport-specific lives in ``header``,
an opaque object owned by the transport (TCP segment header, MTP header, ...).
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

__all__ = ["Packet", "ECT_NOT_CAPABLE", "ECT_CAPABLE", "ECT_CE",
           "MTU", "DEFAULT_HEADER_BYTES"]

#: Conventional Ethernet-style MTU used throughout the experiments.
MTU = 1500
#: Nominal L3/L4 header overhead charged per packet.
DEFAULT_HEADER_BYTES = 40

# ECN codepoints (collapsed to three states).
ECT_NOT_CAPABLE = 0
ECT_CAPABLE = 1
ECT_CE = 3

_packet_ids = itertools.count(1)


class Packet:
    """A network packet.

    Attributes:
        src: address of the originating node.
        dst: address of the destination node.
        size: total wire size in bytes (headers + payload).
        protocol: registry key of the receiving transport ("tcp", "mtp", ...).
        header: transport-level header object (opaque to the network).
        ecn: ECN codepoint; queues set :data:`ECT_CE` on marking.
        flow_label: hashable tuple identifying the flow for ECMP hashing.
        entity: tenant/application label used by isolation policies.
        created_at: virtual time the packet was created (for latency stats).
        uid: process-wide packet id, for diagnostics.  Unlike the ids from
            :meth:`~repro.sim.engine.Simulator.new_id` it is not per run:
            only the ledger and the replay trace (which rebases it) read
            it, never results, and a packet has no simulator to ask.
        hops: node names traversed (recorded by switches; diagnostics).
        corrupted: True once a fault has damaged the payload; receivers
            model a checksum by dropping corrupted packets on arrival.
    """

    __slots__ = ("src", "dst", "size", "protocol", "header", "ecn",
                 "flow_label", "entity", "created_at", "uid", "hops",
                 "corrupted")

    def __init__(self, src: int, dst: int, size: int, protocol: str,
                 header: Any = None, ecn: int = ECT_NOT_CAPABLE,
                 flow_label: Optional[Tuple] = None, entity: str = "",
                 created_at: int = 0):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.size = size
        self.protocol = protocol
        self.header = header
        self.ecn = ecn
        self.flow_label = flow_label if flow_label is not None else (src, dst)
        self.entity = entity
        self.created_at = created_at
        self.uid = next(_packet_ids)
        self.hops: List[str] = []
        #: Set by corruption faults; checked (as a checksum stand-in) by
        #: receiving hosts, which drop damaged packets instead of
        #: delivering garbage to the transport.
        self.corrupted = False

    @property
    def marked(self) -> bool:
        """True when the packet carries an ECN congestion-experienced mark."""
        return self.ecn == ECT_CE

    def mark_ce(self) -> None:
        """Set the congestion-experienced codepoint (if ECN-capable)."""
        if self.ecn != ECT_NOT_CAPABLE:
            self.ecn = ECT_CE

    def __repr__(self) -> str:
        mark = " CE" if self.marked else ""
        return (f"<Packet #{self.uid} {self.protocol} {self.src}->{self.dst} "
                f"{self.size}B{mark}>")
