"""Message-mutating offloads: compression and friends (Section 2.2).

"Useful offloads that mutate packets and change message lengths include
compression, message serialization, and request preprocessing."  TCP cannot
support these without termination because byte sequence numbers break; MTP
can, because messages are atomic and self-describing.

:class:`MutatingOffload` buffers a message (bounded by the length announced
in its first packet), acknowledges the original packets upstream, and emits
a rewritten message downstream.  Messages larger than the device's buffer
budget pass through untouched — the bounded-buffering property offloads
need (Section 2.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.header import KIND_DATA, MtpHeader
from ..net.link import Port
from ..net.node import Switch
from ..net.packet import Packet
from ..sim.engine import Simulator
from .injection import inject_message, spoof_ack

__all__ = ["MutatingOffload", "CompressedPayload", "compressor",
           "decompressor"]

#: transform(payload, size) -> (new_payload, new_size)
Transform = Callable[[object, int], Tuple[object, int]]


class CompressedPayload:
    """Wrapper marking a payload as compressed in-network."""

    __slots__ = ("original", "original_size")

    def __init__(self, original, original_size: int):
        self.original = original
        self.original_size = original_size

    def __repr__(self) -> str:
        return f"<CompressedPayload original={self.original_size}B>"


def compressor(ratio: float = 0.5) -> Transform:
    """A transform shrinking messages to ``ratio`` of their size."""
    if not 0 < ratio <= 1:
        raise ValueError("compression ratio must be in (0, 1]")

    def transform(payload, size):
        return CompressedPayload(payload, size), max(1, int(size * ratio))

    return transform


def decompressor() -> Transform:
    """Inverse of :func:`compressor`: restores payload and size."""

    def transform(payload, size):
        if isinstance(payload, CompressedPayload):
            return payload.original, payload.original_size
        return payload, size

    return transform


class MutatingOffload:
    """Switch processor that rewrites whole messages in flight.

    Args:
        sim: simulator.
        transform: ``(payload, size) -> (payload, size)`` rewrite.
        match_port: only messages to this destination port are mutated
            (None = all MTP data traffic).
        buffer_budget: max bytes the device will hold *in total* across all
            partially buffered messages; a message that does not fit when
            its first packet arrives passes through unmodified.
    """

    def __init__(self, sim: Simulator, transform: Transform,
                 match_port: Optional[int] = None,
                 buffer_budget: int = 256 * 1024):
        self.sim = sim
        self.transform = transform
        self.match_port = match_port
        self.buffer_budget = buffer_budget
        #: (src, msg_id) -> {pkt_num: (packet, header)}
        self._buffers: Dict[Tuple[int, int], Dict[int, tuple]] = {}
        #: Messages admitted for buffering: (src, msg_id) -> reserved bytes.
        self._reserved: Dict[Tuple[int, int], int] = {}
        #: Messages that exceeded the budget and are passing through.
        self._pass_through: Dict[Tuple[int, int], bool] = {}
        self.messages_mutated = 0
        self.messages_passed_through = 0
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently held across partial messages."""
        return sum(packet.size for buffered in self._buffers.values()
                   for packet, _ in buffered.values())

    @property
    def reserved_bytes(self) -> int:
        """Bytes of buffer budget reserved by admitted messages."""
        return sum(self._reserved.values())

    def process(self, packet: Packet, switch: Switch,
                ingress: Port) -> Optional[List[Packet]]:
        """Absorb matching data packets; emit the mutated message whole."""
        if packet.protocol != "mtp":
            return None
        header = packet.header
        if not isinstance(header, MtpHeader) or header.kind != KIND_DATA:
            return None
        if self.match_port is not None and header.dst_port != self.match_port:
            return None
        key = (packet.src, header.msg_id)
        if key in self._pass_through:
            if header.is_last_packet:
                del self._pass_through[key]
            return None
        if key not in self._buffers:
            # Admission: reserve the whole message's bytes up front (its
            # length is in every packet header — the property that makes
            # bounded-state offloads possible).
            if (header.msg_len_bytes + self.reserved_bytes
                    > self.buffer_budget):
                self.messages_passed_through += 1
                if not header.is_last_packet:
                    self._pass_through[key] = True
                return None
            self._reserved[key] = header.msg_len_bytes
        buffered = self._buffers.setdefault(key, {})
        buffered[header.pkt_num] = (packet, header)
        spoof_ack(switch, packet, header)
        if len(buffered) < header.msg_len_pkts:
            return []  # consumed; waiting for the rest of the message
        del self._buffers[key]
        del self._reserved[key]
        self._emit(switch, buffered, header)
        return []

    def _emit(self, switch: Switch, buffered: Dict[int, tuple],
              last_header: MtpHeader) -> None:
        original_size = last_header.msg_len_bytes
        payload = last_header.payload
        new_payload, new_size = self.transform(payload, original_size)
        self.messages_mutated += 1
        self.bytes_in += original_size
        self.bytes_out += new_size
        sample_packet, _ = buffered[0]
        inject_message(switch, src_address=sample_packet.src,
                       dst_address=sample_packet.dst,
                       src_port=last_header.src_port,
                       dst_port=last_header.dst_port,
                       size=new_size, payload=new_payload,
                       tc=sample_packet.entity,
                       priority=last_header.priority)
