"""The MTP packet header (Figure 4 of the paper).

Every packet carries the identity and geometry of its message (id, priority,
total length in bytes and packets, this packet's number/offset/length) plus
the pathlet congestion-control lists:

* ``path_exclude`` — (path_id, tc) pairs the source asks the network to avoid,
* ``path_feedback`` — (path_id, tc, feedback) appended by network devices,
* ``ack_path_feedback`` — the receiver's copy of the feedback it saw,
* ``sack`` / ``nack`` — (msg_id, pkt_num) selective (negative)
  acknowledgements.

A binary serialization is provided both to validate the format round-trips
and to account header overhead realistically (Section 4 discusses that MTP
headers can outgrow TCP's; :meth:`MtpHeader.wire_size` is that number).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .feedback import Feedback

__all__ = ["MtpHeader", "KIND_DATA", "KIND_ACK", "FIXED_HEADER_BYTES"]

KIND_DATA = 0
KIND_ACK = 1

# kind, src_port, dst_port, msg_id, priority, msg_len_bytes, msg_len_pkts,
# pkt_num, pkt_offset, pkt_len + four list counts.
_FIXED = struct.Struct("!BHHQiQIIQI4H")
#: Size of the fixed portion of the header on the wire.
FIXED_HEADER_BYTES = _FIXED.size

_EXCLUDE_ENTRY = struct.Struct("!IB")     # path_id, tc
_FEEDBACK_PREFIX = struct.Struct("!IB")   # path_id, tc (+ TLV follows)
_SACK_ENTRY = struct.Struct("!QI")        # msg_id, pkt_num


class MtpHeader:
    """MTP header carried by every data and acknowledgement packet."""

    __slots__ = ("kind", "src_port", "dst_port", "msg_id", "priority",
                 "msg_len_bytes", "msg_len_pkts", "pkt_num", "pkt_offset",
                 "pkt_len", "path_exclude", "path_feedback",
                 "ack_path_feedback", "sack", "nack", "ts", "ts_echo",
                 "payload")

    def __init__(self, kind: int, src_port: int, dst_port: int, msg_id: int,
                 priority: int = 0, msg_len_bytes: int = 0,
                 msg_len_pkts: int = 0, pkt_num: int = 0, pkt_offset: int = 0,
                 pkt_len: int = 0, ts: int = 0, ts_echo: int = -1):
        self.kind = kind
        self.src_port = src_port
        self.dst_port = dst_port
        self.msg_id = msg_id
        self.priority = priority
        self.msg_len_bytes = msg_len_bytes
        self.msg_len_pkts = msg_len_pkts
        self.pkt_num = pkt_num
        self.pkt_offset = pkt_offset
        self.pkt_len = pkt_len
        self.ts = ts
        self.ts_echo = ts_echo
        #: Opaque application payload reference (not part of the wire
        #: format; in-network offloads may inspect and rewrite it).
        self.payload = None
        self.path_exclude: List[Tuple[int, int]] = []
        self.path_feedback: List[Tuple[int, int, Feedback]] = []
        self.ack_path_feedback: List[Tuple[int, int, Feedback]] = []
        self.sack: List[Tuple[int, int]] = []
        self.nack: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def wire_size(self) -> int:
        """Header size in bytes if serialized (for overhead accounting)."""
        return (FIXED_HEADER_BYTES
                + len(self.path_exclude) * _EXCLUDE_ENTRY.size
                + len(self.path_feedback)
                * (_FEEDBACK_PREFIX.size + Feedback.WIRE_SIZE)
                + len(self.ack_path_feedback)
                * (_FEEDBACK_PREFIX.size + Feedback.WIRE_SIZE)
                + (len(self.sack) + len(self.nack)) * _SACK_ENTRY.size)

    def serialize(self) -> bytes:
        """Encode the header to bytes (timestamps are not on the wire)."""
        parts = [_FIXED.pack(self.kind, self.src_port, self.dst_port,
                             self.msg_id, self.priority, self.msg_len_bytes,
                             self.msg_len_pkts, self.pkt_num, self.pkt_offset,
                             self.pkt_len, len(self.path_exclude),
                             len(self.path_feedback)
                             + (len(self.ack_path_feedback) << 8),
                             len(self.sack), len(self.nack))]
        for path_id, tc in self.path_exclude:
            parts.append(_EXCLUDE_ENTRY.pack(path_id, tc))
        for path_id, tc, feedback in self.path_feedback:
            parts.append(_FEEDBACK_PREFIX.pack(path_id, tc))
            parts.append(feedback.encode())
        for path_id, tc, feedback in self.ack_path_feedback:
            parts.append(_FEEDBACK_PREFIX.pack(path_id, tc))
            parts.append(feedback.encode())
        for msg_id, pkt_num in self.sack:
            parts.append(_SACK_ENTRY.pack(msg_id, pkt_num))
        for msg_id, pkt_num in self.nack:
            parts.append(_SACK_ENTRY.pack(msg_id, pkt_num))
        return b"".join(parts)

    @classmethod
    def parse(cls, data: bytes) -> "MtpHeader":
        """Decode a header produced by :meth:`serialize`."""
        try:
            (kind, src_port, dst_port, msg_id, priority, msg_len_bytes,
             msg_len_pkts, pkt_num, pkt_offset, pkt_len, n_exclude,
             packed_feedback, n_sack, n_nack) = _FIXED.unpack_from(data, 0)
        except struct.error as exc:
            raise ValueError(f"truncated MTP header: {exc}") from exc
        n_feedback = packed_feedback & 0xFF
        n_ack_feedback = packed_feedback >> 8
        header = cls(kind, src_port, dst_port, msg_id, priority,
                     msg_len_bytes, msg_len_pkts, pkt_num, pkt_offset,
                     pkt_len)
        offset = FIXED_HEADER_BYTES
        try:
            for _ in range(n_exclude):
                header.path_exclude.append(
                    _EXCLUDE_ENTRY.unpack_from(data, offset))
                offset += _EXCLUDE_ENTRY.size
            for target, count in ((header.path_feedback, n_feedback),
                                  (header.ack_path_feedback, n_ack_feedback)):
                for _ in range(count):
                    path_id, tc = _FEEDBACK_PREFIX.unpack_from(data, offset)
                    offset += _FEEDBACK_PREFIX.size
                    feedback = Feedback.decode(data, offset)
                    offset += Feedback.WIRE_SIZE
                    target.append((path_id, tc, feedback))
            for target, count in ((header.sack, n_sack), (header.nack,
                                                          n_nack)):
                for _ in range(count):
                    target.append(_SACK_ENTRY.unpack_from(data, offset))
                    offset += _SACK_ENTRY.size
        except struct.error as exc:
            raise ValueError(f"truncated MTP header lists: {exc}") from exc
        return header

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def is_last_packet(self) -> bool:
        """True when this is the final packet of its message."""
        return self.pkt_num == self.msg_len_pkts - 1

    def path_ids(self) -> List[int]:
        """Pathlet ids reported in the (ack) path feedback, in path order."""
        source = self.ack_path_feedback if self.kind == KIND_ACK \
            else self.path_feedback
        return [path_id for path_id, _, _ in source]

    def __repr__(self) -> str:
        kind = "ACK" if self.kind == KIND_ACK else "DATA"
        return (f"<MtpHeader {kind} msg={self.msg_id} "
                f"pkt={self.pkt_num}/{self.msg_len_pkts} "
                f"fb={len(self.path_feedback)} sack={len(self.sack)}>")
