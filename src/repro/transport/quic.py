"""QUIC-like transport: independent streams over one congestion context.

The Table-1 QUIC row: streams remove TCP's inter-message head-of-line
blocking (a lost packet only stalls its own stream), but congestion
control, loss recovery, and path state remain per *connection* — one
window for every stream, no pathlet awareness, no per-entity isolation.

The implementation captures QUIC's transport shape without its crypto:

* 1-RTT handshake (Initial / Initial-Ack),
* monotonically increasing packet numbers (never retransmitted — lost
  *data* is re-sent in a new packet, which makes loss detection trivial),
* ACK frames carrying packet-number ranges,
* packet-threshold and time-threshold loss detection (RFC 9002 style),
* stream frames ``(stream_id, offset, length, fin)`` with per-stream
  in-order delivery.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..net.node import Host
from ..net.packet import DEFAULT_HEADER_BYTES, ECT_CAPABLE, Packet
from ..sim.engine import Timer
from ..sim.units import microseconds
from .base import ConnectionCallbacks, TransportStack

__all__ = ["QuicStack", "QuicConnection", "QuicStream"]


#: Packet-number reordering threshold for loss declaration (RFC 9002).
PACKET_THRESHOLD = 3

MAX_PAYLOAD = 1460


class QuicHeader:
    """One QUIC packet: a packet number plus frames."""

    __slots__ = ("connection_id", "packet_number", "is_initial",
                 "is_initial_ack", "ack_ranges", "stream_frames", "ts",
                 "ts_echo")

    def __init__(self, connection_id: int, packet_number: int,
                 is_initial: bool = False, is_initial_ack: bool = False,
                 ts: int = 0, ts_echo: int = -1):
        self.connection_id = connection_id
        self.packet_number = packet_number
        self.is_initial = is_initial
        self.is_initial_ack = is_initial_ack
        #: ACK frame: list of (first, last) inclusive packet-number ranges.
        self.ack_ranges: List[Tuple[int, int]] = []
        #: Stream frames: (stream_id, offset, length, fin).
        self.stream_frames: List[Tuple[int, int, int, bool]] = []
        self.ts = ts
        self.ts_echo = ts_echo

    def __repr__(self) -> str:
        return (f"<QuicHeader cid={self.connection_id} "
                f"pn={self.packet_number} frames={len(self.stream_frames)}"
                f" acks={len(self.ack_ranges)}>")


class QuicStream:
    """Receiver-side stream state: in-order delivery per stream."""

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        self.next_offset = 0
        self.pending: Dict[int, Tuple[int, bool]] = {}
        self.delivered = 0
        self.fin_seen = False
        self.finished = False

    def add_frame(self, offset: int, length: int, fin: bool) -> int:
        """Insert a frame; returns newly in-order bytes."""
        if offset < self.next_offset:
            return 0  # duplicate/overlap of delivered data
        self.pending.setdefault(offset, (length, fin))
        released = 0
        while self.next_offset in self.pending:
            length, chunk_fin = self.pending.pop(self.next_offset)
            self.next_offset += length
            released += length
            if chunk_fin:
                self.fin_seen = True
        self.delivered += released
        if self.fin_seen and not self.pending:
            self.finished = True
        return released


class QuicStack(TransportStack):
    """Per-host QUIC demultiplexer (by connection id)."""

    protocol_name = "quic"

    def __init__(self, host: Host):
        super().__init__(host)
        self._connections: Dict[int, "QuicConnection"] = {}
        self._listeners: Dict[int, Tuple[Callable, dict]] = {}

    def listen(self, port: int,
               accept: Callable[["QuicConnection"], ConnectionCallbacks],
               **options) -> None:
        """Accept connections addressed to ``port``."""
        self._listeners[port] = (accept, options)

    def connect(self, dst_address: int, dst_port: int,
                callbacks: Optional[ConnectionCallbacks] = None,
                **options) -> "QuicConnection":
        """Open a connection (1-RTT handshake)."""
        conn = QuicConnection(self, dst_address, dst_port,
                              callbacks or ConnectionCallbacks(),
                              connection_id=self.sim.new_id("quic_connection"),
                              is_client=True, **options)
        self._connections[conn.connection_id] = conn
        conn._send_initial()
        return conn

    def handle_packet(self, packet: Packet) -> None:
        header: QuicHeader = packet.header
        conn = self._connections.get(header.connection_id)
        if conn is not None:
            conn._handle(packet, header)
            return
        if header.is_initial:
            # The Initial carries the destination port as its only frame's
            # stream id (standing in for QUIC's transport parameters).
            port = header.stream_frames[0][0] if header.stream_frames else -1
            listener = self._listeners.get(port)
            if listener is not None:
                accept, options = listener
                conn = QuicConnection(self, packet.src, port,
                                      ConnectionCallbacks(),
                                      connection_id=header.connection_id,
                                      is_client=False, **options)
                conn.callbacks = accept(conn)
                self._connections[header.connection_id] = conn
                conn._handle(packet, header)
                return
        self.host.counters.add("quic_unknown")


class QuicConnection:
    """One QUIC connection: many streams, one congestion controller."""

    def __init__(self, stack: QuicStack, remote_address: int,
                 remote_port: int, callbacks: ConnectionCallbacks,
                 connection_id: int, is_client: bool,
                 mss: int = MAX_PAYLOAD, init_cwnd_segments: int = 10,
                 min_rto_ns: int = microseconds(200), entity: str = ""):
        self.stack = stack
        self.sim = stack.sim
        self.remote_address = remote_address
        self.remote_port = remote_port
        self.callbacks = callbacks
        self.connection_id = connection_id
        self.is_client = is_client
        self.mss = mss
        self.min_rto_ns = min_rto_ns
        self.entity = entity
        self.established = False  # set by the handshake on both sides

        # Congestion control: one window for the whole connection.
        self.cwnd = init_cwnd_segments * mss
        self.ssthresh = 1 << 48
        self._pipe = 0
        self.srtt: Optional[int] = None
        self.rttvar = 0

        # Send side.
        self._next_packet_number = 0
        self._next_stream_id = itertools.count(1)
        #: stream_id -> deque of (offset, length, fin) waiting to be sent.
        self._send_queues: Dict[int, deque] = {}
        self._stream_offsets: Dict[int, int] = {}
        self._sent: Dict[int, Dict] = {}  # pn -> {frames, size, ts}
        self._largest_acked = -1
        self._loss_timer = Timer(self.sim, self._on_loss_timeout)

        # Receive side.
        self.streams: Dict[int, QuicStream] = {}
        self._recv_largest = -1
        self._recv_ranges: List[List[int]] = []  # merged [first, last]
        self._ack_pending = False

        # Stats / hooks.
        self.packets_sent = 0
        self.packets_lost = 0
        self.bytes_delivered = 0
        #: Called (connection, stream, nbytes) on in-order stream delivery.
        self.on_stream_data: Optional[Callable] = None
        #: Called (connection, stream) when a stream finishes (FIN, all
        #: bytes delivered).
        self.on_stream_finished: Optional[Callable] = None

    # -- public API ---------------------------------------------------------

    def open_stream(self) -> int:
        """Allocate a new stream id."""
        stream_id = next(self._next_stream_id)
        self._send_queues[stream_id] = deque()
        self._stream_offsets[stream_id] = 0
        return stream_id

    def send_stream(self, stream_id: int, nbytes: int,
                    fin: bool = True) -> None:
        """Queue ``nbytes`` on a stream (optionally closing it)."""
        if nbytes <= 0:
            raise ValueError("stream data must be positive")
        if stream_id not in self._send_queues:
            raise ValueError(f"unknown stream {stream_id}")
        offset = self._stream_offsets[stream_id]
        remaining = nbytes
        while remaining > 0:
            size = min(self.mss, remaining)
            remaining -= size
            is_last = remaining == 0 and fin
            self._send_queues[stream_id].append((offset, size, is_last))
            offset += size
        self._stream_offsets[stream_id] = offset
        self._try_send()

    def send_message(self, nbytes: int) -> int:
        """Convenience: one message = one fresh stream with FIN."""
        stream_id = self.open_stream()
        self.send_stream(stream_id, nbytes, fin=True)
        return stream_id

    # -- handshake ----------------------------------------------------------

    def _send_initial(self) -> None:
        header = QuicHeader(self.connection_id, self._take_pn(),
                            is_initial=True, ts=self.sim.now)
        header.stream_frames = [(self.remote_port, 0, 0, False)]
        self._transmit(header, DEFAULT_HEADER_BYTES)
        self._loss_timer.restart(4 * self.min_rto_ns)

    def _take_pn(self) -> int:
        pn = self._next_packet_number
        self._next_packet_number += 1
        return pn

    # -- sending ------------------------------------------------------------

    def _transmit(self, header: QuicHeader, size: int) -> None:
        packet = Packet(self.stack.host.address, self.remote_address, size,
                        "quic", header=header, ecn=ECT_CAPABLE,
                        flow_label=(self.connection_id, "quic"),
                        entity=self.entity, created_at=self.sim.now)
        self.stack.send_packet(packet)
        self.packets_sent += 1

    def _try_send(self) -> None:
        if not self.established:
            return
        progress = True
        while progress:
            progress = False
            if self._pipe + self.mss > self.cwnd:
                break
            # Round-robin one frame per stream per turn.
            for stream_id in list(self._send_queues):
                queue = self._send_queues[stream_id]
                if not queue:
                    continue
                offset, size, fin = queue.popleft()
                self._send_data_packet(stream_id, offset, size, fin)
                progress = True
                if self._pipe + self.mss > self.cwnd:
                    break

    def _send_data_packet(self, stream_id: int, offset: int, size: int,
                          fin: bool) -> None:
        pn = self._take_pn()
        header = QuicHeader(self.connection_id, pn, ts=self.sim.now)
        header.stream_frames = [(stream_id, offset, size, fin)]
        header.ack_ranges = [tuple(r) for r in self._recv_ranges[-4:]]
        wire = DEFAULT_HEADER_BYTES + size
        self._sent[pn] = {"frames": header.stream_frames, "size": size,
                          "ts": self.sim.now}
        self._pipe += size
        self._transmit(header, wire)
        self._arm_loss_timer()

    def _send_ack(self, ts_echo: int) -> None:
        header = QuicHeader(self.connection_id, self._take_pn(),
                            ts=self.sim.now, ts_echo=ts_echo)
        header.ack_ranges = [tuple(r) for r in self._recv_ranges[-8:]]
        self._transmit(header, DEFAULT_HEADER_BYTES)

    # -- receiving ----------------------------------------------------------

    def _handle(self, packet: Packet, header: QuicHeader) -> None:
        if header.is_initial and not self.is_client:
            first = not self.established
            self.established = True
            # (Re-)send the Initial-Ack — duplicates mean ours was lost.
            reply = QuicHeader(self.connection_id, self._take_pn(),
                               is_initial_ack=True, ts=self.sim.now,
                               ts_echo=header.ts)
            self._transmit(reply, DEFAULT_HEADER_BYTES)
            if first:
                self.callbacks.on_connected(self)
            return
        if header.is_initial_ack and self.is_client:
            if not self.established:
                self.established = True
                self._loss_timer.stop()
                self._sample_rtt(header.ts_echo)
                self.callbacks.on_connected(self)
                self._try_send()
            return
        if header.ack_ranges:
            self._handle_acks(header)
        if header.stream_frames:
            self._record_received(header.packet_number)
            self._deliver_frames(header)
            self._send_ack(header.ts)

    def _record_received(self, pn: int) -> None:
        self._recv_largest = max(self._recv_largest, pn)
        extended = False
        for span in self._recv_ranges:
            if span[0] - 1 <= pn <= span[1] + 1:
                span[0] = min(span[0], pn)
                span[1] = max(span[1], pn)
                extended = True
                break
        if not extended:
            self._recv_ranges.append([pn, pn])
        # Re-merge: extending a span can make it adjacent to its neighbour
        # (receiving 2 with [1,1] and [3,3] present must yield [1,3]).
        self._recv_ranges.sort()
        merged = [self._recv_ranges[0]]
        for span in self._recv_ranges[1:]:
            if span[0] <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], span[1])
            else:
                merged.append(span)
        self._recv_ranges = merged

    def _deliver_frames(self, header: QuicHeader) -> None:
        for stream_id, offset, size, fin in header.stream_frames:
            if size == 0 and not fin:
                continue
            stream = self.streams.get(stream_id)
            if stream is None:
                stream = QuicStream(stream_id)
                self.streams[stream_id] = stream
            released = stream.add_frame(offset, size, fin)
            if released:
                self.bytes_delivered += released
                self.callbacks.on_data(self, released)
                if self.on_stream_data is not None:
                    self.on_stream_data(self, stream, released)
            if stream.finished and self.on_stream_finished is not None:
                stream.finished = False  # fire the hook exactly once
                self.on_stream_finished(self, stream)

    # -- acknowledgement & loss ---------------------------------------------

    def _handle_acks(self, header: QuicHeader) -> None:
        newly_acked_bytes = 0
        newly_acked_pns = []
        for first, last in header.ack_ranges:
            for pn in list(self._sent):
                if first <= pn <= last:
                    info = self._sent.pop(pn)
                    self._pipe -= info["size"]
                    newly_acked_bytes += info["size"]
                    newly_acked_pns.append(pn)
        if not newly_acked_pns:
            return
        largest = max(newly_acked_pns)
        self._largest_acked = max(self._largest_acked, largest)
        if header.ts_echo >= 0:
            self._sample_rtt(header.ts_echo)
        # Congestion control: slow start then AIMD.
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked_bytes
        else:
            self.cwnd += max(1, self.mss * newly_acked_bytes // self.cwnd)
        self._detect_losses()
        self._arm_loss_timer()
        self._try_send()

    def _detect_losses(self) -> None:
        """Packet-threshold loss detection (RFC 9002 simplified)."""
        lost = [pn for pn in self._sent
                if pn + PACKET_THRESHOLD <= self._largest_acked]
        if not lost:
            return
        for pn in sorted(lost):
            self._declare_lost(pn)
        # One window reduction per loss event.
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.ssthresh

    def _declare_lost(self, pn: int) -> None:
        info = self._sent.pop(pn, None)
        if info is None:
            return
        self._pipe -= info["size"]
        self.packets_lost += 1
        # Retransmit the *data* in fresh packets (new packet numbers).
        for stream_id, offset, size, fin in info["frames"]:
            if size > 0 or fin:
                self._send_queues.setdefault(stream_id, deque()).appendleft(
                    (offset, size, fin))

    @property
    def _rto(self) -> int:
        if self.srtt is None:
            return 4 * self.min_rto_ns
        return max(self.min_rto_ns, self.srtt + 4 * self.rttvar)

    def _arm_loss_timer(self) -> None:
        if not self._sent:
            self._loss_timer.stop()
            return
        oldest = min(info["ts"] for info in self._sent.values())
        delay = max(0, oldest + self._rto - self.sim.now)
        self._loss_timer.restart(delay)

    def _on_loss_timeout(self) -> None:
        if not self.established and self.is_client:
            self._send_initial()  # handshake retry
            return
        now = self.sim.now
        overdue = [pn for pn, info in self._sent.items()
                   if now >= info["ts"] + self._rto]
        for pn in sorted(overdue):
            self._declare_lost(pn)
        if overdue:
            self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
            self.cwnd = self.mss
        self._arm_loss_timer()
        self._try_send()

    def _sample_rtt(self, ts_echo: int) -> None:
        if ts_echo < 0:
            return
        sample = self.sim.now - ts_echo
        if sample < 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample // 2
        else:
            delta = abs(self.srtt - sample)
            self.rttvar = (3 * self.rttvar + delta) // 4
            self.srtt = (7 * self.srtt + sample) // 8

    def __repr__(self) -> str:
        return (f"<QuicConnection cid={self.connection_id} "
                f"{'client' if self.is_client else 'server'} "
                f"streams={len(self.streams)} cwnd={self.cwnd}>")
