"""TCP: NewReno-style stream transport with a DCTCP variant.

This is the baseline the paper argues against: a byte-stream protocol with
cumulative ACKs, per-flow congestion state, and receive-window flow control.
The implementation covers what the experiments exercise:

* three-way handshake (connection-per-message cost, Figure 3),
* slow start / congestion avoidance / fast retransmit / RTO,
* receive-window flow control with window updates (proxy HOL, Figure 2),
* DCTCP: per-packet ECN echo and ``alpha``-scaled window reduction
  (Figures 5 and 7 baselines).

Payload content is not modelled — only byte counts move through the stream.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..net.node import Host
from ..net.packet import (DEFAULT_HEADER_BYTES, ECT_CAPABLE, ECT_NOT_CAPABLE,
                          Packet)
from ..sim.engine import Timer
from ..sim.units import microseconds
from .base import ConnectionCallbacks, TransportStack

__all__ = ["TcpHeader", "TcpStack", "TcpConnection",
           "FLAG_SYN", "FLAG_ACK", "FLAG_FIN"]

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4

#: Practically infinite receive window for "unlimited buffer" experiments.
UNLIMITED_WINDOW = 1 << 48


class TcpHeader:
    """TCP segment header (the subset the simulation needs)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "wnd",
                 "ece", "ts", "ts_echo", "payload_len", "meta_id",
                 "sack_blocks")

    def __init__(self, src_port: int, dst_port: int, seq: int = 0,
                 ack: int = 0, flags: int = 0, wnd: int = 0,
                 ece: bool = False, ts: int = 0, ts_echo: int = -1,
                 payload_len: int = 0, meta_id: int = 0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.wnd = wnd
        self.ece = ece
        self.ts = ts
        self.ts_echo = ts_echo
        self.payload_len = payload_len
        #: MPTCP join token: subflows of one meta-connection share it
        #: (0 = plain TCP).
        self.meta_id = meta_id
        #: Selective acknowledgement ranges ``[(start, end), ...]`` —
        #: received-but-not-cumulatively-acked byte ranges (RFC 2018 style,
        #: up to 4 blocks).
        self.sack_blocks: List[Tuple[int, int]] = []

    def has(self, flag: int) -> bool:
        """True when ``flag`` is set on this segment."""
        return bool(self.flags & flag)

    def __repr__(self) -> str:
        names = [name for bit, name in
                 ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"))
                 if self.flags & bit]
        return (f"<TcpHeader {self.src_port}->{self.dst_port} "
                f"seq={self.seq} ack={self.ack} len={self.payload_len} "
                f"{'|'.join(names) or 'none'}>")


class TcpStack(TransportStack):
    """Per-host TCP: demuxes segments to connections, accepts on listen."""

    protocol_name = "tcp"

    def __init__(self, host: Host):
        super().__init__(host)
        self._connections: Dict[Tuple[int, int, int], "TcpConnection"] = {}
        self._listeners: Dict[int, Tuple[
            Callable[["TcpConnection"], ConnectionCallbacks], dict]] = {}
        self._next_port = 10_000

    def listen(self, port: int,
               accept: Callable[["TcpConnection"], ConnectionCallbacks],
               **options) -> None:
        """Accept connections on ``port``.

        ``accept(conn)`` is called for each new connection and must return
        the :class:`ConnectionCallbacks` to attach.  ``options`` are passed
        to each accepted :class:`TcpConnection` (variant, buffers, ...).
        """
        self._listeners[port] = (accept, options)

    def connect(self, dst_address: int, dst_port: int,
                callbacks: Optional[ConnectionCallbacks] = None,
                **options) -> "TcpConnection":
        """Open a connection; returns at once, connects asynchronously."""
        local_port = self._allocate_port()
        conn = TcpConnection(self, local_port, dst_address, dst_port,
                             callbacks or ConnectionCallbacks(), **options)
        self._register(conn)
        conn.open_active()
        return conn

    def _allocate_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def _register(self, conn: "TcpConnection") -> None:
        key = (conn.local_port, conn.remote_address, conn.remote_port)
        self._connections[key] = conn

    def deregister(self, conn: "TcpConnection") -> None:
        """Remove a closed connection from the demux table."""
        self._connections.pop(
            (conn.local_port, conn.remote_address, conn.remote_port), None)

    def handle_packet(self, packet: Packet) -> None:
        header: TcpHeader = packet.header
        key = (header.dst_port, packet.src, header.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(packet, header)
            return
        if header.has(FLAG_SYN) and not header.has(FLAG_ACK):
            listener = self._listeners.get(header.dst_port)
            if listener is not None:
                accept, options = listener
                conn = TcpConnection(self, header.dst_port, packet.src,
                                     header.src_port, ConnectionCallbacks(),
                                     **options)
                conn.callbacks = accept(conn)
                self._register(conn)
                conn.handle_segment(packet, header)
                return
        self.host.counters.add("tcp_rst")


class TcpConnection:
    """One TCP connection endpoint (both directions of a full-duplex stream).

    ``variant`` selects congestion response: ``"reno"`` (loss-based, not
    ECN-capable), ``"dctcp"`` (ECN-capable with alpha-scaled reduction), or
    ``"swift"`` (delay-based: a target end-to-end delay with AIMD around
    it, after Kumar et al., SIGCOMM'20).
    ``recv_buffer`` bounds the receive window in bytes (None = unlimited);
    with ``auto_drain=False`` the application must call :meth:`consume` to
    open the window back up — this is how the Figure-2 proxy applies
    backpressure.
    """

    def __init__(self, stack: TcpStack, local_port: int, remote_address: int,
                 remote_port: int, callbacks: ConnectionCallbacks,
                 variant: str = "reno", mss: int = 1460,
                 init_cwnd_segments: int = 10,
                 min_rto_ns: int = microseconds(200),
                 recv_buffer: Optional[int] = None,
                 auto_drain: bool = True,
                 dctcp_g: float = 1.0 / 16.0,
                 swift_target_delay_ns: Optional[int] = None,
                 swift_beta: float = 0.8,
                 swift_max_decrease: float = 0.5,
                 max_retries: int = 10,
                 max_rto_ns: int = microseconds(500_000),
                 entity: str = "", meta_id: int = 0):
        if variant not in ("reno", "dctcp", "swift"):
            raise ValueError(f"unknown TCP variant {variant!r}")
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_address = remote_address
        self.remote_port = remote_port
        self.callbacks = callbacks
        self.variant = variant
        self.mss = mss
        self.min_rto_ns = min_rto_ns
        #: Cap on the exponentially backed-off RTO (RFC 6298 §2.5 allows
        #: a cap at or above 60 s; simulations use a tighter one).
        self.max_rto_ns = max(max_rto_ns, min_rto_ns)
        #: Consecutive data RTOs with no forward progress before the
        #: connection aborts and surfaces ``on_error`` to the app.
        self.max_retries = max_retries
        self.recv_buffer = recv_buffer
        self.auto_drain = auto_drain
        self.entity = entity
        self.meta_id = meta_id
        #: Optional override for congestion-avoidance growth — MPTCP's
        #: coupled increase installs itself here.  Called with
        #: ``(connection, newly_acked_bytes)``; slow start is unaffected.
        self.ca_growth_hook: Optional[Callable[["TcpConnection", int],
                                               None]] = None

        # Sender state.
        self.state = "closed"
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = init_cwnd_segments * mss
        self.init_cwnd = init_cwnd_segments * mss
        self.ssthresh = UNLIMITED_WINDOW
        self.peer_wnd = mss  # until first ACK tells us better
        self.peer_ack = 0
        self._app_backlog = 0
        self._fin_pending = False
        self._fin_sent = False
        #: seq -> [len, retransmitted, send_ts, lost, sacked]
        self._segments: Dict[int, List] = {}
        self._highest_sacked = 0
        #: Segment seqs in ascending order (new data only grows rightward),
        #: so cumulative ACKs pop from the front in O(acked segments).
        self._seg_order: Deque[int] = deque()
        #: Seqs of the segments not yet SACKed, ascending: the RFC 6675
        #: scoreboard, walked from the lowest un-SACKed sequence.  Segments
        #: never overlap, so ``seq + len`` ascends along it too.
        self._unsacked: List[int] = []
        #: Sequence numbers marked lost, awaiting retransmission (in order).
        self._lost: Deque[int] = deque()
        #: Bytes believed to be in the network (sent, unacked, not lost).
        self._pipe = 0
        self._dupacks = 0
        self._recover = 0
        self._in_recovery = False
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = 4 * min_rto_ns
        self._rto_timer = Timer(self.sim, self._on_rto)
        self._syn_retries = 0
        self._consecutive_timeouts = 0

        # Receiver state.
        self.rcv_nxt = 0
        self._ooo: Dict[int, int] = {}  # seq -> len
        self._unread = 0
        self._last_advertised = None  # type: Optional[int]
        self._peer_fin = False

        # DCTCP state.
        self.alpha = 1.0
        self.dctcp_g = dctcp_g
        self._win_acked = 0
        self._win_marked = 0
        self._alpha_window_end = 0
        self._cwr_end = -1

        # Swift state.  The delay target defaults to a small multiple of
        # the minimum RTO's scale; callers should size it to the fabric.
        self.swift_target_delay_ns = (
            swift_target_delay_ns if swift_target_delay_ns is not None
            else microseconds(25))
        self.swift_beta = swift_beta
        self.swift_max_decrease = swift_max_decrease
        self._min_rtt: Optional[int] = None
        self._swift_md_until = -1

        #: Optional hook fired with the newly acknowledged byte count each
        #: time the send window advances (used by proxies for backpressure).
        self.on_send_progress: Optional[Callable[[int], None]] = None
        #: Optional hook fired once when our FIN has been acknowledged —
        #: i.e. every byte this side sent was delivered and the close is
        #: complete (distinct from callbacks.on_close, which reports the
        #: *peer's* close).
        self.on_finished: Optional[Callable[["TcpConnection"], None]] = None

        # Stats.
        self.bytes_delivered = 0  # in-order bytes handed to the app
        self.bytes_sent = 0      # first transmissions only
        self.retransmissions = 0
        self.timeouts = 0
        self.established_at: Optional[int] = None
        self.closed = False
        #: Abort reason once the transport gave up ("syn_retries_exceeded",
        #: "max_retries_exceeded"); None while healthy.
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Begin the three-way handshake (client side)."""
        if self.state != "closed":
            raise RuntimeError(f"cannot open in state {self.state}")
        self.state = "syn_sent"
        self.snd_nxt = 1  # SYN consumes sequence 0
        self._send_control(FLAG_SYN, seq=0)
        self._rto_timer.restart(self.rto)

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data on the stream."""
        if nbytes <= 0:
            raise ValueError("send size must be positive")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close")
        self._app_backlog += nbytes
        self._try_send()

    def close(self) -> None:
        """Close the sending direction once all queued data is delivered."""
        self._fin_pending = True
        self._try_send()

    def consume(self, nbytes: int) -> None:
        """Application reads ``nbytes`` from the receive buffer.

        Only meaningful with ``auto_drain=False``; opening the window may
        trigger a window-update ACK so a stalled sender resumes.
        """
        if nbytes < 0 or nbytes > self._unread:
            raise ValueError(
                f"cannot consume {nbytes}, unread={self._unread}")
        was_closed = self._advertised_window() < self.mss
        self._unread -= nbytes
        if was_closed and self._advertised_window() >= self.mss:
            self._send_ack()  # window update

    @property
    def send_backlog(self) -> int:
        """Bytes accepted from the app but not yet acknowledged by the peer."""
        return self._app_backlog + (self.snd_nxt - self.snd_una)

    @property
    def unread_bytes(self) -> int:
        """Bytes delivered in-order but not yet consumed by the app."""
        return self._unread

    @property
    def flight_size(self) -> int:
        """Bytes believed to be in the network (excludes marked-lost data)."""
        return self._pipe

    @property
    def outstanding(self) -> int:
        """Bytes sent but not cumulatively acknowledged (includes losses)."""
        return self.snd_nxt - self.snd_una

    @property
    def established(self) -> bool:
        """True once the handshake completed."""
        return self.state == "established"

    @property
    def closing(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._fin_pending or self._fin_sent

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------

    def _flow_label(self) -> Tuple:
        return (self.stack.host.address, self.local_port,
                self.remote_address, self.remote_port, "tcp")

    def _ecn_codepoint(self) -> int:
        return ECT_CAPABLE if self.variant == "dctcp" else ECT_NOT_CAPABLE

    def _advertised_window(self) -> int:
        if self.recv_buffer is None:
            return UNLIMITED_WINDOW
        return max(0, self.recv_buffer - self._unread)

    def _make_header(self, flags: int, seq: int, payload_len: int = 0,
                     ts_echo: int = -1) -> TcpHeader:
        return TcpHeader(self.local_port, self.remote_port, seq=seq,
                         ack=self.rcv_nxt, flags=flags,
                         wnd=self._advertised_window(), ts=self.sim.now,
                         ts_echo=ts_echo, payload_len=payload_len,
                         meta_id=self.meta_id)

    def _transmit(self, header: TcpHeader, data_bytes: int) -> None:
        packet = Packet(self.stack.host.address, self.remote_address,
                        DEFAULT_HEADER_BYTES + data_bytes, "tcp",
                        header=header, ecn=self._ecn_codepoint(),
                        flow_label=self._flow_label(), entity=self.entity,
                        created_at=self.sim.now)
        self.stack.send_packet(packet)

    def _send_control(self, flags: int, seq: int) -> None:
        self._transmit(self._make_header(flags, seq), 0)

    def _send_ack(self, ece: bool = False, ts_echo: int = -1) -> None:
        header = self._make_header(FLAG_ACK, self.snd_nxt, ts_echo=ts_echo)
        header.ece = ece
        header.sack_blocks = self._sack_ranges()
        # Pure ACKs are never ECN-marked targets of interest; still carry
        # the connection's codepoint so reverse-path marking is possible.
        self._transmit(header, 0)

    def _sack_ranges(self, max_blocks: int = 4) -> List[Tuple[int, int]]:
        """Contiguous runs of out-of-order data, lowest first (RFC 2018)."""
        if not self._ooo:
            return []
        ranges: List[Tuple[int, int]] = []
        start = None
        end = None
        for seq in sorted(self._ooo):
            size = self._ooo[seq]
            if start is None:
                start, end = seq, seq + size
            elif seq <= end:
                end = max(end, seq + size)
            else:
                ranges.append((start, end))
                start, end = seq, seq + size
        ranges.append((start, end))
        return ranges[:max_blocks]

    def _effective_window(self) -> int:
        # Peer window is relative to the peer's cumulative ACK.
        return min(self.cwnd, self.peer_ack + self.peer_wnd - self.snd_una)

    def _try_send(self) -> None:
        if self.state != "established":
            return
        window = self._effective_window()
        # Retransmissions of marked-lost segments first (in sequence order);
        # always allow progress when the pipe is empty.
        while self._lost:
            seq = self._lost[0]
            entry = self._segments.get(seq)
            if entry is None or not entry[3]:
                self._lost.popleft()  # acked or already repaired
                continue
            size = entry[0]
            if self._pipe > 0 and self._pipe + size > window:
                return
            self._lost.popleft()
            self._retransmit_segment(seq, entry)
        while self._app_backlog > 0:
            size = min(self.mss, self._app_backlog)
            if self._pipe + size > window:
                break
            self._send_data_segment(self.snd_nxt, size)
            self._app_backlog -= size
            self.snd_nxt += size
        if (self._fin_pending and not self._fin_sent
                and self._app_backlog == 0):
            self._fin_sent = True
            self._send_control(FLAG_FIN | FLAG_ACK, seq=self.snd_nxt)
            self._segments[self.snd_nxt] = [1, False, self.sim.now, False,
                                            False]
            self._seg_order.append(self.snd_nxt)
            self._unsacked.append(self.snd_nxt)
            self._pipe += 1
            self.snd_nxt += 1  # FIN consumes one sequence number
            if not self._rto_timer.running:
                self._rto_timer.restart(self.rto)

    def _send_data_segment(self, seq: int, size: int) -> None:
        header = self._make_header(FLAG_ACK, seq, payload_len=size)
        self._transmit(header, size)
        self.bytes_sent += size
        self._segments[seq] = [size, False, self.sim.now, False, False]
        self._seg_order.append(seq)
        self._unsacked.append(seq)
        self._pipe += size
        if not self._rto_timer.running:
            self._rto_timer.restart(self.rto)

    def _retransmit_segment(self, seq: int, entry: List) -> None:
        size = entry[0]
        is_fin = (self._fin_sent and size == 1
                  and seq + 1 == self.snd_nxt)
        if is_fin:
            self._send_control(FLAG_FIN | FLAG_ACK, seq=seq)
        else:
            header = self._make_header(FLAG_ACK, seq, payload_len=size)
            self._transmit(header, size)
        entry[1] = True
        entry[2] = self.sim.now
        entry[3] = False
        self._pipe += size
        self.retransmissions += 1
        if not self._rto_timer.running:
            self._rto_timer.restart(self.rto)

    def _mark_lost(self, seq: int) -> bool:
        """Flag a segment lost, freeing its pipe share; returns True if new."""
        entry = self._segments.get(seq)
        if entry is None or entry[3] or entry[4]:
            return False  # already lost, or SACKed (known delivered)
        entry[3] = True
        self._pipe -= entry[0]
        self._lost.append(seq)
        return True

    def _process_sack_blocks(self, blocks: List[Tuple[int, int]]) -> None:
        """Mark SACKed segments delivered; infer losses below the highest
        SACK (simplified RFC 6675)."""
        if not blocks:
            return
        segments = self._segments
        unsacked = self._unsacked
        for start, end in blocks:
            self._highest_sacked = max(self._highest_sacked, end)
            # The segments a block covers are a run of the scoreboard: the
            # first at or above ``start`` up to the last ending by ``end``.
            first = last = bisect_left(unsacked, start)
            while last < len(unsacked):
                seq = unsacked[last]
                entry = segments[seq]
                size = entry[0]
                if seq + size > end:
                    break
                entry[4] = True
                if not entry[3]:
                    self._pipe -= size
                else:
                    entry[3] = False  # no need to retransmit after all
                last += 1
            del unsacked[first:last]
        # Loss inference: an unsacked segment with >= 3 MSS of SACKed data
        # above it is presumed lost (no need to wait for the RTO).
        # Retransmitted segments are only re-presumed lost once an RTT has
        # passed since the retransmission, or the inference would re-mark
        # them on every SACK and churn forever.
        threshold = self._highest_sacked - 3 * self.mss
        retx_grace = self.srtt if self.srtt is not None else self.min_rto_ns
        newly_lost = False
        for seq in unsacked:
            entry = segments[seq]
            if seq + entry[0] > threshold:
                break
            if not entry[3] and (not entry[1]
                                 or self.sim.now - entry[2] > retx_grace):
                self._mark_lost(seq)
                newly_lost = True
        if newly_lost and not self._in_recovery:
            self._in_recovery = True
            self._recover = self.snd_nxt
            self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss

    # ------------------------------------------------------------------
    # Segment reception
    # ------------------------------------------------------------------

    def handle_segment(self, packet: Packet, header: TcpHeader) -> None:
        """Process one incoming segment (data, ACK, or control)."""
        if self.closed:
            return
        if header.has(FLAG_SYN):
            self._handle_syn(header)
            return
        if self.state == "syn_sent":
            # Plain ACK without SYN in syn_sent: ignore.
            return
        if self.state == "syn_received" and header.has(FLAG_ACK):
            self._become_established()
        if header.payload_len > 0:
            self._handle_data(packet, header)
        if header.has(FLAG_FIN):
            self._handle_fin(header)
        if header.has(FLAG_ACK):
            self._handle_ack(header)

    def _handle_syn(self, header: TcpHeader) -> None:
        if header.has(FLAG_ACK):  # SYN-ACK at the client
            if self.state != "syn_sent":
                return
            self.rcv_nxt = header.seq + 1
            self.snd_una = header.ack
            self.peer_ack = header.ack
            self.peer_wnd = header.wnd
            self._become_established()
            self._sample_rtt(header.ts_echo)
            self._send_ack()
        else:  # SYN at the server
            if self.state == "closed":
                self.state = "syn_received"
                self.rcv_nxt = header.seq + 1
                self.snd_nxt = 1
                syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0,
                                            ts_echo=header.ts)
                self._transmit(syn_ack, 0)
                self._rto_timer.restart(self.rto)
            else:
                # Duplicate SYN: re-send the SYN-ACK.
                syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0,
                                            ts_echo=header.ts)
                self._transmit(syn_ack, 0)

    def _become_established(self) -> None:
        if self.state == "established":
            return
        self.state = "established"
        self.snd_una = max(self.snd_una, 1)
        self.peer_ack = max(self.peer_ack, self.snd_una)
        self.established_at = self.sim.now
        self._rto_timer.stop()
        self._alpha_window_end = self.snd_nxt
        self.callbacks.on_connected(self)
        self._try_send()

    def _handle_data(self, packet: Packet, header: TcpHeader) -> None:
        seq, size = header.seq, header.payload_len
        if seq == self.rcv_nxt:
            self.rcv_nxt += size
            self._deliver(size)
            self._drain_ooo()
        elif seq > self.rcv_nxt:
            window = self._advertised_window()
            if seq + size - self.rcv_nxt <= max(window, size):
                self._ooo[seq] = max(self._ooo.get(seq, 0), size)
        # else: old duplicate, just re-ACK.
        self._send_ack(ece=packet.marked, ts_echo=header.ts)

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            size = self._ooo.pop(self.rcv_nxt)
            self.rcv_nxt += size
            self._deliver(size)

    def _deliver(self, size: int) -> None:
        self.bytes_delivered += size
        if self.auto_drain:
            self.callbacks.on_data(self, size)
        else:
            self._unread += size
            self.callbacks.on_data(self, size)

    def _handle_fin(self, header: TcpHeader) -> None:
        fin_seq = header.seq + header.payload_len
        if fin_seq == self.rcv_nxt and not self._peer_fin:
            self._peer_fin = True
            self.rcv_nxt += 1
            self.callbacks.on_close(self)
        self._send_ack(ts_echo=header.ts)

    # ------------------------------------------------------------------
    # ACK processing and congestion control
    # ------------------------------------------------------------------

    def _handle_ack(self, header: TcpHeader) -> None:
        self.peer_wnd = header.wnd
        if header.ack > self.peer_ack:
            self.peer_ack = header.ack
        if header.sack_blocks:
            self._process_sack_blocks(header.sack_blocks)
        if header.ack > self.snd_una:
            newly_acked = header.ack - self.snd_una
            self._ack_segments(header.ack)
            self.snd_una = header.ack
            self._dupacks = 0
            # Forward progress: the retry budget and backoff reset
            # (RFC 6298 §5.7 — a fresh RTT sample below also recomputes
            # the un-backed-off RTO).
            self._consecutive_timeouts = 0
            rtt_sample = self._sample_rtt(header.ts_echo)
            self._dctcp_on_ack(newly_acked, header.ece)
            if self.variant == "swift" and rtt_sample is not None:
                self._swift_on_ack(rtt_sample)
            if self._in_recovery:
                if self.snd_una >= self._recover:
                    self._in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ACK: retransmit the next hole (NewReno).
                    self._retransmit_head()
            elif self.variant != "swift":
                self._grow_cwnd(newly_acked)
            if self.snd_una == self.snd_nxt:
                self._rto_timer.stop()
                self.rto = max(self.min_rto_ns, self.rto)
            else:
                self._rto_timer.restart(self.rto)
            self._try_send()
            if self.on_send_progress is not None:
                self.on_send_progress(newly_acked)
        elif (header.ack == self.snd_una and self.flight_size > 0
              and header.payload_len == 0 and not header.has(FLAG_FIN)):
            self._dupacks += 1
            self._dctcp_on_ack(0, header.ece)
            if self._dupacks == 3 and not self._in_recovery:
                self._enter_fast_recovery()
            elif self._in_recovery:
                # Window inflation during recovery.
                self.cwnd += self.mss
                self._try_send()
        else:
            self._try_send()
        self._maybe_finish_close()

    def _ack_segments(self, ack: int) -> None:
        while self._seg_order:
            seq = self._seg_order[0]
            entry = self._segments.get(seq)
            if entry is None:
                self._seg_order.popleft()
                continue
            if seq + entry[0] > ack:
                break
            self._seg_order.popleft()
            del self._segments[seq]
            if not entry[3] and not entry[4]:
                self._pipe -= entry[0]
        front = self._seg_order[0] if self._seg_order else self.snd_nxt
        del self._unsacked[:bisect_left(self._unsacked, front)]

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        elif self.ca_growth_hook is not None:
            self.ca_growth_hook(self, newly_acked)
        else:
            self.cwnd += max(1, self.mss * newly_acked // self.cwnd)

    def _enter_fast_recovery(self) -> None:
        self._in_recovery = True
        self._recover = self.snd_nxt
        self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self._mark_lost(self.snd_una)
        self._try_send()

    def _retransmit_head(self) -> None:
        """Mark the head segment lost and repair it (partial-ACK path)."""
        if self._mark_lost(self.snd_una):
            self._try_send()
        self._rto_timer.restart(self.rto)

    def _on_rto(self) -> None:
        if self.closed:
            return
        self.timeouts += 1
        if self.state == "syn_sent":
            self._syn_retries += 1
            if self._syn_retries > 8:
                self._abort("syn_retries_exceeded")
                return
            self._send_control(FLAG_SYN, seq=0)
            self.rto = min(self.rto * 2, self.max_rto_ns)
            self._rto_timer.restart(self.rto)
            return
        if self.state == "syn_received":
            self._syn_retries += 1
            if self._syn_retries > 8:
                self._abort("syn_retries_exceeded")
                return
            syn_ack = self._make_header(FLAG_SYN | FLAG_ACK, seq=0)
            self._transmit(syn_ack, 0)
            self.rto = min(self.rto * 2, self.max_rto_ns)
            self._rto_timer.restart(self.rto)
            return
        if self.outstanding == 0:
            return
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.max_retries:
            # R2 of RFC 6298 / classic "ETIMEDOUT": the peer is presumed
            # unreachable, so stop retransmitting and tell the app.
            self._abort("max_retries_exceeded")
            return
        # Go-back-N: everything unacknowledged is presumed lost; slow start
        # will clock the retransmissions back out.
        self.ssthresh = max(self._pipe // 2, 2 * self.mss)
        for seq in self._unsacked:
            self._mark_lost(seq)
        self.cwnd = self.mss
        self._in_recovery = False
        self._dupacks = 0
        self.rto = min(self.rto * 2, self.max_rto_ns)
        self._rto_timer.restart(self.rto)
        self._try_send()

    def _sample_rtt(self, ts_echo: int) -> Optional[int]:
        if ts_echo < 0:
            return None
        sample = self.sim.now - ts_echo
        if sample < 0:
            return None
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample // 2
        else:
            delta = abs(self.srtt - sample)
            self.rttvar = (3 * self.rttvar + delta) // 4
            self.srtt = (7 * self.srtt + sample) // 8
        self.rto = max(self.min_rto_ns, self.srtt + 4 * self.rttvar)
        if self._min_rtt is None or sample < self._min_rtt:
            self._min_rtt = sample
        return sample

    # ------------------------------------------------------------------
    # DCTCP
    # ------------------------------------------------------------------

    def _dctcp_on_ack(self, newly_acked: int, ece: bool) -> None:
        if self.variant != "dctcp":
            return
        self._win_acked += newly_acked
        if ece:
            self._win_marked += newly_acked
            if self.snd_una > self._cwr_end:
                # One reduction per window of data.
                self._cwr_end = self.snd_nxt
                reduced = int(self.cwnd * (1 - self.alpha / 2))
                self.cwnd = max(reduced, 2 * self.mss)
                self.ssthresh = self.cwnd
        if self.snd_una >= self._alpha_window_end:
            if self._win_acked > 0:
                fraction = self._win_marked / self._win_acked
                self.alpha = ((1 - self.dctcp_g) * self.alpha
                              + self.dctcp_g * fraction)
            self._win_acked = 0
            self._win_marked = 0
            self._alpha_window_end = self.snd_nxt

    # ------------------------------------------------------------------
    # Swift (delay-based)
    # ------------------------------------------------------------------

    def _swift_on_ack(self, rtt_sample: int) -> None:
        """Grow below the delay target, shrink proportionally above it.

        Delay is the RTT sample minus the observed propagation floor
        (min RTT); decrease is multiplicative, bounded, and applied at
        most once per RTT — the Swift shape.
        """
        base = self._min_rtt if self._min_rtt is not None else rtt_sample
        delay = max(0, rtt_sample - base)
        if delay <= self.swift_target_delay_ns:
            if self.cwnd < self.ssthresh:
                self.cwnd += self.mss
            else:
                self.cwnd += max(1, self.mss * self.mss // int(self.cwnd))
        elif self.sim.now > self._swift_md_until:
            self._swift_md_until = self.sim.now + (self.srtt or rtt_sample)
            over = (delay - self.swift_target_delay_ns) / max(delay, 1)
            factor = max(1 - self.swift_beta * over,
                         self.swift_max_decrease)
            self.cwnd = max(self.mss, int(self.cwnd * factor))
            self.ssthresh = self.cwnd

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _maybe_finish_close(self) -> None:
        if (self._fin_sent and self.snd_una == self.snd_nxt
                and self._app_backlog == 0 and not self.closed):
            self.closed = True
            self._rto_timer.stop()
            self.stack.deregister(self)
            if self.on_finished is not None:
                self.on_finished(self)

    def _abort(self, reason: str = "aborted") -> None:
        """Unilateral teardown: timer disarmed, demux entry gone, app told.

        ``closed`` is set first, so re-entrant segment arrivals and timer
        races cannot fire the error callback twice.
        """
        if self.closed:
            return
        self.closed = True
        self.error = reason
        self._rto_timer.stop()
        self.stack.deregister(self)
        self.callbacks.on_error(self, reason)
        self.callbacks.on_close(self)

    def __repr__(self) -> str:
        return (f"<TcpConnection {self.variant} {self.local_port}->"
                f"{self.remote_address}:{self.remote_port} {self.state} "
                f"cwnd={self.cwnd} una={self.snd_una} nxt={self.snd_nxt}>")
