"""Differential test: the seq-sorted SACK scoreboard against a full scan.

``TcpConnection._process_sack_blocks`` walks ``_unsacked``, the ascending
seqs of the segments not yet SACKed, from a ``bisect`` per block.  The
reference below is the earlier implementation, which scanned every
segment against every block.  Hypothesis drives a connection of each kind
through the same random sends, SACK-block sets, cumulative ACKs, clock
advances and RTOs, and after every step the two must agree on the pipe,
every segment's flags, the order of the lost queue, the recovery state,
the window and the segments put on the wire.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.sim import Simulator, microseconds
from repro.transport import ConnectionCallbacks, TcpStack
from repro.transport.tcp import (FLAG_ACK, FLAG_SYN, UNLIMITED_WINDOW,
                                 TcpConnection, TcpHeader)

MSS = 1000


class _RecordingStack(TcpStack):
    """A stack whose segments go nowhere: the test plays the peer."""

    def __init__(self, host):
        super().__init__(host)
        self.wire = []

    def send_packet(self, packet):
        header = packet.header
        self.wire.append((header.seq, header.payload_len, header.flags))
        return True


class _FullScanConnection(TcpConnection):
    """The connection with the earlier full-scan ``_process_sack_blocks``."""

    def _process_sack_blocks(self, blocks):
        if not blocks:
            return
        for start, end in blocks:
            self._highest_sacked = max(self._highest_sacked, end)
        for seq, entry in self._segments.items():
            if entry[4]:
                continue
            size = entry[0]
            for start, end in blocks:
                if start <= seq and seq + size <= end:
                    entry[4] = True
                    if not entry[3]:
                        self._pipe -= size
                    else:
                        entry[3] = False
                    break
        threshold = self._highest_sacked - 3 * self.mss
        retx_grace = self.srtt if self.srtt is not None else self.min_rto_ns
        newly_lost = [seq for seq, entry in self._segments.items()
                      if not entry[3] and not entry[4]
                      and seq + entry[0] <= threshold
                      and (not entry[1]
                           or self.sim.now - entry[2] > retx_grace)]
        for seq in sorted(newly_lost):
            self._mark_lost(seq)
        if newly_lost and not self._in_recovery:
            self._in_recovery = True
            self._recover = self.snd_nxt
            self.ssthresh = max(self.flight_size // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss


def _open(cls, variant):
    """An established sender whose peer is the test itself."""
    sim = Simulator()
    host = Network(sim).add_host("a")
    stack = _RecordingStack(host)
    conn = cls(stack, 1000, 99, 80, ConnectionCallbacks(), variant=variant,
               mss=MSS, min_rto_ns=microseconds(20), max_retries=1000)
    conn.open_active()
    syn_ack = TcpHeader(80, 1000, seq=0, ack=1, flags=FLAG_SYN | FLAG_ACK,
                        wnd=UNLIMITED_WINDOW)
    conn.handle_segment(None, syn_ack)
    return sim, stack, conn


def _state(stack, conn):
    return (conn._pipe, {seq: list(entry)
                         for seq, entry in conn._segments.items()},
            list(conn._lost), conn._in_recovery, conn.ssthresh, conn.cwnd,
            conn.snd_una, conn.snd_nxt, conn._highest_sacked, stack.wire)


def _apply(side, op, args):
    sim, stack, conn = side
    if op == "send":
        conn.send(*args)
    elif op == "ack":
        ack, blocks, ts_echo, ece = args
        header = TcpHeader(80, 1000, seq=1, ack=ack, flags=FLAG_ACK,
                           wnd=UNLIMITED_WINDOW, ece=ece, ts_echo=ts_echo)
        header.sack_blocks = list(blocks)
        conn.handle_segment(None, header)
    elif op == "tick":
        sim.run(until=sim.now + args[0])
    elif op == "rto":
        conn._on_rto()
    elif op == "close":
        conn.close()


class _Pair:
    """The connection and the full-scan reference, driven in lockstep."""

    def __init__(self, variant="reno"):
        self.real = _open(TcpConnection, variant)
        self.reference = _open(_FullScanConnection, variant)

    @property
    def conn(self):
        return self.real[2]

    def step(self, op, *args):
        for side in (self.real, self.reference):
            _apply(side, op, args)
        assert _state(*self.real[1:]) == _state(*self.reference[1:])
        conn = self.conn
        assert conn._unsacked == sorted(
            seq for seq, entry in conn._segments.items() if not entry[4])


def _edge(data, conn):
    """A sequence number in the outstanding range, often a segment edge."""
    edges = sorted({conn.snd_una, conn.snd_nxt}
                   | {seq for seq in conn._segments}
                   | {seq + entry[0] for seq, entry in conn._segments.items()})
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(edges))
    return data.draw(st.integers(conn.snd_una, conn.snd_nxt))


def _blocks(data, conn):
    blocks = []
    for _ in range(data.draw(st.integers(0, 4))):
        start, end = sorted((_edge(data, conn), _edge(data, conn)))
        if start < end:
            blocks.append((start, end))
    return blocks


@given(st.data(), st.sampled_from(["reno", "dctcp"]))
@settings(max_examples=150, deadline=None)
def test_scoreboard_matches_full_scan(data, variant):
    pair = _Pair(variant)
    closed = False
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(
            ["send", "sack", "sack", "ack", "tick", "rto", "close"]))
        conn = pair.conn
        if op == "send":
            if closed:
                continue
            pair.step(op, data.draw(st.one_of(
                st.integers(1, 6).map(lambda n: n * MSS),
                st.integers(1, 6 * MSS))))
        elif op in ("sack", "ack"):
            ack = _edge(data, conn) if op == "ack" else conn.snd_una
            pair.step("ack", ack, _blocks(data, conn),
                      data.draw(st.integers(0, pair.real[0].now)),
                      data.draw(st.booleans()))
        elif op == "tick":
            pair.step(op, data.draw(st.integers(1, microseconds(30))))
        else:
            closed = closed or op == "close"
            pair.step(op)


def _seg(index):
    """Seq of the ``index``-th full-sized data segment (SYN takes seq 0)."""
    return 1 + index * MSS


def test_segment_ending_three_mss_below_highest_sack_is_lost():
    pair = _Pair()
    pair.step("send", 10 * MSS)
    pair.step("ack", _seg(0), [(_seg(6), _seg(9))], 0, False)
    # Segments 0-5 end at or below the threshold: each is marked lost,
    # and recovery retransmits them in order as the window allows.
    segments = pair.conn._segments
    assert all(segments[_seg(index)][1] or segments[_seg(index)][3]
               for index in range(6))
    assert pair.conn._in_recovery


def test_retransmission_is_re_presumed_lost_only_after_grace():
    pair = _Pair()
    pair.step("send", 10 * MSS)
    pair.step("rto")  # all lost; the head is retransmitted at once
    assert pair.conn._segments[_seg(0)][1]
    grace = pair.conn.min_rto_ns  # no RTT sample yet
    pair.step("tick", grace)
    pair.step("ack", _seg(0), [(_seg(5), _seg(9))], 0, False)
    assert not pair.conn._segments[_seg(0)][3]
    pair.step("tick", 1)
    pair.step("ack", _seg(0), [(_seg(5), _seg(9))], 0, False)
    assert pair.conn._segments[_seg(0)][3]
