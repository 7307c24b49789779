"""Differential test: the MTP ready rotation against the rescanning drain.

``MtpEndpoint._drain_fresh_packets`` keeps only live messages with unsent
packets in each priority's rotation, counts the messages of every
``(dst, tc)`` route beside it, and takes the rest of a scan in one
``rotate`` once every route left is window-blocked.  The reference below
is the earlier implementation: it rediscovered a blocked route message by
message and left finished or aborted messages in the rotation until the
scan reached them.  Under small pathlet windows, several priorities,
destinations and traffic classes, multi-packet messages, bursts past the
32-message scan cap, aborts and deadlines, both must put the same
``(message, packet)`` sequence on the wire at the same times.
"""

import random
from collections import Counter

import pytest

from repro.core import EcnFeedbackSource, MtpStack, PathletRegistry
from repro.core.endpoint import MtpEndpoint
from repro.net import DropTailQueue, Network
from repro.net.packet import MTU
from repro.sim import Simulator, gbps, microseconds, milliseconds


class _RescanEndpoint(MtpEndpoint):
    """The endpoint with the earlier drain and abort; counts cap hits."""

    cap_hits = 0

    def _drain_fresh_packets(self, blocked):
        blocked_scans = 0
        for priority in sorted(self._ready):
            rotation = self._ready[priority]
            blocked_here = 0
            while rotation and blocked_here < len(rotation) \
                    and blocked_scans < self.max_blocked_scan:
                msg_id = rotation[0]
                state = self._outgoing.get(msg_id)
                if state is None or state.unsent_packets() == 0:
                    rotation.popleft()
                    continue
                route = (state.dst_address, state.message.tc)
                if route not in blocked and self._send_packet(
                        state, state.next_to_send, retransmit=False):
                    state.next_to_send += 1
                    rotation.rotate(-1)
                    blocked_here = 0
                else:
                    blocked.add(route)
                    rotation.rotate(-1)
                    blocked_here += 1
                    blocked_scans += 1
            if not rotation:
                del self._ready[priority]
        if blocked_scans >= self.max_blocked_scan:
            self.cap_hits += 1

    def abort_message(self, msg_id, reason="aborted"):
        state = self._outgoing.pop(msg_id, None)
        if state is None:
            return False
        state.failed = True
        state.fail_reason = reason
        self.messages_failed += 1
        for pkt_num in list(state.inflight):
            state.inflight.pop(pkt_num)
            path = state.charged_path.pop(
                pkt_num, self.cc.path_for(state.dst_address))
            self.cc.uncharge(path, state.message.tc,
                             state.message.packet_sizes[pkt_num])
        self._retx_queue = [entry for entry in self._retx_queue
                            if entry[1] != msg_id]
        self._arm_rto()
        if state.on_failed is not None:
            state.on_failed(state)
        self._try_send()
        return True


def check_ready(endpoint):
    """``_ready`` holds exactly the live messages with unsent packets."""
    assert endpoint._ready.keys() == endpoint._ready_routes.keys()
    queued = []
    for priority, rotation in endpoint._ready.items():
        assert rotation
        routes = Counter()
        for msg_id in rotation:
            state = endpoint._outgoing[msg_id]
            assert state.unsent_packets() > 0
            assert state.message.priority == priority
            routes[(state.dst_address, state.message.tc)] += 1
        assert endpoint._ready_routes[priority] == dict(routes)
        queued.extend(rotation)
    assert sorted(queued) == sorted(
        msg_id for msg_id, state in endpoint._outgoing.items()
        if state.unsent_packets())


def _network(sim):
    """One sender, three receivers behind a switch, a pathlet per egress."""
    net = Network(sim)
    sender = net.add_host("sender")
    switch = net.add_switch("switch")
    net.connect(sender, switch, gbps(40), microseconds(1))
    registry = PathletRegistry(sim)
    receivers = []
    for index, rate in enumerate((gbps(10), gbps(4), gbps(25))):
        receiver = net.add_host(f"receiver{index}")
        net.connect(switch, receiver, rate, microseconds(2),
                    queue_factory=lambda: DropTailQueue(24, 8))
        receivers.append(receiver)
    net.install_routes()
    for receiver in receivers:
        registry.register(switch.port_to(receiver), EcnFeedbackSource(8))
    return sender, receivers


def run_workload(endpoint_class, seed):
    """Drive one sender endpoint; return its sends, states and endpoint."""
    rng = random.Random(seed)
    sim = Simulator()
    sender, receivers = _network(sim)
    stack = MtpStack(sender, init_window_segments=2)
    for receiver in receivers:
        MtpStack(receiver).endpoint(port=100)
    endpoint = stack.endpoint(tc="gold")
    endpoint.__class__ = endpoint_class
    wire = []
    send = stack.send_packet

    def record(packet):
        header = packet.header
        wire.append((sim.now, header.msg_id, header.pkt_num))
        return send(packet)

    stack.send_packet = record
    states = []

    def submit(dst, size, priority, tc, deadline_ns):
        states.append(endpoint.send_message(
            dst, 100, size, priority=priority, tc=tc,
            deadline_ns=deadline_ns))

    # A burst of one-packet messages on one route, past the scan cap.
    for _ in range(48):
        submit(receivers[0].address, 600, 1, "gold", None)
    for _ in range(160):
        dst = rng.choice(receivers).address
        size = rng.choice((300, MTU, 3 * MTU + 7, 7 * MTU))
        deadline = (rng.randrange(microseconds(10), microseconds(200))
                    if rng.random() < 0.3 else None)
        sim.at(rng.randrange(microseconds(400)), submit, dst, size,
               rng.randrange(3), rng.choice(("gold", "bronze")), deadline)
    def abort_one():
        pending = [state for state in states
                   if not state.failed and state.completed_at is None]
        if pending:
            endpoint.abort_message(rng.choice(pending).message.msg_id)

    for _ in range(25):
        sim.at(rng.randrange(microseconds(20), microseconds(500)), abort_one)
    if endpoint_class is MtpEndpoint:
        sim.add_event_hook(lambda *event: check_ready(endpoint))
    sim.run(until=milliseconds(3))
    return wire, states, endpoint


def _by_creation(wire, states):
    index = {state.message.msg_id: number
             for number, state in enumerate(states)}
    return [(time, index[msg_id], pkt_num) for time, msg_id, pkt_num
            in wire if msg_id in index]


@pytest.mark.parametrize("seed", range(4))
def test_send_sequence_matches_rescanning_drain(seed):
    wire, states, endpoint = run_workload(MtpEndpoint, seed)
    ref_wire, ref_states, reference = run_workload(_RescanEndpoint, seed)
    assert _by_creation(wire, states) == _by_creation(ref_wire, ref_states)
    assert ([(state.failed, state.fail_reason, state.completed_at)
             for state in states]
            == [(state.failed, state.fail_reason, state.completed_at)
                for state in ref_states])
    # The workload reaches every case the rotation has to get right.
    assert reference.cap_hits > 0
    cut_short = Counter(state.fail_reason for state in states
                        if state.failed and state.unsent_packets())
    assert cut_short["deadline"] and cut_short["aborted"]
    sent = {(state.message.priority, state.message.tc, state.dst_address)
            for state in states if state.next_to_send}
    assert len({key[0] for key in sent}) == 3
    assert len({key[1] for key in sent}) == 2
    assert len({key[2] for key in sent}) == 3
    assert any(state.message.n_packets > 1 and state.complete
               for state in states)


def test_abort_leaves_rotation_at_once():
    sim = Simulator()
    sender, receivers = _network(sim)
    stack = MtpStack(sender, init_window_segments=2)
    endpoint = stack.endpoint()
    states = [endpoint.send_message(receivers[0].address, 100, 600)
              for _ in range(6)]
    blocked = states[4].message.msg_id
    assert blocked in endpoint._ready[0]
    assert endpoint.abort_message(blocked)
    assert blocked not in endpoint._ready[0]
    check_ready(endpoint)
    for state in states:
        if not state.failed:
            endpoint.abort_message(state.message.msg_id)
    assert endpoint._ready == {} and endpoint._ready_routes == {}
