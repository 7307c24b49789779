"""Table 1: feature comparison of transport approaches.

The paper evaluates twelve transport configurations against five
requirements for in-network computing.  This module encodes that table and
— where our implementations permit — *verifies* cells with executable
probes: MTP's column is demonstrated end-to-end (mutation offload, bounded
cache state, message independence, per-pathlet CC, per-TC isolation), and
representative failures of the baselines are demonstrated too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core import (EcnFeedbackSource, MtpStack, PathletRegistry)
from ..net import DropTailQueue, Network
from ..offloads import InNetworkCache, MutatingOffload, compressor
from ..sim import Simulator, gbps, microseconds, milliseconds
from .common import Claim, format_table

__all__ = ["REQUIREMENTS", "PAPER_TABLE", "render_paper_table",
           "run_probes", "PROBES", "run_baseline_probes",
           "BASELINE_LIMIT_PROBES", "run_table1"]

#: The five transport-level requirements of Section 2.2, in table order.
REQUIREMENTS = (
    "data_mutation",
    "low_buffering",
    "inter_message_independence",
    "multi_resource_cc",
    "multi_entity_isolation",
)

_REQUIREMENT_LABELS = {
    "data_mutation": "Mutation",
    "low_buffering": "Low buf/comp",
    "inter_message_independence": "Msg indep",
    "multi_resource_cc": "Multi-res CC",
    "multi_entity_isolation": "Isolation",
}

#: Table 1 of the paper.  True = check, False = cross, None = "—".
PAPER_TABLE: List[Tuple[str, Dict[str, Optional[bool]]]] = [
    ("TCP pass-through (many RPF)", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": False, "multi_resource_cc": True,
        "multi_entity_isolation": False}),
    ("TCP pass-through (one RPF)", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": False, "multi_resource_cc": False,
        "multi_entity_isolation": True}),
    ("TCP termination (many RPF)", {
        "data_mutation": True, "low_buffering": False,
        "inter_message_independence": False, "multi_resource_cc": True,
        "multi_entity_isolation": False}),
    ("TCP termination (one RPF)", {
        "data_mutation": True, "low_buffering": False,
        "inter_message_independence": True, "multi_resource_cc": False,
        "multi_entity_isolation": True}),
    ("DCTCP", {
        "data_mutation": False, "low_buffering": False,
        "inter_message_independence": False, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("UDP", {
        "data_mutation": True, "low_buffering": True,
        "inter_message_independence": True, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("QUIC", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": True, "multi_resource_cc": None,
        "multi_entity_isolation": False}),
    ("MPTCP", {
        "data_mutation": False, "low_buffering": False,
        "inter_message_independence": True, "multi_resource_cc": True,
        "multi_entity_isolation": False}),
    ("Swift", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": False, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("RDMA RC", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": False, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("RDMA UC", {
        "data_mutation": False, "low_buffering": True,
        "inter_message_independence": False, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("RDMA UD", {
        "data_mutation": True, "low_buffering": True,
        "inter_message_independence": True, "multi_resource_cc": False,
        "multi_entity_isolation": False}),
    ("MTP (this work)", {
        "data_mutation": True, "low_buffering": True,
        "inter_message_independence": True, "multi_resource_cc": True,
        "multi_entity_isolation": True}),
]


def _mark(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "Y" if value else "x"


def render_paper_table() -> str:
    """The Table-1 matrix as plain text."""
    headers = ["Transport"] + [_REQUIREMENT_LABELS[req]
                               for req in REQUIREMENTS]
    rows = [[name] + [_mark(features[req]) for req in REQUIREMENTS]
            for name, features in PAPER_TABLE]
    return format_table(headers, rows,
                        title="Table 1: transport feature comparison "
                              "(Y = supported, x = not, - = unclear)")


# ---------------------------------------------------------------------------
# Executable probes
# ---------------------------------------------------------------------------

def _mtp_pair(sim: Simulator):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    sw = net.add_switch("sw")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(a, sw, gbps(10), microseconds(2), queue_factory=queue)
    net.connect(sw, b, gbps(10), microseconds(2), queue_factory=queue)
    net.install_routes()
    return net, a, b, sw, MtpStack(a), MtpStack(b)


def probe_mtp_mutation() -> bool:
    """A compression offload halves a message in flight; both ends agree."""
    sim = Simulator()
    net, a, b, sw, stack_a, stack_b = _mtp_pair(sim)
    inbox = []
    stack_b.endpoint(port=1, on_message=lambda ep, msg: inbox.append(msg))
    sw.add_processor(MutatingOffload(sim, compressor(0.5), match_port=1))
    done = []
    stack_a.endpoint().send_message(b.address, 1, 20_000,
                                    on_complete=done.append)
    sim.run(until=milliseconds(20))
    return bool(done) and bool(inbox) and inbox[0].size == 10_000


def probe_mtp_bounded_buffering() -> bool:
    """A mutation offload never buffers more than one message's budget."""
    sim = Simulator()
    net, a, b, sw, stack_a, stack_b = _mtp_pair(sim)
    stack_b.endpoint(port=1)
    budget = 64 * 1024
    offload = MutatingOffload(sim, compressor(0.9), match_port=1,
                              buffer_budget=budget)
    peak = [0]
    original = offload.process

    def tracking(packet, switch, ingress):
        result = original(packet, switch, ingress)
        peak[0] = max(peak[0], offload.buffered_bytes)
        return result

    offload.process = tracking
    sw.add_processor(offload)
    sender = stack_a.endpoint()
    for _ in range(4):
        sender.send_message(b.address, 1, 40_000)   # mutated (within budget)
        sender.send_message(b.address, 1, 500_000)  # passes through
    sim.run(until=milliseconds(50))
    return peak[0] <= budget


def probe_mtp_message_independence() -> bool:
    """A later small message overtakes an earlier elephant."""
    sim = Simulator()
    net, a, b, sw, stack_a, stack_b = _mtp_pair(sim)
    order = []
    stack_b.endpoint(port=1,
                     on_message=lambda ep, msg: order.append(msg.size))
    sender = stack_a.endpoint()
    sender.send_message(b.address, 1, 2_000_000)
    sender.send_message(b.address, 1, 1_000)
    sim.run(until=milliseconds(50))
    return order and order[0] == 1_000


def probe_mtp_multi_resource_cc() -> bool:
    """Two pathlets end up with independently evolved windows."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    c = net.add_host("c")
    sw = net.add_switch("sw")
    queue = lambda: DropTailQueue(128, 20)
    net.connect(a, sw, gbps(10), microseconds(2), queue_factory=queue)
    fast = net.connect(sw, b, gbps(10), microseconds(2),
                       queue_factory=queue)
    slow = net.connect(sw, c, gbps(1), microseconds(2),
                       queue_factory=queue)
    net.install_routes()
    registry = PathletRegistry(sim)
    fast_id = registry.register(fast.port_a, EcnFeedbackSource(20))
    slow_id = registry.register(slow.port_a, EcnFeedbackSource(5))
    stack_a = MtpStack(a)
    for host in (b, c):
        MtpStack(host).endpoint(port=1)
    sender = stack_a.endpoint()
    for _ in range(40):
        sender.send_message(b.address, 1, 100_000)
        sender.send_message(c.address, 1, 100_000)
    sim.run(until=milliseconds(20))
    fast_window = stack_a.cc.window(fast_id, "default")
    slow_window = stack_a.cc.window(slow_id, "default")
    return fast_window != slow_window and sender.messages_completed > 0


def probe_mtp_isolation() -> bool:
    """Per-TC windows give two tenants on one pathlet distinct state."""
    sim = Simulator()
    net, a, b, sw, stack_a, stack_b = _mtp_pair(sim)
    registry = PathletRegistry(sim)
    registry.register(a.port_to(sw), EcnFeedbackSource(20))
    stack_b.endpoint(port=1)
    heavy = stack_a.endpoint(tc="heavy")
    light = stack_a.endpoint(tc="light")
    for _ in range(64):
        heavy.send_message(b.address, 1, 50_000, tc="heavy")
    light.send_message(b.address, 1, 50_000, tc="light")
    sim.run(until=milliseconds(20))
    manager = stack_a.cc
    keys = {key_tc for (_, key_tc) in manager._controllers}
    return {"heavy", "light"} <= keys


def probe_cache_bounded_state() -> bool:
    """The in-network cache serves hits with O(capacity) state only."""
    sim = Simulator()
    net, a, b, sw, stack_a, stack_b = _mtp_pair(sim)
    from ..apps import KvsClient, KvsServer
    server = KvsServer(stack_b.endpoint(port=700))
    server.put("k", "v", value_size=1000)
    cache = InNetworkCache(sim, service_port=700, capacity=4)
    cache.insert("k", "v", 1000)
    sw.add_processor(cache)
    client = KvsClient(stack_a.endpoint(), b.address, 700)
    client.get("k")
    sim.run(until=milliseconds(20))
    return (client.hits_by_origin() == {"cache": 1}
            and server.gets_served == 0 and len(cache) <= 4)


def probe_rdma_rc_breaks_on_multipath() -> bool:
    """Section 2.4: spraying an RDMA RC flow makes reordering look like
    loss (receiver discards + NAKs, go-back-N retransmits)."""
    from ..net import PacketSpraySelector, build_two_path
    from ..transport import RdmaStack
    sim = Simulator()
    net, sender, receiver, sw1, sw2 = build_two_path(
        sim, rate_a_bps=gbps(10), rate_b_bps=gbps(10),
        delay_a_ns=microseconds(5), delay_b_ns=microseconds(8),
        edge_rate_bps=gbps(40), edge_delay_ns=microseconds(1),
        queue_factory=lambda: DropTailQueue(256),
        selector=PacketSpraySelector("round_robin"))
    qp_r = RdmaStack(receiver).create_qp("rc")
    qp_s = RdmaStack(sender).create_qp("rc", rate_bps=gbps(10))
    qp_s.connect(receiver.address, qp_r.qp_number)
    qp_r.connect(sender.address, qp_s.qp_number)
    qp_s.send_message(200_000)
    sim.run(until=milliseconds(20))
    return qp_r.packets_discarded > 0 and qp_s.retransmissions > 0


def probe_tcp_stream_hol_blocking() -> bool:
    """A small framed message cannot overtake an elephant on one stream."""
    from ..apps.framing import TcpMessageFraming
    order = []
    framing = TcpMessageFraming(
        on_message=lambda fr, size, tag: order.append(tag))

    class NullConn:
        def send(self, nbytes):
            pass

    framing.bind_sender(NullConn())
    framing.send_message(1_000_000, "elephant")
    framing.send_message(100, "mouse")
    # Even with all of the mouse's bytes "arrived", delivery order is fixed.
    framing.on_data(None, 1_000_000 + 100)
    return order == ["elephant", "mouse"]


def probe_udp_has_no_congestion_control() -> bool:
    """UDP keeps blasting into a full queue; most datagrams die."""
    from ..transport import UdpStack
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, gbps(1), microseconds(5),
                queue_factory=lambda: DropTailQueue(8))
    net.install_routes()
    sock_b = UdpStack(b).socket(port=53)
    sock_a = UdpStack(a).socket()
    for _ in range(300):
        sock_a.sendto(b.address, 53, 1400)
    sim.run(until=milliseconds(20))
    return (sock_a.datagrams_sent == 300
            and sock_b.datagrams_received < 300)


#: Executable counterexamples for baseline rows (the table's x cells).
BASELINE_LIMIT_PROBES: Dict[str, Tuple[str, Callable[[], bool]]] = {
    "rdma_rc_multipath": (
        "RDMA RC treats sprayed-path reordering as loss (discard + NAK + "
        "go-back-N)", probe_rdma_rc_breaks_on_multipath),
    "tcp_stream_hol": (
        "a framed TCP stream cannot deliver a later message first",
        probe_tcp_stream_hol_blocking),
    "udp_no_cc": (
        "UDP never slows down at a full queue",
        probe_udp_has_no_congestion_control),
}


def run_baseline_probes() -> Dict[str, bool]:
    """Execute the baseline-limitation probes; returns name -> confirmed."""
    return {name: probe()
            for name, (_, probe) in BASELINE_LIMIT_PROBES.items()}


#: Probe registry: requirement -> (description, callable).
PROBES: Dict[str, Tuple[str, Callable[[], bool]]] = {
    "data_mutation": (
        "compression offload mutates an MTP message in flight",
        probe_mtp_mutation),
    "low_buffering": (
        "offloads stay within a fixed buffer budget; cache state is "
        "O(capacity)",
        lambda: probe_mtp_bounded_buffering() and probe_cache_bounded_state()),
    "inter_message_independence": (
        "a later small message completes before an earlier elephant",
        probe_mtp_message_independence),
    "multi_resource_cc": (
        "two pathlets evolve independent congestion windows",
        probe_mtp_multi_resource_cc),
    "multi_entity_isolation": (
        "congestion state is kept per (pathlet, traffic class)",
        probe_mtp_isolation),
}


def run_probes() -> Dict[str, bool]:
    """Execute every MTP capability probe; returns requirement -> passed."""
    return {requirement: probe()
            for requirement, (_, probe) in PROBES.items()}


def run_table1(config=None) -> Dict[str, Dict[str, bool]]:
    """Both probe sets; Table 1 has no scale, so ``config`` is unused."""
    return {"mtp": run_probes(), "baseline": run_baseline_probes()}


FULL = QUICK = None


def report(results) -> str:
    return render_paper_table()


def _probe_claim(column: str, name: str, description: str) -> Claim:
    return Claim(name, description, lambda r, c: r[column][name])


#: One claim per MTP capability probe, then one per baseline
#: counterexample (a confirmed limitation of that baseline's x cell).
CLAIMS = tuple(
    _probe_claim("mtp", requirement, description)
    for requirement, (description, _) in PROBES.items()) + tuple(
    _probe_claim("baseline", name, description)
    for name, (description, _) in BASELINE_LIMIT_PROBES.items())
