"""Links, ports, hosts, switches: delivery, timing, forwarding, offloads."""

import pytest

from repro.net import (DropTailQueue, Host, Network, Packet, Switch)
from repro.sim import Simulator, gbps, microseconds, transmission_delay


class Sink:
    """Protocol handler that records received packets with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_packet(self, packet):
        self.received.append((self.sim.now, packet))


def two_hosts(sim, rate=gbps(10), delay=microseconds(1)):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate, delay)
    net.install_routes()
    sink = Sink(sim)
    b.register_protocol("test", sink)
    return net, a, b, sink


class TestPointToPoint:
    def test_delivery(self, sim):
        net, a, b, sink = two_hosts(sim)
        packet = Packet(a.address, b.address, 1500, "test")
        a.send(packet)
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0][1] is packet

    def test_latency_is_tx_plus_propagation(self, sim):
        net, a, b, sink = two_hosts(sim, rate=gbps(10), delay=microseconds(1))
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        expected = transmission_delay(1500, gbps(10)) + microseconds(1)
        assert sink.received[0][0] == expected

    def test_back_to_back_packets_serialize(self, sim):
        net, a, b, sink = two_hosts(sim, rate=gbps(10), delay=0)
        for _ in range(3):
            a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        times = [time for time, _ in sink.received]
        tx = transmission_delay(1500, gbps(10))
        assert times == [tx, 2 * tx, 3 * tx]

    def test_queue_overflow_drops(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, gbps(1), 0, queue_factory=lambda: DropTailQueue(2))
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        sent = sum(a.send(Packet(a.address, b.address, 1500, "test"))
                   for _ in range(10))
        sim.run()
        # One immediately in flight + 2 queued.
        assert sent == 3
        assert len(sink.received) == 3

    def test_unknown_protocol_counted(self, sim):
        net, a, b, sink = two_hosts(sim)
        a.send(Packet(a.address, b.address, 100, "mystery"))
        sim.run()
        assert b.counters.get("no_protocol") == 1

    def test_misaddressed_packet_ignored(self, sim):
        net, a, b, sink = two_hosts(sim)
        a.send(Packet(a.address, 9999, 100, "test"))
        sim.run()
        assert sink.received == []
        assert b.counters.get("misrouted") == 1


class TestSwitchForwarding:
    def build_line(self, sim):
        """a -- sw -- b"""
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        sw = net.add_switch("sw")
        net.connect(a, sw, gbps(10), 0)
        net.connect(sw, b, gbps(10), 0)
        net.install_routes()
        sink = Sink(sim)
        b.register_protocol("test", sink)
        return net, a, b, sw, sink

    def test_forwarding(self, sim):
        net, a, b, sw, sink = self.build_line(sim)
        a.send(Packet(a.address, b.address, 1500, "test"))
        sim.run()
        assert len(sink.received) == 1
        assert sw.counters.get("forwarded") == 1

    def test_no_route_counted(self, sim):
        net, a, b, sw, sink = self.build_line(sim)
        a.send(Packet(a.address, 12345, 100, "test"))
        sim.run()
        assert sw.counters.get("no_route") == 1

    def test_hop_recording(self, sim):
        net, a, b, sw, sink = self.build_line(sim)
        sw.record_hops = True
        packet = Packet(a.address, b.address, 100, "test")
        a.send(packet)
        sim.run()
        assert packet.hops == ["sw"]

    def test_consuming_processor(self, sim):
        net, a, b, sw, sink = self.build_line(sim)

        class Consumer:
            def process(self, packet, switch, ingress):
                return []

        sw.add_processor(Consumer())
        a.send(Packet(a.address, b.address, 100, "test"))
        sim.run()
        assert sink.received == []
        assert sw.counters.get("consumed") == 1

    def test_rewriting_processor(self, sim):
        net, a, b, sw, sink = self.build_line(sim)

        class Doubler:
            def process(self, packet, switch, ingress):
                clone = Packet(packet.src, packet.dst, packet.size,
                               packet.protocol)
                return [packet, clone]

        sw.add_processor(Doubler())
        a.send(Packet(a.address, b.address, 100, "test"))
        sim.run()
        assert len(sink.received) == 2


class TestPortLookups:
    def test_port_to_neighbor(self, sim):
        net, a, b, _ = two_hosts(sim)
        assert a.port_to(b).peer is b
        with pytest.raises(LookupError):
            a.port_to(a)

    def test_send_without_ports(self, sim):
        host = Host(sim, "lonely")
        with pytest.raises(RuntimeError):
            host.send(Packet(host.address, 2, 100, "test"))
