"""Property tests: a port serializes a packet for exactly its wire time."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net import Network, Packet
from repro.sim import SECOND, Simulator, transmission_delay


@given(size=st.integers(min_value=1, max_value=1 << 20),
       rate_bps=st.integers(min_value=1, max_value=1 << 40))
@settings(max_examples=300)
def test_serialization_time_is_transmission_delay(size, rate_bps):
    # Only rates that do not divide the wire time evenly: there the port
    # must round up exactly as transmission_delay does.
    assume(size * 8 * SECOND % rate_bps != 0)
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    link = net.connect(a, b, rate_bps, 0)
    finished = []
    link.port_a.on_transmit = lambda packet: finished.append(sim.now)
    assert link.port_a.send(Packet(a.address, b.address, size, "test"))
    sim.run()
    assert finished == [transmission_delay(size, rate_bps)]
    assert link.port_a.busy_until == finished[0]
