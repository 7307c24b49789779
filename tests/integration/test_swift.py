"""Swift variant: delay-based congestion control on the TCP substrate."""

import pytest

from repro.net import DropTailQueue, Network
from repro.sim import Simulator, gbps, mbps, microseconds, milliseconds
from repro.transport import ConnectionCallbacks, TcpStack
from tests.util import TransferApp, run_transfer, tcp_pair


class TestSwiftTransfer:
    def test_completes(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=gbps(1))
        app = run_transfer(sim, stack_a, stack_b, b.address, 1_000_000,
                           variant="swift", until=milliseconds(100))
        assert app.received == 1_000_000

    def test_fills_link_when_target_generous(self, sim):
        rate = gbps(1)
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=rate,
                                               delay=microseconds(5))
        app = run_transfer(sim, stack_a, stack_b, b.address, 2_000_000,
                           variant="swift", until=milliseconds(100),
                           swift_target_delay_ns=microseconds(50))
        duration = app.closed_at - app.connected_at
        goodput = 2_000_000 * 8 * 1e9 / duration
        assert goodput > 0.5 * rate

    def test_tight_target_keeps_queue_short(self, sim):
        """A tight delay target bounds queueing without ECN or loss."""

        def peak_queue(variant, **options):
            local = Simulator()
            net, a, b, stack_a, stack_b = tcp_pair(
                local, rate=mbps(500), delay=microseconds(5),
                queue_capacity=512)
            bottleneck = a.port_to(b)
            peak = [0]
            original = bottleneck.queue.enqueue

            def tracking(packet, now):
                result = original(packet, now)
                peak[0] = max(peak[0], len(bottleneck.queue))
                return result

            bottleneck.queue.enqueue = tracking
            run_transfer(local, stack_a, stack_b, b.address, 2_000_000,
                         variant=variant, until=milliseconds(200),
                         **options)
            return peak[0]

        swift_peak = peak_queue("swift",
                                swift_target_delay_ns=microseconds(20))
        reno_peak = peak_queue("reno")
        assert swift_peak < reno_peak

    def test_two_swift_flows_share(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim, rate=gbps(1))
        apps = []
        for port in (80, 81):
            app = TransferApp(sim)
            stack_b.listen(port,
                           lambda conn, app=app: app.receiver_callbacks(),
                           variant="swift")
            stack_a.connect(b.address, port, app.sender_callbacks(800_000),
                            variant="swift")
            apps.append(app)
        sim.run(until=milliseconds(100))
        assert all(app.received == 800_000 for app in apps)

    def test_unknown_variant_rejected(self, sim):
        net, a, b, stack_a, stack_b = tcp_pair(sim)
        with pytest.raises(ValueError):
            stack_a.connect(b.address, 80, ConnectionCallbacks(),
                            variant="cubic")
