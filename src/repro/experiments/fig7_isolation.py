"""Figure 7: per-entity isolation across tenants.

Two tenants share a 100 Gbps / 10 us bottleneck.  Tenant 2 runs 8x as many
message streams as tenant 1.  Three systems:

* **shared** — DCTCP into one shared ECN queue: per-flow fairness hands
  tenant 2 roughly 8x the bandwidth (~80 vs ~10 Gbps in the paper).
* **separate** — per-tenant DRR queues: equal split, but one queue per
  tenant at the switch.
* **fair_share** — MTP: per-(pathlet, TC) congestion control at the hosts
  plus a single shared queue with per-entity ingress accounting
  (:class:`~repro.net.queues.FairShareQueue`).  Equal split with O(tenants)
  switch state instead of per-tenant queues.

The driver reports per-tenant goodput and the Jain fairness index.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import BlobSender, EcnFeedbackSource, MtpStack, PathletRegistry
from ..net import Network, RateMonitor
from ..policies import TrafficClassMap, isolation_queue_factory
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..stats import jain_fairness
from ..transport import ConnectionCallbacks, TcpStack
from .common import Claim, format_table

__all__ = ["Fig7Config", "Fig7Result", "run_fig7", "compare_fig7",
           "SYSTEMS"]

SYSTEMS = ("shared", "separate", "fair_share")


class Fig7Config:
    """Parameters of the isolation experiment (paper: 100 Gbps / 10 us)."""

    def __init__(self, bottleneck_rate_bps: int = gbps(100),
                 bottleneck_delay_ns: int = microseconds(10),
                 edge_rate_bps: int = gbps(100),
                 tenant1_streams: int = 2,
                 stream_ratio: int = 8,
                 buffer_packets: int = 256,
                 ecn_threshold: int = 20,
                 duration_ns: int = milliseconds(6),
                 warmup_ns: int = milliseconds(1),
                 tcp_min_rto_ns: int = milliseconds(1)):
        self.bottleneck_rate_bps = bottleneck_rate_bps
        self.bottleneck_delay_ns = bottleneck_delay_ns
        self.edge_rate_bps = edge_rate_bps
        self.tenant1_streams = tenant1_streams
        #: Tenant 2 runs ``stream_ratio`` times as many streams (paper: 8x).
        self.stream_ratio = stream_ratio
        self.buffer_packets = buffer_packets
        self.ecn_threshold = ecn_threshold
        self.duration_ns = duration_ns
        self.warmup_ns = warmup_ns
        self.tcp_min_rto_ns = tcp_min_rto_ns


class Fig7Result:
    """Per-tenant goodput under one isolation system."""

    def __init__(self, system: str, tenant_goodput_bps: Dict[str, float],
                 config: Fig7Config):
        self.system = system
        self.tenant_goodput_bps = tenant_goodput_bps
        self.config = config

    @property
    def fairness(self) -> float:
        return jain_fairness(list(self.tenant_goodput_bps.values()))

    def throughput_ratio(self) -> float:
        """Tenant 2's goodput over tenant 1's."""
        t1 = self.tenant_goodput_bps.get("tenant1", 0.0)
        t2 = self.tenant_goodput_bps.get("tenant2", 0.0)
        return t2 / t1 if t1 else float("inf")

    def __repr__(self) -> str:
        shares = ", ".join(f"{tenant}={bps / 1e9:.1f}G" for tenant, bps
                           in sorted(self.tenant_goodput_bps.items()))
        return f"<Fig7Result {self.system} {shares}>"


def _build(sim: Simulator, config: Fig7Config, system: str):
    net = Network(sim)
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    queue_factory = isolation_queue_factory(system, config.buffer_packets,
                                            config.ecn_threshold)
    net.connect(sw1, sw2, config.bottleneck_rate_bps,
                config.bottleneck_delay_ns, queue_factory=queue_factory)
    hosts = {}
    for tenant in ("tenant1", "tenant2"):
        sender = net.add_host(f"{tenant}_tx")
        receiver = net.add_host(f"{tenant}_rx")
        net.connect(sender, sw1, config.edge_rate_bps, microseconds(1))
        net.connect(sw2, receiver, config.edge_rate_bps, microseconds(1))
        hosts[tenant] = (sender, receiver)
    net.install_routes()
    bottleneck_port = sw1.port_to(sw2)
    return net, hosts, bottleneck_port


def _stream_counts(config: Fig7Config) -> Dict[str, int]:
    return {"tenant1": config.tenant1_streams,
            "tenant2": config.tenant1_streams * config.stream_ratio}


def run_fig7(system: str, config: Optional[Fig7Config] = None,
             sim: Optional[Simulator] = None) -> Fig7Result:
    """Run one isolation system and measure per-tenant goodput."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected {SYSTEMS}")
    config = config or Fig7Config()
    sim = sim or Simulator()
    net, hosts, bottleneck_port = _build(sim, config, system)
    monitors = {tenant: RateMonitor(sim, microseconds(100))
                for tenant in hosts}
    streams = _stream_counts(config)

    if system == "fair_share":
        tc_map = TrafficClassMap({"tenant1": 0, "tenant2": 1})
        registry = PathletRegistry(sim)
        registry.register(bottleneck_port,
                          EcnFeedbackSource(config.ecn_threshold),
                          tc_classifier=tc_map.classify)
        for tenant, (sender, receiver) in hosts.items():
            sender_stack = MtpStack(sender)
            receiver_stack = MtpStack(receiver)
            monitor = monitors[tenant]

            def on_message(endpoint, message, monitor=monitor):
                monitor.record_bytes(message.size)

            receiver_stack.endpoint(port=100, on_message=on_message)
            endpoint = sender_stack.endpoint(tc=tenant)
            for _ in range(streams[tenant]):
                BlobSender(endpoint, receiver.address, 100,
                           total_bytes=1 << 40, window_messages=128)
    else:
        for tenant, (sender, receiver) in hosts.items():
            sender_stack = TcpStack(sender)
            receiver_stack = TcpStack(receiver)
            monitor = monitors[tenant]
            receiver_stack.listen(
                80, lambda conn, monitor=monitor: ConnectionCallbacks(
                    on_data=lambda c, nbytes: monitor.record_bytes(nbytes)),
                variant="dctcp", min_rto_ns=config.tcp_min_rto_ns,
                entity=tenant)
            for _ in range(streams[tenant]):
                sender_stack.connect(
                    receiver.address, 80,
                    ConnectionCallbacks(
                        on_connected=lambda conn: conn.send(1 << 40)),
                    variant="dctcp", min_rto_ns=config.tcp_min_rto_ns,
                    entity=tenant)

    sim.run(until=config.duration_ns)
    goodput = {tenant: monitor.mean_bps(config.warmup_ns,
                                        config.duration_ns)
               for tenant, monitor in monitors.items()}
    return Fig7Result(system, goodput, config)


def compare_fig7(config: Optional[Fig7Config] = None
                 ) -> Dict[str, Fig7Result]:
    """Run all three systems with identical tenant workloads."""
    config = config or Fig7Config()
    return {system: run_fig7(system, config) for system in SYSTEMS}


FULL = Fig7Config(duration_ns=milliseconds(4))
QUICK = Fig7Config(duration_ns=milliseconds(3))


def report(results) -> str:
    rows = [[result.system,
             f"{result.tenant_goodput_bps['tenant1'] / 1e9:.1f}",
             f"{result.tenant_goodput_bps['tenant2'] / 1e9:.1f}",
             f"{result.throughput_ratio():.2f}",
             f"{result.fairness:.3f}"]
            for result in results.values()]
    return format_table(
        ["system", "tenant1 (Gbps)", "tenant2 (Gbps)", "t2/t1", "Jain"],
        rows,
        title="Figure 7: per-entity isolation, tenant2 runs 8x streams")


def _utilization(system: str):
    return Claim(f"{system} uses > 70% of the bottleneck",
                 "the link stays utilized",
                 lambda r, c: sum(r[system].tenant_goodput_bps.values())
                 > 0.7 * c.bottleneck_rate_bps)


CLAIMS = (
    Claim("shared t2/t1 > 4",
          "a shared queue hands tenant2 about its 8x stream ratio",
          lambda r, c: r["shared"].throughput_ratio() > 4.0),
    Claim("separate t2/t1 in (0.7, 1.4)",
          "per-tenant queues restore a ~50/50 split",
          lambda r, c: 0.7 < r["separate"].throughput_ratio() < 1.4),
    Claim("fair_share t2/t1 in (0.7, 1.4)",
          "MTP's fair-share queue restores a ~50/50 split",
          lambda r, c: 0.7 < r["fair_share"].throughput_ratio() < 1.4),
    Claim("separate Jain > 0.95", "per-tenant queues are fair",
          lambda r, c: r["separate"].fairness > 0.95),
    Claim("fair_share Jain > 0.95", "MTP's fair-share queue is fair",
          lambda r, c: r["fair_share"].fairness > 0.95),
) + tuple(_utilization(system) for system in SYSTEMS)
