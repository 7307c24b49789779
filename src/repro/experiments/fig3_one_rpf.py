"""Figure 3: one request per flow breaks congestion control.

Four hosts on a 100 Gbps dumbbell send 16 KB messages.  With a *new TCP
connection per message*, every message pays a handshake and starts in
initial-window slow start with no congestion history: aggregate throughput
is noisy and the link underutilized.  A persistent connection per host
(many requests per flow) keeps congestion state and fills the link — but,
as Section 2 argues, then loses inter-message independence.

The driver runs one mode and reports the throughput time series;
:func:`compare_fig3` runs "per_message" against "persistent".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net import DropTailQueue, RateMonitor, build_dumbbell
from ..sim import Simulator, gbps, microseconds, milliseconds
from ..transport import ConnectionCallbacks, TcpStack
from .common import Claim, format_table, series_stats

__all__ = ["Fig3Config", "Fig3Result", "run_fig3", "compare_fig3"]


class Fig3Config:
    """Parameters of the one-request-per-flow experiment."""

    def __init__(self, n_hosts: int = 4, link_rate_bps: int = gbps(100),
                 link_delay_ns: int = microseconds(1),
                 message_bytes: int = 16 * 1024,
                 buffer_packets: int = 128,
                 sample_interval_ns: int = microseconds(32),
                 duration_ns: int = milliseconds(4),
                 warmup_ns: int = microseconds(200),
                 tcp_min_rto_ns: int = milliseconds(1),
                 concurrency: int = 32):
        self.n_hosts = n_hosts
        self.link_rate_bps = link_rate_bps
        self.link_delay_ns = link_delay_ns
        self.message_bytes = message_bytes
        self.buffer_packets = buffer_packets
        self.sample_interval_ns = sample_interval_ns
        self.duration_ns = duration_ns
        self.warmup_ns = warmup_ns
        self.tcp_min_rto_ns = tcp_min_rto_ns
        #: Closed-loop message streams per host (per_message mode opens a
        #: fresh connection per message on each stream).
        self.concurrency = concurrency


class Fig3Result:
    """Aggregate throughput series for one connection policy."""

    def __init__(self, mode: str, series: List[Tuple[int, float]],
                 messages_completed: int, config: Fig3Config):
        self.mode = mode
        self.series = series
        self.messages_completed = messages_completed
        self.config = config
        self.stats = series_stats(series, warmup_ns=config.warmup_ns)

    @property
    def mean_throughput_bps(self) -> float:
        return self.stats["mean"]

    @property
    def throughput_cov(self) -> float:
        """Coefficient of variation — the "noisy behaviour" of Figure 3."""
        return self.stats["cov"]

    def __repr__(self) -> str:
        return (f"<Fig3Result {self.mode} "
                f"mean={self.mean_throughput_bps / 1e9:.1f}Gbps "
                f"cov={self.throughput_cov:.2f}>")


class _PerMessageSender:
    """Opens a fresh connection for every message, back to back."""

    def __init__(self, sim: Simulator, stack: TcpStack, dst_address: int,
                 config: Fig3Config, counter: List[int]):
        self.sim = sim
        self.stack = stack
        self.dst_address = dst_address
        self.config = config
        self.counter = counter
        self._launch()

    def _launch(self) -> None:
        def on_connected(conn):
            conn.send(self.config.message_bytes)
            conn.close()

        def on_finished(conn):
            self.counter[0] += 1
            self._launch()  # next message, next connection

        conn = self.stack.connect(
            self.dst_address, 80,
            ConnectionCallbacks(on_connected=on_connected),
            min_rto_ns=self.config.tcp_min_rto_ns)
        conn.on_finished = on_finished


def run_fig3(mode: str, config: Optional[Fig3Config] = None,
             sim: Optional[Simulator] = None) -> Fig3Result:
    """Run with ``mode`` in {"per_message", "persistent"}."""
    if mode not in ("per_message", "persistent"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or Fig3Config()
    sim = sim or Simulator()
    net, senders, receivers = build_dumbbell(
        sim, config.n_hosts, edge_rate_bps=config.link_rate_bps,
        bottleneck_rate_bps=config.link_rate_bps,
        delay_ns=config.link_delay_ns,
        queue_factory=lambda: DropTailQueue(config.buffer_packets))
    monitor = RateMonitor(sim, config.sample_interval_ns)
    completed = [0]
    for receiver in receivers:
        stack = TcpStack(receiver)
        stack.listen(80, lambda conn: ConnectionCallbacks(
            on_data=lambda c, nbytes: monitor.record_bytes(nbytes)),
            min_rto_ns=config.tcp_min_rto_ns)
    for sender, receiver in zip(senders, receivers):
        stack = TcpStack(sender)
        if mode == "per_message":
            for _ in range(config.concurrency):
                _PerMessageSender(sim, stack, receiver.address, config,
                                  completed)
        else:
            # One long-lived connection streaming back-to-back messages.
            def on_connected(conn, counter=completed):
                def send_next():
                    if conn.send_backlog < 4 * config.message_bytes:
                        conn.send(config.message_bytes)
                        counter[0] += 1
                    sim.schedule(microseconds(1), send_next)

                send_next()

            stack.connect(receiver.address, 80,
                          ConnectionCallbacks(on_connected=on_connected),
                          min_rto_ns=config.tcp_min_rto_ns)
    sim.run(until=config.duration_ns)
    return Fig3Result(mode, monitor.series_bps(config.duration_ns),
                      completed[0], config)


def compare_fig3(config: Optional[Fig3Config] = None):
    """Run both connection policies; returns a dict by mode."""
    config = config or Fig3Config()
    return {mode: run_fig3(mode, config)
            for mode in ("per_message", "persistent")}


FULL = Fig3Config(duration_ns=milliseconds(3))
QUICK = Fig3Config(duration_ns=milliseconds(2))


def report(results) -> str:
    rows = [[result.mode, f"{result.mean_throughput_bps / 1e9:.1f}",
             f"{result.throughput_cov:.3f}", result.messages_completed]
            for result in results.values()]
    return format_table(
        ["mode", "mean throughput (Gbps)", "CoV", "messages"], rows,
        title="Figure 3: 16KB messages, connection-per-message vs "
              "persistent")


CLAIMS = (
    Claim("per-message throughput < 0.95x persistent",
          "a connection per message underutilizes the link",
          lambda r, c: r["per_message"].mean_throughput_bps
          < 0.95 * r["persistent"].mean_throughput_bps),
    Claim("per-message CoV > persistent CoV",
          "without congestion history throughput is noisy",
          lambda r, c: r["per_message"].throughput_cov
          > r["persistent"].throughput_cov),
    Claim("per-message completes fewer messages",
          "handshakes and slow start cost completed requests",
          lambda r, c: r["per_message"].messages_completed
          < r["persistent"].messages_completed),
)
