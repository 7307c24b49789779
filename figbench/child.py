"""Run one system of one workload in this (fresh) interpreter.

Started by ``run.py``, never imported.  Usage::

    PYTHONPATH=src python3 figbench/child.py WORKLOAD SYSTEM SEED MODE \
        SPAWN_NS [SPANS_PATH]

``MODE`` is one of

* ``setup``: build the topology and stacks, stop as ``Simulator.run`` is
  entered, and report the set-up time only;
* ``run``: the timed run;
* ``sanitize``: run under ``SanitizingSimulator`` with a ``PacketLedger``
  and report the conservation audit;
* ``trace``: run under the per-layer tracer and write the spans.

``SPAWN_NS`` is the parent's ``time.monotonic_ns()`` just before it
started this interpreter, so set-up time includes interpreter start.  The
last line of stdout is one JSON object with the outputs and timings.
"""

import gc
import json
import resource
import sys
import time

_ARGS = sys.argv[1:]
_SPAWN_NS = int(_ARGS[4])

import repro.experiments  # noqa: E402,F401  (set-up includes this import)
from repro.sim import Simulator  # noqa: E402

import workloads  # noqa: E402


class _Hop:
    __slots__ = ("count", "peer")

    def __init__(self):
        self.count = 0
        self.peer = self

    def hop(self, amount: int) -> "_Hop":
        self.count += amount
        return self.peer


def calibrate(slices: int = 8, steps: int = 80_000) -> list:
    """CPU seconds of each slice of a fixed pure-Python loop.

    The loop does what the simulator does most (method calls on slotted
    objects, small dict updates) with the garbage collector off, so its
    time tracks the interpreter's speed and not the size of the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    times = []
    try:
        for _ in range(slices):
            node, table = _Hop(), dict.fromkeys(range(256), 0)
            start = time.process_time()
            for i in range(steps):
                node = node.hop(i & 7)
                table[i & 255] += 1
            times.append(time.process_time() - start)
    finally:
        if enabled:
            gc.enable()
    return times


class SetupDone(Exception):
    """Raised at ``Simulator.run`` entry in ``setup`` mode."""


class RunTimer:
    """Mixin: record set-up end, calibrate, then time the run phase."""

    stop_at_entry = False
    tracer = None

    def run(self, until=None):
        marks = self.marks
        marks["run_entry_ns"] = time.monotonic_ns()
        if self.stop_at_entry:
            raise SetupDone()
        marks["cal_before_s"] = calibrate()
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
            tracer.origin_ns = time.perf_counter_ns()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            return super().run(until)
        finally:
            marks["run_wall_s"] = time.perf_counter() - wall0
            marks["run_cpu_s"] = time.process_time() - cpu0
            marks["run_exit_ns"] = time.monotonic_ns()
            if tracer is not None:
                tracer.active = False


class TimedSimulator(RunTimer, Simulator):
    pass


def layer_report(tracer, sim, run_wall_s: float) -> dict:
    """Per-layer self time and counts of one traced run."""
    from repro.net import Switch

    summary = tracer.summary()
    self_ns = summary["self_ns"]
    # Time outside every event (the kernel's loop) is the kernel's.
    self_ns["sim"] = (self_ns.get("sim", 0)
                      + round(run_wall_s * 1e9) - summary["events_ns"])
    switched = drops = 0
    for network in tracer.objects["networks"]:
        for node in network.nodes.values():
            counters = node.counters
            if isinstance(node, Switch):
                switched += counters.get("forwarded")
            for reason in ("dropped", "no_route", "switch_down_drops",
                           "misrouted", "checksum_drops", "no_protocol"):
                drops += counters.get(reason)
    endpoints = tracer.objects["mtp_endpoints"]
    connections = tracer.objects["tcp_connections"]
    calls = summary["calls"]
    return {
        "self_ns": self_ns,
        "calls_by_layer": summary["calls_by_layer"],
        "events": sim.events_executed,
        "timer_events": summary["events_by_layer"].get("sim", 0),
        "net_calls": sum(calls.get(name, 0) for name in (
            "Host.receive", "Switch.receive", "Host.send", "Port.send")),
        "net_pkts": (calls.get("Host.receive", 0)
                     + calls.get("Switch.receive", 0)),
        "pkts_switched": switched,
        "drops": drops,
        "core_pkts": calls.get("MtpStack.handle_packet", 0),
        "msgs_completed": sum(e.messages_completed for e in endpoints),
        "core_retx": sum(e.retransmissions for e in endpoints),
        "core_data_pkts": sum(e.data_packets_sent for e in endpoints),
        "segs": calls.get("TcpStack.handle_packet", 0),
        "conns": len(tracer.objects["tcp_connects"]),
        "tcp_retx": sum(c.retransmissions for c in connections),
        # Every send is cut into MSS-sized segments, so this counts the
        # first transmissions exactly.
        "tcp_first_segs": sum(-(-c.bytes_sent // c.mss)
                              for c in connections),
        "selects": calls.get("MessageAwareSelector.select", 0),
        "msgs_generated": sum(w.generated for w in
                              tracer.objects["workloads"]),
        "spans": len(tracer.start),
    }


def main() -> None:
    workload, system, seed, mode = _ARGS[0], _ARGS[1], int(_ARGS[2]), _ARGS[3]
    out = {}
    marks = {}
    tracer = None
    if mode == "sanitize":
        from repro.analysis.sanitize import PacketLedger, SanitizingSimulator
        ledger = PacketLedger()
        sim = SanitizingSimulator(ledger=ledger)
    elif mode == "trace":
        from tracing import Tracer, TracingSimulator

        class TimedTracingSimulator(RunTimer, TracingSimulator):
            pass

        tracer = Tracer()
        tracer.install()
        sim = TimedTracingSimulator(tracer)
    else:
        sim = TimedSimulator()
        sim.stop_at_entry = mode == "setup"
    if mode != "sanitize":
        sim.marks = marks
    try:
        outputs = workloads.run_system(workload, system, seed, sim)
    except SetupDone:
        out["setup_s"] = (marks["run_entry_ns"] - _SPAWN_NS) / 1e9
        out["cal_slices"] = calibrate()
        print(json.dumps(out))
        return
    done_ns = time.monotonic_ns()
    out["outputs"] = outputs
    out["events"] = sim.events_executed
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    # Calibration slices from just before the run and just after it.
    out["cal_slices"] = marks.get("cal_before_s", []) + calibrate()
    if mode == "sanitize":
        report = ledger.finalize(sim)
        out["conservation_ok"] = report.ok
        out["conservation"] = report.summary()
        print(json.dumps(out))
        return
    out["setup_s"] = (marks["run_entry_ns"] - _SPAWN_NS) / 1e9
    out["run_wall_s"] = marks["run_wall_s"]
    out["run_cpu_s"] = marks["run_cpu_s"]
    # Wall time of this system: set-up, run and result extraction, without
    # the calibration loops.
    out["wall_s"] = (out["setup_s"] + (done_ns - marks["run_exit_ns"]) / 1e9
                     + marks["run_wall_s"])
    if tracer is not None:
        out["layers"] = layer_report(tracer, sim, marks["run_wall_s"])
        tracer.write_spans(_ARGS[5])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
