#!/usr/bin/env python3
"""Whole-figure benchmark over fig5, fig6 and fig7, with per-layer tracing.

Usage, from the repository root::

    python3 figbench/run.py --workload fig6_loadbalance --seed 1 \
        --seconds 10 --trace 0

Workloads: ``fig5_multipath``, ``fig6_loadbalance``, ``fig7_isolation``
(see ``workloads.py`` and ``NOTES.md``).  Every system of a figure runs
in a fresh interpreter (``child.py``), one at a time, from this single
process.

``--trace 0`` measures the end-to-end metrics:

1. set-up only, ``SETUP_ROUNDS`` times: interpreter start, import and
   topology construction, up to ``Simulator.run``;
2. a correctness pass under ``SanitizingSimulator`` + ``PacketLedger``,
   which must conserve every packet;
3. timed runs of the whole figure until ``--seconds`` have passed.

``--trace 1`` repeats step 3 and then makes one traced run, printing the
per-layer table and the per-layer metrics, and writing every span under
``.figbench/spans/``.

Each run of the figure is one operation.  It fails when a system raises
or when the figure's shape checks fail.  ``correct`` is false when a
system crashes, a packet leaks, or two runs of the same inputs render
different reports (the ``output_sha256`` printed above the result).
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".figbench"

#: Set-up-only rounds per invocation, beside the set-up of every timed run.
SETUP_ROUNDS = 3
#: Every invocation ends well inside three minutes.
DEADLINE_S = 165.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Child modes (see child.py) as the messages name them.
LABELS = {"run": "timed", "sanitize": "sanitized", "trace": "traced"}

END_TO_END = {"wall_s": "s", "wall_cal": "x", "host_ns_per_byte": "ns/B",
              "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A system's interpreter exited non-zero, timed out or printed junk."""


class Bench:
    """One invocation: its children, operations, digests and verdict."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.systems = workloads.SYSTEMS[workload]
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: List[str] = []
        #: Calibration-loop slices from every interpreter this run started.
        self.cal_slices: List[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def problem(self, message: str) -> None:
        print(f"INCORRECT: {message}")
        self.correct = False

    def child(self, system: str, mode: str,
              spans: Optional[Path] = None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise ChildFailed("out of time")
        spawn_ns = time.monotonic_ns()
        command = [sys.executable, str(HERE / "child.py"), self.workload,
                   system, str(self.seed), mode, str(spawn_ns)]
        if spans is not None:
            command.append(str(spans))
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{system} {mode}: timed out") from None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit {proc.returncode}")
            out = json.loads(lines[-1])
        except ValueError as error:
            raise ChildFailed(f"{system} {mode}: {error}\n"
                              f"{proc.stderr.strip()[-2000:]}") from None
        self.cal_slices += out["cal_slices"]
        return out

    def operation(self, mode: str,
                  spans_dir: Optional[Path] = None) -> Optional[dict]:
        """Run every system once; one operation.  None when it crashed."""
        self.attempted += 1
        outs = {}
        try:
            for system in self.systems:
                spans = (spans_dir / f"{system}.tsv.gz" if spans_dir
                         else None)
                outs[system] = self.child(system, mode, spans)
        except ChildFailed as error:
            self.failed += 1
            self.problem(f"{self.workload} {LABELS[mode]} run crashed: "
                         f"{error}")
            return None
        report = workloads.render_report(
            self.workload, self.seed,
            {system: out["outputs"] for system, out in outs.items()})
        digest = hashlib.sha256(report.encode()).hexdigest()
        if not self.digests:
            print(report, end="")
        elif digest != self.digests[0]:
            self.problem(f"{LABELS[mode]} run rendered a different report "
                         f"(sha256 {digest} != {self.digests[0]}):\n{report}")
        self.digests.append(digest)
        broken = workloads.shape_failures(
            self.workload, {system: out["outputs"]
                            for system, out in outs.items()})
        if broken:
            self.failed += 1
            print(f"shape check failed ({LABELS[mode]} run): "
                  f"{'; '.join(broken)}")
        return outs

    def timed_runs(self, seconds: float) -> List[dict]:
        """Untraced runs of the figure, as many as come closest to
        ``seconds`` (at least one)."""
        runs: List[dict] = []
        start = time.monotonic()
        count = 0
        while True:
            outs = self.operation("run")
            count += 1
            if outs is not None:
                runs.append(run_metrics(outs))
            now = time.monotonic()
            mean = (now - start) / count
            if (now - start + mean / 2 >= seconds
                    or now + 1.5 * mean + 5 > self.deadline):
                return runs


def run_metrics(outs: Dict[str, dict]) -> dict:
    """End-to-end numbers of one untraced run of the whole figure."""
    outputs = [out["outputs"] for out in outs.values()]
    run_wall = sum(out["run_wall_s"] for out in outs.values())
    return {
        "wall_s": sum(out["wall_s"] for out in outs.values()),
        "run_cpu_s": sum(out["run_cpu_s"] for out in outs.values()),
        "host_ns_per_byte": run_wall * 1e9 / sum(
            output["delivered_bytes"] for output in outputs),
        "setup_s": sum(out["setup_s"] for out in outs.values()),
        "peak_rss_mb": max(out["peak_rss_mb"] for out in outs.values()),
        "events": sum(out["events"] for out in outs.values()),
        "events_per_s": sum(out["events"] for out in outs.values())
        / run_wall,
        "systems": {system: {
            "setup_s": out["setup_s"], "run_s": out["run_wall_s"],
            "events": out["events"],
            "ns_per_byte": out["run_wall_s"] * 1e9
            / out["outputs"]["delivered_bytes"],
        } for system, out in outs.items()},
    }


def spread(values: List[float]) -> str:
    """``median [q1, q3] n=`` of ``values``."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> Dict[str, dict]:
    setups = []
    for _ in range(SETUP_ROUNDS):
        try:
            setups.append(sum(bench.child(system, "setup")["setup_s"]
                              for system in bench.systems))
        except ChildFailed as error:
            bench.problem(f"set-up crashed: {error}")

    sanitized = bench.operation("sanitize")
    for system, out in (sanitized or {}).items():
        print(f"{system}: {out['conservation']}")
        if not out["conservation_ok"]:
            bench.problem(f"{system} does not conserve packets")

    runs = bench.timed_runs(seconds)
    if not runs:
        return {}
    # Run-phase CPU time in units of the calibration loop, timed in the
    # same interpreters; pooling every slice of this invocation keeps the
    # yardstick's own noise out of the ratio.
    calibration = statistics.fmean(bench.cal_slices)
    for run in runs:
        run["wall_cal"] = run["run_cpu_s"] / calibration
    samples = {name: [run[name] for run in runs] for name in END_TO_END}
    samples["setup_s"] += setups
    print(f"\n{bench.workload}: end-to-end, median [q1, q3] over "
          f"fresh-interpreter runs")
    for name, unit in END_TO_END.items():
        print(f"  {name:<17} {unit:<5} {spread(samples[name])}")
    print("  per system (medians): setup_s, run phase s, events, ns/B")
    for system in bench.systems:
        values = [statistics.median(run["systems"][system][key]
                                    for run in runs)
                  for key in ("setup_s", "run_s", "events", "ns_per_byte")]
        print(f"    {system:<11} {values[0]:7.3f} {values[1]:8.3f} "
              f"{values[2]:9.0f} {values[3]:8.1f}")
    return {name: metric(statistics.median(samples[name]), unit)
            for name, unit in END_TO_END.items()}


def per_layer(bench: Bench, seconds: float) -> Dict[str, dict]:
    runs = bench.timed_runs(seconds)
    spans_dir = OUT_DIR / "spans" / bench.workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced = bench.operation("trace", spans_dir)
    if not runs or traced is None:
        return {}
    untraced_events = runs[0]["events"]
    # Sum every count over the figure's systems.
    total: Counter = Counter()
    self_ns: Counter = Counter()
    layer_calls: Counter = Counter()
    for out in traced.values():
        layers = dict(out["layers"])
        self_ns.update(layers.pop("self_ns"))
        layer_calls.update(layers.pop("calls_by_layer"))
        total.update(layers)
    total["self_ns"], total["calls_by_layer"] = self_ns, layer_calls
    if total["events"] != untraced_events:
        bench.problem(f"traced run executed {total['events']} events, "
                      f"untraced {untraced_events}")
    traced_wall = sum(out["wall_s"] for out in traced.values())
    run_s = sum(out["run_wall_s"] for out in traced.values())
    overhead = traced_wall / statistics.median(
        run["wall_s"] for run in runs)
    print_layer_table(bench, traced, total, run_s, overhead)
    print(f"{total['spans']} spans written to "
          f"{spans_dir.relative_to(ROOT)}/")

    self_s = {layer: ns / 1e9 for layer, ns in total["self_ns"].items()}

    def per(ns_layer: str, count: int) -> float:
        return total["self_ns"].get(ns_layer, 0) / count if count else 0.0

    tcp_sent = total["tcp_first_segs"] + total["tcp_retx"]
    values = {
        "sim.events": (total["events"], "count"),
        "sim.timer_events": (total["timer_events"], "count"),
        "sim.events_per_s": (statistics.median(
            run["events_per_s"] for run in runs), "1/s"),
        "sim.self_s": (self_s.get("sim", 0.0), "s"),
        "net.self_s": (self_s.get("net", 0.0), "s"),
        "net.calls": (total["net_calls"], "count"),
        "net.pkts_switched": (total["pkts_switched"], "count"),
        "net.drops": (total["drops"], "count"),
        "net.ns_per_pkt": (per("net", total["net_pkts"]), "ns"),
        "core.self_s": (self_s.get("core", 0.0), "s"),
        "core.pkts": (total["core_pkts"], "count"),
        "core.ns_per_pkt": (per("core", total["core_pkts"]), "ns"),
        "core.msgs_completed": (total["msgs_completed"], "count"),
        "core.retx": (total["core_retx"], "count"),
        "core.useful_ratio": (
            (total["core_data_pkts"] - total["core_retx"])
            / total["core_data_pkts"] if total["core_data_pkts"] else 0.0,
            "ratio"),
        "transport.self_s": (self_s.get("transport", 0.0), "s"),
        "transport.segs": (total["segs"], "count"),
        "transport.ns_per_seg": (per("transport", total["segs"]), "ns"),
        "transport.conns": (total["conns"], "count"),
        "transport.retx": (total["tcp_retx"], "count"),
        "transport.useful_ratio": (
            total["tcp_first_segs"] / tcp_sent if tcp_sent else 0.0,
            "ratio"),
        "offloads.self_s": (self_s.get("offloads", 0.0), "s"),
        "offloads.selects": (total["selects"], "count"),
        "apps.self_s": (self_s.get("apps", 0.0), "s"),
        "apps.msgs_generated": (total["msgs_generated"], "count"),
        "stats.self_s": (self_s.get("stats", 0.0), "s"),
        "trace.overhead": (overhead, "x"),
    }
    return {name: metric(value, unit)
            for name, (value, unit) in values.items()}


#: The count each layer's ns-per-unit divides by, and its name.
UNITS = {"sim": ("events", "event"), "net": ("net_pkts", "pkt"),
         "core": ("core_pkts", "pkt"), "transport": ("segs", "seg"),
         "offloads": ("selects", "select"),
         "apps": ("msgs_generated", "msg")}


def print_layer_table(bench: Bench, traced: Dict[str, dict], total: dict,
                      run_s: float, overhead: float) -> None:
    layers = sorted(total["self_ns"], key=lambda l: -total["self_ns"][l])
    print(f"\n{bench.workload}: per-layer self time in the traced run "
          f"(run phase {run_s:.3f} s, trace.overhead {overhead:.2f}x)")
    print(f"  {'layer':<10} {'self_s':>8} {'share':>6} {'calls':>9} "
          f"{'ns/unit':>12}  " + "  ".join(f"{s:>10}" for s in bench.systems))
    for layer in layers:
        ns = total["self_ns"][layer]
        key, unit = UNITS.get(layer, (None, "call"))
        count = total[key] if key else total["calls_by_layer"].get(layer, 0)
        per_unit = f"{ns / count:.0f}/{unit}" if count else "-"
        shares = []
        for system in bench.systems:
            layers_of = traced[system]["layers"]
            share = (layers_of["self_ns"].get(layer, 0)
                     / (traced[system]["run_wall_s"] * 1e9))
            shares.append(f"{100 * share:9.1f}%")
        print(f"  {layer:<10} {ns / 1e9:8.3f} {100 * ns / 1e9 / run_s:5.1f}% "
              f"{total['calls_by_layer'].get(layer, 0):9d} {per_unit:>12}  "
              + "  ".join(shares))
    accounted = sum(total["self_ns"].values()) / 1e9
    print(f"  layers together: {accounted:.3f} s of the "
          f"{run_s:.3f} s run phase")


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SYSTEMS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "experiments" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, started)
    if args.trace:
        metrics = per_layer(bench, args.seconds)
    else:
        metrics = end_to_end(bench, args.seconds)
    if not metrics:
        print("error: no run of the figure completed", file=sys.stderr)
        return 1
    print(f"output_sha256 {args.workload} {bench.digests[0]}")
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed")
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
