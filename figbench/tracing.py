"""Outside-in per-layer tracing of one simulator run.

The tracer changes no file under ``src/``.  It works from outside:

* it wraps public entry points of each layer at class level (each call
  becomes a span of that layer), and the callback handed to every
  ``Timer`` (a span of the layer of the callback's module);
* it registers a ``Simulator.add_event_hook`` hook, which opens one root
  span per event, attributed to the layer of the event callback's module
  (``repro.net`` for the private ``Port`` link events, ``repro.sim`` for
  timer wake-ups);
* its :class:`TracingSimulator` wraps each scheduled callback in a
  trampoline that closes the event's root span when the callback returns,
  so the kernel's own loop time (popping the next event, bookkeeping)
  falls outside every event and is charged to ``sim``.

A span's self time is its duration minus the durations of its child
spans, so every layer's self time plus the kernel's loop time adds up to
the run phase.  While the run is traced, a span costs four appends and
two clock reads; self times and call counts are worked out from the
spans afterwards.  Spans stay in memory, in column arrays, until
:meth:`Tracer.write_spans` writes them out.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.sim import Simulator


def layer_of(callback: Callable) -> str:
    """The ``repro`` sub-package defining ``callback`` ("other" if none)."""
    module = getattr(callback, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


def qualname_of(callback: Callable) -> str:
    func = getattr(callback, "__func__", callback)
    return getattr(func, "__qualname__", type(callback).__name__)


class Tracer:
    """Span recorder for one run; see the module docstring."""

    def __init__(self) -> None:
        self.active = False
        #: A site is one (layer, name) a span can come from.
        self.sites: List[Tuple[str, str]] = []
        self._site_ids: Dict[Tuple[str, str], int] = {}
        self._event_sites: Dict[object, int] = {}
        # Span columns: parent span id (-1 for an event), site, clock.
        self.parent = array("i")
        self.site = array("H")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []
        self.origin_ns = 0
        self.objects: Dict[str, list] = defaultdict(list)

    def site_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._site_ids:
            self._site_ids[key] = len(self.sites)
            self.sites.append(key)
        return self._site_ids[key]

    # -- recording (hot path) --------------------------------------------

    def wrap(self, func: Callable, layer: str, name: str) -> Callable:
        """``func`` as a span of ``layer`` while the run phase is traced."""
        site = self.site_id(layer, name)
        opened, parents = self._open, self.parent
        sites, starts, ends = self.site, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            sid = len(starts)
            parents.append(opened[-1] if opened else -1)
            sites.append(site)
            ends.append(0)
            opened.append(sid)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[opened.pop()] = clock()

        return traced

    def on_event(self, when: int, callback: Callable, args: tuple) -> None:
        """Event hook: open the event's root span (see TracingSimulator)."""
        target = args[0]
        func = getattr(target, "__func__", target)
        key = getattr(func, "__code__", None) or type(target)
        site = self._event_sites.get(key)
        if site is None:
            site = self.site_id(layer_of(target), qualname_of(target))
            self._event_sites[key] = site
        self._open.append(len(self.start))
        self.parent.append(-1)
        self.site.append(site)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def end_event(self) -> None:
        self.end[self._open.pop()] = time.perf_counter_ns()

    # -- installation ----------------------------------------------------

    def patch(self, owner, attribute: str, layer: str) -> None:
        """Make ``owner.attribute`` a span of ``layer``."""
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(
            original, layer, f"{owner.__name__}.{attribute}"))

    def collect(self, owner, attribute: str, kind: str) -> None:
        """Keep every object ``owner.attribute`` returns (or initialises)."""
        original = owner.__dict__[attribute]
        store = self.objects[kind]

        if attribute == "__init__":
            def collecting(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                store.append(obj)
        else:
            def collecting(*args, **kwargs):
                obj = original(*args, **kwargs)
                store.append(obj)
                return obj
        setattr(owner, attribute, collecting)

    def install(self) -> None:
        """Wrap each layer's entry points (before the topology exists).

        The wrappers stay for the life of the interpreter, which runs one
        system and exits.
        """
        from repro.apps.workload import MessageWorkload
        from repro.core import MtpEndpoint, MtpStack
        from repro.net import Host, Network, Port, RateMonitor, Switch
        from repro.offloads.lb import MessageAwareSelector
        from repro.sim import Timer
        from repro.stats import FctCollector
        from repro.transport import TcpConnection, TcpStack

        for owner, attribute in ((Host, "receive"), (Switch, "receive"),
                                 (Host, "send"), (Port, "send")):
            self.patch(owner, attribute, "net")
        self.patch(MtpStack, "handle_packet", "core")
        self.patch(MtpEndpoint, "send_message", "core")
        self.patch(TcpStack, "handle_packet", "transport")
        self.patch(TcpStack, "connect", "transport")
        self.patch(TcpConnection, "send", "transport")
        self.patch(MessageAwareSelector, "select", "offloads")
        # The monitors' record calls, wherever the monitor lives.
        self.patch(RateMonitor, "record_bytes", "stats")
        self.patch(FctCollector, "record", "stats")
        # Collectors go on top of spans, so they see every call, traced
        # or not (connections are opened during set-up).
        self.collect(TcpStack, "connect", "tcp_connects")
        self.collect(TcpConnection, "__init__", "tcp_connections")
        self.collect(MtpStack, "endpoint", "mtp_endpoints")
        self.collect(Network, "__init__", "networks")
        self.collect(MessageWorkload, "__init__", "workloads")

        timer_init = Timer.__dict__["__init__"]
        wrap = self.wrap

        def traced_timer_init(timer, sim, callback):
            timer_init(timer, sim, wrap(callback, layer_of(callback),
                                        qualname_of(callback)))

        Timer.__init__ = traced_timer_init

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time and spans per layer, calls per site, time in events."""
        self_ns = [0] * len(self.sites)
        calls = [0] * len(self.sites)
        events_ns = 0
        site = self.site
        for parent, here, start, end in zip(self.parent, site, self.start,
                                            self.end):
            duration = end - start
            self_ns[here] += duration
            calls[here] += 1
            if parent < 0:
                events_ns += duration
            else:
                self_ns[site[parent]] -= duration
        layer_self: Dict[str, int] = defaultdict(int)
        layer_calls: Dict[str, int] = defaultdict(int)
        events: Dict[str, int] = defaultdict(int)
        roots = set(self._event_sites.values())
        for index, (layer, _) in enumerate(self.sites):
            layer_self[layer] += self_ns[index]
            layer_calls[layer] += calls[index]
            if index in roots:
                events[layer] += calls[index]
        return {
            "self_ns": dict(layer_self),
            "calls_by_layer": dict(layer_calls),
            "calls": {name: calls[index]
                      for index, (_, name) in enumerate(self.sites)},
            "events_by_layer": dict(events),
            "events_ns": events_ns,
        }

    def write_spans(self, path) -> int:
        """Write every span as gzipped TSV; returns the span count."""
        labels = [f"{layer}\t{name}" for layer, name in self.sites]
        origin = self.origin_ns
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tlayer\tname\tstart_ns\tdur_ns\n")
            for sid, (parent, site, start, end) in enumerate(zip(
                    self.parent, self.site, self.start, self.end)):
                out.write(f"{sid}\t{parent}\t{labels[site]}\t"
                          f"{start - origin}\t{end - start}\n")
        return len(self.start)


class TracingSimulator(Simulator):
    """A Simulator whose events are traced by a :class:`Tracer`.

    Each scheduled callback runs inside a trampoline that closes the root
    span the event hook opened.  Event order is untouched: entries keep
    their ``(time, seq)`` keys, only the callable stored with them changes.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self.add_event_hook(tracer.on_event)
        end_event = tracer.end_event

        def trampoline(callback, *args):
            callback(*args)
            end_event()

        self._trampoline = trampoline

    def at(self, time: int, callback, *args):
        return super().at(time, self._trampoline, callback, *args)

    def schedule_fast(self, delay: int, callback, *args) -> None:
        super().schedule_fast(delay, self._trampoline, callback, *args)
