"""Discrete-event simulation kernel.

A :class:`Simulator` owns a binary heap of timestamped events.  Events
scheduled for the same tick fire in scheduling order (FIFO), which keeps
runs deterministic.  Components hold a reference to the simulator and use
:meth:`Simulator.schedule` / :meth:`Simulator.at` to arrange callbacks,
:meth:`Simulator.schedule_fast` for the handle-free never-cancelled hot
path (packet arrivals, serialization completions), and :class:`Timer` for
restartable timeouts (retransmission timers and the like).

**Heap entries and the tuple-ordering invariant.**  Entries are plain
4-tuples: ``(time, seq, handle, None)`` for cancellable events and
``(time, seq, callback, args)`` for fast events, whose ``args`` is always
a tuple, so ``args is None`` tells the two apart.  ``seq`` is unique per
simulator, so tuple comparison — which is C-level, and what every heap
operation uses — is always decided by ``(time, seq)`` and never reaches
element 2.  :class:`EventHandle` therefore deliberately defines **no**
``__lt__``; a regression test pins the invariant.

Cancellation is lazy: a cancelled entry stays in the heap and is skipped
when it reaches the top.  The heap is rebuilt without such entries once
they dominate it (each compaction removes at least half the heap, paid
for by the cancellations accumulated since the last one).

Correctness tooling (see ``repro.analysis``) plugs in through two optional
hooks:

* :meth:`Simulator.add_event_hook` — called as ``hook(time, callback, args)``
  just before each event executes; the replay-divergence detector and the
  sanitizing simulator both build on it.  A hook added while the
  simulator runs sees every later event.
* :attr:`Simulator.ledger` — an optional packet-conservation ledger
  (``repro.analysis.sanitize.PacketLedger``).  Hosts, switches, and ports
  read it once, when they are built, so it must be attached first:
  assigning it after the first node exists raises :class:`SimulationError`.

Subclasses that observe or check scheduling override :meth:`Simulator.at`
and :meth:`Simulator.schedule_fast`: every cancellable event, including
those from :meth:`Simulator.schedule` and :class:`Timer`, goes through
``at``, and every fast event through ``schedule_fast``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from typing import (Any, Callable, DefaultDict, Iterator, List,  # noqa: F401
                    Optional, Tuple)

from .units import format_time

__all__ = ["Simulator", "EventHandle", "Timer", "SimulationError"]

#: Compaction is considered once the heap holds more than this many
#: lazily-cancelled entries (keeps tiny heaps out of the bookkeeping).
COMPACT_MIN_CANCELLED = 64

#: ``run``'s time limit when none is given: later than any integer time.
_FOREVER = float("inf")

#: A heap entry: ``(time, seq, handle, None)`` or
#: ``(time, seq, callback, args)`` — see the module docstring.
Entry = Tuple[Any, ...]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice, ...)."""


class EventHandle:
    """Handle to a scheduled event; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped.  This keeps cancel O(1), which matters because
    retransmission timers are cancelled far more often than they fire.  The
    owning simulator keeps a live count of cancelled-but-queued entries so
    it can answer :meth:`Simulator.pending_events` in O(1) and compact the
    heap when lazy-cancelled entries dominate it.

    Handles are **never compared**: heap entries are
    ``(time, seq, handle, None)`` tuples whose comparison is decided by the
    unique ``(time, seq)`` prefix, so this class intentionally defines no
    ordering methods (see the module docstring).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., None], args: Tuple[Any, ...],
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Only count handles that are still queued: a fired event has had
        # its callback released, and counting it would skew the live total.
        if self.callback is not None and self.sim is not None:
            self.sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={format_time(self.time)} {name} {state}>"


class Simulator:
    """Event loop with integer-nanosecond virtual time.

    Events execute in ``(time, seq)`` order from a binary heap with lazy
    cancellation and amortised compaction (see the module docstring).
    """

    __slots__ = ("_queue", "_cancelled", "_now", "_seq", "_running",
                 "_stopped", "_event_hooks", "events_executed", "_ledger",
                 "_ledger_frozen", "_id_streams")

    def __init__(self) -> None:
        self._queue: List[Entry] = []
        #: Lazily-cancelled entries still sitting in the heap; every other
        #: entry is live, so ``len(_queue) - _cancelled`` is the pending count.
        self._cancelled = 0
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        #: Pre-execution observers (replay tracing, sanitizers).
        self._event_hooks: List[Callable[[int, Callable, Tuple], None]] = []
        #: Events executed so far; the run loop counts in a local and
        #: stores it here when :meth:`run` returns or raises.
        self.events_executed: int = 0
        self._ledger: Optional[Any] = None
        #: Set once a component has read the ledger (:meth:`freeze_ledger`).
        self._ledger_frozen = False
        #: kind -> identifier stream (see :meth:`new_id`).
        self._id_streams: DefaultDict[str, Iterator[int]] = defaultdict(
            lambda: itertools.count(1))

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def ledger(self) -> Optional[Any]:
        """Optional packet-conservation ledger (repro.analysis.sanitize).

        Hosts, switches, and ports read it once, at construction (see
        :meth:`freeze_ledger`), and report each packet's life events to
        it.  Attach it before building the topology: assigning it after
        the first node exists raises :class:`SimulationError`, because
        the components built so far would never report to it.
        """
        return self._ledger

    @ledger.setter
    def ledger(self, ledger: Optional[Any]) -> None:
        if self._ledger_frozen:
            raise SimulationError(
                "attach the ledger before building the topology: nodes "
                "and ports read it once, at construction")
        self._ledger = ledger

    def freeze_ledger(self) -> Optional[Any]:
        """Return :attr:`ledger` for a network component to keep.

        Called by every node and port at construction.  From then on the
        ledger can no longer be replaced.
        """
        self._ledger_frozen = True
        return self._ledger

    def new_id(self, kind: str) -> int:
        """Next identifier of ``kind`` ("address", "message", ...) in this run.

        Each kind counts 1, 2, 3, ... on its own and a fresh simulator
        starts over, so the ids ECMP hashes depend only on this run.
        """
        return next(self._id_streams[kind])

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: delay={delay}")
        return self.at(self._now + delay, callback, *args)

    def at(self, time: int, callback: Callable[..., None],
           *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}, "
                f"now is {format_time(self._now)}")
        handle = EventHandle(time, self._seq, callback, args, self)
        heapq.heappush(self._queue, (time, self._seq, handle, None))
        self._seq += 1
        return handle

    def schedule_fast(self, delay: int, callback: Callable[..., None],
                      *args: Any) -> None:
        """Handle-free :meth:`schedule` for events that are never cancelled.

        Skips the :class:`EventHandle` allocation and cancellation
        bookkeeping entirely — the event cannot be cancelled or observed.
        Use for fire-and-forget hot-path events (packet arrivals,
        serialization completions); semantics are otherwise identical to
        :meth:`schedule`, including FIFO ordering within a tick.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._queue,
                       (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def add_event_hook(
            self, hook: Callable[[int, Callable, Tuple], None]) -> None:
        """Register ``hook(time, callback, args)`` to observe each event.

        Hooks fire after the clock has advanced to the event's timestamp and
        before the callback executes, in registration order.  Used by the
        replay-divergence detector and the sanitizing simulator; costs one
        branch per event when no hook is installed.
        """
        self._event_hooks.append(hook)

    def remove_event_hook(
            self, hook: Callable[[int, Callable, Tuple], None]) -> None:
        """Unregister a previously added event hook."""
        self._event_hooks.remove(hook)

    def _note_cancelled(self) -> None:
        """Record that a queued event was lazily cancelled (EventHandle)."""
        self._cancelled += 1

    def _compact(self) -> None:
        """Rebuild the heap without lazily-cancelled entries (O(n)).

        In place, so the run loop's local reference to the heap stays valid.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[3] is not None or not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or None when the queue is empty."""
        queue = self._queue
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(queue)):
            self._compact()
        while queue:
            head = queue[0]
            if head[3] is None and head[2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return head[0]
        return None

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or virtual time passes ``until``.

        Returns the virtual time at which the run stopped.  When ``until`` is
        given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier, so successive bounded runs compose predictably.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        hooks = self._event_hooks
        limit = _FOREVER if until is None else until
        executed = self.events_executed
        try:
            while not self._stopped:
                if (self._cancelled > COMPACT_MIN_CANCELLED
                        and self._cancelled * 2 > len(queue)):
                    self._compact()
                if not queue:
                    break
                # Peek before popping: an out-of-window head stays queued,
                # so bounded runs (run_for loops) never pop and re-push it.
                time, _, callback, args = queue[0]
                if args is not None:
                    if time > limit:
                        break
                    heappop(queue)
                else:
                    event = callback
                    if event.cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    if time > limit:
                        break
                    heappop(queue)
                    callback, args = event.callback, event.args
                    # Release references so a held handle cannot keep large
                    # packet payloads alive after the event has fired.
                    event.callback = None
                    event.args = ()
                self._now = time
                executed += 1
                if hooks:
                    for hook in hooks:
                        hook(time, callback, args)
                callback(*args)
        finally:
            self.events_executed = executed
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ns of virtual time from the current instant."""
        return self.run(until=self._now + duration)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return len(self._queue) - self._cancelled

    def queued_entries(self) -> int:
        """Physical heap entries, including lazily-cancelled junk.

        Diagnostic: ``queued_entries() - pending_events()`` is the dead
        weight the heap is carrying (compaction keeps it bounded).
        """
        return len(self._queue)

    def __repr__(self) -> str:
        return (f"<Simulator now={format_time(self._now)} "
                f"queued={len(self._queue)} "
                f"executed={self.events_executed}>")


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Typical use is a retransmission timer: ``restart()`` on every ACK,
    ``stop()`` when everything is acknowledged.  The callback passed at
    construction fires with no arguments when the timer expires.

    ``restart()`` uses **deferred re-arm**: when the new deadline is at
    or past the queued expiry (the common case — RTO restarts only ever
    push the deadline forward), the queued event is left in place and
    only the target deadline is updated, making the per-ACK restart a
    pair of field writes instead of a cancel plus a fresh
    handle/entry.  When the stale event pops, :meth:`_fire` notices the
    deadline has moved and re-queues itself for the remainder; the
    callback still runs at exactly the virtual time a cancel-and-
    reschedule implementation would have produced.  At most one event
    per timer is ever queued, so a restart storm leaves no junk entries
    behind in the heap.
    """

    __slots__ = ("_sim", "_callback", "_handle", "_deadline")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._deadline = 0

    @property
    def running(self) -> bool:
        """True while an expiry is scheduled."""
        return self._handle is not None and self._handle.pending

    @property
    def expiry_time(self) -> Optional[int]:
        """Absolute expiry time, or None when the timer is stopped.

        With deferred re-arm this is the *target* deadline, which may lie
        past the queued wake-up event's timestamp.
        """
        return self._deadline if self.running else None

    def start(self, delay: int) -> None:
        """Start the timer; raises if it is already running."""
        if self.running:
            raise SimulationError("timer already running; use restart()")
        self._deadline = self._sim._now + delay
        self._handle = self._sim.schedule(delay, self._fire)

    def restart(self, delay: int) -> None:
        """(Re)arm ``delay`` ns from now, superseding any pending expiry."""
        deadline = self._sim._now + delay
        handle = self._handle
        if (handle is not None and not handle.cancelled
                and handle.callback is not None
                and handle.time <= deadline):
            # Deferred re-arm: the queued event will wake no later than
            # the new deadline and re-queue itself for the remainder.
            self._deadline = deadline
            return
        if handle is not None:
            handle.cancel()
        self._deadline = deadline
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Cancel the pending expiry, if any.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        remaining = self._deadline - self._sim._now
        if remaining > 0:
            # The deadline moved forward after this event was queued
            # (deferred re-arm): chase it instead of firing.
            self._handle = self._sim.schedule(remaining, self._fire)
            return
        self._handle = None
        self._callback()
