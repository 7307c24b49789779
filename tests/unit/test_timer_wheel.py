"""Event order on synthetic workloads, against a reference kernel.

These tests were first written to hold a hierarchical timer wheel to the
heap's ``(time, seq)`` order; the class and test names date from then.
The kernel now has one store, the binary heap, so each workload runs on
:class:`Simulator` and on :class:`_ReferenceKernel`, a linear-scan loop
simple enough to check by eye, and the two fire logs must match.  The
structural cases (far-future events, dense cancellation, bounded runs
that stop short of the next event, same-tick re-scheduling) stay too.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

#: Delays used to spread workloads over many orders of magnitude.
G0 = 4096
L0_SPAN = 256 * G0
L1_SPAN = 256 * L0_SPAN


class _ReferenceHandle:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceKernel:
    """Fires the live event with the smallest ``(time, seq)``, by scan."""

    def __init__(self):
        self.now = 0
        self._events = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        handle = _ReferenceHandle()
        self._events.append((self.now + delay, self._seq, handle,
                             callback, args))
        self._seq += 1
        return handle

    def schedule_fast(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def run(self):
        while True:
            live = [event for event in self._events
                    if not event[2].cancelled]
            if not live:
                return
            event = min(live, key=lambda entry: entry[:2])
            self._events.remove(event)
            self.now = event[0]
            event[3](*event[4])


def _run_order(kernel, schedule_plan):
    """Execute ``schedule_plan`` on ``kernel``, returning the fire log.

    ``schedule_plan(sim, log)`` schedules events that append to ``log``.
    """
    log = []
    schedule_plan(kernel, log)
    kernel.run()
    return log


def _assert_matches_heap(schedule_plan):
    heap_log = _run_order(Simulator(), schedule_plan)
    reference_log = _run_order(_ReferenceKernel(), schedule_plan)
    assert heap_log == reference_log
    return heap_log


class TestWheelMatchesHeapOrder:
    def test_same_slot_fifo(self):
        def plan(sim, log):
            for index in range(20):
                # Many events in the same tick.
                sim.schedule(index % 3, log.append, index)

        log = _assert_matches_heap(plan)
        assert len(log) == 20

    def test_cross_level_delays(self):
        def plan(sim, log):
            delays = [0, 1, G0 - 1, G0, G0 + 1, L0_SPAN - 1, L0_SPAN,
                      L0_SPAN + 1, 7 * L0_SPAN + 13, L1_SPAN - 1,
                      L1_SPAN, L1_SPAN + 12345, 3 * L1_SPAN]
            for index, delay in enumerate(delays):
                sim.schedule(delay, log.append, (delay, index))

        log = _assert_matches_heap(plan)
        assert len(log) == 13

    def test_rescheduling_chains_cross_boundaries(self):
        def plan(sim, log):
            def hop(count, delay):
                log.append((count, sim.now))
                if count:
                    sim.schedule_fast(delay, hop, count - 1, delay)

            # Chains with different strides interleaving with each other.
            sim.schedule_fast(0, hop, 40, G0 - 7)
            sim.schedule_fast(3, hop, 30, L0_SPAN // 3)
            sim.schedule_fast(5, hop, 12, L0_SPAN + 17)

        log = _assert_matches_heap(plan)
        assert len(log) == 41 + 31 + 13

    def test_randomized_schedule_matches_heap(self):
        def plan(sim, log):
            rng = random.Random(7)

            def burst(depth):
                log.append((depth, sim.now))
                for _ in range(rng.randint(0, 2)):
                    if depth < 6:
                        sim.schedule_fast(rng.randint(0, 2 * L0_SPAN),
                                          burst, depth + 1)

            for _ in range(30):
                sim.schedule_fast(rng.randint(0, L1_SPAN + L0_SPAN),
                                  burst, 0)

        _assert_matches_heap(plan)

    def test_cancellations_interleaved(self):
        def plan(sim, log):
            handles = []
            for index in range(60):
                handles.append(sim.schedule((index * 37) % (2 * L0_SPAN),
                                            log.append, index))
            for index in range(0, 60, 3):
                handles[index].cancel()

        log = _assert_matches_heap(plan)
        assert len(log) == 40

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 * L1_SPAN),
                    min_size=1, max_size=60),
           st.data())
    def test_property_order_and_cancels_match_heap(self, delays, data):
        cancel_mask = data.draw(
            st.lists(st.booleans(), min_size=len(delays),
                     max_size=len(delays)))

        def plan(sim, log):
            handles = [sim.schedule(delay, log.append, index)
                       for index, delay in enumerate(delays)]
            for handle, cancel in zip(handles, cancel_mask):
                if cancel:
                    handle.cancel()

        log = _assert_matches_heap(plan)
        assert len(log) == cancel_mask.count(False)


class TestWheelStructure:
    def test_cursor_jumps_over_empty_regions(self):
        sim = Simulator()
        fired = []
        sim.schedule(5 * L1_SPAN + 123, fired.append, "only")
        sim.run()
        assert fired == ["only"]
        assert sim.events_executed == 1
        assert sim.now == 5 * L1_SPAN + 123

    def test_cancelled_entries_shed_on_drain(self):
        sim = Simulator()
        keep = sim.schedule(10 * G0, lambda: None)
        for _ in range(500):
            sim.schedule(3 * G0, lambda: None).cancel()
        assert sim.pending_events() == 1
        assert sim.queued_entries() == 501
        sim.run()
        # Compaction and the drain discarded the 500 dead entries.
        assert sim.queued_entries() == 0
        assert not keep.pending  # fired

    def test_bounded_run_peeks_without_losing_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(L0_SPAN + 3, fired.append, "later")
        for _ in range(50):
            sim.run_for(G0)  # each bounded run stops short of the event
        assert fired == []
        assert sim.queued_entries() == 1
        sim.run_for(L0_SPAN)
        assert fired == ["later"]

    def test_same_tick_scheduling_goes_to_bucket(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0, log.append, "same-tick")

        sim.schedule(G0 * 3 + 1, first)
        sim.run()
        assert log == ["first", "same-tick"]
        assert sim.now == G0 * 3 + 1

    def test_pending_counts_track_cancels(self):
        sim = Simulator()
        handles = [sim.schedule(index * 1000, lambda: None)
                   for index in range(10)]
        assert sim.pending_events() == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending_events() == 6
        sim.run()
        assert sim.pending_events() == 0
