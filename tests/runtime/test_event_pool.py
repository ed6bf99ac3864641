"""Event pooling and the same-time run-queue fast path.

The engine schedules through ``schedule_at``, whose events come from (and
return to) a free list, and keeps events at the current instant in a FIFO
run queue instead of the heap; ``timer_at`` hands out cancellable events
that are never pooled.  These tests pin down the contract: pooled events
are recycled, dispatch follows exact (time, seq) order, and the pool stays
safe under cancellation and ``clear_pending`` (crash recovery).
"""

import pytest

from repro.runtime.simulator import Simulator


class TestPoolReuse:
    def test_fired_fast_events_are_recycled(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.schedule_at(0.0, hits.append, i)
        sim.run()
        assert hits == [0, 1, 2, 3, 4]
        assert sim.event_pool_hits == 0
        # the next pooled schedules must come from the free list
        for i in range(5):
            sim.schedule_at(sim.now + 1.0, hits.append, 10 + i)
        sim.run()
        assert sim.event_pool_hits == 5
        assert hits[5:] == [10, 11, 12, 13, 14]

    def test_pool_capacity_is_bounded(self):
        sim = Simulator()
        n = Simulator.POOL_CAP + 100
        for _ in range(n):
            sim.schedule_at(0.0, lambda: None)
        sim.run()
        assert len(sim._pool) <= Simulator.POOL_CAP

    def test_schedule_handles_are_never_pooled(self):
        sim = Simulator()
        ev = sim.timer_at(0.0, lambda: None)
        sim.run()
        assert not ev.recycle
        assert ev not in sim._pool


class TestCancellationSafety:
    def test_stale_cancel_of_fired_handle_is_inert(self):
        sim = Simulator()
        hits = []
        ev = sim.timer_at(1.0, hits.append, "a")
        sim.run()
        # the handle already fired; cancelling it now must not disturb
        # the live counter or any future event
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending == 0
        sim.schedule_at(sim.now, hits.append, "b")
        sim.run()
        assert hits == ["a", "b"]

    def test_cancelled_same_instant_event_does_not_fire(self):
        sim = Simulator()
        hits = []

        def first():
            hits.append("first")
            sim.cancel(later)

        # both at t=0: seq order runs `first`, which cancels `later` while
        # it is still waiting at the same instant
        sim.timer_at(0.0, first)
        later = sim.timer_at(0.0, hits.append, "later")
        sim.run()
        assert hits == ["first"]

    def test_pending_counter_tracks_mixed_operations(self):
        sim = Simulator()
        evs = [sim.timer_at(float(i % 3), lambda: None) for i in range(9)]
        sim.schedule_at(0.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 11
        sim.cancel(evs[0])
        sim.cancel(evs[0])  # double-cancel is a no-op
        assert sim.pending == 10
        sim.run()
        assert sim.pending == 0


class TestClearPending:
    def test_drops_runq_and_heap(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(0.0, hits.append, "runq")
        sim.schedule_at(1.0, hits.append, "heap")
        sim.timer_at(2.0, hits.append, "timer")
        assert sim.clear_pending() == 3
        assert sim.pending == 0
        sim.run()
        assert hits == []

    def test_retained_handles_stay_inert_after_clear(self):
        sim = Simulator()
        ev = sim.timer_at(5.0, lambda: None)
        sim.clear_pending()
        sim.cancel(ev)  # must not drive the live counter negative
        assert sim.pending == 0
        sim.schedule_at(0.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_scheduling_resumes_after_clear(self):
        sim = Simulator()
        hits = []
        for i in range(4):
            sim.schedule_at(0.0, hits.append, i)
        sim.clear_pending()
        sim.schedule_at(0.0, hits.append, "fresh")
        sim.run()
        assert hits == ["fresh"]


class TestOrderingEquivalence:
    """Run queue, heap and timer events dispatch in exact (time, seq) order:
    same-instant children wait behind earlier-seq heap events at that
    instant, and pooled events sort like timers."""

    @staticmethod
    def _exercise(sim):
        order = []

        def spawn(tag, depth):
            order.append((tag, sim.now))
            if depth:
                # mix same-instant (run queue), timer and pooled heap children
                sim.schedule_at(sim.now, spawn, tag + "z", depth - 1)
                sim.timer_at(sim.now + 0.5, spawn, tag + "d", depth - 1)
                sim.schedule_at(sim.now + 0.25, spawn, tag + "a", depth - 1)

        for i, tag in enumerate("abc"):
            sim.timer_at(float(i % 2), spawn, tag, 2)
        sim.run()
        return order

    #: derived by hand from (time, seq): seq is scheduling order, so at one
    #: instant parents precede the children they schedule, and siblings keep
    #: z (run queue) before d (timer) before a (pooled heap) where they tie.
    EXPECTED = [
        ("a", 0.0), ("c", 0.0), ("az", 0.0), ("cz", 0.0),
        ("azz", 0.0), ("czz", 0.0),
        ("aa", 0.25), ("ca", 0.25), ("aza", 0.25), ("cza", 0.25),
        ("aaz", 0.25), ("caz", 0.25),
        ("ad", 0.5), ("cd", 0.5), ("azd", 0.5), ("czd", 0.5),
        ("aaa", 0.5), ("caa", 0.5), ("adz", 0.5), ("cdz", 0.5),
        ("aad", 0.75), ("cad", 0.75), ("ada", 0.75), ("cda", 0.75),
        ("b", 1.0), ("add", 1.0), ("cdd", 1.0), ("bz", 1.0), ("bzz", 1.0),
        ("ba", 1.25), ("bza", 1.25), ("baz", 1.25),
        ("bd", 1.5), ("bzd", 1.5), ("baa", 1.5), ("bdz", 1.5),
        ("bad", 1.75), ("bda", 1.75),
        ("bdd", 2.0),
    ]

    def test_matches_hand_derived_order(self):
        sim = Simulator()
        assert self._exercise(sim) == self.EXPECTED
        assert sim.event_pool_hits > 0

    @pytest.mark.parametrize("seed", [None, 1, 7, 42])
    def test_tie_breaker_permutes_only_equal_times(self, seed):
        def run():
            sim = Simulator()
            # events queued before the breaker keep tie 0: flush-on-install
            sim.schedule_at(0.0, lambda: None)
            sim.set_tie_breaker(seed)
            return self._exercise(sim)

        order = run()
        times = [t for _, t in order]
        assert times == sorted(times)
        assert sorted(order) == sorted(self.EXPECTED)
        assert run() == order
        if seed is None:
            assert order == self.EXPECTED

    def test_tie_breaker_install_flushes_runq(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(0.0, hits.append, "early")
        sim.set_tie_breaker(3)
        assert not sim._runq
        sim.schedule_at(0.0, hits.append, "late")
        assert not sim._runq
        sim.run()
        assert "early" in hits and "late" in hits
