"""Deterministic discrete-event simulator.

The engine's workers, copiers, pollers and network links are modeled as
events on a single global clock.  Events are coarse — one per task *chunk*,
message, or copier batch — so simulating multi-million-edge graphs costs
O(chunks + messages) events, not O(edges).

Determinism: ties in event time are broken by insertion sequence number, so
two runs with the same inputs produce bit-identical schedules and clocks.

Hot path: the engine's dominant event pattern is zero-delay wake/work/done
cycles at the current clock.  Those bypass the heap through a FIFO *run
queue* (same-time events in seq order are FIFO by construction) and, when
scheduled through :meth:`Simulator.schedule_fast`, reuse :class:`Event`
objects from a free list.  Both fast paths preserve (time, tie, seq) order
exactly: the dispatcher always executes the minimum of the heap head and the
run-queue head, and the run queue is only used while no tie breaker is
installed (every tie key is 0, so seq order *is* the sort order).

Schedule perturbation: :meth:`Simulator.set_tie_breaker` installs a seeded
tie key drawn per event that sorts *between* time and sequence number.  It
permutes the execution order of equal-time events only — the one reordering
a correct engine must tolerate — which is what the determinism auditor
(:mod:`repro.audit`) exploits to explore K distinct legal schedules.
Installing it flushes the run queue back into the heap and disables the
FIFO shortcut, so perturbed runs exercise the fully general dispatcher.

Causality: every event keeps the ``seq`` of the event whose handler
scheduled it (``parent``; -1 when scheduled outside any handler).  While
:attr:`Simulator.causal_log` is a dict — the span profiler installs one —
each executed event is recorded there as ``seq -> (parent, time,
handler)``, so a job's critical path is a walk up recorded parents rather
than an inference from timestamps (:mod:`repro.obs.profiler`).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.  Cancelable; compares by (time, tie, seq).

    ``parent`` is the ``seq`` of the event whose handler scheduled this
    one (-1 outside any handler).

    ``recycle`` marks events created through the :meth:`Simulator
    .schedule_fast` free-list path: their handles are by contract discarded
    by the caller, so the simulator returns them to the pool after they
    fire.  Events whose handles may be retained (everything returned by
    ``schedule``/``schedule_at``) are never pooled — a late ``cancel`` on a
    fired handle must stay a no-op instead of killing an unrelated reused
    event.
    """

    __slots__ = ("time", "tie", "seq", "parent", "fn", "args", "cancelled",
                 "recycle")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 tie: int = 0, parent: int = -1):
        self.time = time
        self.tie = tie
        self.seq = seq
        self.parent = parent
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.recycle = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.tie, self.seq) < (other.time, other.tie, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(t={self.time:.9f}, seq={self.seq}, fn={getattr(self.fn, '__name__', self.fn)})"


class Simulator:
    """Event loop with a simulated clock.

    Usage::

        sim = Simulator()
        sim.schedule(1e-6, callback, arg1, arg2)
        sim.run()          # drains the event queue
        print(sim.now)     # simulated seconds elapsed
    """

    #: free-list capacity; beyond it fired events are left to the GC
    POOL_CAP = 8192

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        #: zero-delay events at the current clock, in seq order (tie == 0)
        self._runq: deque[Event] = deque()
        self._seq: int = 0
        #: scheduled-and-not-yet-cancelled events (O(1) ``pending``)
        self._live: int = 0
        self._events_executed: int = 0
        self._pool: list[Event] = []
        self._pool_hits: int = 0
        self._tie_rng: Optional[random.Random] = None
        self.tie_breaker_seed: Optional[int] = None
        #: seq of the event whose handler is running; -1 outside any handler
        #: (``run``/``step_while`` reset it on return)
        self.current: int = -1
        #: seq -> (parent, time, handler) of every executed event while a
        #: dict is installed here (by the span profiler); None records nothing
        self.causal_log: Optional[dict[int, tuple]] = None

    # -- scheduling --------------------------------------------------------

    def set_tie_breaker(self, seed: Optional[int]) -> None:
        """Install (or with ``None`` remove) a seeded equal-time tie breaker.

        With a seed, every subsequently scheduled event draws a random tie
        key that sorts before the insertion sequence number: events at the
        same simulated time execute in a seed-dependent permutation instead
        of insertion order, while events at distinct times are unaffected.
        Two simulators given the same seed still replay identically — the
        perturbation is itself deterministic.

        Any events sitting in the run queue are flushed into the heap (they
        keep their tie key of 0, exactly as events scheduled before the
        breaker always have) and the FIFO shortcut stays off while the
        breaker is installed.
        """
        self._tie_rng = None if seed is None else random.Random(seed)
        self.tie_breaker_seed = seed
        if self._runq:
            for ev in self._runq:
                heapq.heappush(self._heap, ev)
            self._runq.clear()

    def _tie(self) -> int:
        return self._tie_rng.getrandbits(32) if self._tie_rng is not None else 0

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        ev = Event(self.now + delay, self._seq, fn, args, tie=self._tie(),
                   parent=self.current)
        self._seq += 1
        self._live += 1
        if delay == 0.0 and self._tie_rng is None:
            self._runq.append(ev)
        else:
            heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        ev = Event(time, self._seq, fn, args, tie=self._tie(),
                   parent=self.current)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_fast(self, delay: float, fn: Callable, *args: Any) -> None:
        """Hot-path :meth:`schedule` for callers that discard the handle.

        Returns ``None`` instead of an :class:`Event` — the event object may
        come from (and returns to) a free list, so holding on to it after it
        fires would alias a future event.  Callers that might ever need to
        :meth:`cancel` must use :meth:`schedule`.  Falls back to the general
        path while a tie breaker is installed.
        """
        if self._tie_rng is not None:
            self.schedule(delay, fn, *args)
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        ev = self._acquire(self.now + delay, fn, args)
        if delay == 0.0:
            self._runq.append(ev)
        else:
            heapq.heappush(self._heap, ev)

    def schedule_at_fast(self, time: float, fn: Callable, *args: Any) -> None:
        """Absolute-time :meth:`schedule_fast` (handle discarded, pooled)."""
        if self._tie_rng is not None:
            self.schedule_at(time, fn, *args)
            return
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        heapq.heappush(self._heap, self._acquire(time, fn, args))

    def _acquire(self, time: float, fn: Callable, args: tuple) -> Event:
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.tie = 0
            ev.seq = self._seq
            ev.parent = self.current
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
            self._pool_hits += 1
        else:
            ev = Event(time, self._seq, fn, args, parent=self.current)
            ev.recycle = True
        self._seq += 1
        self._live += 1
        return ev

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran or was cancelled)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def clear_pending(self) -> int:
        """Drop every not-yet-run event; the clock stays where it is.

        Used by crash recovery to abandon a dead execution wholesale: the
        events of the crashed job must not fire into the restarted one.
        Dropped events are marked cancelled so retained handles (e.g. armed
        crash timers) stay inert under a later :meth:`cancel`.
        Returns the number of live events discarded.
        """
        dropped = self._live
        for ev in self._heap:
            ev.cancelled = True
        for ev in self._runq:
            ev.cancelled = True
        self._heap.clear()
        self._runq.clear()
        self._live = 0
        return dropped

    # -- execution ---------------------------------------------------------

    def _pop_next(self) -> Optional[Event]:
        """Remove and return the minimum live event across heap and run queue."""
        heap, runq = self._heap, self._runq
        while True:
            while runq and runq[0].cancelled:
                runq.popleft()
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
            if runq:
                # Run-queue entries carry tie 0 and time == now; the heap may
                # still hold an earlier-seq event at the same instant, so the
                # dispatch order is decided by the full (time, tie, seq) key.
                if heap and heap[0] < runq[0]:
                    return heapq.heappop(heap)
                return runq.popleft()
            if heap:
                return heapq.heappop(heap)
            return None

    def _peek_next(self) -> Optional[Event]:
        """The minimum live event without removing it (cancelled are purged)."""
        heap, runq = self._heap, self._runq
        while runq and runq[0].cancelled:
            runq.popleft()
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if runq:
            if heap and heap[0] < runq[0]:
                return heap[0]
            return runq[0]
        return heap[0] if heap else None

    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty."""
        ev = self._pop_next()
        if ev is None:
            return False
        if ev.time < self.now:  # pragma: no cover - defensive
            raise RuntimeError("event queue went backwards in time")
        self.now = ev.time
        self._live -= 1
        self._events_executed += 1
        fn, args = ev.fn, ev.args
        self.current = ev.seq
        if self.causal_log is not None:
            self.causal_log[ev.seq] = (ev.parent, ev.time, fn)
        # Mark the event dead *before* running it: a stale cancel of a fired
        # handle must be a no-op (and must not decrement the live counter).
        ev.cancelled = True
        if ev.recycle:
            ev.fn = None
            ev.args = ()
            if len(self._pool) < self.POOL_CAP:
                self._pool.append(ev)
        fn(*args)
        return True

    def step_while(self, cond: Callable[[], bool]) -> bool:
        """Run events while ``cond()`` holds.

        Returns ``True`` when ``cond()`` became false, ``False`` when the
        queue drained with the condition still true — the engine's stall
        signal.  Exceptions raised by event callbacks (e.g. an injected
        :class:`~repro.core.faults.MachineCrashError`) propagate to the
        caller with the clock already advanced to the failing event.
        """
        try:
            while cond():
                if not self.step():
                    return False
            return True
        finally:
            self.current = -1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the queue, optionally stopping at ``until`` or after
        ``max_events`` additional events."""
        executed = 0
        try:
            while True:
                nxt = self._peek_next()
                if nxt is None:
                    break
                if until is not None and nxt.time > until:
                    self.now = until
                    return
                if max_events is not None and executed >= max_events:
                    return
                self.step()
                executed += 1
        finally:
            self.current = -1
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def event_pool_hits(self) -> int:
        """How many events were served from the free list instead of a
        fresh :class:`Event` allocation."""
        return self._pool_hits
