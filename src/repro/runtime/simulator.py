"""Deterministic discrete-event simulator.

The engine's workers, copiers, pollers and network links are modeled as
events on a single global clock.  Events are coarse — one per task *chunk*,
message, or copier batch — so simulating multi-million-edge graphs costs
O(chunks + messages) events, not O(edges).

Determinism: ties in event time are broken by insertion sequence number, so
two runs with the same inputs produce bit-identical schedules and clocks.

Two calls schedule work.  :meth:`Simulator.schedule_at` is the engine's
call: it returns nothing, so its :class:`Event` objects come from (and
return to) a free list.  :meth:`Simulator.timer_at` returns a cancellable
handle that is never pooled; only the fault layer's crash and retry timers
need one.  Both take an absolute time: a caller with a delay passes
``sim.now + (delay)``.

Hot path: the engine's dominant event pattern is wake/work/done cycles at
the current clock.  Those bypass the heap through a FIFO *run queue*
(same-time events in seq order are FIFO by construction).  The run queue
preserves (time, tie, seq) order exactly: the dispatcher always executes the
minimum of the heap head and the run-queue head, and the run queue is only
used while no tie breaker is installed (every tie key is 0, so seq order
*is* the sort order).

Serial resources: a NIC port, a poller thread or a disk head serves one
request at a time.  Each is one :class:`SerialResource`, whose
:meth:`~SerialResource.claim` books the next free interval arithmetically,
in call order, without scheduling an event.

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
import math
import random
from collections import deque
from typing import Any, Callable, Optional


class SerialResource:
    """One serial server's timeline: a port, a poller thread, a disk head."""

    __slots__ = ("next_free",)

    def __init__(self) -> None:
        self.next_free: float = 0.0

    def claim(self, now: float, duration: float) -> float:
        """Serve a request that arrives at ``now`` and takes ``duration``
        once it starts, behind every earlier claim; returns its end."""
        end = max(now, self.next_free) + duration
        self.next_free = end
        return end

    def reset(self) -> None:
        """Free the resource (crash recovery drops what it was serving)."""
        self.next_free = 0.0


class Event:
    """A scheduled callback.  Cancelable; compares by (time, tie, seq).

    ``parent`` is the ``seq`` of the event whose handler scheduled this
    one (-1 outside any handler).

    ``recycle`` marks events created by :meth:`Simulator.schedule_at`: the
    caller never holds their handle, so the simulator returns them to the
    pool after they fire.  Handles returned by :meth:`Simulator.timer_at`
    are never pooled — a late ``cancel`` on a fired handle must stay a
    no-op instead of killing an unrelated reused event.
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
        sim.schedule_at(sim.now + 1e-6, callback, arg1, arg2)
        sim.run()          # drains the event queue
        print(sim.now)     # simulated seconds elapsed
    """

    #: free-list capacity; beyond it fired events are left to the GC
    POOL_CAP = 8192

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        #: events at the current clock, in seq order (tie == 0)
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

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``.

        Returns nothing: the event may come from (and returns to) a free
        list, so nobody may hold it.  A callback that might need
        :meth:`cancel` is a timer (:meth:`timer_at`).
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        rng = self._tie_rng
        pool = self._pool
        if pool:
            ev = pool.pop()
            self._pool_hits += 1
        else:
            ev = Event(time, 0, fn, args)
            ev.recycle = True
        ev.time = time
        ev.tie = 0 if rng is None else rng.getrandbits(32)
        ev.seq = self._seq
        ev.parent = self.current
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        self._seq += 1
        self._live += 1
        if time == self.now and rng is None:
            self._runq.append(ev)
        else:
            heapq.heappush(self._heap, ev)

    def timer_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """:meth:`schedule_at` returning a handle for :meth:`cancel`; the
        event is never pooled, so the handle stays valid after it fires."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        rng = self._tie_rng
        ev = Event(time, self._seq, fn, args,
                   0 if rng is None else rng.getrandbits(32), self.current)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, ev)
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
        self._heap.clear()
        self._runq.clear()
        self._live = 0
        return dropped

    # -- execution ---------------------------------------------------------

    def step(self, until: float = math.inf) -> bool:
        """Run the next event if it is due by ``until``.  Returns False when
        none is: the queue is empty, or its head lies past ``until``."""
        heap, runq = self._heap, self._runq
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        # Run-queue entries are pooled (so never cancelled), carry tie 0 and
        # time == now; the heap may still hold an earlier-seq event at the
        # same instant, so the dispatch order is decided by the full
        # (time, tie, seq) key.
        if runq and not (heap and heap[0] < runq[0]):
            ev = runq.popleft()
        elif heap and heap[0].time <= until:
            ev = heapq.heappop(heap)
        else:
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

    def run(self, until: Optional[float] = None) -> None:
        """Drain the queue, or with ``until`` run the events due by then
        and leave the clock there."""
        try:
            while self.step(math.inf if until is None else until):
                pass
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
