"""The instrumentation hook bus: named hook points with scoped subscriptions.

Every :class:`~repro.core.engine.PgxdCluster` owns one :class:`HookBus`.
Engine layers *emit* events at well-known hook points; observers (the
metrics recorder, the Chrome tracer, user code) *subscribe* per hook name.
Because the bus is an instance — not process-global monkeypatching — two
clusters (and two tracers) coexist in one process with disjoint event
streams.

Emission is cheap when nobody listens: ``emit`` returns after one dict
lookup.  Subscribers receive the payload dict positionally::

    def on_chunk(payload: dict) -> None: ...
    sub = bus.subscribe("task.chunk_end", on_chunk)
    ...
    bus.unsubscribe(sub)

Payloads are documented per hook in ``docs/observability.md``; every payload
carries simulated-time fields in seconds.
"""

from __future__ import annotations

from typing import Callable, Mapping

#: The engine's built-in hook points (user hooks may use any other name).
KNOWN_HOOKS = (
    "task.chunk_start",    # machine, worker, kind, job, time
    "task.chunk_end",      # machine, worker, kind, job, start, duration
    "comm.enqueue",        # machine, kind, depth, time
    "comm.flush",          # machine, worker, dst, prop, kind, items, time
    "comm.queue_depth",    # machine, depth, time
    "comm.copier_start",   # machine, copier, kind, items, time
    "comm.copier_done",    # machine, copier, kind, items, start, duration
    "comm.combine",        # machine, dst, prop, items_in, items_out, time
    "task.plan_cache",     # machine, hit, time
    "net.send",            # src, dst, nbytes, kind, time, deliver (None when
                           #   dropped, with dropped=True)
    "net.deliver",         # src, dst, nbytes, kind, time (+duplicate=True on
                           #   the second surfacing of a duplicated message)
    "net.drop",            # src, dst, nbytes, kind, time, lost_at
    "ghost.hit",           # machine, prop, mode, count, time
    "ghost.miss",          # machine, prop, mode, count, time
    "ghost.reduce_start",  # machine, elements, time
    "ghost.reduce_end",    # machine, elements, start, duration
    "job.start",           # job, time
    "job.end",             # job, start, duration
    "job.phase_start",     # job, phase, time
    "job.phase_end",       # job, phase, start, duration
    "barrier.enter",       # job, machines, time
    "barrier.exit",        # job, machines, start, duration
    "fault.inject",        # fault, time, + fault-specific fields
    "comm.retry",          # kind, request_id, src, dst, attempt, machine, time
    "comm.dedup_drop",     # machine, kind, request_id, time
    "job.checkpoint",      # path, time
    "job.recover",         # job, checkpoint, time
    "sched.admit",         # session, job, priority, depth, time
    "sched.reject",        # session, job, reason, time
    "sched.dispatch",      # session, job, priority, wait, running, depth, time
    "sched.preempt",       # session, by, job, time
    "sched.complete",      # session, job, priority, wait, turnaround, time
    "disk.read",           # machine, window, nbytes (on disk: byte-coded
                           #   shard format, not the resolved 24 B/edge),
                           #   start, duration (of the read), stall (previous
                           #   window's last chunk end -> this read's end, so
                           #   0 <= stall <= duration), time (out-of-core
                           #   window activation)
    "cache.hit",           # job, fingerprint, cost, saved, entries, time
    "cache.miss",          # job, fingerprint, cost, entries, time
    "cache.evict",         # reason ("epoch"|"capacity"|"manual"), count,
                           #   family, epoch, entries, time
)


class Subscription:
    """Handle returned by :meth:`HookBus.subscribe`; pass to ``unsubscribe``."""

    __slots__ = ("bus", "name", "fn", "active")

    def __init__(self, bus: "HookBus", name: str, fn: Callable):
        self.bus = bus
        self.name = name
        self.fn = fn
        self.active = True

    def cancel(self) -> None:
        self.bus.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "cancelled"
        return f"Subscription({self.name!r}, {state})"


class HookBus:
    """Instance-scoped publish/subscribe fan-out for instrumentation events."""

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: dict[str, list[Subscription]] = {}

    # -- subscription ------------------------------------------------------

    def subscribe(self, name: str, fn: Callable) -> Subscription:
        """Register ``fn(payload_dict)`` for hook ``name``."""
        if not callable(fn):
            raise TypeError(f"subscriber for {name!r} is not callable: {fn!r}")
        sub = Subscription(self, name, fn)
        self._subs.setdefault(name, []).append(sub)
        return sub

    def subscribe_many(self, mapping: Mapping[str, Callable]) -> list[Subscription]:
        """Subscribe a batch atomically: on any failure, roll back the ones
        already added and re-raise (no half-installed observers)."""
        added: list[Subscription] = []
        try:
            for name, fn in mapping.items():
                added.append(self.subscribe(name, fn))
        except Exception:
            for sub in added:
                self.unsubscribe(sub)
            raise
        return added

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription (idempotent)."""
        if not sub.active:
            return
        sub.active = False
        subs = self._subs.get(sub.name)
        if subs is not None:
            try:
                subs.remove(sub)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not subs:
                del self._subs[sub.name]

    # -- emission ----------------------------------------------------------

    def has(self, name: str) -> bool:
        """True when at least one subscriber listens on ``name`` (use to skip
        building expensive payloads on hot paths)."""
        return name in self._subs

    def emit(self, name: str, **payload) -> None:
        """Fan ``payload`` out to every subscriber of ``name``.

        Subscriber exceptions propagate — instrumentation bugs should fail
        loudly in a deterministic simulator rather than corrupt capture.
        """
        subs = self._subs.get(name)
        if not subs:
            return
        for sub in tuple(subs):
            if sub.active:
                sub.fn(payload)

    def subscriber_count(self, name: str | None = None) -> int:
        if name is not None:
            return len(self._subs.get(name, ()))
        return sum(len(v) for v in self._subs.values())


class ScopedHookBus:
    """A tagging, ledger-keeping proxy over a cluster's :class:`HookBus`.

    The scheduler hands one of these to each execution it dispatches —
    every job is a ticket — so a region running interleaved with other
    tenants stays attributable: every payload gains the scope's ``tags``
    (session name, ticket id) before reaching the shared cluster bus's
    subscribers, and for the duration of that (synchronous) dispatch the
    cluster ``registry`` also adds every counter and histogram update to
    this bus's sparse ``ledger`` — so the ledger holds exactly the
    increments this job's own events caused, however the tenants' events
    interleave.  Observers see everything exactly once.

    The proxy quacks like a :class:`HookBus` for the emit-side API the
    engine layers use (``emit``/``has``); subscription management stays on
    the underlying bus.
    """

    __slots__ = ("tags", "registry", "ledger", "_subs")

    def __init__(self, outer: "HookBus", registry,
                 tags: Mapping[str, object] | None = None):
        self.registry = registry
        self.tags = dict(tags or {})
        #: flat series name -> increment caused by this scope's events
        self.ledger: dict[str, float] = {}
        #: the outer bus's live subscription table, shared (not copied)
        self._subs = outer._subs

    def has(self, name: str) -> bool:
        return name in self._subs

    def emit(self, name: str, **payload) -> None:
        # Fans out to the outer bus's subscribers itself: re-dispatching
        # through ``outer.emit`` would rebuild the payload dict per emit.
        subs = self._subs.get(name)
        if not subs:
            return
        for key, value in self.tags.items():
            payload.setdefault(key, value)
        registry = self.registry
        previous = registry.ledger
        registry.ledger = self.ledger
        try:
            for sub in tuple(subs):
                if sub.active:
                    sub.fn(payload)
        finally:
            registry.ledger = previous
