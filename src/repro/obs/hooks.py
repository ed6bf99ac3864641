"""The instrumentation hook bus: named hook points with scoped subscriptions.

Every :class:`~repro.core.engine.PgxdCluster` owns one :class:`HookBus`.
Engine layers *emit* events at well-known hook points; observers (the
metrics recorder, the span profiler, user code) *subscribe* per hook name.
A hook marks a lifecycle transition (a job's start and end, a fault, a
checkpoint or recovery, a scheduler, cache or epoch event), never a unit
of work: what each chunk, flush, request, copier pass, message, phase,
barrier, ghost reduce, disk window, retry or duplicate drop did is a row
or count of the attempt's :class:`~repro.runtime.stats.JobStats`.
Because the bus is an instance — not process-global monkeypatching — two
clusters (and two tracers) coexist in one process with disjoint event
streams.

Emission is cheap when nobody listens: ``emit`` returns after one dict
lookup.  Subscribers receive the payload dict positionally::

    def on_end(payload: dict) -> None: ...
    sub = bus.subscribe("job.end", on_end)
    ...
    bus.unsubscribe(sub)

:data:`KNOWN_HOOKS` is the payload schema of the engine's own hook points
(``docs/observability.md`` tabulates it); time fields are simulated
seconds.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

#: Tags a job's :class:`ScopedHookBus` adds to every payload it emits; the
#: schema lists one only where an unscoped emit carries it (``sched.*``).
SCOPE_TAGS = ("session", "ticket")


def _schema(table: Mapping[str, str]) -> Mapping[str, tuple[str, ...]]:
    return MappingProxyType({name: tuple(fields.split(", "))
                             for name, fields in table.items()})


#: The engine's hook schema: built-in hook name -> payload fields, scope
#: tags aside (user hooks may use any other name).  Declared as the
#: comma-separated lists ``docs/observability.md`` tabulates.
KNOWN_HOOKS = _schema({
    "job.start": "job, time",
    "job.end": "job, start, duration",
    "job.checkpoint": "path, time",
    "job.recover": "job, checkpoint, time",
    "job.incremental": ("algo, mode, epoch, iterations, recomputed_vertices, "
                        "fallback, duration, time"),
    "dynamic.apply": ("epoch, inserted, removed, machines_patched, "
                      "machines_reused, duration, time"),
    "fault.inject": "fault, time",
    "sched.admit": "session, job, priority, depth, time",
    "sched.reject": "session, job, reason, time",
    "sched.dispatch": "session, job, priority, wait, running, depth, time",
    "sched.preempt": "session, by, job, time",
    "sched.complete": "session, job, priority, wait, turnaround, time",
    "cache.hit": "job, fingerprint, cost, saved, entries, time",
    "cache.miss": "job, fingerprint, cost, entries, time",
    "cache.evict": "reason, count, family, epoch, entries, time",
})

#: Fields only some events of a hook carry: each fault's own details.
OPTIONAL_FIELDS = _schema({
    "fault.inject": "src, dst, kind, machine, seconds, factor, duration",
})


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

    def subscribe_known(self, mapping: Mapping[str, Callable]
                        ) -> list[Subscription]:
        """:meth:`subscribe_many` for engine observers: a handler for a
        name outside :data:`KNOWN_HOOKS` would never fire, so it raises."""
        unknown = sorted(set(mapping).difference(KNOWN_HOOKS))
        if unknown:
            raise ValueError(f"not engine hooks: {unknown}")
        return self.subscribe_many(mapping)

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
    engine layers use (``emit``); subscription management stays on the
    underlying bus.
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
