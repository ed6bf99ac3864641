"""Epoch-keyed result cache + the admitted read path (the serving tier).

The paper deploys PGX.D as a *server* (Section 2): many sessions ask the
same questions of the same graphs, and repeated reads should not re-pay
the scan.  This module is the read-path counterpart to the incremental
engine's write path:

* :class:`ResultCache` — a cluster-wide LRU cache keyed on
  ``(graph family, graph epoch, query fingerprint)``.  A *family* names a
  graph across its epoch chain (every
  :class:`~repro.core.incremental.IncrementalEngine` snapshot of one
  dynamic graph shares a family), so an epoch bump from the PR-9 mutation
  path evicts exactly the mutated graph's stale entries — other graphs'
  results survive untouched.
* :class:`ReadExecution` — the scheduler-compatible execution of one
  :class:`~repro.core.job.ReadJob`: consult the cache, compute on a miss
  via the job's priced host-side thunk, and charge the modeled read
  latency (the cache's near-zero hit cost, or the full compute cost) on
  the simulated clock while co-running tenants keep advancing.

Hits and misses emit ``cache.hit`` / ``cache.miss`` on the read's scoped
hook bus (so they are session-tagged and metered per job); evictions emit
``cache.evict`` with a ``reason`` of ``epoch`` or ``capacity``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..runtime.config import _at_least
from ..runtime.stats import JobStats
from .job import ReadJob

__all__ = ["CacheConfig", "CacheEntry", "ResultCache", "ReadExecution",
           "zipf_weights"]


@dataclass(frozen=True)
class CacheConfig:
    """Tuning knobs for the result cache."""

    #: LRU capacity in entries.
    max_entries: int = 256

    #: Modeled driver-side cost of serving a hit (hash lookup + handoff of
    #: an already-materialized result) — the "near-zero" read latency.
    hit_seconds: float = 2e-7

    def __post_init__(self) -> None:
        _at_least(self, 0, "max_entries", "hit_seconds")


@dataclass
class CacheEntry:
    family: int          #: graph family the result belongs to
    epoch: int           #: graph epoch the result was computed at
    fingerprint: str     #: query/algorithm fingerprint
    value: object        #: the materialized result
    cost: float          #: miss-side compute cost this entry amortizes
    hits: int = 0

    @property
    def key(self) -> tuple:
        return (self.family, self.epoch, self.fingerprint)


class ResultCache:
    """Versioned result cache for one cluster (attach via
    ``ResultCache(cluster)`` or ``PgxdServer.enable_cache()``)."""

    def __init__(self, cluster, config: Optional[CacheConfig] = None):
        if getattr(cluster, "result_cache", None) is not None:
            raise ValueError("cluster already has a result cache attached")
        self.cluster = cluster
        self.config = config or CacheConfig()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._next_family = 0
        cluster.result_cache = self

    def __len__(self) -> int:
        return len(self._entries)

    # -- graph identity ----------------------------------------------------

    def _tag(self, dgraph) -> tuple[int, int]:
        """(family, epoch) of a graph, assigning a fresh family on first
        sight.  Tags live on the ``DistributedGraph`` itself, so a
        garbage-collected graph can never alias a new one's identity."""
        family = getattr(dgraph, "_cache_family", None)
        if family is None:
            self._next_family += 1
            family = self._next_family
            dgraph._cache_family = family
            dgraph._cache_epoch = getattr(dgraph, "_cache_epoch", 0)
        return family, dgraph._cache_epoch

    def on_epoch(self, engine, prev_dg, new_dg, epoch: int) -> None:
        """Invalidation hook: ``engine`` just installed ``epoch``.

        Called from ``IncrementalEngine._install_epoch``.  The new
        snapshot inherits the engine's family (adopted from the previous
        snapshot the first time this engine is seen), and exactly the
        entries of *this* family with an older epoch are evicted.
        """
        family = getattr(engine, "_cache_family", None)
        if family is None:
            family, _ = self._tag(prev_dg)
            engine._cache_family = family
        new_dg._cache_family = family
        new_dg._cache_epoch = epoch
        stale = [k for k, e in self._entries.items()
                 if e.family == family and e.epoch < epoch]
        for k in stale:
            del self._entries[k]
        if stale:
            self.cluster.hooks.emit("cache.evict", reason="epoch",
                                    count=len(stale), family=family,
                                    epoch=epoch, entries=len(self._entries),
                                    time=self.cluster.sim.now)

    def invalidate(self, dgraph) -> int:
        """Manually drop every entry of ``dgraph``'s family (any epoch)."""
        family, _ = self._tag(dgraph)
        stale = [k for k, e in self._entries.items() if e.family == family]
        for k in stale:
            del self._entries[k]
        if stale:
            self.cluster.hooks.emit("cache.evict", reason="manual",
                                    count=len(stale), family=family,
                                    epoch=None, entries=len(self._entries),
                                    time=self.cluster.sim.now)
        return len(stale)

    # -- lookup / insert ---------------------------------------------------

    def peek(self, dgraph, fingerprint: str) -> Optional[CacheEntry]:
        """Silent lookup: no LRU touch, no accounting, no hooks.  Used to
        pick the compute path before a read is admitted."""
        family, epoch = self._tag(dgraph)
        return self._entries.get((family, epoch, fingerprint))

    def lookup(self, dgraph, fingerprint: str) -> Optional[CacheEntry]:
        """LRU-touching lookup (the outcome's hook is the caller's job —
        see :meth:`note_hit` / :meth:`note_miss`)."""
        entry = self.peek(dgraph, fingerprint)
        if entry is not None:
            self._entries.move_to_end(entry.key)
            entry.hits += 1
        return entry

    def put(self, dgraph, fingerprint: str, value, cost: float) -> CacheEntry:
        family, epoch = self._tag(dgraph)
        entry = CacheEntry(family=family, epoch=epoch,
                           fingerprint=fingerprint, value=value, cost=cost)
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.config.max_entries:
            victim_key, _victim = self._entries.popitem(last=False)
            self.cluster.hooks.emit("cache.evict", reason="capacity",
                                    count=1, family=victim_key[0],
                                    epoch=victim_key[1],
                                    entries=len(self._entries),
                                    time=self.cluster.sim.now)
        return entry

    # -- outcome hooks, the cache's only count (shared by ReadExecution and
    #    the cached-algorithm miss path, which computes outside the
    #    scheduler); the recorder turns them into the ``cache.*`` families --

    def note_hit(self, hooks, job_name: str, fingerprint: str,
                 cost: float, saved: float) -> None:
        hooks.emit("cache.hit", job=job_name, fingerprint=fingerprint,
                   cost=cost, saved=saved, entries=len(self._entries),
                   time=self.cluster.sim.now)

    def note_miss(self, hooks, job_name: str, fingerprint: str,
                  cost: float) -> None:
        hooks.emit("cache.miss", job=job_name, fingerprint=fingerprint,
                   cost=cost, entries=len(self._entries),
                   time=self.cluster.sim.now)


class ReadExecution:
    """Execution of one :class:`ReadJob` on the simulator.

    Scheduler-compatible twin of :class:`JobExecution` (``start`` /
    ``done`` / ``on_done`` / ``stats`` / ``stall_diagnostics``): a cache
    hit serves the stored result at the configured near-zero hit cost; a
    miss runs the job's priced host-side thunk, installs the result, and
    charges the full modeled compute cost.  Either way the latency lands
    on the simulated clock as this job's elapsed time, so reads flow
    through the same fairness ledger and per-session accounting as every
    other job.
    """

    def __init__(self, cluster, dgraph, job: ReadJob, hooks):
        self.cluster = cluster
        self.dgraph = dgraph
        self.job = job
        self.sim = cluster.sim
        self.hooks = hooks
        self.on_done = None
        self.done = False
        self.phase = "read"
        self.stats = JobStats(start_time=self.sim.now)

    def start(self) -> None:
        self.hooks.emit("job.start", job=self.job.name, time=self.sim.now)
        job = self.job
        cache = getattr(self.cluster, "result_cache", None)
        entry = (cache.lookup(self.dgraph, job.fingerprint)
                 if cache is not None and job.fingerprint else None)
        if entry is not None:
            job.result = entry.value
            job.cached = True
            cost = cache.config.hit_seconds
            cache.note_hit(self.hooks, job.name, job.fingerprint, cost,
                           saved=max(0.0, entry.cost - cost))
        else:
            if job.compute is None:
                raise ValueError(
                    f"read job {job.name!r} missed the cache but has no "
                    "compute thunk")
            job.result, cost = job.compute()
            job.cached = False
            if cache is not None and job.fingerprint:
                cache.put(self.dgraph, job.fingerprint, job.result, cost)
                cache.note_miss(self.hooks, job.name, job.fingerprint, cost)
        job.cost = cost
        self.sim.schedule_at(self.sim.now + cost, self._finalize)

    def _finalize(self) -> None:
        self.phase = "done"
        self.stats.end_time = self.sim.now
        self.hooks.emit("job.end", job=self.job.name,
                        start=self.stats.start_time,
                        duration=self.stats.elapsed)
        self.done = True
        if self.on_done is not None:
            self.on_done(self)

    def stall_diagnostics(self) -> dict:
        return {"job": self.job.name, "phase": self.phase,
                "cached": self.job.cached,
                "fingerprint": self.job.fingerprint}


def zipf_weights(n: int, s: float = 1.2) -> np.ndarray:
    """Zipf(s) probability weights over ranks ``1..n`` (the classic
    skewed-popularity model the serve trace and query benchmark draw
    from)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -s
    return w / w.sum()
