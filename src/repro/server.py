"""A long-running, multi-graph, multi-client server facade (Section 6.2).

The paper's first "future improvement" is extending PGX.D into a
long-running server where "each client can load up multiple graph instances
and execute different analysis algorithms on them in an interactive manner",
raising resource-fairness questions.  This module implements that layer on
the simulated cluster:

* named **sessions** own named **graph instances** (loaded once, reused);
* every server funnels jobs through a cluster-level
  :class:`~repro.core.scheduler.JobScheduler`: synchronous
  :meth:`Session.run_job` calls block until their job completes, while
  :meth:`Session.submit_job` and :meth:`Session.submit_program` queue
  background work that is admitted under per-session quotas, dispatched
  by deficit-weighted fair share, and executed **concurrently** — jobs on
  distinct graph instances interleave in the same simulated event loop
  (same-graph jobs still serialize on the graph's machine state);
* per-session **accounting** (simulated seconds consumed, jobs run, bytes
  moved, per-session metric slices) flows from the scheduler's completion
  callback, so it stays exact even when tenants overlap; a simple
  fair-share check (:meth:`PgxdServer.over_fair_share`) flags hogs.

See ``docs/serving.md`` for the admission/fairness/backpressure contract.
"""

from __future__ import annotations

import copy

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core.engine import DistributedGraph, PgxdCluster
from .core.job import Job, ReadJob
from .core.result_cache import CacheConfig, ResultCache
from .core.scheduler import (JobScheduler, JobTicket, ProgramRun,
                             SchedulerConfig)
from .graph.csr import Graph
from .obs.profiler import SpanProfiler
from .query import PropertyQuery
from .runtime.stats import JobStats

#: :meth:`PgxdServer.over_fair_share` flags sessions above this multiple
#: of the mean consumed simulated time.
FAIR_SHARE_WINDOW = 1.5


@dataclass
class SessionUsage:
    """Resource accounting for one client session."""

    jobs_run: int = 0
    simulated_seconds: float = 0.0
    bytes_moved: float = 0.0
    graphs_loaded: int = 0
    #: accumulated per-job metric deltas (flat ``name{labels}`` -> value),
    #: the session's slice of the cluster-wide :class:`MetricsRegistry`
    metrics: dict = field(default_factory=dict)


class Session:
    """One client's handle onto the server."""

    def __init__(self, server: "PgxdServer", name: str):
        self._server = server
        self.name = name
        self.usage = SessionUsage()
        self._graphs: dict[str, DistributedGraph] = {}

    # -- graph management ------------------------------------------------------

    def load_graph(self, graph_name: str, graph: Graph) -> DistributedGraph:
        if graph_name in self._graphs:
            raise KeyError(f"session {self.name!r} already has graph "
                           f"{graph_name!r}")
        dg = self._server.cluster.load_graph(graph)
        self._graphs[graph_name] = dg
        self.usage.graphs_loaded += 1
        return dg

    def attach_graph(self, graph_name: str,
                     dg: DistributedGraph) -> DistributedGraph:
        """Register an already-loaded graph under this session — e.g. an
        :class:`~repro.core.incremental.IncrementalEngine` epoch snapshot
        from ``engine.pin()``.  Rebinding an existing name is allowed:
        serving follows an engine's epoch chain by re-attaching each new
        pin."""
        self._graphs[graph_name] = dg
        return dg

    def graph(self, graph_name: str) -> DistributedGraph:
        return self._graphs[graph_name]

    def drop_graph(self, graph_name: str) -> None:
        del self._graphs[graph_name]

    def graph_names(self) -> list[str]:
        return sorted(self._graphs)

    # -- execution ----------------------------------------------------------------

    def run_job(self, graph_name: str, job: Job) -> JobStats:
        """Run one job synchronously; queued background tenants co-run."""
        return self._server.scheduler.run_inline(
            self._graphs[graph_name], job, session=self.name)

    def submit_job(self, graph_name: str, job: Job, *,
                   priority: Optional[str] = None) -> JobTicket:
        """Queue one background job; raises the scheduler's typed admission
        errors (:class:`~repro.core.scheduler.QuotaExceededError`,
        :class:`~repro.core.scheduler.QueueFullError`) as backpressure."""
        return self._server.scheduler.submit(
            self.name, self._graphs[graph_name], job, priority=priority)

    def submit_program(self, graph_name: str, algorithm: Callable, /,
                       *args, priority: Optional[str] = None,
                       **kwargs) -> ProgramRun:
        """Run one of ``repro.algorithms`` in the background, each of its
        jobs a ticket of this session (see
        :meth:`~repro.core.scheduler.JobScheduler.submit_program`).  The
        handle's ``result`` is the ``AlgorithmResult`` once ``done``;
        admission and argument errors raise with nothing queued."""
        dg = self._graphs[graph_name]
        return self._server.scheduler.submit_program(
            self.name, dg, algorithm.program(dg, *args, **kwargs),
            priority=priority)

    def run_algorithm(self, graph_name: str, algorithm: Callable, /,
                      *args, **kwargs):
        """Run one of ``repro.algorithms`` under this session's accounting.

        Each parallel region the algorithm launches becomes one inline
        scheduler ticket attributed to this session, so accounting and the
        fairness ledger stay exact even while background jobs interleave.
        """
        dg = self._graphs[graph_name]
        with self._server.scheduler.session_scope(self.name):
            return algorithm(self._server.cluster, dg, *args, **kwargs)

    # -- served reads ------------------------------------------------------

    def query(self, graph_name: str) -> "SessionQuery":
        """A :class:`~repro.query.PropertyQuery` builder whose terminal
        operations (``execute``/``count``/``aggregate``) run as admitted
        read jobs: rate-limited per session, accounted in the fairness
        ledger, and served from the result cache when one is enabled."""
        return SessionQuery(self, graph_name)

    def run_cached(self, graph_name: str, algorithm: Callable, /,
                   *args, **kwargs):
        """Algorithm lookup through the result cache.

        A hit serves the stored result as a near-zero-cost read job; a
        miss runs the algorithm normally under this session's accounting
        and installs a snapshot of its result for subsequent lookups.
        Without an enabled cache this degrades to a rate-limited
        :meth:`run_algorithm` call, so results are identical either way.
        The miss path charges the same one read-admission token as a hit,
        so rate limiting treats both uniformly.
        """
        server = self._server
        dg = self._graphs[graph_name]
        fp = _algorithm_fingerprint(algorithm, args, kwargs)
        name = (f"read:{graph_name}:"
                f"{getattr(algorithm, '__name__', 'algorithm')}")
        cache = server.cache
        if cache is not None and cache.peek(dg, fp) is not None:
            return self._read(dg, name, fp, None)
        # Miss (or no cache): one admission token, then the real run.  The
        # algorithm cannot execute inside a read job — its parallel
        # regions are themselves scheduled jobs — so it runs first and the
        # cache is installed afterwards at the observed cost.
        server.scheduler.admit_read(self.name, name)
        t0 = server.cluster.sim.now
        result = self.run_algorithm(graph_name, algorithm, *args, **kwargs)
        cost = server.cluster.sim.now - t0
        if cache is not None:
            cache.put(dg, fp, _snapshot_result(result), cost)
            cache.note_miss(server.cluster.hooks, name, fp, cost)
        return result

    def _read(self, dg: DistributedGraph, name: str, fingerprint: str,
              compute: Optional[Callable[[], tuple]]):
        """Run one admitted read job: it consults the result cache (when
        enabled), computes via the priced host-side ``compute`` thunk on a
        miss, and charges its cost on the simulated clock through the
        scheduler — so reads are rate-limited, accounted, and interleave
        with background tenants like any other job.  Raises
        :class:`~repro.core.scheduler.ReadRateLimitError` as backpressure
        when the session's read budget is exhausted."""
        job = ReadJob(name=name, fingerprint=fingerprint, compute=compute)
        self._server.scheduler.run_inline(dg, job, session=self.name)
        return job.result


class SessionQuery(PropertyQuery):
    """A session-bound query: same builder surface as
    :class:`~repro.query.PropertyQuery`, but the terminal operations route
    through the server's read path (scheduler admission + per-session
    read rate limiting + the epoch-keyed result cache) instead of
    executing driver-side."""

    def __init__(self, session: Session, graph_name: str):
        super().__init__(session._server.cluster, session.graph(graph_name))
        self._session = session
        self._graph_name = graph_name

    def execute(self) -> list[tuple[int, dict[str, float]]]:
        return self._session._read(
            self.dgraph, f"read:{self._graph_name}:execute",
            self.fingerprint("execute"), self._execute_priced)

    def count(self) -> int:
        return self._session._read(
            self.dgraph, f"read:{self._graph_name}:count",
            self.fingerprint("count"), self._count_priced)

    def aggregate(self, prop: str, how: str = "sum") -> float:
        return self._session._read(
            self.dgraph, f"read:{self._graph_name}:aggregate",
            self.fingerprint("aggregate", prop, how),
            lambda: self._aggregate_priced(prop, how))


def _algorithm_fingerprint(algorithm: Callable, args, kwargs) -> str:
    """Deterministic cache key for an algorithm invocation."""
    name = getattr(algorithm, "__name__", repr(algorithm))
    parts = [f"algo:{name}"]
    parts.extend(repr(a) for a in args)
    parts.extend(f"{k}={kwargs[k]!r}" for k in sorted(kwargs))
    return "|".join(parts)


def _snapshot_result(result):
    """Freeze an algorithm result for caching: later jobs may overwrite
    the live property columns a result's ``values`` can reference, so the
    cached copy owns its arrays."""
    values = getattr(result, "values", None)
    if not isinstance(values, dict):
        return result
    snapshot = copy.copy(result)
    snapshot.values = {k: np.array(v, copy=True) for k, v in values.items()}
    return snapshot


class PgxdServer:
    """The multi-tenant facade over one simulated cluster."""

    def __init__(self, cluster: Optional[PgxdCluster] = None,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 weights: Optional[dict[str, float]] = None):
        self.cluster = cluster or PgxdCluster()
        if self.cluster.scheduler is None:
            self.scheduler = JobScheduler(self.cluster, scheduler_config,
                                          weights)
        else:
            if scheduler_config is not None or weights is not None:
                raise ValueError(
                    "cluster already has a scheduler; configure it there")
            self.scheduler = self.cluster.scheduler
        self.scheduler.on_complete = self._on_ticket_complete
        self._sessions: dict[str, Session] = {}

    # -- session lifecycle --------------------------------------------------------

    def create_session(self, name: str) -> Session:
        if name in self._sessions:
            raise KeyError(f"session {name!r} already exists")
        s = Session(self, name)
        self._sessions[name] = s
        return s

    def session(self, name: str) -> Session:
        return self._sessions[name]

    def close_session(self, name: str) -> SessionUsage:
        """Close a session and return its final usage.  Jobs it already
        queued still run; their completions simply stop accruing here."""
        return self._sessions.pop(name).usage

    def session_names(self) -> list[str]:
        return sorted(self._sessions)

    # -- execution -------------------------------------------------------------------

    def drain(self) -> None:
        """Run until every queued background job has completed."""
        self.scheduler.drain()

    # -- the serving tier (result cache + admitted reads) ------------------

    def enable_cache(self, config: Optional[CacheConfig] = None) -> ResultCache:
        """Attach an epoch-keyed :class:`ResultCache` to the cluster
        (idempotent).  From here on, served reads
        (:meth:`Session.query`, :meth:`Session.run_cached`) answer
        repeated questions at the cache's near-zero hit cost until a
        mutation epoch invalidates them."""
        if self.cluster.result_cache is not None:
            return self.cluster.result_cache
        return ResultCache(self.cluster, config)

    @property
    def cache(self) -> Optional[ResultCache]:
        return self.cluster.result_cache

    def _on_ticket_complete(self, ticket: JobTicket) -> None:
        session = self._sessions.get(ticket.session)
        if session is None:
            return
        stats = ticket.stats
        self._account(session, stats.elapsed, stats.total_bytes, jobs=1,
                      metrics=stats.metrics_delta)

    def _account(self, session: Session, seconds: float, nbytes: float,
                 jobs: int, metrics: Optional[dict] = None) -> None:
        session.usage.jobs_run += jobs
        session.usage.simulated_seconds += seconds
        session.usage.bytes_moved += nbytes
        for key, value in (metrics or {}).items():
            session.usage.metrics[key] = session.usage.metrics.get(key, 0.0) + value

    # -- profiling ---------------------------------------------------------------------

    def enable_profiling(self) -> SpanProfiler:
        """Install a :class:`~repro.obs.profiler.SpanProfiler` on the
        cluster (idempotent).  Every job any session runs from here on gets
        span capture and critical-path fields on its stats; spans stay
        attributed per session via the scheduler's scoped buses."""
        if self.cluster.profiler is not None:
            return self.cluster.profiler
        profiler = SpanProfiler(self.cluster)
        profiler.install()
        return profiler

    def profile_rollup(self) -> dict[str, dict]:
        """Per-session critical-path totals (empty without a profiler):
        ``{session: {jobs, critical_path_seconds, straggler_machines}}``
        where ``straggler_machines`` counts how often each machine was a
        session job's straggler."""
        profiler = self.cluster.profiler
        if profiler is None:
            return {}
        out: dict[str, dict] = {}
        for name in self._sessions:
            profiles = profiler.profiles_for(name)
            stragglers: dict[int, int] = {}
            for prof in profiles:
                straggler = prof.straggler_machine
                if straggler is not None:
                    stragglers[straggler] = stragglers.get(straggler, 0) + 1
            out[name] = {
                "jobs": len(profiles),
                "critical_path_seconds": sum(p.critical_path_len
                                             for p in profiles),
                "straggler_machines": stragglers,
            }
        return out

    # -- fairness ----------------------------------------------------------------------

    def usage_report(self) -> dict[str, SessionUsage]:
        return {name: s.usage for name, s in self._sessions.items()}

    def metrics_rollup(self) -> dict[str, dict]:
        """Per-session metric totals, keyed by session name.  Each value is a
        flat ``name{labels}`` -> delta mapping covering the jobs that session
        ran — sliced causally by each job's per-ticket metric ledger, so
        the rollup stays disjoint even when sessions' jobs interleave;
        summing across sessions approximates the cluster registry (minus
        activity outside any session)."""
        return {name: dict(s.usage.metrics)
                for name, s in self._sessions.items()}

    def deficits(self) -> dict[str, float]:
        """The scheduler's zero-sum fair-share deficit ledger (positive =
        under-served session)."""
        return self.scheduler.deficits()

    def over_fair_share(self) -> list[str]:
        """Sessions consuming more than :data:`FAIR_SHARE_WINDOW` times the
        mean simulated time — the hook the scheduler's weights can act on."""
        if not self._sessions:
            return []
        times = {n: s.usage.simulated_seconds for n, s in self._sessions.items()}
        mean = sum(times.values()) / len(times)
        if mean == 0:
            return []
        return sorted(n for n, t in times.items()
                      if t > FAIR_SHARE_WINDOW * mean)
