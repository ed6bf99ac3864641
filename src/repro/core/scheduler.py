"""Cluster-level multi-tenant job scheduler (Section 6.2's server story).

The paper's closing discussion asks what happens when PGX.D stops being a
batch engine and serves "multiple client sessions in an interactive manner"
— that raises three problems this module answers:

* **Admission**: sessions :meth:`~JobScheduler.submit` into per-priority
  queues guarded by per-session quotas and a global depth cap; violations
  surface as typed exceptions (:class:`QuotaExceededError`,
  :class:`QueueFullError`) so clients can apply backpressure.
* **Fairness**: the next runnable job is chosen by a deficit-weighted
  fair-share policy — among dispatchable sessions, the one with the least
  weight-normalized consumed service wins; :meth:`~JobScheduler.deficits`
  exposes the (zero-sum) deficit ledger.
* **Concurrency**: multiple :class:`~repro.core.jobrunner.JobExecution`
  instances advance in the *same* simulator event loop (one per distinct
  :class:`~repro.core.engine.DistributedGraph`; same-graph jobs serialize
  on a graph lock because they share machine state).  Each execution
  emits through a :class:`~repro.obs.hooks.ScopedHookBus` — session/ticket
  tags plus a sparse per-ticket metric ledger — so chunks, messages and
  ``JobStats`` stay attributable per job and per session even while
  interleaved.

The load-bearing invariant (enforced by ``tests/core/test_scheduler.py``):
a job's numeric results are **bit-identical** whether it ran alone or
interleaved with other tenants, and a fixed seed yields a bit-identical
dispatch schedule.  Cross-tenant contention on the shared fabric ports can
reorder message arrivals, but never their content — and the engine applies
all remote reduction payloads in canonical content order at phase
boundaries (see ``JobExecution._apply_staged``), so arrival order is
immaterial to the numbers.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Optional

from ..obs.hooks import ScopedHookBus
from .faults import EngineStallError, MachineCrashError
from .job import Job, ReadJob, program_step
from .jobrunner import JobExecution, make_execution
from ..runtime.config import _at_least
from ..runtime.stats import JobStats


class SchedulerError(RuntimeError):
    """A scheduler invariant was violated (misconfiguration or deadlock)."""


class AdmissionError(SchedulerError):
    """Base for typed admission rejections (the backpressure signal)."""

    reason = "rejected"

    def __init__(self, session: str, job_name: str, detail: str):
        super().__init__(
            f"session {session!r} job {job_name!r} rejected: {detail}")
        self.session = session
        self.job_name = job_name
        self.detail = detail


class QuotaExceededError(AdmissionError):
    """The session already has its full quota of queued jobs."""

    reason = "quota"


class QueueFullError(AdmissionError):
    """The cluster-wide admission queue is at capacity."""

    reason = "queue_full"


class ReadRateLimitError(AdmissionError):
    """The session exceeded its served-read rate (token bucket empty)."""

    reason = "read_rate"


#: Priority classes, dispatched strictly in this order.
PRIORITIES = ("high", "normal", "low")
#: The class of inline jobs and of submissions that name none.
DEFAULT_PRIORITY = "normal"


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of one :class:`JobScheduler`.

    A session runs one job at a time, so its jobs execute in submission
    order even when it owns several graphs.
    """

    max_concurrent_jobs: int = 4
    max_queued_per_session: int = 64
    max_queue_depth: int = 256
    #: served reads admitted per session per simulated second (token
    #: bucket over the simulated clock); ``None`` disables the limit
    read_rate_per_session: Optional[float] = None
    #: token-bucket burst capacity for served reads
    read_burst: float = 8.0

    def __post_init__(self) -> None:
        _at_least(self, 1, "max_concurrent_jobs")
        _at_least(self, 0, "max_queued_per_session", "max_queue_depth",
                  "read_burst")
        if self.read_rate_per_session is not None:
            _at_least(self, 0, "read_rate_per_session", strict=True)


#: Ticket lifecycle states (FAILED: abandoned when an error escaped the
#: job loop while it ran).
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass(eq=False)
class JobTicket:
    """One admitted job: identity, placement and timing of its run."""

    seq: int
    session: str
    dgraph: object
    job: Job
    priority: str
    inline: bool = False
    submit_time: float = 0.0
    dispatch_time: Optional[float] = None
    finish_time: Optional[float] = None
    state: str = QUEUED
    stats: Optional[JobStats] = None
    #: the live execution while RUNNING; dropped at completion
    execution: Optional[JobExecution] = None
    #: crash recoveries this job used (capped by ``max_recoveries``)
    recoveries: int = 0
    #: the background program this job is a step of, if any.  A finished
    #: ticket drops it and ``dgraph`` (and a read's ``compute`` thunk), so
    #: the log of tickets pins no superseded graph.
    program: Optional["ProgramRun"] = None

    @property
    def wait(self) -> float:
        """Queue wait: admission to dispatch (0 for inline jobs)."""
        if self.dispatch_time is None:
            return 0.0
        return self.dispatch_time - self.submit_time

    @property
    def turnaround(self) -> float:
        """Admission to completion."""
        if self.finish_time is None:
            return 0.0
        return self.finish_time - self.submit_time


@dataclass(eq=False)
class ProgramRun:
    """A background algorithm program (:meth:`JobScheduler.submit_program`);
    ``result`` holds its return value once ``done``."""

    session: str
    dgraph: object
    generator: Generator
    priority: str
    result: object = None
    done: bool = False


class JobScheduler:
    """Fair-share admission + concurrent dispatch over one cluster: the
    engine's one job loop.

    Every job is a ticket: :meth:`PgxdCluster.run_job` is
    :meth:`run_inline`, and creates a default scheduler on the cluster's
    first job, so a configured scheduler must be attached before that.
    Algorithm drivers thus interleave with queued background work while
    keeping their synchronous call shape.
    """

    def __init__(self, cluster, config: Optional[SchedulerConfig] = None,
                 weights: Optional[dict[str, float]] = None):
        if getattr(cluster, "scheduler", None) is not None:
            raise SchedulerError("cluster already has a scheduler attached")
        self.cluster = cluster
        self.config = config or SchedulerConfig()
        #: session -> fair-share weight (unlisted sessions weigh 1.0)
        self.weights = dict(weights or {})
        self._queues: dict[str, deque[JobTicket]] = {
            p: deque() for p in PRIORITIES}
        self._running: dict[JobTicket, JobExecution] = {}
        self._busy_dgraphs: set[int] = set()
        self._busy_sessions: set[str] = set()
        #: session -> weight-normalizable consumed service (simulated s)
        self._service: dict[str, float] = {}
        self._seq = 0
        self._inline_session = "driver"
        #: session -> (tokens, last-refill simulated time) for served reads
        self._read_buckets: dict[str, tuple[float, float]] = {}
        #: every ticket ever admitted or run inline, in seq order
        self.tickets: list[JobTicket] = []
        #: background programs not yet finished, in submission order
        self._programs: list[ProgramRun] = []
        #: (index, time, session, job, priority, wait) per dispatch — the
        #: deterministic schedule record the differential tests compare
        self.dispatch_log: list[tuple[int, float, str, str, str, float]] = []
        #: called with each finished ticket (the server's accounting hook)
        self.on_complete: Optional[Callable[[JobTicket], None]] = None
        cluster.scheduler = self

    # -- introspection -----------------------------------------------------

    def queued_count(self, session: Optional[str] = None) -> int:
        if session is None:
            return sum(len(q) for q in self._queues.values())
        return sum(1 for q in self._queues.values()
                   for t in q if t.session == session)

    def running_count(self) -> int:
        return len(self._running)

    def weight(self, session: str) -> float:
        return float(self.weights.get(session, 1.0))

    def dispatch_log_for(self, session: str) -> list[tuple[str, str]]:
        """One session's dispatch subsequence as (job, priority) pairs.

        Cross-session interleaving may legitimately shift with fabric
        timing, but each session's own subsequence is FIFO by construction
        — the projection the determinism auditor compares across perturbed
        schedules.
        """
        return [(job, prio) for (_, _, sess, job, prio, _)
                in self.dispatch_log if sess == session]

    def service_by_session(self) -> dict[str, float]:
        """Consumed simulated seconds per session (the fairness ledger)."""
        return dict(self._service)

    def deficits(self) -> dict[str, float]:
        """Weighted fair-share deficit per session.

        A session's deficit is its weight-proportional entitlement of the
        total consumed service minus what it actually consumed; positive
        means under-served.  The ledger sums to zero by construction —
        the conservation law the property-based tests assert.
        """
        if not self._service:
            return {}
        total = sum(self._service.values())
        wsum = sum(self.weight(s) for s in self._service)
        return {s: total * (self.weight(s) / wsum) - used
                for s, used in sorted(self._service.items())}

    @contextmanager
    def session_scope(self, session: str):
        """Attribute inline (synchronous) jobs in this block to ``session``."""
        prev = self._inline_session
        self._inline_session = session
        try:
            yield self
        finally:
            self._inline_session = prev

    # -- admission ---------------------------------------------------------

    def admit_read(self, session: str, job_name: str) -> None:
        """Per-session rate limit for served reads (the serving tier).

        A token bucket over *simulated* time refills at
        ``read_rate_per_session`` tokens/sec up to ``read_burst``; each
        admitted read spends one token.  A dry bucket emits
        ``sched.reject`` (reason ``read_rate``, feeding the existing
        ``repro_sched_rejected_total`` family) and raises
        :class:`ReadRateLimitError` — the same typed-backpressure contract
        as the queue quotas.  No-op when the limit is unset.
        """
        rate = self.config.read_rate_per_session
        if rate is None:
            return
        now = self.cluster.sim.now
        tokens, last = self._read_buckets.get(
            session, (self.config.read_burst, now))
        tokens = min(self.config.read_burst, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._read_buckets[session] = (tokens, now)
            self.cluster.hooks.emit("sched.reject", session=session,
                                    job=job_name, reason="read_rate",
                                    time=now)
            raise ReadRateLimitError(
                session, job_name,
                f"read rate {rate}/s exhausted "
                f"(burst {self.config.read_burst})")
        self._read_buckets[session] = (tokens - 1.0, now)

    def submit(self, session: str, dgraph, job: Job, *,
               priority: Optional[str] = None) -> JobTicket:
        """Admit a job into the priority queues; returns its ticket.

        Raises :class:`QuotaExceededError` when the session's queued-job
        quota is exhausted and :class:`QueueFullError` when the global
        queue is at capacity — both before anything is enqueued, so a
        rejected submit leaves no trace beyond a ``sched.reject`` event.
        """
        prio = self._admit(session, job.name, priority)
        if job.kind == "read":
            self.admit_read(session, job.name)
        return self._enqueue(session, dgraph, job, prio)

    def submit_program(self, session: str, dgraph, program: Generator, *,
                       priority: Optional[str] = None) -> ProgramRun:
        """Run an algorithm program (``algo.program(dg, ...)``, see
        :meth:`PgxdCluster.run`) in the background, one step per
        completion: each job becomes the session's next ticket, and any
        other step raises ``TypeError``.  Admission checks run once, and
        the program runs to its first step here, so argument errors raise
        with nothing queued.
        """
        prio = self._admit(session, program.__name__, priority)
        run = ProgramRun(session=session, dgraph=dgraph, generator=program,
                         priority=prio)
        self._programs.append(run)
        self._advance(run, None)
        return run

    def _admit(self, session: str, job_name: str,
               priority: Optional[str]) -> str:
        """Check priority, quota and queue depth; returns the priority."""
        prio = priority if priority is not None else DEFAULT_PRIORITY
        if prio not in self._queues:
            raise SchedulerError(
                f"unknown priority {prio!r}; configured: {PRIORITIES}")
        now = self.cluster.sim.now
        if self.queued_count(session) >= self.config.max_queued_per_session:
            self.cluster.hooks.emit("sched.reject", session=session,
                                    job=job_name, reason="quota", time=now)
            raise QuotaExceededError(
                session, job_name,
                f"{self.config.max_queued_per_session} jobs already queued")
        if self.queued_count() >= self.config.max_queue_depth:
            self.cluster.hooks.emit("sched.reject", session=session,
                                    job=job_name, reason="queue_full",
                                    time=now)
            raise QueueFullError(
                session, job_name,
                f"admission queue at capacity ({self.config.max_queue_depth})")
        return prio

    def _enqueue(self, session: str, dgraph, job: Job, prio: str,
                 program: Optional[ProgramRun] = None) -> JobTicket:
        now = self.cluster.sim.now
        ticket = JobTicket(seq=self._next_seq(), session=session,
                           dgraph=dgraph, job=job, priority=prio,
                           submit_time=now, program=program)
        self._queues[prio].append(ticket)
        self.tickets.append(ticket)
        self.cluster.hooks.emit("sched.admit", session=session, job=job.name,
                                priority=prio, depth=len(self._queues[prio]),
                                time=now)
        return ticket

    def _advance(self, run: ProgramRun, value) -> None:
        """Send a background program its last step's outcome and queue the
        step it yields next.  A step that raises closes the program."""
        try:
            step = program_step(run.generator.send(value))
            self._enqueue(run.session, run.dgraph, step, run.priority,
                          program=run)
        except StopIteration as stop:
            run.result, run.done = stop.value, True
            self._programs.remove(run)
        except BaseException:
            run.generator.close()
            self._programs.remove(run)
            raise

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- fair-share selection ----------------------------------------------

    def _dispatchable(self, ticket: JobTicket) -> bool:
        return (id(ticket.dgraph) not in self._busy_dgraphs
                and ticket.session not in self._busy_sessions)

    def _select_next(self) -> Optional[JobTicket]:
        """Deficit-weighted pick: the dispatchable head-of-line ticket of
        the least-served session, priority classes strictly first.

        Per-session FIFO is preserved — a session whose head ticket is
        blocked contributes nothing, rather than having a later job jump
        its own queue.  When the pick skips over an earlier-submitted
        ticket of a more-served session, that session was effectively
        preempted at dispatch time and a ``sched.preempt`` event records
        it (regions are atomic, so this is head-of-line skipping, not
        interruption).
        """
        for prio in PRIORITIES:
            heads: dict[str, JobTicket] = {}
            blocked: set[str] = set()
            for t in self._queues[prio]:
                if t.session in heads or t.session in blocked:
                    continue
                if self._dispatchable(t):
                    heads[t.session] = t
                else:
                    blocked.add(t.session)
            if not heads:
                continue
            best = min(heads.values(),
                       key=lambda t: (self._service.get(t.session, 0.0)
                                      / self.weight(t.session), t.seq))
            for t in heads.values():
                if t is not best and t.seq < best.seq:
                    self.cluster.hooks.emit(
                        "sched.preempt", session=t.session,
                        by=best.session, job=t.job.name,
                        time=self.cluster.sim.now)
            self._queues[prio].remove(best)
            return best
        return None

    def _dispatch_ready(self) -> None:
        while len(self._running) < self.config.max_concurrent_jobs:
            ticket = self._select_next()
            if ticket is None:
                return
            self._start(ticket)

    # -- dispatch + completion ---------------------------------------------

    def _start(self, ticket: JobTicket) -> None:
        cl = self.cluster
        hooks = ScopedHookBus(cl.hooks, cl.metrics,
                              tags={"session": ticket.session,
                                    "ticket": ticket.seq})
        exc = make_execution(cl, ticket.dgraph, ticket.job, hooks=hooks)
        ticket.execution = exc
        ticket.dispatch_time = cl.sim.now
        ticket.state = RUNNING
        self._running[ticket] = exc
        self._busy_dgraphs.add(id(ticket.dgraph))
        self._busy_sessions.add(ticket.session)
        self.dispatch_log.append(
            (len(self.dispatch_log), cl.sim.now, ticket.session,
             ticket.job.name, ticket.priority, ticket.wait))
        cl.hooks.emit("sched.dispatch", session=ticket.session,
                      job=ticket.job.name, priority=ticket.priority,
                      wait=ticket.wait, running=len(self._running),
                      depth=len(self._queues[ticket.priority]),
                      time=cl.sim.now)
        exc.on_done = partial(self._job_finished, ticket)
        exc.start()

    def _job_finished(self, ticket: JobTicket, exc: JobExecution) -> None:
        cl = self.cluster
        stats = exc.stats
        reg = cl.metrics
        reg.ledger = ledger = exc.hooks.ledger
        try:
            cl.recorder.fold(stats)
            reg.counter("repro_jobs_total", labelnames=("kind",)).labels(
                kind=type(ticket.job).__name__).inc()
            reg.histogram("repro_job_seconds").observe(stats.elapsed)
        finally:
            reg.ledger = None
        stats.metrics_delta = {k: v for k, v in ledger.items() if v != 0.0}
        if cl.profiler is not None:
            cl.profiler.annotate(stats, ticket.seq)
        ticket.stats = stats
        ticket.finish_time = cl.sim.now
        ticket.state = DONE
        self._release(ticket)
        self._service[ticket.session] = (
            self._service.get(ticket.session, 0.0) + stats.elapsed)
        cl.job_log.append((ticket.job.name, stats))
        cl._maybe_auto_checkpoint(ticket.dgraph)
        cl.hooks.emit("sched.complete", session=ticket.session,
                      job=ticket.job.name, priority=ticket.priority,
                      wait=ticket.wait, turnaround=ticket.turnaround,
                      time=cl.sim.now)
        if self.on_complete is not None:
            self.on_complete(ticket)
        program = ticket.program
        self._unpin(ticket)
        if program is not None:
            self._advance(program, stats)
        self._dispatch_ready()

    # -- the job loop ------------------------------------------------------

    def drain(self) -> None:
        """Run until every admitted job and program has completed."""
        self._run(lambda: bool(self._running or self.queued_count()
                               or self._programs))

    def run_inline(self, dgraph, job: Job,
                   session: Optional[str] = None) -> JobStats:
        """Synchronously run one job while queued tenants co-run.

        This is :meth:`PgxdCluster.run_job`: the calling driver blocks
        until *its* job finishes, but every simulator step it takes also
        advances any background executions, and completions backfill free
        slots from the admission queues.  Inline jobs skip admission (they
        are the session's synchronous turn) but honor the graph lock, the
        session's one running job, and the fairness ledger.
        """
        sess = session if session is not None else self._inline_session
        if job.kind == "read":
            self.admit_read(sess, job.name)
        ticket = JobTicket(seq=self._next_seq(), session=sess, dgraph=dgraph,
                           job=job, priority=DEFAULT_PRIORITY, inline=True,
                           submit_time=self.cluster.sim.now)
        self.tickets.append(ticket)
        self._run(lambda: ticket.state != DONE, inline=ticket)
        return ticket.stats

    def _run(self, busy: Callable[[], bool],
             inline: Optional[JobTicket] = None) -> None:
        """Step the simulator while ``busy()`` holds.

        ``inline`` (the synchronous caller's ticket) starts as soon as its
        graph and session are free.  A machine crash rolls the running
        tickets back through :meth:`_recover_running` and the loop
        resumes; the inline ticket is started again, queued ones were put
        back at the front of their queues.  An error that escapes
        abandons the running tickets (:meth:`_abandon_running`).
        """
        cl = self.cluster
        crash_events = (cl.faults.arm_crashes()
                        if cl.faults is not None else [])
        try:
            self._dispatch_ready()
            while True:
                try:
                    if inline is not None and inline.state == QUEUED:
                        if not cl.sim.step_while(
                                lambda: not self._dispatchable(inline)):
                            raise SchedulerError(
                                f"inline job {inline.job.name!r} blocked on "
                                "graph/session capacity that never frees")
                        self._start(inline)
                    if cl.sim.step_while(busy):
                        return
                    if not self._running:
                        raise SchedulerError(
                            f"{self.queued_count()} queued jobs but none "
                            "dispatchable (max_concurrent_jobs="
                            f"{self.config.max_concurrent_jobs})")
                    ticket = inline or next(iter(self._running))
                    raise EngineStallError(
                        ticket.job.name, ticket.execution.stall_diagnostics())
                except MachineCrashError:
                    crash_events = self._recover_running()
        except BaseException:
            self._abandon_running()
            raise
        finally:
            for ev in crash_events:
                cl.sim.cancel(ev)
            self._account_sim_events()

    def _account_sim_events(self) -> None:
        """Raise the cluster's simulator-event counters to the simulator's
        totals (cluster-level: never part of a job's ``metrics_delta``)."""
        sim, reg = self.cluster.sim, self.cluster.metrics
        events = reg.counter("repro_sim_events_total")
        events.inc(sim.events_executed - events.value)
        pool_hits = reg.counter("repro_sim_event_pool_hits")
        pool_hits.inc(sim.event_pool_hits - pool_hits.value)

    def _release(self, ticket: JobTicket) -> None:
        """Free a ticket's execution, graph lock and session slot."""
        ticket.execution = None
        exc = self._running.pop(ticket)
        if isinstance(exc, JobExecution):
            exc.close()
        self._busy_dgraphs.discard(id(ticket.dgraph))
        self._busy_sessions.discard(ticket.session)

    @staticmethod
    def _unpin(ticket: JobTicket) -> None:
        """Drop a finished ticket's references to its graph and program."""
        ticket.dgraph = ticket.program = None
        if isinstance(ticket.job, ReadJob):
            ticket.job.compute = None

    def _drop_running(self) -> list[JobTicket]:
        """Discard every pending event and the running executions'
        per-machine state; returns the released tickets in seq order.
        What the abandoned attempts did still counts in the registry
        totals, outside any job's ledger."""
        cl = self.cluster
        active = sorted(self._running, key=lambda t: t.seq)
        cl.sim.clear_pending()
        cl.network.reset()
        for ticket in active:
            cl.recorder.fold(self._running[ticket].stats)
            # a mutation's token is its engine: the build touched no
            # machine, and the unfinished epoch is simply never installed
            if ticket.job.kind != "mutation":
                cl._reset_dgraph_state(ticket.dgraph)
            self._release(ticket)
        return active

    def _abandon_running(self) -> None:
        """An error escaped the job loop: fail the running tickets and close
        their programs, so no column or event of a dead run outlives it."""
        for ticket in self._drop_running():
            ticket.state = FAILED
            if ticket.program is not None:
                ticket.program.generator.close()
                self._programs.remove(ticket.program)
            self._unpin(ticket)

    # -- crash recovery ----------------------------------------------------

    def _recover_running(self) -> list:
        """Roll every active execution back to the checkpoint and requeue.

        The crashed executions' events are abandoned wholesale (they must
        not fire into the restarted jobs), per-machine queues and thread
        accounting are cleared, property columns are restored from the
        auto-checkpoint, and the clock advances by the plan's
        ``restart_delay`` to model detection + restart.

        Recovery is only possible when each active execution targets the
        cluster's auto-checkpointed graph and has recoveries left of its
        per-job ``max_recoveries``; otherwise the crash propagates to the
        caller.  Without a checkpoint a rerun would start from half-applied
        writes, so that crash propagates too.
        Interrupted queued tickets rejoin the front of their priority
        queues in admission order; the interrupted inline ticket is started
        again by :meth:`_run`.
        """
        cl = self.cluster
        active = sorted(self._running, key=lambda t: t.seq)
        recoverable = (
            active
            and cl._last_checkpoint is not None
            and all(t.dgraph is cl._ckpt_dgraph
                    and t.recoveries < cl.max_recoveries for t in active)
        )
        if not recoverable:
            raise
        # the armed crash events go with everything else, and each failed
        # attempt's ledger with its execution
        self._drop_running()
        for ticket in active:
            ticket.recoveries += 1
            ticket.dispatch_time = None
            ticket.state = QUEUED
        from .checkpoint import restore_properties

        restore_properties(active[0].dgraph, cl._last_checkpoint)
        cl.advance(cl.faults.plan.restart_delay)
        for ticket in active:
            cl.hooks.emit("job.recover", job=ticket.job.name,
                          time=cl.sim.now,
                          checkpoint=str(cl._last_checkpoint))
        for ticket in reversed([t for t in active if not t.inline]):
            self._queues[ticket.priority].appendleft(ticket)
        fresh = cl.faults.arm_crashes()
        self._dispatch_ready()
        return fresh
