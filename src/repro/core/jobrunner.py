"""Job orchestration: ghost sync, main phase, termination, barrier.

One :class:`JobExecution` drives a parallel region (Figure 2) through four
phases on the simulator:

1. **pre-sync** — ghost columns of properties *read* in the region receive
   the owners' current values; ghost columns of properties *written* are set
   to the reduction's bottom value (Section 3.3);
2. **main** — the Task Manager fills every machine's chunk queue and workers
   run until the task lists are empty and no remote requests remain
   unfinished (the paper's completion rule, Section 3.2);
3. **post-sync** — ghost partials reduce back to the owners, in two stages
   when privatization is on (cores -> machine -> owner);
4. **barrier** — the end-of-step synchronization of Figure 5(b); a job's
   ``reduce`` rides it as one tree all-reduce.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..audit.invariants import AuditTracker, check_execution
from ..graph.chunking import make_chunks, node_chunks
from ..runtime.stats import JobStats
from .comm_manager import CopierState, deliver_request, deliver_response
from .faults import ReliabilityLayer
from .job import EdgeMapJob, Job, NodeKernelJob, TaskJob
from .messages import Message, MsgKind
from .properties import ReduceOp
from .routing_plan import canonical_apply
from .task_manager import (MachineWindowStream, WorkerState, build_windows,
                           wake_worker)
from . import barrier as barrier_mod


class JobExecution:
    """Execution state of one parallel region across the cluster."""

    def __init__(self, cluster, dgraph, job: Job, hooks):
        self.cluster = cluster
        self.dgraph = dgraph
        self.job = job
        self.sim = cluster.sim
        self.network = cluster.network
        #: the bus this region emits on: the scheduler passes its ticket's
        #: :class:`~repro.obs.hooks.ScopedHookBus`, which tags every payload
        #: with session/ticket and keeps the job's metric ledger.
        self.hooks = hooks
        #: invoked (with this execution) right after the region finishes —
        #: the scheduler's event-driven completion signal.
        self.on_done = None
        self.machines = dgraph.machines
        self.num_machines = len(self.machines)

        ecfg = cluster.config.engine
        mcfg = cluster.config.machine
        self.buffer_size = ecfg.buffer_size
        self.max_inflight_per_dest = ecfg.max_inflight_per_dest
        self.marshal_per_item = ecfg.marshal_per_item
        self.task_dispatch_time = ecfg.task_dispatch_time
        self.chunk_dispatch_time = ecfg.chunk_dispatch_time
        self.cpu_op_time = mcfg.cpu_op_time
        self.combine_per_item = ecfg.combine_per_item
        #: length of the write combine's scratch columns: every offset a
        #: write flush carries is below it
        self.largest_partition = max(m.n_local for m in self.machines)
        self.out_of_core = ecfg.out_of_core
        #: per-machine window streams, built in ``_phase_main`` when the
        #: region iterates edges out-of-core; None keeps the in-memory
        #: paths structurally untouched (one attribute load on the worker
        #: done-rule is the entire off-mode cost).
        self.window_streams: Optional[list[MachineWindowStream]] = None

        #: per-execution request-id source: id sequences restart at 0 for
        #: every region, making traces and golden tests independent of what
        #: else ran in the process (the module-global counter in messages.py
        #: remains only as a fallback for ad-hoc Message construction).
        self._request_ids = itertools.count()
        #: fault injection + the reliability defenses (both None => the
        #: engine behaves bit-identically to one without a fault layer)
        self.faults = cluster.faults
        self.reliability = (ReliabilityLayer(self, self.faults.plan)
                            if self.faults is not None else None)
        #: conservation checker (repro.audit): per-request accounting while
        #: the job runs, invariants enforced at finalize.  None => zero cost.
        self.audit = AuditTracker() if ecfg.audit else None

        self.stats = JobStats(start_time=self.sim.now)
        self.ghosts_active = dgraph.num_ghosts > 0
        # Ghost synchronization applies to regions that may touch remote
        # vertices (edge-map and general task jobs).  Node kernels operate on
        # each machine's own rows only, so they need no ghost lifecycle.
        # OVERWRITE is not a reduction — such properties cannot be combined
        # from ghost partials and stay out of the ghost write set.
        self.syncs_ghosts = self.ghosts_active and not isinstance(job, NodeKernelJob)
        self.ghost_write_props = tuple(
            (p, op) for p, op in job.writes if op is not ReduceOp.OVERWRITE
        ) if self.syncs_ghosts else ()
        self.ghost_write_set = frozenset(p for p, _ in self.ghost_write_props)
        self.ghost_read_set = (frozenset(job.reads) if self.syncs_ghosts
                               else frozenset())
        self.privatize = (ecfg.ghost_privatization
                          and bool(self.ghost_write_props))

        # The job's type picks the execution path: an EdgeMapJob runs its
        # spec vectorized, a TaskJob its task class on the scalar RTC path.
        self.spec = None
        self.task_cls: Optional[type] = None
        if isinstance(job, EdgeMapJob):
            self.spec = job.spec
        elif isinstance(job, TaskJob):
            self.task_cls = job.task_cls
        elif not isinstance(job, NodeKernelJob):
            raise TypeError(f"unsupported job type {type(job).__name__}")
        spec = self.declared_spec
        #: the CSR directions whose chunks the region's queue holds, in
        #: queue order: a spec's, a free-form task's ``ITER``, or "node"
        if spec is not None:
            self.iter_kinds = spec.iter_kinds
        else:
            self.iter_kinds = (self.task_cls.ITER if self.task_cls is not None
                               else "node",)
        #: a push's writes can collide on a target -> atomics; a pull's
        #: targets are owned by a single worker (Section 5.2).  A free-form
        #: task writes like a push unless it iterates in-edges.
        self.job_uses_atomics = (spec.direction == "push" if spec is not None
                                 else self.iter_kinds != ("in",))

        self.workers: list[list[WorkerState]] = []
        self.copiers: list[list[CopierState]] = [
            [CopierState(m, c) for c in range(ecfg.num_copiers)]
            for m in self.machines
        ]

        self.phase = "init"
        self._phase_started_at: Optional[float] = None
        self.done = False
        self.chunks_remaining = 0
        self.workers_remaining = 0
        self.write_outstanding = 0
        self.rmi_outstanding = 0
        self.sync_outstanding = 0
        self._postsync_pending = 0

        #: remote contributions staged for a canonical apply, keyed
        #: (machine, prop, op-name) -> (op, [(rows, values), ...]).  Pull
        #: read responses, WRITE_REQ payloads and post-sync ghost partials
        #: are *priced* when they arrive (their work lands on the worker's or
        #: copier's timeline); :meth:`stage` applies one at once where no
        #: arrival order can change the result, and stages the rest to be
        #: reduced once, in canonical content order, at the next phase
        #: boundary (:meth:`_apply_staged`).  So a float SUM's result is
        #: independent of arrival order: retried, duplicated or delayed
        #: traffic, and another tenant's contention on the shared fabric,
        #: reproduce the fault-free standalone run bit for bit.
        self._staged: dict[tuple[int, str, str], tuple[ReduceOp, list]] = {}
        #: written properties the region never reads: a spec names every
        #: column its region reads (the job's reads and the active filter);
        #: a free-form task may read any local column, so none qualify
        self._unread_targets = frozenset(
            p for p, _ in job.writes
            if p not in job.reads and p != spec.active
        ) if spec is not None else frozenset()
        #: prop -> (its idempotent op, each machine's copy of its rows at
        #: job start): what :meth:`atomic_cost` tests contributions
        #: against; filled by :meth:`start`
        self._start_values: dict[str, tuple[ReduceOp, list[np.ndarray]]] = {}

    # ------------------------------------------------------------------
    # lookup helpers used by workers/copiers
    # ------------------------------------------------------------------

    @property
    def declared_spec(self):
        """The :class:`EdgeMapSpec` the region runs — the vectorized job's,
        or the one a spec-built task class keeps; None for a free-form task
        and a node kernel."""
        if self.spec is not None:
            return self.spec
        return getattr(self.task_cls, "SPEC", None)

    def local_view(self, machine: int):
        from .engine import LocalView

        return LocalView(self.machines[machine])

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def next_request_id(self) -> int:
        """Deterministic per-execution request id (satellite of PR 3)."""
        return next(self._request_ids)

    def _transmit(self, msg: Message, kind: str, deliver) -> None:
        self.network.send(msg.src, msg.dst, msg.wire_bytes(), deliver, self,
                          msg, kind=kind, stats=self.stats)

    def send_request(self, msg: Message, kind: str) -> None:
        self._transmit(msg, kind, deliver_request)
        if self.reliability is not None:
            self.reliability.track(msg, kind)
        if self.audit is not None:
            self.audit.track(msg.request_id, kind)

    def resend_request(self, msg: Message, kind: str) -> None:
        """Retransmit a tracked request (reliability layer timer path):
        the original send already tracked it, and the caller owns the
        timer."""
        self._transmit(msg, kind, deliver_request)

    def send_response(self, msg: Message) -> None:
        self._transmit(msg, "read_resp", deliver_response)

    def send_rmi(self, src: int, dst: int, fn_id: int, args: tuple) -> None:
        msg = Message(MsgKind.RMI_REQ, src=src, dst=dst, rmi_fn=fn_id,
                      rmi_args=args, request_id=self.next_request_id())
        self.rmi_outstanding += 1
        self.send_request(msg, kind="rmi")

    # ------------------------------------------------------------------
    # phase machine
    # ------------------------------------------------------------------

    def _set_phase(self, phase: str) -> None:
        """Advance the phase machine, recording the finished phase's
        span."""
        now = self.sim.now
        if self._phase_started_at is not None:
            self.stats.spans.append(
                (self.sim.current, None, self.phase, "phase",
                 self._phase_started_at, now - self._phase_started_at))
        self.phase = phase
        self._phase_started_at = None if phase == "done" else now

    def start(self) -> None:
        self.hooks.emit("job.start", job=self.job.name, time=self.sim.now)
        self._snapshot_start_values()
        self._set_phase("presync")
        self._begin_ghost_writes()
        self._send_presync()
        if self.sync_outstanding == 0:
            self._phase_main()

    def _snapshot_start_values(self) -> None:
        """Copy every machine's rows of each idempotent write target — an
        edge map's pushed target, a task job's declared writes — into the
        machine's persistent start-value buffers.  The buffers are keyed by
        byte size and position, not by property, so a dropped scratch
        column leaves none behind and same-width dtypes share one."""
        if self.spec is not None:
            targets = (((self.spec.target, self.spec.op),)
                       if self.spec.direction == "push" else ())
        else:
            targets = self.job.writes if self.task_cls is not None else ()
        for pos, (prop, op) in enumerate(t for t in targets
                                         if t[1].idempotent):
            cols = []
            for m in self.machines:
                src = m.props[prop]
                key = (src.nbytes, pos)
                buf = m.start_values.get(key)
                if buf is None:
                    buf = m.start_values[key] = np.empty(src.nbytes, np.uint8)
                start = buf.view(src.dtype)
                np.copyto(start, src)
                cols.append(start)
            self._start_values[prop] = (op, cols)

    def atomic_cost(self, machine, prop: str, op: ReduceOp,
                    offsets: np.ndarray, values: np.ndarray,
                    ghost: bool = False) -> tuple[int, int]:
        """``(compares, atomics)`` that reducing ``values`` into rows
        ``offsets`` of ``machine``'s ``prop`` costs — the one pricing rule
        of every atomic site (worker pushes, copier applies, the scalar
        task context).

        An idempotent reduction is a priority update: a plain load tests
        each contribution, and only one that changes the row's job-start
        value issues the atomic.  Its join only moves a row one way, so a
        contribution that leaves the start value unchanged is a no-op
        against every value the row takes during the job: the count bounds
        what a test-and-CAS loop issues under any schedule.  NaN counts as
        a change; ``-0.0`` against ``+0.0`` does not (which zero survives
        is unspecified anyway).  A ``ghost`` column starts the job at the
        operator's bottom.  SUM, OVERWRITE and any ``(prop, op)`` the job
        does not declare pay one atomic per contribution, untested.  The
        atomics are added to ``stats.atomic_ops`` here, where they are
        priced.
        """
        n = len(offsets)
        start = self._start_values.get(prop)
        if start is None or start[0] is not op or n == 0:
            self.stats.atomic_ops += n
            return 0, n
        col = start[1][machine.index]
        before = op.bottom(col.dtype) if ghost else col.take(offsets)
        atomics = n - int(np.count_nonzero(op.keeps(before, values,
                                                    col.dtype)))
        self.stats.atomic_ops += atomics
        return n, atomics

    def _begin_ghost_writes(self) -> None:
        """Bottom-initialize ghost columns for writes."""
        for prop, op in self.ghost_write_props:
            for m in self.machines:
                m.ghosts.begin_writes(prop, op, m.props.dtype(prop))

    def _send_presync(self) -> None:
        """Broadcast owner values of ghosted vertices for every read prop."""
        if not self.syncs_ghosts or not self.job.reads:
            return
        for prop in self.job.reads:
            for owner in self.machines:
                slots, offsets = owner.ghosts.ghosts_owned_here()
                if len(slots) == 0:
                    continue
                values = owner.props[prop][offsets]
                for dst in self.machines:
                    if dst.index == owner.index:
                        # The owner's own ghost column mirrors its originals
                        # so local tasks can read either representation.
                        dst.ghosts.ensure_column(prop, values.dtype)[slots] = values
                        continue
                    msg = Message(
                        MsgKind.GHOST_SYNC, owner.index, dst.index, prop=prop,
                        offsets=slots, values=values, ghost_pre=True,
                        request_id=self.next_request_id())
                    self.sync_outstanding += 1
                    self.send_request(msg, kind="ghost_sync")

    def check_sync_done(self) -> None:
        if self.sync_outstanding > 0:
            return
        if self.phase == "presync":
            self._phase_main()
        elif self.phase == "postsync" and self._postsync_pending == 0:
            self._phase_barrier()

    def _phase_main(self) -> None:
        """Fill every machine's chunk queue and start its workers.

        A queue holds ``(lo, hi, kind)`` chunks: each CSR direction's
        chunks in :attr:`iter_kinds` order, so an undirected sweep runs
        the forward CSR's chunks, then the reverse CSR's, in one region.
        """
        self._set_phase("main")
        ecfg = self.cluster.config.engine
        # Edge-iterating regions stream their windows in out-of-core mode;
        # node kernels never touch the edge arrays, so they run in-memory
        # regardless (vertex property columns are always DRAM-resident).
        streaming = self.out_of_core and self.iter_kinds != ("node",)
        # A window holds one chunk per worker: enough to keep every worker
        # busy while the next window loads.
        window_edges = ecfg.num_workers * ecfg.chunk_size
        total_chunks = 0
        if streaming:
            self.window_streams = []
        for m in self.machines:
            m.chunk_queue.clear()
            windows, prefixes, key = [], {}, None
            for kind in self.iter_kinds:
                if kind == "node":
                    ranges = node_chunks(m.n_local, max(1, ecfg.chunk_size))
                else:
                    ranges = make_chunks(m.csr(kind).starts, ecfg.chunking,
                                         ecfg.chunk_size)
                chunks = [(lo, hi, kind) for lo, hi in ranges]
                total_chunks += len(chunks)
                if not streaming:
                    m.chunk_queue.extend(chunks)
                    continue
                # Windows never span two CSRs: each direction's are built
                # over its own rows and streamed in queue order.
                csr = m.csr(kind)
                prefixes[kind] = csr.disk_row_prefix(m.lo)
                columns = self._streamed_edge_columns(csr)
                windows += build_windows(chunks, csr.starts, prefixes[kind],
                                         window_edges, columns)
                if key is None:
                    key = (csr, kind, columns)
            if streaming:
                self.window_streams.append(MachineWindowStream(
                    self, m, windows, prefixes, key))
        self.chunks_remaining = total_chunks

        self.workers = [
            [WorkerState(self, m, w) for w in range(ecfg.num_workers)]
            for m in self.machines
        ]
        self.workers_remaining = self.num_machines * ecfg.num_workers
        if streaming:
            for stream in self.window_streams:
                stream.start()
        for mw in self.workers:
            for ws in mw:
                wake_worker(self, ws)

    def _streamed_edge_columns(self, csr) -> int:
        """Per-edge columns a streamed window must carry for this job: the
        one an :class:`EdgeMapSpec` names (weights or ``edge_prop``) when
        it reads any — also for a task class built from a spec; a free-form
        task may read every column the CSR has."""
        spec = self.declared_spec
        if spec is not None:
            return 1 if spec.use_weights else 0
        return (csr.weights is not None) + len(csr.props or ())

    def stream_cache_pressure(self, machine_index: int) -> float:
        """Resolved bytes of streamed edge windows resident in a machine's
        DRAM.

        The comm manager folds this into a copier's working-set size: in
        out-of-core mode the pipelined window reads sweep the LLC,
        so copier-side scatters/gathers see less cache residency.  Always
        0.0 in-memory (the windowed path costs the off mode nothing).
        """
        if self.window_streams is None:
            return 0.0
        return self.window_streams[machine_index].resident_bytes

    def on_worker_done(self, ws: WorkerState) -> None:
        self.workers_remaining -= 1
        self.check_main_done()

    def check_main_done(self) -> None:
        if (self.phase == "main" and self.workers_remaining == 0
                and self.write_outstanding == 0 and self.rmi_outstanding == 0):
            self._phase_postsync()

    def stage(self, machine_index: int, prop: str, op: ReduceOp,
              rows: np.ndarray, values: np.ndarray) -> None:
        """Reduce a remote contribution into ``machine_index``'s ``prop``,
        or record it for the next :meth:`_apply_staged`.

        An :meth:`~repro.core.properties.ReduceOp.order_insensitive`
        reduction into a column the region never reads applies on
        arrival: every arrival order gives the same bits, and nothing in
        the region sees the column before its end, so the result is the
        staged one (``canonical_apply`` skips the sort for exactly these
        groups) without holding the payload until the phase boundary.
        Float SUM, OVERWRITE and reductions into a column the region reads
        stay staged.
        """
        if prop in self._unread_targets:
            target = self.machines[machine_index].props[prop]
            if op.order_insensitive(target.dtype):
                op.apply_at(target, rows, values)
                return
        key = (machine_index, prop, op.name)
        group = self._staged.get(key)
        if group is None:
            group = self._staged[key] = (op, [])
        group[1].append((rows, values))

    def _apply_staged(self) -> None:
        """Reduce every staged group into its property in canonical order.

        Groups go in key order and each is reduced by
        :func:`repro.core.routing_plan.canonical_apply`, so the reduction
        order is a function of the data alone — independent of delivery
        order, of which copier or worker handled which message, and of any
        co-running tenant's traffic.  Purely host-side: the apply work was
        already priced when each message was processed.  Runs when the main
        phase ends (pull responses or push writes, from every CSR direction
        the region iterates) and at the barrier (post-sync ghost partials,
        which are sent only after the first apply).  Groups that
        :meth:`stage` applied on arrival never reach it.
        """
        staged = self._staged
        for key in sorted(staged):
            machine_index, prop, _ = key
            op, batches = staged[key]
            rows = np.concatenate([r for r, _ in batches])
            vals = np.concatenate([v for _, v in batches])
            machine = self.machines[machine_index]
            canonical_apply(op, machine.props[prop], rows, vals,
                            machine.stage_cache)
        staged.clear()

    def _phase_postsync(self) -> None:
        self._apply_staged()
        self._set_phase("postsync")
        if not self.ghost_write_props:
            self._phase_barrier()
            return
        self._postsync_pending = self.num_machines
        for m in self.machines:
            # Stage 1: reduce worker-private ghost copies into the machine
            # column (costed per machine, overlapping across machines).
            elements = 0
            if self.privatize:
                for prop, _ in self.ghost_write_props:
                    elements += m.ghosts.reduce_private(prop)
            dur = m.cpu.mixed_duration(cpu_ops=elements * 1.0, atomic_ops=0,
                                       random_bytes=0.0,
                                       seq_bytes=elements * 8.0)
            if self.faults is not None:
                dur *= self.faults.work_scale(m.index, self.sim.now)
            self.sim.schedule_at(self.sim.now + dur,
                                 self._postsync_machine_done, m,
                                 self.sim.now)

    def _postsync_machine_done(self, m, started: float) -> None:
        """Stage 2: ship ghost partials to the owners."""
        self.stats.spans.append((self.sim.current, m.index, None,
                                 "ghost-reduce", started,
                                 self.sim.now - started))
        for prop, op in self.ghost_write_props:
            if prop not in m.ghosts.arrays:
                continue
            for owner in self.machines:
                offsets, values = m.ghosts.partials_for_owner(prop, owner.index)
                if len(offsets) == 0:
                    continue
                if owner.index == m.index:
                    op.apply_at(m.props[prop], offsets, values)
                    continue
                msg = Message(
                    MsgKind.GHOST_SYNC, m.index, owner.index, prop=prop,
                    offsets=offsets, values=values, op=op, ghost_pre=False,
                    request_id=self.next_request_id())
                self.sync_outstanding += 1
                self.send_request(msg, kind="ghost_sync")
        self._postsync_pending -= 1
        if self._postsync_pending == 0:
            self.check_sync_done()

    def _phase_barrier(self) -> None:
        self._apply_staged()
        self._set_phase("barrier")
        nbytes = 0.0  # a bare barrier: the tree's hops carry no value
        if self.job.reduce is not None:
            # The reduction rides the closing barrier: one tree all-reduce
            # synchronizes the machines and combines their values.
            self.stats.reduced = self.job.reduce.value(self.dgraph)
            nbytes = 8.0
        self.sim.schedule_at(self.sim.now + barrier_mod.all_reduce_latency(
            self.num_machines, self.cluster.config.network, nbytes),
            self._finalize)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stall_diagnostics(self) -> dict:
        """Per-worker parked/in-flight state for :class:`EngineStallError`."""
        workers = []
        for mw in self.workers:
            for ws in mw:
                if ws.done and not ws.parked and not ws.outstanding_reads:
                    continue
                workers.append({
                    "machine": ws.machine.index,
                    "worker": ws.windex,
                    "done": ws.done,
                    "scheduled": ws.scheduled,
                    "outstanding_reads": ws.outstanding_reads,
                    "parked": len(ws.parked),
                    "pending_responses": len(ws.pending_resp),
                    "inflight_by_dst": dict(ws.inflight_by_dst),
                })
        return {
            "job": self.job.name,
            "phase": self.phase,
            "workers_remaining": self.workers_remaining,
            "chunks_remaining": self.chunks_remaining,
            "write_outstanding": self.write_outstanding,
            "sync_outstanding": self.sync_outstanding,
            "rmi_outstanding": self.rmi_outstanding,
            "queued_requests": {m.index: len(m.request_queue)
                                for m in self.machines},
            "retry_pending": (self.reliability.pending_count
                              if self.reliability is not None else 0),
            "window_streams": ([s.diagnostics() for s in self.window_streams]
                               if self.window_streams is not None else None),
            "workers": workers,
        }

    def _finalize(self) -> None:
        start = self._phase_started_at
        self.stats.spans.append((self.sim.current, None, None, "barrier",
                                 start, self.sim.now - start))
        self._set_phase("done")
        self.stats.end_time = self.sim.now
        self.hooks.emit("job.end", job=self.job.name,
                        start=self.stats.start_time,
                        duration=self.stats.elapsed)
        self.done = True
        if self.audit is not None:
            # Conservation check before the completion signal: a violating
            # job must fail loudly, not hand corrupt results downstream.
            check_execution(self, raise_on_violation=True)
        if self.on_done is not None:
            self.on_done(self)

    def close(self) -> None:
        """Drop the worker states and window streams, which point back
        at this execution, once the scheduler is done with it.  Reference
        counting then frees the execution, and the graph epoch it pins,
        the moment the scheduler lets go, instead of at whichever full
        garbage collection comes next: a serving tier that supersedes an
        epoch per mutation would otherwise hold a varying number of dead
        epochs at its peak.  Under a fault layer a late duplicate may
        still reach a worker after the region ends, so those executions
        are left to the collector."""
        if self.reliability is not None:
            return
        for mw in self.workers:
            for ws in mw:
                ws.ctx = None
        self.workers = []
        self.window_streams = None


def make_execution(cluster, dgraph, job: Job, hooks):
    """Build the execution for ``job``, emitting on ``hooks`` — the single
    dispatch point of the scheduler's job loop.

    Mutation jobs (``job.kind == "mutation"``) get a
    :class:`~repro.core.incremental.MutationExecution`: same interface
    (``start``/``done``/``on_done``/``stats``/``stall_diagnostics``), but
    ``dgraph`` is the owning :class:`IncrementalEngine` — the graph-lock
    token serializing mutations against each other while readers of the
    previous epoch's ``DistributedGraph`` proceed.  Read jobs
    (``job.kind == "read"``) get a
    :class:`~repro.core.result_cache.ReadExecution` — the serving tier's
    cache-aware read path.  Everything else runs as a regular
    :class:`JobExecution`.
    """
    if job.kind == "mutation":
        from .incremental import MutationExecution

        return MutationExecution(cluster, job, hooks=hooks)
    if job.kind == "read":
        from .result_cache import ReadExecution

        return ReadExecution(cluster, dgraph, job, hooks=hooks)
    return JobExecution(cluster, dgraph, job, hooks=hooks)
