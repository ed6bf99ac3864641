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
4. **barrier** — the end-of-step synchronization of Figure 5(b).
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
from .messages import Message, MsgKind, SideStructure
from .properties import ReduceOp
from .routing_plan import canonical_apply
from .task_manager import (MachineWindowStream, WorkerState, build_windows,
                           wake_worker)
from . import barrier as barrier_mod


class JobExecution:
    """Execution state of one parallel region across the cluster."""

    def __init__(self, cluster, dgraph, job: Job, hooks=None):
        self.cluster = cluster
        self.dgraph = dgraph
        self.job = job
        self.sim = cluster.sim
        self.network = cluster.network
        #: standalone runs emit straight on the cluster bus; scheduled runs
        #: get a :class:`~repro.obs.hooks.ScopedHookBus` that tags every
        #: payload with session/ticket and keeps the job's metric ledger.
        self.hooks = hooks if hooks is not None else cluster.hooks
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
        self.ooc_window_edges = ecfg.ooc_window_edges
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
        #: message/side-structure free lists — safe only when nothing can
        #: retain a message past its terminal hop, so pooling is off
        #: whenever the fault layer (retry timers hold message refs) is on
        self.msg_pool = cluster.msg_pool if self.faults is None else None

        #: per-hook has-subscriber flags, cached once per execution: hot
        #: emit sites skip building the payload dict entirely when nobody
        #: listens (subscription changes mid-job are not a supported use).
        hooks = self.hooks
        self.emit_chunk_start = hooks.has("task.chunk_start")
        self.emit_chunk_end = hooks.has("task.chunk_end")
        self.emit_copier_start = hooks.has("comm.copier_start")
        self.emit_copier_done = hooks.has("comm.copier_done")
        self.emit_queue_depth = hooks.has("comm.queue_depth")
        self.emit_enqueue = hooks.has("comm.enqueue")
        self.emit_flush = hooks.has("comm.flush")
        self.emit_disk_read = hooks.has("disk.read")

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
            iter_kind = job.spec.iter_kind
        elif isinstance(job, TaskJob):
            self.task_cls = job.task_cls
            iter_kind = job.iter_kind
        elif isinstance(job, NodeKernelJob):
            iter_kind = "node"
        else:
            raise TypeError(f"unsupported job type {type(job).__name__}")
        self.iter_kind = iter_kind
        #: pushes and free-form writes can collide on a target -> atomics;
        #: pull targets are owned by a single worker (Section 5.2).
        self.job_uses_atomics = iter_kind != "in"

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

        #: per-machine staging of remote read-response contributions for the
        #: vectorized path.  Responses are *priced* when they arrive (their
        #: work still lands on the worker's timeline) but their values are
        #: applied once, in a canonical content order, when the main phase
        #: ends — so the numeric result is independent of response arrival
        #: order.  That is what lets retried/duplicated/delayed traffic
        #: reproduce the fault-free run bit for bit despite float SUM being
        #: non-associative.
        self._staged_remote: Optional[list[list]] = (
            [[] for _ in self.machines] if self.spec is not None else None)
        #: remote WRITE_REQ and post-sync GHOST_SYNC payloads, staged by the
        #: receiving copier and applied in canonical content order at the
        #: next phase boundary (same trick as ``_staged_remote``).  This is
        #: what keeps a job's float reductions bit-identical when another
        #: tenant's traffic perturbs message arrival order on the shared
        #: fabric ports: the *content* of the contributions is timing-
        #: independent, so sorting by (row, value) fixes the apply order.
        #: Keyed (machine, prop, op-name) so distinct reductions never mix.
        self._staged_writes: dict[tuple[int, str, str], list] = {}
        self._staged_ghost: dict[tuple[int, str, str], list] = {}
        self._staged_ops: dict[str, ReduceOp] = {}

    # ------------------------------------------------------------------
    # lookup helpers used by workers/copiers
    # ------------------------------------------------------------------

    def worker_state(self, machine: int, worker: int) -> WorkerState:
        return self.workers[machine][worker]

    def local_view(self, machine: int):
        from .engine import LocalView

        return LocalView(self.machines[machine])

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def next_request_id(self) -> int:
        """Deterministic per-execution request id (satellite of PR 3)."""
        return next(self._request_ids)

    def new_message(self, kind: MsgKind, src: int, dst: int, **kw) -> Message:
        """A request/response message, pooled when pooling is safe."""
        pool = self.msg_pool
        if pool is not None:
            return pool.message(kind, src, dst, **kw)
        return Message(kind, src, dst, **kw)

    def new_side(self, request_id: int, prop: str, rows=None, weights=None,
                 tasks=None):
        pool = self.msg_pool
        if pool is not None:
            return pool.side(request_id, prop, rows=rows, weights=weights,
                             tasks=tasks)
        return SideStructure(request_id=request_id, prop=prop, rows=rows,
                             weights=weights,
                             tasks=tasks if tasks is not None else [])

    def recycle_message(self, msg: Message) -> None:
        """Return a message its terminal hop just consumed (no-op unpooled)."""
        if self.msg_pool is not None:
            self.msg_pool.release_message(msg)

    def recycle_side(self, side) -> None:
        if self.msg_pool is not None:
            self.msg_pool.release_side(side)

    def send_request(self, msg: Message, kind: str) -> None:
        nbytes = msg.wire_bytes()
        self.stats.bytes_by_kind[kind] += nbytes if msg.src != msg.dst else 0.0
        self.stats.messages += 1
        self.network.send(msg.src, msg.dst, nbytes, deliver_request, self, msg,
                          kind=kind, hooks=self.hooks)
        if self.reliability is not None:
            self.reliability.track(msg, kind)
        if self.audit is not None:
            self.audit.track(msg.request_id, kind)

    def resend_request(self, msg: Message, kind: str) -> None:
        """Retransmit a tracked request (reliability layer timer path).

        Unlike :meth:`send_request` this does not touch the outstanding
        counters — the original send already did — and does not re-arm
        tracking (the caller owns the timer).
        """
        nbytes = msg.wire_bytes()
        self.stats.bytes_by_kind[kind] += nbytes if msg.src != msg.dst else 0.0
        self.stats.messages += 1
        self.network.send(msg.src, msg.dst, nbytes, deliver_request, self, msg,
                          kind=kind, hooks=self.hooks)
        if self.audit is not None:
            self.audit.resent(msg.request_id)

    def send_response(self, msg: Message) -> None:
        nbytes = msg.wire_bytes()
        self.stats.bytes_by_kind["read_resp"] += nbytes if msg.src != msg.dst else 0.0
        self.stats.messages += 1
        self.network.send(msg.src, msg.dst, nbytes, deliver_response, self, msg,
                          kind="read_resp", hooks=self.hooks)

    def send_rmi(self, src: int, dst: int, fn_id: int, args: tuple) -> None:
        msg = Message(MsgKind.RMI_REQ, src=src, dst=dst, rmi_fn=fn_id,
                      rmi_args=args, request_id=self.next_request_id())
        self.rmi_outstanding += 1
        self.send_request(msg, kind="rmi")

    # ------------------------------------------------------------------
    # phase machine
    # ------------------------------------------------------------------

    def _set_phase(self, phase: str) -> None:
        """Advance the phase machine, emitting phase start/end hook events."""
        now = self.sim.now
        if self._phase_started_at is not None:
            self.hooks.emit("job.phase_end", job=self.job.name,
                            phase=self.phase, start=self._phase_started_at,
                            duration=now - self._phase_started_at)
        self.phase = phase
        if phase == "done":
            self._phase_started_at = None
            return
        self._phase_started_at = now
        self.hooks.emit("job.phase_start", job=self.job.name, phase=phase,
                        time=now)

    def start(self) -> None:
        for m in self.machines:
            m.dm.exec = self
        self.hooks.emit("job.start", job=self.job.name, time=self.sim.now)
        self._set_phase("presync")
        self._begin_ghost_writes()
        self._send_presync()
        if self.sync_outstanding == 0:
            self._phase_main()

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
                    msg = self.new_message(
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
        self._set_phase("main")
        ecfg = self.cluster.config.engine
        # Edge-iterating regions stream their windows in out-of-core mode;
        # node kernels never touch the edge arrays, so they run in-memory
        # regardless (vertex property columns are always DRAM-resident).
        streaming = self.out_of_core and self.iter_kind != "node"
        total_chunks = 0
        if streaming:
            self.window_streams = []
        for m in self.machines:
            if self.iter_kind == "node":
                chunks = node_chunks(m.n_local, max(1, ecfg.chunk_size))
            else:
                chunks = make_chunks(m.csr(self.iter_kind).starts,
                                     ecfg.chunking, ecfg.chunk_size)
            m.chunk_queue.clear()
            if streaming:
                csr = m.csr(self.iter_kind)
                prefix = csr.disk_row_prefix(m.lo)
                windows = build_windows(chunks, csr.starts, prefix,
                                        self.ooc_window_edges,
                                        self._streamed_edge_columns(csr))
                self.window_streams.append(
                    MachineWindowStream(self, m, windows, prefix))
            else:
                m.chunk_queue.extend(chunks)
            total_chunks += len(chunks)
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
        spec = (self.spec if self.spec is not None
                else getattr(self.task_cls, "SPEC", None))
        if spec is not None:
            return 1 if spec.use_weights else 0
        return (csr.weights is not None) + len(csr.props or ())

    def stream_cache_pressure(self, machine_index: int) -> float:
        """Resolved bytes of streamed edge windows resident in a machine's
        DRAM.

        The comm manager folds this into a copier's working-set size: in
        out-of-core mode the double-buffered window reads sweep the LLC,
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

    def stage_remote(self, machine_index: int, rows: np.ndarray,
                     vals: np.ndarray) -> None:
        """Record a remote read-response contribution for end-of-main apply."""
        self._staged_remote[machine_index].append((rows, vals))

    def stage_write(self, machine_index: int, prop: str, op: ReduceOp,
                    offsets: np.ndarray, values: np.ndarray) -> None:
        """Record a remote WRITE_REQ payload for end-of-main apply."""
        key = (machine_index, prop, op.name)
        self._staged_ops[op.name] = op
        self._staged_writes.setdefault(key, []).append((offsets, values))

    def stage_ghost_reduce(self, machine_index: int, prop: str, op: ReduceOp,
                           offsets: np.ndarray, values: np.ndarray) -> None:
        """Record a post-sync ghost partial for end-of-postsync apply."""
        key = (machine_index, prop, op.name)
        self._staged_ops[op.name] = op
        self._staged_ghost.setdefault(key, []).append((offsets, values))

    def _apply_staged_group(self, staged: dict) -> None:
        """Apply a staged (machine, prop, op) group set in canonical order.

        Group iteration is sorted by key and each group is reduced by
        :meth:`_staged_apply`, so the reduction order is a function of the
        data alone — independent of delivery order, of which copier
        processed which message, and of any co-running tenant's traffic.
        The apply work was already priced on the copier timeline when each
        message was processed.
        """
        for key in sorted(staged):
            machine_index, prop, op_name = key
            batches = staged[key]
            offs = np.concatenate([o for o, _ in batches])
            vals = np.concatenate([v for _, v in batches])
            self._staged_apply(self._staged_ops[op_name], machine_index, prop,
                               offs, vals)
        staged.clear()

    def _staged_apply(self, op, machine_index: int, prop: str,
                      rows: np.ndarray, vals: np.ndarray) -> None:
        """Reduce one staged group into its property in canonical order
        (:func:`repro.core.routing_plan.canonical_apply`)."""
        machine = self.machines[machine_index]
        canonical_apply(op, machine.props[prop], rows, vals,
                        machine.stage_cache)

    def _apply_staged_responses(self) -> None:
        """Apply staged remote contributions in canonical content order.

        Sorting by (row, value) makes the reduction order a function of the
        *data*, not of message timing: a run whose responses were delayed,
        reordered or retried produces the same floating-point result as the
        fault-free run.  Purely host-side — the apply work was already
        priced on the worker timeline when each response arrived.
        """
        if self._staged_remote is None:
            return
        spec = self.spec
        for m, batches in zip(self.machines, self._staged_remote):
            if not batches:
                continue
            rows = np.concatenate([r for r, _ in batches])
            vals = np.concatenate([v for _, v in batches])
            self._staged_apply(spec.op, m.index, spec.target, rows, vals)
            batches.clear()

    def _phase_postsync(self) -> None:
        self._apply_staged_responses()
        self._apply_staged_group(self._staged_writes)
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
            if self.hooks.has("ghost.reduce_start"):
                self.hooks.emit("ghost.reduce_start", machine=m.index,
                                elements=elements, time=self.sim.now)
            self.sim.schedule_fast(dur, self._postsync_machine_done, m,
                                   self.sim.now, elements)

    def _postsync_machine_done(self, m, started: float,
                               elements: int) -> None:
        """Stage 2: ship ghost partials to the owners."""
        if self.hooks.has("ghost.reduce_end"):
            self.hooks.emit("ghost.reduce_end", machine=m.index,
                            elements=elements, start=started,
                            duration=self.sim.now - started)
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
                msg = self.new_message(
                    MsgKind.GHOST_SYNC, m.index, owner.index, prop=prop,
                    offsets=offsets, values=values, op=op, ghost_pre=False,
                    request_id=self.next_request_id())
                self.sync_outstanding += 1
                self.send_request(msg, kind="ghost_sync")
        self._postsync_pending -= 1
        if self._postsync_pending == 0:
            self.check_sync_done()

    def _phase_barrier(self) -> None:
        self._apply_staged_group(self._staged_ghost)
        self._set_phase("barrier")
        self.hooks.emit("barrier.enter", job=self.job.name,
                        machines=self.num_machines, time=self.sim.now)
        latency = barrier_mod.barrier_latency(self.num_machines,
                                              self.cluster.config.network)
        self.sim.schedule_fast(latency, self._finalize)

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
        self.hooks.emit("barrier.exit", job=self.job.name,
                        machines=self.num_machines, start=start,
                        duration=self.sim.now - (start or self.sim.now))
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


def make_execution(cluster, dgraph, job: Job, hooks=None):
    """Build the execution for ``job`` — the single dispatch point shared by
    the serial engine path and the scheduler.

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
