"""The Task Manager (Section 3.2): worker threads, chunks, continuations.

Workers are cooperative state machines on the simulator.  Each worker
repeatedly: (1) processes pending read responses (continuations), (2) grabs
the next chunk from its machine's chunk queue and runs it to completion,
(3) when out of chunks, flushes its partial request buffers, and (4) declares
itself done once no remote reads remain in flight.  A task is *always*
continued by the worker that issued its reads, so task objects need no locks
— precisely the paper's RTC contract.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..runtime.disk import window_bytes
from .messages import Message, MsgKind, ReadBuffer, SideStructure, WriteBuffer
from .properties import ReduceOp
from .tasks import TaskContext
from .vector_kernels import (CSR_BYTES_PER_EDGE, DECODE_OPS_PER_EDGE,
                             GATHER_LOCALITY, RESOLVE_OPS_PER_EDGE,
                             RESPONSE_APPLY_LOCALITY, VALUE_BYTES, WorkTally,
                             execute_edge_map_chunk,
                             execute_node_kernel_chunk)

if TYPE_CHECKING:  # pragma: no cover
    from .jobrunner import JobExecution
    from .machine import Machine


class WorkerState:
    """Per-job state of one worker thread."""

    def __init__(self, exc: "JobExecution", machine: "Machine", windex: int):
        self.exc = exc
        self.machine = machine
        self.windex = windex
        self.ctx = TaskContext(machine.dm, windex)
        self.pending_resp: deque = deque()
        #: request buffers keyed by (dst machine, property)
        self.read_bufs: dict[tuple[int, str], ReadBuffer] = {}
        self.write_bufs: dict[tuple[int, str], tuple[WriteBuffer, ReduceOp]] = {}
        self.side_structs: dict[int, SideStructure] = {}
        self.inflight_by_dst: dict[int, int] = {}
        #: read messages awaiting a response (sent or parked by back-pressure)
        self.outstanding_reads = 0
        #: back-pressured messages waiting for an in-flight slot
        self.parked: deque = deque()
        self.scheduled = False
        self.done = False
        #: atomic ops recorded by the scalar Data Manager since last chunk
        self.pending_atomics = 0
        #: cpu ops incurred mid-chunk (write combining) and priced with the
        #: enclosing work slice
        self.deferred_cpu_ops = 0.0

    # -- buffer accessors ----------------------------------------------------

    def read_buf(self, dst: int, prop: str) -> ReadBuffer:
        buf = self.read_bufs.get((dst, prop))
        if buf is None:
            buf = self.read_bufs[(dst, prop)] = ReadBuffer()
        return buf

    def write_buf(self, dst: int, prop: str, op: ReduceOp) -> WriteBuffer:
        entry = self.write_bufs.get((dst, prop))
        if entry is None:
            entry = self.write_bufs[(dst, prop)] = (WriteBuffer(), op)
        return entry[0]

    def has_buffered(self) -> bool:
        return (any(not b.empty for b in self.read_bufs.values())
                or any(not b.empty for b, _ in self.write_bufs.values()))

    # -- flushing --------------------------------------------------------------

    def maybe_flush_reads(self, dst: int, prop: str) -> None:
        buf = self.read_bufs.get((dst, prop))
        if buf is not None and buf.nbytes >= self.exc.buffer_size:
            self._flush_read(dst, prop, buf)

    def maybe_flush_writes(self, dst: int, prop: str) -> None:
        entry = self.write_bufs.get((dst, prop))
        if entry is not None and entry[0].nbytes >= self.exc.buffer_size:
            self._flush_write(dst, prop, *entry)

    def flush_all(self) -> WorkTally:
        """Ship every partial buffer (worker ran out of tasks, Section 3.2 (3)).

        The flush CPU cost is priced per buffered *item*.  The buffers hold
        lists of per-batch arrays in ``.offsets`` (a scalar access is a
        batch of one), so the item count is the sum of batch lengths —
        ``len(buf.offsets)`` would count batches and underprice large
        flushes.
        """
        n_items = 0
        for (dst, prop), buf in list(self.read_bufs.items()):
            if not buf.empty:
                n_items += sum(len(o) for o in buf.offsets)
                self._flush_read(dst, prop, buf)
        for (dst, prop), (buf, op) in list(self.write_bufs.items()):
            if not buf.empty:
                n_items += sum(len(o) for o in buf.offsets)
                self._flush_write(dst, prop, buf, op)
        return WorkTally(cpu_ops=8.0 + 0.5 * n_items)

    def _max_items(self, item_bytes: int) -> int:
        return max(1, int(self.exc.buffer_size // item_bytes))

    def _flush_read(self, dst: int, prop: str, buf: ReadBuffer) -> None:
        offsets, rows, weights, tasks = buf.drain()
        exc = self.exc
        if exc.emit_flush:
            exc.hooks.emit("comm.flush", machine=self.machine.index,
                           worker=self.windex, dst=dst, prop=prop,
                           kind="read_req", items=len(offsets),
                           time=exc.sim.now)
        # Chunks append whole batches at once, so a buffer can exceed the
        # maximum message size; ship it as a train of full (pooled) buffers.
        step = self._max_items(8)
        for i in range(0, len(offsets), step):
            rid = exc.next_request_id()
            msg = exc.new_message(MsgKind.READ_REQ, self.machine.index, dst,
                                  prop=prop, offsets=offsets[i:i + step],
                                  worker=self.windex, request_id=rid)
            side = exc.new_side(rid, prop,
                                rows=None if rows is None else rows[i:i + step],
                                weights=None if weights is None
                                else weights[i:i + step],
                                tasks=tasks[i:i + step])
            self._dispatch_read(msg, side)

    def _dispatch_read(self, msg: Message, side: SideStructure) -> None:
        """Send now, or park under back-pressure (Section 3.4)."""
        self.outstanding_reads += 1
        dst = msg.dst
        if self.inflight_by_dst.get(dst, 0) >= self.exc.max_inflight_per_dest:
            self.parked.append((msg, side))
            return
        self._send_read(msg, side)

    def _send_read(self, msg: Message, side: SideStructure) -> None:
        self.side_structs[msg.request_id] = side
        self.inflight_by_dst[msg.dst] = self.inflight_by_dst.get(msg.dst, 0) + 1
        self.exc.send_request(msg, kind="read_req")

    def _flush_write(self, dst: int, prop: str, buf: WriteBuffer,
                     op: ReduceOp) -> None:
        exc = self.exc
        offsets, values = buf.drain()
        if (op.order_insensitive(values.dtype)
                and values.dtype == exc.machines[dst].props.dtype(prop)):
            offsets, values = self._combine(dst, prop, op, offsets, values)
        if exc.emit_flush:
            exc.hooks.emit("comm.flush", machine=self.machine.index,
                           worker=self.windex, dst=dst, prop=prop,
                           kind="write_req", items=len(offsets),
                           time=exc.sim.now)
        step = self._max_items(16)
        for i in range(0, len(offsets), step):
            msg = exc.new_message(MsgKind.WRITE_REQ, self.machine.index, dst,
                                  prop=prop, offsets=offsets[i:i + step],
                                  values=values[i:i + step], op=op,
                                  worker=self.windex,
                                  request_id=exc.next_request_id())
            exc.write_outstanding += 1
            exc.send_request(msg, kind="write_req")

    def _combine(self, dst: int, prop: str, op: ReduceOp,
                 offsets: np.ndarray,
                 values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sender-side combining: one item per target per flush, so each
        target travels (and is atomically applied) once.  Exact because the
        caller only combines order-insensitive reductions; the cost lands
        on this worker's current slice."""
        exc = self.exc
        n = exc.largest_partition
        cache = self.machine.stage_cache
        uniq, reduced = op.segment_reduce(
            offsets, values, cache.bottom(op, values.dtype, n),
            cache.scratch(n, np.int64, 3))
        self.deferred_cpu_ops += len(offsets) * (exc.combine_per_item
                                                 / exc.cpu_op_time)
        exc.hooks.emit("comm.combine", machine=self.machine.index, dst=dst,
                       prop=prop, items_in=len(offsets), items_out=len(uniq),
                       time=exc.sim.now)
        return uniq, reduced

    # -- response intake --------------------------------------------------------

    def response_arrived(self, msg: Message) -> None:
        side = self.side_structs.pop(msg.request_id, None)
        if side is None:
            # Stale or duplicate response: the request was already answered
            # (a duplicated READ_RESP, or the original finally arriving after
            # a retry already got an answer).  Drop it — applying twice would
            # double-count the contribution.
            self.exc.hooks.emit("comm.dedup_drop", machine=self.machine.index,
                                kind="read_resp", request_id=msg.request_id,
                                time=self.exc.sim.now)
            return
        if self.exc.reliability is not None:
            self.exc.reliability.ack(msg.request_id)
        if self.exc.audit is not None:
            self.exc.audit.ack(msg.request_id)
        self.outstanding_reads -= 1
        self.inflight_by_dst[msg.src] -= 1
        # A freed in-flight slot lets a parked message go out.
        if self.parked:
            for _ in range(len(self.parked)):
                pmsg, pside = self.parked.popleft()
                if self.inflight_by_dst.get(pmsg.dst, 0) < self.exc.max_inflight_per_dest:
                    self._send_read(pmsg, pside)
                    break
                self.parked.append((pmsg, pside))
        self.pending_resp.append((side, msg.values))
        # The response message's terminal hop: its values array lives on in
        # pending_resp, the carrier object goes back to the pool.
        self.exc.recycle_message(msg)
        wake_worker(self.exc, self)


# ---------------------------------------------------------------------------
# Out-of-core window streaming (EngineConfig.out_of_core)
# ---------------------------------------------------------------------------


def build_windows(chunks: list, starts: np.ndarray, row_prefix: np.ndarray,
                  window_edges: int, edge_columns: int = 0) -> list:
    """Group consecutive chunks into fixed-budget streaming windows.

    Returns ``[(chunks, disk_bytes, resident_bytes), ...]``: each window
    holds consecutive chunks totalling at most ``window_edges`` edges (a
    single hub chunk larger than the budget gets a window of its own).
    ``disk_bytes`` is what the window occupies on disk in the byte-coded
    shard format (:func:`repro.runtime.disk.window_bytes` over the CSR's
    ``row_prefix``, with the ``edge_columns`` per-edge columns the job
    reads) — what the device is busy for; ``resident_bytes`` is its
    resolved in-DRAM footprint.  Chunk boundaries are exactly the in-memory
    mode's — windows only gate *when* chunks become runnable, never what a
    chunk contains.
    """
    groups = []  # (chunks, edges)
    cur: list = []
    cur_edges = 0
    for lo, hi in chunks:
        ce = int(starts[hi] - starts[lo])
        if cur and cur_edges + ce > window_edges:
            groups.append((cur, cur_edges))
            cur, cur_edges = [], 0
        cur.append((lo, hi))
        cur_edges += ce
    if cur:
        groups.append((cur, cur_edges))
    # chunks are consecutive, so a window's rows are [first lo, last hi)
    return [(group,
             window_bytes(row_prefix, group[0][0], group[-1][1], edges,
                          edge_columns),
             edges * CSR_BYTES_PER_EDGE)
            for group, edges in groups]


class MachineWindowStream:
    """Streams one machine's edge windows from the modeled local disk.

    Double-buffered: while the active window's chunks execute, at most one
    successor window is in flight on the disk (its read is issued at
    activation time), so the next window's read overlaps the current
    window's compute on the simulator event loop.  A window *drains* when
    its last chunk finishes (``_end_work``), not when it is grabbed: only
    then does its buffer leave DRAM, its routing plans go, and the
    successor activate.  The stall a window causes is the gap between that
    drain and its own read completing — never more than the read, because
    the read was issued when the predecessor activated.  Workers idle when
    the chunk queue drains mid-stream and are woken when the next window
    activates; the worker done-rule gains a "stream exhausted" guard so
    the main phase cannot end while windows remain.

    Results are bit-identical to the in-memory mode: the same chunks run
    with the same routing, and all remote/staged contributions are applied
    in canonical content order at phase boundaries, so *when* a chunk ran
    cannot change what it computed.
    """

    __slots__ = ("exc", "machine", "windows", "row_prefix", "next_load",
                 "inflight", "loaded", "active_window", "active_chunks",
                 "drained_at", "resident_bytes", "activations",
                 "disk_bytes_at_start", "bytes_charged")

    def __init__(self, exc: "JobExecution", machine: "Machine",
                 windows: list, row_prefix: np.ndarray):
        self.exc = exc
        self.machine = machine
        self.windows = windows
        #: the streamed CSR's encoded-byte prefix (what resolve-on-load
        #: reads per chunk)
        self.row_prefix = row_prefix
        #: next window index whose disk read has not been issued yet
        self.next_load = 0
        #: reads issued to the disk whose completion event has not fired
        self.inflight = 0
        #: windows read in, awaiting activation: (index, start, duration)
        self.loaded: deque = deque()
        self.active_window = -1
        #: chunks of the active window not yet finished
        self.active_chunks = 0
        #: when the previous window drained (stall clock), None while busy
        self.drained_at: Optional[float] = None
        #: resolved bytes of the streamed windows currently held in DRAM
        #: buffers (cache pressure on the copiers' working sets, see
        #: comm_manager)
        self.resident_bytes = 0.0
        #: per activated window, in order: (stall, read duration) — what
        #: the audit sweep checks ``0 <= stall <= duration`` against
        self.activations: list = []
        #: the disk's ``bytes_read`` when the stream started, and the bytes
        #: this stream added to ``JobStats.disk_bytes_read`` — the audit's
        #: disk-byte conservation check
        self.disk_bytes_at_start = 0.0
        self.bytes_charged = 0.0

    @property
    def exhausted(self) -> bool:
        """No chunks active, nothing loaded or on the disk, nothing left to
        issue — the worker done-rule's streaming guard.  A read still in
        flight on the disk must keep the machine's workers alive, or the
        main phase would end with the final window undelivered."""
        return (self.active_chunks == 0 and not self.loaded
                and self.inflight == 0
                and self.next_load >= len(self.windows))

    def start(self) -> None:
        """Issue the first window's read; workers stall until it lands."""
        self.disk_bytes_at_start = self.machine.disk.bytes_read
        if not self.windows:
            return
        self.drained_at = self.exc.sim.now
        self._issue_next()

    def _issue_next(self) -> None:
        if self.next_load >= len(self.windows):
            return
        w = self.next_load
        self.next_load += 1
        self.inflight += 1
        _, disk_bytes, resident_bytes = self.windows[w]
        disk = self.machine.disk
        end = disk.occupy(self.exc.sim.now, disk_bytes)
        duration = disk.read_time(disk_bytes)
        self.resident_bytes += resident_bytes
        self.exc.sim.schedule_at_fast(end, self._window_loaded, w,
                                      end - duration, duration)

    def _window_loaded(self, w: int, start: float, duration: float) -> None:
        self.inflight -= 1
        self.loaded.append((w, start, duration))
        self._maybe_activate()

    def _maybe_activate(self) -> None:
        exc = self.exc
        if self.active_chunks > 0:
            return
        if not self.loaded:
            if self.inflight == 0 and self.next_load >= len(self.windows):
                # Stream exhausted: wake idlers so they can flush and finish.
                for ws in exc.workers[self.machine.index]:
                    wake_worker(exc, ws)
            return
        w, start, duration = self.loaded.popleft()
        chunks, disk_bytes, _ = self.windows[w]
        now = exc.sim.now
        stall = (max(0.0, now - self.drained_at)
                 if self.drained_at is not None else 0.0)
        self.drained_at = None
        self.activations.append((stall, duration))
        self.bytes_charged += disk_bytes
        exc.stats.disk_bytes_read += disk_bytes
        exc.stats.disk_stall_seconds += stall
        if exc.emit_disk_read:
            exc.hooks.emit("disk.read", machine=self.machine.index, window=w,
                           nbytes=disk_bytes, start=start, duration=duration,
                           stall=stall, time=now)
        self.active_window = w
        self.active_chunks = len(chunks)
        self.machine.chunk_queue.extend(chunks)
        self._issue_next()  # double buffer: prefetch the successor window
        for ws in exc.workers[self.machine.index]:
            wake_worker(exc, ws)

    def chunk_done(self) -> None:
        """One active-window chunk finished on its worker.

        Called from ``_end_work`` just before that worker re-enters its
        loop, so the drain transition defers through a zero-delay event —
        waking workers here would schedule the finishing one twice.
        """
        self.active_chunks -= 1
        if self.active_chunks > 0:
            return
        exc = self.exc
        chunks, _, resident_bytes = self.windows[self.active_window]
        self.resident_bytes -= resident_bytes
        # The window's buffer leaves DRAM.  A routing plan *is* the resolved
        # window (the RESOLVE_* work each chunk was priced for), so it lives
        # exactly as long: built once per residency, dropped here, rebuilt
        # when the window streams back in.
        self.machine.plan_cache.evict_chunks(exc.iter_kind, chunks)
        self.drained_at = exc.sim.now
        exc.sim.schedule_fast(0.0, self._maybe_activate)

    def diagnostics(self) -> dict:
        """Stream state for :meth:`JobExecution.stall_diagnostics`."""
        return {
            "machine": self.machine.index,
            "windows": len(self.windows),
            "next_load": self.next_load,
            "inflight": self.inflight,
            "loaded": len(self.loaded),
            "active_window": self.active_window,
            "active_chunks": self.active_chunks,
            "exhausted": self.exhausted,
        }


# ---------------------------------------------------------------------------
# Worker event loop
# ---------------------------------------------------------------------------


def wake_worker(exc: "JobExecution", ws: WorkerState) -> None:
    if ws.done or ws.scheduled:
        return
    ws.scheduled = True
    exc.sim.schedule_fast(0.0, worker_loop, exc, ws)


def worker_loop(exc: "JobExecution", ws: WorkerState) -> None:
    # Work is dispatched as (function, args) descriptors rather than lambda
    # closures: the loop runs once per chunk/continuation/flush, and the
    # closure objects were pure allocation churn on the hot path.
    ws.scheduled = False
    if ws.done:
        return
    m = ws.machine
    if ws.pending_resp:
        side, values = ws.pending_resp.popleft()
        _start_work(exc, ws, _process_response, (exc, ws, side, values))
        return
    if m.chunk_queue:
        lo, hi = m.chunk_queue.popleft()
        _start_work(exc, ws, _execute_chunk, (exc, ws, lo, hi),
                    chunk_overhead=True)
        return
    if ws.has_buffered():
        _start_work(exc, ws, WorkerState.flush_all, (ws,))
        return
    if ws.outstanding_reads == 0:
        streams = exc.window_streams
        if streams is None or streams[m.index].exhausted:
            ws.done = True
            exc.on_worker_done(ws)
        return
    # otherwise: idle until a response (or a window activation) wakes us.


def _start_work(exc: "JobExecution", ws: WorkerState, fn, args: tuple,
                chunk_overhead: bool = False) -> None:
    m = ws.machine
    kind = "chunk" if chunk_overhead else "continuation/flush"
    t0 = exc.sim.now
    if exc.emit_chunk_start:
        exc.hooks.emit("task.chunk_start", machine=m.index, worker=ws.windex,
                       kind=kind, job=exc.job.name, time=t0)
    m.cpu.thread_started()
    tally = fn(*args)
    if ws.deferred_cpu_ops:
        tally.cpu_ops += ws.deferred_cpu_ops
        ws.deferred_cpu_ops = 0.0
    if chunk_overhead:
        tally.cpu_ops += exc.chunk_dispatch_time / exc.cpu_op_time
    dur = m.cpu.mixed_duration(tally.cpu_ops, tally.atomic_ops,
                               tally.random_bytes, tally.seq_bytes)
    if exc.faults is not None:
        dur *= exc.faults.work_scale(m.index, t0)
    exc.stats.record_busy(m.index, ws.windex, t0, t0 + dur)
    ws.scheduled = True
    exc.sim.schedule_fast(dur, _end_work, exc, ws, dur, kind, t0)


def _end_work(exc: "JobExecution", ws: WorkerState, dur: float,
              kind: str = "chunk", start: float = 0.0) -> None:
    ws.machine.cpu.thread_finished(dur)
    ws.scheduled = False
    if exc.emit_chunk_end:
        exc.hooks.emit("task.chunk_end", machine=ws.machine.index,
                       worker=ws.windex, kind=kind, job=exc.job.name,
                       start=start, duration=dur)
    if kind == "chunk" and exc.window_streams is not None:
        exc.window_streams[ws.machine.index].chunk_done()
    worker_loop(exc, ws)


def _execute_chunk(exc: "JobExecution", ws: WorkerState, lo: int, hi: int) -> WorkTally:
    job = exc.job
    if exc.spec is not None:
        tally = execute_edge_map_chunk(exc, ws.machine, ws, exc.spec, lo, hi)
    elif job.kind == "node_kernel":
        tally = execute_node_kernel_chunk(exc, ws.machine, job.kernel,
                                          job.ops_per_node, job.bytes_per_node,
                                          lo, hi)
    else:
        tally = _execute_scalar_chunk(exc, ws, lo, hi)
    exc.stats.tasks_executed += tally.tasks
    exc.chunks_remaining -= 1
    if exc.window_streams is not None:
        # Resolve-on-load: the window came off disk byte-coded; read the
        # chunk's encoded rows, decode and resolve each edge, and write the
        # resolved row.
        prefix = exc.window_streams[ws.machine.index].row_prefix
        tally.cpu_ops += tally.edges * (DECODE_OPS_PER_EDGE
                                        + RESOLVE_OPS_PER_EDGE)
        tally.seq_bytes += (float(prefix[hi] - prefix[lo])
                            + tally.edges * CSR_BYTES_PER_EDGE)
    return tally


def _process_response(exc: "JobExecution", ws: WorkerState,
                      side: SideStructure, values: np.ndarray) -> WorkTally:
    """Walk a response message and run continuations (Section 3.2 (4))."""
    m = ws.machine
    n = len(values)
    tally = WorkTally(cpu_ops=n * 2.0, seq_bytes=n * VALUE_BYTES)
    tally.add_bytes(n * 2 * VALUE_BYTES, RESPONSE_APPLY_LOCALITY)
    if side.rows is not None:
        # Vectorized continuation: transform now, but *stage* the reduction
        # — the job runner applies all remote contributions in canonical
        # content order at end of main phase, so the float result does not
        # depend on response arrival order (see JobExecution
        # ._apply_staged_responses).  The apply cost stays on this slice.
        spec = exc.spec
        vals = spec.apply_transform(values, side.weights if spec.use_weights else None)
        exc.stage_remote(m.index, side.rows, vals)
    else:
        # Re-point the context at the edge that issued each read.  The
        # edge-property columns need no restore: they are the worker's one
        # CSR for the whole job, set by the chunk that issued the read.
        ctx = ws.ctx
        for (task, node_g, nbr_g, w, ei, tag), value in zip(side.tasks, values):
            ctx._task = task
            ctx._node_global = node_g
            ctx._node_local = node_g - m.lo
            ctx._nbr_global = nbr_g
            ctx._edge_weight = w
            ctx._edge_idx = ei
            task.read_done(ctx, value, tag)
        tally.atomic_ops += ws.pending_atomics
        ws.pending_atomics = 0
    # The side structure is fully consumed (rows were handed to staging,
    # scalar tasks were walked): return it to the pool.
    exc.recycle_side(side)
    return tally


# ---------------------------------------------------------------------------
# Scalar (general RTC) chunk executor
# ---------------------------------------------------------------------------


def _execute_scalar_chunk(exc: "JobExecution", ws: WorkerState,
                          lo: int, hi: int) -> WorkTally:
    m = ws.machine
    job = exc.job
    task_cls = exc.task_cls
    iter_kind = task_cls.ITER
    csr = m.csr(iter_kind) if iter_kind != "node" else None
    ctx = ws.ctx
    stats = exc.stats
    before = (stats.local_reads, stats.remote_reads,
              stats.local_writes, stats.remote_writes)

    tally = WorkTally()
    tally.cpu_ops += (hi - lo) * (exc.task_dispatch_time / exc.cpu_op_time)
    weights = csr.weights if csr is not None else None
    edge_props = csr.props if csr is not None else None
    for vl in range(lo, hi):
        vg = m.lo + vl
        task = task_cls()
        ctx._task = task
        ctx._node_global = vg
        ctx._node_local = vl
        ctx._nbr_global = -1
        ctx._edge_weight = 0.0
        if not task.filter(ctx):
            continue
        tally.tasks += 1
        if iter_kind == "node":
            task.run(ctx)
        else:
            s, e = int(csr.starts[vl]), int(csr.starts[vl + 1])
            for ei in range(s, e):
                ctx._task = task
                ctx._node_global = vg
                ctx._node_local = vl
                ctx._nbr_global = int(csr.nbrs[ei])
                ctx._edge_weight = float(weights[ei]) if weights is not None else 0.0
                ctx._edge_idx = ei
                ctx._edge_props = edge_props
                task.run(ctx)
            tally.edges += e - s
            exc.stats.edges_processed += e - s

    d_lr = stats.local_reads - before[0]
    d_rr = stats.remote_reads - before[1]
    d_lw = stats.local_writes - before[2]
    d_rw = stats.remote_writes - before[3]
    tally.cpu_ops += tally.edges * 2.0 + (d_rr + d_rw) * (exc.marshal_per_item / exc.cpu_op_time)
    tally.add_bytes((d_lr + d_lw) * 2 * VALUE_BYTES, GATHER_LOCALITY)
    tally.seq_bytes += (tally.edges * CSR_BYTES_PER_EDGE
                        + (d_rr + d_rw) * 2 * VALUE_BYTES)
    tally.atomic_ops += ws.pending_atomics
    ws.pending_atomics = 0
    return tally
