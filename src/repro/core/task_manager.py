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
from typing import TYPE_CHECKING

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
        self.ctx = TaskContext(self)
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
        #: atomic ops recorded by the scalar path's TaskContext since last chunk
        self.pending_atomics = 0
        #: cpu ops incurred mid-chunk (write combining) and priced with the
        #: enclosing work slice
        self.deferred_cpu_ops = 0.0
        #: streamed window of the chunk this worker runs (out-of-core)
        self.window = -1

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
        exc.stats.count("flushes", "read_req")
        exc.stats.count("flush_items", "read_req", len(offsets))
        # Chunks append whole batches at once, so a buffer can exceed the
        # maximum message size; ship it as a train of full buffers.
        step = self._max_items(8)
        for i in range(0, len(offsets), step):
            rid = exc.next_request_id()
            msg = Message(MsgKind.READ_REQ, self.machine.index, dst,
                          prop=prop, offsets=offsets[i:i + step],
                          worker=self.windex, request_id=rid)
            side = SideStructure(
                rid, prop, rows=None if rows is None else rows[i:i + step],
                weights=None if weights is None else weights[i:i + step],
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
            offsets, values = self._combine(op, offsets, values)
        exc.stats.count("flushes", "write_req")
        exc.stats.count("flush_items", "write_req", len(offsets))
        step = self._max_items(16)
        for i in range(0, len(offsets), step):
            msg = Message(MsgKind.WRITE_REQ, self.machine.index, dst,
                          prop=prop, offsets=offsets[i:i + step],
                          values=values[i:i + step], op=op,
                          worker=self.windex,
                          request_id=exc.next_request_id())
            exc.write_outstanding += 1
            exc.send_request(msg, kind="write_req")

    def _combine(self, op: ReduceOp, offsets: np.ndarray,
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
        exc.stats.count("combine_items", "in", len(offsets))
        exc.stats.count("combine_items", "out", len(uniq))
        return uniq, reduced

    # -- response intake --------------------------------------------------------

    def response_arrived(self, msg: Message) -> None:
        side = self.side_structs.pop(msg.request_id, None)
        if side is None:
            # Stale or duplicate response: the request was already answered
            # (a duplicated READ_RESP, or the original finally arriving after
            # a retry already got an answer).  Drop it — applying twice would
            # double-count the contribution.
            self.exc.stats.count("dedup_drops", "read_resp")
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
        wake_worker(self.exc, self)


# ---------------------------------------------------------------------------
# Out-of-core window streaming (EngineConfig.out_of_core)
# ---------------------------------------------------------------------------


def build_windows(chunks: list, starts: np.ndarray, row_prefix: np.ndarray,
                  window_edges: int, edge_columns: int = 0) -> list:
    """Group consecutive chunks of one CSR into fixed-budget streaming
    windows.

    A chunk is ``(lo, hi, ...)``: a row range, plus whatever the caller
    tags it with (the job's queue entries carry their CSR direction).
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
    for chunk in chunks:
        ce = int(starts[chunk[1]] - starts[chunk[0]])
        if cur and cur_edges + ce > window_edges:
            groups.append((cur, cur_edges))
            cur, cur_edges = [], 0
        cur.append(chunk)
        cur_edges += ce
    if cur:
        groups.append((cur, cur_edges))
    # chunks are consecutive, so a window's rows are [first lo, last hi)
    return [(group,
             window_bytes(row_prefix, group[0][0], group[-1][1], edges,
                          edge_columns),
             edges * CSR_BYTES_PER_EDGE)
            for group, edges in groups]


def read_stall(idle_since: float, start: float, duration: float) -> float:
    """``max(0, read_end - max(idle_since, read_start))``, written so the
    float result never exceeds ``duration``."""
    return max(0.0, duration - max(0.0, idle_since - start))


#: windows that may hold unfinished chunks at once: a draining tail and
#: the successor whose chunks started beside it
MAX_RUNNING_WINDOWS = 2
#: queue window 0's read for the next streaming region behind a stream's
#: last read (see :class:`MachineWindowStream`)
READAHEAD = True


class MachineWindowStream:
    """Streams one machine's edge windows from the modeled local disk.

    *Windows.*  One list in queue order: an undirected sweep's forward
    CSR's windows, then its reverse CSR's, each built over its own rows
    (``row_prefixes`` holds each streamed direction's encoded-byte
    prefix).

    *Pipelined.*  A loaded window activates as soon as the machine's chunk
    queue is empty: its chunks are queued behind nothing and start while
    the predecessor's tail still runs, with at most
    ``MAX_RUNNING_WINDOWS`` windows holding unfinished chunks.  Activating
    a window issues its successor's read, so at most one more window is
    loading or loaded — three resident at most.  Each window counts its
    own unfinished chunks and leaves DRAM (resident bytes and routing
    plans) when its own last chunk ends (``_end_work``).  Workers idle
    when the queue drains mid-stream and are woken when the next window
    activates; the worker done-rule gains a "stream exhausted" guard so
    the main phase cannot end while windows remain.

    *Readahead.*  When a stream issues its last read it queues the read of
    window 0 behind it, keyed by window 0's ``LocalCsr``, direction and
    streamed edge columns (``DiskModel.readaheads``).
    The next streaming region with the same key adopts that read instead
    of reading cold; a region with another key leaves it pending and
    reads its own window 0.  The issuing job is charged the readahead's
    bytes, once, adopted or not.

    A window's *stall* is ``max(0, read_end - max(idle_since,
    read_start))``, where ``idle_since`` is when the machine's chunk queue
    emptied: how long workers with nothing queued waited on this read's
    device time, so ``0 <= stall <= read duration`` even when the read
    queued behind another on the serial disk.

    Results are bit-identical to the in-memory mode: chunks are queued
    FIFO in window order, so the same chunks run with the same routing,
    and all remote/staged contributions are applied in canonical content
    order at phase boundaries, so *when* a chunk ran cannot change what it
    computed.
    """

    __slots__ = ("exc", "machine", "windows", "row_prefixes", "key",
                 "next_load", "inflight", "loaded", "active_window",
                 "unfinished", "idle_since", "resident_bytes",
                 "peak_resident", "activations", "disk_bytes_at_start",
                 "bytes_charged", "readahead_issued", "readahead_adopted")

    def __init__(self, exc: "JobExecution", machine: "Machine",
                 windows: list, row_prefixes: dict, key: tuple):
        self.exc = exc
        self.machine = machine
        self.windows = windows
        #: direction -> the streamed CSR's encoded-byte prefix (what
        #: resolve-on-load reads per chunk)
        self.row_prefixes = row_prefixes
        #: readahead key: window 0's (LocalCsr, direction, streamed edge
        #: columns)
        self.key = key
        #: next window index whose disk read has not been issued yet
        self.next_load = 0
        #: reads issued to the disk whose completion event has not fired
        self.inflight = 0
        #: windows read in, awaiting activation: (index, start, duration)
        #: of the read
        self.loaded: deque = deque()
        #: the latest activated window: every queued chunk is one of its
        #: own, since a window activates only on an empty queue
        self.active_window = -1
        #: window -> its chunks not yet finished, for the (at most
        #: ``MAX_RUNNING_WINDOWS``) windows that have any
        self.unfinished: dict[int, int] = {}
        #: when the machine's chunk queue last emptied (stall clock)
        self.idle_since = 0.0
        #: resolved bytes of the streamed windows currently held in DRAM
        #: buffers (cache pressure on the copiers' working sets, see
        #: comm_manager), and their high-water mark
        self.resident_bytes = 0.0
        self.peak_resident = 0.0
        #: per activated window, in order: (idle_since, read start, read
        #: duration, stall) — what the audit sweep re-derives the stall from
        self.activations: list = []
        #: the disk's ``bytes_read`` when the stream started, the bytes
        #: this stream added to ``JobStats.disk_bytes_read``, and the
        #: readahead bytes it issued and adopted — the audit's disk-byte
        #: conservation check
        self.disk_bytes_at_start = 0.0
        self.bytes_charged = 0.0
        self.readahead_issued = 0.0
        self.readahead_adopted = 0.0

    @property
    def exhausted(self) -> bool:
        """No chunks unfinished, nothing loaded or on the disk, nothing
        left to issue — the worker done-rule's streaming guard.  A read
        still in flight on the disk must keep the machine's workers alive,
        or the main phase would end with the final window undelivered."""
        return (not self.unfinished and not self.loaded
                and self.inflight == 0
                and self.next_load >= len(self.windows))

    def start(self) -> None:
        """Adopt a matching readahead for window 0, or issue its read;
        workers stall until it lands."""
        disk = self.machine.disk
        self.disk_bytes_at_start = disk.bytes_read
        if not self.windows:
            return
        now = self.exc.sim.now
        self.idle_since = now
        # the key holds the LocalCsr itself: compare it by identity
        csr, rest = self.key[0], self.key[1:]
        pending = disk.readaheads
        i = next((i for i, (key, *_) in enumerate(pending)
                  if key[0] is csr and key[1:] == rest), None)
        if i is None:
            self._issue_next()
            return
        _, start, end, duration = pending.pop(i)
        _, disk_bytes, resident_bytes = self.windows[0]
        self.next_load = 1
        self.readahead_adopted = disk_bytes
        self._hold(resident_bytes)
        self.inflight += 1
        # a read that landed while the previous region ran loads at once
        self.exc.sim.schedule_at(max(end, now), self._window_loaded, 0,
                                 start, duration)
        if len(self.windows) == 1:
            self._issue_readahead()

    def _read(self, disk_bytes: float) -> tuple[float, float, float]:
        """Claim the disk head for one read issued now: (start, end,
        duration)."""
        disk = self.machine.disk
        duration = disk.read_time(disk_bytes)
        end = disk.head.claim(self.exc.sim.now, duration)
        disk.bytes_read += disk_bytes
        return end - duration, end, duration

    def _hold(self, resident_bytes: float) -> None:
        self.resident_bytes += resident_bytes
        if self.resident_bytes > self.peak_resident:
            self.peak_resident = self.resident_bytes

    def _charge(self, w: int, disk_bytes: float, start: float,
                duration: float) -> None:
        """Record one read of window ``w`` on the job's stats: its span,
        and the bytes it moved (none for an adopted readahead)."""
        stats = self.exc.stats
        m = self.machine.index
        stats.spans.append((self.exc.sim.current, m, w, "disk-read", start,
                            duration))
        if disk_bytes:
            self.bytes_charged += disk_bytes
            stats.disk_bytes_read += disk_bytes
            stats.count("disk_bytes", str(m), disk_bytes)

    def _issue_next(self) -> None:
        if self.next_load >= len(self.windows):
            return
        w = self.next_load
        self.next_load += 1
        self.inflight += 1
        _, disk_bytes, resident_bytes = self.windows[w]
        start, end, duration = self._read(disk_bytes)
        self._hold(resident_bytes)
        self.exc.sim.schedule_at(end, self._window_loaded, w, start,
                                 duration)
        if self.next_load == len(self.windows):
            self._issue_readahead()

    def _issue_readahead(self) -> None:
        """Queue window 0's read for the next region streaming this shard,
        charged to this job."""
        if not READAHEAD:
            return
        disk_bytes = self.windows[0][1]
        start, end, duration = self._read(disk_bytes)
        self.machine.disk.readaheads.append((self.key, start, end, duration))
        self.readahead_issued = disk_bytes
        self._charge(0, disk_bytes, start, duration)

    def _window_loaded(self, w: int, start: float, duration: float) -> None:
        self.inflight -= 1
        self.loaded.append((w, start, duration))
        self._maybe_activate()

    def _maybe_activate(self) -> None:
        exc = self.exc
        m = self.machine
        if (not self.loaded or m.chunk_queue
                or len(self.unfinished) >= MAX_RUNNING_WINDOWS):
            if self.exhausted:
                # Stream exhausted: wake idlers so they can flush and finish.
                for ws in exc.workers[m.index]:
                    wake_worker(exc, ws)
            return
        w, start, duration = self.loaded.popleft()
        chunks, disk_bytes, _ = self.windows[w]
        now = exc.sim.now
        stall = read_stall(self.idle_since, start, duration)
        self.activations.append((self.idle_since, start, duration, stall))
        if stall > 0.0:
            exc.stats.disk_stall_seconds += stall
            exc.stats.spans.append((exc.sim.current, m.index, w,
                                    "disk-stall", start + duration - stall,
                                    stall))
        if w == 0 and self.readahead_adopted:
            # the issuing region charged the bytes and recorded the read
            disk_bytes = duration = 0.0
            start = now
        self._charge(w, disk_bytes, start, duration)
        self.active_window = w
        self.unfinished[w] = len(chunks)
        m.chunk_queue.extend(chunks)
        self._issue_next()
        for ws in exc.workers[m.index]:
            wake_worker(exc, ws)

    def chunk_taken(self, ws: "WorkerState") -> None:
        """A worker took a chunk off the machine's queue.

        An emptied queue starts the stall clock and lets a loaded window
        activate; the activation defers through a zero-delay event, since
        waking workers here would schedule the taking one twice.
        """
        ws.window = self.active_window
        if not self.machine.chunk_queue:
            self.idle_since = self.exc.sim.now
            if self.loaded:
                self.exc.sim.schedule_at(self.exc.sim.now,
                                         self._maybe_activate)

    def chunk_done(self, w: int) -> None:
        """One chunk of window ``w`` finished on its worker (called from
        ``_end_work``, so follow-ups defer like :meth:`chunk_taken`'s)."""
        left = self.unfinished[w] - 1
        if left:
            self.unfinished[w] = left
            return
        del self.unfinished[w]
        exc = self.exc
        # The window's buffer leaves DRAM.  Every residency is priced for
        # decoding and resolving its edges again (the DECODE_/RESOLVE_* work
        # of each chunk); the routing plans its chunks built are a host memo
        # that outlives it, as in memory.
        self.resident_bytes -= self.windows[w][2]
        if self.loaded or self.exhausted:
            exc.sim.schedule_at(exc.sim.now, self._maybe_activate)

    def diagnostics(self) -> dict:
        """Stream state for :meth:`JobExecution.stall_diagnostics`."""
        return {
            "machine": self.machine.index,
            "windows": len(self.windows),
            "next_load": self.next_load,
            "inflight": self.inflight,
            "loaded": len(self.loaded),
            "active_window": self.active_window,
            "unfinished": dict(self.unfinished),
            "exhausted": self.exhausted,
        }


# ---------------------------------------------------------------------------
# Worker event loop
# ---------------------------------------------------------------------------


def wake_worker(exc: "JobExecution", ws: WorkerState) -> None:
    if ws.done or ws.scheduled:
        return
    ws.scheduled = True
    exc.sim.schedule_at(exc.sim.now, worker_loop, exc, ws)


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
        lo, hi, kind = m.chunk_queue.popleft()
        if exc.window_streams is not None:
            exc.window_streams[m.index].chunk_taken(ws)
        _start_work(exc, ws, _execute_chunk, (exc, ws, lo, hi, kind),
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
    ws.scheduled = True
    exc.sim.schedule_at(t0 + dur, _end_work, exc, ws, dur, kind, t0)


def _end_work(exc: "JobExecution", ws: WorkerState, dur: float,
              kind: str = "chunk", start: float = 0.0) -> None:
    ws.machine.cpu.thread_finished()
    ws.scheduled = False
    exc.stats.chunks.append((exc.sim.current, ws.machine.index, ws.windex,
                             kind, start, dur))
    if kind == "chunk" and exc.window_streams is not None:
        exc.window_streams[ws.machine.index].chunk_done(ws.window)
    worker_loop(exc, ws)


def _execute_chunk(exc: "JobExecution", ws: WorkerState, lo: int, hi: int,
                   kind: str) -> WorkTally:
    """Run local rows ``[lo, hi)`` of the ``kind`` CSR (or node range)."""
    job = exc.job
    if exc.spec is not None:
        tally = execute_edge_map_chunk(exc, ws.machine, ws, exc.spec, lo, hi,
                                       kind)
    elif job.kind == "node_kernel":
        tally = execute_node_kernel_chunk(exc, ws.machine, job.kernel,
                                          job.ops_per_node, job.bytes_per_node,
                                          lo, hi)
    else:
        tally = _execute_scalar_chunk(exc, ws, lo, hi, kind)
    exc.stats.tasks_executed += tally.tasks
    exc.chunks_remaining -= 1
    if exc.window_streams is not None:
        # Resolve-on-load: the window came off disk byte-coded; read the
        # chunk's encoded rows, decode and resolve each edge, and write the
        # resolved row.
        prefix = exc.window_streams[ws.machine.index].row_prefixes[kind]
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
        # ._apply_staged).  The apply cost stays on this slice.
        spec = exc.spec
        vals = spec.apply_transform(values, side.weights if spec.use_weights else None)
        exc.stage(m.index, spec.target, spec.op, side.rows, vals)
    else:
        # Re-point the context at the edge that issued each read.  The
        # edge-property columns need no restore: a free-form task iterates
        # one CSR for the whole job, set by the chunk that issued the read,
        # and a spec-built task's continuation reads none.
        ctx = ws.ctx
        for (task, node_g, nbr_g, w, ei, tag), value in zip(side.tasks, values):
            ctx._task = task
            ctx._node_global = node_g
            ctx._nbr_global = nbr_g
            ctx._edge_weight = w
            ctx._edge_idx = ei
            task.read_done(ctx, value, tag)
        tally.atomic_ops += ws.pending_atomics
        ws.pending_atomics = 0
    return tally


# ---------------------------------------------------------------------------
# Scalar (general RTC) chunk executor
# ---------------------------------------------------------------------------


def _execute_scalar_chunk(exc: "JobExecution", ws: WorkerState,
                          lo: int, hi: int, iter_kind: str) -> WorkTally:
    m = ws.machine
    task_cls = exc.task_cls
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
