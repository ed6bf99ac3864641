"""The Communication Manager (Section 3.4): copier threads and delivery.

Incoming request messages land in a per-machine queue; idle *copier* threads
drain it.  A copier applies write (reduction) requests directly with atomic
instructions (for MIN, MAX, AND and OR only the items that change their
target), answers read requests with a response message, executes RMI
requests against the registered method table, and applies ghost-sync payloads
to the ghost columns (pre-sync) or the owner's property arrays (post-sync).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .messages import Message, MsgKind
from ..runtime.memory import cache_adjusted_locality
from .vector_kernels import (COPIER_READ_LOCALITY, COPIER_WRITE_LOCALITY,
                             VALUE_BYTES, WorkTally)

if TYPE_CHECKING:  # pragma: no cover
    from .jobrunner import JobExecution
    from .machine import Machine


class CopierState:
    """One copier thread of one machine."""

    __slots__ = ("machine", "cindex", "busy")

    def __init__(self, machine: "Machine", cindex: int):
        self.machine = machine
        self.cindex = cindex
        self.busy = False


def deliver_request(exc: "JobExecution", msg: Message) -> None:
    """Network delivery callback for request-side messages."""
    rel = exc.reliability
    if (rel is not None
            and msg.kind in (MsgKind.WRITE_REQ, MsgKind.GHOST_SYNC)
            and not rel.first_delivery(msg.request_id)):
        # Exactly-once application for non-idempotent kinds: a duplicated or
        # retried write/sync that already got through is discarded here.
        # READ_REQ is deliberately *not* deduplicated — re-serving a read is
        # idempotent, and the re-serve is what recovers a lost READ_RESP.
        exc.stats.count("dedup_drops", msg.kind.value)
        return
    machine = exc.machines[msg.dst]
    machine.request_queue.append(msg)
    depth = len(machine.request_queue)
    exc.stats.count("comm_requests", msg.kind.value)
    exc.stats.count("queue_depth_samples", depth)
    exc.stats.counts[("queue_depth", msg.dst)] = depth
    for cs in exc.copiers[msg.dst]:
        if not cs.busy:
            cs.busy = True
            exc.sim.schedule_at(exc.sim.now, copier_loop, exc, cs)
            break


def deliver_response(exc: "JobExecution", msg: Message) -> None:
    """Network delivery callback for read responses: route to the worker that
    issued the requests (Section 3.2 step (4))."""
    exc.workers[msg.dst][msg.worker].response_arrived(msg)


def copier_loop(exc: "JobExecution", cs: CopierState) -> None:
    machine = cs.machine
    if not machine.request_queue:
        cs.busy = False
        return
    cs.busy = True
    msg = machine.request_queue.popleft()
    machine.cpu.thread_started()
    tally, resp = _process_message(exc, machine, msg)
    dur = machine.cpu.mixed_duration(tally.cpu_ops, tally.atomic_ops,
                                     tally.random_bytes, tally.seq_bytes)
    stall = 0.0
    if exc.faults is not None:
        dur *= exc.faults.work_scale(machine.index, exc.sim.now)
        stall = exc.faults.copier_stall(machine.index)
    exc.sim.schedule_at(exc.sim.now + (dur + stall), _copier_done, exc, cs,
                        msg, dur, resp)


def _copier_done(exc: "JobExecution", cs: CopierState, msg: Message,
                 dur: float, resp: Optional[Message]) -> None:
    m = cs.machine.index
    cs.machine.cpu.thread_finished()
    # ``depth`` is the queue left behind: with the enqueue's, the gauge
    # tracks both edges and drains to 0 once every request is served.
    depth = len(cs.machine.request_queue)
    start = exc.sim.now - dur
    exc.stats.copier_passes.append((exc.sim.current, m, cs.cindex,
                                    msg.kind.value, start, dur))
    exc.stats.counts[("queue_depth", m)] = depth
    # Side effects that become visible when the copier finishes:
    if msg.kind is MsgKind.READ_REQ:
        # The response this pass built: each pass over a duplicated or
        # retried READ_REQ answers with its own message.
        exc.send_response(resp)
    elif msg.kind in (MsgKind.WRITE_REQ,):
        # The write is applied: acknowledge it (stops any retry timer).
        # Duplicates were filtered in deliver_request, so the outstanding
        # counter decrements exactly once per original request.
        if exc.reliability is not None:
            exc.reliability.ack(msg.request_id)
        if exc.audit is not None:
            exc.audit.ack(msg.request_id)
        exc.write_outstanding -= 1
        exc.check_main_done()
    elif msg.kind is MsgKind.GHOST_SYNC:
        if exc.reliability is not None:
            exc.reliability.ack(msg.request_id)
        if exc.audit is not None:
            exc.audit.ack(msg.request_id)
        exc.sync_outstanding -= 1
        exc.check_sync_done()
    elif msg.kind is MsgKind.RMI_REQ:
        if exc.audit is not None:
            exc.audit.ack(msg.request_id)
        exc.rmi_outstanding -= 1
        exc.check_main_done()
    copier_loop(exc, cs)


def _process_message(exc: "JobExecution", machine: "Machine",
                     msg: Message) -> tuple[WorkTally, Optional[Message]]:
    """Functionally apply a request and price the copier's work.  Returns
    the tally and, for a READ_REQ, the READ_RESP to send when the copier
    finishes."""
    cfg = exc.cluster.config.engine
    per_item_ops = cfg.copier_per_item / exc.cpu_op_time
    # The windowed (out-of-core) path: streamed edge windows resident in
    # DRAM sweep the LLC, so a copier's randomly-indexed working set is
    # effectively that much larger.  0.0 whenever streaming is off, which
    # keeps the in-memory cost model bit-identical.
    stream_bytes = exc.stream_cache_pressure(machine.index)
    if msg.kind is MsgKind.READ_REQ:
        values = machine.props[msg.prop][msg.offsets]
        n = len(values)
        resp = Message(MsgKind.READ_RESP, machine.index, msg.src,
                       prop=msg.prop, values=values,
                       request_id=msg.request_id, worker=msg.worker)
        tally = WorkTally(cpu_ops=n * per_item_ops, seq_bytes=n * 2 * VALUE_BYTES)
        loc = cache_adjusted_locality(COPIER_READ_LOCALITY,
                                      machine.n_local * VALUE_BYTES
                                      + stream_bytes,
                                      machine.machine_config)
        tally.add_bytes(n * VALUE_BYTES, loc)
        return tally, resp
    if msg.kind is MsgKind.WRITE_REQ:
        n = msg.item_count
        # Stage rather than apply: the values land in canonical content
        # order when the main phase ends (JobExecution._apply_staged),
        # so the reduction result is independent of delivery order — the
        # invariant that lets jobs interleave with other tenants and still
        # reproduce their standalone results bit for bit.  The copier still
        # pays the apply cost here, on its own timeline.
        exc.stage(machine.index, msg.prop, msg.op, msg.offsets, msg.values)
        compares, atomics = exc.atomic_cost(machine, msg.prop, msg.op,
                                            msg.offsets, msg.values)
        tally = WorkTally(cpu_ops=n * per_item_ops + compares,
                          atomic_ops=atomics, seq_bytes=n * 2 * VALUE_BYTES)
        loc = cache_adjusted_locality(COPIER_WRITE_LOCALITY,
                                      machine.n_local * VALUE_BYTES
                                      + stream_bytes,
                                      machine.machine_config)
        tally.add_bytes(n * 2 * VALUE_BYTES, loc)
        return tally, None
    if msg.kind is MsgKind.GHOST_SYNC:
        n = msg.item_count
        if msg.ghost_pre:
            # Pre-sync: owner broadcast into this machine's ghost columns.
            col = machine.ghosts.ensure_column(msg.prop, msg.values.dtype)
            col[msg.offsets] = msg.values
            compares = atomics = 0
        else:
            # Post-sync: reduce partials into the owner's property column —
            # staged like WRITE_REQ and applied in canonical order when the
            # post-sync phase completes (arrival order varies under shared-
            # fabric contention; content does not).
            exc.stage(machine.index, msg.prop, msg.op, msg.offsets,
                      msg.values)
            compares, atomics = exc.atomic_cost(machine, msg.prop, msg.op,
                                                msg.offsets, msg.values)
        tally = WorkTally(cpu_ops=n * per_item_ops + compares,
                          atomic_ops=atomics, seq_bytes=n * 2 * VALUE_BYTES)
        # Same cache-residency discount as the WRITE_REQ branch: pre-sync
        # scatters into the ghost columns, post-sync into the owner's rows.
        ws_bytes = (machine.ghosts.num_ghosts if msg.ghost_pre
                    else machine.n_local) * VALUE_BYTES
        loc = cache_adjusted_locality(COPIER_WRITE_LOCALITY,
                                      ws_bytes + stream_bytes,
                                      machine.machine_config)
        tally.add_bytes(n * 2 * VALUE_BYTES, loc)
        return tally, None
    if msg.kind is MsgKind.RMI_REQ:
        fn = exc.cluster.rmi.lookup(msg.rmi_fn)
        fn(exc.local_view(machine.index), *msg.rmi_args)
        return WorkTally(cpu_ops=200.0), None
    raise AssertionError(f"copier got unexpected message kind {msg.kind}")
