"""Conservation invariants checked at the end of every audited job.

Every request the engine sends must be answered exactly once, every
outstanding counter must return to zero, every staged reduction group must
drain at its phase boundary, and the network's port timelines must stay
monotonic.  These are the properties the retry/dedup layer (PR 3), the
back-pressure protocol, and the staged content-ordered reductions jointly
guarantee — and exactly the ones a subtle comm-layer bug breaks first.

:class:`AuditTracker` does the per-request bookkeeping while a job runs
(created by :class:`~repro.core.jobrunner.JobExecution` when
``EngineConfig.audit`` is set); :func:`check_execution` sweeps the finished
execution and either returns the violation list or raises a structured
:class:`AuditViolation` carrying the event context.

This module must not import the engine at runtime: the job runner imports
it, so the dependency points one way only.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any

from ..core.task_manager import read_stall

if TYPE_CHECKING:  # pragma: no cover
    from ..core.jobrunner import JobExecution


class AuditViolation(RuntimeError):
    """One or more conservation invariants failed at job end.

    ``violations`` holds every failed invariant as a dict with at least
    ``invariant`` (dotted name), ``detail`` (human-readable), and the event
    context (``job``, ``phase``, ``time``; machine/worker where relevant).
    """

    def __init__(self, violations: list[dict]):
        self.violations = list(violations)
        first = self.violations[0]
        more = (f" (+{len(self.violations) - 1} more)"
                if len(self.violations) > 1 else "")
        super().__init__(
            f"{first['invariant']}: {first['detail']} "
            f"[job={first.get('job')!r} phase={first.get('phase')!r} "
            f"t={first.get('time')!r}]{more}")


class AuditTracker:
    """Request/ack accounting for one job execution.

    ``track`` records every request the execution sends (reads, writes,
    ghost syncs, RMIs), ``ack`` records each acknowledgement (a read's
    response reaching its worker, a copier finishing a write/sync/RMI).
    Reliability-layer retransmits must *not* create extra acks, which is
    precisely what the exactly-once check verifies.
    """

    __slots__ = ("tracked", "acks")

    def __init__(self) -> None:
        #: request id -> kind, for every request sent
        self.tracked: dict[int, str] = {}
        #: request id -> number of acknowledgements observed
        self.acks: Counter = Counter()

    def track(self, request_id: int, kind: str) -> None:
        self.tracked[request_id] = kind

    def ack(self, request_id: int) -> None:
        self.acks[request_id] += 1


def _preview(items: Any, limit: int = 5) -> str:
    seq = list(items)
    head = ", ".join(repr(x) for x in seq[:limit])
    tail = f", ... ({len(seq)} total)" if len(seq) > limit else ""
    return f"[{head}{tail}]"


def check_execution(exc: "JobExecution",
                    raise_on_violation: bool = True) -> list[dict]:
    """Sweep a finished execution for conservation violations.

    Returns the (possibly empty) violation list; with
    ``raise_on_violation`` raises :class:`AuditViolation` instead when any
    invariant failed.  Safe to call on an unaudited execution too — the
    request-accounting section is simply skipped when no tracker exists.
    """
    violations: list[dict] = []
    ctx = {"job": exc.job.name, "phase": exc.phase, "time": exc.sim.now}

    def add(invariant: str, detail: str, **extra: Any) -> None:
        violations.append({"invariant": invariant, "detail": detail,
                           **ctx, **extra})

    # -- outstanding counters ------------------------------------------------
    for name in ("write_outstanding", "sync_outstanding", "rmi_outstanding"):
        val = getattr(exc, name)
        if val != 0:
            add(f"counter.{name}", f"{name}={val} at job end")
    if exc.chunks_remaining != 0:
        add("counter.chunks_remaining",
            f"{exc.chunks_remaining} chunks never executed")

    # -- per-worker state ----------------------------------------------------
    for mw in exc.workers:
        for ws in mw:
            where = {"machine": ws.machine.index, "worker": ws.windex}
            if ws.outstanding_reads != 0:
                add("worker.outstanding_reads",
                    f"{ws.outstanding_reads} reads still in flight", **where)
            if ws.parked:
                add("worker.parked",
                    f"{len(ws.parked)} messages still parked under "
                    "back-pressure", **where)
            if ws.pending_resp:
                add("worker.pending_responses",
                    f"{len(ws.pending_resp)} responses never processed",
                    **where)
            if ws.side_structs:
                add("worker.side_structs",
                    "unanswered side structures for request ids "
                    + _preview(sorted(ws.side_structs)), **where)
            nonzero = {d: c for d, c in ws.inflight_by_dst.items() if c != 0}
            if nonzero:
                add("worker.inflight_by_dst",
                    f"in-flight slots not returned: {nonzero}", **where)
            if ws.has_buffered():
                add("worker.buffers",
                    "partial request buffers never flushed", **where)

    # -- staged reduction groups --------------------------------------------
    if exc._staged:
        add("staging.undrained", "staged (machine, prop, op) groups never "
            "applied: " + _preview(sorted(exc._staged)))

    # -- per-machine queues --------------------------------------------------
    for m in exc.machines:
        if m.chunk_queue:
            add("machine.chunk_queue",
                f"{len(m.chunk_queue)} chunks left in queue",
                machine=m.index)
        if m.request_queue:
            add("machine.request_queue",
                f"{len(m.request_queue)} requests left unserviced",
                machine=m.index)

    # -- out-of-core window streams -----------------------------------------
    for stream in exc.window_streams or ():
        where = {"machine": stream.machine.index}
        if not stream.exhausted:
            add("stream.exhausted",
                f"window stream not exhausted: {stream.diagnostics()}",
                **where)
        if stream.inflight != 0:
            add("stream.inflight",
                f"{stream.inflight} window reads still on the disk", **where)
        if stream.resident_bytes != 0:
            add("stream.resident_bytes",
                f"{stream.resident_bytes} streamed bytes still resident",
                **where)
        # Disk-byte conservation: the device read exactly the windows'
        # bytes, plus the readahead this job queued for the next region,
        # minus the one it adopted from the last; and the job's stats
        # charged exactly those (byte counts are integers, so the float
        # sums are exact).
        stored = sum(disk_bytes for _, disk_bytes, _ in stream.windows)
        read = stored + stream.readahead_issued - stream.readahead_adopted
        device = stream.machine.disk.bytes_read - stream.disk_bytes_at_start
        if not read == device == stream.bytes_charged:
            add("stream.disk_bytes",
                f"windows hold {stored!r} B (readahead issued "
                f"{stream.readahead_issued!r} B, adopted "
                f"{stream.readahead_adopted!r} B), the disk read "
                f"{device!r} B, the job charged {stream.bytes_charged!r} B",
                **where)
        # A stall is the read's device time after the machine's chunk queue
        # emptied, so it can never exceed the read itself.
        for w, (idle, start, duration, stall) in enumerate(
                stream.activations):
            if not (stall == read_stall(idle, start, duration)
                    and 0.0 <= stall <= duration):
                add("stream.stall",
                    f"window {w} stalled {stall!r}s on a {duration!r}s read "
                    f"from {start!r}s, queue empty since {idle!r}s",
                    window=w, **where)
        # At most two windows run and one more loads.
        largest = max((r for _, _, r in stream.windows), default=0.0)
        if stream.peak_resident > 3 * largest:
            add("stream.resident",
                f"{stream.peak_resident!r} B of windows were resident at "
                f"once, over 3 x the largest window's {largest!r} B",
                **where)
    if exc.window_streams is not None:
        charged = sum(s.bytes_charged for s in exc.window_streams)
        if charged != exc.stats.disk_bytes_read:
            add("stream.disk_bytes",
                f"machines charged {charged!r} B, JobStats.disk_bytes_read "
                f"is {exc.stats.disk_bytes_read!r} B")

    # -- reliability layer ---------------------------------------------------
    if exc.reliability is not None and exc.reliability.pending_count:
        add("reliability.pending",
            f"{exc.reliability.pending_count} retry timers still armed")

    # -- request/ack accounting (exactly once) -------------------------------
    tracker = exc.audit
    if tracker is not None:
        unacked = [rid for rid in tracker.tracked
                   if tracker.acks.get(rid, 0) == 0]
        if unacked:
            kinds = Counter(tracker.tracked[rid] for rid in unacked)
            add("requests.unacked",
                f"{len(unacked)} requests never acknowledged "
                f"(by kind: {dict(kinds)}); ids " + _preview(unacked))
        multi = {rid: c for rid, c in tracker.acks.items() if c > 1}
        if multi:
            add("requests.multi_acked",
                "requests acknowledged more than once: " + _preview(
                    sorted((rid, c) for rid, c in multi.items())))
        unknown = [rid for rid in tracker.acks if rid not in tracker.tracked]
        if unknown:
            add("requests.unknown_ack",
                "acks for requests never tracked: " + _preview(sorted(unknown)))

    # -- network port timelines ---------------------------------------------
    net_violations = getattr(exc.network, "audit_violations", None)
    if net_violations:
        for nv in net_violations:
            violations.append({**ctx, **nv})
        net_violations.clear()

    if violations and raise_on_violation:
        raise AuditViolation(violations)
    return violations
