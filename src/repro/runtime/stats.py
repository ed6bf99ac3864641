"""Execution statistics and the imbalance breakdown of Figure 6(c).

``JobStats`` collects, for one parallel region (job): the simulated wall
time, traffic by kind, message counts, and every worker's busy intervals.
``breakdown()`` classifies the job's span into the paper's three buckets:

* **fully parallel** — every machine still has all of its workers busy;
* **intra-machine imbalance** — every machine is still working, but some
  worker inside a machine is idle (waiting for peers or for responses);
* **inter-machine imbalance** — at least one machine has completely finished
  while the job continues elsewhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Breakdown:
    fully_parallel: float = 0.0
    intra_machine: float = 0.0
    inter_machine: float = 0.0

    @property
    def total(self) -> float:
        return self.fully_parallel + self.intra_machine + self.inter_machine

    def as_fractions(self) -> dict[str, float]:
        t = self.total
        if t <= 0:
            return {"fully_parallel": 0.0, "intra_machine": 0.0, "inter_machine": 0.0}
        return {
            "fully_parallel": self.fully_parallel / t,
            "intra_machine": self.intra_machine / t,
            "inter_machine": self.inter_machine / t,
        }


@dataclass
class JobStats:
    """Metrics for one parallel region."""

    start_time: float = 0.0
    end_time: float = 0.0
    #: bytes on the wire by kind: read_req / read_resp / write_req / ghost_sync / control
    bytes_by_kind: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    messages: int = 0
    tasks_executed: int = 0
    edges_processed: int = 0
    remote_reads: int = 0
    remote_writes: int = 0
    local_reads: int = 0
    local_writes: int = 0
    atomic_ops: int = 0
    #: bytes streamed from the modeled local disks (out-of-core mode)
    disk_bytes_read: float = 0.0
    #: seconds workers sat idle waiting for a window read (out-of-core);
    #: 0.0 whenever compute fully hides the disk
    disk_stall_seconds: float = 0.0
    #: worker busy intervals: machine -> worker -> list of (start, end)
    busy_intervals: dict[int, dict[int, list[tuple[float, float]]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    #: registry counter increments attributable to this job (flat
    #: ``name{labels}`` -> delta), attached by ``PgxdCluster.run_job``
    metrics_delta: dict[str, float] = field(default_factory=dict)
    #: simulated seconds along the job's critical path (the recorded
    #: parent chain of simulator events from job start to job end),
    #: attached by an installed :class:`repro.obs.profiler.SpanProfiler`;
    #: 0.0 when not profiled.  The chain tiles the job, so this equals
    #: ``elapsed`` — and can be far *smaller* than the sum of busy time.
    critical_path_len: float = 0.0
    #: critical-path seconds attributed to each machine's on-CPU spans
    #: (network transit excluded), attached by the profiler
    critical_path_by_machine: dict[int, float] = field(default_factory=dict)

    @property
    def straggler_machine(self):
        """Machine holding the most critical-path time (None unprofiled).

        Ties break toward the lowest machine index so the verdict is
        deterministic across runs.
        """
        if not self.critical_path_by_machine:
            return None
        return max(sorted(self.critical_path_by_machine),
                   key=lambda m: self.critical_path_by_machine[m])

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_by_kind.values())

    def record_busy(self, machine: int, worker: int, start: float, end: float) -> None:
        if end > start:
            self.busy_intervals[machine][worker].append((start, end))

    def merge_from(self, other: "JobStats") -> None:
        """Accumulate another job's measurements (used to sum per-iteration
        jobs): counters add up, busy intervals concatenate, and the span
        extends to cover the other job — so ``breakdown()`` on merged
        multi-iteration stats stays meaningful."""
        for kind, nbytes in other.bytes_by_kind.items():
            self.bytes_by_kind[kind] += nbytes
        self.messages += other.messages
        self.tasks_executed += other.tasks_executed
        self.edges_processed += other.edges_processed
        self.remote_reads += other.remote_reads
        self.remote_writes += other.remote_writes
        self.local_reads += other.local_reads
        self.local_writes += other.local_writes
        self.atomic_ops += other.atomic_ops
        self.disk_bytes_read += other.disk_bytes_read
        self.disk_stall_seconds += other.disk_stall_seconds
        for machine, workers in other.busy_intervals.items():
            for worker, intervals in workers.items():
                self.busy_intervals[machine][worker].extend(intervals)
        if other.end_time > self.end_time:
            self.end_time = other.end_time
        for name, delta in other.metrics_delta.items():
            self.metrics_delta[name] = self.metrics_delta.get(name, 0.0) + delta
        # Serial jobs chain causally, so critical paths concatenate; the
        # merged straggler falls out of the summed per-machine attribution.
        self.critical_path_len += other.critical_path_len
        for m, secs in other.critical_path_by_machine.items():
            self.critical_path_by_machine[m] = (
                self.critical_path_by_machine.get(m, 0.0) + secs)

    # -- Figure 6(c) --------------------------------------------------------

    def breakdown(self, workers_per_machine: int) -> Breakdown:
        """Classify the job span into the three Figure 6(c) buckets."""
        span_start, span_end = self.start_time, self.end_time
        if span_end <= span_start:
            return Breakdown()

        machines = sorted(self.busy_intervals)
        if not machines:
            return Breakdown(inter_machine=span_end - span_start)

        # Per-machine completion time and busy-worker step functions.
        machine_end: dict[int, float] = {}
        points: set[float] = {span_start, span_end}
        for m in machines:
            workers = self.busy_intervals[m]
            m_end = span_start
            for ivals in workers.values():
                for s, e in ivals:
                    points.add(max(s, span_start))
                    points.add(min(e, span_end))
                    m_end = max(m_end, e)
            machine_end[m] = min(m_end, span_end)
            points.add(machine_end[m])

        timeline = sorted(p for p in points if span_start <= p <= span_end)

        # Count busy workers per machine per segment via difference arrays.
        import bisect

        deltas: dict[int, list[float]] = {m: [0.0] * (len(timeline) + 1) for m in machines}
        for m in machines:
            for ivals in self.busy_intervals[m].values():
                for s, e in ivals:
                    s, e = max(s, span_start), min(e, span_end)
                    if e <= s:
                        continue
                    deltas[m][bisect.bisect_left(timeline, s)] += 1
                    deltas[m][bisect.bisect_left(timeline, e)] -= 1

        busy_counts: dict[int, list[float]] = {}
        for m in machines:
            acc, counts = 0.0, []
            for d in deltas[m][:-1]:
                acc += d
                counts.append(acc)
            busy_counts[m] = counts

        out = Breakdown()
        for i in range(len(timeline) - 1):
            seg = timeline[i + 1] - timeline[i]
            if seg <= 0:
                continue
            t_mid = 0.5 * (timeline[i] + timeline[i + 1])
            any_machine_done = any(machine_end[m] <= t_mid for m in machines)
            if any_machine_done:
                out.inter_machine += seg
            elif all(busy_counts[m][i] >= workers_per_machine for m in machines):
                out.fully_parallel += seg
            else:
                out.intra_machine += seg
        return out
