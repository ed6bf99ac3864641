"""Execution statistics and the imbalance breakdown of Figure 6(c).

``JobStats`` collects, for one parallel region (job): the simulated wall
time, every fabric message, worker slice, copier pass and lifecycle span
(phases, the barrier, ghost reduces, disk windows, retries), and the other
counted facts the metrics recorder folds at the attempt's end.
``breakdown()`` classifies the job's span into the paper's three buckets:

* **fully parallel** — every machine still has all of its workers busy;
* **intra-machine imbalance** — every machine is still working, but some
  worker inside a machine is idle (waiting for peers or for responses);
* **inter-machine imbalance** — at least one machine has completely finished
  while the job continues elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping


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


def straggler(seconds: Mapping[int, float]) -> tuple:
    """``(machine, share)``: the machine holding the most of ``seconds``
    (ties break toward the lowest index, so the verdict is deterministic
    across runs) and its fraction of their total; ``(None, 0.0)`` when
    empty, a share of 0.0 when the total is not positive."""
    if not seconds:
        return None, 0.0
    machine = max(sorted(seconds), key=seconds.__getitem__)
    total = sum(seconds.values())
    return machine, (seconds[machine] / total if total > 0.0 else 0.0)


#: the additive scalars of :meth:`JobStats.merge_from`
_SUMMED = ("tasks_executed", "edges_processed", "remote_reads",
           "remote_writes", "local_reads", "local_writes", "atomic_ops",
           "disk_bytes_read", "disk_stall_seconds", "critical_path_len")


@dataclass
class JobStats:
    """What the engine did in one parallel region (one attempt of a job).

    It is the one account of the region's work: the metrics recorder folds
    it into the cluster registry when the attempt ends, and ``breakdown()``
    and the span profiler read its rows.
    """

    start_time: float = 0.0
    end_time: float = 0.0
    #: the value of the job's ``reduce``, all-reduced on its closing
    #: barrier; None for a job without one
    reduced: object = None
    tasks_executed: int = 0
    edges_processed: int = 0
    #: accesses that went remote: the ghost misses of ``read``/``write`` mode
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
    #: worker slices in finish order, ``(seq, machine, worker, kind, start,
    #: duration)``: ``kind`` is ``chunk`` or ``continuation/flush`` and
    #: ``seq`` the simulator event that ended the slice
    chunks: list[tuple] = field(default_factory=list)
    #: copier passes in finish order, ``(seq, machine, copier, kind, start,
    #: duration)``; ``kind`` is the request's message kind
    copier_passes: list[tuple] = field(default_factory=list)
    #: the region's other spans in record order, ``(seq, machine, lane,
    #: kind, start, duration)`` with ``seq`` the simulator event that
    #: recorded it.  ``kind`` is ``phase`` (``lane`` the phase name,
    #: ``machine`` None), ``barrier`` (``machine`` None), ``ghost-reduce``,
    #: ``disk-read`` (``lane`` the window; zero-length at the activation
    #: of an adopted readahead, whose issuer recorded the read),
    #: ``disk-stall`` (``lane`` the window whose read the machine's
    #: workers sat idle for) or ``retry:<request kind>`` (zero-length,
    #: ``lane`` the attempt number); ``lane`` is None otherwise
    spans: list[tuple] = field(default_factory=list)
    #: fabric messages in the order their frames formed, ``(seq, src, dst,
    #: kind, nbytes, send, deliver)``: ``kind`` is read_req / read_resp /
    #: write_req / ghost_sync / rmi, ``seq`` the simulator event that
    #: formed the frame, ``send`` the enqueue instant, and ``deliver`` None
    #: for a message the fabric dropped
    sends: list[tuple] = field(default_factory=list)
    #: every other fact, ``(fact, label) -> count``, each named after the
    #: metrics recorder instrument it feeds: ``flushes``, ``flush_items``
    #: and ``comm_requests`` by kind, ``queue_depth_samples`` by value,
    #: ``ghost_hits`` by mode, ``plan_cache_requests`` by hit/miss,
    #: ``combine_items`` by in/out, ``retries`` and ``dedup_drops`` by
    #: request kind, and ``disk_bytes`` by machine (as a string);
    #: ``queue_depth`` by machine holds the last depth seen instead
    counts: dict[tuple, int] = field(default_factory=dict)
    #: registry counter increments attributable to this job (flat
    #: ``name{labels}`` -> delta), attached when the scheduler folds it
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
        """Machine holding the most critical-path time (None unprofiled)."""
        return straggler(self.critical_path_by_machine)[0]

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def bytes_by_kind(self) -> Mapping[str, float]:
        """Fabric bytes by message kind, summed over :attr:`sends`."""
        out: dict[str, float] = {}
        for _, _, _, kind, nbytes, _, _ in self.sends:
            out[kind] = out.get(kind, 0.0) + nbytes
        return MappingProxyType(out)

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_by_kind.values())

    @property
    def messages(self) -> int:
        """Fabric messages, dropped ones included."""
        return len(self.sends)

    @property
    def busy_intervals(self) -> dict[int, dict[int, list[tuple[float, float]]]]:
        """machine -> worker -> ``(start, end)`` of each non-empty slice."""
        out: dict[int, dict[int, list[tuple[float, float]]]] = {}
        for _, m, w, _, start, duration in self.chunks:
            if start + duration > start:
                out.setdefault(m, {}).setdefault(w, []).append(
                    (start, start + duration))
        return out

    def count(self, fact: str, label, n: int = 1) -> None:
        """Add ``n`` to ``counts[(fact, label)]``."""
        key = (fact, label)
        counts = self.counts
        counts[key] = counts.get(key, 0) + n

    def merge_from(self, other: "JobStats") -> None:
        """Accumulate another job's measurements (used to sum per-iteration
        jobs): counters add up, rows concatenate, and the span
        extends to cover the other job — so ``breakdown()`` on merged
        multi-iteration stats stays meaningful.  Serial jobs chain
        causally, so critical paths concatenate too; the merged straggler
        falls out of the summed per-machine attribution."""
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("chunks", "copier_passes", "spans", "sends"):
            getattr(self, name).extend(getattr(other, name))
        for mine, theirs in ((self.metrics_delta, other.metrics_delta),
                             (self.critical_path_by_machine,
                              other.critical_path_by_machine)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0.0) + value
        for key, n in other.counts.items():
            if key[0] == "queue_depth":  # the later job's depth is the last
                self.counts[key] = n
            else:
                self.count(*key, n)
        self.end_time = max(self.end_time, other.end_time)

    # -- Figure 6(c) --------------------------------------------------------

    def breakdown(self, workers_per_machine: int) -> Breakdown:
        """Classify the job span into the three Figure 6(c) buckets."""
        lo, hi = self.start_time, self.end_time
        if hi <= lo:
            return Breakdown()
        # Each machine's non-empty slices clipped to the span, and when
        # its last one ended.
        clipped: dict[int, list[tuple[float, float]]] = {}
        done: dict[int, float] = {}
        for _, m, _, _, start, duration in self.chunks:
            end = start + duration
            if end > start:
                clipped.setdefault(m, []).append((max(start, lo),
                                                  min(end, hi)))
                done[m] = max(done.get(m, lo), end)
        if not done:
            return Breakdown(inter_machine=hi - lo)
        done = {m: min(end, hi) for m, end in done.items()}
        points = {lo, hi, *done.values()}
        for slices in clipped.values():
            for s, e in slices:
                points.update((s, e))
        timeline = sorted(p for p in points if lo <= p <= hi)

        # Busy workers per machine per segment, via difference arrays.
        busy = []
        for slices in clipped.values():
            delta = [0] * len(timeline)
            for s, e in slices:
                if e > s:
                    delta[bisect_left(timeline, s)] += 1
                    delta[bisect_left(timeline, e)] -= 1
            busy.append(list(accumulate(delta)))

        out = Breakdown()
        for i, (t0, t1) in enumerate(zip(timeline, timeline[1:])):
            seg = t1 - t0
            if seg <= 0:
                continue
            t_mid = 0.5 * (t0 + t1)
            if any(end <= t_mid for end in done.values()):
                out.inter_machine += seg
            elif all(b[i] >= workers_per_machine for b in busy):
                out.fully_parallel += seg
            else:
                out.intra_machine += seg
        return out
