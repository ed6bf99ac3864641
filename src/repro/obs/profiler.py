"""Causal span profiler: critical path, time attribution, stragglers.

The Figure 5/6 reports say *how much* time each layer consumed; this module
answers *why a job took as long as it did*.  A :class:`SpanProfiler`
subscribes to ``job.start`` and ``job.end`` on *one cluster's* hook bus
(two profilers on two clusters in one process record disjoint jobs), and
reads each finished job's span record — worker chunks, copier passes,
message transits, phases, ghost reduces, disk reads, retries and the
barrier — from the rows of its ``JobStats``, each of which carries the
simulator event that recorded it.  It derives:

* the **critical path**: the chain of simulator events that actually
  caused the job's completion.  While a profiler is installed the
  simulator records every executed event with its parent — the event
  whose handler scheduled it — and the walk follows those parents from
  the event that emitted ``job.end`` back to the one that emitted
  ``job.start``.  Each hop is labelled by what the child event ended:
  the span it emitted (a worker chunk, a copier batch, a ghost reduce, a
  disk read, a retry timer, the barrier), a message delivery
  (``network``), or else its handler's layer.  The hops tile
  ``[job.start, job.end]``, so the path length *is* the job's elapsed
  time, whatever overlapped inside it.
* **per-machine / per-phase attribution**: busy seconds per machine per
  phase (the span tree), busy-time skew (max/mean), and each machine's
  share of critical-path time.
* a **Chrome trace-event / Perfetto** export (``save``) with one process
  per machine plus a synthetic "critical path" track.

Pay-for-play: nothing here runs unless a profiler is installed; two
handlers run per job and none per span, the chain walk at job end costs
one dict lookup per hop, the job's stats get labels for the chain's own
events only, and the full span record waits until a profile is read.
The profiler never touches simulated state, so results and timings are
bit-identical with it on or off (asserted by the audit tests).

Usage::

    prof = SpanProfiler(cluster)
    with prof:
        cluster.run_job(dg, job)         # stats gain critical_path_len
    print(prof.render_report())
    prof.save("profile-trace.json")      # open in ui.perfetto.dev

Every job runs as a scheduler ticket, whose scoped bus tags every payload
with ``session``/``ticket``; the ticket keys the per-job builders, and
each job's rows are its own, so interleaved tenants never mix spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from ..runtime.stats import JobStats, straggler
from .hooks import Subscription

#: synthetic pid for the critical-path track in Chrome trace exports
_CRIT_PID = 1_000_000

#: span kind -> Figure-5 layer (for folding into the overhead table)
_LAYER_OF = {"chunk": "task", "continuation/flush": "task",
             "copier": "comm", "ghost-reduce": "ghost",
             "disk-read": "disk",
             "message": "network", "retry": "network", "barrier": "barrier"}

#: handler module -> layer, for a path hop whose event emitted no span and
#: delivered no fabric message (anything else is ``task``): a same-machine
#: or duplicate delivery is communication, and a frame's wait for its
#: transmit port (the previous frame's transmit) is network.
_MODULE_LAYER = {"repro.core.comm_manager": "comm",
                 "repro.runtime.network": "network"}

#: causal-log size below which records are never pruned
_PRUNE_MIN = 1 << 16

#: ``JobStats.spans`` kinds that are on-device slices -> their lane, in
#: export order
_SLICE_LANES = {"ghost-reduce": "ghost", "disk-read": "disk"}


@lru_cache(maxsize=1024)
def _name(prefix: str, idx) -> str:
    """Interned ``f"{prefix}{idx}"`` — lane and kind names repeat
    thousands of times per job, so one string each keeps materialization
    cheap."""
    return f"{prefix}{idx}"


class _Slice(NamedTuple):
    """One on-CPU activity interval on a serial lane (worker/copier/ghost)."""

    machine: Optional[int]
    lane: str
    kind: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Msg(NamedTuple):
    """One delivered fabric message (send -> deliver, cross-machine)."""

    src: int
    dst: int
    kind: str
    send: float
    deliver: float
    nbytes: float


@dataclass
class PathSegment:
    """One hop of the critical path (chronological order in the path)."""

    layer: str            # task / comm / network / ghost / barrier
    kind: str             # chunk, copier:<msgkind>, message kind, ...
    machine: Optional[int]  # source machine for network hops, None = cluster
    lane: str             # "worker 3", "copier 0", "ghost", "0->2", "barrier"
    start: float
    end: float
    count: int = 1        # >1 after coalescing consecutive same-lane hops

    @property
    def duration(self) -> float:
        return self.end - self.start


class _JobBuild:
    """One job's record: its start and end, the causal chain that ended
    it, and its attempt's ``JobStats`` (lent at the end, by
    :meth:`SpanProfiler.annotate`) — `_Slice`/`_Msg` objects are
    materialized from the rows once, at analysis."""

    __slots__ = ("name", "session", "ticket", "start", "start_seq", "end",
                 "chain", "stats")

    def __init__(self, name: str, start: float, session=None, ticket=None,
                 start_seq: int = -1):
        self.name = name
        self.session = session
        self.ticket = ticket
        self.start = start
        #: seq of the event that emitted ``job.start`` (-1: outside any)
        self.start_seq = start_seq
        self.end: Optional[float] = None
        #: the causal chain, (seq, parent, time, handler) per event, from
        #: the first after ``job.start`` to the one that emitted ``job.end``
        self.chain: list[tuple] = []
        self.stats = JobStats()

    def materialize(self, only: Optional[set] = None
                    ) -> tuple[list[_Slice], list[_Msg], list[tuple],
                               dict, dict]:
        """The job's slices, messages and retries, plus the causal labels:
        seq -> the span that event ended (a retry timer's firing counts),
        and seq -> the messages it sent.  With ``only``, just the rows of
        those seqs (all a path's labels need)."""
        def of(rows: list[tuple]) -> list[tuple]:
            return rows if only is None else [r for r in rows
                                              if r[0] in only]

        slices: list[_Slice] = []
        span_of: dict[int, _Slice] = {}

        def add(seq: int, sl: _Slice) -> None:
            slices.append(sl)
            span_of.setdefault(seq, sl)

        stats = self.stats
        for seq, m, w, kind, s, d in of(stats.chunks):
            add(seq, _Slice(m, _name("worker ", w), kind, s, s + d))
        for seq, m, c, kind, s, d in of(stats.copier_passes):
            add(seq, _Slice(m, _name("copier ", c), _name("copier:", kind),
                            s, s + d))
        spans = of(stats.spans)
        for want, lane in _SLICE_LANES.items():
            for seq, m, _, kind, s, d in spans:
                if kind == want:
                    add(seq, _Slice(m, lane, kind, s, s + d))
        retries = []
        for seq, m, attempt, kind, s, d in spans:
            if kind.startswith("retry:"):
                retries.append((m, kind[6:], attempt, s))
                span_of.setdefault(seq, _Slice(m, "retry", kind, s, s))
            elif kind == "barrier":
                span_of.setdefault(seq, _Slice(None, kind, kind, s, s + d))
        msgs: list[_Msg] = []
        sent_by: dict[int, list[_Msg]] = {}
        for seq, src, dst, kind, nbytes, send, deliver in of(stats.sends):
            if deliver is None:  # the fabric dropped it: it never lands
                continue
            msg = _Msg(src, dst, kind, send, deliver, nbytes)
            msgs.append(msg)
            sent_by.setdefault(seq, []).append(msg)
        return slices, msgs, retries, span_of, sent_by


@dataclass
class JobProfile:
    """Analyzed span record of one job: tree, critical path, attribution."""

    name: str
    session: Optional[str]
    ticket: Optional[int]
    start: float
    end: float
    phases: list[tuple]                       # (phase, start, end)
    slices: list[_Slice]
    messages: list[_Msg]
    retries: list[tuple]
    dropped: int
    critical_path: list[PathSegment]
    #: on-CPU critical-path seconds per machine (network hops excluded)
    machine_path_seconds: dict[int, float] = field(default_factory=dict)

    # -- busy-time attribution ----------------------------------------------

    @property
    def busy_by_machine(self) -> dict[int, float]:
        """Total busy seconds per machine across all lanes."""
        busy: dict[int, float] = {}
        for sl in self.slices:
            busy[sl.machine] = busy.get(sl.machine, 0.0) + sl.duration
        return busy

    # -- scalar summaries ---------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def critical_path_len(self) -> float:
        """End minus start of the path; its hops tile ``[start, end]``, so
        this equals :attr:`elapsed` exactly."""
        path = self.critical_path
        return path[-1].end - path[0].start if path else 0.0

    @property
    def straggler_machine(self) -> Optional[int]:
        return straggler(self.machine_path_seconds)[0]

    @property
    def straggler_share(self) -> float:
        """The straggler's fraction of on-CPU critical-path seconds."""
        return straggler(self.machine_path_seconds)[1]

    @property
    def busy_skew(self) -> float:
        """max/mean machine busy time (1.0 = perfectly balanced)."""
        vals = list(self.busy_by_machine.values())
        if not vals:
            return 1.0
        mean = sum(vals) / len(vals)
        if mean <= 0.0:
            return 1.0
        return max(vals) / mean

    def layer_seconds(self) -> dict[str, float]:
        """Critical-path seconds by Figure-5 layer (for report folding)."""
        out: dict[str, float] = {}
        for seg in self.critical_path:
            out[seg.layer] = out.get(seg.layer, 0.0) + seg.duration
        return out

    # -- structured views ---------------------------------------------------

    def coalesced_path(self) -> list[PathSegment]:
        """The critical path with consecutive same-lane hops merged — the
        readable view (a pull iteration's path may chain hundreds of
        back-to-back chunks on one worker; that is one logical segment)."""
        out: list[PathSegment] = []
        for seg in self.critical_path:
            prev = out[-1] if out else None
            if (prev is not None and prev.layer == seg.layer
                    and prev.machine == seg.machine and prev.lane == seg.lane):
                prev.end = seg.end
                prev.count += 1
            else:
                out.append(PathSegment(seg.layer, seg.kind, seg.machine,
                                       seg.lane, seg.start, seg.end))
        return out

    def tree(self, include_spans: bool = True) -> dict:
        """The span tree: job -> phases -> machines -> spans.

        Spans are assigned to the phase containing their midpoint (lanes
        are serial and phases disjoint per job, so only a zero-length
        span on a phase boundary could fit two; it goes to the first).
        """
        phase_nodes = [{"phase": ph, "start": s, "end": e, "machines": {}}
                       for ph, s, e in self.phases]

        def _node_for(t: float) -> Optional[dict]:
            for node in phase_nodes:
                if node["start"] <= t <= node["end"]:
                    return node
            return None

        for sl in self.slices:
            node = _node_for(0.5 * (sl.start + sl.end))
            if node is None:
                continue
            mnode = node["machines"].setdefault(
                sl.machine, {"busy": 0.0, "spans": []})
            mnode["busy"] += sl.duration
            if include_spans:
                mnode["spans"].append({"lane": sl.lane, "kind": sl.kind,
                                       "start": sl.start,
                                       "duration": sl.duration})
        return {"job": self.name, "session": self.session,
                "ticket": self.ticket, "start": self.start, "end": self.end,
                "phases": phase_nodes, "messages": len(self.messages),
                "retries": len(self.retries), "dropped": self.dropped}

    def summary(self) -> dict:
        """Flat JSON-friendly summary (one ``jobs`` entry of
        ``repro profile --json-out``)."""
        return {
            "job": self.name, "session": self.session,
            "elapsed": self.elapsed,
            "critical_path_len": self.critical_path_len,
            "critical_path_segments": len(self.critical_path),
            "straggler_machine": self.straggler_machine,
            "straggler_share": self.straggler_share,
            "busy_skew": self.busy_skew,
            "layer_seconds": self.layer_seconds(),
            "retries": len(self.retries), "dropped": self.dropped,
        }


# ---------------------------------------------------------------------------
# critical-path labelling
# ---------------------------------------------------------------------------


def _hop(t0: float, t1: float, span: Optional[_Slice], sent: list[_Msg],
         handler) -> PathSegment:
    """The path hop ``[t0, t1]`` ending at an event: labelled by the span
    the event ended, else as the delivery of a message its parent sent,
    else by the event's handler."""
    if span is not None:
        return PathSegment(_LAYER_OF.get(span.kind.split(":")[0], "task"),
                           span.kind, span.machine, span.lane, t0, t1)
    for msg in sent:
        if msg.deliver == t1:
            return PathSegment("network", msg.kind, msg.src,
                               f"{msg.src}->{msg.dst}", t0, t1)
    name = getattr(handler, "__name__", "event")
    return PathSegment(
        _MODULE_LAYER.get(getattr(handler, "__module__", None), "task"),
        name, None, name, t0, t1)


def _path(build: _JobBuild, span_of: dict, sent_by: dict
          ) -> list[PathSegment]:
    """The labelled hops of the job's chain.  Zero-length hops (same-instant
    wake-ups) are dropped; the rest tile the job."""
    path: list[PathSegment] = []
    t0 = build.start
    for seq, parent, t1, handler in build.chain:
        if t1 > t0:
            path.append(_hop(t0, t1, span_of.get(seq),
                             sent_by.get(parent, ()), handler))
            t0 = t1
    return path


def _machine_seconds(path: list[PathSegment]) -> dict[int, float]:
    """On-CPU path seconds per machine (network hops excluded)."""
    out: dict[int, float] = {}
    for seg in path:
        if seg.machine is not None and seg.layer != "network":
            out[seg.machine] = out.get(seg.machine, 0.0) + seg.duration
    return out


def _analyze(build: _JobBuild) -> JobProfile:
    """Turn one raw capture into a :class:`JobProfile`."""
    slices, messages, retries, span_of, sent_by = build.materialize()
    path = _path(build, span_of, sent_by)
    stats = build.stats
    return JobProfile(
        name=build.name, session=build.session, ticket=build.ticket,
        start=build.start, end=build.end,
        phases=[(ph, s, s + d) for _, _, ph, kind, s, d in stats.spans
                if kind == "phase"],
        slices=slices, messages=messages, retries=retries,
        dropped=sum(row[6] is None for row in stats.sends),
        critical_path=path,
        machine_path_seconds=_machine_seconds(path))


# ---------------------------------------------------------------------------
# the profiler
# ---------------------------------------------------------------------------


class SpanProfiler:
    """Records jobs while installed; analysis is per finished job.

    Every job is a scheduler ticket, so the record keys on the ``ticket``
    tag added by each job's :class:`ScopedHookBus`.  A ``job.start`` with
    no ticket, or a ``job.end`` with no open record (e.g. from an
    execution driven by hand on the cluster bus), counts as an orphan.

    Installing also switches on the simulator's causal log; each job's
    chain is walked out of it when the job ends, and records no open job
    can reach are pruned.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self._sim = cluster.sim
        self._installed = False
        self._subs: list[Subscription] = []
        #: ticket -> the capture of that job's running attempt
        self._builds: dict[int, _JobBuild] = {}
        self._finished: list[_JobBuild] = []
        self._cache: dict[int, JobProfile] = {}
        #: events that arrived with no open job to attach to
        self.orphan_events = 0
        #: captures abandoned by crash recovery (job restarted mid-flight)
        self.aborted: list[_JobBuild] = []
        self._hist = None
        self._gauge = None
        #: every machine the straggler gauge has a sample for
        self._gauge_machines: set[int] = set()
        self._prune_at = _PRUNE_MIN

    # -- job hooks ---------------------------------------------------------

    def _on_job_start(self, p: dict) -> None:
        t = p.get("ticket")
        if t is None:
            self.orphan_events += 1
            return
        stale = self._builds.pop(t, None)
        if stale is not None:  # crash recovery restarted this job
            self.aborted.append(stale)
        self._builds[t] = _JobBuild(p["job"], p["time"],
                                    session=p.get("session"), ticket=t,
                                    start_seq=self._sim.current)

    def _on_job_end(self, p: dict) -> None:
        build = self._builds.pop(p.get("ticket"), None)
        if build is None:
            self.orphan_events += 1
            return
        sim = self._sim
        build.end = sim.now
        build.chain = self._walk(sim.current, build)
        self._finished.append(build)
        self._prune()

    def _walk(self, seq: int, build: _JobBuild) -> list[tuple]:
        """Follow recorded parents from event ``seq`` back to the job's
        start event; a parent that ran before the job started (or whose
        record was pruned) ends the walk too — the first hop then opens at
        the job's start."""
        log = self._sim.causal_log
        chain = []
        while seq != build.start_seq:
            rec = log.get(seq)
            if rec is None or rec[1] < build.start:
                break
            chain.append((seq, *rec))
            seq = rec[0]
        chain.reverse()
        return chain

    def _prune(self) -> None:
        """Drop the records no open job's walk can reach: those older than
        the earliest open start (all of them when no job is open)."""
        log = self._sim.causal_log
        if len(log) < self._prune_at:
            return
        horizon = min((b.start for b in self._builds.values()),
                      default=float("inf"))
        for seq in [seq for seq, rec in log.items() if rec[1] < horizon]:
            del log[seq]
        self._prune_at = max(_PRUNE_MIN, 2 * len(log))

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("profiler already installed")
        other = getattr(self.cluster, "profiler", None)
        if other is not None and other is not self:
            raise RuntimeError("another profiler is installed on this cluster")
        self._subs = self.cluster.hooks.subscribe_known({
            "job.start": self._on_job_start, "job.end": self._on_job_end})
        reg = self.cluster.metrics
        self._hist = reg.histogram(
            "repro_profile_critical_path_seconds",
            "Per-job critical-path length (simulated seconds)")
        self._gauge = reg.gauge(
            "repro_profile_straggler_share",
            "Each machine's share of the last profiled job's on-CPU "
            "critical path",
            labelnames=("machine",))
        self._sim.causal_log = {}
        self.cluster.profiler = self
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for sub in self._subs:
            sub.cancel()
        self._subs = []
        self._sim.causal_log = None
        if getattr(self.cluster, "profiler", None) is self:
            self.cluster.profiler = None
        self._installed = False

    def __enter__(self) -> "SpanProfiler":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def _profile(self, build: _JobBuild) -> JobProfile:
        prof = self._cache.get(id(build))
        if prof is None:
            prof = self._cache[id(build)] = _analyze(build)
        return prof

    @property
    def profiles(self) -> list[JobProfile]:
        """All finished jobs' profiles, in completion order."""
        return [self._profile(b) for b in self._finished]

    def profiles_for(self, session: str) -> list[JobProfile]:
        """One session's profiles, in that session's completion order (for
        a fair scheduler this matches ``dispatch_log_for``'s FIFO order)."""
        return [self._profile(b) for b in self._finished
                if b.session == session]

    def last_profile(self) -> Optional[JobProfile]:
        return self._profile(self._finished[-1]) if self._finished else None

    def annotate(self, stats, ticket: int) -> None:
        """Keep a finished job's stats as its span record, and attach
        critical-path fields to them (the scheduler calls this on
        completion when a profiler is installed)."""
        build = next((b for b in reversed(self._finished)
                      if b.ticket == ticket), None)
        if build is None:
            return
        build.stats = stats
        # label only the chain's own events: a full profile materializes
        # every span and message of the job, and waits until it is read
        only = {rec[i] for rec in build.chain for i in (0, 1)}
        path = _path(build, *build.materialize(only)[3:])
        shares = _machine_seconds(path)
        path_len = path[-1].end - path[0].start if path else 0.0
        stats.critical_path_len = path_len
        stats.critical_path_by_machine = dict(shares)
        self._hist.observe(path_len)
        # every machine's sample is its share of *this* job's on-CPU path,
        # so an earlier job's straggler does not linger
        total = sum(shares.values())
        self._gauge_machines.update(shares)
        for m in self._gauge_machines:
            self._gauge.labels(machine=m).set(
                shares.get(m, 0.0) / total if total > 0.0 else 0.0)

    # -- aggregates (across all finished jobs) -----------------------------

    def layer_summary(self) -> dict[str, float]:
        """Critical-path seconds per layer, summed over finished jobs."""
        out: dict[str, float] = {}
        for prof in self.profiles:
            for layer, secs in prof.layer_seconds().items():
                out[layer] = out.get(layer, 0.0) + secs
        return out

    def straggler_summary(self) -> dict[int, float]:
        """Machine -> summed on-CPU critical-path seconds, over all jobs."""
        out: dict[int, float] = {}
        for prof in self.profiles:
            for m, secs in prof.machine_path_seconds.items():
                out[m] = out.get(m, 0.0) + secs
        return out

    def top_segments(self, k: int = 5) -> list[tuple[str, PathSegment]]:
        """The k longest coalesced path segments across jobs, with job name."""
        pool: list[tuple[str, PathSegment]] = []
        for prof in self.profiles:
            pool.extend((prof.name, seg) for seg in prof.coalesced_path())
        return sorted(pool, key=lambda it: -it[1].duration)[:max(0, k)]

    # -- rendering ---------------------------------------------------------

    def render_report(self, top: int = 5) -> str:
        """The ``repro profile`` payload: per-job table, top segments,
        aggregate balance verdict."""
        profiles = self.profiles
        if not profiles:
            return "no profiled jobs"
        lines = ["=== Critical-path profile ==="]
        header = (f"{'session':<10} {'job':<28} {'elapsed':>11} "
                  f"{'crit-path':>11} {'strag':>5} {'share':>6}")
        lines.append(header)
        lines.append("-" * len(header))
        for prof in profiles:
            machine, share = straggler(prof.machine_path_seconds)
            lines.append(
                f"{(prof.session or '-'):<10} {prof.name:<28} "
                f"{prof.elapsed:>11.6f} {prof.critical_path_len:>11.6f} "
                f"{('m%d' % machine) if machine is not None else '-':>5} "
                f"{share:>6.0%}")
        lines.append("")
        lines.append(f"top {top} critical-path segments (coalesced):")
        for i, (job, seg) in enumerate(self.top_segments(top), 1):
            where = (f"machine {seg.machine} {seg.lane}"
                     if seg.layer != "network" else f"link {seg.lane}")
            lines.append(
                f"  {i}. {seg.layer:<8} {where:<20} {seg.duration:.6f} s "
                f"x{seg.count:<5} [{job} {seg.kind}]")
        total_path = sum(p.critical_path_len for p in profiles)
        by_machine = self.straggler_summary()
        lines.append("")
        if by_machine:
            machine, share = straggler(by_machine)
            lines.append(
                f"balance: straggler machine {machine} holds {share:.0%} "
                f"of on-CPU critical-path time "
                f"({share * len(by_machine):.2f}x fair share) "
                f"over {len(profiles)} job(s)")
        lines.append(f"total critical path: {total_path:.6f} s; "
                     f"orphan events: {self.orphan_events}")
        return "\n".join(lines)

    # -- Chrome trace / Perfetto export ------------------------------------

    def to_chrome_trace(self) -> dict:
        """All profiled jobs as Chrome trace-event JSON (Perfetto-ready):
        one process per machine, one synthetic process for the critical
        path, retries as instant events."""
        events: list[dict] = []
        machines: set[int] = set()
        for prof in self.profiles:
            tag = f" [{prof.session}]" if prof.session else ""
            for sl in prof.slices:
                machines.add(sl.machine)
                events.append({
                    "name": sl.kind, "cat": "span", "ph": "X",
                    "ts": sl.start * 1e6, "dur": sl.duration * 1e6,
                    "pid": sl.machine, "tid": sl.lane,
                    "args": {"job": prof.name + tag}})
            for msg in prof.messages:
                machines.add(msg.src)
                events.append({
                    "name": msg.kind, "cat": "network", "ph": "X",
                    "ts": msg.send * 1e6,
                    "dur": (msg.deliver - msg.send) * 1e6,
                    "pid": msg.src, "tid": f"net->{msg.dst}",
                    "args": {"bytes": msg.nbytes, "job": prof.name + tag}})
            for machine, kind, attempt, t in prof.retries:
                machines.add(machine)
                events.append({
                    "name": f"retry {kind} #{attempt}", "cat": "retry",
                    "ph": "i", "s": "p", "ts": t * 1e6, "pid": machine,
                    "tid": "retries", "args": {"job": prof.name + tag}})
            for seg in prof.coalesced_path():
                events.append({
                    "name": f"{seg.layer}:{seg.kind}", "cat": "critical",
                    "ph": "X", "ts": seg.start * 1e6,
                    "dur": (seg.end - seg.start) * 1e6,
                    "pid": _CRIT_PID, "tid": prof.name + tag,
                    "args": {"machine": seg.machine, "lane": seg.lane,
                             "busy": seg.duration, "spans": seg.count}})
        meta = [{"name": "process_name", "ph": "M", "pid": m,
                 "args": {"name": f"machine {m}"}} for m in sorted(machines)]
        meta.append({"name": "process_name", "ph": "M", "pid": _CRIT_PID,
                     "args": {"name": "critical path"}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def save(self, path) -> int:
        """Write the Perfetto/chrome://tracing-loadable trace JSON; returns
        the number of trace events written."""
        doc = self.to_chrome_trace()
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])
