"""Causal span profiler: critical path, time attribution, stragglers.

The Figure 5/6 reports say *how much* time each layer consumed; this module
answers *why a job took as long as it did*.  A :class:`SpanProfiler` is a
plain consumer of a cluster's hook bus, subscribed on *that cluster's* bus
only (two profilers on two clusters in one process record disjoint spans):
while installed it assembles, per job, a span record from the engine's
span-end hook events, each of which carries its span's start — worker
chunk spans, copier spans, network message transits, post-sync ghost
reduces, disk reads, retries, the barrier — and derives:

* the **critical path**: the longest causal chain of spans ending at the
  job's completion.  Causal edges follow the engine's actual dependence
  structure: a span's start waits on the later of (a) the previous span on
  its own lane (a worker/copier is serial) and (b) the latest-arriving
  message into its machine; a message's parent is the span on the source
  machine that was active when it was sent.  The walk is backward from the
  barrier, whose predecessor is the last machine to finish — the straggler
  edge of Figure 6(c)'s inter-machine bucket.
* **per-machine / per-phase attribution**: busy seconds per machine per
  phase (the span tree), busy-time skew (max/mean), and each machine's
  share of critical-path time.
* a **Chrome trace-event / Perfetto** export (``save``) with one process
  per machine plus a synthetic "critical path" track.

Pay-for-play: nothing here runs unless a profiler is installed; handlers
only append tuples, and all tree/path computation is deferred to job
completion.  The profiler never touches simulated state, so results and
timings are bit-identical with it on or off (asserted by the audit tests).

Usage::

    prof = SpanProfiler(cluster)
    with prof:
        cluster.run_job(dg, job)         # stats gain critical_path_len
    print(prof.render_report())
    prof.save("profile-trace.json")      # open in ui.perfetto.dev

Every job runs as a scheduler ticket, whose scoped bus tags every payload
with ``session``/``ticket``; the ticket keys the per-job builders, so
interleaved tenants attribute spans correctly with no extra wiring.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from .hooks import Subscription

#: slack for float time comparisons; engine timestamps on a causal edge are
#: computed from the same clock value, so this only absorbs representation
#: noise, never reorders genuinely distinct events.
_EPS = 1e-12

#: synthetic pid for the critical-path track in Chrome trace exports
_CRIT_PID = 1_000_000

#: span kind -> Figure-5 layer (for folding into the overhead table)
_LAYER_OF = {"chunk": "task", "continuation/flush": "task",
             "copier": "comm", "ghost-reduce": "ghost",
             "disk-read": "disk",
             "message": "network", "barrier": "barrier"}

#: hooks whose capture only appends to the job's record: hook -> (the
#: :class:`_JobBuild` list, the payload fields it keeps, in tuple order)
_CAPTURE = {
    "task.chunk_end": ("chunks", ("machine", "worker", "kind", "start",
                                  "duration")),
    "comm.copier_done": ("copiers", ("machine", "copier", "kind", "start",
                                     "duration")),
    "ghost.reduce_end": ("ghosts", ("machine", "start", "duration")),
    "disk.read": ("disks", ("machine", "start", "duration")),
    "comm.retry": ("retries", ("machine", "kind", "attempt", "time")),
}


def _lane_name_cache(prefix: str):
    """Memoized ``f"{prefix} {idx}"`` — lane names repeat thousands of
    times per job, so interning them keeps materialization cheap."""
    cache: dict[int, str] = {}

    def name(idx: int) -> str:
        try:
            return cache[idx]
        except KeyError:
            s = cache[idx] = f"{prefix} {idx}"
            return s

    return name


_copier_kinds: dict[str, str] = {}


def _copier_kind_cache(kind: str) -> str:
    try:
        return _copier_kinds[kind]
    except KeyError:
        s = _copier_kinds[kind] = f"copier:{kind}"
        return s


class _Slice:
    """One on-CPU activity interval on a serial lane (worker/copier/ghost)."""

    __slots__ = ("machine", "lane", "kind", "start", "end")

    def __init__(self, machine: int, lane: str, kind: str,
                 start: float, end: float):
        self.machine = machine
        self.lane = lane
        self.kind = kind
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Msg:
    """One delivered fabric message (send -> deliver, cross-machine)."""

    __slots__ = ("src", "dst", "kind", "send", "deliver", "nbytes")

    def __init__(self, src: int, dst: int, kind: str, send: float,
                 deliver: float, nbytes: float):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.send = send
        self.deliver = deliver
        self.nbytes = nbytes


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
    duration: float = -1.0  # busy seconds (== end-start before coalescing)

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            self.duration = self.end - self.start


class _JobBuild:
    """Raw per-job event capture; hot-path handlers only append tuples
    here (the ``_CAPTURE`` fields) — `_Slice`/`_Msg` objects are
    materialized once, at analysis."""

    __slots__ = ("name", "session", "ticket", "start", "end", "chunks",
                 "copiers", "ghosts", "disks", "raw_msgs", "retries",
                 "phases", "barrier", "dropped")

    def __init__(self, name: str, start: float, session=None, ticket=None):
        self.name = name
        self.session = session
        self.ticket = ticket
        self.start = start
        self.end: Optional[float] = None
        self.chunks: list[tuple] = []    # (machine, worker, kind, start, dur)
        self.copiers: list[tuple] = []   # (machine, copier, kind, start, dur)
        self.ghosts: list[tuple] = []    # (machine, start, dur)
        self.disks: list[tuple] = []     # (machine, start, dur)
        self.raw_msgs: list[tuple] = []  # (src, dst, kind, send, deliver, nb)
        self.retries: list[tuple] = []   # (machine, kind, attempt, time)
        self.phases: list[tuple] = []    # (phase, start, end)
        self.barrier: Optional[tuple] = None  # (start, end)
        self.dropped = 0

    def materialize(self) -> tuple[list[_Slice], list[_Msg]]:
        worker_lane = _lane_name_cache("worker")
        copier_lane = _lane_name_cache("copier")
        copier_kind = _copier_kind_cache
        slices = [_Slice(m, worker_lane(w), kind, s, s + d)
                  for m, w, kind, s, d in self.chunks]
        slices.extend(_Slice(m, copier_lane(c), copier_kind(kind), s, s + d)
                      for m, c, kind, s, d in self.copiers)
        slices.extend(_Slice(m, "ghost", "ghost-reduce", s, s + d)
                      for m, s, d in self.ghosts)
        slices.extend(_Slice(m, "disk", "disk-read", s, s + d)
                      for m, s, d in self.disks)
        msgs = [_Msg(*raw) for raw in self.raw_msgs]
        return slices, msgs


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
    # lazy cache for ``busy_by_machine`` (it scans every slice, so it is
    # computed on first access, not on the hot annotate-at-job-end path)
    _busy: Optional[dict] = field(default=None, repr=False, compare=False)

    # -- busy-time attribution (lazy) ---------------------------------------

    @property
    def busy_by_machine(self) -> dict[int, float]:
        """Total busy seconds per machine across all lanes."""
        if self._busy is None:
            busy: dict[int, float] = {}
            for sl in self.slices:
                m = sl.machine
                busy[m] = busy.get(m, 0.0) + (sl.end - sl.start)
            self._busy = busy
        return self._busy

    # -- scalar summaries ---------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def critical_path_len(self) -> float:
        return sum(seg.duration for seg in self.critical_path)

    @property
    def straggler_machine(self) -> Optional[int]:
        if not self.machine_path_seconds:
            return None
        return max(sorted(self.machine_path_seconds),
                   key=lambda m: self.machine_path_seconds[m])

    @property
    def straggler_share(self) -> float:
        """The straggler's fraction of on-CPU critical-path seconds."""
        total = sum(self.machine_path_seconds.values())
        if total <= 0.0:
            return 0.0
        return self.machine_path_seconds[self.straggler_machine] / total

    @property
    def busy_skew(self) -> float:
        """max/mean machine busy time (1.0 = perfectly balanced)."""
        if not self.busy_by_machine:
            return 1.0
        vals = list(self.busy_by_machine.values())
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
                prev.duration += seg.duration
                prev.count += 1
            else:
                out.append(PathSegment(seg.layer, seg.kind, seg.machine,
                                       seg.lane, seg.start, seg.end,
                                       duration=seg.duration))
        return out

    def tree(self, include_spans: bool = True) -> dict:
        """The span tree: job -> phases -> machines -> spans.

        Spans are assigned to the phase containing their midpoint (lanes
        are serial, phases are disjoint per job, so midpoints classify
        unambiguously up to float noise at boundaries).
        """
        phase_nodes = [{"phase": ph, "start": s, "end": e, "machines": {}}
                       for ph, s, e in self.phases]

        def _node_for(t: float) -> Optional[dict]:
            for node in phase_nodes:
                if node["start"] - _EPS <= t <= node["end"] + _EPS:
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
# critical-path computation
# ---------------------------------------------------------------------------


class _PathFinder:
    """Backward causal walk over one job's slices and messages.

    Every ordering the walk needs is indexed once up front (end-sorted
    lanes and machines, start-sorted machines with a prefix-max of ends,
    deliver-sorted inboxes), so each path hop costs one or two bisects —
    the walk is O(path length x log n), not O(path x n)."""

    def __init__(self, slices: list[_Slice], messages: list[_Msg]):
        self.visited: set[int] = set()
        # Capture order is simulated-time order and every capture hook
        # fires at span end, so ``slices`` is a concatenation of a few
        # end-sorted runs: one stable O(n)-ish merge pass sorts it, and
        # partitioning the result keeps every sublist end-sorted for free.
        self._all: list[_Slice] = sorted(slices,
                                         key=attrgetter("end", "start"))
        self._all_ends = [s.end for s in self._all]
        # lanes: serial execution order within (machine, lane); per machine,
        # end-sorted (latest finisher)
        lane: dict[tuple, list[_Slice]] = {}
        m_end: dict[int, list[_Slice]] = {}
        for sl in self._all:
            key = (sl.machine, sl.lane)
            try:
                lane[key].append(sl)
            except KeyError:
                lane[key] = [sl]
            try:
                m_end[sl.machine].append(sl)
            except KeyError:
                m_end[sl.machine] = [sl]
        self._lane = lane
        self._m_end = m_end
        # start-sorted per machine with a prefix-max of ends (covering-slice
        # search for message producers)
        by_start = attrgetter("start", "end")
        self._m_start: dict[int, list[_Slice]] = {}
        self._m_prefmax: dict[int, list[float]] = {}
        for m, lst in m_end.items():
            ordered = sorted(lst, key=by_start)
            self._m_start[m] = ordered
            pref: list[float] = []
            best = float("-inf")
            for sl in ordered:
                if sl.end > best:
                    best = sl.end
                pref.append(best)
            self._m_prefmax[m] = pref
        # deliver-sorted inboxes
        msgs_in: dict[int, list[_Msg]] = {}
        for msg in messages:
            try:
                msgs_in[msg.dst].append(msg)
            except KeyError:
                msgs_in[msg.dst] = [msg]
        by_deliver = attrgetter("deliver", "send")
        for lst in msgs_in.values():
            lst.sort(key=by_deliver)
        self._msgs_in = msgs_in
        # precomputed bisect key arrays (building them per lookup would
        # make the whole walk quadratic)
        self._lane_ends = {k: [s.end for s in v]
                           for k, v in lane.items()}
        self._m_ends = {m: [s.end for s in v]
                        for m, v in m_end.items()}
        self._m_starts = {m: [s.start for s in v]
                          for m, v in self._m_start.items()}
        self._msg_delivers = {m: [mg.deliver for mg in v]
                              for m, v in msgs_in.items()}

    # Each helper returns the latest candidate at or before ``t`` that has
    # not been visited yet; the visited set guarantees termination even in
    # degenerate zero-duration tangles.

    @staticmethod
    def _scan_back(lst, keys, t, visited):
        i = bisect_right(keys, t + _EPS) - 1
        while i >= 0 and id(lst[i]) in visited:
            i -= 1
        return lst[i] if i >= 0 else None

    def latest_in_lane(self, machine: int, lane: str, t: float):
        lst = self._lane.get((machine, lane))
        if not lst:
            return None
        return self._scan_back(lst, self._lane_ends[(machine, lane)], t,
                               self.visited)

    def latest_on_machine(self, machine: int, t: float):
        lst = self._m_end.get(machine)
        if not lst:
            return None
        return self._scan_back(lst, self._m_ends[machine], t, self.visited)

    def latest_overall(self, t: float):
        return self._scan_back(self._all, self._all_ends, t, self.visited)

    def latest_msg_into(self, machine: int, t: float):
        lst = self._msgs_in.get(machine)
        if not lst:
            return None
        return self._scan_back(lst, self._msg_delivers[machine], t,
                               self.visited)

    def producing_slice(self, machine: int, send: float):
        """The span active on ``machine`` when a message left at ``send``:
        the latest-starting slice covering the send time, else the latest
        slice that ended before it (the sender had just gone idle)."""
        lst = self._m_start.get(machine)
        if not lst:
            return None
        pref = self._m_prefmax[machine]
        j = bisect_right(self._m_starts[machine], send + _EPS) - 1
        while j >= 0 and pref[j] + _EPS >= send:
            sl = lst[j]
            if id(sl) not in self.visited and sl.end + _EPS >= send:
                return sl
            j -= 1
        return self.latest_on_machine(machine, send)

    def compute(self, build: _JobBuild) -> list[PathSegment]:
        segments: list[PathSegment] = []
        cap = len(self._all) + sum(len(v) for v in self._msgs_in.values()) + 8
        # Phase flips are global barriers: a span whose lane/message
        # predecessors all end before its phase began was really released
        # by the phase transition — its causal parent is the last finisher
        # of the previous phase, on whichever machine that was.
        phase_starts = sorted(s for _, s, _ in build.phases)

        def phase_start_of(t: float) -> Optional[float]:
            i = bisect_right(phase_starts, t + _EPS) - 1
            return phase_starts[i] if i >= 0 else None

        if build.barrier is not None:
            b_start, b_end = build.barrier
            segments.append(PathSegment("barrier", "barrier", None, "barrier",
                                        b_start, b_end))
            cur = self.latest_overall(b_start)  # last machine to finish
        else:
            horizon = build.end if build.end is not None else float("inf")
            cur = self.latest_overall(horizon)
        # A span reached through a message only gates its successor up to
        # the send instant — work it did afterwards overlaps the transit
        # and must not count toward the path (clamp), or the path length
        # would exceed elapsed time.
        clamp: Optional[float] = None
        while cur is not None and len(segments) < cap:
            self.visited.add(id(cur))
            end = cur.end if clamp is None else min(cur.end, clamp)
            segments.append(PathSegment(
                _LAYER_OF.get(cur.kind.split(":")[0], "task"), cur.kind,
                cur.machine, cur.lane, cur.start, max(cur.start, end)))
            # binding predecessor: latest of same-lane completion vs
            # latest-arriving message (ties go to the message — the
            # "latest-arriving input" rule of the span model)
            lane_prev = self.latest_in_lane(cur.machine, cur.lane, cur.start)
            msg_prev = self.latest_msg_into(cur.machine, cur.start)
            ph = phase_start_of(cur.start)
            if ph is not None:
                lane_end = (lane_prev.end if lane_prev is not None
                            else float("-inf"))
                msg_end = (msg_prev.deliver if msg_prev is not None
                           else float("-inf"))
                if max(lane_end, msg_end) + _EPS < ph:
                    nxt = self.latest_overall(ph)
                    if nxt is not None:
                        cur = nxt
                        clamp = None
                        continue
            if msg_prev is not None and (
                    lane_prev is None
                    or msg_prev.deliver + _EPS >= lane_prev.end):
                self.visited.add(id(msg_prev))
                segments.append(PathSegment(
                    "network", msg_prev.kind, msg_prev.src,
                    f"{msg_prev.src}->{msg_prev.dst}", msg_prev.send,
                    msg_prev.deliver))
                cur = self.producing_slice(msg_prev.src, msg_prev.send)
                clamp = msg_prev.send
            else:
                cur = lane_prev
                clamp = None
        segments.reverse()
        return segments


def _analyze(build: _JobBuild) -> JobProfile:
    """Turn one raw capture into a :class:`JobProfile`."""
    slices, messages = build.materialize()
    path = _PathFinder(slices, messages).compute(build)
    prof = JobProfile(
        name=build.name, session=build.session, ticket=build.ticket,
        start=build.start,
        end=build.end if build.end is not None else build.start,
        phases=list(build.phases), slices=slices,
        messages=messages, retries=build.retries,
        dropped=build.dropped, critical_path=path)
    for seg in path:
        if seg.machine is not None and seg.layer != "network":
            prof.machine_path_seconds[seg.machine] = (
                prof.machine_path_seconds.get(seg.machine, 0.0)
                + seg.duration)
    return prof


# ---------------------------------------------------------------------------
# the profiler
# ---------------------------------------------------------------------------


class SpanProfiler:
    """Records span events while installed; analysis is per finished job.

    Every job is a scheduler ticket, so the capture keys on the ``ticket``
    tag added by each job's :class:`ScopedHookBus` and interleaved tenants
    never mix spans.  Events arriving outside any known job (e.g. from an
    execution driven by hand on the cluster bus) count as orphans.
    """

    def __init__(self, cluster):
        self.cluster = cluster
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

    # -- capture hooks -----------------------------------------------------

    def _build_of(self, p: dict) -> Optional[_JobBuild]:
        """The open capture of ``p``'s ticket; None counts an orphan."""
        b = self._builds.get(p.get("ticket"))
        if b is None:
            self.orphan_events += 1
        return b

    def _capture(self, attr: str, fields: tuple) -> Callable:
        """The append-only handler of one ``_CAPTURE`` row."""
        keep = itemgetter(*fields)

        def on_event(p: dict) -> None:
            b = self._build_of(p)
            if b is not None:
                getattr(b, attr).append(keep(p))
        return on_event

    def _on_job_start(self, p: dict) -> None:
        t = p.get("ticket")
        if t is None:
            self.orphan_events += 1
            return
        stale = self._builds.pop(t, None)
        if stale is not None:  # crash recovery restarted this job
            self.aborted.append(stale)
        self._builds[t] = _JobBuild(p["job"], p["time"],
                                    session=p.get("session"), ticket=t)

    def _on_job_end(self, p: dict) -> None:
        build = self._builds.pop(p.get("ticket"), None)
        if build is None:
            self.orphan_events += 1
            return
        build.end = p["start"] + p["duration"]
        self._finished.append(build)

    def _on_phase_end(self, p: dict) -> None:
        b = self._build_of(p)
        if b is not None:
            b.phases.append((p["phase"], p["start"],
                             p["start"] + p["duration"]))

    def _on_net_send(self, p: dict) -> None:
        b = self._build_of(p)
        if b is None:
            return
        deliver = p["deliver"]
        if deliver is None:
            b.dropped += 1
            return
        b.raw_msgs.append((p["src"], p["dst"], p["kind"], p["time"],
                           deliver, p["nbytes"]))

    def _on_barrier_exit(self, p: dict) -> None:
        b = self._build_of(p)
        if b is not None:
            b.barrier = (p["start"], p["start"] + p["duration"])

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("profiler already installed")
        other = getattr(self.cluster, "profiler", None)
        if other is not None and other is not self:
            raise RuntimeError("another profiler is installed on this cluster")
        handlers = {name: self._capture(attr, fields)
                    for name, (attr, fields) in _CAPTURE.items()}
        handlers.update({"job.start": self._on_job_start,
                         "job.end": self._on_job_end,
                         "job.phase_end": self._on_phase_end,
                         "net.send": self._on_net_send,
                         "barrier.exit": self._on_barrier_exit})
        self._subs = self.cluster.hooks.subscribe_known(handlers)
        reg = self.cluster.metrics
        self._hist = reg.histogram(
            "repro_profile_critical_path_seconds",
            "Per-job critical-path length (simulated seconds)")
        self._gauge = reg.gauge(
            "repro_profile_straggler_share",
            "Last profiled job's critical-path share held by its straggler",
            labelnames=("machine",))
        self.cluster.profiler = self
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for sub in self._subs:
            sub.cancel()
        self._subs = []
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

    def annotate(self, stats, ticket: int) -> Optional[JobProfile]:
        """Attach critical-path fields to a job's stats (the scheduler
        calls this on completion when a profiler is installed)."""
        build = next((b for b in reversed(self._finished)
                      if b.ticket == ticket), None)
        if build is None:
            return None
        prof = self._profile(build)
        stats.critical_path_len = prof.critical_path_len
        stats.critical_path_by_machine = dict(prof.machine_path_seconds)
        if self._hist is not None:
            self._hist.observe(prof.critical_path_len)
        straggler = prof.straggler_machine
        if straggler is not None and self._gauge is not None:
            self._gauge.labels(machine=straggler).set(prof.straggler_share)
        return prof

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
            straggler = prof.straggler_machine
            lines.append(
                f"{(prof.session or '-'):<10} {prof.name:<28} "
                f"{prof.elapsed:>11.6f} {prof.critical_path_len:>11.6f} "
                f"{('m%d' % straggler) if straggler is not None else '-':>5} "
                f"{prof.straggler_share:>6.0%}")
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
            on_cpu = sum(by_machine.values())
            straggler = max(sorted(by_machine), key=lambda m: by_machine[m])
            share = by_machine[straggler] / on_cpu if on_cpu > 0 else 0.0
            ratio = share * len(by_machine)
            lines.append(
                f"balance: straggler machine {straggler} holds {share:.0%} "
                f"of on-CPU critical-path time ({ratio:.2f}x fair share) "
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
