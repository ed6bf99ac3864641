"""Span profiler: tree assembly, critical path, attribution, exports.

The hand-made tests schedule their events on a real :class:`Simulator`
and emit through a ticket's :class:`ScopedHookBus`, as the scheduler does
for every job; worker slices and messages go into the job's
:class:`JobStats`, which the profiler reads at job end (the scheduler's
``annotate`` call), so
every event time is hand-picked and the critical path is computable on
paper.  The integration tests run real workloads and hold
the profiler to its two contracts: the critical path tiles the job's
elapsed time exactly, and installing a profiler never changes simulated
results (pay-for-play).
"""

import hashlib
import json

import numpy as np
import pytest

from repro import (FaultPlan, MachineCrash, PgxdCluster, rmat,
                   with_uniform_weights)
from repro.algorithms import pagerank, sssp, wcc
from repro.bench.calibration import scaled_cluster_config
from repro.core.scheduler import SchedulerConfig
from repro.obs.hooks import HookBus, ScopedHookBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SpanProfiler
from repro.runtime.config import NetworkConfig
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.stats import JobStats
from repro.server import PgxdServer


class _SimCluster:
    """Just enough cluster surface for a profiler: a simulator, hooks and
    metrics."""

    def __init__(self):
        self.sim = Simulator()
        self.hooks = HookBus()
        self.metrics = MetricsRegistry()
        self.profiler = None


def _install(cluster=None):
    cluster = cluster or _SimCluster()
    prof = SpanProfiler(cluster)
    prof.install()
    return cluster, prof


def _job_bus(cluster, ticket=1):
    """The bus one ticketed job emits on (what the scheduler hands it)."""
    return ScopedHookBus(cluster.hooks, cluster.metrics,
                         tags={"ticket": ticket})


def _slice(sim, stats, machine, worker, start, duration):
    """A worker slice ending now, recorded as the engine records one."""
    stats.chunks.append((sim.current, machine, worker, "chunk", start,
                         duration))


def _span(sim, stats, machine, lane, kind, start, duration):
    """A lifecycle span (phase, ghost reduce, ...) ending now."""
    stats.spans.append((sim.current, machine, lane, kind, start, duration))


def _run_relay(cluster, ticket=1, job="fx"):
    """Schedule and run a two-machine relay whose critical path is
    computable by hand (times relative to the current clock).

    m0 runs a chunk [0, 0.5] that sends a request arriving on m1 at 2.0,
    then an off-path chunk [0.5, 1]; m1 computes [2, 3] and replies,
    delivered at 4.0; m0 finishes with a chunk [4, 5].  A decoy chunk
    [0.2, 0.9] on m1 gates nothing.  The path is chunk [0, 0.5] + transit
    [0.5, 2] + chunk [2, 3] + transit [3, 4] + chunk [4, 5] = 5.0 seconds,
    the job's elapsed time; on-CPU path time is m0=1.5, m1=1.0.
    """
    sim, bus, t0 = cluster.sim, _job_bus(cluster, ticket), cluster.sim.now
    stats = JobStats(start_time=t0)

    def at(t, fn):
        sim.schedule_at(t0 + t, fn)

    def chunk(machine, worker, start, then=None):
        def end():
            _slice(sim, stats, machine, worker, t0 + start,
                   sim.now - (t0 + start))
            if then is not None:
                then()
        return end

    def send(src, dst, kind, deliver, on_deliver):
        at(deliver, on_deliver)
        stats.sends.append((sim.current, src, dst, kind, 64.0, sim.now,
                            t0 + deliver))

    def finish():
        bus.emit("job.end", job=job, start=t0, duration=sim.now - t0)
        if cluster.profiler is not None:  # as the scheduler does
            cluster.profiler.annotate(stats, ticket)

    def reply_arrived():
        at(5.0, chunk(0, 0, 4.0, finish))

    def request_arrived():
        at(3.0, chunk(1, 0, 2.0, lambda: send(1, 0, "read_resp", 4.0,
                                              reply_arrived)))

    def first_half_done():
        send(0, 1, "read_req", 2.0, request_arrived)
        at(1.0, chunk(0, 0, 0.5))

    def start():
        bus.emit("job.start", job=job, time=sim.now)
        at(0.5, chunk(0, 0, 0.0, first_half_done))
        at(0.2, lambda: at(0.9, chunk(1, 1, 0.2)))  # the decoy

    at(0.0, start)
    sim.run()


class TestKnownTopology:
    """The hand-computed fixture the acceptance criteria name."""

    @pytest.fixture()
    def profile(self):
        cluster, prof = _install()
        _run_relay(cluster)
        return prof.last_profile()

    def test_path_length_matches_hand_computation(self, profile):
        assert profile.critical_path_len == 5.0
        assert profile.critical_path_len == profile.elapsed

    def test_path_structure(self, profile):
        layers = [s.layer for s in profile.critical_path]
        assert layers == ["task", "network", "task", "network", "task"]
        durations = [s.duration for s in profile.critical_path]
        assert durations == pytest.approx([0.5, 1.5, 1.0, 1.0, 1.0])

    def test_first_hop_ends_at_send_instant(self, profile):
        # m0 kept computing until 1.0, but the request left at 0.5
        first, transit = profile.critical_path[:2]
        assert (first.start, first.end) == (0.0, 0.5)
        assert (transit.lane, transit.start, transit.end) == ("0->1", 0.5,
                                                              2.0)

    def test_decoy_stays_off_path(self, profile):
        assert all(s.lane != "worker 1" for s in profile.critical_path)

    def test_machine_attribution_and_straggler(self, profile):
        assert profile.machine_path_seconds == pytest.approx(
            {0: 1.5, 1: 1.0})
        assert profile.straggler_machine == 0
        assert profile.straggler_share == pytest.approx(0.6)

    def test_busy_time_includes_decoy(self, profile):
        assert profile.busy_by_machine == pytest.approx(
            {0: 2.0, 1: 1.7})

    def test_port_queueing_is_on_the_path(self):
        """m0 sends two 64-byte messages at 0.5, to m1 and then to m2, over
        a 64 B/s link: the second waits for the first's transmit [0.5, 1.5]
        and is delivered at 4.0, which ends the job.  Its path runs through
        that transmit, labelled network: task [0, 0.5], the first frame's
        transmit [0.5, 1.5], the second frame [1.5, 4]."""
        cluster, prof = _install()
        sim, bus, stats = cluster.sim, _job_bus(cluster), JobStats()
        net = Network(sim, 3, NetworkConfig(
            link_bw=64.0, per_message_overhead=0.0, link_latency=0.5,
            poller_per_message=0.0))

        def finish():
            bus.emit("job.end", job="q", start=0.0, duration=sim.now)
            prof.annotate(stats, 1)

        def send_both():
            net.send(0, 1, 64.0, lambda: None, kind="read_req", stats=stats)
            net.send(0, 2, 64.0, finish, kind="write_req", stats=stats)

        def start():
            bus.emit("job.start", job="q", time=0.0)
            sim.schedule_at(sim.now + 0.5, send_both)

        sim.schedule_at(0.0, start)
        sim.run()
        profile = prof.last_profile()
        assert profile.critical_path_len == profile.elapsed == 4.0
        assert [(s.layer, s.start, s.end) for s in profile.critical_path] \
            == [("task", 0.0, 0.5), ("network", 0.5, 1.5),
                ("network", 1.5, 4.0)]
        assert profile.critical_path[2].lane == "0->2"


class TestSpanTreeAssembly:
    def test_nesting_phases_machines_spans(self):
        cluster, prof = _install()
        bus, stats = _job_bus(cluster), JobStats()
        bus.emit("job.start", job="tree", time=0.0)
        _slice(cluster.sim, stats, 0, 0, 0.1, 0.4)
        _slice(cluster.sim, stats, 1, 2, 0.2, 0.6)
        _span(cluster.sim, stats, None, "main", "phase", 0.0, 1.0)
        _span(cluster.sim, stats, 0, None, "ghost-reduce", 1.0, 0.5)
        _span(cluster.sim, stats, None, "postsync", "phase", 1.0, 0.5)
        bus.emit("job.end", job="tree", start=0.0, duration=1.5)
        prof.annotate(stats, 1)
        tree = prof.last_profile().tree()
        assert tree["job"] == "tree"
        phases = {n["phase"]: n for n in tree["phases"]}
        assert set(phases) == {"main", "postsync"}
        assert set(phases["main"]["machines"]) == {0, 1}
        assert phases["main"]["machines"][1]["busy"] == pytest.approx(0.6)
        (span,) = phases["main"]["machines"][1]["spans"]
        assert span["lane"] == "worker 2" and span["kind"] == "chunk"
        assert span["start"] == pytest.approx(0.2)
        assert span["duration"] == pytest.approx(0.6)
        ghost = phases["postsync"]["machines"][0]["spans"]
        assert ghost[0]["lane"] == "ghost"

    def test_orphan_events_counted_not_attached(self):
        cluster, prof = _install()
        cluster.hooks.emit("job.start", job="untracked", time=0.0)
        _job_bus(cluster, ticket=3).emit("job.end", job="unopened",
                                         start=0.0, duration=1.0)
        assert prof.orphan_events == 2
        assert prof.profiles == []

    def test_two_clusters_stay_isolated(self):
        ca, pa = _install()
        cb, pb = _install()
        _run_relay(ca, job="on-a")
        _job_bus(cb).emit("job.start", job="on-b", time=0.0)
        _job_bus(cb).emit("job.end", job="on-b", start=0.0, duration=1.0)
        assert [p.name for p in pa.profiles] == ["on-a"]
        assert [p.name for p in pb.profiles] == ["on-b"]
        assert pb.orphan_events == 0

    def test_ticketed_jobs_interleave_without_mixing(self):
        cluster, prof = _install()
        bus = cluster.hooks
        s1, s2 = JobStats(), JobStats()
        bus.emit("job.start", job="j1", time=0.0, ticket=1, session="s1")
        bus.emit("job.start", job="j2", time=0.0, ticket=2, session="s2")
        _span(cluster.sim, s1, 0, None, "ghost-reduce", 0.0, 1.0)
        _span(cluster.sim, s2, 0, None, "ghost-reduce", 0.0, 2.0)
        _slice(cluster.sim, s1, 0, 0, 0.0, 1.0)
        _slice(cluster.sim, s2, 0, 0, 0.0, 2.0)
        bus.emit("job.end", job="j1", start=0.0, duration=1.0, ticket=1,
                 session="s1")
        bus.emit("job.end", job="j2", start=0.0, duration=2.0, ticket=2,
                 session="s2")
        prof.annotate(s1, 1)
        prof.annotate(s2, 2)
        (p1,) = prof.profiles_for("s1")
        (p2,) = prof.profiles_for("s2")
        assert [(s.lane, s.end) for s in p1.slices] == [("worker 0", 1.0),
                                                         ("ghost", 1.0)]
        assert [(s.lane, s.end) for s in p2.slices] == [("worker 0", 2.0),
                                                         ("ghost", 2.0)]

    def test_restarted_ticket_aborts_stale_build(self):
        cluster, prof = _install()
        bus = cluster.hooks
        bus.emit("job.start", job="j", time=0.0, ticket=9)
        bus.emit("job.start", job="j", time=1.0, ticket=9)  # crash recovery
        bus.emit("job.end", job="j", start=1.0, duration=1.0, ticket=9)
        assert len(prof.aborted) == 1
        assert [p.name for p in prof.profiles] == ["j"]

    def test_install_subscribes_to_job_start_and_end_only(self):
        """Every span is a ``JobStats`` row: no handler runs per span."""
        cluster, prof = _install()
        assert sorted(cluster.hooks._subs) == ["job.end", "job.start"]
        assert cluster.hooks.subscriber_count() == 2

    def test_install_twice_rejected(self):
        cluster, prof = _install()
        with pytest.raises(RuntimeError):
            prof.install()
        with pytest.raises(RuntimeError):
            SpanProfiler(cluster).install()
        prof.uninstall()
        SpanProfiler(cluster).install()  # slot freed

    def test_uninstall_stops_capture_and_reinstall_resumes(self):
        cluster, prof = _install()
        _run_relay(cluster, 1, job="first")
        prof.uninstall()
        assert cluster.sim.causal_log is None
        _run_relay(cluster, 2, job="unseen")
        assert [p.name for p in prof.profiles] == ["first"]
        assert prof.orphan_events == 0  # unsubscribed, not orphaned
        prof.install()
        _run_relay(cluster, 3, job="again")
        assert [p.name for p in prof.profiles] == ["first", "again"]
        again = prof.last_profile()
        assert again.critical_path_len == again.elapsed
        assert [s.duration for s in again.critical_path] == pytest.approx(
            [0.5, 1.5, 1.0, 1.0, 1.0])


class TestRealRunExactness:
    """On real workloads the path must explain elapsed time exactly."""

    @pytest.mark.parametrize("variant", ["pull", "push"])
    def test_pagerank_path_equals_elapsed(self, variant):
        cluster = PgxdCluster(scaled_cluster_config(2, 1e-3))
        dg = cluster.load_graph(rmat(2_000, 20_000, seed=3))
        prof = SpanProfiler(cluster)
        prof.install()
        pagerank(cluster, dg, variant=variant, max_iterations=2)
        assert prof.profiles
        for p in prof.profiles:
            assert p.critical_path_len == p.elapsed

    def test_stats_annotated_and_instruments_registered(self):
        cluster = PgxdCluster(scaled_cluster_config(2, 1e-3))
        dg = cluster.load_graph(rmat(2_000, 20_000, seed=3))
        prof = SpanProfiler(cluster)
        prof.install()
        pagerank(cluster, dg, max_iterations=2)
        _, stats = cluster.job_log[-1]
        assert stats.critical_path_len > 0
        assert stats.straggler_machine in (0, 1)
        from repro.obs.exporters import to_prometheus
        text = to_prometheus(cluster.metrics)
        assert "repro_profile_critical_path_seconds" in text
        assert "repro_profile_straggler_share" in text


def _assert_path_tiles_elapsed(prof, cluster):
    """Every job's path joins bitwise and spans exactly [start, end]."""
    assert prof.profiles
    for p in prof.profiles:
        path = p.critical_path
        assert path[0].start == p.start and path[-1].end == p.end, p.name
        assert all(a.end == b.start for a, b in zip(path, path[1:])), p.name
        assert p.critical_path_len == p.elapsed, p.name
    for name, st in cluster.job_log:
        assert st.critical_path_len == st.elapsed, name


_ALGORITHMS = {
    "pull": lambda c, dg: pagerank(c, dg, variant="pull", max_iterations=3),
    "push": lambda c, dg: pagerank(c, dg, variant="push", max_iterations=3),
    "sssp": lambda c, dg: sssp(c, dg, root=0),
    "wcc": lambda c, dg: wcc(c, dg),
}

_REGIMES = {
    "in-memory": {},
    "out-of-core": {"out_of_core": True},
    "drop+dup": {"fault_plan": FaultPlan(seed=3, drop_prob=0.05,
                                         dup_prob=0.05)},
    "delay+stall": {"fault_plan": FaultPlan(seed=3, delay_prob=0.05,
                                            copier_stall_prob=0.05)},
    "crash+recovery": {"fault_plan": FaultPlan(
        seed=2, crashes=(MachineCrash(machine=0, at=6e-5),))},
}


@pytest.fixture(scope="module")
def matrix_graph():
    return with_uniform_weights(rmat(2_000, 20_000, seed=3), seed=4)


class TestExactnessMatrix:
    """The recorded chain explains elapsed time exactly in every regime,
    including those where waiting overlaps work: disk windows, retry
    timers, delayed messages, copier stalls, and a job restarted from its
    checkpoint."""

    @staticmethod
    def _run(graph, algo, regime, machines, tmp_path, tie_seed=None):
        cluster = PgxdCluster(scaled_cluster_config(machines, 1e-3,
                                                    **_REGIMES[regime]))
        if tie_seed is not None:
            cluster.sim.set_tie_breaker(tie_seed)
        dg = cluster.load_graph(graph)
        if regime == "crash+recovery":
            cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
        with SpanProfiler(cluster) as prof:
            _ALGORITHMS[algo](cluster, dg)
        return cluster, prof

    @pytest.mark.parametrize("machines", [1, 2, 4])
    @pytest.mark.parametrize("regime", list(_REGIMES))
    @pytest.mark.parametrize("algo", list(_ALGORITHMS))
    def test_path_equals_elapsed(self, matrix_graph, algo, regime, machines,
                                 tmp_path):
        cluster, prof = self._run(matrix_graph, algo, regime, machines,
                                  tmp_path)
        _assert_path_tiles_elapsed(prof, cluster)
        if regime == "crash+recovery":
            assert prof.aborted  # the crash really restarted a job

    @pytest.mark.parametrize("tie_seed", [1, 7])
    def test_perturbed_schedules(self, matrix_graph, tie_seed, tmp_path):
        cluster, prof = self._run(matrix_graph, "sssp", "drop+dup", 4,
                                  tmp_path, tie_seed=tie_seed)
        _assert_path_tiles_elapsed(prof, cluster)
        assert sum(p.dropped for p in prof.profiles) > 0
        # a retry timer that gated completion is a network hop named for
        # the retried kind, and every retry is an instant in the trace
        hops = [s for p in prof.profiles for s in p.critical_path]
        assert any(s.layer == "network" and s.kind.startswith("retry:")
                   for s in hops)
        instants = [e for e in prof.to_chrome_trace()["traceEvents"]
                    if e.get("cat") == "retry"]
        assert len(instants) == sum(len(p.retries) for p in prof.profiles)


class TestStragglerGauge:
    def test_samples_are_the_last_jobs_shares(self, matrix_graph):
        cluster = PgxdCluster(scaled_cluster_config(8, 1e-3))
        dg = cluster.load_graph(matrix_graph)
        with SpanProfiler(cluster) as prof:
            sssp(cluster, dg, root=0)
            pagerank(cluster, dg, max_iterations=2)
        gauge = cluster.metrics.get("repro_profile_straggler_share")
        samples = {int(key[0]): child.value
                   for key, child in gauge.children()}
        last = prof.last_profile().machine_path_seconds
        total = sum(last.values())
        assert samples == pytest.approx(
            {m: last.get(m, 0.0) / total for m in samples})
        assert sum(samples.values()) == pytest.approx(1.0)


class TestPayForPlay:
    """Audit-style bit-identity: profiler on/off may not change results."""

    @staticmethod
    def _fingerprint(seed, profiled):
        cluster = PgxdCluster(scaled_cluster_config(2, 1e-3))
        dg = cluster.load_graph(rmat(2_000, 20_000, seed=seed))
        if profiled:
            SpanProfiler(cluster).install()
        res = pagerank(cluster, dg, max_iterations=3)
        arr = np.ascontiguousarray(res.values["pr"])
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return digest, cluster.now, res.total_time

    def test_bit_identical_with_profiler_on_and_off(self):
        off = self._fingerprint(11, profiled=False)
        on = self._fingerprint(11, profiled=True)
        assert off == on  # value bytes, final clock, simulated total

    def test_unprofiled_stats_keep_zero_critical_path(self):
        cluster = PgxdCluster(scaled_cluster_config(2, 1e-3))
        dg = cluster.load_graph(rmat(2_000, 20_000, seed=11))
        pagerank(cluster, dg, max_iterations=2)
        assert all(st.critical_path_len == 0.0
                   for _, st in cluster.job_log)


class TestSchedulerAttribution:
    """Two-tenant runs: spans keyed per session, matching dispatch order."""

    @pytest.fixture()
    def server(self):
        cluster = PgxdCluster(scaled_cluster_config(2, 1e-3))
        server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
            max_concurrent_jobs=4))
        server.enable_profiling()
        g = rmat(2_000, 20_000, seed=5)
        gw = with_uniform_weights(rmat(2_000, 20_000, seed=5), seed=6)
        alice = server.create_session("alice")
        alice.load_graph("g", g)
        alice.submit_program("g", pagerank, max_iterations=2)
        bob = server.create_session("bob")
        bob.load_graph("g", gw)
        bob.submit_program("g", sssp, root=0, max_iterations=2)
        server.drain()
        return server

    def test_profiles_match_dispatch_log(self, server):
        prof = server.cluster.profiler
        for session in ("alice", "bob"):
            dispatched = [job for job, _ in
                          server.scheduler.dispatch_log_for(session)]
            profiled = [p.name for p in prof.profiles_for(session)]
            assert profiled == dispatched
            assert all(p.session == session
                       for p in prof.profiles_for(session))

    def test_ticket_stats_carry_critical_path(self, server):
        for t in server.scheduler.tickets:
            assert t.stats is not None
            assert t.stats.critical_path_len > 0

    def test_rollup_covers_both_sessions(self, server):
        rollup = server.profile_rollup()
        assert set(rollup) == {"alice", "bob"}
        for r in rollup.values():
            assert r["jobs"] > 0
            assert r["critical_path_seconds"] > 0

    def test_enable_profiling_idempotent(self, server):
        assert server.enable_profiling() is server.cluster.profiler


class TestExports:
    @pytest.fixture()
    def prof(self):
        cluster, prof = _install()
        _run_relay(cluster)
        return prof

    def test_chrome_trace_shape(self, prof):
        doc = prof.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        assert x and all(e["dur"] >= 0 and "ts" in e for e in x)
        assert {e["cat"] for e in x} == {"span", "network", "critical"}
        assert {e["tid"] for e in x if e["cat"] == "span"} == {
            "worker 0", "worker 1"}
        net = [e for e in x if e["cat"] == "network"]
        assert [e["args"]["bytes"] for e in net] == [64.0, 64.0]
        pids = {e["pid"] for e in events}
        assert 0 in pids and 1 in pids  # one process per machine
        from repro.obs.profiler import _CRIT_PID
        assert _CRIT_PID in pids  # synthetic critical-path track

    def test_save_is_loadable_json(self, prof, tmp_path):
        out = tmp_path / "trace.json"
        prof.save(out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_render_report_mentions_path_and_balance(self, prof):
        text = prof.render_report()
        assert "critical-path segments" in text
        assert "balance:" in text
        assert "total critical path" in text

    def test_summary_is_json_serializable(self, prof):
        doc = json.dumps(prof.last_profile().summary())
        loaded = json.loads(doc)
        assert loaded["critical_path_len"] == pytest.approx(5.0)


class TestJobStatsFields:
    def test_merge_sums_critical_path(self):
        a = JobStats()
        a.critical_path_len = 1.0
        a.critical_path_by_machine = {0: 0.75, 1: 0.25}
        b = JobStats()
        b.critical_path_len = 2.0
        b.critical_path_by_machine = {1: 2.0}
        a.merge_from(b)
        assert a.critical_path_len == pytest.approx(3.0)
        assert a.critical_path_by_machine == pytest.approx(
            {0: 0.75, 1: 2.25})
        assert a.straggler_machine == 1

    def test_straggler_none_when_unprofiled(self):
        assert JobStats().straggler_machine is None

    def test_straggler_tie_breaks_low(self):
        st = JobStats()
        st.critical_path_by_machine = {2: 1.0, 0: 1.0}
        assert st.straggler_machine == 0
