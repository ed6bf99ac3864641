"""The multi-tenant scheduler battery: admission, fairness, determinism,
bit-identity under interleaving, crash recovery, and metric attribution.

The differential tests are the heart: every stream must produce bit-identical
numeric results whether it ran alone on a quiet cluster or interleaved with
other tenants, and a fixed seed must yield a bit-identical dispatch schedule.
"""

import numpy as np
import pytest

from repro import (ClusterConfig, EdgeMapJob, EdgeMapSpec, FaultPlan,
                   MachineCrash, MachineCrashError, NodeKernelJob,
                   QueueFullError, QuotaExceededError, ReduceOp,
                   SchedulerConfig, SchedulerError, rmat,
                   with_uniform_weights)
from repro.algorithms.streams import pagerank_stream, sssp_stream
from repro.core.scheduler import JobScheduler
from repro.server import PgxdServer
from tests.conftest import make_cluster


def pull_job(name="j", source="x", target="t"):
    return EdgeMapJob(name=name, spec=EdgeMapSpec(
        direction="pull", source=source, target=target, op=ReduceOp.SUM))


def add_xt(dg):
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)


GRAPHS = {
    "a": rmat(260, 1500, seed=21),
    "b": rmat(200, 1100, seed=22),
    "bw": with_uniform_weights(rmat(200, 1100, seed=22), 0.1, 1.0, seed=23),
}


def serial_stream(graph, build):
    """Run one stream alone on a quiet cluster; return (prop array, cluster)."""
    cluster = make_cluster(2)
    dg = cluster.load_graph(graph)
    jobs, prop = build(dg)
    for job in jobs:
        cluster.run_job(dg, job)
    return dg.gather(prop), cluster


class TestAdmission:
    def test_submit_returns_queued_ticket(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        ticket = sched.submit("s1", dg, pull_job())
        assert ticket.state == "queued"
        assert ticket.session == "s1"
        assert sched.queued_count() == 1
        assert sched.queued_count("s1") == 1
        assert sched.queued_count("other") == 0

    def test_per_session_quota_raises_typed_error(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(
            max_queued_per_session=2))
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        sched.submit("s1", dg, pull_job("j1"))
        sched.submit("s1", dg, pull_job("j2"))
        with pytest.raises(QuotaExceededError) as ei:
            sched.submit("s1", dg, pull_job("j3"))
        assert ei.value.session == "s1"
        assert ei.value.reason == "quota"
        # Other sessions are unaffected by one session's quota.
        sched.submit("s2", dg, pull_job("j1"))
        assert sched.queued_count() == 3

    def test_global_queue_depth_raises_typed_error(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(
            max_queue_depth=3, max_queued_per_session=3))
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        for i in range(3):
            sched.submit(f"s{i}", dg, pull_job())
        with pytest.raises(QueueFullError) as ei:
            sched.submit("s9", dg, pull_job())
        assert ei.value.reason == "queue_full"
        # The rejected submit left no trace in the queues.
        assert sched.queued_count() == 3

    def test_rejections_are_counted_by_reason(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(
            max_queued_per_session=1, max_queue_depth=2))
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        sched.submit("s1", dg, pull_job())
        with pytest.raises(QuotaExceededError):
            sched.submit("s1", dg, pull_job())
        sched.submit("s2", dg, pull_job())
        with pytest.raises(QueueFullError):
            sched.submit("s3", dg, pull_job())
        flat = cluster.metrics.counters_flat()
        assert flat['repro_sched_rejected_total{reason="quota"}'] == 1
        assert flat['repro_sched_rejected_total{reason="queue_full"}'] == 1

    def test_unknown_priority_rejected(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        with pytest.raises(SchedulerError):
            sched.submit("s1", dg, pull_job(), priority="urgent")

    def test_high_priority_dispatches_first(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(max_concurrent_jobs=1))
        dg1 = cluster.load_graph(small_rmat)
        dg2 = cluster.load_graph(small_rmat)
        for dg in (dg1, dg2):
            add_xt(dg)
        sched.submit("low", dg1, pull_job("lo"), priority="normal")
        sched.submit("hi", dg2, pull_job("hi"), priority="high")
        sched.drain()
        assert [r[2] for r in sched.dispatch_log] == ["hi", "low"]

    def test_second_scheduler_on_cluster_rejected(self, small_rmat):
        cluster = make_cluster(2)
        JobScheduler(cluster)
        with pytest.raises(SchedulerError):
            JobScheduler(cluster)


class TestDifferentialBitIdentity:
    """Each stream alone vs interleaved with other tenants: bit-identical."""

    def interleaved(self, builders):
        """Run all streams concurrently, one session per stream, each on its
        own graph instance; returns {name: prop array} plus the server."""
        server = PgxdServer(make_cluster(2))
        out = {}
        for name, (graph, build) in builders.items():
            s = server.create_session(name)
            dg = s.load_graph("g", graph)
            jobs, prop = build(dg)
            s.submit_jobs("g", jobs)
            out[name] = (dg, prop)
        server.drain()
        return {name: dg.gather(prop)
                for name, (dg, prop) in out.items()}, server

    def builders(self):
        return {
            "pr_pull": (GRAPHS["a"], lambda dg: (
                pagerank_stream(dg, iterations=3, variant="pull"), "pr")),
            "pr_push": (GRAPHS["b"], lambda dg: (
                pagerank_stream(dg, iterations=3, variant="push"), "pr")),
            "sssp": (GRAPHS["bw"], lambda dg: (
                sssp_stream(dg, root=0, rounds=4), "dist")),
        }

    def test_streams_bit_identical_alone_vs_interleaved(self):
        builders = self.builders()
        serial = {name: serial_stream(graph, build)[0]
                  for name, (graph, build) in builders.items()}
        inter, server = self.interleaved(builders)
        for name in builders:
            assert np.array_equal(serial[name], inter[name]), name
        # The schedule really interleaved: some cross-session overlap.
        spans = [(t.session, t.stats.start_time, t.stats.end_time)
                 for t in server.scheduler.tickets]
        assert any(
            s1 < e0 and s0 < e1
            for i, (n0, s0, e0) in enumerate(spans)
            for (n1, s1, e1) in spans[i + 1:] if n0 != n1)

    def test_two_session_pagerank_sssp_acceptance(self):
        """ISSUE acceptance: two sessions, PageRank + SSSP, interleaved
        results bit-identical to each algorithm running alone."""
        builders = {
            "ranker": (GRAPHS["a"], lambda dg: (
                pagerank_stream(dg, iterations=4, variant="pull"), "pr")),
            "pathfinder": (GRAPHS["bw"], lambda dg: (
                sssp_stream(dg, root=0, rounds=5), "dist")),
        }
        serial = {name: serial_stream(graph, build)[0]
                  for name, (graph, build) in builders.items()}
        inter, _ = self.interleaved(builders)
        assert np.array_equal(serial["ranker"], inter["ranker"])
        assert np.array_equal(serial["pathfinder"], inter["pathfinder"])

    def test_sync_job_bit_identical_while_tenants_run(self):
        """An inline (synchronous) job sees the same numbers it would see on
        a quiet cluster, even while a background stream is in flight."""
        def one_pull(dg):
            add_xt(dg)
            return [pull_job()], "t"

        serial, _ = serial_stream(GRAPHS["a"], one_pull)
        server = PgxdServer(make_cluster(2))
        bg = server.create_session("bg")
        fg = server.create_session("fg")
        dg_bg = bg.load_graph("g", GRAPHS["b"])
        bg.submit_jobs("g", pagerank_stream(dg_bg, iterations=3))
        dg_fg = fg.load_graph("g", GRAPHS["a"])
        add_xt(dg_fg)
        fg.run_job("g", pull_job())
        assert np.array_equal(serial, dg_fg.gather("t"))
        server.drain()

    def test_fixed_seed_double_run_identical_dispatch_log(self):
        def run_once():
            server = PgxdServer(make_cluster(2))
            for name, (graph, build) in self.builders().items():
                s = server.create_session(name)
                dg = s.load_graph("g", graph)
                jobs, _ = build(dg)
                s.submit_jobs("g", jobs)
            server.drain()
            return server.scheduler.dispatch_log

        # Same config, same graphs, same submission order -> the schedule
        # (dispatch index, simulated time, session, job, priority, wait)
        # must reproduce exactly, including every float.
        assert run_once() == run_once()


class TestFairShare:
    def test_deficits_sum_to_zero_and_flag_balance(self):
        server = PgxdServer(make_cluster(2), fair_share_window=1.5)
        for i, gname in enumerate(("a", "b")):
            s = server.create_session(f"t{i}")
            dg = s.load_graph("g", GRAPHS[gname])
            s.submit_jobs("g", pagerank_stream(dg, iterations=3))
        server.drain()
        deficits = server.deficits()
        assert set(deficits) == {"t0", "t1"}
        assert sum(deficits.values()) == pytest.approx(0.0, abs=1e-15)
        assert server.over_fair_share() == []

    def test_skewed_trace_flags_hog(self):
        server = PgxdServer(make_cluster(2), fair_share_window=1.5)
        hog = server.create_session("hog")
        meek = server.create_session("meek")
        dgh = hog.load_graph("g", GRAPHS["a"])
        dgm = meek.load_graph("g", GRAPHS["b"])
        hog.submit_jobs("g", pagerank_stream(dgh, iterations=8))
        meek.submit_jobs("g", pagerank_stream(dgm, iterations=1))
        server.drain()
        assert server.over_fair_share() == ["hog"]
        # The hog over-consumed: its deficit is negative, the meek's positive.
        assert server.deficits()["hog"] < 0 < server.deficits()["meek"]

    def test_least_served_session_dispatches_next_with_preempt_event(
            self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(max_concurrent_jobs=1))
        preempts = []
        cluster.hooks.subscribe("sched.preempt", preempts.append)
        dg1 = cluster.load_graph(small_rmat)
        dg2 = cluster.load_graph(small_rmat)
        for dg in (dg1, dg2):
            add_xt(dg)
        # "first" enqueues both its jobs before "second" enqueues any, so
        # after first's opening job consumes service, fair share hands the
        # slot to second and records the head-of-line skip.
        sched.submit("first", dg1, pull_job("f1"))
        sched.submit("first", dg1, pull_job("f2"))
        sched.submit("second", dg2, pull_job("s1"))
        sched.drain()
        assert [r[2] for r in sched.dispatch_log] == [
            "first", "second", "first"]
        assert [(p["session"], p["by"]) for p in preempts] == [
            ("first", "second")]
        flat = cluster.metrics.counters_flat()
        assert flat['repro_sched_preemptions_total{session="first"}'] == 1

    def test_weights_bias_the_share(self, small_rmat):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster, SchedulerConfig(max_concurrent_jobs=1),
                             weights={"vip": 4.0})
        dg1 = cluster.load_graph(small_rmat)
        dg2 = cluster.load_graph(small_rmat)
        for dg in (dg1, dg2):
            add_xt(dg)
        for i in range(3):
            sched.submit("vip", dg1, pull_job(f"v{i}"))
            sched.submit("std", dg2, pull_job(f"s{i}"))
        sched.drain()
        order = [r[2] for r in sched.dispatch_log]
        # A 4x weight lets the vip run several jobs per std turn; with equal
        # weights the order would strictly alternate after the first pair.
        assert order != ["vip", "std", "vip", "std", "vip", "std"]
        assert order.count("vip") == 3 and order.count("std") == 3


class TestServerIntegration:
    def test_sync_and_background_share_the_event_loop(self):
        server = PgxdServer(make_cluster(2))
        bg = server.create_session("bg")
        fg = server.create_session("fg")
        dg_bg = bg.load_graph("g", GRAPHS["a"])
        bg.submit_jobs("g", pagerank_stream(dg_bg, iterations=2))
        dg_fg = fg.load_graph("g", GRAPHS["b"])
        add_xt(dg_fg)
        fg.run_job("g", pull_job())
        # The sync call advanced the clock; background jobs made progress
        # in the same window (at least one dispatched alongside).
        sessions = [r[2] for r in server.scheduler.dispatch_log]
        assert "fg" in sessions and "bg" in sessions
        server.drain()
        assert server.scheduler.queued_count() == 0
        assert server.usage_report()["bg"].jobs_run == 6

    def test_session_accounting_exact_under_interleaving(self):
        server = PgxdServer(make_cluster(2))
        tenants = {}
        for name, gname, iters in (("t0", "a", 2), ("t1", "b", 3)):
            s = server.create_session(name)
            dg = s.load_graph("g", GRAPHS[gname])
            s.submit_jobs("g", pagerank_stream(dg, iterations=iters))
            tenants[name] = iters
        server.drain()
        rollup = server.metrics_rollup()
        for name, iters in tenants.items():
            usage = server.usage_report()[name]
            assert usage.jobs_run == 3 * iters
            assert usage.simulated_seconds > 0
            # One end-of-region barrier per job, attributed causally.
            assert rollup[name]["repro_barriers_total"] == 3 * iters
        total = sum(r["repro_barriers_total"] for r in rollup.values())
        assert total == server.cluster.metrics.counters_flat()[
            "repro_barriers_total"]

    def test_closed_session_jobs_still_run(self):
        server = PgxdServer(make_cluster(2))
        s = server.create_session("ephemeral")
        dg = s.load_graph("g", GRAPHS["a"])
        add_xt(dg)
        s.submit_job("g", pull_job())
        server.close_session("ephemeral")
        server.drain()  # completion must not KeyError on the gone session
        assert server.scheduler.queued_count() == 0

    def test_wait_and_turnaround_histograms_per_session(self):
        server = PgxdServer(make_cluster(2), scheduler_config=SchedulerConfig(
            max_concurrent_jobs=1))
        for name, gname in (("t0", "a"), ("t1", "b")):
            s = server.create_session(name)
            dg = s.load_graph("g", GRAPHS[gname])
            s.submit_jobs("g", pagerank_stream(dg, iterations=1))
        server.drain()
        flat = server.cluster.metrics.counters_flat()
        for name in ("t0", "t1"):
            assert flat[f'repro_sched_wait_seconds_count{{session="{name}"}}'] == 3
            assert flat[f'repro_sched_turnaround_seconds_count{{session="{name}"}}'] == 3
            assert flat[f'repro_sched_turnaround_seconds_sum{{session="{name}"}}'] > 0


def crashy_cluster(crash_at, machine=1, seed=5):
    cfg = (ClusterConfig(num_machines=2)
           .with_engine(ghost_threshold=40, chunk_size=256, num_workers=4,
                        num_copiers=2)
           .with_fault_plan(FaultPlan(seed=seed, crashes=(
               MachineCrash(machine=machine, at=crash_at),))))
    from repro import PgxdCluster
    return PgxdCluster(cfg)


class TestSchedulerFaults:
    def baseline(self):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS["a"])
        jobs = pagerank_stream(dg, iterations=3)
        sched.submit_many("a", dg, jobs)
        sched.drain()
        return dg.gather("pr"), cluster.now, sched.dispatch_log

    def test_crash_with_queued_jobs_recovers_without_reordering(self, tmp_path):
        base_pr, t_end, base_log = self.baseline()
        cluster = crashy_cluster(crash_at=0.4 * t_end)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS["a"])
        cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz", every=1,
                                       recover=True)
        jobs = pagerank_stream(dg, iterations=3)
        sched.submit_many("a", dg, jobs)
        sched.drain()
        # Results bit-identical to the crash-free run: the checkpoint
        # rewound exactly to the failed job's start.
        assert np.array_equal(base_pr, dg.gather("pr"))
        flat = cluster.metrics.counters_flat()
        assert flat["repro_job_recoveries_total"] >= 1
        # The admission queue was never corrupted or reordered: the job
        # sequence is the baseline's with the crashed job re-dispatched.
        names = [r[3] for r in sched.dispatch_log]
        base_names = [r[3] for r in base_log]
        dedup = [n for i, n in enumerate(names) if i == 0 or names[i - 1] != n]
        assert dedup == base_names
        assert len(names) == len(base_names) + int(
            flat["repro_job_recoveries_total"])

    def test_crash_without_recovery_propagates(self):
        _, t_end, _ = self.baseline()
        cluster = crashy_cluster(crash_at=0.4 * t_end)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS["a"])
        sched.submit_many("a", dg, pagerank_stream(dg, iterations=3))
        with pytest.raises(MachineCrashError):
            sched.drain()

    def test_retry_dedup_metrics_attributed_to_sessions(self):
        cfg = (ClusterConfig(num_machines=2)
               .with_engine(ghost_threshold=40, chunk_size=256,
                            num_workers=4, num_copiers=2)
               .with_fault_plan(FaultPlan(seed=11, drop_prob=0.05,
                                          dup_prob=0.05)))
        from repro import PgxdCluster
        server = PgxdServer(PgxdCluster(cfg))
        arrays = {}
        for name, gname in (("t0", "a"), ("t1", "b")):
            s = server.create_session(name)
            dg = s.load_graph("g", GRAPHS[gname])
            s.submit_jobs("g", pagerank_stream(dg, iterations=2,
                                               variant="push"))
            arrays[name] = dg
        server.drain()
        flat = server.cluster.metrics.counters_flat()
        rollup = server.metrics_rollup()
        for family in ("repro_retries_total", "repro_dedup_drops_total"):
            cluster_total = sum(v for k, v in flat.items()
                                if k.startswith(family))
            session_total = sum(v for r in rollup.values()
                                for k, v in r.items()
                                if k.startswith(family))
            assert cluster_total > 0, family
            # Causal scoping: the per-session slices account for every
            # retry/dedup the cluster saw — none is lost or double-counted.
            assert session_total == cluster_total, family
        # Faults did not disturb the numbers (push PageRank, exactly-once).
        for name, gname in (("t0", "a"), ("t1", "b")):
            serial, _ = serial_stream(GRAPHS[gname], lambda dg: (
                pagerank_stream(dg, iterations=2, variant="push"), "pr"))
            assert np.array_equal(serial, arrays[name].gather("pr")), name


class TestSchedulerObservability:
    def drained_server(self):
        server = PgxdServer(make_cluster(2))
        for name, gname in (("t0", "a"), ("t1", "b")):
            s = server.create_session(name)
            dg = s.load_graph("g", GRAPHS[gname])
            s.submit_jobs("g", pagerank_stream(dg, iterations=1))
        server.drain()
        return server

    def test_sched_metrics_in_prometheus_export(self):
        from repro.obs import to_prometheus

        server = self.drained_server()
        text = to_prometheus(server.cluster.metrics)
        assert 'repro_sched_admitted_total{priority="normal"} 6' in text
        assert 'repro_sched_dispatched_total{priority="normal"} 6' in text
        assert 'repro_sched_completed_total{session="t0"} 3' in text
        assert 'repro_sched_queue_depth{priority="normal"} 0' in text
        assert 'repro_sched_wait_seconds_bucket' in text
        assert 'repro_sched_turnaround_seconds_count{session="t1"} 3' in text

    def test_sched_metrics_in_json_export(self):
        import json

        from repro.obs import to_json

        server = self.drained_server()
        snap = json.loads(to_json(server.cluster.metrics))["metrics"]
        assert snap["repro_sched_admitted_total"]["samples"]
        assert snap["repro_sched_queue_depth"]["labels"] == ["priority"]
        waits = snap["repro_sched_wait_seconds"]["samples"]
        assert {s["labels"]["session"] for s in waits} == {"t0", "t1"}

    def test_sched_summary_in_report(self):
        from repro.obs.report import render_overhead_report, scheduler_summary

        server = self.drained_server()
        ss = scheduler_summary(server.cluster.metrics)
        assert ss["admitted"] == ss["dispatched"] == ss["completed"] == 6
        assert ss["rejected"] == 0
        assert ss["turnaround_seconds"] > 0
        text = render_overhead_report(server.cluster.metrics)
        assert "scheduler: 6 admitted" in text

    def test_solo_job_counts_in_scheduler_line(self, small_rmat):
        from repro.obs.report import render_overhead_report

        cluster = make_cluster(2)
        dg = cluster.load_graph(small_rmat)
        add_xt(dg)
        cluster.run_job(dg, pull_job())
        (line,) = [ln for ln in render_overhead_report(
            cluster.metrics).splitlines() if "scheduler:" in ln]
        assert line.split("scheduler: ", 1)[1].startswith(
            "0 admitted; 0 rejected; 1 dispatched; 0 preemptions; "
            "1 completed")

    def test_chunk_events_tagged_with_job_and_session(self):
        server = PgxdServer(make_cluster(2))
        s = server.create_session("tagged")
        dg = s.load_graph("g", GRAPHS["a"])
        add_xt(dg)
        seen = []
        server.cluster.hooks.subscribe("task.chunk_end", seen.append)
        s.submit_job("g", pull_job("tagjob"))
        server.drain()
        assert seen
        assert all(p["job"] == "tagjob" for p in seen)
        assert all(p["session"] == "tagged" for p in seen)
        assert all(isinstance(p["ticket"], int) for p in seen)
