"""The multi-tenant scheduler battery: admission, fairness, determinism,
bit-identity under interleaving, crash recovery, and metric attribution.

The differential tests are the heart: every algorithm program must produce
bit-identical results whether it ran inline on a quiet cluster or in the
background interleaved with other tenants, and a fixed seed must yield a
bit-identical dispatch schedule.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import (ClusterConfig, EdgeMapJob, EdgeMapSpec, FaultPlan,
                   MachineCrash, MachineCrashError, NodeKernelJob,
                   QueueFullError, QuotaExceededError, ReduceOp,
                   SchedulerConfig, SchedulerError, rmat,
                   with_uniform_weights)
from repro.algorithms import pagerank, sssp, wcc
from repro.core.barrier import all_reduce_latency
from repro.core.incremental import IncrementalEngine, hash_weights
from repro.core.scheduler import JobScheduler
from repro.dynamic import DynamicGraph
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


def quiet_run(graph, algorithm, **kwargs):
    """Run one algorithm inline on a quiet cluster; (result, cluster)."""
    cluster = make_cluster(2)
    dg = cluster.load_graph(graph)
    return algorithm(cluster, dg, **kwargs), cluster


def assert_same_result(got, want):
    assert got.iterations == want.iterations
    assert got.values.keys() == want.values.keys()
    for key in want.values:
        assert np.array_equal(got.values[key], want.values[key]), key


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
    """Each program alone vs interleaved with other tenants: bit-identical."""

    def interleaved(self, tenants):
        """Submit every program in the background, one session each on its
        own graph instance; returns {name: ProgramRun} plus the server."""
        server = PgxdServer(make_cluster(2))
        runs = {}
        for name, (graph, algorithm, kwargs) in tenants.items():
            s = server.create_session(name)
            s.load_graph("g", graph)
            runs[name] = s.submit_program("g", algorithm, **kwargs)
        server.drain()
        assert all(run.done for run in runs.values())
        return runs, server

    def tenants(self):
        return {
            "pr_pull": (GRAPHS["a"], pagerank,
                        dict(variant="pull", max_iterations=30,
                             tolerance=1e-3)),
            "pr_push": (GRAPHS["b"], pagerank,
                        dict(variant="push", max_iterations=3)),
            "sssp": (GRAPHS["bw"], sssp, dict(root=0)),
            "wcc": (GRAPHS["b"], wcc, {}),
        }

    def test_programs_bit_identical_alone_vs_interleaved(self):
        tenants = self.tenants()
        runs, server = self.interleaved(tenants)
        for name, (graph, algorithm, kwargs) in tenants.items():
            quiet, _ = quiet_run(graph, algorithm, **kwargs)
            assert_same_result(runs[name].result, quiet)
        # the tolerance, not the cap, ended the pull run
        assert runs["pr_pull"].result.iterations < 30
        # The schedule really interleaved: every pair of sessions overlaps.
        spans = {name: (run.result.stats.start_time,
                        run.result.stats.end_time)
                 for name, run in runs.items()}
        assert all(s1 < e0 and s0 < e1
                   for n0, (s0, e0) in spans.items()
                   for n1, (s1, e1) in spans.items() if n0 < n1)

    def test_two_session_pagerank_sssp_acceptance(self):
        """Two sessions, PageRank + SSSP, interleaved results bit-identical
        to each algorithm running alone."""
        tenants = {"ranker": (GRAPHS["a"], pagerank, dict(max_iterations=4)),
                   "pathfinder": (GRAPHS["bw"], sssp, dict(root=0))}
        runs, _ = self.interleaved(tenants)
        for name, (graph, algorithm, kwargs) in tenants.items():
            assert_same_result(runs[name].result,
                               quiet_run(graph, algorithm, **kwargs)[0])

    @pytest.mark.parametrize("algorithm,graph,kwargs", [
        (pagerank, "a", dict(max_iterations=3, tolerance=1e-3)),
        (sssp, "bw", dict(root=0)),
        (wcc, "b", {}),
    ], ids=["pagerank", "sssp", "wcc"])
    def test_background_program_matches_inline(self, algorithm, graph,
                                                kwargs):
        """Alone in the background, a program ends at the inline run's
        clock with its bits and per-iteration times: a reduction riding a
        job is priced on that job's barrier either way."""
        inline, quiet = quiet_run(GRAPHS[graph], algorithm, **kwargs)
        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS[graph])
        run = sched.submit_program("s", dg, algorithm.program(dg, **kwargs))
        sched.drain()
        assert_same_result(run.result, inline)
        assert run.result.per_iteration == inline.per_iteration
        assert cluster.now == quiet.now
        assert [t.job.name for t in sched.tickets] == [
            t.job.name for t in quiet.scheduler.tickets]

    def test_submit_program_rejects_before_queueing(self):
        """SSSP on an unweighted graph raises at submit: no ticket and no
        column."""
        server = PgxdServer(make_cluster(2))
        s = server.create_session("s")
        dg = s.load_graph("g", GRAPHS["a"])
        with pytest.raises(ValueError, match="edge weights"):
            s.submit_program("g", sssp, root=0)
        assert server.scheduler.queued_count() == 0
        assert server.scheduler.tickets == []
        assert not dg.has_property("dist")
        server.drain()

    def test_sync_job_bit_identical_while_tenants_run(self):
        """An inline (synchronous) job sees the same numbers it would see on
        a quiet cluster, even while a background program is in flight."""
        cluster = make_cluster(2)
        dg = cluster.load_graph(GRAPHS["a"])
        add_xt(dg)
        cluster.run_job(dg, pull_job())
        serial = dg.gather("t")
        server = PgxdServer(make_cluster(2))
        bg = server.create_session("bg")
        fg = server.create_session("fg")
        bg.load_graph("g", GRAPHS["b"])
        bg.submit_program("g", pagerank, max_iterations=3)
        dg_fg = fg.load_graph("g", GRAPHS["a"])
        add_xt(dg_fg)
        fg.run_job("g", pull_job())
        assert np.array_equal(serial, dg_fg.gather("t"))
        server.drain()

    def test_fixed_seed_double_run_identical_dispatch_log(self):
        def run_once():
            return self.interleaved(self.tenants())[1].scheduler.dispatch_log

        # Same config, same graphs, same submission order -> the schedule
        # (dispatch index, simulated time, session, job, priority, wait)
        # must reproduce exactly, including every float.
        assert run_once() == run_once()


class TestFairShare:
    def test_deficits_sum_to_zero_and_flag_balance(self):
        server = PgxdServer(make_cluster(2))
        for i, gname in enumerate(("a", "b")):
            s = server.create_session(f"t{i}")
            s.load_graph("g", GRAPHS[gname])
            s.submit_program("g", pagerank, max_iterations=3)
        server.drain()
        deficits = server.deficits()
        assert set(deficits) == {"t0", "t1"}
        assert sum(deficits.values()) == pytest.approx(0.0, abs=1e-15)
        assert server.over_fair_share() == []

    def test_skewed_trace_flags_hog(self):
        server = PgxdServer(make_cluster(2))
        hog = server.create_session("hog")
        meek = server.create_session("meek")
        hog.load_graph("g", GRAPHS["a"])
        meek.load_graph("g", GRAPHS["b"])
        hog.submit_program("g", pagerank, max_iterations=8)
        meek.submit_program("g", pagerank, max_iterations=1)
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
        bg.load_graph("g", GRAPHS["a"])
        bg.submit_program("g", pagerank, max_iterations=2)
        dg_fg = fg.load_graph("g", GRAPHS["b"])
        add_xt(dg_fg)
        fg.run_job("g", pull_job())
        # The sync call advanced the clock; background jobs made progress
        # in the same window (at least one dispatched alongside).
        sessions = [r[2] for r in server.scheduler.dispatch_log]
        assert "fg" in sessions and "bg" in sessions
        server.drain()
        assert server.scheduler.queued_count() == 0
        assert server.usage_report()["bg"].jobs_run == 5

    def test_session_accounting_exact_under_interleaving(self):
        server = PgxdServer(make_cluster(2))
        tenants = {}
        for name, gname, iters in (("t0", "a", 2), ("t1", "b", 3)):
            s = server.create_session(name)
            s.load_graph("g", GRAPHS[gname])
            s.submit_program("g", pagerank, max_iterations=iters)
            tenants[name] = iters
        server.drain()
        rollup = server.metrics_rollup()
        for name, iters in tenants.items():
            usage = server.usage_report()[name]
            # a PageRank iteration is two regions, plus the first prepare
            assert usage.jobs_run == 2 * iters + 1
            assert usage.simulated_seconds > 0
            # One end-of-region barrier per job, attributed causally.
            assert rollup[name]["repro_barriers_total"] == 2 * iters + 1
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
            s.load_graph("g", GRAPHS[gname])
            s.submit_program("g", pagerank, max_iterations=1)
        server.drain()
        flat = server.cluster.metrics.counters_flat()
        for name in ("t0", "t1"):
            assert flat[f'repro_sched_wait_seconds_count{{session="{name}"}}'] == 3
            assert flat[f'repro_sched_turnaround_seconds_count{{session="{name}"}}'] == 3
            assert flat[f'repro_sched_turnaround_seconds_sum{{session="{name}"}}'] > 0

    def test_finished_tickets_pin_no_superseded_epoch(self):
        """Mutations and served reads through the server leave only the
        current epoch's graph alive, with the collector off: finished
        tickets drop their graph, program and read thunk, and a finished
        execution keeps no reference cycle, so a superseded epoch is freed
        when its last user lets go, not whenever a collection runs."""
        g = GRAPHS["a"]
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.out_starts))
        dyn = DynamicGraph(g.num_nodes,
                           list(zip(src.tolist(), g.out_nbrs.tolist())))
        server = PgxdServer(make_cluster(2))
        server.enable_cache()
        engine = IncrementalEngine(server.cluster, dyn,
                                   weight_fn=hash_weights(seed=3))
        sess = server.create_session("reader")
        epochs = []
        gc.disable()
        try:
            for i in range(4):
                if i:
                    dyn.add_edge(i, 2 * i + 1)
                    engine.mutate(session="mutator")
                dg = sess.attach_graph("g", engine.pin())
                epochs.append(weakref.ref(dg))
                sess.query("g").where("out_degree", ">=", 2).count()
                sess.query("g").order_by("in_degree").limit(3).execute()
                sess.submit_program("g", pagerank, max_iterations=1)
                server.drain()
                engine.sssp()
            del dg
            alive = [ref() is not None for ref in epochs]
        finally:
            gc.enable()
        assert alive == [False] * 3 + [True]
        assert all(t.state == "done" for t in server.scheduler.tickets)


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
        run = sched.submit_program("a", dg, pagerank.program(
            dg, max_iterations=3))
        sched.drain()
        return run.result.values["pr"], cluster.now, sched.dispatch_log

    def test_crash_with_queued_jobs_recovers_without_reordering(self, tmp_path):
        base_pr, t_end, base_log = self.baseline()
        cluster = crashy_cluster(crash_at=0.4 * t_end)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS["a"])
        run = sched.submit_program("a", dg, pagerank.program(
            dg, max_iterations=3))
        cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
        sched.drain()
        # Results bit-identical to the crash-free run: the checkpoint
        # rewound exactly to the failed job's start.
        assert np.array_equal(base_pr, run.result.values["pr"])
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

    def test_recovery_keeps_pending_program_steps(self, tmp_path):
        """Two programs share the checkpointed graph, so while one's job
        runs the other waits on a queued ticket.  A crash while the
        ranker's ticket waits, or while its L1-delta reduction rides a
        region's closing all-reduce, recovers, and each program still
        matches its quiet run: the rerun region reduces the restored
        columns afresh."""
        programs = {"ranker": (pagerank, dict(max_iterations=3)),
                    "pathfinder": (sssp, dict(root=0))}

        def run(crash_at):
            cluster = crashy_cluster(crash_at)
            sched = JobScheduler(cluster)
            dg = cluster.load_graph(GRAPHS["bw"])
            runs = {name: sched.submit_program(name, dg,
                                               algo.program(dg, **kw))
                    for name, (algo, kw) in programs.items()}
            recovered = []
            cluster.hooks.subscribe("job.recover", lambda p: recovered.append(
                (p["job"], [t for t in sched.tickets
                            if t.session == "ranker"][-1].state)))
            cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
            sched.drain()
            for name, (algo, kw) in programs.items():
                assert_same_result(runs[name].result,
                                   quiet_run(GRAPHS["bw"], algo, **kw)[0])
            return sched, recovered

        base, _ = run(crash_at=1.0)  # past the end: never fires
        latency = all_reduce_latency(2, base.cluster.config.network)

        def pathfinder_runs(t):
            return any(u.session == "pathfinder"
                       and u.dispatch_time < t < u.finish_time
                       for u in base.tickets)

        ranker = [t for t in base.tickets if t.session == "ranker"]
        reducing = next(  # mid-way through the delta's all-reduce
            t.finish_time - latency / 2 for t in ranker
            if t.job.name == "pr_finalize_prepare")
        queued = next((t.submit_time + t.dispatch_time) / 2 for t in ranker
                      if pathfinder_runs((t.submit_time + t.dispatch_time)
                                         / 2))
        assert run(reducing)[1] == [("pr_finalize_prepare", "queued")]
        assert [state for _, state in run(queued)[1]] == ["queued"]

    def test_crash_without_recovery_propagates(self):
        _, t_end, _ = self.baseline()
        cluster = crashy_cluster(crash_at=0.4 * t_end)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPHS["a"])
        sched.submit_program("a", dg, pagerank.program(dg, max_iterations=3))
        with pytest.raises(MachineCrashError):
            sched.drain()
        # the program whose job crashed was closed: its columns are gone
        assert not any(dg.has_property(p) for p in ("pr", "pr_tmp", "pr_nxt"))

    def test_retry_dedup_metrics_attributed_to_sessions(self):
        cfg = (ClusterConfig(num_machines=2)
               .with_engine(ghost_threshold=40, chunk_size=256,
                            num_workers=4, num_copiers=2)
               .with_fault_plan(FaultPlan(seed=11, drop_prob=0.05,
                                          dup_prob=0.05)))
        from repro import PgxdCluster
        server = PgxdServer(PgxdCluster(cfg))
        runs = {}
        for name, gname in (("t0", "a"), ("t1", "b")):
            s = server.create_session(name)
            s.load_graph("g", GRAPHS[gname])
            runs[name] = s.submit_program("g", pagerank, variant="push",
                                          max_iterations=2)
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
            quiet, _ = quiet_run(GRAPHS[gname], pagerank, variant="push",
                                 max_iterations=2)
            assert_same_result(runs[name].result, quiet)


class TestSchedulerObservability:
    def drained_server(self):
        server = PgxdServer(make_cluster(2))
        for name, gname in (("t0", "a"), ("t1", "b")):
            s = server.create_session(name)
            s.load_graph("g", GRAPHS[gname])
            s.submit_program("g", pagerank, max_iterations=1)
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

    def test_chunks_attributed_to_job_and_session(self):
        """A job's chunks and phases land in its own ticket's
        ``JobStats``; its lifecycle events carry the session and ticket
        tags."""
        server = PgxdServer(make_cluster(2))
        s = server.create_session("tagged")
        dg = s.load_graph("g", GRAPHS["a"])
        add_xt(dg)
        seen = []
        server.cluster.hooks.subscribe("job.end", seen.append)
        s.submit_job("g", pull_job("tagjob"))
        server.drain()
        (ticket,) = [t for t in server.scheduler.tickets
                     if t.session == "tagged"]
        assert ticket.job.name == "tagjob" and ticket.stats.chunks
        assert [lane for _, _, lane, kind, _, _ in ticket.stats.spans
                if kind == "phase"] == ["presync", "main", "postsync",
                                        "barrier"]
        assert seen
        assert all(p["job"] == "tagjob" for p in seen)
        assert all(p["session"] == "tagged" for p in seen)
        assert all(p["ticket"] == ticket.seq for p in seen)
