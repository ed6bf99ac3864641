"""Engine-wide telemetry: hooks fire, the registry fills, reports render."""

from collections import Counter

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, FaultPlan, ReduceOp, rmat
from repro.algorithms import pagerank
from repro.obs import KNOWN_HOOKS
from repro.obs.report import (ghost_hit_rate, overhead_breakdown,
                              render_overhead_report, traffic_by_kind)
from repro.server import PgxdServer
from tests.conftest import make_cluster


def pull_job(name="j", source="x", target="t"):
    return EdgeMapJob(name=name, spec=EdgeMapSpec(
        direction="pull", source=source, target=target, op=ReduceOp.SUM))


@pytest.fixture
def ran(small_rmat):
    cluster = make_cluster(3, 30)
    dg = cluster.load_graph(small_rmat)
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    stats = cluster.run_job(dg, pull_job())
    return cluster, dg, stats


class TestRecorder:
    def test_job_populates_registry(self, ran):
        cluster, _, _ = ran
        flat = cluster.metrics.counters_flat()
        assert flat["repro_jobs_total{kind=\"EdgeMapJob\"}"] == 1
        assert flat["repro_barriers_total"] == 1
        assert any(k.startswith("repro_chunks_total") for k in flat)
        assert any(k.startswith("repro_worker_busy_seconds_total") for k in flat)
        assert any(k.startswith("repro_net_bytes_total") for k in flat)

    def test_phase_seconds_cover_all_phases(self, ran):
        cluster, _, _ = ran
        m = cluster.metrics.get("repro_job_phases_total")
        phases = {key[0] for key, _ in m.children()}
        assert phases == {"presync", "main", "postsync", "barrier"}

    def test_ghost_hits_recorded_on_vector_path(self, ran):
        cluster, _, _ = ran
        hits, misses = ghost_hit_rate(cluster.metrics)
        assert hits > 0 and misses > 0

    def test_ghost_hits_recorded_on_scalar_path(self, small_rmat):
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        cluster.run_job(dg, pull_job().as_task_job())
        hits, misses = ghost_hit_rate(cluster.metrics)
        assert hits > 0 and misses > 0

    def test_worker_busy_matches_stats(self, ran):
        cluster, _, stats = ran
        busy_from_stats = sum(
            e - s
            for ws in stats.busy_intervals.values()
            for ivs in ws.values()
            for s, e in ivs)
        m = cluster.metrics.get("repro_worker_busy_seconds_total")
        busy_from_metrics = sum(c.value for _, c in m.children())
        assert busy_from_metrics == pytest.approx(busy_from_stats)
        assert busy_from_metrics == pytest.approx(
            sum(duration for *_, duration in stats.chunks))

    def test_metrics_do_not_change_results_or_times(self, small_rmat):
        """The always-on recorder observes; it must never perturb the sim."""
        def run(extra_observer):
            cluster = make_cluster(3, 30)
            if extra_observer:
                for name in KNOWN_HOOKS:
                    cluster.hooks.subscribe(name, lambda p: None)
            dg = cluster.load_graph(small_rmat)
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
            stats = cluster.run_job(dg, pull_job())
            return dg.gather("t"), stats.elapsed

        (v1, t1), (v2, t2) = run(True), run(False)
        assert np.array_equal(v1, v2)
        assert t1 == t2

    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_queue_depth_gauge_drains_after_every_job(self, direction):
        cluster = make_cluster(4)
        dg = cluster.load_graph(rmat(2000, 16000, seed=11))
        pagerank(cluster, dg, direction, max_iterations=2)
        gauge = cluster.metrics.get("repro_comm_queue_depth")
        assert {key: child.value for key, child in gauge.children()} == {
            (str(m),): 0.0 for m in range(4)}
        # one depth sample per request, taken at enqueue
        requests = cluster.metrics.get("repro_comm_requests_total")
        samples = cluster.metrics.get("repro_comm_queue_depth_samples")
        assert samples.count == sum(c.value for _, c in requests.children())
        assert samples.sum > 0

    def test_two_clusters_have_disjoint_registries(self, small_rmat):
        c1, c2 = make_cluster(2, 30), make_cluster(2, 30)
        dg = c1.load_graph(small_rmat)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        c1.run_job(dg, pull_job())
        assert c1.metrics.counters_flat()
        assert not c2.metrics.delta_since({})  # untouched cluster stays empty


class TestJobDeltas:
    def test_job_stats_carry_metrics_delta(self, ran):
        _, _, stats = ran
        assert stats.metrics_delta
        assert stats.metrics_delta["repro_barriers_total"] == 1

    def test_deltas_isolate_consecutive_jobs(self, ran):
        cluster, dg, first = ran
        second = cluster.run_job(dg, pull_job(name="j2"))
        assert second.metrics_delta["repro_jobs_total{kind=\"EdgeMapJob\"}"] == 1
        # cumulative registry shows both jobs, each delta only its own
        flat = cluster.metrics.counters_flat()
        assert flat["repro_jobs_total{kind=\"EdgeMapJob\"}"] == 2

    def test_merged_stats_sum_deltas(self, ran):
        cluster, dg, _ = ran
        merged = cluster.run_jobs(dg, [pull_job(name="a"), pull_job(name="b")])
        assert merged.metrics_delta["repro_barriers_total"] == 2


class TestReport:
    def test_breakdown_layers_positive(self, ran):
        cluster, _, _ = ran
        bd = overhead_breakdown(cluster.metrics)
        assert bd.task > 0 and bd.comm > 0 and bd.network > 0
        assert bd.total > 0
        assert sum(frac for _, _, frac in bd.rows()) == pytest.approx(1.0)

    def test_traffic_by_kind(self, ran):
        cluster, _, stats = ran
        traffic = traffic_by_kind(cluster.metrics)
        assert traffic.get("read_req", 0) > 0
        assert sum(traffic.values()) == pytest.approx(stats.total_bytes)

    @pytest.mark.parametrize("plan", [
        None, FaultPlan(seed=3, drop_prob=0.05, dup_prob=0.1)],
        ids=["clean", "drop+dup"])
    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_traffic_by_kind_equals_job_stats(self, small_rmat, direction,
                                              plan):
        """The fabric's traffic has one count, each job's own
        ``bytes_by_kind`` taken as its frames form: the registry's per-kind
        bytes are its fold, and both equal the bytes handed to
        ``Network.send`` for another machine, resends included and a
        duplicate counted once."""
        cluster = make_cluster(fault_plan=plan)
        sent = Counter()
        send = cluster.network.send

        def counting_send(src, dst, nbytes, *args, kind="data", **kw):
            if src != dst:
                sent[kind] += nbytes
            send(src, dst, nbytes, *args, kind=kind, **kw)

        cluster.network.send = counting_send
        dg = cluster.load_graph(small_rmat)
        pagerank(cluster, dg, direction, max_iterations=3, tolerance=0.0)
        summed = Counter()
        for _, stats in cluster.job_log:
            summed.update(stats.bytes_by_kind)
        traffic = traffic_by_kind(cluster.metrics)
        assert traffic == {kind: b for kind, b in summed.items() if b}
        assert traffic == dict(sent)
        assert traffic["read_req" if direction == "pull" else "write_req"] > 0

    def test_render_contains_all_layers(self, ran):
        cluster, _, _ = ran
        text = render_overhead_report(cluster.metrics, title="test",
                                      elapsed=cluster.now)
        for token in ("task", "comm", "network", "ghost", "barrier",
                      "total", "fabric traffic", "jobs:"):
            assert token in text

    def test_render_empty_registry(self):
        cluster = make_cluster(2)
        text = render_overhead_report(cluster.metrics)
        assert "task" in text  # renders all-zero table without crashing


class TestServerRollups:
    def test_sessions_accumulate_disjoint_metrics(self, small_rmat):
        server = PgxdServer(make_cluster(2, 30))
        alice = server.create_session("alice")
        bob = server.create_session("bob")
        dg = alice.load_graph("g", small_rmat)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        bob_dg = bob.load_graph("g", small_rmat)

        alice.run_job("g", pull_job(name="a1"))
        alice.run_job("g", pull_job(name="a2"))
        bob_dg.add_property("x", init=1.0)
        bob_dg.add_property("t", init=0.0)
        bob.run_job("g", pull_job(name="b1"))

        rollup = server.metrics_rollup()
        assert rollup["alice"]["repro_barriers_total"] == 2
        assert rollup["bob"]["repro_barriers_total"] == 1
        # session slices sum to the cluster-wide registry totals
        total = sum(r.get("repro_barriers_total", 0) for r in rollup.values())
        assert total == cluster_barriers(server)


def cluster_barriers(server):
    return server.cluster.metrics.counters_flat()["repro_barriers_total"]
