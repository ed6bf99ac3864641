"""End-to-end engine jobs: correctness across configurations.

Every test computes an oracle directly from the global edge list and asserts
the engine produces it, across machine counts, ghost settings, partitioning
strategies and both execution paths.
"""

import numpy as np
import pytest

from repro import (ClusterConfig, EdgeMapJob, EdgeMapSpec, FaultPlan,
                   MachineCrash, MachineCrashError, NodeKernelJob,
                   PgxdCluster, ReduceOp, rmat, with_uniform_weights)
from tests.conftest import make_cluster


def pull_oracle(g, source_vals, op, transform=None, active=None):
    """Reference for: n.target op= f(t.source) over in-neighbors."""
    n = g.num_nodes
    out = np.full(n, op.bottom(np.float64))
    src, dst = g.edge_list()
    if active is not None:
        keep = active[dst]
        src, dst = src[keep], dst[keep]
    vals = source_vals[src]
    if transform:
        vals = transform(vals)
    op.apply_at(out, dst, vals)
    return out


def push_oracle(g, source_vals, op, weights=None, active=None):
    """Reference for: t.target op= f(n.source) over out-neighbors."""
    n = g.num_nodes
    out = np.full(n, op.bottom(np.float64))
    src, dst = g.edge_list()
    vals = source_vals[src] if weights is None else source_vals[src] + weights
    if active is not None:
        keep = active[src]
        dst, vals = dst[keep], vals[keep]
    op.apply_at(out, dst, vals)
    return out


def run_edge_map(cluster, dg, spec, x_init, target_bottom, scalar=False):
    dg.add_property("x", from_global=x_init)
    dg.add_property("t", init=target_bottom)
    job = EdgeMapJob(name="j", spec=spec)
    stats = cluster.run_job(dg, job.as_task_job() if scalar else job)
    result = dg.gather("t")
    dg.drop_property("x")
    dg.drop_property("t")
    return result, stats


@pytest.mark.parametrize("num_machines", [1, 2, 4, 7])
@pytest.mark.parametrize("ghost_threshold", [None, 30])
class TestPullAcrossConfigs:
    def test_pull_sum(self, small_rmat, num_machines, ghost_threshold):
        cluster = make_cluster(num_machines, ghost_threshold)
        dg = cluster.load_graph(small_rmat)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        want = pull_oracle(small_rmat, x, ReduceOp.SUM)
        assert np.allclose(got, want)

    def test_push_sum(self, small_rmat, num_machines, ghost_threshold):
        cluster = make_cluster(num_machines, ghost_threshold)
        dg = cluster.load_graph(small_rmat)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64) * 0.5
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        want = push_oracle(small_rmat, x, ReduceOp.SUM)
        assert np.allclose(got, want)


class TestOperatorsAndOptions:
    @pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX])
    def test_pull_each_op(self, small_rmat, op):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rng = np.random.default_rng(1)
        x = rng.normal(size=small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="pull", source="x", target="t", op=op)
        got, _ = run_edge_map(cluster, dg, spec, x, op.bottom(np.float64))
        assert np.allclose(got, pull_oracle(small_rmat, x, op))

    @pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX])
    def test_push_each_op(self, small_rmat, op):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rng = np.random.default_rng(2)
        x = rng.normal(size=small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t", op=op)
        got, _ = run_edge_map(cluster, dg, spec, x, op.bottom(np.float64))
        assert np.allclose(got, push_oracle(small_rmat, x, op))

    def test_push_with_weights(self, small_rmat_weighted):
        g = small_rmat_weighted
        cluster = make_cluster()
        dg = cluster.load_graph(g)
        x = np.arange(g.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.MIN,
                           transform=lambda v, w: v + w, use_weights=True)
        got, _ = run_edge_map(cluster, dg, spec, x, np.inf)
        want = push_oracle(g, x, ReduceOp.MIN, weights=g.edge_weights)
        assert np.allclose(got, want)

    def test_pull_with_transform(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM, transform=lambda v, w: v * 2.0)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        want = pull_oracle(small_rmat, x, ReduceOp.SUM, transform=lambda v: v * 2)
        assert np.allclose(got, want)

    def test_active_filter_push(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rng = np.random.default_rng(3)
        active = rng.random(small_rmat.num_nodes) < 0.3
        dg.add_property("act", dtype=np.bool_, from_global=active)
        x = np.ones(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM, active="act")
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        want = push_oracle(small_rmat, x, ReduceOp.SUM, active=active)
        assert np.allclose(got, want)

    def test_active_filter_pull(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rng = np.random.default_rng(4)
        active = rng.random(small_rmat.num_nodes) < 0.5
        dg.add_property("act", dtype=np.bool_, from_global=active)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM, active="act")
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        want = pull_oracle(small_rmat, x, ReduceOp.SUM, active=active)
        assert np.allclose(got, want)

    def test_reverse_push_targets_in_neighbors(self, tiny_graph):
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(tiny_graph)
        x = np.arange(6, dtype=np.float64) + 1
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM, reverse=True)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        # reverse push: for edge (u, v), v sends to u == pull oracle on x
        src, dst = tiny_graph.edge_list()
        want = np.zeros(6)
        np.add.at(want, src, x[dst])
        assert np.allclose(got, want)

    def test_reverse_pull_reads_out_neighbors(self, tiny_graph):
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(tiny_graph)
        x = np.arange(6, dtype=np.float64) + 1
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM, reverse=True)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        src, dst = tiny_graph.edge_list()
        want = np.zeros(6)
        np.add.at(want, src, x[dst])
        assert np.allclose(got, want)


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_paths_agree(self, small_rmat, direction):
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(small_rmat)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction=direction, source="x", target="t",
                           op=ReduceOp.SUM)
        vec, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        sca, _ = run_edge_map(cluster, dg, spec, x, 0.0, scalar=True)
        assert np.allclose(vec, sca)

    def test_paths_agree_with_weights_and_filter(self, small_rmat_weighted):
        g = small_rmat_weighted
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(g)
        active = np.arange(g.num_nodes) % 3 == 0
        dg.add_property("act", dtype=np.bool_, from_global=active)
        x = np.linspace(0, 1, g.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.MIN, transform=lambda v, w: v + w,
                           use_weights=True, active="act")
        vec, _ = run_edge_map(cluster, dg, spec, x, np.inf)
        sca, _ = run_edge_map(cluster, dg, spec, x, np.inf, scalar=True)
        assert np.allclose(vec, sca)


class TestPartitioningOptions:
    @pytest.mark.parametrize("strategy", ["edge", "vertex"])
    def test_results_invariant_to_partitioning(self, small_rmat, strategy):
        cluster = make_cluster(partitioning=strategy)
        dg = cluster.load_graph(small_rmat)
        x = np.arange(small_rmat.num_nodes, dtype=np.float64)
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        assert np.allclose(got, pull_oracle(small_rmat, x, ReduceOp.SUM))

    @pytest.mark.parametrize("chunking", ["edge", "node"])
    def test_results_invariant_to_chunking(self, small_rmat, chunking):
        cluster = make_cluster(chunking=chunking)
        dg = cluster.load_graph(small_rmat)
        x = np.ones(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        assert np.allclose(got, push_oracle(small_rmat, x, ReduceOp.SUM))


class TestNodeKernels:
    def test_kernel_applies_per_machine(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        dg.add_property("y", init=1.0)

        def double(view, lo, hi):
            view["y"][lo:hi] *= 2.0

        cluster.run_job(dg, NodeKernelJob(name="dbl", kernel=double,
                                          writes=(("y", ReduceOp.OVERWRITE),)))
        assert (dg.gather("y") == 2.0).all()

    def test_kernel_sees_degrees(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        dg.add_property("d", init=0.0)

        def copy_deg(view, lo, hi):
            view["d"][lo:hi] = view.out_degrees()[lo:hi]

        cluster.run_job(dg, NodeKernelJob(name="deg", kernel=copy_deg,
                                          writes=(("d", ReduceOp.OVERWRITE),)))
        assert np.array_equal(dg.gather("d"), small_rmat.out_degrees())

    def test_node_kernel_does_not_disturb_ghost_values(self, small_rmat):
        """Regression: node kernels must not trigger ghost post-sync that
        overwrites owner values with bottoms."""
        cluster = make_cluster(4, 20)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("v", from_global=np.arange(small_rmat.num_nodes, dtype=float))

        def touch(view, lo, hi):
            view["v"][lo:hi] += 1.0

        cluster.run_job(dg, NodeKernelJob(name="touch", kernel=touch,
                                          writes=(("v", ReduceOp.OVERWRITE),)))
        assert np.array_equal(dg.gather("v"),
                              np.arange(small_rmat.num_nodes, dtype=float) + 1)


class TestClusterApi:
    def test_gather_set_round_trip(self, loaded):
        cluster, dg = loaded
        vals = np.random.default_rng(0).random(dg.num_nodes)
        dg.add_property("p", from_global=vals)
        assert np.allclose(dg.gather("p"), vals)
        dg.set_from_global("p", vals * 2)
        assert np.allclose(dg.gather("p"), vals * 2)

    def test_map_reduce_sum(self, loaded):
        cluster, dg = loaded
        dg.add_property("one", init=1.0)
        total = cluster.map_reduce(dg, lambda v: float(v["one"].sum()))
        assert total == dg.num_nodes

    def test_map_reduce_min(self, loaded):
        cluster, dg = loaded
        dg.add_property("idx", from_global=np.arange(dg.num_nodes, dtype=float))
        lo = cluster.map_reduce(dg, lambda v: float(v["idx"].min()), ReduceOp.MIN)
        assert lo == 0.0

    def test_barrier_advances_clock(self, loaded):
        cluster, dg = loaded
        before = cluster.now
        latency = cluster.barrier()
        assert cluster.now == pytest.approx(before + latency)

    def test_jobs_advance_simulated_time(self, loaded):
        cluster, dg = loaded
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        t0 = cluster.now
        stats = cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM)))
        assert cluster.now > t0
        assert stats.elapsed > 0
        assert stats.start_time == t0 and stats.end_time == cluster.now

    def test_remote_traffic_zero_on_single_machine(self, small_rmat):
        cluster = make_cluster(1, None)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        stats = cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM)))
        assert stats.total_bytes == 0
        assert stats.remote_reads == 0

    def test_has_property(self, loaded):
        _, dg = loaded
        assert dg.has_property("out_degree")
        assert not dg.has_property("nope")

    def test_job_log_records_runs(self, loaded):
        cluster, dg = loaded
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        cluster.run_job(dg, EdgeMapJob(name="logged", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM)))
        assert cluster.job_log[-1][0] == "logged"


class TestGhostEffects:
    def test_ghosts_reduce_read_traffic(self, small_rmat):
        """The Figure 6(a) mechanism: ghosting hubs cuts request bytes."""
        x = np.ones(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="pull", source="x", target="t",
                           op=ReduceOp.SUM)

        def traffic(thr):
            cluster = make_cluster(4, thr)
            dg = cluster.load_graph(small_rmat)
            _, stats = run_edge_map(cluster, dg, spec, x, 0.0)
            return stats.bytes_by_kind["read_req"]

        assert traffic(20) < traffic(None)

    def test_ghost_privatization_off_still_correct(self, small_rmat):
        cluster = make_cluster(4, 20, ghost_privatization=False)
        dg = cluster.load_graph(small_rmat)
        x = np.ones(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM)
        got, _ = run_edge_map(cluster, dg, spec, x, 0.0)
        assert np.allclose(got, push_oracle(small_rmat, x, ReduceOp.SUM))

    def test_privatization_avoids_atomics(self, small_rmat):
        x = np.ones(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM)

        def atomics(privatize):
            cluster = make_cluster(4, 20, ghost_privatization=privatize)
            dg = cluster.load_graph(small_rmat)
            _, stats = run_edge_map(cluster, dg, spec, x, 0.0)
            return stats.atomic_ops

        assert atomics(True) < atomics(False)

    def test_privatized_push_sum_is_schedule_independent(self, small_rmat):
        """Privatization is priced, not materialized: ghost writes land in
        the machine column in chunk-queue order, so a float SUM has the
        same bits under every tie seed and with privatization off."""
        x = np.random.default_rng(4).random(small_rmat.num_nodes)
        spec = EdgeMapSpec(direction="push", source="x", target="t",
                           op=ReduceOp.SUM)

        def result(privatize, seed):
            cluster = make_cluster(4, 20, ghost_privatization=privatize)
            dg = cluster.load_graph(small_rmat)
            if seed is not None:
                cluster.sim.set_tie_breaker(seed)
            return run_edge_map(cluster, dg, spec, x, 0.0)[0].tobytes()

        want = result(False, None)
        assert all(result(True, seed) == want for seed in (None, 1, 2, 3))

    def test_pull_ghost_writes_never_count_atomics(self, small_rmat):
        """Pull regions (iter_kind == "in") have one worker per target, so
        writing through the shared non-privatized ghost column must cost no
        more atomics than the privatized one.  The shared branch used to
        count one atomic per ghost write unconditionally — gated on
        job_uses_atomics now, like the local branch."""
        from repro import InNbrIterTask, TaskJob

        class PullWriter(InNbrIterTask):
            def run(self, ctx):
                # A pull-style task that reduces into its in-neighbors:
                # ghosted neighbors take TaskContext's ghost write branch.
                ctx.write_remote(ctx.nbr_id(), "t", 1.0, ReduceOp.SUM)

        def atomics(privatize):
            cluster = make_cluster(4, 20, ghost_privatization=privatize)
            dg = cluster.load_graph(small_rmat)
            dg.add_property("t", init=0.0)
            stats = cluster.run_job(
                dg, TaskJob(name="j", task_cls=PullWriter,
                            writes=(("t", ReduceOp.SUM),)))
            assert stats.counts.get(("ghost_hits", "write")), \
                "test must exercise the ghost write branch"
            return stats.atomic_ops

        assert atomics(False) == atomics(True)


class TestRunJobs:
    """``run_jobs`` recovers every job from the checkpoint and returns
    merged stats whose ``metrics_delta`` sums the per-job deltas."""

    GRAPH = rmat(120, 500, seed=9)

    def _jobs(self, dg, count=3):
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        return [EdgeMapJob(name=f"j{i}", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM))
            for i in range(count)]

    def _fresh(self):
        cluster = make_cluster(2)
        dg = cluster.load_graph(self.GRAPH)
        return cluster, dg, self._jobs(dg)

    def _crashy(self, crash_at):
        cfg = (ClusterConfig(num_machines=2)
               .with_engine(ghost_threshold=40, chunk_size=256,
                            num_workers=4, num_copiers=2)
               .with_fault_plan(FaultPlan(seed=5, crashes=(
                   MachineCrash(machine=1, at=crash_at),))))
        cluster = PgxdCluster(cfg)
        dg = cluster.load_graph(self.GRAPH)
        return cluster, dg, self._jobs(dg)

    def test_recover_threads_through_batch(self, tmp_path):
        cluster, dg, jobs = self._fresh()
        cluster.run_jobs(dg, jobs)
        crash_at, want = 0.5 * cluster.now, dg.gather("t")

        # Without a checkpoint the crash aborts the batch mid-sequence...
        cluster, dg, jobs = self._crashy(crash_at)
        with pytest.raises(MachineCrashError):
            cluster.run_jobs(dg, jobs)

        # ...with one it rewinds and completes
        # bit-identically to the crash-free run.
        cluster, dg, jobs = self._crashy(crash_at)
        cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
        stats = cluster.run_jobs(dg, jobs)
        assert np.array_equal(dg.gather("t"), want)
        # recoveries are cluster-level: counted on the cluster, never in
        # a job's delta (which covers its final attempt only)
        assert cluster.metrics.counters_flat()[
            "repro_job_recoveries_total"] >= 1
        assert "repro_job_recoveries_total" not in stats.metrics_delta

    def test_merged_stats_sum_per_job_metrics_deltas(self):
        cluster, dg, jobs = self._fresh()
        merged = cluster.run_jobs(dg, jobs)
        per_job = [s.metrics_delta for _, s in cluster.job_log[-len(jobs):]]
        keys = set().union(*per_job)
        assert keys  # the per-job deltas are non-trivial
        for key in keys:
            assert merged.metrics_delta[key] == pytest.approx(
                sum(d.get(key, 0.0) for d in per_job)), key
        assert merged.metrics_delta['repro_jobs_total{kind="EdgeMapJob"}'] \
            == len(jobs)
        # The merged span covers the whole sequence.
        assert merged.start_time == cluster.job_log[-len(jobs)][1].start_time
        assert merged.end_time == cluster.now
        assert merged.elapsed >= sum(
            s.elapsed for _, s in cluster.job_log[-len(jobs):])
