"""Engine robustness: degenerate graphs, API misuse, error paths."""

import numpy as np
import pytest

from repro import (ClusterConfig, EdgeMapJob, EdgeMapSpec, NodeKernelJob,
                   PgxdCluster, ReduceOp, TaskJob, from_edges)
from repro.core.job import Job
from repro.core.tasks import NodeIterTask
from tests.conftest import make_cluster


def run_pull_sum(cluster, dg):
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    stats = cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
        direction="pull", source="x", target="t", op=ReduceOp.SUM)))
    return dg.gather("t"), stats


class TestDegenerateGraphs:
    def test_empty_graph(self):
        g = from_edges([], [], num_nodes=10)
        cluster = make_cluster(4, None)
        dg = cluster.load_graph(g)
        got, stats = run_pull_sum(cluster, dg)
        assert (got == 0).all()
        assert stats.elapsed > 0  # barrier still happens

    def test_single_node(self):
        g = from_edges([], [], num_nodes=1)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        got, _ = run_pull_sum(cluster, dg)
        assert got.tolist() == [0.0]

    def test_only_self_loops(self):
        g = from_edges([0, 1, 2], [0, 1, 2], num_nodes=3)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        got, _ = run_pull_sum(cluster, dg)
        assert got.tolist() == [1.0, 1.0, 1.0]

    def test_more_machines_than_nodes(self):
        g = from_edges([0, 1], [1, 2], num_nodes=3)
        cluster = make_cluster(8, None)
        dg = cluster.load_graph(g)
        got, _ = run_pull_sum(cluster, dg)
        assert got.tolist() == [0.0, 1.0, 1.0]

    def test_star_graph_hub_ghosted(self):
        """Everyone points at node 0; with ghosts, reads of 0's property come
        from ghost columns."""
        n = 50
        g = from_edges(list(range(1, n)), [0] * (n - 1), num_nodes=n)
        cluster = make_cluster(4, 5)
        dg = cluster.load_graph(g)
        assert dg.num_ghosts >= 1
        dg.add_property("x", from_global=np.arange(n, dtype=float))
        dg.add_property("t", init=0.0)
        # pull over out-nbrs (reverse): every spoke reads hub's value
        cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM,
            reverse=True)))
        got = dg.gather("t")
        assert (got[1:] == 0.0).all()  # spokes' out-nbr is node 0 -> x[0]=0
        assert got[0] == 0.0

    def test_complete_bipartite_push(self):
        left, right = range(0, 5), range(5, 10)
        src = [u for u in left for _ in right]
        dst = [v for _ in left for v in right]
        g = from_edges(src, dst, num_nodes=10)
        cluster = make_cluster(3, None)
        dg = cluster.load_graph(g)
        dg.add_property("x", init=2.0)
        dg.add_property("t", init=0.0)
        cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM)))
        got = dg.gather("t")
        assert (got[:5] == 0.0).all() and (got[5:] == 10.0).all()


class TestApiMisuse:
    def test_duplicate_property(self, loaded):
        _, dg = loaded
        dg.add_property("dup")
        with pytest.raises(KeyError):
            dg.add_property("dup")

    def test_drop_missing_property(self, loaded):
        _, dg = loaded
        with pytest.raises(KeyError):
            dg.drop_property("ghost_prop")

    def test_edge_map_job_requires_spec(self):
        with pytest.raises(ValueError):
            EdgeMapJob(name="bad")

    def test_task_job_requires_task_subclass(self):
        with pytest.raises(ValueError):
            TaskJob(name="bad", task_cls=int)

    def test_node_kernel_requires_kernel(self):
        with pytest.raises(ValueError):
            NodeKernelJob(name="bad")

    def test_unsupported_job_type_rejected(self, loaded):
        cluster, dg = loaded

        class WeirdJob(Job):
            @property
            def kind(self):
                return "weird"

        with pytest.raises(TypeError):
            cluster.run_job(dg, WeirdJob(name="w"))

    def test_scalar_read_of_unreachable_vertex_raises(self, loaded):
        """get_local on a vertex that is neither owned nor ghosted is a
        programming error the Data Manager reports."""
        cluster, dg = loaded
        dg.add_property("p", init=0.0)
        errors = []

        class BadTask(NodeIterTask):
            def run(self, ctx):
                if ctx.node_id() == 0:
                    try:
                        # A vertex on the last machine, never ghosted.
                        ctx.get_local(dg.num_nodes - 1, "p")
                    except KeyError as e:
                        errors.append(e)

        cluster.run_job(dg, TaskJob(name="bad", task_cls=BadTask, reads=("p",)))
        assert errors  # the misuse surfaced as a KeyError, not silence

    def test_missing_read_done_raises(self, loaded):
        cluster, dg = loaded
        dg.add_property("p", init=0.0)

        class NoContinuation(NodeIterTask):
            def run(self, ctx):
                ctx.read_remote((ctx.node_id() + 1) % dg.num_nodes, "p")

        with pytest.raises(NotImplementedError):
            cluster.run_job(dg, TaskJob(name="bad", task_cls=NoContinuation,
                                        reads=("p",)))


class TestRelaxedConsistency:
    def test_read_write_same_property_is_order_dependent_but_deterministic(self):
        """Section 4.2: reading a property written in the same region gives
        non-bulk-synchronous results; the simulator still makes them
        reproducible run-to-run."""
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], num_nodes=4)

        def once():
            cluster = make_cluster(2, None)
            dg = cluster.load_graph(g)
            dg.add_property("v", from_global=np.arange(4, dtype=float))
            cluster.run_job(dg, EdgeMapJob(name="hazard", spec=EdgeMapSpec(
                direction="push", source="v", target="v", op=ReduceOp.SUM)))
            return dg.gather("v")

        assert np.array_equal(once(), once())

    def test_two_jobs_with_temp_copy_are_deterministic(self):
        """The documented fix: stage through a temporary property."""
        g = from_edges([0, 1, 2, 3], [1, 2, 3, 0], num_nodes=4)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        dg.add_property("v", from_global=np.arange(4, dtype=float))
        dg.add_property("v_nxt", init=0.0)
        cluster.run_job(dg, EdgeMapJob(name="safe", spec=EdgeMapSpec(
            direction="push", source="v", target="v_nxt", op=ReduceOp.SUM)))
        want = np.array([3.0, 0.0, 1.0, 2.0])
        assert np.array_equal(dg.gather("v_nxt"), want)


class TestLoadOptions:
    def test_ghost_threshold_override_none(self, small_rmat):
        cfg = make_cluster(4, 10).config.with_engine(ghost_threshold=None)
        dg = PgxdCluster(cfg).load_graph(small_rmat)
        assert dg.num_ghosts == 0

    def test_ghost_threshold_override_value(self, small_rmat):
        cfg = make_cluster(4, None).config.with_engine(ghost_threshold=10)
        dg = PgxdCluster(cfg).load_graph(small_rmat)
        assert dg.num_ghosts > 0

    def test_config_default_threshold_used(self, small_rmat):
        cluster = make_cluster(4, 30)
        dg = cluster.load_graph(small_rmat)
        from repro.core.ghost import select_ghosts

        assert dg.num_ghosts == len(select_ghosts(small_rmat, 30))

    def test_multiple_graphs_one_cluster(self, small_rmat, tiny_graph):
        cluster = make_cluster(2, None)
        dg1 = cluster.load_graph(small_rmat)
        dg2 = cluster.load_graph(tiny_graph)
        _, s1 = run_pull_sum(cluster, dg1)
        got2, _ = run_pull_sum(cluster, dg2)
        assert got2.tolist() == [0.0, 1.0, 1.0, 2.0, 1.0, 1.0]


class TestTimedLoading:
    def test_untimed_load_is_free(self, small_rmat):
        cluster = make_cluster(4, 30)
        dg = cluster.load_graph(small_rmat)
        assert dg.load_time == 0.0
        assert cluster.now == 0.0
