"""A job's ``reduce`` rides the region's closing barrier.

Known answers for the pricing (one tree all-reduce in place of the
barrier, so a region with a reduction synchronizes the machines once),
the job counts the programs record, and the typed rejection of anything a
program yields that is not a job.
"""

import numpy as np
import pytest

from repro import ClusterConfig, PgxdCluster, rmat, with_uniform_weights
from repro.algorithms import pagerank, sssp, wcc
from repro.core.barrier import all_reduce_latency, barrier_latency
from repro.core.job import (EdgeMapJob, MapReduce, MutationJob,
                            NodeKernelJob, ReadJob)
from repro.core.properties import ReduceOp
from repro.core.scheduler import JobScheduler
from repro.core.tasks import EdgeMapSpec
from tests.conftest import make_cluster

GRAPH = rmat(300, 1800, seed=5)
WEIGHTED = with_uniform_weights(rmat(300, 1800, seed=5), 0.1, 1.0, seed=9)


def _double(view, lo, hi):
    view["x"][lo:hi] *= 2.0


def _barriers(cluster) -> list:
    """Every barrier span of the cluster's jobs so far, in job order."""
    return [{"job": name, "start": start, "duration": duration}
            for name, stats in cluster.job_log
            for *_, kind, start, duration in stats.spans
            if kind == "barrier"]


class TestPricing:
    @pytest.mark.parametrize("machines", [1, 2, 16])
    def test_reduce_is_one_tree_all_reduce(self, machines):
        """The region ends exactly one all-reduce after its chunks, where a
        barrier followed by a standalone reduction costs two tree
        operations."""
        runs = {}
        for reduce in (None, MapReduce(lambda v: float(v["x"].sum()))):
            cluster = PgxdCluster(ClusterConfig(num_machines=machines))
            dg = cluster.load_graph(GRAPH)
            dg.add_property("x", from_global=np.arange(GRAPH.num_nodes,
                                                       dtype=np.float64))
            stats = cluster.run_job(dg, NodeKernelJob(
                name="double", kernel=_double, reduce=reduce))
            (barrier,) = _barriers(cluster)
            runs[reduce is None] = (cluster, dg, stats, barrier["start"])
        net = ClusterConfig(num_machines=machines).network
        cluster, dg, plain, chunks_done = runs[True]
        assert plain.reduced is None
        assert plain.end_time == chunks_done + barrier_latency(machines, net)
        _, _, reduced, chunks_done_r = runs[False]
        assert chunks_done_r == chunks_done
        assert reduced.end_time == chunks_done + all_reduce_latency(machines,
                                                                    net)
        # the separate step it replaces: a barrier, then an all-reduce
        separate = cluster.map_reduce(dg, lambda v: float(v["x"].sum()))
        assert separate == reduced.reduced == float(
            2 * np.arange(GRAPH.num_nodes).sum())
        assert reduced.end_time < cluster.now

    def test_values_combine_in_machine_order(self):
        cluster = make_cluster(4)
        dg = cluster.load_graph(GRAPH)
        stats = cluster.run_job(dg, NodeKernelJob(
            name="who", kernel=lambda view, lo, hi: None,
            reduce=MapReduce(lambda v: [v.machine_index],
                             op=ReduceOp.SUM)))
        assert stats.reduced == [0, 1, 2, 3]

    def test_edge_region_reduces_after_its_writes_land(self):
        cluster = make_cluster(4)
        dg = cluster.load_graph(GRAPH)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        stats = cluster.run_job(dg, EdgeMapJob(
            name="gather", spec=EdgeMapSpec(direction="push", source="x",
                                            target="t", op=ReduceOp.SUM),
            reduce=MapReduce(lambda v: float(v["t"].sum()))))
        assert stats.reduced == float(GRAPH.num_edges)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_pagerank_iteration_is_two_regions(self, iterations):
        cluster = make_cluster(4)
        dg = cluster.load_graph(GRAPH)
        pagerank(cluster, dg, max_iterations=iterations)
        names = [name for name, _ in cluster.job_log]
        assert len(names) == 2 * iterations + 1
        assert names[0] == "pr_prepare" and names[-1] == "pr_finalize"
        assert names[1::2] == ["pr_pull"] * iterations
        assert names[2:-1:2] == ["pr_finalize_prepare"] * (iterations - 1)

    @pytest.mark.parametrize("algorithm", [sssp, wcc], ids=["sssp", "wcc"])
    def test_no_standalone_all_reduce(self, algorithm):
        """Every job starts the instant the one before it ends, and each
        absorb region's barrier is its round's only all-reduce."""
        cluster = make_cluster(4)
        dg = cluster.load_graph(WEIGHTED)
        result = algorithm(cluster, dg)
        barriers = _barriers(cluster)
        stats = [s for _, s in cluster.job_log]
        assert all(b.start_time == a.end_time
                   for a, b in zip(stats, stats[1:]))
        assert cluster.now == stats[-1].end_time
        net = cluster.config.network
        absorbs = [b for b in barriers if b["job"].endswith("_absorb")]
        assert len(absorbs) == result.iterations
        assert all(b["duration"] == pytest.approx(
            all_reduce_latency(4, net), rel=1e-9, abs=0) for b in absorbs)
        assert all(b["duration"] == pytest.approx(
            barrier_latency(4, net), rel=1e-9, abs=0)
            for b in barriers if not b["job"].endswith("_absorb"))


def _yields_a_map_reduce(dg):
    dg.add_property("scratch", init=0.0)
    try:
        yield MapReduce(lambda v: 1)
    finally:
        dg.drop_property("scratch")


class TestTypedRejection:
    def test_run_rejects_a_bare_map_reduce(self):
        cluster = make_cluster(2)
        dg = cluster.load_graph(GRAPH)
        with pytest.raises(TypeError, match="MapReduce.*is not a Job"):
            cluster.run(dg, _yields_a_map_reduce(dg))
        assert not dg.has_property("scratch")
        assert cluster.job_log == []

    def test_submit_program_rejects_a_bare_map_reduce(self):
        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPH)
        with pytest.raises(TypeError, match="MapReduce.*is not a Job"):
            sched.submit_program("s", dg, _yields_a_map_reduce(dg))
        assert sched.tickets == [] and sched.queued_count() == 0
        assert not dg.has_property("scratch")

    def test_a_later_step_is_rejected_too(self):
        def program(dg):
            yield NodeKernelJob(name="ok", kernel=lambda v, lo, hi: None)
            yield 42

        cluster = make_cluster(2)
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(GRAPH)
        sched.submit_program("s", dg, program(dg))
        with pytest.raises(TypeError, match="program step 42 is not a Job"):
            sched.drain()

    @pytest.mark.parametrize("reduce", [
        lambda v: 1, "sum", ReduceOp.SUM], ids=["callable", "str", "op"])
    def test_reduce_must_be_a_map_reduce(self, reduce):
        with pytest.raises(TypeError, match="reduce must be a MapReduce"):
            NodeKernelJob(name="k", kernel=lambda v, lo, hi: None,
                          reduce=reduce)

    def test_read_and_mutation_jobs_take_no_reduce(self):
        spec = MapReduce(lambda v: 1)
        with pytest.raises(TypeError, match="ReadJob"):
            ReadJob(name="r", compute=lambda: (None, 0.0), reduce=spec)
        with pytest.raises(TypeError, match="MutationJob"):
            MutationJob(name="m", engine=object(), reduce=spec)

    def test_as_task_job_keeps_the_reduce(self):
        spec = MapReduce(lambda v: 1)
        job = EdgeMapJob(name="j", reduce=spec, spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM))
        assert job.as_task_job().reduce is spec
