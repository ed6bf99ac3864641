"""Algorithm-level scalar-path equivalence: every algorithm may run its edge
jobs as ``EdgeMapJob.as_task_job()`` on the general per-edge RTC path and
must produce identical results."""

import numpy as np
import pytest

from repro import (EdgeMapJob, EdgeMapSpec, ReduceOp, rmat,
                   with_uniform_weights)
from repro.algorithms import (betweenness, eigenvector, hop_dist, kcore_max,
                              pagerank, pagerank_approx, sssp, wcc)
from tests.conftest import make_cluster, run_scalar


@pytest.fixture(scope="module")
def graph():
    g = rmat(120, 700, seed=41)
    return with_uniform_weights(g, 0.1, 1.0, seed=42)


def both(fn, graph, **kwargs):
    cluster = make_cluster(3, 20)
    dg = cluster.load_graph(graph)
    fast = fn(cluster, dg, **kwargs)
    cluster2 = run_scalar(make_cluster(3, 20))
    dg2 = cluster2.load_graph(graph)
    slow = fn(cluster2, dg2, **kwargs)
    return fast, slow


class TestForceScalar:
    def test_pagerank_pull(self, graph):
        fast, slow = both(lambda c, d, **k: pagerank(c, d, "pull", **k),
                          graph, max_iterations=4)
        assert np.allclose(fast.values["pr"], slow.values["pr"])

    def test_pagerank_push(self, graph):
        fast, slow = both(lambda c, d, **k: pagerank(c, d, "push", **k),
                          graph, max_iterations=4)
        assert np.allclose(fast.values["pr"], slow.values["pr"])

    def test_pagerank_approx(self, graph):
        fast, slow = both(pagerank_approx, graph, threshold=1e-4,
                          max_iterations=20)
        assert np.allclose(fast.values["pr"], slow.values["pr"])
        assert fast.iterations == slow.iterations

    def test_wcc(self, graph):
        fast, slow = both(wcc, graph)
        assert np.array_equal(fast.values["component"],
                              slow.values["component"])

    def test_sssp(self, graph):
        fast, slow = both(sssp, graph, root=0)
        assert np.allclose(fast.values["dist"], slow.values["dist"])

    def test_hop_dist(self, graph):
        fast, slow = both(hop_dist, graph, root=0)
        assert np.array_equal(fast.values["hops"], slow.values["hops"])

    def test_kcore_max(self, graph):
        fast, slow = both(kcore_max, graph)
        assert fast.extra["max_kcore"] == slow.extra["max_kcore"]
        assert fast.iterations == slow.iterations

    def test_eigenvector(self, graph):
        fast, slow = both(eigenvector, graph, max_iterations=5)
        assert np.allclose(fast.values["ev"], slow.values["ev"])

    def test_betweenness(self, graph):
        fast, slow = both(betweenness, graph, sources=[0, 7, 19])
        assert np.allclose(fast.values["betweenness"],
                           slow.values["betweenness"])

    def test_scalar_path_same_simulated_scale(self, graph):
        """The scalar path performs the same logical work, so its simulated
        time is close to the vectorized path (identical communication,
        slightly different per-item accounting)."""
        fast, slow = both(lambda c, d, **k: pagerank(c, d, "pull", **k),
                          graph, max_iterations=4)
        assert slow.total_time == pytest.approx(fast.total_time, rel=0.5)


def per_job_atomics(fn, graph, scalar):
    """``[(job name, atomic_ops)]`` of every job ``fn(cluster, dg)`` runs."""
    cluster = make_cluster(3, 20)
    if scalar:
        run_scalar(cluster)
    fn(cluster, cluster.load_graph(graph))
    return [(name, stats.atomic_ops) for name, stats in cluster.job_log]


def reverse_push(op):
    """One push along in-edges, the direction a free-form task of the same
    iterator would price as a pull."""

    def run(cluster, dg):
        dg.add_property("x", from_global=np.arange(dg.num_nodes,
                                                   dtype=np.float64))
        dg.add_property("t", init=float(dg.num_nodes))
        cluster.run_job(dg, EdgeMapJob(name="rev", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=op,
            reverse=True)))
    return run


class TestScalarAtomics:
    """The scalar path prices a spec's writes by the spec's direction, as
    the vectorized path does: a reverse push iterates in-edges but its
    targets still collide, so its owned-row writes pay atomics."""

    @pytest.mark.parametrize("fn", [wcc, kcore_max, reverse_push(ReduceOp.MIN),
                                    reverse_push(ReduceOp.SUM)],
                             ids=["wcc", "kcore_max", "reverse_min",
                                  "reverse_sum"])
    def test_per_job_atomics_agree(self, graph, fn):
        fast = per_job_atomics(fn, graph, scalar=False)
        slow = per_job_atomics(fn, graph, scalar=True)
        assert sum(n for _, n in fast) > 0
        assert slow == fast
