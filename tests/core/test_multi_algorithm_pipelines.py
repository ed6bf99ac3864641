"""Integration: chained analyses on one loaded graph — the interactive
workflow the Section 6.2 server serves (load once, analyze repeatedly)."""

import numpy as np
import pytest

from repro import rmat, with_uniform_weights
from repro.algorithms import (hop_dist, pagerank, personalized_pagerank,
                              sssp, wcc)
from repro.query import PropertyQuery
from tests.conftest import make_cluster, power_iteration


@pytest.fixture(scope="module")
def session():
    g = rmat(400, 3200, seed=13)
    with_uniform_weights(g, 0.1, 1.0, seed=14)
    cluster = make_cluster()
    return cluster, cluster.load_graph(g), g


class TestChainedAnalyses:
    def test_sequential_algorithms_share_the_graph(self, session):
        cluster, dg, g = session
        r1 = pagerank(cluster, dg, "pull", max_iterations=10)
        r2 = wcc(cluster, dg)
        r3 = hop_dist(cluster, dg, root=0)
        # Each cleaned up after itself: only built-ins remain.
        assert dg.machines[0].props.names() == ["in_degree", "out_degree"]
        assert r1.values["pr"].sum() == pytest.approx(1.0, abs=1e-9)
        assert r2.extra["num_components"] > 0
        assert np.isfinite(r3.values["hops"]).sum() > 1

    def test_simulated_clock_accumulates_across_algorithms(self, session):
        cluster, dg, g = session
        t0 = cluster.now
        sssp(cluster, dg, root=0)
        t1 = cluster.now
        pagerank(cluster, dg, "push", max_iterations=3)
        assert t0 < t1 < cluster.now

    def test_rank_then_query_pipeline(self, session):
        """The analyst loop: rank, keep the column, slice it with queries."""
        cluster, dg, g = session
        r = pagerank(cluster, dg, "pull", max_iterations=15)
        dg.add_property("rank", from_global=r.values["pr"])
        top = (PropertyQuery(cluster, dg)
               .where("in_degree", ">", 0)
               .order_by("rank").limit(10).select("rank").execute())
        assert len(top) == 10
        ranked = [row["rank"] for _, row in top]
        assert ranked == sorted(ranked, reverse=True)
        dg.drop_property("rank")

    def test_global_vs_personalized_orderings_differ(self, session):
        cluster, dg, g = session
        r_global = pagerank(cluster, dg, "pull", max_iterations=20)
        r_pers = personalized_pagerank(cluster, dg, sources=[300],
                                       max_iterations=20)
        n = g.num_nodes
        teleport = np.zeros(n)
        teleport[300] = 1.0
        want_global = power_iteration(g, np.full(n, 1.0 / n), 20)
        want_pers = power_iteration(g, teleport, 20)
        assert np.allclose(r_global.values["pr"], want_global, atol=1e-12)
        assert np.allclose(r_pers.values["ppr"], want_pers, atol=1e-12)
        top_global = int(np.argmax(r_global.values["pr"]))
        top_pers = int(np.argmax(r_pers.values["ppr"]))
        assert top_global == int(np.argmax(want_global))
        assert top_pers == 300 != top_global

    def test_results_independent_of_prior_runs(self, session):
        """Running other algorithms first must not perturb later results."""
        cluster, dg, g = session
        wcc(cluster, dg)
        hop_dist(cluster, dg, root=3)
        after = pagerank(cluster, dg, "pull", max_iterations=12)
        fresh_cluster = make_cluster()
        fresh_dg = fresh_cluster.load_graph(g)
        fresh = pagerank(fresh_cluster, fresh_dg, "pull", max_iterations=12)
        assert np.allclose(after.values["pr"], fresh.values["pr"])

    def test_job_log_grows_monotonically(self, session):
        cluster, dg, g = session
        before = len(cluster.job_log)
        hop_dist(cluster, dg, root=1)
        assert len(cluster.job_log) > before
        names = [n for n, _ in cluster.job_log[before:]]
        assert "bfs_expand" in names and "bfs_absorb" in names
