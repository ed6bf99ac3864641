"""Table 2 algorithm suite: correctness against networkx and invariants."""

import networkx as nx
import numpy as np
import pytest

from repro import grid_graph, rmat, uniform_random, with_uniform_weights
from repro.algorithms import (eigenvector, hop_dist, kcore_max, pagerank,
                              pagerank_approx, sssp, wcc)
from tests.conftest import make_cluster


@pytest.fixture(scope="module")
def graph():
    g = rmat(300, 1800, seed=5)
    return with_uniform_weights(g, 0.1, 1.0, seed=9)


@pytest.fixture(scope="module")
def nxg(graph):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    src, dst = graph.edge_list()
    g.add_weighted_edges_from(zip(src.tolist(), dst.tolist(),
                                  graph.edge_weights.tolist()))
    return g


def fresh(graph, **kwargs):
    cluster = make_cluster(**kwargs)
    return cluster, cluster.load_graph(graph)


class TestPageRank:
    def test_pull_matches_networkx(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = pagerank(cluster, dg, "pull", max_iterations=100, tolerance=1e-12)
        ref = nx.pagerank(nxg, alpha=0.85, max_iter=500, tol=1e-14, weight=None)
        refv = np.array([ref[i] for i in range(graph.num_nodes)])
        assert np.abs(r.values["pr"] - refv).max() < 1e-9

    def test_push_equals_pull(self, graph):
        cluster, dg = fresh(graph)
        r1 = pagerank(cluster, dg, "pull", max_iterations=20)
        cluster, dg = fresh(graph)
        r2 = pagerank(cluster, dg, "push", max_iterations=20)
        assert np.allclose(r1.values["pr"], r2.values["pr"])

    def test_sums_to_one(self, graph):
        cluster, dg = fresh(graph)
        r = pagerank(cluster, dg, "pull", max_iterations=50, tolerance=1e-12)
        assert r.values["pr"].sum() == pytest.approx(1.0, abs=1e-9)

    def test_tolerance_stops_early(self, graph):
        cluster, dg = fresh(graph)
        r = pagerank(cluster, dg, "pull", max_iterations=500, tolerance=1e-6)
        assert r.iterations < 500

    def test_per_iteration_times_recorded(self, graph):
        cluster, dg = fresh(graph)
        r = pagerank(cluster, dg, "pull", max_iterations=5)
        assert len(r.per_iteration) == 5
        assert all(t > 0 for t in r.per_iteration)

    def test_invalid_variant(self, graph):
        cluster, dg = fresh(graph)
        with pytest.raises(ValueError):
            pagerank(cluster, dg, "sideways")

    def test_temporary_properties_cleaned_up(self, graph):
        cluster, dg = fresh(graph)
        pagerank(cluster, dg, "pull", max_iterations=2)
        assert not dg.has_property("pr")
        assert not dg.has_property("pr_nxt")


class TestPageRankApprox:
    def test_converges_to_exact(self, graph):
        cluster, dg = fresh(graph)
        approx = pagerank_approx(cluster, dg, threshold=1e-10,
                                 max_iterations=500)
        cluster, dg = fresh(graph)
        exact = pagerank(cluster, dg, "pull", max_iterations=200,
                         tolerance=1e-13)
        assert np.abs(approx.values["pr"] - exact.values["pr"]).max() < 1e-6

    def test_active_count_decreases(self, graph):
        cluster, dg = fresh(graph)
        r = pagerank_approx(cluster, dg, threshold=1e-4, max_iterations=100)
        trace = r.extra["active_trace"]
        assert trace[-1] == 0
        assert trace[-2] <= trace[0]

    def test_work_shrinks_with_deactivation(self, graph):
        """The whole point of the approximation (Section 5.2)."""
        cluster, dg = fresh(graph)
        r = pagerank_approx(cluster, dg, threshold=1e-4, max_iterations=100)
        assert r.per_iteration[-1] < r.per_iteration[0]

    def test_looser_threshold_fewer_iterations(self, graph):
        cluster, dg = fresh(graph)
        loose = pagerank_approx(cluster, dg, threshold=1e-3, max_iterations=500)
        cluster, dg = fresh(graph)
        tight = pagerank_approx(cluster, dg, threshold=1e-8, max_iterations=500)
        assert loose.iterations < tight.iterations


class TestWcc:
    def test_matches_networkx(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = wcc(cluster, dg)
        want = np.zeros(graph.num_nodes, dtype=np.int64)
        for comp in nx.weakly_connected_components(nxg):
            for v in comp:
                want[v] = min(comp)
        assert np.array_equal(r.values["component"], want)

    def test_component_count(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = wcc(cluster, dg)
        assert r.extra["num_components"] == nx.number_weakly_connected_components(nxg)

    def test_connected_grid_single_component(self):
        g = grid_graph(6, 6)
        cluster, dg = fresh(g, ghost_threshold=None)
        r = wcc(cluster, dg)
        assert r.extra["num_components"] == 1

    def test_isolated_nodes_own_components(self):
        from repro import from_edges

        g = from_edges([0], [1], num_nodes=5)
        cluster, dg = fresh(g, num_machines=2, ghost_threshold=None)
        r = wcc(cluster, dg)
        assert r.extra["num_components"] == 4


class TestSssp:
    def test_matches_dijkstra(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = sssp(cluster, dg, root=0)
        ref = nx.single_source_dijkstra_path_length(nxg, 0)
        for v, d in ref.items():
            assert r.values["dist"][v] == pytest.approx(d)
        unreached = np.isinf(r.values["dist"]).sum()
        assert unreached == graph.num_nodes - len(ref)

    def test_root_distance_zero(self, graph):
        cluster, dg = fresh(graph)
        r = sssp(cluster, dg, root=5)
        assert r.values["dist"][5] == 0.0

    def test_requires_weights(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        with pytest.raises(ValueError):
            sssp(cluster, dg)

    def test_different_roots_differ(self, graph):
        cluster, dg = fresh(graph)
        r0 = sssp(cluster, dg, root=0)
        cluster, dg = fresh(graph)
        r1 = sssp(cluster, dg, root=1)
        assert not np.array_equal(r0.values["dist"], r1.values["dist"])


class TestHopDist:
    def test_matches_bfs(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = hop_dist(cluster, dg, root=0)
        ref = nx.single_source_shortest_path_length(nxg, 0)
        for v, d in ref.items():
            assert r.values["hops"][v] == d
        assert np.isinf(r.values["hops"]).sum() == graph.num_nodes - len(ref)

    def test_iterations_equal_eccentricity_plus_one(self, graph, nxg):
        cluster, dg = fresh(graph)
        r = hop_dist(cluster, dg, root=0)
        reachable = nx.single_source_shortest_path_length(nxg, 0)
        assert r.iterations == max(reachable.values()) + 1

    def test_grid_distances(self):
        g = grid_graph(5, 5)
        cluster, dg = fresh(g, ghost_threshold=None)
        r = hop_dist(cluster, dg, root=0)
        assert r.values["hops"][24] == 8  # manhattan distance corner-to-corner

    def test_hops_bounded_by_sssp_pattern(self, graph):
        """Hop distance <= weighted SSSP hop usage: both reach same set."""
        cluster, dg = fresh(graph)
        rh = hop_dist(cluster, dg, root=0)
        cluster, dg = fresh(graph)
        rs = sssp(cluster, dg, root=0)
        assert np.array_equal(np.isinf(rh.values["hops"]),
                              np.isinf(rs.values["dist"]))


class TestEigenvector:
    def test_matches_power_iteration(self, graph):
        cluster, dg = fresh(graph)
        r = eigenvector(cluster, dg, max_iterations=40)
        # Oracle: power iteration on A^T (gather from in-neighbors).
        src, dst = graph.edge_list()
        ev = np.full(graph.num_nodes, 1.0 / graph.num_nodes)
        for _ in range(40):
            nxt = np.zeros(graph.num_nodes)
            np.add.at(nxt, dst, ev[src])
            norm = np.linalg.norm(nxt)
            ev = nxt / norm if norm > 0 else nxt
        assert np.allclose(r.values["ev"], ev, atol=1e-9)

    def test_unit_norm(self, graph):
        cluster, dg = fresh(graph)
        r = eigenvector(cluster, dg, max_iterations=15)
        assert np.linalg.norm(r.values["ev"]) == pytest.approx(1.0)

    def test_every_vertex_computes_every_iteration(self, graph):
        """EV is the non-deactivating workload (like exact PR)."""
        cluster, dg = fresh(graph)
        r = eigenvector(cluster, dg, max_iterations=4)
        assert r.stats.tasks_executed >= 4 * graph.num_nodes

    def test_tolerance_early_exit(self, graph):
        cluster, dg = fresh(graph)
        r = eigenvector(cluster, dg, max_iterations=500, tolerance=1e-10)
        assert r.iterations < 500


class TestKcore:
    def test_matches_networkx_on_simple_graph(self):
        """On a dedup'ed graph without self-loops or reciprocal edges, the
        in+out degree equals the undirected degree, so the max core number
        matches networkx."""
        g0 = rmat(200, 1200, seed=21, dedup=True)
        src, dst = g0.edge_list()
        keep = src < dst  # no self loops, no reciprocals
        from repro import from_edges

        g = from_edges(src[keep], dst[keep], num_nodes=200)
        cluster, dg = fresh(g, ghost_threshold=20)
        r = kcore_max(cluster, dg)
        und = nx.Graph()
        und.add_nodes_from(range(200))
        s2, d2 = g.edge_list()
        und.add_edges_from(zip(s2.tolist(), d2.tolist()))
        want = max(nx.core_number(und).values())
        assert r.extra["max_kcore"] == want

    def test_grid_kcore_is_two(self):
        g = grid_graph(5, 5, bidirectional=False)
        cluster, dg = fresh(g, ghost_threshold=None)
        r = kcore_max(cluster, dg)
        assert r.extra["max_kcore"] == 2

    def test_many_iterations(self, graph):
        """KCore is the framework-overhead stress test: far more steps than
        any other algorithm (Section 5.2)."""
        cluster, dg = fresh(graph)
        rk = kcore_max(cluster, dg)
        cluster, dg = fresh(graph)
        rw = wcc(cluster, dg)
        assert rk.iterations > 5 * rw.iterations

    def test_empty_graph(self):
        from repro import from_edges

        g = from_edges([], [], num_nodes=4)
        cluster, dg = fresh(g, num_machines=2, ghost_threshold=None)
        r = kcore_max(cluster, dg)
        assert r.extra["max_kcore"] == 0


class TestCrossConfig:
    """Results must not depend on cluster configuration."""

    @pytest.mark.parametrize("machines", [1, 3, 5])
    def test_wcc_invariant_to_machines(self, graph, machines):
        cluster, dg = fresh(graph, num_machines=machines)
        r = wcc(cluster, dg)
        cluster, dg = fresh(graph, num_machines=2)
        r2 = wcc(cluster, dg)
        assert np.array_equal(r.values["component"], r2.values["component"])

    def test_pagerank_invariant_to_ghosts(self, graph):
        cluster, dg = fresh(graph, ghost_threshold=None)
        r1 = pagerank(cluster, dg, "pull", max_iterations=10)
        cluster, dg = fresh(graph, ghost_threshold=10)
        r2 = pagerank(cluster, dg, "pull", max_iterations=10)
        assert np.allclose(r1.values["pr"], r2.values["pr"])

    def test_sssp_invariant_to_partitioning(self, graph):
        cluster = make_cluster(partitioning="vertex")
        dg = cluster.load_graph(graph)
        r1 = sssp(cluster, dg, root=0)
        cluster, dg = fresh(graph)
        r2 = sssp(cluster, dg, root=0)
        assert np.allclose(r1.values["dist"], r2.values["dist"])

    def test_uniform_graph_runs(self):
        g = uniform_random(400, 4000, seed=3)
        cluster, dg = fresh(g, ghost_threshold=None)
        r = pagerank(cluster, dg, "pull", max_iterations=3)
        assert r.values["pr"].sum() == pytest.approx(1.0, abs=1e-9)
