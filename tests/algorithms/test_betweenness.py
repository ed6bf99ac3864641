"""Brandes betweenness centrality on the engine, vs networkx."""

import networkx as nx
import numpy as np
import pytest

from repro import from_edges, grid_graph, rmat
from repro.algorithms import betweenness
from tests.conftest import make_cluster


def nx_betweenness(g):
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(g.num_nodes))
    src, dst = g.edge_list()
    nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
    ref = nx.betweenness_centrality(nxg, normalized=False)
    return np.array([ref[i] for i in range(g.num_nodes)])


class TestExactness:
    def test_matches_networkx_rmat(self):
        g = rmat(60, 240, seed=31, dedup=True)
        cluster = make_cluster(3, None)
        dg = cluster.load_graph(g)
        r = betweenness(cluster, dg)
        assert np.allclose(r.values["betweenness"], nx_betweenness(g),
                           atol=1e-9)

    def test_matches_networkx_grid(self):
        g = grid_graph(4, 4, bidirectional=False)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        r = betweenness(cluster, dg)
        assert np.allclose(r.values["betweenness"], nx_betweenness(g),
                           atol=1e-9)

    def test_path_graph_known_values(self):
        # 0 -> 1 -> 2 -> 3: interior nodes lie on 1*? shortest paths
        g = from_edges([0, 1, 2], [1, 2, 3], num_nodes=4)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        r = betweenness(cluster, dg)
        assert r.values["betweenness"].tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_invariant_to_machines_and_ghosts(self):
        g = rmat(50, 220, seed=32, dedup=True)
        results = []
        for machines, thr in [(1, None), (4, 10)]:
            cluster = make_cluster(machines, thr)
            dg = cluster.load_graph(g)
            results.append(betweenness(cluster, dg).values["betweenness"])
        assert np.allclose(results[0], results[1])


class TestSampling:
    def test_sampled_subset_of_exact(self):
        g = rmat(50, 220, seed=33, dedup=True)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        full = betweenness(cluster, dg).values["betweenness"]
        cluster2 = make_cluster(2, None)
        dg2 = cluster2.load_graph(g)
        part = betweenness(cluster2, dg2,
                           sources=range(0, 50, 2)).values["betweenness"]
        # partial sums are bounded by the full sums
        assert (part <= full + 1e-9).all()
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.num_nodes))
        nxg.add_edges_from(zip(*(a.tolist() for a in g.edge_list())))
        ref = nx.betweenness_centrality_subset(
            nxg, sources=list(range(0, 50, 2)), targets=list(nxg),
            normalized=False)
        assert np.allclose(part, [ref[i] for i in range(50)], atol=1e-9)
        assert 0 < part.sum() < full.sum()

    def test_properties_cleaned_up(self):
        g = rmat(30, 120, seed=34, dedup=True)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        betweenness(cluster, dg, sources=[0, 1])
        assert dg.machines[0].props.names() == ["in_degree", "out_degree"]
