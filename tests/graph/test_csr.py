"""CSR construction, degrees, reverse CSR, conversions."""

import numpy as np
import pytest

from repro.graph.csr import Graph, from_edges, from_networkx, patch_edges


class TestFromEdges:
    def test_basic_shape(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_edges == 6

    def test_out_neighbors_sorted(self, tiny_graph):
        assert tiny_graph.out_neighbors(0).tolist() == [1, 4]

    def test_in_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(3).tolist()) == [2, 4]

    def test_degrees_sum_to_edge_count(self, small_rmat):
        g = small_rmat
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    def test_total_degrees(self, tiny_graph):
        td = tiny_graph.total_degrees()
        assert td[0] == 2  # two out, zero in
        assert td[3] == 3  # two in, one out

    def test_empty_graph(self):
        g = from_edges([], [], num_nodes=5)
        assert g.num_nodes == 5 and g.num_edges == 0
        assert g.out_degrees().tolist() == [0] * 5

    def test_self_loops_kept(self):
        g = from_edges([0, 1], [0, 1], num_nodes=2)
        assert g.num_edges == 2
        assert g.out_neighbors(0).tolist() == [0]

    def test_parallel_edges_kept_by_default(self):
        g = from_edges([0, 0, 0], [1, 1, 1], num_nodes=2)
        assert g.num_edges == 3

    def test_dedup_drops_duplicates(self):
        g = from_edges([0, 0, 1], [1, 1, 0], num_nodes=2, dedup=True)
        assert g.num_edges == 2

    def test_num_nodes_inferred(self):
        g = from_edges([0, 7], [3, 2])
        assert g.num_nodes == 8

    def test_endpoint_exceeding_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0], [5], num_nodes=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            from_edges([-1], [0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0, 1], [2])

    def test_weights_follow_edge_order(self):
        g = from_edges([1, 0, 0], [0, 2, 1], num_nodes=3,
                       weights=[10.0, 20.0, 30.0])
        # sorted by (src, dst): (0,1,w30), (0,2,w20), (1,0,w10)
        assert g.edge_weights.tolist() == [30.0, 20.0, 10.0]

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            from_edges([0], [1], weights=[1.0, 2.0])


GRAPH_ARRAYS = ("out_starts", "out_nbrs", "in_starts", "in_nbrs",
                "in_edge_index", "edge_weights")


def assert_same_bytes(got: Graph, want: Graph):
    assert got.num_nodes == want.num_nodes
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def two_lexsort_csr(src, dst, num_nodes, weights=None) -> Graph:
    """The always-sort construction ``from_edges`` must keep matching."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    order = np.lexsort((dst, src))
    src_s, dst_s = src[order], dst[order]
    rorder = np.lexsort((src_s, dst_s))
    return Graph(
        num_nodes=num_nodes,
        out_starts=np.concatenate(
            ([0], np.cumsum(np.bincount(src_s, minlength=num_nodes)))
        ).astype(np.int64),
        out_nbrs=dst_s,
        in_starts=np.concatenate(
            ([0], np.cumsum(np.bincount(dst_s, minlength=num_nodes)))
        ).astype(np.int64),
        in_nbrs=src_s[rorder], in_edge_index=rorder.astype(np.int64),
        edge_weights=(None if weights is None
                      else np.asarray(weights, np.float64)[order]))


class TestPresortedInput:
    """``from_edges`` skips its sort when the input is already in
    (src, dst) order; the arrays must not depend on which side ran."""

    @pytest.mark.parametrize("edges", [
        [],
        [(2, 1)],
        [(0, 0), (0, 0), (0, 3), (1, 1), (3, 0), (3, 0), (3, 2)],
        [(1, 2), (1, 2)],
    ], ids=["zero-edges", "one-edge", "duplicates-and-self-loops",
            "one-pair-twice"])
    def test_sorted_and_shuffled_input_build_identical_graphs(self, edges):
        n = 4
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        # a weight that is a function of the edge, so equal edges tie
        w = src * 10.0 + dst
        want = two_lexsort_csr(src, dst, n, w)
        assert_same_bytes(from_edges(src, dst, num_nodes=n, weights=w), want)
        rng = np.random.default_rng(len(edges))
        for _ in range(4):
            perm = rng.permutation(len(edges))
            assert_same_bytes(from_edges(src[perm], dst[perm], num_nodes=n,
                                         weights=w[perm]), want)

    def test_sorted_by_src_only_still_sorts(self):
        g = from_edges([0, 0, 1], [2, 1, 0], num_nodes=3,
                       weights=[1.0, 2.0, 3.0])
        assert g.out_nbrs.tolist() == [1, 2, 0]
        assert g.edge_weights.tolist() == [2.0, 1.0, 3.0]

    def test_sorted_input_is_copied_not_aliased(self, small_rmat):
        src, dst = small_rmat.edge_list()
        w = np.ones(len(src))
        g = from_edges(src, dst, num_nodes=small_rmat.num_nodes, weights=w)
        dst[:] = 0
        w[:] = 7.0
        assert np.array_equal(g.out_nbrs, small_rmat.out_nbrs)
        assert (g.edge_weights == 1.0).all()


class TestPatchEdges:
    """``patch_edges`` against the always-sort construction over the
    edited multiset: every array, byte for byte."""

    @staticmethod
    def weigh(src, dst):
        return (src * 31 + dst * 7) % 13 + 0.5

    @staticmethod
    def keys(edges, n):
        return np.sort(np.array([u * n + v for u, v in edges],
                                dtype=np.int64))

    def build(self, edges, n, weighted):
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        return two_lexsort_csr(src, dst, n,
                               self.weigh(src, dst) if weighted else None)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_seeded_deltas_match_a_sort(self, weighted):
        from collections import Counter
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 12))
            edges = [(int(u), int(v)) for u, v in
                     rng.integers(0, n, (int(rng.integers(0, 40)), 2))]
            edges += [(0, 0), (0, 0)]  # a duplicated self-loop
            g = self.build(sorted(edges), n, weighted)
            rem = [edges[i] for i in rng.choice(
                len(edges), size=int(rng.integers(0, len(edges) + 1)),
                replace=False)]
            ins = [(int(u), int(v)) for u, v in
                   rng.integers(0, n, (int(rng.integers(0, 10)), 2))]
            new, out, rev = patch_edges(
                g, self.keys(ins, n), self.keys(rem, n),
                self.weigh if weighted else None)
            model = Counter(edges)
            model.subtract(rem)
            model.update(ins)
            assert_same_bytes(new, self.build(sorted(model.elements()), n,
                                              weighted))
            assert out.drop.size == rev.drop.size == len(rem)
            assert out.at.size == rev.at.size == len(ins)

    def test_empty_delta_copies_the_graph(self):
        g = self.build([(0, 1), (1, 0), (1, 1)], 2, weighted=True)
        empty = np.empty(0, dtype=np.int64)
        new, out, rev = patch_edges(g, empty, empty, self.weigh)
        assert out.empty and rev.empty
        assert_same_bytes(new, g)
        assert new.out_nbrs is not g.out_nbrs

    def test_removing_a_missing_copy_raises(self):
        g = self.build([(0, 1), (0, 1)], 2, weighted=False)
        with pytest.raises(KeyError, match=r"\(0, 1\)"):
            patch_edges(g, np.empty(0, np.int64), self.keys([(0, 1)] * 3, 2))

    def test_weights_must_match_the_graph(self):
        g = self.build([(0, 1)], 2, weighted=False)
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="weight_fn"):
            patch_edges(g, empty, empty, self.weigh)


class TestReverseCsr:
    def test_in_edge_index_maps_weights(self, tiny_graph):
        g = tiny_graph
        g.edge_weights = np.arange(g.num_edges, dtype=np.float64)
        src, dst = g.edge_list()
        # For every in-edge of every node, the mapped weight must equal the
        # weight of the corresponding out-edge.
        for v in range(g.num_nodes):
            s, e = g.in_starts[v], g.in_starts[v + 1]
            for k in range(s, e):
                out_pos = g.in_edge_index[k]
                assert dst[out_pos] == v
                assert src[out_pos] == g.in_nbrs[k]

    def test_edge_list_round_trip(self, small_rmat):
        src, dst = small_rmat.edge_list()
        g2 = from_edges(src, dst, num_nodes=small_rmat.num_nodes)
        assert np.array_equal(g2.out_starts, small_rmat.out_starts)
        assert np.array_equal(g2.out_nbrs, small_rmat.out_nbrs)
        assert np.array_equal(g2.in_nbrs, small_rmat.in_nbrs)


class TestNetworkxConversion:
    def test_round_trip_counts(self, small_rmat):
        nxg = small_rmat.to_networkx()
        # networkx collapses parallel edges; compare against dedup'ed graph
        src, dst = small_rmat.edge_list()
        distinct = len(set(zip(src.tolist(), dst.tolist())))
        assert nxg.number_of_edges() == distinct
        assert nxg.number_of_nodes() == small_rmat.num_nodes

    def test_from_networkx(self):
        import networkx as nx

        nxg = nx.DiGraph([(0, 1), (1, 2), (2, 0)])
        g = from_networkx(nxg)
        assert g.num_nodes == 3 and g.num_edges == 3
        assert g.out_neighbors(2).tolist() == [0]

    def test_from_networkx_undirected_doubles(self):
        import networkx as nx

        nxg = nx.Graph([(0, 1)])
        g = from_networkx(nxg)
        assert g.num_edges == 2

    def test_weights_preserved(self, tiny_graph):
        tiny_graph.edge_weights = np.full(tiny_graph.num_edges, 2.5)
        nxg = tiny_graph.to_networkx()
        assert nxg[0][1]["weight"] == 2.5
