"""Edge paths across modules: DSL weight lowering, IO truncation, patterns
with late constraints, query defaults."""

import numpy as np
import pytest

from repro import ReduceOp, from_edges, rmat
from repro.dsl import NBR, N, W, Procedure
from repro.graph.io import load_binary, save_binary
from repro.patterns import Pattern, PatternMatcher
from repro.query import PropertyQuery
from tests.conftest import make_cluster


class TestDslWeightLowering:
    def test_multi_prop_times_weight(self, small_rmat):
        """(t.a * t.b) * w: property part materializes, weight stays edge-side."""
        g = small_rmat
        g.edge_weights = np.full(g.num_edges, 2.0)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        dg.add_property("a", init=3.0)
        dg.add_property("b", init=5.0)
        dg.add_property("acc", init=0.0)
        Procedure("t").foreach_in_nbrs(
            "acc", ReduceOp.SUM, (NBR("a") * NBR("b")) * W).run(cluster, dg)
        want = g.in_degrees() * 30.0
        assert np.allclose(dg.gather("acc"), want)

    def test_weight_buried_deep_is_rejected(self, small_rmat):
        g = small_rmat
        g.edge_weights = np.full(g.num_edges, 2.0)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        dg.add_property("a", init=1.0)
        dg.add_property("b", init=1.0)
        dg.add_property("acc", init=0.0)
        # weight inside a sub-expression of a multi-prop expression
        proc = Procedure("t").foreach_in_nbrs(
            "acc", ReduceOp.SUM, NBR("a") * (NBR("b") + W))
        with pytest.raises(ValueError):
            jobs = proc.compile(dg)
            for job in jobs:
                cluster.run_job(dg, job)


class TestIoRobustness:
    def test_truncated_binary_fails_loudly(self, small_rmat, tmp_path):
        path = tmp_path / "g.bin"
        save_binary(small_rmat, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Exception):
            load_binary(path)

    def test_binary_rejects_text_file(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_text("0 1\n1 2\n")
        with pytest.raises(ValueError):
            load_binary(path)


class TestPatternsWithConstraints:
    def test_constraint_on_later_vertex(self):
        # 0->1, 0->2, 1->3 ; ask for an edge whose head has out-degree >= 1
        g = from_edges([0, 0, 1], [1, 2, 3], num_nodes=4)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        p = (Pattern().vertex("a").vertex("b", min_out_degree=1)
             .edge("a", "b"))
        res = PatternMatcher(cluster, dg).find(p)
        # only (0, 1) qualifies: head 1 has an out-edge
        assert res.num_matches == 1
        assert res.matches[0].tolist() == [0, 1]

    def test_self_loop_excluded_by_distinctness(self):
        g = from_edges([0, 0], [0, 1], num_nodes=2)
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        from repro.patterns import path_pattern

        res = PatternMatcher(cluster, dg).find(path_pattern(1))
        # the self loop (0,0) is not an injective match
        assert res.num_matches == 1


class TestQueryDefaults:
    def test_select_defaults_to_used_props(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rows = (PropertyQuery(cluster, dg)
                .where("out_degree", ">", 3)
                .order_by("in_degree").limit(5).execute())
        assert rows
        for _, row in rows:
            assert set(row) == {"out_degree", "in_degree"}

    def test_order_without_limit_returns_all(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        rows = (PropertyQuery(cluster, dg)
                .where("out_degree", ">=", 0)
                .order_by("out_degree", descending=False)
                .select("out_degree").execute())
        assert len(rows) == small_rmat.num_nodes
        vals = [r["out_degree"] for _, r in rows]
        assert vals == sorted(vals)

    def test_no_props_referenced_rejected(self, small_rmat):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        with pytest.raises(ValueError):
            PropertyQuery(cluster, dg).execute()
