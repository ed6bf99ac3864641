"""Named O(E) edge properties (paper Section 3.3 property arrays)."""

import numpy as np
import pytest

from repro import (EdgeMapJob, EdgeMapSpec, InNbrIterTask, ReduceOp, TaskJob,
                   from_edges, rmat)
from repro.core.tasks import EdgeMapSpec as Spec
from tests.conftest import make_cluster


@pytest.fixture
def graph_with_props(small_rmat):
    g = small_rmat
    rng = np.random.default_rng(4)
    g.add_edge_property("capacity", rng.uniform(1, 10, g.num_edges))
    g.add_edge_property("toll", rng.uniform(0, 1, g.num_edges))
    return g


class TestGraphApi:
    def test_add_and_read(self, graph_with_props):
        assert graph_with_props.edge_property("capacity").shape == (
            graph_with_props.num_edges,)

    def test_wrong_length_rejected(self, small_rmat):
        with pytest.raises(ValueError):
            small_rmat.add_edge_property("bad", np.ones(3))

    def test_duplicate_rejected(self, graph_with_props):
        with pytest.raises(KeyError):
            graph_with_props.add_edge_property("capacity",
                                               np.ones(graph_with_props.num_edges))

    def test_missing_rejected(self, small_rmat):
        with pytest.raises(KeyError):
            small_rmat.edge_property("nope")


class TestEngineIntegration:
    def oracle(self, g, prop):
        src, dst = g.edge_list()
        want = np.zeros(g.num_nodes)
        np.add.at(want, dst, g.edge_property(prop))
        return want

    def test_push_with_edge_prop(self, graph_with_props):
        g = graph_with_props
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(g)
        dg.add_property("one", init=1.0)
        dg.add_property("t", init=0.0)
        spec = Spec(direction="push", source="one", target="t",
                    op=ReduceOp.SUM, transform=lambda v, cap: v * cap,
                    use_weights=True, edge_prop="capacity")
        cluster.run_job(dg, EdgeMapJob(name="j", spec=spec))
        assert np.allclose(dg.gather("t"), self.oracle(g, "capacity"))

    def test_pull_with_edge_prop(self, graph_with_props):
        g = graph_with_props
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(g)
        dg.add_property("one", init=1.0)
        dg.add_property("t", init=0.0)
        spec = Spec(direction="pull", source="one", target="t",
                    op=ReduceOp.SUM, transform=lambda v, toll: v * toll,
                    use_weights=True, edge_prop="toll")
        cluster.run_job(dg, EdgeMapJob(name="j", spec=spec))
        assert np.allclose(dg.gather("t"), self.oracle(g, "toll"))

    def test_two_props_in_two_jobs(self, graph_with_props):
        g = graph_with_props
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        dg.add_property("one", init=1.0)
        dg.add_property("a", init=0.0)
        dg.add_property("b", init=0.0)
        for prop, target in (("capacity", "a"), ("toll", "b")):
            spec = Spec(direction="push", source="one", target=target,
                        op=ReduceOp.SUM, transform=lambda v, e: v * e,
                        use_weights=True, edge_prop=prop)
            cluster.run_job(dg, EdgeMapJob(name=prop, spec=spec))
        assert np.allclose(dg.gather("a"), self.oracle(g, "capacity"))
        assert np.allclose(dg.gather("b"), self.oracle(g, "toll"))

    def test_missing_edge_prop_raises(self, small_rmat):
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("one", init=1.0)
        dg.add_property("t", init=0.0)
        spec = Spec(direction="push", source="one", target="t",
                    op=ReduceOp.SUM, transform=lambda v, e: v * e,
                    use_weights=True, edge_prop="ghosted")
        with pytest.raises(KeyError):
            cluster.run_job(dg, EdgeMapJob(name="j", spec=spec))

    def test_edge_prop_without_use_weights_rejected(self):
        with pytest.raises(ValueError):
            Spec(direction="push", source="a", target="b", op=ReduceOp.SUM,
                 edge_prop="capacity")


class TestScalarAccess:
    def test_ctx_edge_prop(self, graph_with_props):
        g = graph_with_props
        cluster = make_cluster(3, None)
        dg = cluster.load_graph(g)
        dg.add_property("acc", init=0.0)

        class SumCapacity(InNbrIterTask):
            def run(self, ctx):
                cur = ctx.get_local(ctx.node_id(), "acc")
                ctx.set_local(ctx.node_id(),
                              cur + ctx.edge_prop("capacity"), "acc")

        cluster.run_job(dg, TaskJob(name="cap", task_cls=SumCapacity,
                                    writes=(("acc", ReduceOp.SUM),)))
        src, dst = g.edge_list()
        want = np.zeros(g.num_nodes)
        np.add.at(want, dst, g.edge_property("capacity"))
        assert np.allclose(dg.gather("acc"), want)

    def test_edge_prop_in_remote_read_continuation(self):
        """A ``read_done`` fired by a remote response sees the edge that
        issued the read, not the last edge its worker ran."""
        g = rmat(200, 1500, seed=5)
        rng = np.random.default_rng(4)
        g.add_edge_property("capacity", rng.uniform(1, 10, g.num_edges))
        cluster = make_cluster(3, None)
        dg = cluster.load_graph(g)
        dg.add_property("one", init=1.0)
        dg.add_property("acc", init=0.0)

        class PullCapacity(InNbrIterTask):
            def run(self, ctx):
                ctx.read_remote(ctx.nbr_id(), "one")

            def read_done(self, ctx, value, tag=None):
                cur = ctx.get_local(ctx.node_id(), "acc")
                ctx.set_local(ctx.node_id(),
                              cur + value * ctx.edge_prop("capacity"), "acc")

        stats = cluster.run_job(dg, TaskJob(name="cap", task_cls=PullCapacity,
                                            reads=("one",)))
        assert stats.remote_reads > 0
        src, dst = g.edge_list()
        want = np.zeros(g.num_nodes)
        np.add.at(want, dst, g.edge_property("capacity"))
        assert np.allclose(dg.gather("acc"), want)

    def test_ctx_missing_prop_raises(self, small_rmat):
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("acc", init=0.0)
        errors = []

        class Bad(InNbrIterTask):
            def run(self, ctx):
                try:
                    ctx.edge_prop("nope")
                except KeyError as e:
                    errors.append(e)

        cluster.run_job(dg, TaskJob(name="bad", task_cls=Bad))
        assert errors

    def test_in_direction_prop_alignment(self):
        """Edge props are stored in out-edge order; the in-CSR view must map
        them through in_edge_index so each in-edge sees its own value."""
        g = from_edges([0, 1, 2], [2, 2, 0], num_nodes=3)
        g.add_edge_property("tag", np.array([10.0, 20.0, 30.0]))
        cluster = make_cluster(2, None)
        dg = cluster.load_graph(g)
        dg.add_property("one", init=1.0)
        dg.add_property("t", init=0.0)
        spec = Spec(direction="pull", source="one", target="t",
                    op=ReduceOp.SUM, transform=lambda v, tag: tag,
                    use_weights=True, edge_prop="tag")
        cluster.run_job(dg, EdgeMapJob(name="j", spec=spec))
        # node 2 receives edges (0,2)=10 and (1,2)=20; node 0 receives (2,0)=30
        assert dg.gather("t").tolist() == [30.0, 0.0, 30.0]
