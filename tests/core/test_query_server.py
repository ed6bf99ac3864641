"""The Section 6 extensions: SQL-like queries and the multi-client server."""

import numpy as np
import pytest

from repro import ReduceOp, rmat
from repro.algorithms import pagerank, wcc
from repro.core import barrier as barrier_mod
from repro.query import PropertyQuery, apply_spec, pool_specs
from repro.server import PgxdServer
from tests.conftest import make_cluster


@pytest.fixture
def ranked(small_rmat):
    cluster = make_cluster()
    dg = cluster.load_graph(small_rmat)
    r = pagerank(cluster, dg, "pull", max_iterations=15)
    dg.add_property("pr", from_global=r.values["pr"])
    return cluster, dg, small_rmat, r.values["pr"]


class TestPropertyQuery:
    def test_papers_example_query(self, ranked):
        """'Find the top-100 Pagerank nodes that have less than 1000
        neighbors' — the paper's Section 6.1 example."""
        cluster, dg, g, pr = ranked
        rows = (PropertyQuery(cluster, dg)
                .where("out_degree", "<", 1000)
                .order_by("pr", descending=True)
                .limit(100)
                .select("pr", "out_degree")
                .execute())
        assert len(rows) == min(100, int((g.out_degrees() < 1000).sum()))
        # Oracle: numpy over the global arrays.
        mask = g.out_degrees() < 1000
        want = np.argsort(np.where(mask, pr, -np.inf))[::-1][:len(rows)]
        got = [v for v, _ in rows]
        assert np.allclose(sorted(pr[want]), sorted(r["pr"] for _, r in rows))
        assert all(r["out_degree"] < 1000 for _, r in rows)
        # Order is correct by pr.
        vals = [r["pr"] for _, r in rows]
        assert vals == sorted(vals, reverse=True)

    def test_ascending_order(self, ranked):
        cluster, dg, g, pr = ranked
        rows = (PropertyQuery(cluster, dg).order_by("pr", descending=False)
                .limit(5).select("pr").execute())
        assert [r["pr"] for _, r in rows] == sorted(pr)[:5]

    def test_multiple_filters(self, ranked):
        cluster, dg, g, pr = ranked
        n = (PropertyQuery(cluster, dg)
             .where("out_degree", ">=", 2)
             .where("in_degree", ">=", 2)
             .count())
        want = int(((g.out_degrees() >= 2) & (g.in_degrees() >= 2)).sum())
        assert n == want

    def test_count_no_filters(self, ranked):
        cluster, dg, g, _ = ranked
        assert PropertyQuery(cluster, dg).where("pr", ">", -1).count() == g.num_nodes

    def test_aggregates(self, ranked):
        cluster, dg, g, pr = ranked
        q = PropertyQuery(cluster, dg).where("out_degree", ">", 0)
        mask = g.out_degrees() > 0
        assert q.aggregate("pr", "sum") == pytest.approx(pr[mask].sum())
        assert q.aggregate("pr", "max") == pytest.approx(pr[mask].max())
        assert q.aggregate("pr", "min") == pytest.approx(pr[mask].min())
        assert q.aggregate("pr", "avg") == pytest.approx(pr[mask].mean())

    def test_query_advances_simulated_clock(self, ranked):
        cluster, dg, g, _ = ranked
        t0 = cluster.now
        PropertyQuery(cluster, dg).where("pr", ">", 0).count()
        assert cluster.now > t0

    def test_invalid_operator(self, ranked):
        cluster, dg, _, _ = ranked
        with pytest.raises(ValueError):
            PropertyQuery(cluster, dg).where("pr", "~", 1)

    def test_invalid_limit(self, ranked):
        cluster, dg, _, _ = ranked
        with pytest.raises(ValueError):
            PropertyQuery(cluster, dg).limit(0)

    def test_empty_result(self, ranked):
        cluster, dg, _, _ = ranked
        rows = (PropertyQuery(cluster, dg).where("pr", ">", 1e9)
                .order_by("pr").limit(10).select("pr").execute())
        assert rows == []


class TestServer:
    def test_sessions_own_graphs(self, small_rmat):
        server = PgxdServer(make_cluster())
        alice = server.create_session("alice")
        bob = server.create_session("bob")
        alice.load_graph("social", small_rmat)
        bob.load_graph("social", rmat(100, 400, seed=2))
        assert alice.graph("social").num_nodes == 300
        assert bob.graph("social").num_nodes == 100
        assert server.session_names() == ["alice", "bob"]

    def test_duplicate_session_rejected(self):
        server = PgxdServer(make_cluster())
        server.create_session("a")
        with pytest.raises(KeyError):
            server.create_session("a")

    def test_interactive_algorithms_with_accounting(self, small_rmat):
        server = PgxdServer(make_cluster())
        s = server.create_session("analyst")
        s.load_graph("g", small_rmat)
        r1 = s.run_algorithm("g", pagerank, "pull", max_iterations=5)
        r2 = s.run_algorithm("g", wcc)
        assert r1.iterations == 5 and r2.extra["num_components"] > 0
        usage = server.usage_report()["analyst"]
        assert usage.simulated_seconds > 0
        assert usage.jobs_run >= 5
        assert usage.graphs_loaded == 1

    def test_jobs_serialize_in_submission_order(self, small_rmat):
        from repro import EdgeMapJob, EdgeMapSpec

        server = PgxdServer(make_cluster())
        a = server.create_session("a")
        b = server.create_session("b")
        dga = a.load_graph("g", small_rmat)
        dgb = b.load_graph("g", small_rmat)
        for dg in (dga, dgb):
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
        job = EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM))
        sa = a.run_job("g", job)
        sb = b.run_job("g", job)
        assert sb.start_time >= sa.end_time  # serialized, no overlap

    def test_fair_share_flags_heavy_session(self, small_rmat):
        server = PgxdServer(make_cluster())
        heavy = server.create_session("heavy")
        light = server.create_session("light")
        heavy.load_graph("g", small_rmat)
        light.load_graph("g", small_rmat)
        heavy.run_algorithm("g", pagerank, "pull", max_iterations=20)
        light.run_algorithm("g", pagerank, "pull", max_iterations=1)
        assert server.over_fair_share() == ["heavy"]

    def test_close_session_returns_usage(self, small_rmat):
        server = PgxdServer(make_cluster())
        s = server.create_session("tmp")
        s.load_graph("g", small_rmat)
        usage = server.close_session("tmp")
        assert usage.graphs_loaded == 1
        assert "tmp" not in server.session_names()


class TestPartitionInvariance:
    """The ordering bugfix: query results — including tied order keys —
    must be identical regardless of how many machines hold the graph.
    Both the machine-local top-k and the driver merge sort on the
    composite (order value, global node id) key."""

    GRAPH = rmat(240, 1400, seed=3)
    # 5 distinct values over 240 nodes: 48-way ties, so any top-50 cut
    # slices straight through a tie group.
    TIED = (np.arange(240) % 5).astype(np.float64)

    def _rows(self, machines, descending):
        cluster = make_cluster(machines)
        dg = cluster.load_graph(self.GRAPH)
        dg.add_property("score", from_global=self.TIED)
        return (PropertyQuery(cluster, dg)
                .where("out_degree", ">=", 0)
                .order_by("score", descending=descending)
                .limit(50).select("score").execute())

    @pytest.mark.parametrize("descending", [True, False])
    def test_tied_top_k_invariant_to_machine_count(self, descending):
        one = self._rows(1, descending)
        four = self._rows(4, descending)
        assert len(one) == 50
        assert one == four  # ids AND values, exact

    def test_ties_break_toward_smaller_global_id(self):
        rows = self._rows(4, True)
        for (id_a, row_a), (id_b, row_b) in zip(rows, rows[1:]):
            if row_a["score"] == row_b["score"]:
                assert id_a < id_b

    @pytest.mark.parametrize("machines", [2, 3])
    def test_serving_spec_pool_invariant_to_machine_count(self, machines):
        """The whole serve-trace operator mix (count/sum/max/top-k) gives
        one answer per spec, machine-count be damned."""
        def answers(m):
            cluster = make_cluster(m)
            dg = cluster.load_graph(self.GRAPH)
            return [apply_spec(PropertyQuery(cluster, dg), sp)
                    for sp in pool_specs(8, seed=1)]

        assert answers(machines) == answers(4)


class TestScanPricing:
    """The unpriced-scan bugfix: count()/aggregate() pay a modeled
    full-column scan plus a scalar all-reduce on the simulated clock, and
    execute() pays for its order-key gather and row materialization."""

    def _expected_reduce(self, cluster):
        return barrier_mod.all_reduce_latency(cluster.config.num_machines,
                                              cluster.config.network)

    def test_count_cost_is_scan_plus_reduce(self, ranked):
        cluster, dg, g, _ = ranked
        t0 = cluster.now
        PropertyQuery(cluster, dg).where("pr", ">", 0).count()
        want = (g.num_nodes * 8.0 / PropertyQuery.SCAN_BW
                + self._expected_reduce(cluster))
        assert cluster.now - t0 == pytest.approx(want)

    def test_aggregate_scans_filter_and_value_columns(self, ranked):
        cluster, dg, g, _ = ranked
        t0 = cluster.now
        PropertyQuery(cluster, dg).where("out_degree", ">", 0) \
            .aggregate("pr", "max")
        want = (g.num_nodes * 8.0 * 2 / PropertyQuery.SCAN_BW
                + self._expected_reduce(cluster))
        assert cluster.now - t0 == pytest.approx(want)

    def test_avg_pays_for_sum_plus_count(self, ranked):
        cluster, dg, _, _ = ranked

        def cost(fn):
            t0 = cluster.now
            fn(PropertyQuery(cluster, dg).where("pr", ">", 0))
            return cluster.now - t0

        avg = cost(lambda q: q.aggregate("pr", "avg"))
        parts = (cost(lambda q: q.aggregate("pr", "sum"))
                 + cost(lambda q: q.count()))
        assert avg == pytest.approx(parts)

    def test_extra_filters_cost_extra_scans(self, ranked):
        cluster, dg, _, _ = ranked

        def cost(q):
            t0 = cluster.now
            q.count()
            return cluster.now - t0

        one = cost(PropertyQuery(cluster, dg).where("pr", ">", 0))
        two = cost(PropertyQuery(cluster, dg).where("pr", ">", 0)
                   .where("out_degree", ">=", 0))
        assert two > one

    def test_execute_prices_order_and_materialization(self, ranked):
        cluster, dg, _, _ = ranked

        def cost(q):
            t0 = cluster.now
            q.execute()
            return cluster.now - t0

        plain = cost(PropertyQuery(cluster, dg)
                     .where("pr", ">", 0).select("pr"))
        ordered = cost(PropertyQuery(cluster, dg)
                       .where("pr", ">", 0).order_by("pr").select("pr"))
        assert plain > 0  # filter scan + row shipping + driver overhead
        assert ordered > plain  # the order-key gather is priced too
