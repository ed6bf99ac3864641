"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, from_edges
from repro.graph.chunking import chunk_edge_counts, edge_chunks
from repro.graph.partition import (decode_global_id, edge_partition,
                                   encode_global_id, vertex_partition)
from tests.conftest import make_cluster

# A random small digraph as (num_nodes, edge list) pairs.
graphs = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=0, max_size=120),
    ))

slow = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestCsrProperties:
    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_csr_preserves_multiset_of_edges(self, data):
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        src, dst = g.edge_list()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(edges)

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_reverse_csr_is_transpose(self, data):
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        fwd = sorted((u, v) for u, v in edges)
        rev = []
        for v in range(n):
            for u in g.in_neighbors(v):
                rev.append((int(u), v))
        assert sorted(rev) == fwd

    @given(graphs)
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal(self, data):
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        assert g.out_degrees().sum() == g.in_degrees().sum() == len(edges)


class TestPartitionProperties:
    @given(st.integers(1, 500), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_vertex_partition_covers_exactly(self, n, p):
        part = vertex_partition(n, p)
        sizes = [part.machine_size(m) for m in range(p)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    @given(graphs, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_edge_partition_owner_consistency(self, data, p):
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        part = edge_partition(g, p)
        for v in range(n):
            m = part.owner(v)
            lo, hi = part.machine_range(m)
            assert lo <= v < hi

    @given(st.integers(0, 1 << 15), st.integers(0, (1 << 48) - 1))
    @settings(max_examples=80, deadline=None)
    def test_global_id_round_trip(self, machine, offset):
        assert decode_global_id(encode_global_id(machine, offset)) == (machine, offset)


class TestChunkingProperties:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=80),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_chunks_partition_nodes_and_edges(self, degrees, chunk):
        starts = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        chunks = edge_chunks(starts, chunk)
        assert sum(hi - lo for lo, hi in chunks) == len(degrees)
        assert chunk_edge_counts(starts, chunks).sum() == sum(degrees)
        # Contiguity: each chunk starts where the previous ended.
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=80),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_chunk_weight_bounded(self, degrees, chunk):
        starts = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        counts = chunk_edge_counts(starts, edge_chunks(starts, chunk))
        if len(counts):
            assert counts.max() <= chunk + max(degrees)


class TestReductionProperties:
    ops = st.sampled_from([ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX])

    @given(ops, st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_reduction_order_invariant(self, op, values):
        """Commutative + associative: any order gives the same result."""
        acc1 = op.bottom(np.float64)
        for v in values:
            acc1 = op.scalar(acc1, v)
        acc2 = op.bottom(np.float64)
        for v in reversed(values):
            acc2 = op.scalar(acc2, v)
        assert acc1 == acc2 or abs(acc1 - acc2) < 1e-6 * max(1, abs(acc1))

    @given(ops, st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_apply_at_equals_fold(self, op, values):
        arr = np.array([op.bottom(np.float64)])
        op.apply_at(arr, np.zeros(len(values), dtype=np.int64),
                    np.array(values))
        acc = op.bottom(np.float64)
        for v in values:
            acc = op.scalar(acc, v)
        assert arr[0] == acc or abs(arr[0] - acc) < 1e-6 * max(1, abs(acc))


class TestEngineInvariants:
    @given(graphs,
           st.integers(1, 4),
           st.sampled_from([None, 3]),
           st.sampled_from(["pull", "push"]))
    @slow
    def test_engine_matches_oracle_on_random_graphs(self, data, machines,
                                                    ghost_thr, direction):
        """The flagship invariant: for any graph and any cluster shape, the
        engine's edge-map equals the direct numpy oracle."""
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        cluster = make_cluster(machines, ghost_thr, chunk_size=8,
                               num_workers=2, num_copiers=1)
        dg = cluster.load_graph(g)
        x = np.arange(n, dtype=np.float64) + 1
        dg.add_property("x", from_global=x)
        dg.add_property("t", init=0.0)
        spec = EdgeMapSpec(direction=direction, source="x", target="t",
                           op=ReduceOp.SUM)
        cluster.run_job(dg, EdgeMapJob(name="j", spec=spec))
        got = dg.gather("t")
        src, dst = g.edge_list()
        want = np.zeros(n)
        np.add.at(want, dst, x[src])
        assert np.allclose(got, want)

    @given(graphs, st.sampled_from([ReduceOp.MIN, ReduceOp.MAX]))
    @slow
    def test_scalar_equals_vectorized_on_random_graphs(self, data, op):
        n, edges = data
        g = from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=n)
        cluster = make_cluster(2, 3, chunk_size=8, num_workers=2, num_copiers=1)
        dg = cluster.load_graph(g)
        x = np.arange(n, dtype=np.float64)
        dg.add_property("x", from_global=x)
        dg.add_property("a", init=op.bottom(np.float64))
        dg.add_property("b", init=op.bottom(np.float64))
        sa = EdgeMapSpec(direction="pull", source="x", target="a", op=op)
        sb = EdgeMapSpec(direction="pull", source="x", target="b", op=op)
        cluster.run_job(dg, EdgeMapJob(name="v", spec=sa))
        cluster.run_job(dg, EdgeMapJob(name="s", spec=sb).as_task_job())
        assert np.allclose(dg.gather("a"), dg.gather("b"))


PRIORITIES = ("high", "normal", "low")


def _pull_job(name):
    return EdgeMapJob(name=name, spec=EdgeMapSpec(
        direction="pull", source="x", target="t", op=ReduceOp.SUM))


def _xt_graph(cluster, seed):
    from repro import rmat

    dg = cluster.load_graph(rmat(40, 120, seed=seed))
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    return dg


class TestSchedulerProperties:
    """Fair-share scheduler invariants over random submission traces."""

    @given(st.lists(st.lists(st.sampled_from(PRIORITIES),
                             min_size=1, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_liveness_every_admitted_job_completes(self, plans):
        """Any mix of sessions and priorities drains to completion, and each
        session's jobs dispatch in its own submission order (per-session
        FIFO within a priority class)."""
        from repro.core.scheduler import JobScheduler

        cluster = make_cluster(2, chunk_size=32, num_workers=2,
                               num_copiers=1)
        sched = JobScheduler(cluster)
        tickets = []
        for i, prios in enumerate(plans):
            dg = _xt_graph(cluster, seed=31 + i)
            for j, prio in enumerate(prios):
                tickets.append(sched.submit(
                    f"s{i}", dg, _pull_job(f"s{i}_j{j}"), priority=prio))
        sched.drain()
        assert all(t.state == "done" for t in tickets)
        assert sched.queued_count() == 0
        assert sched.running_count() == 0
        assert len(sched.dispatch_log) == len(tickets)
        order = {r[3]: idx for idx, r in enumerate(sched.dispatch_log)}
        for i, prios in enumerate(plans):
            for prio in PRIORITIES:
                idxs = [order[t.job.name] for t in tickets
                        if t.session == f"s{i}" and t.priority == prio]
                assert idxs == sorted(idxs)

    @given(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_starvation_bounded_gap_between_turns(self, jobs_per_session):
        """With identical jobs and equal weights, deficit fair share is
        round-robin-like: while one session still waits, no other session
        squeezes in more than two jobs between its turns."""
        from repro import rmat
        from repro.core.scheduler import JobScheduler, SchedulerConfig

        cluster = make_cluster(2, chunk_size=32, num_workers=2,
                               num_copiers=1)
        sched = JobScheduler(cluster, SchedulerConfig(max_concurrent_jobs=1))
        g = rmat(60, 200, seed=41)
        for i, njobs in enumerate(jobs_per_session):
            dg = cluster.load_graph(g)
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
            for j in range(njobs):
                sched.submit(f"s{i}", dg, _pull_job(f"s{i}_j{j}"))
        sched.drain()
        log = [r[2] for r in sched.dispatch_log]
        for i, njobs in enumerate(jobs_per_session):
            mine = [idx for idx, s in enumerate(log) if s == f"s{i}"]
            assert len(mine) == njobs
            for a, b in zip(mine, mine[1:]):
                between = log[a + 1:b]
                for other in set(between):
                    assert between.count(other) <= 2

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_deficits_sum_to_zero_and_service_is_conserved(
            self, jobs_per_session):
        from repro.core.scheduler import JobScheduler

        cluster = make_cluster(2, chunk_size=32, num_workers=2,
                               num_copiers=1)
        sched = JobScheduler(cluster)
        for i, njobs in enumerate(jobs_per_session):
            dg = _xt_graph(cluster, seed=51 + i)
            for j in range(njobs):
                sched.submit(f"s{i}", dg, _pull_job(f"s{i}_j{j}"))
        sched.drain()
        deficits = sched.deficits()
        assert set(deficits) == {f"s{i}"
                                 for i in range(len(jobs_per_session))}
        assert abs(sum(deficits.values())) < 1e-12
        service = sched.service_by_session()
        total = sum(t.stats.elapsed for t in sched.tickets)
        assert abs(sum(service.values()) - total) <= 1e-9 * max(1.0, total)
