"""Direct unit tests of the vectorized chunk executors and work tallies."""

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, from_edges
from repro.core.jobrunner import JobExecution
from repro.core.vector_kernels import (CSR_BYTES_PER_EDGE, WorkTally,
                                       execute_edge_map_chunk)
from tests.conftest import make_cluster


class TestWorkTally:
    def test_add_accumulates_all_fields(self):
        a = WorkTally(cpu_ops=1, atomic_ops=2, random_bytes=3, seq_bytes=4,
                      tasks=5, edges=6)
        b = WorkTally(cpu_ops=10, atomic_ops=20, random_bytes=30,
                      seq_bytes=40, tasks=50, edges=60)
        a.add(b)
        assert (a.cpu_ops, a.atomic_ops, a.random_bytes, a.seq_bytes,
                a.tasks, a.edges) == (11, 22, 33, 44, 55, 66)

    def test_add_bytes_splits_by_locality(self):
        t = WorkTally()
        t.add_bytes(100, locality=0.75)
        assert t.random_bytes == pytest.approx(25)
        assert t.seq_bytes == pytest.approx(75)

    def test_add_bytes_extremes(self):
        t = WorkTally()
        t.add_bytes(10, 0.0)
        assert t.random_bytes == 10 and t.seq_bytes == 0
        t2 = WorkTally()
        t2.add_bytes(10, 1.0)
        assert t2.random_bytes == 0 and t2.seq_bytes == 10


def setup_exec(g, direction="pull", machines=2, ghost_threshold=None,
               active=None, **cluster_kwargs):
    cluster = make_cluster(machines, ghost_threshold, **cluster_kwargs)
    dg = cluster.load_graph(g)
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    if active is not None:
        dg.add_property("on", dtype=np.bool_, from_global=active)
    spec = EdgeMapSpec(direction=direction, source="x", target="t",
                       op=ReduceOp.SUM,
                       active="on" if active is not None else None)
    job = EdgeMapJob(name="j", spec=spec)
    exc = JobExecution(cluster, dg, job, cluster.hooks)
    exc.phase = "main"  # allow chunk execution without the full lifecycle
    exc.workers = [
        [__import__("repro.core.task_manager", fromlist=["WorkerState"])
         .WorkerState(exc, m, w) for w in range(cluster.config.engine.num_workers)]
        for m in dg.machines
    ]
    return cluster, dg, exc, spec


class TestChunkExecution:
    def test_tally_counts_every_edge(self, small_rmat):
        cluster, dg, exc, spec = setup_exec(small_rmat)
        total_edges = 0
        for m in dg.machines:
            ws = exc.workers[m.index][0]
            tally = execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                           spec.iter_kinds[0])
            total_edges += tally.edges
        assert total_edges == small_rmat.num_edges

    def test_tally_tasks_equal_nodes(self, small_rmat):
        cluster, dg, exc, spec = setup_exec(small_rmat)
        total_tasks = 0
        for m in dg.machines:
            ws = exc.workers[m.index][0]
            tally = execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                           spec.iter_kinds[0])
            total_tasks += tally.tasks
        assert total_tasks == small_rmat.num_nodes

    def test_filter_reduces_counted_edges(self, small_rmat):
        active = np.zeros(small_rmat.num_nodes, dtype=bool)
        active[:50] = True
        cluster, dg, exc, spec = setup_exec(small_rmat, active=active)
        tasks = edges = 0
        for m in dg.machines:
            ws = exc.workers[m.index][0]
            tally = execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                           spec.iter_kinds[0])
            tasks += tally.tasks
            edges += tally.edges
        assert tasks == 50
        assert edges == int(small_rmat.in_degrees()[:50].sum())

    def test_seq_bytes_include_csr_scan(self, small_rmat):
        cluster, dg, exc, spec = setup_exec(small_rmat)
        m = dg.machines[0]
        ws = exc.workers[0][0]
        tally = execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                       spec.iter_kinds[0])
        assert tally.seq_bytes >= tally.edges * CSR_BYTES_PER_EDGE

    def test_pull_has_no_atomics_push_does(self, small_rmat):
        for direction, expect_atomics in (("pull", False), ("push", True)):
            cluster, dg, exc, spec = setup_exec(small_rmat, direction,
                                                machines=1)
            m = dg.machines[0]
            ws = exc.workers[0][0]
            tally = execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                           spec.iter_kinds[0])
            assert (tally.atomic_ops > 0) == expect_atomics

    def test_remote_edges_fill_buffers(self, small_rmat):
        cluster, dg, exc, spec = setup_exec(small_rmat, machines=4)
        m = dg.machines[0]
        ws = exc.workers[0][0]
        execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                               spec.iter_kinds[0])
        buffered = sum(sum(len(o) for o in b.offsets)
                       for b in ws.read_bufs.values())
        sent = sum(len(s.rows) for s in ws.side_structs.values())
        parked = sum(len(side.rows) for _, side in ws.parked)
        assert buffered + sent + parked == exc.stats.remote_reads
        # buffers only target other machines
        assert all(dst != 0 for dst, _ in ws.read_bufs)

    def test_empty_chunk(self, small_rmat):
        cluster, dg, exc, spec = setup_exec(small_rmat)
        m = dg.machines[0]
        ws = exc.workers[0][0]
        tally = execute_edge_map_chunk(exc, m, ws, spec, 5, 5,
                                       spec.iter_kinds[0])
        assert tally.edges == 0 and tally.tasks == 0

    def test_ghost_edges_classified_ghost_not_remote(self):
        # hub 0 pointed at by everyone, ghosted
        n = 40
        g = from_edges(list(range(1, n)), [0] * (n - 1), num_nodes=n)
        cluster, dg, exc, spec = setup_exec(g, direction="push", machines=4,
                                            ghost_threshold=5)
        assert dg.num_ghosts == 1
        writes_before = exc.stats.remote_writes
        for m in dg.machines:
            # initialize ghost write columns as the jobrunner would
            m.ghosts.begin_writes("t", ReduceOp.SUM, np.float64)
            ws = exc.workers[m.index][0]
            execute_edge_map_chunk(exc, m, ws, spec, 0, m.n_local,
                                   spec.iter_kinds[0])
        assert exc.stats.remote_writes == writes_before  # all ghost-absorbed
