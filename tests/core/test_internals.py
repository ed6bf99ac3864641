"""White-box tests of the Task/Communication manager internals."""

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat
from repro.core.jobrunner import JobExecution
from repro.core.messages import MsgKind
from tests.conftest import make_cluster


def build_exec(graph, job, **cluster_kwargs):
    cluster = make_cluster(**cluster_kwargs)
    dg = cluster.load_graph(graph)
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    return cluster, dg, JobExecution(cluster, dg, job, cluster.hooks)


PULL = EdgeMapJob(name="j", spec=EdgeMapSpec(direction="pull", source="x",
                                             target="t", op=ReduceOp.SUM))


class TestJobExecutionSetup:
    def test_ghost_sets_derived_from_declarations(self, small_rmat):
        _, _, exc = build_exec(small_rmat, PULL, ghost_threshold=20)
        assert "x" in exc.ghost_read_set
        assert "t" in exc.ghost_write_set

    def test_overwrite_props_excluded_from_ghost_writes(self, small_rmat):
        from repro.core.job import TaskJob
        from repro.core.tasks import NodeIterTask

        class T(NodeIterTask):
            def run(self, ctx):
                pass

        job = TaskJob(name="j", task_cls=T,
                      writes=(("a", ReduceOp.OVERWRITE), ("b", ReduceOp.SUM)))
        cluster = make_cluster(ghost_threshold=20)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("a")
        dg.add_property("b")
        exc = JobExecution(cluster, dg, job, cluster.hooks)
        assert exc.ghost_write_set == {"b"}

    def test_node_kernel_jobs_skip_ghost_sync(self, small_rmat):
        from repro.core.job import NodeKernelJob

        job = NodeKernelJob(name="k", kernel=lambda v, lo, hi: None,
                            reads=("x",), writes=(("t", ReduceOp.SUM),))
        cluster = make_cluster(ghost_threshold=20)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("x")
        dg.add_property("t")
        exc = JobExecution(cluster, dg, job, cluster.hooks)
        assert not exc.syncs_ghosts
        assert exc.ghost_write_props == ()

    def test_atomics_flag_by_direction(self, small_rmat):
        _, _, exc_pull = build_exec(small_rmat, PULL)
        assert not exc_pull.job_uses_atomics
        push = EdgeMapJob(name="p", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM))
        _, _, exc_push = build_exec(small_rmat, push)
        assert exc_push.job_uses_atomics

    def test_phases_progress_in_order(self, small_rmat):
        cluster, dg, exc = build_exec(small_rmat, PULL, ghost_threshold=20)
        phases = []
        orig = exc._finalize

        def spy():
            phases.append(exc.phase)
            orig()

        exc._finalize = spy
        exc.start()
        while not exc.done:
            assert cluster.sim.step()
        assert exc.phase == "done"
        assert phases == ["barrier"]

    def test_counters_drain_to_zero(self, small_rmat):
        cluster, dg, exc = build_exec(small_rmat, PULL, ghost_threshold=20)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert exc.write_outstanding == 0
        assert exc.sync_outstanding == 0
        assert exc.rmi_outstanding == 0
        assert exc.workers_remaining == 0
        for mw in exc.workers:
            for ws in mw:
                assert ws.done
                assert ws.outstanding_reads == 0
                assert not ws.parked
                assert not ws.side_structs
                assert not ws.has_buffered()


class TestWorkerBuffers:
    def test_flush_splits_oversize_buffers(self, small_rmat):
        """A vectorized chunk may append far more than one buffer's worth;
        the flush must emit a train of <= buffer-size messages."""
        cluster, dg, exc = build_exec(small_rmat, PULL, ghost_threshold=None,
                                      buffer_size=128)
        sizes = []
        orig = exc.send_request

        def spy(msg, kind):
            if msg.kind is MsgKind.READ_REQ:
                sizes.append(msg.item_count)
            orig(msg, kind)

        exc.send_request = spy
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert sizes, "expected remote reads"
        assert max(sizes) <= 128 // 8

    def test_messages_counted_once_per_flush_segment(self, small_rmat):
        cluster, dg, exc = build_exec(small_rmat, PULL, ghost_threshold=None,
                                      buffer_size=128)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        # read requests and responses come in pairs
        reqs = exc.stats.bytes_by_kind["read_req"]
        resps = exc.stats.bytes_by_kind["read_resp"]
        assert reqs > 0 and resps > 0

    def test_parked_messages_respect_cap(self, medium_rmat):
        cluster, dg, exc = build_exec(medium_rmat, PULL, ghost_threshold=None,
                                      buffer_size=64, max_inflight_per_dest=1)
        over_cap = []
        from repro.core import task_manager

        orig = task_manager.WorkerState._send_read

        def spy(ws, msg, side):
            if ws.inflight_by_dst.get(msg.dst, 0) >= 1:
                over_cap.append(msg.dst)
            orig(ws, msg, side)

        task_manager.WorkerState._send_read = spy
        try:
            exc.start()
            while not exc.done:
                cluster.sim.step()
        finally:
            task_manager.WorkerState._send_read = orig
        assert not over_cap, "a message was sent past the in-flight cap"


class TestCopierBehavior:
    def test_all_copiers_participate_under_load(self, medium_rmat):
        """When requests arrive faster than one copier can serve them, the
        pool spreads the queue across copiers (slow service forces backlog)."""
        cluster, dg, exc = build_exec(medium_rmat, PULL, ghost_threshold=None,
                                      num_copiers=3, buffer_size=128,
                                      copier_per_item=5e-6)
        served = set()
        from repro.core import comm_manager

        orig = comm_manager.copier_loop

        def spy(exc_, cs):
            served.add((cs.machine.index, cs.cindex))
            orig(exc_, cs)

        comm_manager.copier_loop = spy
        try:
            exc.start()
            while not exc.done:
                cluster.sim.step()
        finally:
            comm_manager.copier_loop = orig
        machines_with_traffic = {m for m, _ in served}
        assert len(machines_with_traffic) == 4
        # At least one machine used several copiers.
        per_machine = {}
        for m, c in served:
            per_machine.setdefault(m, set()).add(c)
        assert max(len(cs) for cs in per_machine.values()) >= 2

    def test_deadlock_reported_with_context(self, small_rmat):
        """If the event queue drains before completion the engine raises a
        descriptive error rather than hanging or silently returning."""
        cluster, dg, exc = build_exec(small_rmat, PULL, ghost_threshold=None)
        exc.start()
        # Sabotage: drop all events (the fast path keeps same-time events in
        # a separate run queue, so both containers must be emptied).
        cluster.sim._heap.clear()
        cluster.sim._runq.clear()
        with pytest.raises(Exception):
            while not exc.done:
                if not cluster.sim.step():
                    raise RuntimeError("deadlock")


class TestFlushPricing:
    def test_flush_all_prices_items_not_batches(self, small_rmat):
        """Regression: vectorized buffers hold lists of per-batch arrays, so
        the end-of-tasks flush must price the sum of batch lengths; counting
        ``len(buf.offsets)`` (batches) underpriced large flushes."""
        from repro.core.messages import ReadBuffer, WriteBuffer
        from repro.core.task_manager import WorkerState

        _, _, exc = build_exec(small_rmat, PULL)
        ws = WorkerState(exc, exc.machines[0], 0)
        # 3 batches x 4 read items plus 2 batches x 5 write items: 22 items
        # in 5 batches.
        rbuf = ReadBuffer()
        for _ in range(3):
            rbuf.append(np.arange(4, dtype=np.int64),
                        np.arange(4, dtype=np.int64))
        ws.read_bufs[(1, "x")] = rbuf
        wbuf = WriteBuffer()
        for _ in range(2):
            wbuf.append(np.arange(5, dtype=np.int64), np.ones(5))
        ws.write_bufs[(1, "t")] = (wbuf, ReduceOp.SUM)

        flushed = []
        ws._flush_read = lambda *a, **k: flushed.append("r")
        ws._flush_write = lambda *a, **k: flushed.append("w")
        tally = ws.flush_all()
        assert flushed == ["r", "w"]
        assert tally.cpu_ops == pytest.approx(8.0 + 0.5 * 22)

    def test_flush_all_scalar_buffers_priced_per_item(self, small_rmat):
        """Scalar accesses append one-item batches; each is one item."""
        from repro.core.messages import ReadBuffer
        from repro.core.task_manager import WorkerState

        _, _, exc = build_exec(small_rmat, PULL)
        ws = WorkerState(exc, exc.machines[0], 0)
        rbuf = ReadBuffer()
        for i in range(7):
            rbuf.append(np.array([i], dtype=np.int64),
                        tasks=[(None, i, i, 0.0, -1, None)])
        ws.read_bufs[(1, "x")] = rbuf
        ws._flush_read = lambda *a, **k: None
        tally = ws.flush_all()
        assert tally.cpu_ops == pytest.approx(8.0 + 0.5 * 7)
