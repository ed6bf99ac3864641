"""Conservation checker: clean sweeps, corrupted state, structured raises."""

import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp
from repro.audit import AuditViolation, check_execution
from repro.core.faults import FaultPlan
from repro.core.jobrunner import JobExecution
from tests.conftest import make_cluster

PULL = EdgeMapJob(name="j", spec=EdgeMapSpec(direction="pull", source="x",
                                             target="t", op=ReduceOp.SUM))
PUSH = EdgeMapJob(name="p", spec=EdgeMapSpec(direction="push", source="x",
                                             target="t", op=ReduceOp.SUM))


def run_audited(graph, job, **kwargs):
    cluster = make_cluster(audit=True, **kwargs)
    dg = cluster.load_graph(graph)
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    exc = JobExecution(cluster, dg, job, cluster.hooks)
    exc.start()
    while not exc.done:
        cluster.sim.step()
    return cluster, exc


class TestCleanExecutions:
    def test_pull_job_sweeps_clean(self, small_rmat):
        _, exc = run_audited(small_rmat, PULL, ghost_threshold=None)
        assert exc.audit is not None
        assert len(exc.audit.tracked) > 0
        assert check_execution(exc) == []

    def test_push_job_sweeps_clean(self, small_rmat):
        _, exc = run_audited(small_rmat, PUSH, ghost_threshold=None)
        assert check_execution(exc) == []

    def test_ghosted_job_sweeps_clean(self, small_rmat):
        _, exc = run_audited(small_rmat, PUSH, ghost_threshold=20)
        assert check_execution(exc) == []

    def test_unaudited_execution_is_checkable(self, small_rmat):
        cluster = make_cluster(ghost_threshold=None)
        dg = cluster.load_graph(small_rmat)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        exc = JobExecution(cluster, dg, PULL, cluster.hooks)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert exc.audit is None
        assert check_execution(exc) == []

    def test_audited_run_under_faults_sweeps_clean(self, small_rmat):
        plan = FaultPlan(seed=3, drop_prob=0.05, dup_prob=0.05,
                         delay_prob=0.1, delay_seconds=1e-4)
        _, exc = run_audited(small_rmat, PULL, ghost_threshold=None,
                             fault_plan=plan)
        assert check_execution(exc) == []

    def test_backpressure_conserved_under_faults(self, small_rmat):
        """The satellite back-pressure check: with a tiny in-flight cap and
        fabric faults, every slot returns and nothing stays parked."""
        plan = FaultPlan(seed=5, drop_prob=0.05, dup_prob=0.05)
        _, exc = run_audited(small_rmat, PULL, ghost_threshold=None,
                             buffer_size=64, max_inflight_per_dest=1,
                             fault_plan=plan)
        assert check_execution(exc) == []
        for mw in exc.workers:
            for ws in mw:
                assert not ws.parked
                assert all(c == 0 for c in ws.inflight_by_dst.values())


class TestCorruptedState:
    def _finished(self, graph):
        _, exc = run_audited(graph, PULL, ghost_threshold=None)
        return exc

    def test_nonzero_counter_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.write_outstanding = 3
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "counter.write_outstanding" for v in out)

    def test_parked_message_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.workers[0][0].parked.append(object())
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "worker.parked" for v in out)
        bad = next(v for v in out if v["invariant"] == "worker.parked")
        assert bad["machine"] == 0 and bad["worker"] == 0

    def test_leaked_inflight_slot_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.workers[1][0].inflight_by_dst[2] = 1
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "worker.inflight_by_dst" for v in out)

    def test_unacked_request_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.audit.track(999_999, "write_req")
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "requests.unacked" and
                   "write_req" in v["detail"] for v in out)

    def test_double_ack_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        rid = next(iter(exc.audit.tracked))
        exc.audit.ack(rid)
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "requests.multi_acked" for v in out)

    def test_unknown_ack_detected(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.audit.ack(123_456_789)
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "requests.unknown_ack" for v in out)

    def test_network_timeline_violation_surfaces(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.network.audit_violations.append({
            "invariant": "network.port_timeline_monotonic",
            "detail": "synthetic", "src": 0, "dst": 1,
            "kind": "read_req", "time": 0.0})
        out = check_execution(exc, raise_on_violation=False)
        assert any(v["invariant"] == "network.port_timeline_monotonic"
                   for v in out)
        assert exc.network.audit_violations == []  # consumed by the sweep

    @pytest.mark.parametrize("job", [PULL, PUSH], ids=["pull", "push"])
    def test_unapplied_staged_group_named(self, small_rmat, job,
                                          monkeypatch):
        """Hold one real staged group back from every apply: the sweep
        flags it and names its (machine, prop, op) key."""
        held = []
        apply_staged = JobExecution._apply_staged

        def apply_all_but_one(exc):
            if not held and exc._staged:
                held.append(min(exc._staged))
            group = exc._staged.pop(held[0], None) if held else None
            apply_staged(exc)
            if group is not None:
                exc._staged[held[0]] = group

        monkeypatch.setattr(JobExecution, "_apply_staged", apply_all_but_one)
        with pytest.raises(AuditViolation) as ei:
            run_audited(small_rmat, job, ghost_threshold=None)
        (bad,) = ei.value.violations
        assert bad["invariant"] == "staging.undrained"
        assert held[0][1:] == ("t", "SUM")
        assert repr(held[0]) in bad["detail"]

    def test_violation_raises_with_context(self, small_rmat):
        exc = self._finished(small_rmat)
        exc.sync_outstanding = 1
        exc.workers[0][0].parked.append(object())
        with pytest.raises(AuditViolation) as ei:
            check_execution(exc)
        err = ei.value
        assert len(err.violations) == 2
        assert err.violations[0]["job"] == "j"
        assert "phase" in err.violations[0] and "time" in err.violations[0]
        assert "+1 more" in str(err)


class TestStreamInvariants:
    """Out-of-core window streams: drained, nothing resident, every disk
    byte charged once (readahead included), a stall clock that cannot
    exceed the read it waited on, and at most three windows resident."""

    def _streamed(self, graph, **kwargs):
        # windows of num_workers x chunk_size = 128 edges
        _, exc = run_audited(graph, PUSH, ghost_threshold=20, chunk_size=64,
                             num_workers=2, out_of_core=True, **kwargs)
        assert all(len(s.windows) >= 2 for s in exc.window_streams)
        return exc

    def _adopting(self, graph):
        """A second streamed job on the same cluster: it adopts the first
        job's readahead of window 0 on every machine."""
        cluster, first = run_audited(graph, PUSH, ghost_threshold=20,
                                     chunk_size=64, num_workers=2,
                                     out_of_core=True)
        assert check_execution(first) == []
        exc = JobExecution(cluster, first.dgraph, PUSH, cluster.hooks)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert all(s.readahead_adopted > 0 for s in exc.window_streams)
        return exc

    def test_streamed_job_sweeps_clean(self, small_rmat):
        assert check_execution(self._streamed(small_rmat)) == []

    def test_adopting_job_sweeps_clean(self, small_rmat):
        assert check_execution(self._adopting(small_rmat)) == []

    def test_streamed_job_under_faults_sweeps_clean(self, small_rmat):
        plan = FaultPlan(seed=3, drop_prob=0.05, dup_prob=0.05,
                         delay_prob=0.1, delay_seconds=1e-4)
        assert check_execution(self._streamed(small_rmat,
                                              fault_plan=plan)) == []

    def test_undrained_stream_detected(self, small_rmat):
        exc = self._streamed(small_rmat)
        stream = exc.window_streams[2]
        stream.unfinished = {len(stream.windows) - 1: 1}
        stream.inflight = 1
        stream.resident_bytes = 3072.0
        out = check_execution(exc, raise_on_violation=False)
        assert {v["invariant"] for v in out} == {
            "stream.exhausted", "stream.inflight", "stream.resident_bytes"}
        assert all(v["machine"] == 2 for v in out)

    def test_stall_longer_than_read_raises_with_machine_and_window(
            self, small_rmat):
        """The old grab-time stamp's signature, made impossible to miss: a
        successor cannot stall longer than its own read."""
        exc = self._streamed(small_rmat)
        acts = exc.window_streams[1].activations
        idle, start, duration, stall = acts[1]
        assert 0.0 <= stall <= duration
        acts[1] = (idle, start, duration, duration * 1.5)
        with pytest.raises(AuditViolation) as ei:
            check_execution(exc)
        (bad,) = ei.value.violations
        assert bad["invariant"] == "stream.stall"
        assert bad["machine"] == 1 and bad["window"] == 1

    def test_stall_off_its_definition_names_machine_and_window(
            self, small_rmat):
        """A stall inside the read's bounds is still wrong when it is not
        the read's device time after the queue emptied."""
        exc = self._streamed(small_rmat)
        acts = exc.window_streams[3].activations
        idle, start, duration, stall = acts[0]
        assert stall == duration - max(0.0, idle - start) > 0.0
        acts[0] = (idle, start, duration, 0.5 * stall)
        out = check_execution(exc, raise_on_violation=False)
        assert [(v["invariant"], v["machine"], v["window"]) for v in out] \
            == [("stream.stall", 3, 0)]

    def test_window_byte_count_mismatch_names_machine(self, small_rmat):
        """A window claiming one byte more than the disk read and the job
        charged breaks disk-byte conservation on that machine only."""
        exc = self._streamed(small_rmat)
        stream = exc.window_streams[3]
        assert (stream.machine.disk.bytes_read - stream.disk_bytes_at_start
                == stream.bytes_charged > 0)
        chunks, disk_bytes, resident = stream.windows[1]
        stream.windows[1] = (chunks, disk_bytes + 1.0, resident)
        with pytest.raises(AuditViolation) as ei:
            check_execution(exc)
        (bad,) = ei.value.violations
        assert bad["invariant"] == "stream.disk_bytes"
        assert bad["machine"] == 3

    def test_readahead_charged_twice_names_machine(self, small_rmat):
        """An adopting job that also charged the adopted window's bytes
        counts the issuer's readahead a second time."""
        exc = self._adopting(small_rmat)
        stream = exc.window_streams[1]
        stream.bytes_charged += stream.readahead_adopted
        exc.stats.disk_bytes_read += stream.readahead_adopted
        out = check_execution(exc, raise_on_violation=False)
        assert [(v["invariant"], v["machine"]) for v in out] \
            == [("stream.disk_bytes", 1)]

    def test_negative_stall_detected(self, small_rmat):
        exc = self._streamed(small_rmat)
        acts = exc.window_streams[0].activations
        idle, start, duration, _ = acts[0]
        acts[0] = (idle, start, duration, -1e-9)
        out = check_execution(exc, raise_on_violation=False)
        assert [(v["invariant"], v["machine"], v["window"]) for v in out] \
            == [("stream.stall", 0, 0)]

    def test_resident_high_water_names_machine(self, small_rmat):
        """More than two running windows plus one loading would have held
        over three windows' resolved bytes at once."""
        exc = self._streamed(small_rmat)
        stream = exc.window_streams[2]
        largest = max(r for _, _, r in stream.windows)
        assert 0 < stream.peak_resident <= 3 * largest
        stream.peak_resident = 3 * largest + 24.0
        out = check_execution(exc, raise_on_violation=False)
        assert [(v["invariant"], v["machine"]) for v in out] \
            == [("stream.resident", 2)]

