"""JobStats accumulation and the Figure 6(c) imbalance breakdown."""

import pytest

from repro.runtime.stats import Breakdown, JobStats


def make_stats(span=(0.0, 10.0)):
    st = JobStats(start_time=span[0], end_time=span[1])
    return st


def busy(st, machine, worker, start, end):
    """Record a worker slice ``[start, end]`` (the values here are exact
    in binary, so ``start + (end - start) == end``)."""
    st.chunks.append((-1, machine, worker, "chunk", start, end - start))


def message(st, kind, nbytes, deliver=1e-6):
    """Record a fabric message sent at 0 (``deliver`` None: dropped)."""
    st.sends.append((-1, 0, 1, kind, nbytes, 0.0, deliver))


class TestJobStats:
    def test_elapsed(self):
        st = make_stats((2.0, 5.0))
        assert st.elapsed == pytest.approx(3.0)

    def test_total_bytes(self):
        st = make_stats()
        message(st, "read_req", 100)
        message(st, "write_req", 50, deliver=None)
        assert st.total_bytes == 150
        assert st.bytes_by_kind == {"read_req": 100, "write_req": 50}
        with pytest.raises(TypeError):  # a view of the rows
            st.bytes_by_kind["read_req"] = 0

    def test_record_busy_ignores_empty_intervals(self):
        st = make_stats()
        busy(st, 0, 0, 5.0, 5.0)
        assert len(st.chunks) == 1  # a zero-length slice is still a chunk
        assert dict(st.busy_intervals) == {}

    def test_merge_from_accumulates(self):
        a, b = make_stats(), make_stats()
        for _ in range(3):
            message(a, "x", 1)
        for _ in range(4):
            message(b, "x", 1)
        message(b, "y", 7)
        a.merge_from(b)
        assert a.messages == 8
        assert a.bytes_by_kind == {"x": 7, "y": 7}

    def test_merge_from_joins_the_record(self):
        a, b = make_stats(), make_stats()
        a.count("flushes", "read_req", 2)
        a.counts[("queue_depth", 0)] = 3
        message(a, "read_req", 96)
        b.count("flushes", "read_req")
        b.counts[("queue_depth", 0)] = 0
        message(b, "read_req", 96, deliver=None)
        b.copier_passes.append((7, 0, 1, "read_req", 0.5, 0.25))
        a.merge_from(b)
        assert a.counts == {("flushes", "read_req"): 3,
                            ("queue_depth", 0): 0}  # the later job's
        assert a.messages == 2 and a.bytes_by_kind == {"read_req": 192}
        assert a.sends == [(-1, 0, 1, "read_req", 96, 0.0, 1e-6),
                           (-1, 0, 1, "read_req", 96, 0.0, None)]
        assert a.copier_passes == [(7, 0, 1, "read_req", 0.5, 0.25)]

    def test_merge_from_keeps_busy_intervals(self):
        """Regression: merge used to drop the other side's busy intervals."""
        a, b = make_stats((0.0, 5.0)), make_stats((5.0, 10.0))
        busy(a, 0, 0, 0.0, 4.0)
        busy(b, 0, 0, 5.0, 9.0)
        busy(b, 1, 2, 6.0, 8.0)
        a.merge_from(b)
        assert a.busy_intervals[0][0] == [(0.0, 4.0), (5.0, 9.0)]
        assert a.busy_intervals[1][2] == [(6.0, 8.0)]

    def test_merge_from_extends_end_time(self):
        """Regression: merge used to leave end_time at the first job's end."""
        a, b = make_stats((0.0, 5.0)), make_stats((5.0, 10.0))
        a.merge_from(b)
        assert a.end_time == pytest.approx(10.0)
        assert a.elapsed == pytest.approx(10.0)

    def test_merge_from_does_not_rewind_end_time(self):
        a, b = make_stats((0.0, 10.0)), make_stats((2.0, 5.0))
        a.merge_from(b)
        assert a.end_time == pytest.approx(10.0)

    def test_merge_from_sums_metrics_delta(self):
        a, b = make_stats(), make_stats()
        a.metrics_delta = {"x_total": 1.0, "y_total": 2.0}
        b.metrics_delta = {"x_total": 3.0, "z_total": 5.0}
        a.merge_from(b)
        assert a.metrics_delta == {"x_total": 4.0, "y_total": 2.0,
                                   "z_total": 5.0}


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        bd = Breakdown(fully_parallel=1.0, intra_machine=2.0, inter_machine=1.0)
        fr = bd.as_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_empty_breakdown_fractions(self):
        fr = Breakdown().as_fractions()
        assert all(v == 0.0 for v in fr.values())

    def test_all_workers_busy_is_fully_parallel(self):
        st = make_stats((0.0, 10.0))
        for m in range(2):
            for w in range(2):
                busy(st, m, w, 0.0, 10.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.fully_parallel == pytest.approx(10.0)
        assert bd.intra_machine == pytest.approx(0.0)
        assert bd.inter_machine == pytest.approx(0.0)

    def test_idle_worker_within_machine_is_intra(self):
        st = make_stats((0.0, 10.0))
        busy(st, 0, 0, 0.0, 10.0)
        busy(st, 0, 1, 0.0, 5.0)  # worker 1 idles from t=5
        busy(st, 1, 0, 0.0, 10.0)
        busy(st, 1, 1, 0.0, 10.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.fully_parallel == pytest.approx(5.0)
        assert bd.intra_machine == pytest.approx(5.0)
        assert bd.inter_machine == pytest.approx(0.0)

    def test_finished_machine_is_inter(self):
        st = make_stats((0.0, 10.0))
        busy(st, 0, 0, 0.0, 4.0)  # machine 0 completely done at t=4
        busy(st, 0, 1, 0.0, 4.0)
        busy(st, 1, 0, 0.0, 10.0)
        busy(st, 1, 1, 0.0, 10.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.fully_parallel == pytest.approx(4.0)
        assert bd.inter_machine == pytest.approx(6.0)

    def test_total_covers_span(self):
        st = make_stats((0.0, 8.0))
        busy(st, 0, 0, 0.0, 3.0)
        busy(st, 0, 1, 1.0, 6.0)
        busy(st, 1, 0, 0.0, 8.0)
        busy(st, 1, 1, 0.0, 7.5)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.total == pytest.approx(8.0)

    def test_no_intervals_is_all_inter(self):
        st = make_stats((0.0, 4.0))
        bd = st.breakdown(workers_per_machine=2)
        assert bd.inter_machine == pytest.approx(4.0)

    def test_single_machine_tail_is_inter(self):
        """With one machine, time after it finishes counts as inter-machine
        (the cluster waits at the barrier with nothing running anywhere)."""
        st = make_stats((0.0, 10.0))
        busy(st, 0, 0, 0.0, 6.0)
        busy(st, 0, 1, 0.0, 6.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.fully_parallel == pytest.approx(6.0)
        assert bd.inter_machine == pytest.approx(4.0)

    def test_intervals_clipped_to_span(self):
        """Busy intervals sticking out past the span must not inflate any
        bucket beyond the job's wall time."""
        st = make_stats((2.0, 8.0))
        busy(st, 0, 0, 0.0, 10.0)  # overhangs both ends
        busy(st, 0, 1, 2.0, 8.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.total == pytest.approx(6.0)
        assert bd.fully_parallel == pytest.approx(6.0)

    def test_zero_span_is_empty(self):
        st = make_stats((5.0, 5.0))
        busy(st, 0, 0, 5.0, 5.0)
        bd = st.breakdown(workers_per_machine=1)
        assert bd.total == 0.0
        assert all(v == 0.0 for v in bd.as_fractions().values())

    def test_gap_then_resume_counts_as_intra(self):
        """A worker waiting for responses mid-job shows as intra-machine."""
        st = make_stats((0.0, 10.0))
        busy(st, 0, 0, 0.0, 3.0)
        busy(st, 0, 0, 7.0, 10.0)  # idle gap [3, 7]
        busy(st, 0, 1, 0.0, 10.0)
        bd = st.breakdown(workers_per_machine=2)
        assert bd.intra_machine == pytest.approx(4.0)
        assert bd.fully_parallel == pytest.approx(6.0)
