"""Out-of-core streaming: bit identity, windows, DRAM capacity, disk tier.

The streamed mode may only change *when* chunks become runnable — never
what they compute.  These tests pin that invariant (PageRank/SSSP/WCC
fingerprints across window sizes and schedule perturbations), the window
builder's edge cases, the byte-coded on-disk format (reference-codec byte
counts),
the stall clock (compute-bound and disk-bound oracles), the drain at the
last chunk's end, the DRAM capacity gate, config validation, fault recovery
mid-stream, and the disk tier's observability surface (stats, metrics,
report line, profiler spans).
"""

import numpy as np
import pytest

from repro import (ClusterConfig, ConfigError, EdgeMapJob, EdgeMapSpec,
                   EngineConfig, FaultPlan, MachineConfig, MachineCrash,
                   OutNbrIterTask, PgxdCluster, ReduceOp, TaskJob, rmat)
from repro.algorithms import pagerank, sssp, wcc
from repro.core.task_manager import build_windows
from repro.core.jobrunner import JobExecution
from repro.obs.report import disk_summary, render_overhead_report
from repro.runtime.disk import (DiskModel, DramCapacityError,
                                encoded_row_prefix, window_bytes)
from tests.conftest import make_cluster
from tests.runtime.test_disk_format import encode_rows, encode_window


def _ooc_cluster(window_edges=512, tie_seed=None, **engine_kwargs):
    cluster = make_cluster(out_of_core=True, ooc_window_edges=window_edges,
                           **engine_kwargs)
    if tie_seed is not None:
        cluster.sim.set_tie_breaker(tie_seed)
    return cluster


def _disk_reads(cluster) -> list:
    """Record every ``disk.read`` payload the cluster emits from now on."""
    events: list = []
    cluster.hooks.subscribe("disk.read", events.append)
    return events


def _streamed_jobs(events) -> int:
    """Streamed jobs behind ``events``: machine 0 reads its window 0 once
    per job."""
    return sum(1 for e in events if e["machine"] == 0 and e["window"] == 0)


def _format_bytes(events, graph, edge_columns, direction="out") -> float:
    """Oracle bytes of the streamed jobs behind ``events``: every job
    streams each row of the ``direction`` CSR once as the reference codec
    writes it (a row's bytes depend on its global id and neighbors, never
    on its machine or window), 8 B per edge per edge column, and one 8 B
    header per window read."""
    starts, nbrs = ((graph.out_starts, graph.out_nbrs) if direction == "out"
                    else (graph.in_starts, graph.in_nbrs))
    rows = len(encode_rows(starts, nbrs, 0, 0, graph.num_nodes))
    jobs = _streamed_jobs(events)
    return (jobs * (rows + 8.0 * edge_columns * graph.num_edges)
            + 8.0 * len(events))


def _results(cluster, graph, workload):
    dg = cluster.load_graph(graph)
    if workload == "pagerank":
        r = pagerank(cluster, dg, max_iterations=3, tolerance=0.0)
        return r.values["pr"]
    if workload == "sssp":
        r = sssp(cluster, dg, root=0, max_iterations=3)
        return r.values["dist"]
    r = wcc(cluster, dg, max_iterations=3)
    return r.values["component"]


class TestBitIdentity:
    """Streamed results must equal the DRAM-resident run bit for bit."""

    @pytest.mark.parametrize("workload", ["pagerank", "sssp", "wcc"])
    def test_streamed_matches_inmemory(self, small_rmat_weighted, workload):
        base = _results(make_cluster(), small_rmat_weighted, workload)
        streamed = _results(_ooc_cluster(), small_rmat_weighted, workload)
        assert np.array_equal(base, streamed)

    @pytest.mark.parametrize("workload", ["pagerank", "sssp", "wcc"])
    @pytest.mark.parametrize("tie_seed", [7001, 7002, 7003])
    def test_streamed_under_schedule_perturbation(self, small_rmat_weighted,
                                                  workload, tie_seed):
        base = _results(make_cluster(), small_rmat_weighted, workload)
        streamed = _results(_ooc_cluster(tie_seed=tie_seed),
                            small_rmat_weighted, workload)
        assert np.array_equal(base, streamed)

    def test_window_size_never_changes_results(self, small_rmat_weighted):
        for workload in ("pagerank", "sssp", "wcc"):
            base = _results(make_cluster(), small_rmat_weighted, workload)
            for window in (64, 512, 10**9):
                got = _results(_ooc_cluster(window_edges=window),
                               small_rmat_weighted, workload)
                assert np.array_equal(base, got), (workload, window)

    def test_work_counts_match_inmemory(self, small_rmat_weighted):
        c0 = make_cluster()
        dg0 = c0.load_graph(small_rmat_weighted)
        s0 = pagerank(c0, dg0, max_iterations=2, tolerance=0.0).stats
        c1 = _ooc_cluster()
        dg1 = c1.load_graph(small_rmat_weighted)
        s1 = pagerank(c1, dg1, max_iterations=2, tolerance=0.0).stats
        for f in ("tasks_executed", "edges_processed", "local_reads",
                  "remote_reads", "local_writes", "remote_writes"):
            assert getattr(s0, f) == getattr(s1, f), f


class TestPayForPlay:
    """With the flag off, the windowed machinery must cost nothing."""

    def test_inmemory_timing_unchanged_by_knob(self, small_rmat_weighted):
        """The window-size knob is inert while out_of_core is off: the
        simulated clock of the in-memory mode cannot move."""

        def elapsed(**kw):
            cluster = make_cluster(**kw)
            dg = cluster.load_graph(small_rmat_weighted)
            pagerank(cluster, dg, max_iterations=3, tolerance=0.0)
            return cluster.now

        assert elapsed() == elapsed(out_of_core=False, ooc_window_edges=17)

    @pytest.mark.parametrize("workload,now", [
        ("pagerank", 0.0005359851370288626),
        ("sssp", 0.0003019205371583191),
        ("wcc", 0.0004922688257449066)])
    def test_inmemory_clock_pinned(self, small_rmat_weighted, workload, now):
        """Resolve-on-load is charged to streaming jobs only: the in-memory
        clock reads what it read before the compact format existed (SSSP
        and WCC: with their MIN writes combined at the sender)."""
        cluster = make_cluster()
        _results(cluster, small_rmat_weighted, workload)
        assert cluster.now == now

    def test_no_disk_activity_when_off(self, small_rmat_weighted):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat_weighted)
        st = pagerank(cluster, dg, max_iterations=2, tolerance=0.0).stats
        assert st.disk_bytes_read == 0.0
        assert st.disk_stall_seconds == 0.0
        assert not any(disk_summary(cluster.metrics).values())
        for m in dg.machines:
            assert m.disk.reads == 0


def _consecutive_csr(starts):
    """Row ``i`` (global id ``i``) points at the next ``deg(i)`` ids after
    its predecessor's: first delta ``starts[i] - i``, then deltas of 1."""
    starts = np.asarray(starts, dtype=np.int64)
    nbrs = np.arange(starts[-1], dtype=np.int64)
    return starts, nbrs, encoded_row_prefix(starts, nbrs, 0)


class TestBuildWindows:
    def test_groups_consecutive_chunks(self):
        starts, nbrs, prefix = _consecutive_csr([0, 10, 20, 30, 40])
        chunks = [(0, 1), (1, 2), (2, 3), (3, 4)]
        windows = build_windows(chunks, starts, prefix, 20)
        assert [w[0] for w in windows] == [[(0, 1), (1, 2)],
                                          [(2, 3), (3, 4)]]
        # on disk: 8 B header + per row a 1 B degree and ten 1 B deltas;
        # in DRAM: 20 edges x 24 B resolved
        assert [w[1:] for w in windows] == [(30.0, 480.0)] * 2
        assert [len(encode_window(starts, nbrs, 0, lo, hi))
                for lo, hi in ((0, 2), (2, 4))] == [30, 30]

    def test_edge_columns_add_eight_bytes_per_edge(self):
        starts, _, prefix = _consecutive_csr([0, 10, 20, 30, 40])
        chunks = [(0, 1), (1, 2), (2, 3), (3, 4)]
        plain = build_windows(chunks, starts, prefix, 20)
        for columns in (1, 2):
            wide = build_windows(chunks, starts, prefix, 20, columns)
            for (_, d0, r0), (_, d1, r1) in zip(plain, wide):
                assert d1 - d0 == 20 * 8.0 * columns
                assert r1 == r0  # weights were never part of the 24 B

    def test_window_disk_bytes_closed_form(self):
        """Header + the prefix's encoded rows + 8 B per edge per column,
        equal to the reference codec's length for every term."""
        starts, nbrs, prefix = _consecutive_csr([0, 10, 20, 30, 40])
        weights = np.ones(len(nbrs))
        assert window_bytes(prefix, 0, 0, 0, 0) == 8.0 == len(
            encode_window(starts, nbrs, 0, 0, 0))
        for columns in (0, 1):
            got = window_bytes(prefix, 0, 4, 40, columns)
            assert got == 8.0 + 44.0 + 320.0 * columns
            assert got == len(encode_window(starts, nbrs, 0, 0, 4,
                                            (weights,) * columns))

    def test_hub_chunk_gets_own_window(self):
        # one vertex with more edges than the whole window budget
        starts, _, prefix = _consecutive_csr([0, 2, 1002, 1004])
        chunks = [(0, 1), (1, 2), (2, 3)]
        windows = build_windows(chunks, starts, prefix, 16)
        assert [w[0] for w in windows] == [[(0, 1)], [(1, 2)], [(2, 3)]]

    def test_empty_chunks(self):
        starts, _, prefix = _consecutive_csr([0])
        assert build_windows([], starts, prefix, 16) == []

    def test_chunk_boundaries_preserved(self):
        """Windows regroup chunks; they never split or reorder them."""
        starts, _, prefix = _consecutive_csr(np.arange(0, 55, 6))
        chunks = [(i, i + 1) for i in range(len(starts) - 1)]
        windows = build_windows(chunks, starts, prefix, 13)
        flat = [c for w, _, _ in windows for c in w]
        assert flat == chunks


class TestWindowEdgeCases:
    def test_window_smaller_than_hub_edge_list(self):
        """A hub whose edge list exceeds the window budget streams as a
        single-chunk window and still reproduces the in-memory result."""
        g = rmat(200, 4000, seed=3)  # skewed: hubs exceed tiny windows
        base = _results(make_cluster(), g, "pagerank")
        got = _results(_ooc_cluster(window_edges=8), g, "pagerank")
        assert np.array_equal(base, got)

    def test_empty_partitions(self, tiny_graph):
        """Machines that own no edges produce zero windows and must not
        deadlock the done-rule."""
        base = _results(make_cluster(num_machines=4), tiny_graph, "pagerank")
        got = _results(_ooc_cluster(), tiny_graph, "pagerank")
        assert np.array_equal(base, got)

    def test_single_window_graph(self, small_rmat_weighted):
        """A window budget above the whole graph degenerates to one read
        per machine per job — still correct, minimal stall."""
        cluster = _ooc_cluster(window_edges=10**9)
        events = _disk_reads(cluster)
        dg = cluster.load_graph(small_rmat_weighted)
        st = pagerank(cluster, dg, max_iterations=1, tolerance=0.0).stats
        assert len(events) == 4 and {e["window"] for e in events} == {0}
        # PageRank pull streams the in-CSR
        assert st.disk_bytes_read == _format_bytes(
            events, small_rmat_weighted, 0, direction="in")


class TestDiskFormat:
    """The device is busy for the byte-coded shard format, nothing more."""

    def test_pagerank_reads_ids_and_row_pointers(self, small_rmat_weighted):
        """Ids as neighbor deltas, row pointers as degrees: the reference
        codec's bytes, under half the old 4 B id per edge."""
        g = small_rmat_weighted
        cluster = _ooc_cluster(window_edges=128, chunk_size=64)
        events = _disk_reads(cluster)
        dg = cluster.load_graph(g)
        st = pagerank(cluster, dg, variant="push", max_iterations=3,
                      tolerance=0.0).stats
        assert max(e["window"] for e in events) >= 2  # really windowed
        assert st.disk_bytes_read == _format_bytes(events, g, 0)
        assert st.disk_bytes_read < (0.5 * 4.0 * g.num_edges
                                     * _streamed_jobs(events))
        assert sum(m.disk.bytes_read for m in dg.machines) \
            == st.disk_bytes_read

    def test_weighted_sssp_reads_eight_more_bytes_per_edge(
            self, small_rmat_weighted):
        """Same out-CSR windows as PageRank push, plus the weight column —
        though the graph carries weights for both, only SSSP reads them."""
        g = small_rmat_weighted

        def per_job(run, columns):
            cluster = _ooc_cluster(window_edges=128, chunk_size=64)
            events = _disk_reads(cluster)
            st = run(cluster, cluster.load_graph(g)).stats
            assert st.disk_bytes_read == _format_bytes(events, g, columns)
            return st.disk_bytes_read / _streamed_jobs(events)

        def pr(cluster, dg):
            return pagerank(cluster, dg, variant="push", max_iterations=2,
                            tolerance=0.0)

        def sp(cluster, dg):
            return sssp(cluster, dg, root=0, max_iterations=3)

        assert per_job(sp, 1) - per_job(pr, 0) == 8.0 * g.num_edges

    def test_free_form_task_streams_every_edge_column(
            self, small_rmat_weighted):
        """The engine cannot see which columns a hand-written task reads, so
        a TaskJob streams them all; a TaskJob built by ``as_task_job()``
        still has its spec and streams only what that names."""
        g = small_rmat_weighted  # one edge column: the weights

        class Push(OutNbrIterTask):
            def run(self, ctx):
                ctx.write_remote(ctx.nbr_id(), "t",
                                 ctx.get_local(ctx.node_id(), "x"),
                                 ReduceOp.SUM)

        spec_job = EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM))
        task_job = TaskJob(name="j", task_cls=Push, reads=("x",),
                           writes=(("t", ReduceOp.SUM),))
        got = []
        for job in (spec_job, spec_job.as_task_job(), task_job):
            cluster = _ooc_cluster(window_edges=128, chunk_size=64)
            dg = cluster.load_graph(g)
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
            got.append(cluster.run_job(dg, job).disk_bytes_read)
        assert got[1] == got[0]
        assert got[2] - got[0] == 8.0 * g.num_edges


class TestStallClock:
    """A stall is the gap between the previous window's last chunk *ending*
    and this window's read completing."""

    def _run(self, graph, **machine):
        cfg = ClusterConfig(num_machines=4).with_machine(**machine) \
            .with_engine(ghost_threshold=40, chunk_size=64, num_workers=4,
                         num_copiers=2, out_of_core=True,
                         ooc_window_edges=128)
        cluster = PgxdCluster(cfg)
        events = _disk_reads(cluster)
        dg = cluster.load_graph(graph)
        st = pagerank(cluster, dg, variant="push", max_iterations=2,
                      tolerance=0.0).stats
        assert max(e["window"] for e in events) >= 2
        return cluster, events, st

    def test_compute_bound_stalls_only_on_first_windows(
            self, small_rmat_weighted):
        """With a disk far faster than the chunks every successor window is
        loaded before its predecessor drains: the only stall left is each
        machine's cold first read."""
        cluster, events, st = self._run(small_rmat_weighted,
                                        disk_seq_bw=1e15,
                                        disk_seek_time=1e-12)
        first = [e for e in events if e["window"] == 0]
        assert all(e["stall"] == 0.0 for e in events if e["window"] > 0)
        assert st.disk_stall_seconds == pytest.approx(
            sum(e["duration"] for e in first), rel=1e-6)
        assert st.disk_stall_seconds > 0.0

    def test_disk_bound_stall_strictly_below_read(self, small_rmat_weighted):
        """The regression test for the old identity: stamped at grab time,
        every window "drained" the instant it activated and stall equalled
        read to the last digit.  Chunks take time, so it must be less."""
        cluster, events, st = self._run(small_rmat_weighted)  # 500 MB/s SSD
        read = sum(e["duration"] for e in events)
        assert 0.0 < st.disk_stall_seconds < read
        # every successor waited less than its own read: the difference is
        # the compute its read overlapped
        later = [e for e in events if e["window"] > 0]
        assert all(0.0 < e["stall"] < e["duration"] for e in later)

    def test_stall_is_read_end_minus_last_chunk_end(self, small_rmat_weighted):
        cluster = _ooc_cluster(window_edges=128, chunk_size=64)
        events = _disk_reads(cluster)
        ends: dict = {}

        def chunk_end(p):
            if p["kind"] == "chunk":
                ends.setdefault(p["machine"], []).append(
                    p["start"] + p["duration"])

        cluster.hooks.subscribe("task.chunk_end", chunk_end)
        dg = cluster.load_graph(small_rmat_weighted)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM)))
        for e in events:
            if e["window"] == 0:
                continue
            done_before = [t for t in ends[e["machine"]] if t <= e["time"]]
            assert e["stall"] == pytest.approx(
                e["time"] - max(done_before), rel=1e-9)


class TestDrainAtLastChunkEnd:
    def _execution(self, graph, **engine):
        cluster = _ooc_cluster(window_edges=128, chunk_size=64, **engine)
        dg = cluster.load_graph(graph)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        exc = JobExecution(cluster, dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM)))
        return cluster, dg, exc

    def test_nothing_resident_when_job_ends(self, small_rmat_weighted):
        cluster, dg, exc = self._execution(small_rmat_weighted)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        for stream, m in zip(exc.window_streams, dg.machines):
            assert stream.exhausted and stream.inflight == 0
            assert stream.resident_bytes == 0
            assert len(stream.activations) == len(stream.windows) >= 2
            for chunks, _, _ in stream.windows:
                for lo, hi in chunks:
                    for ghost_ok in (False, True):
                        assert ("out", lo, hi, ghost_ok) \
                            not in m.plan_cache._plans

    def test_window_stays_resident_until_its_last_chunk_ends(
            self, small_rmat_weighted):
        """While any chunk of the active window is still running, its
        resolved bytes and its plans are in DRAM and no successor runs."""
        cluster, dg, exc = self._execution(small_rmat_weighted)
        seen = []

        def chunk_end(p):
            if p["kind"] != "chunk":
                return
            stream = exc.window_streams[p["machine"]]
            # emitted before chunk_done(): the finishing chunk still counts
            assert stream.active_chunks >= 1
            chunks, _, resident = stream.windows[stream.active_window]
            assert stream.resident_bytes >= resident
            seen.append(p["machine"])

        cluster.hooks.subscribe("task.chunk_end", chunk_end)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert set(seen) == {0, 1, 2, 3}


class TestConfigValidation:
    @pytest.mark.parametrize("window", [0, -1])
    def test_window_budget_must_be_positive(self, window):
        with pytest.raises(ConfigError, match="ooc_window_edges"):
            EngineConfig(ooc_window_edges=window)
        with pytest.raises(ConfigError, match="ooc_window_edges"):
            ClusterConfig().with_engine(ooc_window_edges=window)

    @pytest.mark.parametrize("bw", [0.0, -5.0])
    def test_disk_bandwidth_must_be_positive(self, bw):
        with pytest.raises(ConfigError, match="disk_seq_bw"):
            MachineConfig(disk_seq_bw=bw)
        with pytest.raises(ConfigError, match="disk_seq_bw"):
            ClusterConfig().with_machine(disk_seq_bw=bw)

    def test_seek_time_must_not_be_negative(self):
        with pytest.raises(ConfigError, match="disk_seek_time"):
            MachineConfig(disk_seek_time=-1e-6)
        assert MachineConfig(disk_seek_time=0.0).disk_seek_time == 0.0

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestFaultsWhileStreaming:
    def test_crash_mid_window_recovers(self, small_rmat, tmp_path):
        base = _results(make_cluster(), small_rmat, "pagerank")

        # time an undisturbed streamed run to aim the crash mid-stream
        probe = _ooc_cluster()
        dgp = probe.load_graph(small_rmat)
        pagerank(probe, dgp, max_iterations=3, tolerance=0.0)
        crash_at = 0.5 * probe.now

        plan = FaultPlan(seed=11,
                         crashes=(MachineCrash(machine=2, at=crash_at),))
        cluster = _ooc_cluster(fault_plan=plan)
        dg = cluster.load_graph(small_rmat)
        ckpt = str(tmp_path / "ooc.npz")
        cluster.enable_auto_checkpoint(dg, ckpt, every=1, recover=True)
        got = pagerank(cluster, dg, max_iterations=3,
                       tolerance=0.0).values["pr"]
        from repro.obs.report import fault_summary

        fs = fault_summary(cluster.metrics)
        assert fs["recoveries"] >= 1
        assert np.array_equal(base, got)


class TestDramCapacity:
    def _tiny_dram_config(self, dram_bytes, **engine_kwargs):
        return ClusterConfig(num_machines=4).with_machine(
            dram_bytes=dram_bytes).with_engine(
                ghost_threshold=40, chunk_size=256, num_workers=4,
                num_copiers=2, **engine_kwargs)

    def test_oversized_graph_refused_in_memory(self, small_rmat):
        cluster = PgxdCluster(self._tiny_dram_config(1024.0))
        with pytest.raises(DramCapacityError) as ei:
            cluster.load_graph(small_rmat)
        assert "out_of_core" in str(ei.value)

    def test_oversized_graph_streams(self, small_rmat):
        """A graph whose edge arrays exceed a machine's DRAM by >= 10x
        completes streamed on the 4-machine cluster, bit-identically."""
        base = _results(make_cluster(), small_rmat, "pagerank")
        per_machine = (small_rmat.num_edges * 2 * 24.0) / 4
        dram = per_machine / 10.0  # edge bytes >= 10x modeled DRAM
        cfg = self._tiny_dram_config(dram, out_of_core=True,
                                     ooc_window_edges=256)
        cluster = PgxdCluster(cfg)
        events = _disk_reads(cluster)
        got = _results(cluster, small_rmat, "pagerank")
        assert np.array_equal(base, got)
        assert disk_summary(cluster.metrics)["bytes_read"] == _format_bytes(
            events, small_rmat, 0, direction="in")


class TestDiskModel:
    def test_read_time(self):
        cfg = ClusterConfig().machine
        dm = DiskModel(cfg)
        assert dm.read_time(0) == 0.0
        expected = cfg.disk_seek_time + 1e6 / cfg.disk_seq_bw
        assert dm.read_time(1e6) == pytest.approx(expected)

    def test_serial_timeline(self):
        dm = DiskModel(ClusterConfig().machine)
        end1 = dm.occupy(0.0, 1e6)
        end2 = dm.occupy(0.0, 1e6)  # issued concurrently -> queues
        assert end2 == pytest.approx(2 * end1)
        assert dm.reads == 2
        assert dm.bytes_read == 2e6
        dm.reset()
        assert dm.occupy(0.0, 1e6) == pytest.approx(end1)


class TestDiskObservability:
    def test_stats_and_metrics(self, small_rmat_weighted):
        cluster = _ooc_cluster(window_edges=256)
        events = _disk_reads(cluster)
        dg = cluster.load_graph(small_rmat_weighted)
        st = pagerank(cluster, dg, max_iterations=2, tolerance=0.0).stats
        ds = disk_summary(cluster.metrics)
        assert ds["bytes_read"] == st.disk_bytes_read == sum(
            e["nbytes"] for e in events)
        assert ds["reads"] == len(events)
        assert ds["read_seconds"] == pytest.approx(
            sum(e["duration"] for e in events), rel=1e-12)
        assert ds["stall_seconds"] == pytest.approx(
            st.disk_stall_seconds, rel=1e-12)
        assert st.disk_stall_seconds == pytest.approx(
            sum(e["stall"] for e in events), rel=1e-12)

    def test_report_line(self, small_rmat_weighted):
        cluster = _ooc_cluster(window_edges=256)
        dg = cluster.load_graph(small_rmat_weighted)
        pagerank(cluster, dg, max_iterations=2, tolerance=0.0)
        text = render_overhead_report(cluster.metrics)
        assert "disk tier:" in text
        assert "disk" in [line.split()[0] for line in text.splitlines()
                          if line and "|" in line]

    def test_report_suppressed_when_off(self, small_rmat_weighted):
        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat_weighted)
        pagerank(cluster, dg, max_iterations=2, tolerance=0.0)
        assert "disk tier:" not in render_overhead_report(cluster.metrics)

    def test_profiler_disk_spans(self, small_rmat_weighted):
        from repro.obs.profiler import SpanProfiler

        cluster = _ooc_cluster(window_edges=256)
        dg = cluster.load_graph(small_rmat_weighted)
        with SpanProfiler(cluster) as prof:
            pagerank(cluster, dg, max_iterations=2, tolerance=0.0)
        slices = [sl for p in prof.profiles for sl in p.slices
                  if sl.kind == "disk-read"]
        assert slices, "disk reads must appear as profiler spans"
        assert all(sl.lane == "disk" for sl in slices)

    def test_plan_cache_evicts_with_windows(self, small_rmat_weighted):
        """A plan is the resolved window: one built per chunk per streamed
        job, every one of them dropped at its window's drain."""
        cluster = _ooc_cluster(window_edges=256)
        dg = cluster.load_graph(small_rmat_weighted)
        pagerank(cluster, dg, max_iterations=2, tolerance=0.0)
        for m in dg.machines:
            cache = m.plan_cache
            assert cache.hits == 0 and cache.misses > 0
            assert cache.evicted == cache.misses
            assert len(cache) == 0 and cache.nbytes == 0


class TestAuditIntegration:
    def test_out_of_core_scenario_passes(self, small_rmat_weighted):
        from repro.audit.harness import AuditHarness, AuditScenario

        harness = AuditHarness(small_rmat_weighted,
                               ClusterConfig(num_machines=2).with_engine(
                                   num_workers=2, num_copiers=1),
                               schedules=2, iterations=2)
        sc = AuditScenario("pagerank/out-of-core", "pagerank",
                           out_of_core=True)
        assert sc.engine_overrides()["out_of_core"] is True
        verdict = harness.run_scenario(sc)
        assert verdict.passed, verdict.diffs

    def test_streamed_fingerprint_equals_inmemory(self, small_rmat_weighted):
        """Cross-scenario check: the streamed schedule's fingerprint equals
        the in-memory one (the audit matrix only compares within a
        scenario; the acceptance bar compares across modes)."""
        from repro.audit.harness import AuditHarness, AuditScenario

        harness = AuditHarness(small_rmat_weighted,
                               ClusterConfig(num_machines=2).with_engine(
                                   num_workers=2, num_copiers=1),
                               schedules=1, iterations=2)
        runs = {}
        for name, ooc in (("mem", False), ("ooc", True)):
            sc = AuditScenario(name, "sssp", out_of_core=ooc)
            runs[name] = harness._run_solo(sc, None).fingerprints["solo"]
        assert runs["mem"] == runs["ooc"]
