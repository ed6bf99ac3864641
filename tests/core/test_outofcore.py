"""Out-of-core streaming: bit identity, windows, DRAM capacity, disk tier.

The streamed mode may only change *when* chunks become runnable — never
what they compute.  These tests pin that invariant (PageRank/SSSP/WCC
fingerprints across window sizes and schedule perturbations), the window
builder's edge cases, the byte-coded on-disk format (reference-codec byte
counts), the stall clock (compute-bound and disk-bound oracles), pipelined
activation and per-window drains, cross-region readahead, the DRAM
capacity gate, config validation, fault recovery mid-stream, and the disk
tier's observability surface (stats, metrics, report line, profiler
spans).
"""

import numpy as np
import pytest

from repro import (ClusterConfig, ConfigError, EdgeMapJob, EdgeMapSpec,
                   FaultPlan, MachineConfig, MachineCrash,
                   OutNbrIterTask, PgxdCluster, ReduceOp, TaskJob, rmat)
from repro.algorithms import pagerank, sssp, wcc
from repro.core import task_manager
from repro.core.task_manager import build_windows
from repro.core.jobrunner import JobExecution
from repro.obs.report import disk_summary, render_overhead_report
from repro.runtime.disk import (DiskModel, DramCapacityError,
                                encoded_row_prefix, window_bytes)
from tests.conftest import disk_reads, make_cluster
from tests.runtime.test_disk_format import encode_rows, encode_window


def _ooc_cluster(tie_seed=None, num_workers=2, chunk_size=256,
                 **engine_kwargs):
    """A streaming cluster; a window holds ``num_workers x chunk_size``
    edges (512 by default)."""
    cluster = make_cluster(out_of_core=True, num_workers=num_workers,
                           chunk_size=chunk_size, **engine_kwargs)
    if tie_seed is not None:
        cluster.sim.set_tie_breaker(tie_seed)
    return cluster


@pytest.fixture
def no_readahead(monkeypatch):
    """Streams without cross-region readahead: every job reads each of its
    windows itself, so the format oracles count each window once per job."""
    monkeypatch.setattr(task_manager, "READAHEAD", False)


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
        # windows of 64 edges, 512 edges, and a whole partition
        for workload in ("pagerank", "sssp", "wcc"):
            base = _results(make_cluster(), small_rmat_weighted, workload)
            for workers, chunk in ((1, 64), (2, 256), (4, 10**6)):
                got = _results(_ooc_cluster(num_workers=workers,
                                            chunk_size=chunk),
                               small_rmat_weighted, workload)
                assert np.array_equal(base, got), (workload, workers, chunk)

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

    def test_inmemory_timing_unchanged_by_knob(self, small_rmat_weighted,
                                               monkeypatch):
        """The streaming constants (window cap, readahead) are inert while
        out_of_core is off: the simulated clock of the in-memory mode
        cannot move."""

        def elapsed():
            cluster = make_cluster()
            dg = cluster.load_graph(small_rmat_weighted)
            pagerank(cluster, dg, max_iterations=3, tolerance=0.0)
            return cluster.now

        before = elapsed()
        monkeypatch.setattr(task_manager, "MAX_RUNNING_WINDOWS", 1)
        monkeypatch.setattr(task_manager, "READAHEAD", False)
        assert elapsed() == before

    @pytest.mark.parametrize("workload,now", [
        ("pagerank", 0.000283057293531409),
        ("sssp", 0.00022982455758913404),
        ("wcc", 0.00024578512681027153)], ids=["pagerank", "sssp", "wcc"])
    def test_inmemory_clock_pinned(self, small_rmat_weighted, workload, now):
        """Resolve-on-load is charged to streaming jobs only: the in-memory
        clock reads what it read before the compact format existed (SSSP
        and WCC: with their MIN writes combined at the sender and paying
        atomics only where they lower a target; every workload: with
        partial buffers sharing wire frames and reductions riding region
        barriers; WCC: with both edge directions swept in one region)."""
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
        assert all(m.disk.bytes_read == 0 for m in dg.machines)


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
        got = _results(_ooc_cluster(chunk_size=4), g, "pagerank")
        assert np.array_equal(base, got)

    def test_empty_partitions(self, tiny_graph):
        """Machines that own no edges produce zero windows and must not
        deadlock the done-rule."""
        base = _results(make_cluster(num_machines=4), tiny_graph, "pagerank")
        got = _results(_ooc_cluster(), tiny_graph, "pagerank")
        assert np.array_equal(base, got)

    def test_single_window_graph(self, small_rmat_weighted, no_readahead):
        """A window budget above the whole graph degenerates to one read
        per machine per job — still correct, minimal stall."""
        cluster = _ooc_cluster(chunk_size=10**6)
        dg = cluster.load_graph(small_rmat_weighted)
        st = pagerank(cluster, dg, max_iterations=1, tolerance=0.0).stats
        events = disk_reads(cluster)
        assert len(events) == 4 and {e["window"] for e in events} == {0}
        # PageRank pull streams the in-CSR
        assert st.disk_bytes_read == _format_bytes(
            events, small_rmat_weighted, 0, direction="in")


class TestDiskFormat:
    """The device is busy for the byte-coded shard format, nothing more."""

    def test_pagerank_reads_ids_and_row_pointers(self, small_rmat_weighted,
                                                 no_readahead):
        """Ids as neighbor deltas, row pointers as degrees: the reference
        codec's bytes, under half the old 4 B id per edge."""
        g = small_rmat_weighted
        cluster = _ooc_cluster(chunk_size=64)
        dg = cluster.load_graph(g)
        st = pagerank(cluster, dg, variant="push", max_iterations=3,
                      tolerance=0.0).stats
        events = disk_reads(cluster)
        assert max(e["window"] for e in events) >= 2  # really windowed
        assert st.disk_bytes_read == _format_bytes(events, g, 0)
        assert st.disk_bytes_read < (0.5 * 4.0 * g.num_edges
                                     * _streamed_jobs(events))
        assert sum(m.disk.bytes_read for m in dg.machines) \
            == st.disk_bytes_read

    def test_weighted_sssp_reads_eight_more_bytes_per_edge(
            self, small_rmat_weighted, no_readahead):
        """Same out-CSR windows as PageRank push, plus the weight column —
        though the graph carries weights for both, only SSSP reads them."""
        g = small_rmat_weighted

        def per_job(run, columns):
            cluster = _ooc_cluster(chunk_size=64)
            st = run(cluster, cluster.load_graph(g)).stats
            events = disk_reads(cluster)
            assert st.disk_bytes_read == _format_bytes(events, g, columns)
            return st.disk_bytes_read / _streamed_jobs(events)

        def pr(cluster, dg):
            return pagerank(cluster, dg, variant="push", max_iterations=2,
                            tolerance=0.0)

        def sp(cluster, dg):
            return sssp(cluster, dg, root=0, max_iterations=3)

        assert per_job(sp, 1) - per_job(pr, 0) == 8.0 * g.num_edges

    def test_free_form_task_streams_every_edge_column(
            self, small_rmat_weighted, no_readahead):
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
            cluster = _ooc_cluster(chunk_size=64)
            dg = cluster.load_graph(g)
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
            got.append(cluster.run_job(dg, job).disk_bytes_read)
        assert got[1] == got[0]
        assert got[2] - got[0] == 8.0 * g.num_edges


class TestStallClock:
    """A stall is the read's device time after the machine's chunk queue
    emptied: ``max(0, read_end - max(idle_since, read_start))``."""

    def _run(self, graph, iterations=2, **machine):
        # windows of 2 workers x 64-edge chunks
        cfg = ClusterConfig(num_machines=4).with_machine(**machine) \
            .with_engine(ghost_threshold=40, chunk_size=64, num_workers=2,
                         num_copiers=2, out_of_core=True)
        cluster = PgxdCluster(cfg)
        dg = cluster.load_graph(graph)
        st = pagerank(cluster, dg, variant="push", max_iterations=iterations,
                      tolerance=0.0).stats
        events = disk_reads(cluster)
        assert max(e["window"] for e in events) >= 2
        return cluster, events, st

    def test_compute_bound_stalls_only_on_first_windows(
            self, small_rmat_weighted):
        """With a disk far faster than the chunks, the readahead each job
        queues has landed before the next streamed job starts: window 0
        stalls for its whole read in the first job and never again."""
        cluster, events, st = self._run(small_rmat_weighted, iterations=3,
                                        disk_seq_bw=1e15,
                                        disk_seek_time=1e-12)
        first, later = {}, []
        for e in events:
            if e["window"] == 0:
                if e["machine"] in first:
                    later.append(e)
                else:
                    first[e["machine"]] = e
        assert len(first) == 4
        for e in first.values():  # cold reads, nothing to overlap
            assert e["stall"] == pytest.approx(e["duration"], rel=1e-6)
        # every later window-0 event is a readahead or its adoption
        assert all(e["stall"] == 0.0 for e in later)
        adopted = [e for e in later if e["nbytes"] == 0]
        assert len(adopted) == 4 * 2  # jobs 2 and 3 on every machine
        assert all(e["duration"] == 0.0 for e in adopted)
        assert 0.0 < st.disk_stall_seconds < 1e-9

    def test_disk_bound_stall_strictly_below_read(self, small_rmat_weighted):
        """The regression test for the old identity (stamped at grab time,
        stall equalled read to the last digit): no window stalls longer
        than its own read, and the readaheads that overlapped the
        node-kernel region leave the job's stall strictly below its device
        time.  Each adopted readahead stalls by exactly
        ``max(0, read - max(0, activation - read start))``: machines 0, 2
        and 3 land theirs before the second streamed job activates window
        0, machine 1's lands 2.6e-5 s after."""
        cluster, events, st = self._run(small_rmat_weighted)  # 500 MB/s SSD
        read = sum(e["duration"] for e in events)
        assert 0.0 < st.disk_stall_seconds < read
        assert all(0.0 <= e["stall"] <= e["duration"]
                   for e in events if e["nbytes"])
        reads: dict = {}  # window 0's cold read, then its readahead
        for e in events:
            if e["window"] == 0 and e["nbytes"]:
                reads.setdefault(e["machine"], []).append(e)
        adopted = {e["machine"]: e for e in events if e["nbytes"] == 0}
        assert len(adopted) == 4 == sum(e["nbytes"] == 0 for e in events)
        # a readahead that landed first is adopted at the activation
        # itself, where its zero-length span sits
        (activation,) = {e["start"] for e in adopted.values()
                         if e["stall"] == 0.0}
        expected = {m: max(0.0, r[1]["duration"]
                           - max(0.0, activation - r[1]["start"]))
                    for m, r in reads.items()}
        assert {m: e["stall"] for m, e in adopted.items()} == expected
        assert expected == {0: 0.0, 1: 2.577608619694397e-05, 2: 0.0, 3: 0.0}

    def test_stall_is_read_end_minus_queue_empty_time(
            self, small_rmat_weighted):
        """A chunk starts the instant it leaves the queue, so window w's
        queue emptied when the last chunk of windows ``< w`` started."""
        cluster = _ooc_cluster(chunk_size=64)
        dg = cluster.load_graph(small_rmat_weighted)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        exc = JobExecution(cluster, dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM)),
            cluster.hooks)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        events = disk_reads(cluster, exc.stats)
        taken: dict = {}
        for _, m, _, kind, start, _ in exc.stats.chunks:
            if kind == "chunk":
                taken.setdefault(m, []).append(start)
        stalled = 0
        for stream in exc.window_streams:
            m = stream.machine.index
            pops = sorted(taken[m])
            hooked: dict = {}  # the activation is each window's 1st read
            for e in events:
                if e["machine"] == m:
                    hooked.setdefault(e["window"], e["stall"])
            popped = 0
            for w, (idle, start, duration, stall) in enumerate(
                    stream.activations):
                if w > 0:
                    assert idle == pops[popped - 1]
                # max(0, read end - max(idle, read start)), exactly
                assert stall == max(0.0, duration - max(0.0, idle - start))
                assert stall == hooked[w]
                popped += len(stream.windows[w][0])
                stalled += stall > 0.0
        assert stalled > 0


class TestDrainAtLastChunkEnd:
    """Each window leaves DRAM when its own last chunk ends, while its
    successor's chunks may already run beside it."""

    def _execution(self, graph, cluster=None):
        cluster = cluster or _ooc_cluster(chunk_size=64)
        dg = cluster.load_graph(graph)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        exc = JobExecution(cluster, dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM)),
            cluster.hooks)
        return cluster, dg, exc

    def _check_residency(self, exc, seen, monkeypatch):
        """Check each chunk's end as it happens: the finishing chunk's
        window, and every older window still running, keeps its resolved
        bytes and routing plans; at most two windows run."""
        end_work = task_manager._end_work

        def chunk_end(exc_, ws, dur, kind="chunk", start=0.0):
            if kind == "chunk":
                check(ws, start, dur)
            end_work(exc_, ws, dur, kind, start)

        def check(ws, start, dur):
            m = ws.machine.index
            stream = exc.window_streams[m]
            w = ws.window
            # before chunk_done(): the finishing chunk still counts
            assert stream.unfinished[w] >= 1
            running = sorted(stream.unfinished)
            assert len(running) <= task_manager.MAX_RUNNING_WINDOWS
            assert stream.resident_bytes >= sum(stream.windows[u][2]
                                                for u in running)
            plans = stream.machine.plan_cache._plans
            # every chunk of an older running window has left the queue,
            # so each has built its plan
            for u in running:
                if u < stream.active_window:
                    for lo, hi, kind in stream.windows[u][0]:
                        assert any((kind, lo, hi, ok) in plans
                                   for ok in (False, True))
            seen.append((m, w, start, start + dur))

        monkeypatch.setattr(task_manager, "_end_work", chunk_end)

    def test_nothing_resident_when_job_ends(self, small_rmat_weighted):
        cluster, _, exc = self._execution(small_rmat_weighted)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        for stream in exc.window_streams:
            assert stream.exhausted and stream.inflight == 0
            assert stream.resident_bytes == 0
            assert len(stream.activations) == len(stream.windows) >= 2

    def test_window_stays_resident_until_its_last_chunk_ends(
            self, small_rmat_weighted, monkeypatch):
        """While any chunk of a window is still running, its resolved
        bytes and its plans are in DRAM."""
        cluster, dg, exc = self._execution(small_rmat_weighted)
        seen: list = []
        self._check_residency(exc, seen, monkeypatch)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        assert {m for m, *_ in seen} == {0, 1, 2, 3}

    def test_successor_starts_while_a_hub_tail_runs(self, monkeypatch):
        """A hub chunk alone in window w: the next window activates once
        the hub has left the queue, so a chunk of w + 1 starts before the
        hub ends — and w keeps its plans and resident bytes until then.
        (Unless an older window outlasts the hub: then two windows already
        run.)"""
        g = rmat(200, 4000, seed=3)  # skewed: hubs exceed 16-edge windows
        cfg = ClusterConfig(num_machines=4).with_machine(
            disk_seq_bw=1e15, disk_seek_time=1e-12).with_engine(
                ghost_threshold=40, chunk_size=8, num_workers=2,
                num_copiers=2, out_of_core=True)
        cluster, dg, exc = self._execution(g, PgxdCluster(cfg))
        seen: list = []
        self._check_residency(exc, seen, monkeypatch)
        exc.start()
        while not exc.done:
            cluster.sim.step()
        spans: dict = {}
        for m, w, start, end in seen:
            spans.setdefault((m, w), []).append((start, end))
        hubs = 0
        for stream in exc.window_streams:
            m = stream.machine.index
            starts = stream.machine.out_csr.starts
            for w, (chunks, _, _) in enumerate(stream.windows[:-1]):
                (lo, hi, _), = chunks[:1]
                if len(chunks) == 1 and starts[hi] - starts[lo] > 16:
                    (_, hub_end), = spans[(m, w)]
                    older = [e for u in range(w) for _, e in spans[(m, u)]]
                    if max(older, default=0.0) < hub_end:
                        assert min(s for s, _ in spans[(m, w + 1)]) < hub_end
                        hubs += 1
        assert hubs > 0


class TestReadahead:
    """A stream's last read queues window 0 of the same shard; only the
    next region streaming that shard adopts it."""

    @pytest.mark.parametrize("workload", ["pagerank", "sssp", "wcc"])
    def test_readahead_never_slows_the_clock(self, small_rmat_weighted,
                                             monkeypatch, workload):
        def now():
            cluster = _ooc_cluster(chunk_size=64)
            _results(cluster, small_rmat_weighted, workload)
            return cluster.now

        on = now()
        monkeypatch.setattr(task_manager, "READAHEAD", False)
        assert on <= now()

    def test_push_pagerank_adopts_and_gets_faster(self, small_rmat_weighted,
                                                  monkeypatch):
        """Push PageRank streams the same out-CSR every iteration: each
        job after the first adopts, and the run is strictly faster."""
        def run():
            cluster = _ooc_cluster(chunk_size=64)
            dg = cluster.load_graph(small_rmat_weighted)
            pagerank(cluster, dg, variant="push", max_iterations=3,
                     tolerance=0.0)
            return cluster.now, disk_reads(cluster)

        on, events = run()
        assert sum(1 for e in events if e["nbytes"] == 0) == 4 * 2
        monkeypatch.setattr(task_manager, "READAHEAD", False)
        off, events = run()
        assert all(e["nbytes"] > 0 for e in events)
        assert on < off

    def test_serial_windows_reproduce_the_drained_clock(
            self, small_rmat_weighted, monkeypatch):
        """One running window and no readahead is the schedule from before
        pipelining — a window activates only after its predecessor's last
        chunk ended — and its clock is pinned to what that schedule read.
        Neither mechanism is ever slower, and here, disk-bound, the
        readahead is what pays."""
        def now(cap, readahead):
            monkeypatch.setattr(task_manager, "MAX_RUNNING_WINDOWS", cap)
            monkeypatch.setattr(task_manager, "READAHEAD", readahead)
            cluster = _ooc_cluster(chunk_size=64)
            dg = cluster.load_graph(small_rmat_weighted)
            pagerank(cluster, dg, variant="push", max_iterations=3,
                     tolerance=0.0)
            return cluster.now

        serial = now(1, False)
        assert serial == 0.0020491650317317474
        assert now(2, True) <= now(2, False) <= serial
        assert now(2, True) <= now(1, True) < serial

    @pytest.mark.parametrize("second", ["sssp", "pull"])
    def test_other_shard_reads_its_own_window_zero(self, small_rmat_weighted,
                                                   monkeypatch, second):
        """Push PageRank's last readahead holds out-CSR ids only: weighted
        SSSP (one more edge column) and pull PageRank (the in-CSR) each read
        their own window 0, and the wasted readahead stays charged to the
        push job that issued it."""
        def run():
            cluster = _ooc_cluster(chunk_size=64)
            dg = cluster.load_graph(small_rmat_weighted)
            push = pagerank(cluster, dg, variant="push", max_iterations=1,
                            tolerance=0.0).stats
            if second == "sssp":
                other = sssp(cluster, dg, root=0, max_iterations=1).stats
            else:
                other = pagerank(cluster, dg, max_iterations=1,
                                 tolerance=0.0).stats
            assert sum(m.disk.bytes_read for m in dg.machines) \
                == push.disk_bytes_read + other.disk_bytes_read
            return (push, disk_reads(cluster, push),
                    disk_reads(cluster, other))

        push, before, after = run()
        firsts: dict = {}
        for e in after:
            if e["window"] == 0:
                firsts.setdefault(e["machine"], e)
        assert len(firsts) == 4 and all(e["nbytes"] > 0
                                        for e in firsts.values())
        # each machine's last window-0 event of the push job is its wasted
        # readahead: window 0's bytes once more
        window0: dict = {}
        for e in before:
            if e["window"] == 0:
                window0.setdefault(e["machine"], []).append(e["nbytes"])
        assert all(len(v) == 2 and v[0] == v[1] for v in window0.values())
        monkeypatch.setattr(task_manager, "READAHEAD", False)
        cold, _, _ = run()
        assert push.disk_bytes_read == cold.disk_bytes_read + sum(
            v[1] for v in window0.values())

    def test_mixed_sequence_matches_inmemory(self, small_rmat_weighted):
        """Push PageRank, pull PageRank, SSSP, WCC and push again on one
        cluster: every result equals the in-memory run, every job's stream
        passes the audit sweep, and every byte the disks read was charged
        once."""
        def run(cluster):
            dg = cluster.load_graph(small_rmat_weighted)
            out = [pagerank(cluster, dg, variant="push", max_iterations=2,
                            tolerance=0.0).values["pr"],
                   pagerank(cluster, dg, max_iterations=2,
                            tolerance=0.0).values["pr"],
                   sssp(cluster, dg, root=0, max_iterations=3)
                   .values["dist"],
                   wcc(cluster, dg, max_iterations=3).values["component"],
                   pagerank(cluster, dg, variant="push", max_iterations=2,
                            tolerance=0.0).values["pr"]]
            return out, dg

        base, _ = run(make_cluster())
        cluster = _ooc_cluster(chunk_size=64, audit=True)
        got, dg = run(cluster)
        events = disk_reads(cluster)
        for want, have in zip(base, got):
            assert np.array_equal(want, have)
        assert any(e["nbytes"] == 0 for e in events)
        assert sum(m.disk.bytes_read for m in dg.machines) \
            == sum(e["nbytes"] for e in events)


class TestConfigValidation:
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
        cluster = _ooc_cluster(fault_plan=plan, audit=True)
        dg = cluster.load_graph(small_rmat)
        ckpt = str(tmp_path / "ooc.npz")
        cluster.enable_auto_checkpoint(dg, ckpt)
        got = pagerank(cluster, dg, max_iterations=3,
                       tolerance=0.0).values["pr"]
        from repro.obs.report import fault_summary

        fs = fault_summary(cluster.metrics)
        assert fs["recoveries"] >= 1
        assert np.array_equal(base, got)


class TestDramCapacity:
    def _tiny_dram_config(self, dram_bytes, chunk_size=256,
                          **engine_kwargs):
        return ClusterConfig(num_machines=4).with_machine(
            dram_bytes=dram_bytes).with_engine(
                ghost_threshold=40, chunk_size=chunk_size, num_workers=4,
                num_copiers=2, **engine_kwargs)

    def test_oversized_graph_refused_in_memory(self, small_rmat):
        cluster = PgxdCluster(self._tiny_dram_config(1024.0))
        with pytest.raises(DramCapacityError) as ei:
            cluster.load_graph(small_rmat)
        assert "out_of_core" in str(ei.value)

    @pytest.mark.parametrize("out_of_core", [False, True],
                             ids=["in_memory", "out_of_core"])
    def test_resident_columns_must_fit(self, small_rmat, out_of_core):
        """Vertex and ghost columns stay resident in both modes: a machine
        whose load-time columns (plus, in memory, its edge arrays) exceed
        its DRAM is refused at load, and one byte more loads."""
        cluster = PgxdCluster(self._tiny_dram_config(
            1.0, out_of_core=out_of_core))
        with pytest.raises(DramCapacityError) as ei:
            cluster.load_graph(small_rmat)
        err = ei.value
        assert (err.machine, err.dram_bytes) == (0, 1.0)

        def resident(m) -> float:
            columns = 2 * 8 * m.n_local  # out_degree and in_degree
            edges = (m.out_csr.num_edges + m.in_csr.num_edges) * 24.0
            return columns if out_of_core else columns + edges

        fits = PgxdCluster(self._tiny_dram_config(
            1.0e12, out_of_core=out_of_core)).load_graph(small_rmat)
        assert err.needed_bytes == resident(fits.machines[0])
        need = max(resident(m) for m in fits.machines)
        PgxdCluster(self._tiny_dram_config(
            need, out_of_core=out_of_core)).load_graph(small_rmat)
        with pytest.raises(DramCapacityError):
            PgxdCluster(self._tiny_dram_config(
                need - 1.0, out_of_core=out_of_core)).load_graph(small_rmat)

    def test_oversized_graph_streams(self, no_readahead):
        """A graph whose edge arrays exceed a machine's DRAM by >= 10x
        completes streamed on the 4-machine cluster, bit-identically.  The
        vertex columns stay resident, so the graph is dense enough (16
        edges per vertex) that the largest partition's columns fit the
        tenth of the edge bytes."""
        graph = rmat(300, 4800, seed=5)
        base = _results(make_cluster(), graph, "pagerank")
        per_machine = (graph.num_edges * 2 * 24.0) / 4
        dram = per_machine / 10.0  # edge bytes >= 10x modeled DRAM
        # windows of 4 workers x 64-edge chunks
        cfg = self._tiny_dram_config(dram, chunk_size=64, out_of_core=True)
        cluster = PgxdCluster(cfg)
        got = _results(cluster, graph, "pagerank")
        events = disk_reads(cluster)
        assert np.array_equal(base, got)
        assert disk_summary(cluster.metrics)["bytes_read"] == _format_bytes(
            events, graph, 0, direction="in")


class TestDiskModel:
    def test_read_time(self):
        cfg = ClusterConfig().machine
        dm = DiskModel(cfg)
        assert dm.read_time(0) == 0.0
        expected = cfg.disk_seek_time + 1e6 / cfg.disk_seq_bw
        assert dm.read_time(1e6) == pytest.approx(expected)

    def test_serial_timeline(self):
        dm = DiskModel(ClusterConfig().machine)
        read = dm.read_time(1e6)
        end1 = dm.head.claim(0.0, read)
        end2 = dm.head.claim(0.0, read)  # issued concurrently -> queues
        assert end2 == pytest.approx(2 * end1)
        dm.reset()
        assert dm.head.claim(0.0, read) == pytest.approx(end1)

    def test_reset_drops_pending_readahead(self):
        """Crash recovery must not let rolled-back state adopt a read the
        reset timeline never held."""
        dm = DiskModel(ClusterConfig().machine)
        end = dm.head.claim(0.0, dm.read_time(1e6))
        dm.readaheads.append(((object(), "out", 0), 0.0, end, end))
        dm.reset()
        assert dm.readaheads == []


class TestDiskObservability:
    def test_stats_and_metrics(self, small_rmat_weighted):
        cluster = _ooc_cluster(chunk_size=128)
        dg = cluster.load_graph(small_rmat_weighted)
        st = pagerank(cluster, dg, max_iterations=2, tolerance=0.0).stats
        events = disk_reads(cluster)
        ds = disk_summary(cluster.metrics)
        assert ds["bytes_read"] == st.disk_bytes_read == sum(
            e["nbytes"] for e in events)
        # adopted readaheads were read (and counted) by their issuers
        assert ds["reads"] == sum(1 for e in events if e["nbytes"])
        assert ds["bytes_read"] == sum(m.disk.bytes_read for m in dg.machines)
        assert ds["read_seconds"] == pytest.approx(
            sum(e["duration"] for e in events), rel=1e-12)
        assert ds["stall_seconds"] == pytest.approx(
            st.disk_stall_seconds, rel=1e-12)
        assert st.disk_stall_seconds == pytest.approx(
            sum(e["stall"] for e in events), rel=1e-12)

    def test_report_line(self, small_rmat_weighted):
        cluster = _ooc_cluster(chunk_size=128)
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

        cluster = _ooc_cluster(chunk_size=128)
        dg = cluster.load_graph(small_rmat_weighted)
        with SpanProfiler(cluster) as prof:
            pagerank(cluster, dg, max_iterations=2, tolerance=0.0)
        slices = [sl for p in prof.profiles for sl in p.slices
                  if sl.kind == "disk-read"]
        assert slices, "disk reads must appear as profiler spans"
        assert all(sl.lane == "disk" for sl in slices)

    def test_plans_outlive_window_residency(self, small_rmat_weighted):
        """A plan is a host memo across residencies, as in memory: the
        first streamed job builds one per chunk, every later job hits them
        all.  Each residency is still priced for decoding and resolving its
        window, so the clock, disk bytes and stall of every job are the
        values pinned from the engine that rebuilt plans per residency."""
        cluster = _ooc_cluster(chunk_size=64)
        dg = cluster.load_graph(small_rmat_weighted)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        job = EdgeMapJob(name="push", spec=EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM))
        pinned = [(0.0006530550903735144, 3264.0, 0.0019050920000000004),
                  (0.0006012400000000002, 2546.0, 0.0015521249096264859),
                  (0.0006012400000000001, 2546.0, 0.0015521249096264863)]
        built = None
        for k, want in enumerate(pinned):
            st = cluster.run_job(dg, job)
            assert (st.end_time - st.start_time, st.disk_bytes_read,
                    st.disk_stall_seconds) == want
            if built is None:
                built = [len(m.plan_cache) for m in dg.machines]
                assert min(built) > 0
            assert [len(m.plan_cache) for m in dg.machines] == built
            flat = cluster.metrics.counters_flat()
            requests = "repro_plan_cache_requests_total{result=\"%s\"}"
            assert flat[requests % "miss"] == sum(built)
            assert flat.get(requests % "hit", 0.0) == k * sum(built)
        assert dg.gather("t").sum() == 3 * small_rmat_weighted.num_edges


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
