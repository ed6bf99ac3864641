"""Sender-side write combining: every flush of an order-insensitive
reduction combines, for fewer wire bytes and copier atomics, exact results
and honest accounting of the combine step; float SUM ships uncombined."""

import contextlib
import hashlib
from unittest import mock

import numpy as np
import pytest

from repro import rmat, with_uniform_weights
from repro.algorithms import pagerank, sssp, wcc
from repro.core.comm_manager import _process_message
from repro.core.messages import HEADER_BYTES, Message, MsgKind
from repro.core.properties import ReduceOp
from repro.core.task_manager import WorkerState
from repro.core.vector_kernels import COPIER_WRITE_LOCALITY, VALUE_BYTES
from repro.runtime.memory import cache_adjusted_locality
from tests.conftest import make_cluster
from tests.core.test_vector_kernels_unit import setup_exec


def _uncombined():
    """Ship every buffered item as is: the reference the combined runs
    are measured against (no combine step, so no combine charge)."""
    return mock.patch.object(WorkerState, "_combine",
                             lambda self, dst, prop, op, offsets, values:
                             (offsets, values))


def run(algo, graph, combine=True):
    # No ghosts: every hub write crosses the wire, so duplicate targets pile
    # up in the send buffers — the combiner's best case.
    cluster = make_cluster(3, ghost_threshold=None)
    dg = cluster.load_graph(graph)
    with contextlib.nullcontext() if combine else _uncombined():
        if algo == "sssp":
            res = sssp(cluster, dg, root=0, max_iterations=30)
        elif algo == "wcc":
            res = wcc(cluster, dg, max_iterations=50)
        else:
            res = pagerank(cluster, dg, variant="push", max_iterations=4)
    return cluster, res


class TestTrafficReduction:
    def test_fewer_wire_bytes_and_messages(self, small_rmat_weighted):
        c_on, on = run("sssp", small_rmat_weighted)
        c_off, off = run("sssp", small_rmat_weighted, combine=False)
        assert on.stats.bytes_by_kind["write_req"] < \
            off.stats.bytes_by_kind["write_req"]
        flat_on = c_on.metrics.counters_flat()
        flat_off = c_off.metrics.counters_flat()
        key = 'repro_net_bytes_total{kind="write_req"}'
        assert flat_on[key] < flat_off[key]

    def test_fewer_copier_atomics(self, small_rmat_weighted):
        _, on = run("sssp", small_rmat_weighted)
        _, off = run("sssp", small_rmat_weighted, combine=False)
        assert on.stats.atomic_ops < off.stats.atomic_ops

    def test_combine_shortens_simulated_time_here(self, small_rmat_weighted):
        # Not a general law, but on this hub-heavy, ghost-free setup the
        # saved bytes and atomics outweigh the combine's CPU charge.
        _, on = run("sssp", small_rmat_weighted)
        _, off = run("sssp", small_rmat_weighted, combine=False)
        assert on.total_time < off.total_time


class TestResultFidelity:
    def test_wcc_min_bit_identical(self, small_rmat):
        _, on = run("wcc", small_rmat)
        _, off = run("wcc", small_rmat, combine=False)
        assert np.array_equal(on.values["component"], off.values["component"])

    def test_sssp_min_bit_identical(self, small_rmat_weighted):
        _, on = run("sssp", small_rmat_weighted)
        _, off = run("sssp", small_rmat_weighted, combine=False)
        assert np.array_equal(on.values["dist"], off.values["dist"])

    def test_push_pagerank_ships_uncombined(self, small_rmat):
        """Float SUM is order-sensitive: every remote write travels as its
        own 16 B item, plus one header per message."""
        cluster = make_cluster(3, ghost_threshold=None)
        sends, combines = [], []
        cluster.hooks.subscribe("net.send", lambda p: sends.append(p)
                                if p["kind"] == "write_req" else None)
        cluster.hooks.subscribe("comm.combine", combines.append)
        dg = cluster.load_graph(small_rmat)
        st = pagerank(cluster, dg, variant="push", max_iterations=4).stats
        assert combines == [] and st.remote_writes > 0
        wire = sum(p["nbytes"] for p in sends)
        assert wire == st.bytes_by_kind["write_req"]
        assert wire == 16 * st.remote_writes + HEADER_BYTES * len(sends)


class TestCombineMetrics:
    def test_items_counter_and_ratio(self, small_rmat_weighted):
        cluster, _ = run("sssp", small_rmat_weighted)
        flat = cluster.metrics.counters_flat()
        items_in = flat['repro_comm_combine_items_total{stage="in"}']
        items_out = flat['repro_comm_combine_items_total{stage="out"}']
        assert 0 < items_out < items_in
        gauge = cluster.metrics.get("repro_comm_write_combine_ratio")
        assert gauge.value == pytest.approx(1.0 - items_out / items_in)

    def test_json_export_contains_metrics(self, small_rmat_weighted):
        import json
        from repro.obs.exporters import to_json
        cluster, _ = run("sssp", small_rmat_weighted)
        doc = json.loads(to_json(cluster.metrics))
        assert "repro_comm_combine_items_total" in doc["metrics"]
        assert "repro_comm_write_combine_ratio" in doc["metrics"]

    def test_no_combine_events_when_disabled(self, small_rmat):
        """Float SUM never combines, so push PageRank records nothing."""
        cluster, _ = run("pagerank", small_rmat)
        flat = cluster.metrics.counters_flat()
        assert not any(k.startswith("repro_comm_combine_items_total")
                       for k in flat)


class TestGhostSyncLocality:
    """Satellite: the GHOST_SYNC copier branch prices scatters with the same
    cache-residency discount as WRITE_REQ."""

    def _expected_random(self, n, ws_bytes, machine):
        loc = cache_adjusted_locality(COPIER_WRITE_LOCALITY, ws_bytes,
                                      machine.machine_config)
        return n * 2 * VALUE_BYTES * (1.0 - loc)

    def test_post_sync_uses_owner_working_set(self, small_rmat):
        cluster, dg, exc, _ = setup_exec(small_rmat, machines=2,
                                         ghost_threshold=5)
        m = dg.machines[0]
        n = 4
        msg = Message(MsgKind.GHOST_SYNC, src=1, dst=0, prop="t",
                      offsets=np.arange(n), values=np.ones(n),
                      op=ReduceOp.SUM, ghost_pre=False)
        tally = _process_message(exc, m, msg)
        expected = self._expected_random(n, m.n_local * VALUE_BYTES, m)
        assert tally.random_bytes == pytest.approx(expected)

    def test_pre_sync_uses_ghost_working_set(self, small_rmat):
        cluster, dg, exc, _ = setup_exec(small_rmat, machines=2,
                                         ghost_threshold=5)
        m = dg.machines[0]
        assert m.ghosts.num_ghosts > 0
        n = min(4, m.ghosts.num_ghosts)
        msg = Message(MsgKind.GHOST_SYNC, src=1, dst=0, prop="t",
                      offsets=np.arange(n), values=np.ones(n),
                      op=ReduceOp.SUM, ghost_pre=True)
        tally = _process_message(exc, m, msg)
        expected = self._expected_random(
            n, m.ghosts.num_ghosts * VALUE_BYTES, m)
        assert tally.random_bytes == pytest.approx(expected)


def _digests(graph, **engine):
    """sha256 of SSSP ``dist`` and WCC ``component``, and the write items
    the combine step removed on the way."""
    cluster = make_cluster(**engine)
    removed = []
    cluster.hooks.subscribe("comm.combine", lambda p: removed.append(
        p["items_in"] - p["items_out"]))
    dg = cluster.load_graph(graph)
    dist = sssp(cluster, dg, root=0).values["dist"]
    comp = wcc(cluster, dg).values["component"]
    return (tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                  for a in (dist, comp)), sum(removed))


class TestCombinedResultsInvariance:
    """Which contributions share a sender buffer depends on which worker
    grabbed which chunk, on the machine count, on ghosting and on window
    streaming; combined MIN results must not."""

    @pytest.fixture(scope="class")
    def graph(self):
        return with_uniform_weights(rmat(1500, 12000, seed=3), 0.1, 1.0,
                                    seed=4)

    @pytest.fixture(scope="class")
    def reference(self, graph):
        digests, removed = _digests(graph)
        assert removed > 0  # the reference run really combined
        return digests

    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("copiers", [2, 8])
    def test_thread_populations(self, graph, reference, workers, copiers):
        digests, removed = _digests(graph, num_workers=workers,
                                    num_copiers=copiers)
        assert digests == reference and removed > 0

    @pytest.mark.parametrize("machines", [1, 2, 4, 7])
    def test_machine_counts(self, graph, reference, machines):
        digests, removed = _digests(graph, num_machines=machines)
        assert digests == reference
        assert (removed > 0) == (machines > 1)

    @pytest.mark.parametrize("ghost_threshold", [None, 10])
    def test_ghosts(self, graph, reference, ghost_threshold):
        digests, _ = _digests(graph, ghost_threshold=ghost_threshold)
        assert digests == reference

    def test_out_of_core(self, graph, reference):
        digests, removed = _digests(graph, out_of_core=True,
                                    ooc_window_edges=1024)
        assert digests == reference and removed > 0
