"""Back-pressure, tiny-buffer stress, and bit-level determinism."""

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp
from tests.conftest import make_cluster


def run_pull(cluster, dg, n):
    dg.add_property("x", from_global=np.arange(n, dtype=float))
    dg.add_property("t", init=0.0)
    stats = cluster.run_job(dg, EdgeMapJob(name="j", spec=EdgeMapSpec(
        direction="pull", source="x", target="t", op=ReduceOp.SUM)))
    out = dg.gather("t")
    dg.drop_property("x")
    dg.drop_property("t")
    return out, stats


class TestBackPressure:
    def test_tiny_buffers_still_complete(self, small_rmat):
        """Many tiny messages exercise flushing + the in-flight cap."""
        cluster = make_cluster(4, None, buffer_size=64)
        dg = cluster.load_graph(small_rmat)
        got, stats = run_pull(cluster, dg, small_rmat.num_nodes)
        src, dst = small_rmat.edge_list()
        want = np.zeros(small_rmat.num_nodes)
        np.add.at(want, dst, src.astype(float))
        assert np.allclose(got, want)

    def test_inflight_cap_one_still_completes(self, small_rmat):
        cluster = make_cluster(4, None, buffer_size=64, max_inflight_per_dest=1)
        dg = cluster.load_graph(small_rmat)
        got, _ = run_pull(cluster, dg, small_rmat.num_nodes)
        src, dst = small_rmat.edge_list()
        want = np.zeros(small_rmat.num_nodes)
        np.add.at(want, dst, src.astype(float))
        assert np.allclose(got, want)

    def test_smaller_buffers_mean_more_messages(self, small_rmat):
        def count(buf):
            cluster = make_cluster(4, None, buffer_size=buf)
            dg = cluster.load_graph(small_rmat)
            _, stats = run_pull(cluster, dg, small_rmat.num_nodes)
            return stats.messages

        assert count(128) > count(8192)

    def test_backpressure_increases_elapsed_time(self, medium_rmat):
        def elapsed(cap):
            cluster = make_cluster(4, None, buffer_size=128,
                                   max_inflight_per_dest=cap)
            dg = cluster.load_graph(medium_rmat)
            _, stats = run_pull(cluster, dg, medium_rmat.num_nodes)
            return stats.elapsed

        assert elapsed(1) >= elapsed(64) * 0.99


class TestDeterminism:
    def test_same_run_same_simulated_time(self, small_rmat):
        def once():
            cluster = make_cluster(4, 30)
            dg = cluster.load_graph(small_rmat)
            got, stats = run_pull(cluster, dg, small_rmat.num_nodes)
            return got, stats.elapsed, stats.messages, stats.total_bytes

        g1, t1, m1, b1 = once()
        g2, t2, m2, b2 = once()
        assert np.array_equal(g1, g2)
        assert t1 == t2 and m1 == m2 and b1 == b2

    def test_busy_intervals_deterministic(self, small_rmat):
        def once():
            cluster = make_cluster(2, 30)
            dg = cluster.load_graph(small_rmat)
            _, stats = run_pull(cluster, dg, small_rmat.num_nodes)
            return [(m, w, tuple(iv)) for m, ws in sorted(stats.busy_intervals.items())
                    for w, iv in sorted(ws.items())]

        assert once() == once()


class TestWorkloadBalanceEffects:
    def test_edge_chunking_balances_worker_busy_time(self, medium_rmat):
        """Figure 6(c): node chunking leaves cores unbalanced on skew.
        Compare the spread of per-worker busy time across cores."""
        def spread(chunking):
            cluster = make_cluster(2, None, chunking=chunking, chunk_size=512,
                                   num_workers=8)
            dg = cluster.load_graph(medium_rmat)
            _, stats = run_pull(cluster, dg, medium_rmat.num_nodes)
            busy = [sum(e - s for s, e in ivals)
                    for m in stats.busy_intervals.values()
                    for ivals in m.values()]
            return max(busy) / (sum(busy) / len(busy))

        assert spread("edge") < spread("node")

    def test_edge_partitioning_reduces_inter_imbalance(self, medium_rmat):
        """Figure 6(b): vertex partitioning unbalances machines on skew."""
        def elapsed(strategy):
            cluster = make_cluster(4, None, num_workers=8,
                                   partitioning=strategy)
            dg = cluster.load_graph(medium_rmat)
            _, stats = run_pull(cluster, dg, medium_rmat.num_nodes)
            return stats.elapsed

        assert elapsed("edge") < elapsed("vertex") * 1.05
