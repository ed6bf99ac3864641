"""Dynamic graphs, snapshots, continuous pattern detection (Section 6.2)."""

import numpy as np
import pytest

from repro import ClusterConfig, PgxdCluster, rmat
from repro.algorithms import pagerank, wcc
from repro.dynamic import ContinuousPatternMonitor, DynamicGraph
from repro.patterns import triangle_pattern
from tests.conftest import make_cluster, power_iteration


class TestDynamicGraph:
    def test_initial_edges(self):
        dyn = DynamicGraph(4, [(0, 1), (1, 2)])
        assert dyn.num_edges == 2 and dyn.has_edge(0, 1)

    def test_batched_updates_are_atomic(self):
        dyn = DynamicGraph(4)
        dyn.add_edge(0, 1)
        dyn.add_edge(1, 2)
        assert dyn.num_edges == 0  # not yet applied
        batch = dyn.apply_updates()
        assert dyn.num_edges == 2
        assert batch.epoch == 1 and len(batch.inserted) == 2

    def test_remove_edge(self):
        dyn = DynamicGraph(3, [(0, 1)])
        dyn.remove_edge(0, 1)
        dyn.apply_updates()
        assert dyn.num_edges == 0

    def test_remove_missing_edge_rejected(self):
        dyn = DynamicGraph(3)
        dyn.remove_edge(0, 1)
        with pytest.raises(KeyError):
            dyn.apply_updates()

    def test_over_removal_rejected_atomically(self):
        # one copy of (0, 1), removed twice in one batch: the whole batch
        # is refused with the documented error and nothing moves
        dyn = DynamicGraph(4, [(0, 1), (1, 2), (2, 3)])
        dyn.add_edge(3, 0)
        for e in ((1, 2), (0, 1), (0, 1)):
            dyn.remove_edge(*e)
        with pytest.raises(KeyError, match="cannot remove non-existent "
                                           r"edge \(0, 1\)"):
            dyn.apply_updates()
        assert dyn.edge_list() == [(0, 1), (1, 2), (2, 3)]
        assert dyn.epoch == 0 and dyn.history == []
        assert dyn._pending_inserts == [(3, 0)]
        assert dyn._pending_removes == [(1, 2), (0, 1), (0, 1)]

    def test_removing_two_of_three_copies_succeeds(self):
        dyn = DynamicGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
        dyn.remove_edge(0, 1)
        dyn.remove_edge(0, 1)
        batch = dyn.apply_updates()
        assert dyn.edge_list() == [(0, 1), (1, 2)]
        assert batch.removed == ((0, 1), (0, 1)) and dyn.epoch == 1

    def test_removal_resolves_against_pre_batch_edges(self):
        # an edge inserted by a batch cannot be removed by the same batch
        dyn = DynamicGraph(3)
        dyn.add_edge(0, 1)
        dyn.remove_edge(0, 1)
        with pytest.raises(KeyError):
            dyn.apply_updates()
        assert dyn.num_edges == 0 and dyn.epoch == 0

    def test_out_of_range_initial_edge_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            DynamicGraph(3, [(0, 1), (1, 3)])
        assert not DynamicGraph(3, [(0, 1)]).has_edge(0, 4)

    def test_multi_edges_counted(self):
        dyn = DynamicGraph(3)
        dyn.add_edge(0, 1)
        dyn.add_edge(0, 1)
        dyn.apply_updates()
        assert dyn.num_edges == 2
        dyn.remove_edge(0, 1)
        dyn.apply_updates()
        assert dyn.num_edges == 1 and dyn.has_edge(0, 1)

    def test_out_of_range_rejected(self):
        dyn = DynamicGraph(3)
        with pytest.raises(ValueError):
            dyn.add_edge(0, 5)

    def test_epoch_and_history(self):
        dyn = DynamicGraph(3)
        dyn.add_edge(0, 1)
        dyn.apply_updates()
        dyn.add_edge(1, 2)
        dyn.apply_updates()
        assert dyn.epoch == 2
        assert [b.epoch for b in dyn.history] == [1, 2]


class TestSnapshots:
    def test_snapshot_matches_edge_list(self):
        dyn = DynamicGraph(5, [(0, 1), (1, 2), (2, 3)])
        snap = dyn.snapshot()
        assert snap.num_edges == 3
        src, dst = snap.edge_list()
        assert sorted(zip(src.tolist(), dst.tolist())) == dyn.edge_list()

    def test_snapshot_isolated_from_later_updates(self):
        dyn = DynamicGraph(4, [(0, 1)])
        snap = dyn.snapshot()
        dyn.add_edge(1, 2)
        dyn.apply_updates()
        assert snap.num_edges == 1  # immutable

    def test_classical_analytics_on_snapshots(self):
        """The paper's plan: run classical algorithms on snapshots while the
        graph keeps changing."""
        rng = np.random.default_rng(8)
        dyn = DynamicGraph(200)
        for _ in range(600):
            dyn.add_edge(int(rng.integers(200)), int(rng.integers(200)))
        dyn.apply_updates()

        cluster = make_cluster(3, None)
        dg = cluster.load_graph(dyn.snapshot())
        before = wcc(cluster, dg).extra["num_components"]

        # mutate: densify connectivity
        for v in range(1, 200):
            dyn.add_edge(0, v)
        dyn.apply_updates()
        cluster2 = make_cluster(3, None)
        dg2 = cluster2.load_graph(dyn.snapshot())
        after = wcc(cluster2, dg2).extra["num_components"]
        assert after == 1 and before > 1

    def test_pagerank_across_epochs_changes(self):
        dyn = DynamicGraph(50, [(i, (i + 1) % 50) for i in range(50)])

        def ranks():
            cluster = make_cluster(2, None)
            dg = cluster.load_graph(dyn.snapshot())
            return pagerank(cluster, dg, "pull", max_iterations=20).values["pr"]

        # a directed cycle: every vertex keeps exactly the uniform rank
        assert np.array_equal(ranks(), np.full(50, 1.0 / 50))
        for v in range(50):
            if v != 7:
                dyn.add_edge(v, 7)
        dyn.apply_updates()
        after = ranks()
        want = power_iteration(dyn.snapshot(), np.full(50, 1.0 / 50), 20)
        assert np.allclose(after, want, atol=1e-12)
        assert int(np.argmax(after)) == int(np.argmax(want)) == 7


class TestContinuousPatterns:
    def factory(self):
        return lambda: make_cluster(2, None)

    def test_new_triangle_detected(self):
        dyn = DynamicGraph(6, [(0, 1), (1, 2)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        dyn.add_edge(2, 0)  # closes the triangle
        batch = dyn.apply_updates()
        report = monitor.on_batch(batch)
        assert len(report["appeared"]) == 3  # 3 rotations of one triangle
        assert report["disappeared"] == []

    def test_no_false_positives(self):
        dyn = DynamicGraph(6, [(0, 1), (1, 2), (2, 0)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        dyn.add_edge(3, 4)  # unrelated edge
        report = monitor.on_batch(dyn.apply_updates())
        assert report["appeared"] == [] and report["disappeared"] == []

    def test_deletion_reported(self):
        dyn = DynamicGraph(3, [(0, 1), (1, 2), (2, 0)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        dyn.remove_edge(2, 0)
        report = monitor.on_batch(dyn.apply_updates())
        assert len(report["disappeared"]) == 3
        assert report["appeared"] == []

    def test_remove_only_batch_drops_stale_match(self):
        """Regression: a batch that removes an edge used by a previously
        reported match must drop that match immediately — no stale match
        may be observable at the next epoch, even though remove-only
        batches skip the rescan."""
        dyn = DynamicGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        assert len(monitor._known) == 3  # the triangle, 3 rotations
        dyn.remove_edge(2, 0)
        report = monitor.on_batch(dyn.apply_updates())
        assert len(report["disappeared"]) == 3
        # The monitor's view at the new epoch matches a fresh full scan:
        # nothing stale survives.
        assert monitor._known == monitor._all_matches() == set()
        # Next epoch sees a consistent world too.
        dyn.add_edge(4, 3)
        report = monitor.on_batch(dyn.apply_updates())
        assert report["appeared"] == [] and report["disappeared"] == []

    def test_multigraph_copy_keeps_match_until_last_copy_removed(self):
        """Removing one duplicate copy of a bound edge keeps the match
        alive; only when the last copy vanishes does it disappear."""
        dyn = DynamicGraph(3, [(0, 1), (1, 2), (2, 0), (2, 0)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        assert len(monitor._known) == 3
        dyn.remove_edge(2, 0)  # one copy survives
        report = monitor.on_batch(dyn.apply_updates())
        assert report["disappeared"] == []
        assert monitor._known == monitor._all_matches()
        dyn.remove_edge(2, 0)  # last copy
        report = monitor.on_batch(dyn.apply_updates())
        assert len(report["disappeared"]) == 3
        assert monitor._known == set()

    def test_mixed_batch_stays_consistent_with_full_scan(self):
        """Inserts and removals in one batch: the incremental view equals
        a from-scratch match of the post-batch snapshot."""
        dyn = DynamicGraph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)])
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        dyn.remove_edge(2, 0)   # breaks triangle 0-1-2
        dyn.add_edge(6, 4)      # closes triangle 4-5-6
        report = monitor.on_batch(dyn.apply_updates())
        assert len(report["appeared"]) == 3
        assert len(report["disappeared"]) == 3
        assert monitor._known == monitor._all_matches()

    def test_stream_of_batches(self):
        rng = np.random.default_rng(11)
        dyn = DynamicGraph(30)
        monitor = ContinuousPatternMonitor(dyn, triangle_pattern(),
                                           cluster_factory=self.factory())
        total_appeared = 0
        for _ in range(8):
            for _ in range(10):
                dyn.add_edge(int(rng.integers(30)), int(rng.integers(30)))
            report = monitor.on_batch(dyn.apply_updates())
            total_appeared += len(report["appeared"])
        # Oracle: the incrementally maintained set equals a fresh full
        # match on the final graph, and on an insert-only stream every one
        # of those matches was reported as appearing exactly once.
        known = set(monitor._known)
        assert total_appeared == len(known) > 0
        assert monitor.prime() == len(known)
        assert monitor._known == known
