"""Property-based tests (hypothesis) for :class:`repro.dynamic.DynamicGraph`.

The dynamic graph is the substrate the incremental-recompute engine trusts:
multigraph counting, epoch bookkeeping, and snapshot fidelity all have to
hold under *arbitrary* batch sequences, not just the curated unit-test
batches — exactly the gap hypothesis fills.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicGraph
from repro.graph.csr import from_edges

N = 8  # small vertex universe => plenty of duplicate-edge collisions

edge = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))

#: one batch = (inserts, removal picks); removals are indices into the
#: current edge list so they always name an existing edge
batch = st.tuples(st.lists(edge, min_size=0, max_size=6),
                  st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=6))

scenario = st.tuples(st.lists(edge, min_size=0, max_size=12),  # base edges
                     st.lists(batch, min_size=1, max_size=6))

slow = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def apply_scenario(data):
    """Replay a generated scenario; returns (dynamic, model Counter)."""
    base, batches = data
    dyn = DynamicGraph(N, base)
    model = Counter(base)
    for inserts, removal_picks in batches:
        removed = []
        current = sorted(model.elements())
        for pick in removal_picks:
            if not current:
                break
            e = current.pop(pick % len(current))
            removed.append(e)
        for e in removed:
            dyn.remove_edge(*e)
        for e in inserts:
            dyn.add_edge(*e)
        dyn.apply_updates()
        model.subtract(removed)
        model.update(inserts)
        model += Counter()  # drop zero-count keys
    return dyn, model


class TestMultigraphSemantics:
    @given(scenario)
    @slow
    def test_edge_multiset_matches_counter_model(self, data):
        dyn, model = apply_scenario(data)
        assert Counter(dyn.edge_list()) == model
        assert dyn.num_edges == sum(model.values())

    @given(scenario)
    @slow
    def test_has_edge_iff_positive_count(self, data):
        dyn, model = apply_scenario(data)
        for u in range(N):
            for v in range(N):
                assert dyn.has_edge(u, v) == (model[(u, v)] > 0)

    @given(st.lists(edge, min_size=1, max_size=8), st.integers(1, 4))
    @slow
    def test_duplicate_inserts_count_copies(self, edges, copies):
        dyn = DynamicGraph(N)
        for _ in range(copies):
            for e in edges:
                dyn.add_edge(*e)
        dyn.apply_updates()
        want = Counter()
        for e in edges:
            want[e] += copies
        assert Counter(dyn.edge_list()) == want
        # Removing one copy leaves copies-1 behind, never zero-or-all.
        e0 = edges[0]
        dyn.remove_edge(*e0)
        dyn.apply_updates()
        want[e0] -= 1
        want += Counter()
        assert Counter(dyn.edge_list()) == want


class TestEpochs:
    @given(scenario)
    @slow
    def test_epoch_increments_once_per_batch(self, data):
        dyn, _ = apply_scenario(data)
        _, batches = data
        assert dyn.epoch == len(batches)
        assert [b.epoch for b in dyn.history] == list(range(1, dyn.epoch + 1))

    @given(scenario)
    @slow
    def test_history_replays_to_current_state(self, data):
        """Folding the recorded batches over the base edges reproduces the
        live multiset — the property the incremental engine's changeset
        merging (`_changes_between`) relies on."""
        base, _ = data
        dyn, _ = apply_scenario(data)
        model = Counter(base)
        for b in dyn.history:
            model.subtract(b.removed)
            model.update(b.inserted)
        model += Counter()
        assert Counter(dyn.edge_list()) == model


class TestBatchResolution:
    @given(st.lists(edge, min_size=1, max_size=6))
    @slow
    def test_insert_then_remove_in_one_batch_resolves(self, edges):
        """A batch may remove an edge it also inserts: removals are
        validated and applied against the pre-batch state first, so the
        insert survives; an edge not present before the batch cannot be
        removed in the same batch."""
        pre = edges[0]
        dyn = DynamicGraph(N, [pre])
        dyn.add_edge(*pre)     # insert another copy...
        dyn.remove_edge(*pre)  # ...and remove one in the same batch
        dyn.apply_updates()
        assert Counter(dyn.edge_list())[pre] == 1

    def test_remove_of_never_present_edge_raises(self):
        dyn = DynamicGraph(N)
        dyn.add_edge(0, 1)
        dyn.remove_edge(0, 1)  # not present pre-batch: must refuse
        try:
            dyn.apply_updates()
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError for pre-batch-absent "
                                 "edge removal")


class TestSnapshots:
    @given(scenario)
    @slow
    def test_snapshot_equals_from_edges_of_multiset(self, data):
        dyn, model = apply_scenario(data)
        snap = dyn.snapshot()
        edges = sorted(model.elements())
        want = from_edges([e[0] for e in edges], [e[1] for e in edges],
                          num_nodes=N)
        np.testing.assert_array_equal(snap.out_starts, want.out_starts)
        np.testing.assert_array_equal(snap.out_nbrs, want.out_nbrs)
        np.testing.assert_array_equal(snap.in_starts, want.in_starts)
        np.testing.assert_array_equal(snap.in_nbrs, want.in_nbrs)
        assert snap.num_nodes == N
        assert snap.num_edges == sum(model.values())

    @given(scenario)
    @slow
    def test_snapshot_is_isolated_from_later_batches(self, data):
        dyn, model = apply_scenario(data)
        snap = dyn.snapshot()
        before = snap.out_nbrs.copy()
        dyn.add_edge(0, 1)
        dyn.apply_updates()
        np.testing.assert_array_equal(snap.out_nbrs, before)
