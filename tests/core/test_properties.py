"""Reduction operators and the column-oriented property store."""

import numpy as np
import pytest

from repro.core.properties import PropertyStore, ReduceOp, SegmentGroupCache


class TestBottomValues:
    def test_sum_bottom(self):
        assert ReduceOp.SUM.bottom(np.float64) == 0.0

    def test_min_bottom_float(self):
        assert ReduceOp.MIN.bottom(np.float64) == np.inf

    def test_max_bottom_float(self):
        assert ReduceOp.MAX.bottom(np.float64) == -np.inf

    def test_min_bottom_int(self):
        assert ReduceOp.MIN.bottom(np.int64) == np.iinfo(np.int64).max

    def test_bool_bottoms(self):
        assert ReduceOp.AND.bottom(np.bool_) is True
        assert ReduceOp.OR.bottom(np.bool_) is False

    def test_bottom_is_identity(self):
        """Reducing the bottom into any value leaves it unchanged."""
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX):
            bottom = op.bottom(np.float64)
            assert op.scalar(3.5, bottom) == 3.5


class TestApplyAt:
    def test_sum_accumulates_duplicates(self):
        arr = np.zeros(3)
        ReduceOp.SUM.apply_at(arr, np.array([1, 1, 2]), np.array([1.0, 2.0, 5.0]))
        assert arr.tolist() == [0.0, 3.0, 5.0]

    def test_min_with_duplicates(self):
        arr = np.full(2, 10.0)
        ReduceOp.MIN.apply_at(arr, np.array([0, 0]), np.array([7.0, 3.0]))
        assert arr[0] == 3.0

    def test_max(self):
        arr = np.zeros(2)
        ReduceOp.MAX.apply_at(arr, np.array([1]), np.array([9.0]))
        assert arr.tolist() == [0.0, 9.0]

    def test_and_or(self):
        arr = np.array([True, True])
        ReduceOp.AND.apply_at(arr, np.array([0]), np.array([False]))
        assert arr.tolist() == [False, True]
        arr2 = np.array([False, False])
        ReduceOp.OR.apply_at(arr2, np.array([1]), np.array([True]))
        assert arr2.tolist() == [False, True]

    def test_overwrite(self):
        arr = np.zeros(2)
        ReduceOp.OVERWRITE.apply_at(arr, np.array([0]), np.array([4.0]))
        assert arr[0] == 4.0

    def test_scalar_matches_combine(self):
        """The scalar RTC combine agrees with ``apply_at`` reducing one
        contribution ``b`` into a target holding ``a``, for every operator."""
        floats = [(3.0, 5.0), (5.0, 3.0), (-2.0, -7.0), (0.5, 0.5)]
        bools = [(a, b) for a in (False, True) for b in (False, True)]
        for op in ReduceOp:
            boolean = op in (ReduceOp.AND, ReduceOp.OR)
            for a, b in bools if boolean else floats:
                target = np.array([a])
                op.apply_at(target, np.array([0]), np.array([b]))
                assert op.scalar(a, b) == target[0], (op, a, b)


ALL_OPS = (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX, ReduceOp.AND,
           ReduceOp.OR, ReduceOp.OVERWRITE)


def _values_for(op, rng, n):
    if op in (ReduceOp.AND, ReduceOp.OR):
        return rng.random(n) < 0.5
    return rng.standard_normal(n)


def _target_for(op, size):
    if op in (ReduceOp.AND, ReduceOp.OR):
        return np.full(size, op.bottom(np.bool_), dtype=np.bool_)
    return np.full(size, op.bottom(np.float64), dtype=np.float64)


class TestApplyAtDuplicates:
    """Duplicate indices must reduce, not last-write-win (except OVERWRITE)."""

    idx = np.array([2, 0, 2, 2, 0])

    def test_sum(self):
        arr = np.zeros(3)
        ReduceOp.SUM.apply_at(arr, self.idx, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert arr.tolist() == [7.0, 0.0, 8.0]

    def test_min(self):
        arr = np.full(3, np.inf)
        ReduceOp.MIN.apply_at(arr, self.idx, np.array([5.0, 9.0, 3.0, 4.0, 8.0]))
        assert arr.tolist() == [8.0, np.inf, 3.0]

    def test_max(self):
        arr = np.full(3, -np.inf)
        ReduceOp.MAX.apply_at(arr, self.idx, np.array([5.0, 9.0, 3.0, 4.0, 8.0]))
        assert arr.tolist() == [9.0, -np.inf, 5.0]

    def test_and(self):
        arr = np.array([True, True, True])
        ReduceOp.AND.apply_at(arr, self.idx,
                              np.array([True, True, False, True, True]))
        assert arr.tolist() == [True, True, False]

    def test_or(self):
        arr = np.array([False, False, False])
        ReduceOp.OR.apply_at(arr, self.idx,
                             np.array([False, False, True, False, False]))
        assert arr.tolist() == [False, False, True]

    def test_overwrite_keeps_last(self):
        # numpy fancy assignment: the last duplicate wins.
        arr = np.zeros(3)
        ReduceOp.OVERWRITE.apply_at(arr, self.idx,
                                    np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert arr.tolist() == [5.0, 0.0, 4.0]


class TestSegmentReduce:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_agrees_with_apply_at_on_duplicate_heavy_input(self, op):
        rng = np.random.default_rng(42)
        for trial in range(5):
            n, size = 500, 40  # ~12 duplicates per target on average
            offsets = rng.integers(0, size, n)
            values = _values_for(op, rng, n)
            uniq, reduced = op.segment_reduce(offsets, values)
            assert np.array_equal(uniq, np.unique(offsets))
            via_apply = _target_for(op, size)
            op.apply_at(via_apply, offsets, values)
            if op is ReduceOp.SUM:
                # combining reorders float additions across groups
                np.testing.assert_allclose(reduced, via_apply[uniq],
                                           rtol=1e-12)
            else:
                assert np.array_equal(reduced, via_apply[uniq])

    def test_no_duplicates_is_identity_up_to_sort(self):
        offsets = np.array([7, 3, 5])
        values = np.array([1.0, 2.0, 3.0])
        uniq, reduced = ReduceOp.MIN.segment_reduce(offsets, values)
        assert uniq.tolist() == [3, 5, 7]
        assert reduced.tolist() == [2.0, 3.0, 1.0]

    def test_empty_input(self):
        offsets = np.array([], dtype=np.int64)
        values = np.array([])
        uniq, reduced = ReduceOp.SUM.segment_reduce(offsets, values)
        assert len(uniq) == 0 and len(reduced) == 0

    def test_overwrite_takes_last_arrival_per_group(self):
        offsets = np.array([4, 1, 4, 1, 4])
        values = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        uniq, reduced = ReduceOp.OVERWRITE.segment_reduce(offsets, values)
        assert uniq.tolist() == [1, 4]
        assert reduced.tolist() == [40.0, 50.0]

    def test_float_sum_matches_sequential_group_accumulation(self):
        # bincount adds group members in arrival order — same result as
        # np.add.at into a zeroed scratch array, bit for bit.
        rng = np.random.default_rng(7)
        offsets = rng.integers(0, 16, 300)
        values = rng.standard_normal(300)
        uniq, reduced = ReduceOp.SUM.segment_reduce(offsets, values)
        scratch = np.zeros(16)
        np.add.at(scratch, offsets, values)
        assert np.array_equal(reduced, scratch[uniq])


class TestSegmentGroupCache:
    """The memo every write-combining flush goes through: a key presented
    with different offsets rebuilds, and every answer is bit-identical to
    the uncached :meth:`ReduceOp.segment_reduce`."""

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_changed_offsets_under_one_key_rebuild(self, op):
        rng = np.random.default_rng(11)
        first = rng.integers(0, 30, 200)
        same_length = rng.integers(0, 30, 200)
        shorter = rng.integers(0, 30, 120)
        cache = SegmentGroupCache()
        key = (0, 1, "t")
        for offsets, hit in ((first, False), (same_length, False),
                             (shorter, False), (first, False),
                             (first.copy(), True)):
            values = _values_for(op, rng, len(offsets))
            hits = cache.hits
            got = op.segment_reduce(offsets, values, cache=cache, key=key)
            want = op.segment_reduce(offsets, values)
            assert (cache.hits > hits) == hit
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert cache.misses == 4

    def test_combining_pagerank_push_hits_the_machine_caches(self, small_rmat):
        from repro.algorithms import pagerank
        from tests.conftest import make_cluster

        cluster = make_cluster(4, 40, combine_writes=True)
        dg = cluster.load_graph(small_rmat)
        pagerank(cluster, dg, variant="push", max_iterations=4)
        assert all(m.combine_cache.hits > 0 for m in dg.machines)


class TestPropertyStore:
    def test_add_and_read(self):
        ps = PropertyStore(4)
        arr = ps.add("x", init=2.5)
        assert arr.shape == (4,) and (arr == 2.5).all()
        assert ps["x"] is arr

    def test_duplicate_rejected(self):
        ps = PropertyStore(4)
        ps.add("x")
        with pytest.raises(KeyError):
            ps.add("x")

    def test_drop(self):
        ps = PropertyStore(4)
        ps.add("x")
        ps.drop("x")
        assert "x" not in ps

    def test_dtype(self):
        ps = PropertyStore(4)
        ps.add("flag", dtype=np.bool_, init=True)
        assert ps.dtype("flag") == np.bool_

    def test_names_sorted(self):
        ps = PropertyStore(2)
        ps.add("b")
        ps.add("a")
        assert ps.names() == ["a", "b"]
