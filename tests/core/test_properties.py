"""Reduction operators and the column-oriented property store."""

import numpy as np
import pytest

from repro.core.properties import PropertyStore, ReduceOp


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


#: the operators sender-side combining accepts (SUM on integers)
EXACT_OPS = (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX, ReduceOp.AND,
             ReduceOp.OR)

_UFUNCS = {ReduceOp.SUM: np.add, ReduceOp.MIN: np.minimum,
           ReduceOp.MAX: np.maximum, ReduceOp.AND: np.logical_and,
           ReduceOp.OR: np.logical_or}


def _values_for(op, rng, n):
    if op in (ReduceOp.AND, ReduceOp.OR):
        return rng.random(n) < 0.5
    if op is ReduceOp.SUM:
        return rng.integers(-1000, 1000, n)
    return rng.standard_normal(n)


def _target_for(op, size, dtype):
    return np.full(size, op.bottom(dtype), dtype=dtype)


def _combine(op, offsets, values, scratch):
    """``segment_reduce`` with its scratch; the scratch must come back
    holding bottom everywhere."""
    pos = np.empty(len(scratch), dtype=np.int64)
    got = op.segment_reduce(offsets, values, scratch, pos)
    assert np.array_equal(scratch, _target_for(op, len(scratch),
                                               scratch.dtype))
    return got


def _reference(op, offsets, values):
    """The sort-based combine: group by ``np.unique``, reduce each group
    with ``ufunc.reduceat`` in the input's dtype."""
    if len(offsets) == 0:
        return offsets, values
    order = np.argsort(offsets, kind="stable")
    uniq, starts = np.unique(offsets[order], return_index=True)
    return uniq, _UFUNCS[op].reduceat(values[order], starts,
                                      dtype=values.dtype)


def _as_set(pairs):
    """(offset, value) pairs sorted by offset, values as raw bytes."""
    offsets, values = pairs
    assert len(np.unique(offsets)) == len(offsets), "offset repeated"
    order = np.argsort(offsets)
    return offsets[order].tolist(), values[order].dtype, \
        values[order].tobytes()


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


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestSegmentReduce:
    """The O(n) sender-side combine against a sort-based oracle, compared
    as (offset, value) sets, with the scratch back at bottom after every
    call (NaN contributions make numpy warn; they are part of the test)."""

    @pytest.mark.parametrize("op", EXACT_OPS, ids=lambda o: o.value)
    def test_agrees_with_apply_at_on_duplicate_heavy_input(self, op):
        rng = np.random.default_rng(42)
        for trial in range(5):
            n, size = 500, 40  # ~12 duplicates per target on average
            offsets = rng.integers(0, size, n)
            values = _values_for(op, rng, n)
            uniq, reduced = _combine(op, offsets, values,
                                     _target_for(op, size, values.dtype))
            assert sorted(uniq.tolist()) == np.unique(offsets).tolist()
            via_apply = _target_for(op, size, values.dtype)
            op.apply_at(via_apply, offsets, values)
            assert np.array_equal(reduced, via_apply[uniq])

    def test_no_duplicates_is_identity_up_to_sort(self):
        offsets = np.array([7, 3, 5])
        values = np.array([1.0, 2.0, 3.0])
        uniq, reduced = _combine(ReduceOp.MIN, offsets, values,
                                 np.full(8, np.inf))
        assert uniq.tolist() == [7, 3, 5]
        assert reduced.tolist() == [1.0, 2.0, 3.0]

    def test_empty_input(self):
        offsets = np.array([], dtype=np.int64)
        uniq, reduced = _combine(ReduceOp.MIN, offsets, np.array([]),
                                 np.full(4, np.inf))
        assert len(uniq) == 0 and len(reduced) == 0

    @pytest.mark.parametrize("op,dtype", [
        (ReduceOp.MIN, np.float64), (ReduceOp.MAX, np.float64),
        (ReduceOp.SUM, np.int32), (ReduceOp.SUM, np.int64),
        (ReduceOp.AND, np.bool_), (ReduceOp.OR, np.bool_)],
        ids=lambda x: x.value if isinstance(x, ReduceOp)
        else np.dtype(x).name)
    def test_matches_sort_based_oracle(self, op, dtype):
        rng = np.random.default_rng(5)
        n_dst = 64
        if dtype == np.float64:
            specials = np.array([np.nan, np.inf, -np.inf, 0.0, -1.5])
            pool = np.concatenate([rng.standard_normal(40), specials])
        elif dtype == np.bool_:
            pool = np.array([False, True])
        else:
            info = np.iinfo(dtype)  # sums near the bounds wrap around
            pool = np.array([info.max, info.max - 1, info.min, -1, 1, 7])
        pool = pool.astype(dtype)
        scratch = _target_for(op, n_dst, dtype)
        flushes = [
            np.array([], dtype=np.int64),                # empty
            np.array([n_dst - 1]),                       # single, last row
            np.full(50, n_dst - 1),                      # all duplicates
            rng.integers(0, n_dst, 300),                 # mixed
            np.arange(n_dst)[::-1],                      # every row once
        ]
        for offsets in flushes:
            values = rng.choice(pool, len(offsets))
            got = _combine(op, offsets, values, scratch)
            assert got[1].dtype == np.dtype(dtype)
            assert _as_set(got) == _as_set(_reference(op, offsets, values))
        if dtype != np.bool_ and op is ReduceOp.SUM:
            info = np.iinfo(dtype)
            uniq, reduced = _combine(op, np.array([3, 3]),
                                     np.array([info.max, 1], dtype=dtype),
                                     scratch)
            assert reduced.tolist() == [info.min]

    def test_second_call_on_disjoint_offsets_sees_no_leakage(self):
        scratch = np.full(10, np.inf)
        _combine(ReduceOp.MIN, np.array([0, 1, 1, 2]),
                 np.array([-5.0, -6.0, np.nan, -7.0]), scratch)
        uniq, reduced = _combine(ReduceOp.MIN, np.array([3, 4, 3]),
                                 np.array([2.0, 9.0, 1.0]), scratch)
        assert _as_set((uniq, reduced)) == _as_set(
            (np.array([3, 4]), np.array([1.0, 9.0])))
        # and the first call's rows read back as bottom
        uniq, reduced = _combine(ReduceOp.MIN, np.array([0, 1, 2]),
                                 np.array([np.inf] * 3), scratch)
        assert reduced.tolist() == [np.inf] * 3

    @pytest.mark.parametrize("op,values,scratch", [
        (ReduceOp.SUM, np.ones(3), np.zeros(4)),
        (ReduceOp.SUM, np.ones(3, np.float32), np.zeros(4, np.float32)),
        (ReduceOp.OVERWRITE, np.ones(3), np.zeros(4)),
        (ReduceOp.OVERWRITE, np.ones(3, np.int64), np.zeros(4, np.int64)),
        (ReduceOp.MIN, np.ones(3, np.int64), np.zeros(4)),
    ], ids=["float-sum", "float32-sum", "overwrite", "int-overwrite",
            "dtype-mismatch"])
    def test_order_sensitive_reductions_are_refused(self, op, values,
                                                    scratch):
        before = scratch.copy()
        with pytest.raises(ValueError, match="cannot be combined"):
            op.segment_reduce(np.array([0, 1, 0]), values, scratch,
                              np.empty(4, dtype=np.int64))
        assert np.array_equal(scratch, before)


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
