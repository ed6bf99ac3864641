"""Array-native staged apply: exactness of the canonical reduction.

``canonical_apply`` promises *bit-identical* results to the reference
``np.lexsort((vals, rows))`` path — that is what keeps the engine
deterministic while the hot loop goes array-native.  Order-insensitive
operators (:meth:`ReduceOp.order_insensitive`) reach that result with no sort
at all; float SUM and OVERWRITE through one sort by value alone.  These tests
sweep every :class:`ReduceOp`, the edge values (NaN payloads, ±inf, ±0.0,
wide ints, huge row ids) and the NaN/zero rule of the direct path against
shuffled orders; end to end, PageRank must be bit-identical under perturbed
tie-breaker schedules.
"""

import numpy as np
import pytest

from repro.core.properties import ReduceOp
from repro.core.routing_plan import (StageOrderCache, canonical_apply,
                                     total_order_key)

ALL_OPS = list(ReduceOp)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact comparison that treats NaNs by bit pattern (inf + -inf paths)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a.view(f"u{a.dtype.itemsize}"),
                                   b.view(f"u{b.dtype.itemsize}")))
    return bool(np.array_equal(a, b))


def reference_apply(op, target, rows, vals):
    order = np.lexsort((vals, rows))
    op.apply_at(target, rows[order], vals[order])


def make_case(rng, n, n_targets, dtype):
    rows = rng.integers(0, n_targets, size=n).astype(np.int64)
    if dtype == np.float64:
        vals = rng.standard_normal(n)
    elif dtype == np.float32:
        vals = rng.standard_normal(n).astype(np.float32)
    elif dtype == np.bool_:
        vals = rng.integers(0, 2, size=n).astype(bool)
    else:
        vals = rng.integers(-1000, 1000, size=n).astype(dtype)
    return rows, vals


def fresh_target(op, n_targets, dtype):
    dtype = np.dtype(dtype)
    if dtype.kind == "b" and op in (ReduceOp.MIN, ReduceOp.MAX):
        init = op is ReduceOp.MIN  # MIN's identity on bools is True
    else:
        init = op.bottom(dtype)
    return np.full(n_targets, init, dtype=dtype)


class TestCanonicalApplyExactness:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32,
                                       np.bool_],
                             ids=["f8", "f4", "i4", "b1"])
    def test_matches_lexsort_reference(self, op, dtype):
        rng = np.random.default_rng(3)
        cache = StageOrderCache()
        for trial in range(6):
            rows, vals = make_case(rng, 400, 60, dtype)
            ref = fresh_target(op, 60, dtype)
            got = fresh_target(op, 60, dtype)
            reference_apply(op, ref, rows, vals)
            canonical_apply(op, got, rows, vals, cache)
            assert bitwise_equal(ref, got), f"trial {trial}"

    def test_special_float_values(self):
        """±inf, -0.0, and duplicate collisions stay bit-exact (SUM can
        produce NaN from inf + -inf; both paths must produce it the same
        way)."""
        rows = np.array([3, 0, 3, 1, 0, 3, 2, 2], dtype=np.int64)
        vals = np.array([np.inf, -0.0, -np.inf, 1.5, 0.0, 2.0, -np.inf,
                         np.inf])
        cache = StageOrderCache()
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX,
                   ReduceOp.OVERWRITE):
            ref = fresh_target(op, 4, np.float64)
            got = fresh_target(op, 4, np.float64)
            with np.errstate(invalid="ignore"):  # inf + -inf is the point
                reference_apply(op, ref, rows, vals)
                canonical_apply(op, got, rows, vals, cache)
            assert bitwise_equal(ref, got), op

    def test_nan_values_fall_back_to_lexsort(self):
        rows = np.array([1, 0, 1, 2], dtype=np.int64)
        vals = np.array([1.0, np.nan, 2.0, np.nan])
        ref = np.zeros(3)
        got = np.zeros(3)
        reference_apply(ReduceOp.SUM, ref, rows, vals)
        canonical_apply(ReduceOp.SUM, got, rows, vals)
        assert bitwise_equal(ref, got)

    def test_wide_int_values_fall_back(self):
        """int64 values beyond the float64 mantissa reduce exactly."""
        rows = np.array([0, 1, 0, 1], dtype=np.int64)
        vals = np.array([2 ** 60, 2 ** 60 + 1, 5, -7], dtype=np.int64)
        ref = np.zeros(2, dtype=np.int64)
        got = np.zeros(2, dtype=np.int64)
        reference_apply(ReduceOp.SUM, ref, rows, vals)
        canonical_apply(ReduceOp.SUM, got, rows, vals)
        assert np.array_equal(ref, got)

    def test_huge_row_ids_fall_back(self):
        """Row ids never enter the sort key, so ids past 2**53 (which a
        float64 cannot tell apart) still reduce in lexsort order."""
        class Sparse(dict):
            """Just enough of an array for ``OVERWRITE.apply_at``."""
            dtype = np.dtype(np.float64)

            def __setitem__(self, idx, values):
                self.update(zip(idx.tolist(), values.tolist()))

        rows = np.array([2 ** 53 + 1, 0, 2 ** 53, 2 ** 53 + 1],
                        dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 0.5])
        got = Sparse()
        canonical_apply(ReduceOp.OVERWRITE, got, rows, vals)
        # 2**53 and 2**53 + 1 collide as float64; last writer per exact row
        # in (row, value) order is the largest value
        assert got == {0: 2.0, 2 ** 53: 3.0, 2 ** 53 + 1: 1.0}

    def test_empty_and_singleton_streams(self):
        t = np.zeros(4)
        canonical_apply(ReduceOp.SUM, t, np.array([], dtype=np.int64),
                        np.array([]))
        assert (t == 0).all()
        canonical_apply(ReduceOp.SUM, t, np.array([2], dtype=np.int64),
                        np.array([5.0]))
        assert t[2] == 5.0


def nan_with_payload(dtype, payload: int, negative: bool = False):
    """A quiet NaN of ``dtype`` carrying ``payload`` in its mantissa."""
    nan = np.array([np.nan], dtype=dtype)
    bits = nan.view(f"u{nan.itemsize}")
    bits |= payload
    if negative:
        bits |= 1 << (8 * nan.itemsize - 1)
    return nan[0]


class TestArrivalOrderInvariance:
    """Float SUM and OVERWRITE give the same bits for every arrival order,
    including the values a float comparison cannot order: -0.0 vs +0.0
    and NaNs with different payloads or signs."""

    @staticmethod
    def special_case(dtype):
        rng = np.random.default_rng(29)
        specials = [0.0, -0.0, np.inf, -np.inf,
                    nan_with_payload(dtype, 1), nan_with_payload(dtype, 2),
                    nan_with_payload(dtype, 3, negative=True)]
        rows = np.repeat(np.arange(8, dtype=np.int64), 2)
        vals = np.array([0.0, -0.0,                   # both zeros
                         -0.0, -0.0,                  # only negative zeros
                         specials[4], specials[5],    # two NaN payloads
                         specials[6], 1.0,            # -NaN beside a number
                         np.inf, -np.inf,             # inf + -inf
                         specials[4], np.inf,
                         2.5, -0.0,
                         -1.5, 0.0], dtype=dtype)
        # rows 8-11: the specials mixed into ordinary values
        mixed = np.concatenate([rng.standard_normal(60).astype(dtype),
                                np.array(specials, dtype=dtype)])
        return (np.concatenate([rows, rng.integers(8, 12, size=len(mixed))]),
                np.concatenate([vals, mixed]))

    @pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.OVERWRITE],
                             ids=lambda o: o.value)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f8", "f4"])
    def test_identical_bits_across_arrival_orders(self, op, dtype):
        rows, vals = self.special_case(dtype)
        results = []
        with np.errstate(invalid="ignore"):  # inf + -inf is the point
            for seed in range(12):
                order = np.random.default_rng(seed).permutation(len(rows))
                got = fresh_target(op, 12, dtype)
                canonical_apply(op, got, rows[order], vals[order],
                                StageOrderCache())
                results.append(got)
        for got in results[1:]:
            assert bitwise_equal(results[0], got)
        if op is ReduceOp.OVERWRITE:
            # last writer = greatest under totalOrder: +0.0 beats -0.0, the
            # largest positive NaN beats everything, -NaN loses to 1.0
            assert bitwise_equal(results[0][:4], np.array(
                [0.0, -0.0, nan_with_payload(dtype, 2), 1.0], dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f8", "f4"])
    def test_key_orders_by_ieee_total_order(self, dtype):
        ordered = np.array([nan_with_payload(dtype, 3, negative=True),
                            -np.inf, -2.0, -1e-30, -0.0, 0.0, 1e-30, 2.0,
                            np.inf, nan_with_payload(dtype, 1),
                            nan_with_payload(dtype, 2)], dtype=dtype)
        shuffled = ordered[np.random.default_rng(3).permutation(len(ordered))]
        assert bitwise_equal(shuffled[np.argsort(total_order_key(shuffled))],
                             ordered)


class TestStageOrderCache:
    def test_scratch_tags_are_distinct_buffers(self):
        cache = StageOrderCache()
        a = cache.scratch(16, np.float64, 0)
        b = cache.scratch(16, np.float64, 1)
        assert a.base is not None and b.base is not None
        assert a.base is not b.base
        # same (dtype, tag) reuses the allocation
        assert cache.scratch(8, np.float64, 0).base is a.base

    def test_scratch_grows(self):
        cache = StageOrderCache()
        small = cache.scratch(10, np.int64)
        big = cache.scratch(5000, np.int64)
        assert len(big) == 5000 and big.base is not small.base


class TestOrderInsensitiveDirectPath:
    """The rule in :meth:`ReduceOp.order_insensitive`: operators it admits
    give the same bits for every order of the staged contributions."""

    def test_which_operators_skip_the_sort(self):
        for dtype in (np.float64, np.float32, np.int32, np.int64, np.bool_):
            for op in (ReduceOp.MIN, ReduceOp.MAX, ReduceOp.AND, ReduceOp.OR):
                assert op.order_insensitive(dtype)
            assert not ReduceOp.OVERWRITE.order_insensitive(dtype)
        for dtype in (np.int32, np.int64, np.uint8, np.bool_):
            assert ReduceOp.SUM.order_insensitive(dtype)
        for dtype in (np.float32, np.float64):
            assert not ReduceOp.SUM.order_insensitive(dtype)

    @staticmethod
    def shuffled_agree(op, target, rows, vals, seeds=range(8),
                       compare=bitwise_equal):
        """``canonical_apply`` in arrival order against ``op.apply_at`` on
        shuffled arrivals; returns the result."""
        cache = StageOrderCache()
        got = target.copy()
        canonical_apply(op, got, rows, vals, cache)
        assert cache.sorted_elements == 0
        for seed in seeds:
            order = np.random.default_rng(seed).permutation(len(rows))
            ref = target.copy()
            op.apply_at(ref, rows[order], vals[order])
            assert compare(ref, got), (op, seed)
        return got

    @pytest.mark.parametrize("op", [ReduceOp.MIN, ReduceOp.MAX],
                             ids=lambda o: o.value)
    def test_infinities_are_exact_in_every_order(self, op):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 12, size=200).astype(np.int64)
        vals = rng.standard_normal(200)
        vals[rng.integers(0, 200, size=30)] = np.inf
        vals[rng.integers(0, 200, size=30)] = -np.inf
        got = self.shuffled_agree(op, fresh_target(op, 12, np.float64),
                                  rows, vals)
        winner = -np.inf if op is ReduceOp.MIN else np.inf
        assert (got[np.unique(rows[vals == winner])] == winner).all()

    @pytest.mark.parametrize("op", [ReduceOp.MIN, ReduceOp.MAX],
                             ids=lambda o: o.value)
    def test_nan_in_a_contribution_or_the_target_yields_nan(self, op):
        rows = np.array([0, 1, 1, 2, 2, 2, 3, 3], dtype=np.int64)
        vals = np.array([1.0, np.nan, -np.inf, 4.0, np.nan, np.inf, 2.0, 3.0])
        target = fresh_target(op, 5, np.float64)
        target[3] = np.nan      # NaN already in the target
        with np.errstate(invalid="ignore"):  # NaN operands are the point
            got = self.shuffled_agree(
                op, target, rows, vals,
                compare=lambda a, b: np.array_equal(a, b, equal_nan=True))
        assert np.array_equal(np.isnan(got), [False, True, True, True, False])
        assert got[0] == 1.0

    @pytest.mark.parametrize("op", [ReduceOp.MIN, ReduceOp.MAX],
                             ids=lambda o: o.value)
    def test_mixed_zeros_compare_equal(self, op):
        """Which zero survives is unspecified; that a zero does is not."""
        rows = np.array([0, 0, 0, 1, 1, 2, 2], dtype=np.int64)
        vals = np.array([0.0, -0.0, 0.0, -0.0, 5.0, 0.0, -5.0])
        got = self.shuffled_agree(op, fresh_target(op, 3, np.float64), rows,
                                  vals, compare=np.array_equal)
        want = [0.0, 0.0, -5.0] if op is ReduceOp.MIN else [0.0, 5.0, 0.0]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("op", [ReduceOp.AND, ReduceOp.OR],
                             ids=lambda o: o.value)
    def test_bool_and_or(self, op):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 20, size=300).astype(np.int64)
        vals = rng.random(300) < (0.9 if op is ReduceOp.AND else 0.1)
        got = self.shuffled_agree(op, fresh_target(op, 20, np.bool_), rows,
                                  vals)
        for r in range(20):
            group = vals[rows == r]
            assert got[r] == (group.all() if op is ReduceOp.AND
                              else group.any())

    @pytest.mark.parametrize("dtype", [np.int32, np.int64],
                             ids=["i4", "i8"])
    def test_integer_sum_wraps_around_in_every_order(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(19)
        rows = rng.integers(0, 6, size=240).astype(np.int64)
        vals = rng.integers(info.max // 4, info.max // 2, size=240,
                            dtype=dtype)
        vals[::3] = -vals[::3]
        vals[:12] = info.max    # every row overflows at least once
        rows[:12] = np.arange(12) % 6
        got = self.shuffled_agree(ReduceOp.SUM, np.zeros(6, dtype=dtype),
                                  rows, vals)
        exact = [sum(int(v) for v in vals[rows == r]) for r in range(6)]
        assert any(not info.min <= e <= info.max for e in exact)
        span = 1 << (8 * np.dtype(dtype).itemsize)
        wrapped = [(e - info.min) % span + info.min for e in exact]
        assert got.tolist() == wrapped

    def test_float_sum_still_sorts(self):
        cache = StageOrderCache()
        rows = np.array([1, 0, 1, 0], dtype=np.int64)
        vals = np.array([1e16, 1.0, -1e16, 1.0])
        got = np.zeros(2)
        canonical_apply(ReduceOp.SUM, got, rows, vals, cache)
        ref = np.zeros(2)
        reference_apply(ReduceOp.SUM, ref, rows, vals)
        assert bitwise_equal(ref, got) and cache.sorted_elements == 4


class TestAuditHarnessWithNativeLoop:
    def test_perturbed_schedules_pass(self):
        """The full audit harness: three perturbation seeds on top of the
        canonical schedule give bit-identical PageRank."""
        from repro import ClusterConfig, rmat, with_uniform_weights
        from repro.audit.harness import AuditHarness, AuditScenario

        graph = with_uniform_weights(rmat(120, 900, seed=21), 0.1, 1.0,
                                     seed=22)
        config = ClusterConfig(num_machines=4).with_engine(
            num_workers=16, num_copiers=8, buffer_size=64,
            chunking="edge", chunk_size=64, ghost_threshold=1000)
        harness = AuditHarness(graph, config, schedules=3, base_seed=7,
                               iterations=2)
        assert len(harness.tie_seeds()) == 4
        v = harness.run_scenario(AuditScenario("native-pr", "pagerank"))
        assert v.passed and v.bit_identical and v.violation_count == 0
