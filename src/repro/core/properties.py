"""Column-oriented node properties and reduction operators (Section 4.2).

Each property is an O(N) array partitioned over machines; creating or
dropping a temporary property is trivial, exactly as the paper emphasizes.
Reductions are the write-side operators of ``write_remote<OP>`` — applied by
copiers for remote writes and during ghost-node synchronization.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np


class ReduceOp(enum.Enum):
    """Write reduction operators supported by ``write_remote`` and ghost sync."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    #: Last-writer-wins plain store (no reduction).  Not commutative: results
    #: are only deterministic when a single writer targets each element.
    OVERWRITE = "overwrite"

    def bottom(self, dtype: np.dtype) -> Union[int, float, bool]:
        """Identity ("bottom") value ghost copies start from (Section 3.3)."""
        dtype = np.dtype(dtype)
        if self is ReduceOp.SUM:
            return dtype.type(0)
        if self is ReduceOp.MIN:
            if np.issubdtype(dtype, np.floating):
                return dtype.type(np.inf)
            return np.iinfo(dtype).max
        if self is ReduceOp.MAX:
            if np.issubdtype(dtype, np.floating):
                return dtype.type(-np.inf)
            return np.iinfo(dtype).min
        if self is ReduceOp.AND:
            return True
        if self is ReduceOp.OR:
            return False
        if self is ReduceOp.OVERWRITE:
            return dtype.type(0)
        raise AssertionError(self)

    def apply_at(self, target: np.ndarray, idx: np.ndarray, values) -> None:
        """Reduce ``values`` into ``target[idx]`` (unbuffered, duplicate-safe)."""
        if self is ReduceOp.SUM:
            np.add.at(target, idx, values)
        elif self is ReduceOp.MIN:
            np.minimum.at(target, idx, values)
        elif self is ReduceOp.MAX:
            np.maximum.at(target, idx, values)
        elif self is ReduceOp.AND:
            np.logical_and.at(target, idx, values)
        elif self is ReduceOp.OR:
            np.logical_or.at(target, idx, values)
        elif self is ReduceOp.OVERWRITE:
            target[idx] = values
        else:  # pragma: no cover
            raise AssertionError(self)

    def order_insensitive(self, dtype) -> bool:
        """Whether reducing into a ``dtype`` target gives the same bits for
        every order of the contributions, so a staged group needs no
        canonical order (:func:`repro.core.routing_plan.canonical_apply`).

        True for MIN, MAX, AND, OR on any dtype and for SUM on integer and
        bool targets (two's-complement addition wraps around associatively;
        bool addition is OR).  False for float SUM, whose rounding depends
        on association, and for OVERWRITE, whose winner is the last writer.

        NaN and signed zero under MIN/MAX: ``np.minimum``/``np.maximum``
        propagate NaN, so a NaN in any contribution or already in the
        target yields NaN in every order.  ``-0.0`` and ``+0.0`` compare
        equal, so which zero survives when both reach one row is
        unspecified (only the order-sensitive operators' canonical sort
        tells the two zeros apart).
        """
        if self is ReduceOp.SUM:
            return np.dtype(dtype).kind in "biu"
        return self is not ReduceOp.OVERWRITE

    def segment_reduce(self, offsets: np.ndarray, values: np.ndarray,
                       cache: "SegmentGroupCache | None" = None,
                       key=None) -> tuple[np.ndarray, np.ndarray]:
        """Collapse duplicate ``offsets`` to one element each, reducing their
        ``values`` with this operator (sender-side write combining).

        Equivalent to ``apply_at`` into a bottom-initialized scratch target:
        exact for MIN/MAX/AND/OR/OVERWRITE and integer SUM; float SUM keeps
        the within-group accumulation order (stable sort), so it differs from
        the uncombined path only by rounding association across messages.

        ``cache``/``key`` memoize the group structure (sort permutation,
        unique offsets, inverse map) for recurring offset trains — iterative
        algorithms flush the same index sets every superstep, so the O(n
        log n) grouping collapses to an O(n) equality check after the first
        iteration.  The cached structure is validated by content, so results
        are identical with or without a cache.
        """
        offsets = np.asarray(offsets)
        values = np.asarray(values)
        if len(offsets) == 0:
            return offsets, values
        if self is ReduceOp.SUM and values.dtype == np.float64:
            # bincount adds group members sequentially in arrival order,
            # matching np.add.at on a scratch array.
            if cache is not None and key is not None:
                uniq, inv = cache.lookup(("inv", key), offsets, _unique_inverse)
            else:
                uniq, inv = _unique_inverse(offsets)
            return uniq, np.bincount(inv, weights=values, minlength=len(uniq))
        if cache is not None and key is not None:
            order, sorted_off, uniq, starts = cache.lookup(
                ("grp", key), offsets, _sorted_groups)
        else:
            order, sorted_off, uniq, starts = _sorted_groups(offsets)
        sorted_vals = values[order]
        if self is ReduceOp.OVERWRITE:
            # last writer per group; stable sort keeps arrival order
            ends = np.concatenate([starts[1:], [len(sorted_off)]]) - 1
            return uniq, sorted_vals[ends]
        ufunc = {ReduceOp.SUM: np.add, ReduceOp.MIN: np.minimum,
                 ReduceOp.MAX: np.maximum, ReduceOp.AND: np.logical_and,
                 ReduceOp.OR: np.logical_or}[self]
        return uniq, ufunc.reduceat(sorted_vals, starts)

    def scalar(self, a, b):
        """Scalar combine (scalar RTC task path)."""
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.MIN:
            return min(a, b)
        if self is ReduceOp.MAX:
            return max(a, b)
        if self is ReduceOp.AND:
            return bool(a) and bool(b)
        if self is ReduceOp.OR:
            return bool(a) or bool(b)
        if self is ReduceOp.OVERWRITE:
            return b
        raise AssertionError(self)


def _unique_inverse(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inv = np.unique(offsets, return_inverse=True)
    return uniq, inv


def _sorted_groups(offsets: np.ndarray):
    order = np.argsort(offsets, kind="stable")
    sorted_off = offsets[order]
    uniq, starts = np.unique(sorted_off, return_index=True)
    return order, sorted_off, uniq, starts


class SegmentGroupCache:
    """Content-validated memo of :meth:`ReduceOp.segment_reduce` group
    structure, keyed by flush site (worker, destination, property).

    A hit requires the cached offsets to equal the presented ones exactly
    (``np.array_equal``), so a stale entry can never change a result — it
    only costs a miss.  Overflow clears the table wholesale; the steady
    state of an iterative job fits comfortably."""

    __slots__ = ("_entries", "max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 128):
        self._entries: dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def lookup(self, key, offsets: np.ndarray, build):
        ent = self._entries.get(key)
        if ent is not None:
            cached_off, payload = ent
            if cached_off is offsets or (
                    len(cached_off) == len(offsets)
                    and np.array_equal(cached_off, offsets)):
                self.hits += 1
                return payload
        self.misses += 1
        payload = build(offsets)
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = (offsets, payload)
        return payload


class PropertyStore:
    """The column store of one machine: name -> local array of n_local values."""

    def __init__(self, n_local: int):
        self.n_local = n_local
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, dtype=np.float64, init=0) -> np.ndarray:
        if name in self._arrays:
            raise KeyError(f"property {name!r} already exists")
        arr = np.full(self.n_local, init, dtype=dtype)
        self._arrays[name] = arr
        return arr

    def drop(self, name: str) -> None:
        del self._arrays[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return sorted(self._arrays)

    def dtype(self, name: str) -> np.dtype:
        return self._arrays[name].dtype
