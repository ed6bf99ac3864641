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
                       scratch: np.ndarray,
                       pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Collapse duplicate ``offsets`` to one element each, reducing their
        ``values`` with this operator (sender-side write combining), in
        O(len(offsets)): no sort and no scan of the target range.

        ``scratch`` is a column of ``values.dtype``, longer than every
        offset, holding :meth:`bottom` everywhere; ``pos`` is an integer
        work array at least as long.  The values reduce into ``scratch``
        through :meth:`apply_at`, each offset is kept at its last
        occurrence, and the touched entries go back to bottom, so
        ``scratch`` is returned as it came.  Each offset appears once, in
        order of last occurrence.

        Only an :meth:`order_insensitive` reduction of contributions that
        already have the target's dtype gives the same bits combined as
        applied one by one; float SUM and OVERWRITE raise ``ValueError``.
        """
        if values.dtype != scratch.dtype \
                or not self.order_insensitive(scratch.dtype):
            raise ValueError(f"{self.name} of {values.dtype} into "
                             f"{scratch.dtype} depends on contribution "
                             "order and cannot be combined")
        self.apply_at(scratch, offsets, values)
        idx = np.arange(len(offsets))
        pos[offsets] = idx
        uniq = offsets[pos[offsets] == idx]
        reduced = scratch[uniq]
        scratch[uniq] = self.bottom(scratch.dtype)
        return uniq, reduced

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
