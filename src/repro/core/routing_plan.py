"""Iteration-invariant routing plans for the vectorized edge-map path.

Every chunk :func:`repro.core.vector_kernels.execute_edge_map_chunk` runs is
routed by a :class:`ChunkPlan`: the ``(row, target)`` pair of each edge as
4-byte ids, grouped by destination class (local, ghost, remote), the remote
class stable-sorted by owner into destination runs.  All of it depends only
on the immutable CSR.  PGX.D's whole point (Sections 3.2-3.4) is keeping
that path at memory-bandwidth speed; re-deriving invariants every iteration
is pure overhead for multi-superstep algorithms (PageRank, SSSP, WCC run the
same chunks tens of times).  A plan holds nothing else — 8 bytes per edge
plus one word per destination run — but the weight columns its cache
memoizes on it.

A :class:`RoutingPlanCache` lives on each :class:`~repro.core.machine.Machine`
and memoizes one plan per ``(csr direction, chunk range, ghost
visibility)``, for the machine's lifetime, out-of-core windows included: a
streamed window is priced for resolving its edges on every residency, and
its plans are the host's memo of that resolve.  Memoization is host-side
only — a cached plan and a freshly built one route identically, so results
and simulated times do not depend on the cache's capacity
(``plan_cache_max_bytes=0`` rebuilds every chunk).  An active-vertex filter
only *subsets* the plan (:meth:`ChunkPlan.kept`): its arrays are already
classified and owner-sorted, and stable sorting commutes with
subsetting, so a filtered chunk re-derives and re-sorts nothing.

The second half of the module is the canonical staged apply
(:func:`canonical_apply`): staged remote contributions are reduced so that
the result is a function of the data alone.  Operators whose result cannot
depend on order skip the sort entirely; float SUM and OVERWRITE are sorted
by value alone, which puts every row's contributions in ``(row, value)``
order.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .machine import LocalCsr


def stable_owner_order(owners: np.ndarray, num_machines: int) -> np.ndarray:
    """``np.argsort(owners, kind="stable")`` for machine indices below
    ``num_machines``, sorted on the narrowest unsigned dtype that holds
    them: numpy's stable sort of 8/16-bit keys is a radix sort (~6x faster
    than the int32 merge sort at chunk sizes) and, being stable over the
    same keys, returns the identical permutation."""
    if num_machines <= 1 << 8:
        owners = owners.astype(np.uint8)
    elif num_machines <= 1 << 16:
        owners = owners.astype(np.uint16)
    return np.argsort(owners, kind="stable")


class ChunkPlan:
    """Precomputed routing of one chunk ``[lo, hi)`` of one CSR direction:
    only what the kernels read, as 4-byte ids.

    ``rows`` and ``targets`` hold one ``int32`` pair per edge, grouped by
    destination class: local edges (target: the owner-local offset), then
    ghost edges (target: the ghost slot), each in CSR order, then remote
    edges (target: the offset on the owner) stable-sorted by owner.
    ``splits`` is ``(end of local, end of ghost)``.  Every class is one
    contiguous slice, so a chunk's execution is gather/scatter over slices
    plus buffer appends.
    """

    __slots__ = ("es", "ee", "rows", "targets", "splits", "dest_runs",
                 "run_starts", "_source", "columns", "nbytes")

    def __init__(self, csr: "LocalCsr", lo: int, hi: int, ghost_ok: bool,
                 machine_index: int, num_machines: int):
        starts = csr.starts
        self.es, self.ee = es, ee = int(starts[lo]), int(starts[hi])
        self._source = (csr, ghost_ok, machine_index, num_machines)
        order, self.splits = self._order()
        g0, g1 = self.splits
        self.rows = np.repeat(np.arange(lo, hi, dtype=np.int32),
                              np.diff(starts[lo:hi + 1]))[order]
        self.targets = csr.nbr_offset[es:ee][order].astype(np.int32)
        self.targets[g0:g1] = csr.nbr_ghost_slot[es:ee][order[g0:g1]]
        # NXgraph-style destination-sorted sub-chunks: one pre-sliced
        # (dst, b0, b1, offsets, rows) run per *non-empty* destination,
        # bounds relative to the remote class, so a chunk appends exactly
        # one fused batch per destination without scanning all machines.
        remote_rows, remote_offsets = self.rows[g1:], self.targets[g1:]
        bounds = np.searchsorted(csr.nbr_owner[es:ee][order[g1:]],
                                 np.arange(num_machines + 1)).tolist()
        self.dest_runs = tuple(
            (dst, b0, b1, remote_offsets[b0:b1], remote_rows[b0:b1])
            for dst, (b0, b1) in enumerate(zip(bounds, bounds[1:]))
            if b1 > b0)
        self.run_starts = np.array([g1 + run[1] for run in self.dest_runs],
                                   dtype=np.intp)
        #: the weight columns a retaining cache memoized for this plan
        #: (:meth:`RoutingPlanCache.weights`); None while not retained
        self.columns: Optional[dict] = None
        self.nbytes = (self.rows.nbytes + self.targets.nbytes
                       + self.run_starts.nbytes)

    def _order(self) -> tuple[np.ndarray, tuple[int, int]]:
        """The edge positions in ``[es, ee)`` in plan order, and
        ``splits``.  Stable owner sort: within a destination, remote edges
        keep CSR order, so buffered request order (and therefore every
        downstream message and reduction) is a function of the chunk
        alone."""
        csr, ghost_ok, machine_index, num_machines = self._source
        owners = csr.nbr_owner[self.es:self.ee]
        is_local = owners == machine_index
        is_ghost = ((~is_local) & (csr.nbr_ghost_slot[self.es:self.ee] >= 0)
                    if ghost_ok else np.zeros(len(owners), dtype=bool))
        local, ghost = np.nonzero(is_local)[0], np.nonzero(is_ghost)[0]
        remote = np.nonzero(~(is_local | is_ghost))[0]
        remote = remote[stable_owner_order(owners[remote], num_machines)]
        return (np.concatenate((local, ghost, remote)),
                (len(local), len(local) + len(ghost)))

    def kept(self, act: np.ndarray) -> tuple:
        """What the node-level filter ``act`` (the machine's whole filter
        column) keeps of this plan: ``(rows, targets, splits, dest_runs,
        positions)`` of the surviving edges, laid out as the plan's own
        fields are, plus their positions in the plan (for weights).

        Subsetting the classified, owner-sorted arrays keeps their order
        (stable sorting commutes with subsetting), so nothing is re-derived
        and nothing is sorted: a kept run's bounds are the running sum of
        the kept count of each planned run.
        """
        keep = np.take(act, self.rows, mode="clip").astype(bool, copy=False)
        positions = keep.nonzero()[0]
        rows, targets = self.rows[positions], self.targets[positions]
        splits = tuple(np.searchsorted(positions, self.splits).tolist())
        # the plan's runs tile the remote class, the arrays' tail, so
        # reduceat sees no empty span
        run_counts = np.add.reduceat(keep.view(np.uint8), self.run_starts,
                                     dtype=np.intp)
        remote_rows, remote_offsets = rows[splits[1]:], targets[splits[1]:]
        runs = []
        b1 = 0
        for run, count in zip(self.dest_runs, run_counts.tolist()):
            if count:
                b0, b1 = b1, b1 + count
                runs.append((run[0], b0, b1, remote_offsets[b0:b1],
                             remote_rows[b0:b1]))
        return rows, targets, splits, tuple(runs), positions

    def weight_split(self, key) -> np.ndarray:
        """One edge data column — the spec's edge property ``key``, or the
        weight column for ``None`` — in plan order (split by class like
        ``rows``), re-deriving the edge order the plan does not keep."""
        return self._source[0].edge_data(key)[self.es:self.ee][
            self._order()[0]]


class RoutingPlanCache:
    """Per-machine memo of :class:`ChunkPlan` objects.

    Keyed by ``(iter direction, lo, hi, ghost_ok)`` — a machine has exactly
    one immutable CSR per direction, and the ghost masks additionally depend
    on whether the accessed property participates in the job's ghost
    read/write set.  ``max_bytes`` caps everything retained, plans and
    their memoized weight columns alike: what does not fit is built but
    not retained (counted under ``rejected``).
    """

    __slots__ = ("_plans", "rejected", "nbytes", "max_bytes")

    def __init__(self, max_bytes: int = 1 << 30):
        self._plans: dict[tuple, ChunkPlan] = {}
        self.rejected = 0
        self.nbytes = 0
        self.max_bytes = max_bytes

    def lookup(self, csr: "LocalCsr", direction: str, lo: int, hi: int,
               ghost_ok: bool, machine_index: int,
               num_machines: int) -> tuple[ChunkPlan, bool]:
        """The plan for one chunk, built and, capacity permitting, retained
        on first use.  Returns ``(plan, was_cache_hit)``; the caller counts
        the lookup on its job's stats."""
        key = (direction, lo, hi, bool(ghost_ok))
        plan = self._plans.get(key)
        if plan is not None:
            return plan, True
        plan = ChunkPlan(csr, lo, hi, ghost_ok, machine_index, num_machines)
        if self._charge(plan.nbytes):
            self._plans[key] = plan
            plan.columns = {}
        return plan, False

    def weights(self, plan: ChunkPlan, key) -> np.ndarray:
        """``plan.weight_split(key)``, split on first use and memoized on
        ``plan`` when this cache retains it and has room for the column."""
        if plan.columns is None:
            return plan.weight_split(key)
        column = plan.columns.get(key)
        if column is None:
            column = plan.weight_split(key)
            if self._charge(column.nbytes):
                plan.columns[key] = column
        return column

    def _charge(self, nbytes: int) -> bool:
        """Account ``nbytes`` more retained bytes if they fit under
        ``max_bytes``; count a rejection otherwise."""
        if self.nbytes + nbytes > self.max_bytes:
            self.rejected += 1
            return False
        self.nbytes += nbytes
        return True

    def __len__(self) -> int:
        return len(self._plans)


# ---------------------------------------------------------------------------
# Canonical staged apply (the content-ordered reduction of jobrunner).
# ---------------------------------------------------------------------------


class StageOrderCache:
    """Work buffers and host-work counter of the staged apply, one per
    graph: its machines share them, since the host runs one machine's work
    at a time and no buffer outlives the call that took it.

    ``scratch`` hands out persistent per-(dtype, tag) buffers for the
    canonical apply's sort key and sorted pairs and for the planned kernels'
    gathers — they are large (≈ remote edges per superstep), so
    re-allocating them every use costs real page-fault time.  ``bottom``
    hands out the write combine's bottom-filled columns.
    """

    __slots__ = ("_scratch", "_bottoms", "sorted_elements")

    def __init__(self):
        #: elements that went through the canonical sort — a host-work
        #: proxy that repeats bit for bit (0 on MIN/MAX/AND/OR workloads)
        self.sorted_elements = 0
        self._scratch: dict = {}
        self._bottoms: dict = {}

    def bottom(self, op, dtype, n: int) -> np.ndarray:
        """A length-``n`` view of a persistent per-(op, dtype) column that
        holds ``op.bottom(dtype)`` everywhere between uses — the scratch of
        :meth:`~repro.core.properties.ReduceOp.segment_reduce`, which
        hands it back that way."""
        dtype = np.dtype(dtype)
        key = (op, dtype.str)
        col = self._bottoms.get(key)
        if col is None or len(col) < n:
            col = self._bottoms[key] = np.full(n, op.bottom(dtype), dtype)
        return col[:n]

    def scratch(self, n: int, dtype, tag: int = 0) -> np.ndarray:
        """A length-``n`` work view of a persistent per-(dtype, tag) buffer.

        ``tag`` distinguishes buffers of the same dtype that must be live
        simultaneously (e.g. the sort key and the sorted rows)."""
        dtype = np.dtype(dtype)
        key = (dtype.str, tag)
        buf = self._scratch.get(key)
        if buf is None or len(buf) < n:
            buf = np.empty(max(n, 1024), dtype=dtype)
            self._scratch[key] = buf
        return buf[:n]


def total_order_key(vals: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """An integer sort key ordering ``vals`` ascending by IEEE 754
    totalOrder: -NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN, every
    distinct bit pattern its own key.  A float's signed-integer bit view
    already orders non-negative values; flipping the magnitude bits of the
    negative ones reverses their order.  Integer and bool values are their
    own key (``out``, an integer buffer of the float's width, is then
    unused)."""
    if vals.dtype.kind != "f":
        return vals
    bits = vals.view(f"i{vals.dtype.itemsize}")
    key = np.right_shift(bits, 8 * vals.dtype.itemsize - 1, out=out)
    key &= np.iinfo(bits.dtype).max
    key ^= bits
    return key


def canonical_apply(op, target: np.ndarray, rows: np.ndarray,
                    vals: np.ndarray,
                    cache: "StageOrderCache | None" = None) -> None:
    """Reduce the staged ``(rows, vals)`` into ``target`` so the result is a
    function of the data alone, never of arrival order.

    An operator whose result does not depend on the order of its
    contributions (:meth:`ReduceOp.order_insensitive` — MIN, MAX, AND, OR,
    integer/bool SUM) is applied straight through ``op.apply_at``: no sort.
    Float SUM and OVERWRITE are applied in ascending :func:`total_order_key`
    order.  ``ufunc.at`` applies in index order and different rows never
    interact, so one sort by value alone leaves every row's contributions
    in the order a ``(row, value)`` lexsort gives them — bit for bit the
    lexsort result wherever that lexsort is itself a function of the data.
    Where it is not (it leaves -0.0 and +0.0, and NaNs, in arrival order),
    the key orders them too, so an OVERWRITE winner is the greatest
    contribution under totalOrder.
    """
    n = len(rows)
    if n <= 1 or op.order_insensitive(target.dtype):
        op.apply_at(target, rows, vals)
        return
    if cache is None:
        cache = StageOrderCache()
    cache.sorted_elements += n
    # Equal keys mean equal bits, so the tie order of a non-stable sort
    # cannot change the result; the key buffer is dead once ``order`` is.
    order = np.argsort(total_order_key(
        vals, cache.scratch(n, f"i{vals.dtype.itemsize}")))
    op.apply_at(target,
                np.take(rows, order, mode="clip",
                        out=cache.scratch(n, rows.dtype, 1)),
                np.take(vals, order, mode="clip",
                        out=cache.scratch(n, vals.dtype)))
