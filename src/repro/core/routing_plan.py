"""Iteration-invariant routing plans for the vectorized edge-map path.

Every chunk :func:`repro.core.vector_kernels.execute_edge_map_chunk` runs is
routed by a :class:`ChunkPlan`: the ``np.repeat`` edge expansion, the
owner/ghost/remote classification, and the owner-stable sort into
destination-sorted runs that route remote requests.  All of it depends only
on the immutable CSR.  PGX.D's whole point (Sections 3.2-3.4) is keeping
that path at memory-bandwidth speed; re-deriving invariants every iteration
is pure overhead for multi-superstep algorithms (PageRank, SSSP, WCC run the
same chunks tens of times).

A :class:`RoutingPlanCache` lives on each :class:`~repro.core.machine.Machine`
and memoizes one plan per ``(csr direction, chunk range, ghost
visibility)``.  Memoization is host-side only — a cached plan and a freshly
built one route identically, so results and simulated times do not depend
on the cache's capacity (``plan_cache_max_bytes=0`` rebuilds every chunk).
An active-vertex filter only *subsets* the plan (:meth:`ChunkPlan.kept`):
the per-class arrays are already classified and owner-sorted, and stable
sorting commutes with subsetting, so a filtered chunk re-derives and
re-sorts nothing.

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
    """Precomputed routing of one chunk ``[lo, hi)`` of one CSR direction.

    Arrays are grouped per destination class, pre-subset and (for the remote
    class) pre-sorted by owner, so a cached chunk execution is pure
    gather/scatter plus buffer appends.
    """

    __slots__ = (
        "lo", "hi", "es", "ee", "n_nodes", "n_edges", "degrees", "rows",
        "n_local", "n_ghost", "n_remote",
        "local_idx", "local_rows", "local_offsets",
        "ghost_idx", "ghost_rows", "ghost_slots",
        "remote_idx", "remote_offsets", "remote_rows", "bounds", "dest_runs",
        "run_starts", "_weight_cache", "nbytes",
    )

    def __init__(self, csr: "LocalCsr", lo: int, hi: int, ghost_ok: bool,
                 machine_index: int, num_machines: int):
        starts = csr.starts
        self.lo, self.hi = lo, hi
        self.es, self.ee = int(starts[lo]), int(starts[hi])
        self.n_nodes = hi - lo
        self.degrees = np.diff(starts[lo:hi + 1])
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), self.degrees)
        self.rows = rows
        self.n_edges = len(rows)

        owners = csr.nbr_owner[self.es:self.ee]
        offsets = csr.nbr_offset[self.es:self.ee]
        gslots = csr.nbr_ghost_slot[self.es:self.ee]

        is_local = owners == machine_index
        if ghost_ok:
            is_ghost = (~is_local) & (gslots >= 0)
        else:
            is_ghost = np.zeros(self.n_edges, dtype=bool)
        is_remote = ~(is_local | is_ghost)

        self.local_idx = np.nonzero(is_local)[0]
        self.ghost_idx = np.nonzero(is_ghost)[0]
        rem = np.nonzero(is_remote)[0]
        self.n_local = len(self.local_idx)
        self.n_ghost = len(self.ghost_idx)
        self.n_remote = len(rem)

        self.local_rows = rows[self.local_idx]
        self.local_offsets = offsets[self.local_idx]
        self.ghost_rows = rows[self.ghost_idx]
        self.ghost_slots = gslots[self.ghost_idx]

        # Stable owner sort: within a destination, remote edges keep CSR
        # order, so buffered request order (and therefore every downstream
        # message and reduction) is a function of the chunk alone.
        order = stable_owner_order(owners[rem], num_machines)
        self.remote_idx = rem[order]
        remote_owners = owners[self.remote_idx]
        self.remote_offsets = offsets[self.remote_idx]
        self.remote_rows = rows[self.remote_idx]
        self.bounds = np.searchsorted(remote_owners,
                                      np.arange(num_machines + 1))
        # NXgraph-style destination-sorted sub-chunks: one pre-sliced
        # (dst, b0, b1, offsets, rows) run per *non-empty* destination, so a
        # cached chunk execution appends exactly one fused batch per
        # destination without scanning all machines or re-slicing the
        # invariant arrays.  The views alias remote_offsets/remote_rows.
        runs = []
        for dst in range(num_machines):
            b0, b1 = int(self.bounds[dst]), int(self.bounds[dst + 1])
            if b1 > b0:
                runs.append((dst, b0, b1, self.remote_offsets[b0:b1],
                             self.remote_rows[b0:b1]))
        self.dest_runs = tuple(runs)
        self.run_starts = np.array([run[1] for run in runs], dtype=np.intp)

        self._weight_cache: dict = {}
        self.nbytes = sum(
            getattr(self, name).nbytes for name in (
                "degrees", "rows", "local_idx", "local_rows", "local_offsets",
                "ghost_idx", "ghost_rows", "ghost_slots",
                "remote_idx", "remote_offsets", "remote_rows", "bounds"))

    def kept(self, edge_mask: np.ndarray) -> tuple:
        """What a vertex filter's ``edge_mask`` keeps of this plan:
        ``(local, ghost, remote, runs)`` — per class the positions *in that
        class's arrays* of the surviving edges, and ``dest_runs`` over the
        surviving remote edges (run bounds index the kept remote arrays).

        Subsetting the pre-classified, owner-sorted arrays keeps their order
        (stable sorting commutes with subsetting), so nothing is re-derived
        and nothing is sorted: a kept run's bounds are the running sum of
        the kept count of each planned run.
        """
        keep_remote = edge_mask[self.remote_idx]
        remote = keep_remote.nonzero()[0]
        # the plan's runs tile [0, n_remote), so reduceat sees no empty span
        run_counts = np.add.reduceat(keep_remote.view(np.uint8),
                                     self.run_starts, dtype=np.intp)
        offsets, rows = self.remote_offsets[remote], self.remote_rows[remote]
        runs = []
        b1 = 0
        for run, count in zip(self.dest_runs, run_counts.tolist()):
            if count:
                b0, b1 = b1, b1 + count
                runs.append((run[0], b0, b1, offsets[b0:b1], rows[b0:b1]))
        return (edge_mask[self.local_idx].nonzero()[0],
                edge_mask[self.ghost_idx].nonzero()[0], remote, tuple(runs))

    def weight_split(self, key, edge_data: np.ndarray):
        """Per-class subsets ``(local, ghost, remote-sorted)`` of one edge
        data column, memoized under ``key`` (the spec's edge-prop name, or
        ``None`` for the weight column)."""
        entry = self._weight_cache.get(key)
        if entry is None:
            w = edge_data[self.es:self.ee]
            entry = (w[self.local_idx], w[self.ghost_idx], w[self.remote_idx])
            self._weight_cache[key] = entry
            self.nbytes += sum(a.nbytes for a in entry)
        return entry


class RoutingPlanCache:
    """Per-machine memo of :class:`ChunkPlan` objects.

    Keyed by ``(iter direction, lo, hi, ghost_ok)`` — a machine has exactly
    one immutable CSR per direction, and the ghost masks additionally depend
    on whether the accessed property participates in the job's ghost
    read/write set.  ``max_bytes`` is a soft cap: plans past it are built
    but not retained (counted under ``rejected``).
    """

    __slots__ = ("_plans", "hits", "misses", "rejected", "evicted", "nbytes",
                 "max_bytes")

    def __init__(self, max_bytes: int = 1 << 30):
        self._plans: dict[tuple, ChunkPlan] = {}
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.evicted = 0
        self.nbytes = 0
        self.max_bytes = max_bytes

    def lookup(self, csr: "LocalCsr", direction: str, lo: int, hi: int,
               ghost_ok: bool, machine_index: int,
               num_machines: int) -> tuple[ChunkPlan, bool]:
        """The plan for one chunk, built and (capacity permitting) retained
        on first use.  Returns ``(plan, was_cache_hit)``."""
        key = (direction, lo, hi, bool(ghost_ok))
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan, True
        self.misses += 1
        plan = ChunkPlan(csr, lo, hi, ghost_ok, machine_index, num_machines)
        if self.nbytes + plan.nbytes <= self.max_bytes:
            self._plans[key] = plan
            self.nbytes += plan.nbytes
        else:
            self.rejected += 1
        return plan, False

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def evict_chunks(self, direction: str, chunks: list) -> int:
        """Drop the plans of a streamed window that left DRAM.

        Out-of-core mode keys plan residency to window residency: a plan
        holds views into the window's CSR slice, so once the window is
        evicted its plans go too (both ghost_ok variants).  Returns the
        number of plans dropped.  Purely host-side bookkeeping — the next
        superstep rebuilds the plan when the window streams back in.
        """
        dropped = 0
        for lo, hi in chunks:
            for ghost_ok in (False, True):
                plan = self._plans.pop((direction, lo, hi, ghost_ok), None)
                if plan is not None:
                    self.nbytes -= plan.nbytes
                    dropped += 1
        self.evicted += dropped
        return dropped

    def clear(self) -> None:
        self._plans.clear()
        self.nbytes = 0


# ---------------------------------------------------------------------------
# Canonical staged apply (the content-ordered reduction of jobrunner).
# ---------------------------------------------------------------------------


class StageOrderCache:
    """Per-machine work buffers and host-work counter of the staged apply.

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
