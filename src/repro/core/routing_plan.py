"""Iteration-invariant routing plans for the vectorized edge-map path.

The hot loop of :func:`repro.core.vector_kernels.execute_edge_map_chunk`
re-derives, for every chunk of every superstep, work that depends only on the
immutable CSR: the ``np.repeat`` edge expansion, the owner/ghost/remote
classification masks, and the owner-stable sort + per-destination bounds that
route remote requests.  PGX.D's whole point (Sections 3.2-3.4) is keeping
that path at memory-bandwidth speed; re-deriving invariants every iteration
is pure overhead for multi-superstep algorithms (PageRank, SSSP, WCC run the
same chunks tens of times).

A :class:`RoutingPlanCache` lives on each :class:`~repro.core.machine.Machine`
and memoizes one :class:`ChunkPlan` per ``(csr direction, chunk range, ghost
visibility)``.  Plans are host-side only — consuming a cached plan performs
the *same* logical reads/writes/traffic and produces bit-identical results
and identical simulated times; only the wall clock of the simulator process
improves.  An active-vertex filter only *subsets* the cached plan
(:meth:`ChunkPlan.kept`): the per-class arrays are already classified and
owner-sorted, and stable sorting commutes with subsetting, so a filtered
chunk re-derives and re-sorts nothing and stays bit-identical.  The generic
per-chunk derivation in ``vector_kernels`` runs only with
``routing_plan_cache=False``, as the reference.

The second half of the module is the canonical staged apply
(:func:`canonical_apply`): staged remote contributions are reduced so that
the result is a function of the data alone.  Operators whose result cannot
depend on order skip the sort entirely; float SUM and OVERWRITE are reduced
in ``(row, value)`` order.
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

        # Stable owner sort: identical permutation to sorting the remote
        # subset directly, so buffered request order (and therefore every
        # downstream message and reduction) matches the uncached path.
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
    """Per-machine memo of row permutations for the canonical staged apply.

    Only order-*sensitive* reductions (float SUM, OVERWRITE) reach it: they
    sort (rows, values) lexicographically once per machine per superstep.
    The *row* stream of a staging group is iteration-invariant for
    stationary algorithms (same chunks issue the same remote reads every
    superstep), so its stable row permutation ``P`` and the pre-sorted rows
    ``rows[P]`` can be reused — verified by an exact ``np.array_equal``
    comparison, so a changed row stream transparently recomputes.  Keyed by
    staging-group identity; bounded by wholesale reset, which only ever
    costs one recompute per entry.
    """

    __slots__ = ("_entries", "max_entries", "hits", "misses", "_scratch",
                 "sorted_elements")

    def __init__(self, max_entries: int = 32):
        self._entries: dict = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: elements that went through the canonical sort — a host-work
        #: proxy that repeats bit for bit (0 on MIN/MAX/AND/OR workloads)
        self.sorted_elements = 0
        #: reusable per-dtype work buffers for the pack-and-sort step and
        #: the planned kernels' gathers — they are large (≈ remote edges per
        #: superstep), so re-allocating them every use costs real
        #: page-fault time
        self._scratch: dict = {}

    def scratch(self, n: int, dtype, tag: int = 0) -> np.ndarray:
        """A length-``n`` work view of a persistent per-(dtype, tag) buffer.

        ``tag`` distinguishes buffers of the same dtype that must be live
        simultaneously (e.g. the permuted values and the sorted values)."""
        dtype = np.dtype(dtype)
        key = (dtype.str, tag)
        buf = self._scratch.get(key)
        if buf is None or len(buf) < n:
            buf = np.empty(max(n, 1024), dtype=dtype)
            self._scratch[key] = buf
        return buf[:n]

    def lookup(self, key, rows: np.ndarray):
        """``(P, rows[P])`` for this group's row stream, memoized."""
        entry = self._entries.get(key)
        if entry is not None:
            cached_rows, perm, sorted_rows = entry
            if cached_rows is rows or (len(cached_rows) == len(rows)
                                       and np.array_equal(cached_rows, rows)):
                self.hits += 1
                return perm, sorted_rows
        perm = np.argsort(rows, kind="stable")
        sorted_rows = rows[perm]
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = (rows, perm, sorted_rows)
        self.misses += 1
        return perm, sorted_rows


def canonical_apply(op, target: np.ndarray, rows: np.ndarray,
                    vals: np.ndarray, cache: "StageOrderCache | None" = None,
                    key=None) -> None:
    """Reduce the staged ``(rows, vals)`` into ``target`` so the result is a
    function of the data alone, never of arrival order.

    An operator whose result does not depend on the order of its
    contributions (:meth:`ReduceOp.order_insensitive` — MIN, MAX, AND, OR,
    integer/bool SUM) is applied straight through ``op.apply_at``: no
    permutation, no cache entry, no sort.  Float SUM and OVERWRITE are
    reduced in ``np.lexsort((vals, rows))`` order, bit for bit: the pairs
    are packed into complex128 keys behind the cached row permutation and
    stable-sorted once, with a plain lexsort wherever the packing would not
    be exact.
    """
    n = len(rows)
    if n <= 1 or op.order_insensitive(target.dtype):
        op.apply_at(target, rows, vals)
        return
    if cache is not None:
        cache.sorted_elements += n
    parts = _stage_pack(rows, vals, cache, key)
    if parts is None:
        order = np.lexsort((vals, rows))
        op.apply_at(target, rows[order], vals[order])
        return
    sorted_rows, packed = parts
    # The apply needs the sorted *pairs*, never the permutation: sort the
    # packed keys in place (`packed` is scratch) and read the value half
    # straight out of the imaginary component — the strided .imag view
    # costs ``ufunc.at`` nothing.  Within a row group every row is equal, so
    # the row half is exactly the cached ``rows[P]``.  Non-float64 values
    # round-trip through the float64 imaginary part exactly (the pack
    # guards admit only ≤32-bit ints/bools and ≤64-bit floats), but must
    # be cast back so the reduction arithmetic stays in the value dtype.
    packed.sort(kind="stable")
    sorted_vals = packed.imag
    if sorted_vals.dtype != vals.dtype:
        sorted_vals = sorted_vals.astype(vals.dtype)
    op.apply_at(target, sorted_rows, sorted_vals)


def _stage_pack(rows: np.ndarray, vals: np.ndarray,
                cache: "StageOrderCache | None", key):
    """``(rows[P], packed)`` for the stable row permutation ``P``, where
    ``packed = rows[P] + 1j*vals[P]`` awaits its stable sort, or None when
    the packing would not be exact (caller falls back to lexsort).

    numpy orders complex values lexicographically by (real, imag), and with
    the rows pre-sorted the real parts are already nondecreasing, which
    timsort exploits.  Both halves must embed into float64 losslessly:

    - ``vals`` must be a non-NaN float (≤64-bit) or ≤32-bit int/bool column
      (NaN complex comparisons and >2**53 integers would reorder);
    - ``rows`` must lie in ``[0, 2**52)`` — always true for local offsets,
      guarded anyway.
    """
    kind = vals.dtype.kind
    if kind == "f":
        # One reduction pass instead of isnan()+any(): min() propagates NaN,
        # so a NaN anywhere surfaces as a NaN minimum (no temp bool array).
        if vals.dtype.itemsize > 8 or np.isnan(np.min(vals)):
            return None
    elif not (kind in "biu" and vals.dtype.itemsize <= 4):
        return None
    if cache is not None and key is not None:
        perm, sorted_rows = cache.lookup(key, rows)
    else:
        perm = np.argsort(rows, kind="stable")
        sorted_rows = rows[perm]
    if sorted_rows[0] < 0 or sorted_rows[-1] >= 2 ** 52:
        return None
    n = len(rows)
    if cache is not None:
        packed = cache.scratch(n, np.complex128)
        vp = np.take(vals, perm, mode="clip",
                     out=cache.scratch(n, vals.dtype))
    else:
        packed = np.empty(n, dtype=np.complex128)
        vp = vals[perm]
    # Assemble the key by component: a `rows + 1j*vals` product would turn
    # ±inf values into NaN real parts (0*inf) and break the ordering.
    packed.real = sorted_rows
    packed.imag = vp
    return sorted_rows, packed
