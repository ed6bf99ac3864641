"""Vectorized chunk executors — the scheduler's fast path for the built-in
node/edge iterators (Section 4.1.2).

Each function processes one chunk (a contiguous local-node range) with numpy,
performing the *same* logical reads, writes, buffering and ghost routing as
the scalar RTC path, and returns a :class:`WorkTally` describing the work so
the CPU/DRAM model can price it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..runtime.memory import cache_adjusted_locality
from .tasks import EdgeMapSpec

if TYPE_CHECKING:  # pragma: no cover
    from .jobrunner import JobExecution
    from .machine import Machine
    from .routing_plan import ChunkPlan
    from .task_manager import WorkerState

#: Bytes of CSR metadata the worker streams per edge (neighbor id + resolved
#: owner/offset/ghost-slot words).
CSR_BYTES_PER_EDGE = 24.0
#: Resolve-on-load (out-of-core only): a streamed window arrives byte-coded
#: (:mod:`repro.runtime.disk`), and the worker that runs a chunk first
#: decodes every edge it visits — varint read, zigzag undo, prefix add —
#: then rebuilds its resolved words — owner by pivot search, owner-local
#: offset subtract, ghost-slot probe — reading the chunk's encoded rows and
#: writing the resolved ones sequentially.
DECODE_OPS_PER_EDGE = 4.0
RESOLVE_OPS_PER_EDGE = 8.0
#: Bytes per random property gather / scatter element.
VALUE_BYTES = 8.0


@dataclass
class WorkTally:
    """Counted work for one chunk, to be converted into simulated seconds."""

    cpu_ops: float = 0.0
    atomic_ops: float = 0.0
    random_bytes: float = 0.0
    seq_bytes: float = 0.0
    tasks: int = 0
    edges: int = 0

    def add(self, other: "WorkTally") -> None:
        self.cpu_ops += other.cpu_ops
        self.atomic_ops += other.atomic_ops
        self.random_bytes += other.random_bytes
        self.seq_bytes += other.seq_bytes
        self.tasks += other.tasks
        self.edges += other.edges

    def add_bytes(self, nbytes: float, locality: float) -> None:
        """Account ``nbytes`` at an intermediate access locality by splitting
        between the pure-random and streaming cost buckets."""
        self.random_bytes += nbytes * (1.0 - locality)
        self.seq_bytes += nbytes * locality


#: Access localities of the engine's hot paths.  CSR neighbor lists are
#: sorted, so property gathers along them prefetch well; scatters into a
#: chunk's own rows stay cache-resident; copier-side request addresses are
#: the least local (they interleave many remote requesters) — that is the
#: Figure 8(a) random-read story.
GATHER_LOCALITY = 0.6
SCATTER_LOCALITY = 0.8
PUSH_SRC_LOCALITY = 0.9
PUSH_DST_LOCALITY = 0.35
RESPONSE_APPLY_LOCALITY = 0.7
COPIER_READ_LOCALITY = 0.3
COPIER_WRITE_LOCALITY = 0.35


def execute_edge_map_chunk(exc: "JobExecution", machine: "Machine",
                           ws: "WorkerState", spec: EdgeMapSpec,
                           lo: int, hi: int) -> WorkTally:
    """Run the declarative edge-map kernel over local nodes [lo, hi).

    The iteration-invariant part of the chunk (edge expansion, owner/ghost
    classification, owner-stable remote sort into per-destination runs)
    comes from the machine's :class:`ChunkPlan` for it, memoized or rebuilt
    per :class:`~repro.core.routing_plan.RoutingPlanCache`'s capacity, so
    the chunk itself is pure gather/scatter plus buffer appends.  An
    active-vertex filter only subsets the plan's arrays
    (:meth:`ChunkPlan.kept`), which keeps their order.
    """
    tally = WorkTally()
    n_nodes = hi - lo
    if n_nodes == 0:
        return tally
    csr = machine.csr(spec.iter_kind)
    tally.cpu_ops += n_nodes * (machine.config.engine.task_dispatch_time
                                / machine.machine_config.cpu_op_time)

    if spec.direction == "pull":
        ghost_ok = spec.source in exc.ghost_read_set
    else:
        ghost_ok = spec.target in exc.ghost_write_set
    plan, hit = machine.plan_cache.lookup(csr, spec.iter_kind, lo, hi,
                                          ghost_ok, machine.index,
                                          exc.num_machines)
    exc.hooks.emit("task.plan_cache", machine=machine.index, hit=hit,
                   time=exc.sim.now)

    # Vertex filter (deactivation): drop the edges of inactive rows but still
    # pay the per-node filter check — this is exactly why framework overhead
    # dominates many-iteration algorithms like KCore (Section 5.3.1).
    kept = None
    if spec.active is not None:
        act = machine.props[spec.active][lo:hi].astype(bool, copy=False)
        tally.tasks = int(np.count_nonzero(act))
        if tally.tasks == 0:
            return tally  # nothing selected: the dispatch cost is all
        if tally.tasks < n_nodes:
            kept = plan.kept(np.repeat(act, plan.degrees))
    else:
        tally.tasks = n_nodes

    if kept is None:
        n_ghost, n_remote, n_edges = plan.n_ghost, plan.n_remote, plan.n_edges
    else:
        n_ghost, n_remote = len(kept[1]), len(kept[2])
        n_edges = len(kept[0]) + n_ghost + n_remote
    tally.edges = n_edges
    exc.stats.edges_processed += n_edges
    tally.seq_bytes += n_edges * CSR_BYTES_PER_EDGE
    tally.cpu_ops += n_edges * 2.0  # loop + transform arithmetic

    mode = "read" if spec.direction == "pull" else "write"
    hook_prop = spec.source if mode == "read" else spec.target
    if n_ghost:
        exc.hooks.emit("ghost.hit", machine=machine.index, prop=hook_prop,
                       mode=mode, count=n_ghost, time=exc.sim.now)
    if n_remote:
        exc.hooks.emit("ghost.miss", machine=machine.index, prop=hook_prop,
                       mode=mode, count=n_remote, time=exc.sim.now)

    edge_data = csr.edge_data(spec.edge_prop) if spec.use_weights else None
    if spec.direction == "pull":
        _pull_planned(exc, machine, ws, spec, tally, plan, edge_data, kept)
    else:
        _push_planned(exc, machine, ws, spec, tally, plan, edge_data, kept)
    return tally


def _pull_planned(exc, machine, ws, spec, tally, plan: "ChunkPlan",
                  edge_data, kept) -> None:
    """n.target op= f(t.source) over in-neighbors t.

    The target node is always local and owned by this worker (all in-edges of
    a node run on one worker), so the reduce uses plain stores — the very
    reason pull-based PageRank beats push-based in Table 3.  ``kept`` is
    None, or :meth:`ChunkPlan.kept` of the filter's mask.
    """
    target = machine.props[spec.target]
    if edge_data is not None:
        w_local, w_ghost, w_remote = plan.weight_split(spec.edge_prop, edge_data)
    else:
        w_local = w_ghost = w_remote = None
    kept_local, kept_ghost, kept_remote, kept_runs = kept or (None,) * 4

    for sel_rows, sel, from_ghost, w, pos in (
            (plan.local_rows, plan.local_offsets, False, w_local, kept_local),
            (plan.ghost_rows, plan.ghost_slots, True, w_ghost, kept_ghost)):
        if pos is not None:
            sel_rows, sel = sel_rows[pos], sel[pos]
            w = w[pos] if w is not None else None
        n = len(sel_rows)
        if not n:
            continue
        if from_ghost:
            src = machine.ghosts.arrays[spec.source]
            ws_bytes = machine.ghosts.num_ghosts * VALUE_BYTES
        else:
            src = machine.props[spec.source]
            ws_bytes = machine.n_local * VALUE_BYTES
        # Gather into a persistent per-machine scratch buffer: the values
        # are consumed by apply_at below within this chunk, so the
        # ~chunk-sized allocation (and its page faults) per chunk buys
        # nothing.
        vals = np.take(src, sel, mode="clip",
                       out=machine.stage_cache.scratch(n, src.dtype, 2))
        vals = spec.apply_transform(vals, w)
        spec.op.apply_at(target, sel_rows, vals)
        exc.stats.local_reads += n
        loc = cache_adjusted_locality(GATHER_LOCALITY, ws_bytes,
                                      machine.machine_config)
        tally.add_bytes(n * VALUE_BYTES, loc)
        tally.add_bytes(n * VALUE_BYTES, SCATTER_LOCALITY)

    if kept_remote is None:
        n, runs = plan.n_remote, plan.dest_runs
    else:
        n, runs = len(kept_remote), kept_runs
        if w_remote is not None:
            w_remote = w_remote[kept_remote]
    if n:
        exc.stats.remote_reads += n
        tally.cpu_ops += n * (exc.marshal_per_item / exc.cpu_op_time)
        tally.seq_bytes += n * 2 * VALUE_BYTES  # marshal into the buffer
        # Destination-sorted sub-chunks: one fused append per destination,
        # pre-sliced at plan build time.
        for dst, b0, b1, run_offsets, run_rows in runs:
            buf = ws.read_buf(dst, spec.source)
            buf.append(run_offsets, run_rows,
                       w_remote[b0:b1] if w_remote is not None else None)
            ws.maybe_flush_reads(dst, spec.source)


def _push_planned(exc, machine, ws, spec, tally, plan: "ChunkPlan",
                  edge_data, kept) -> None:
    """t.target op= f(n.source) over out-neighbors t.  ``kept`` is None, or
    :meth:`ChunkPlan.kept` of the filter's mask."""
    weights = edge_data[plan.es:plan.ee] if edge_data is not None else None
    src = machine.props[spec.source]
    if kept is None:
        # Per-chunk transient: gather into persistent scratch (the per-class
        # gathers below re-copy before buffering, so nothing aliasing this
        # buffer outlives the chunk).
        src_vals = np.take(src, plan.rows, mode="clip",
                           out=machine.stage_cache.scratch(
                               plan.n_edges, src.dtype, 2))
        src_vals = spec.apply_transform(src_vals, weights)
        local_offsets, ghost_slots = plan.local_offsets, plan.ghost_slots
        local_vals = src_vals[plan.local_idx]
        ghost_vals = src_vals[plan.ghost_idx]
        rem_vals = src_vals[plan.remote_idx]
        runs = plan.dest_runs
    else:
        # Transform only the surviving edges, gathered class by class so
        # each class's values are one contiguous slice of the result (the
        # transform is elementwise, as the per-class pull path assumes).
        kept_local, kept_ghost, kept_remote, runs = kept
        sel = np.concatenate((plan.local_idx[kept_local],
                              plan.ghost_idx[kept_ghost],
                              plan.remote_idx[kept_remote]))
        src_vals = spec.apply_transform(
            src[plan.rows[sel]], weights[sel] if weights is not None else None)
        local_offsets = plan.local_offsets[kept_local]
        ghost_slots = plan.ghost_slots[kept_ghost]
        n_local, n_ghost = len(kept_local), len(kept_ghost)
        local_vals = src_vals[:n_local]
        ghost_vals = src_vals[n_local:n_local + n_ghost]
        rem_vals = src_vals[n_local + n_ghost:]
    tally.add_bytes(len(src_vals) * VALUE_BYTES, PUSH_SRC_LOCALITY)

    n = len(local_offsets)
    if n:
        spec.op.apply_at(machine.props[spec.target], local_offsets, local_vals)
        exc.stats.local_writes += n
        # Multiple workers may hit the same local target: atomics (Section
        # 5.2, the push-vs-pull performance gap).
        tally.atomic_ops += n
        exc.stats.atomic_ops += n
        loc = cache_adjusted_locality(PUSH_DST_LOCALITY,
                                      machine.n_local * VALUE_BYTES,
                                      machine.machine_config)
        tally.add_bytes(n * VALUE_BYTES, loc)

    n = len(ghost_slots)
    if n:
        exc.stats.local_writes += n
        spec.op.apply_at(machine.ghosts.arrays[spec.target], ghost_slots,
                         ghost_vals)
        if not exc.privatize:  # privatized ghost writes need no atomics
            tally.atomic_ops += n
            exc.stats.atomic_ops += n
        tally.add_bytes(n * VALUE_BYTES, PUSH_DST_LOCALITY)

    n = len(rem_vals)
    if n:
        exc.stats.remote_writes += n
        tally.cpu_ops += n * (exc.marshal_per_item / exc.cpu_op_time)
        tally.seq_bytes += n * 2 * VALUE_BYTES
        # Destination-sorted sub-chunks, as in _pull_planned.
        for dst, b0, b1, run_offsets, _ in runs:
            buf = ws.write_buf(dst, spec.target, spec.op)
            buf.append(run_offsets, rem_vals[b0:b1])
            ws.maybe_flush_writes(dst, spec.target)


def execute_node_kernel_chunk(exc: "JobExecution", machine: "Machine",
                              kernel, ops_per_node: float,
                              bytes_per_node: float, lo: int, hi: int) -> WorkTally:
    """Run a local node kernel over [lo, hi) of this machine's range."""
    from .engine import LocalView  # local import to avoid a cycle

    view = LocalView(machine)
    kernel(view, lo, hi)
    n = hi - lo
    exc.stats.tasks_executed += n
    return WorkTally(cpu_ops=n * ops_per_node, random_bytes=0.0,
                     seq_bytes=n * bytes_per_node, tasks=n, edges=0)
