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
                           lo: int, hi: int, kind: str) -> WorkTally:
    """Run the declarative edge-map kernel over local nodes [lo, hi) of the
    ``kind`` CSR (one of ``spec.iter_kinds``).

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
    csr = machine.csr(kind)
    tally.cpu_ops += n_nodes * (machine.config.engine.task_dispatch_time
                                / machine.machine_config.cpu_op_time)

    if spec.direction == "pull":
        ghost_ok = spec.source in exc.ghost_read_set
    else:
        ghost_ok = spec.target in exc.ghost_write_set
    plan, hit = machine.plan_cache.lookup(csr, kind, lo, hi,
                                          ghost_ok, machine.index,
                                          exc.num_machines)
    exc.stats.count("plan_cache_requests", "hit" if hit else "miss")

    # Vertex filter (deactivation): drop the edges of inactive rows but still
    # pay the per-node filter check — this is exactly why framework overhead
    # dominates many-iteration algorithms like KCore (Section 5.3.1).
    rows, targets, splits = plan.rows, plan.targets, plan.splits
    runs, positions = plan.dest_runs, None
    if spec.active is not None:
        act = machine.props[spec.active]
        tally.tasks = int(np.count_nonzero(act[lo:hi]))
        if tally.tasks == 0:
            return tally  # nothing selected: the dispatch cost is all
        if tally.tasks < n_nodes:
            rows, targets, splits, runs, positions = plan.kept(act)
    else:
        tally.tasks = n_nodes

    n_edges = len(rows)
    n_ghost = splits[1] - splits[0]
    tally.edges = n_edges
    exc.stats.edges_processed += n_edges
    tally.seq_bytes += n_edges * CSR_BYTES_PER_EDGE
    tally.cpu_ops += n_edges * 2.0  # loop + transform arithmetic

    if n_ghost:
        exc.stats.count("ghost_hits",
                        "read" if spec.direction == "pull" else "write",
                        n_ghost)

    weights = None
    if spec.use_weights and csr.edge_data(spec.edge_prop) is not None:
        weights = machine.plan_cache.weights(plan, spec.edge_prop)
        if positions is not None:
            weights = weights[positions]
    kernel = _pull_planned if spec.direction == "pull" else _push_planned
    kernel(exc, machine, ws, spec, tally, rows, targets, splits, runs,
           weights)
    return tally


def _pull_planned(exc, machine, ws, spec, tally, rows, targets, splits,
                  runs, weights) -> None:
    """n.target op= f(t.source) over in-neighbors t.

    The target node is always local and owned by this worker (all in-edges of
    a node run on one worker), so the reduce uses plain stores — the very
    reason pull-based PageRank beats push-based in Table 3.  The arguments
    are the plan's fields, or what a filter kept of them, and the weights
    in the same order.
    """
    target = machine.props[spec.target]
    for s, e, from_ghost in ((0, splits[0], False),
                             (splits[0], splits[1], True)):
        n = e - s
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
        vals = np.take(src, targets[s:e], mode="clip",
                       out=machine.stage_cache.scratch(n, src.dtype, 2))
        vals = spec.apply_transform(
            vals, weights[s:e] if weights is not None else None)
        spec.op.apply_at(target, rows[s:e], vals)
        exc.stats.local_reads += n
        loc = cache_adjusted_locality(GATHER_LOCALITY, ws_bytes,
                                      machine.machine_config)
        tally.add_bytes(n * VALUE_BYTES, loc)
        tally.add_bytes(n * VALUE_BYTES, SCATTER_LOCALITY)

    n = len(rows) - splits[1]
    if n:
        w_remote = weights[splits[1]:] if weights is not None else None
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


def _push_planned(exc, machine, ws, spec, tally, rows, targets, splits,
                  runs, weights) -> None:
    """t.target op= f(n.source) over out-neighbors t.  The arguments are as
    :func:`_pull_planned`'s; the transform is elementwise, as there."""
    src = machine.props[spec.source]
    g0, g1 = splits
    n_remote = len(rows) - g1
    tally.add_bytes(len(rows) * VALUE_BYTES, PUSH_SRC_LOCALITY)
    # Every source value is gathered before the chunk's first write: a spec
    # may push a property into itself.
    if g1:
        # local and ghost values die within the chunk: gather them into
        # persistent scratch
        vals = spec.apply_transform(
            np.take(src, rows[:g1], mode="clip",
                    out=machine.stage_cache.scratch(g1, src.dtype, 2)),
            weights[:g1] if weights is not None else None)
    if n_remote:
        # buffered until the flush: a fresh array, never scratch
        rem_vals = spec.apply_transform(
            np.take(src, rows[g1:], mode="clip"),
            weights[g1:] if weights is not None else None)

    n = g0
    if n:
        spec.op.apply_at(machine.props[spec.target], targets[:g0],
                         vals[:g0])
        exc.stats.local_writes += n
        # Multiple workers may hit the same local target: atomics (Section
        # 5.2, the push-vs-pull performance gap).
        _price_atomics(exc, machine, spec, tally, targets[:g0], vals[:g0])
        loc = cache_adjusted_locality(PUSH_DST_LOCALITY,
                                      machine.n_local * VALUE_BYTES,
                                      machine.machine_config)
        tally.add_bytes(n * VALUE_BYTES, loc)

    n = g1 - g0
    if n:
        exc.stats.local_writes += n
        spec.op.apply_at(machine.ghosts.arrays[spec.target], targets[g0:g1],
                         vals[g0:g1])
        if not exc.privatize:  # privatized ghost writes need no atomics
            _price_atomics(exc, machine, spec, tally, targets[g0:g1],
                           vals[g0:g1], ghost=True)
        tally.add_bytes(n * VALUE_BYTES, PUSH_DST_LOCALITY)

    n = n_remote
    if n:
        exc.stats.remote_writes += n
        tally.cpu_ops += n * (exc.marshal_per_item / exc.cpu_op_time)
        tally.seq_bytes += n * 2 * VALUE_BYTES
        # Destination-sorted sub-chunks, as in _pull_planned.
        for dst, b0, b1, run_offsets, _ in runs:
            buf = ws.write_buf(dst, spec.target, spec.op)
            buf.append(run_offsets, rem_vals[b0:b1])
            ws.maybe_flush_writes(dst, spec.target)


def _price_atomics(exc, machine, spec, tally, offsets, values,
                   ghost=False) -> None:
    """Charge a push's writes into owned rows (or shared ghost slots) by
    :meth:`~repro.core.jobrunner.JobExecution.atomic_cost`."""
    compares, atomics = exc.atomic_cost(machine, spec.target, spec.op,
                                        offsets, values, ghost)
    tally.cpu_ops += compares
    tally.atomic_ops += atomics


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
