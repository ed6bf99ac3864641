"""The PGX.D programming model: run-to-completion tasks (Section 4.1).

A task encodes one neighborhood-iteration kernel.  Its ``run()`` method is
invoked for every (in- or out-) edge of every active node and *always returns*
— there is no stack capture.  A remote read issued inside ``run()`` buffers a
request and the engine later calls ``read_done()`` with the fetched value on
the same object, executed by the same worker thread.  State that must survive
the continuation lives in the task object's fields or in temporary node
properties, exactly as Section 3.2 prescribes.

Section 4.1.2 notes that the built-in iterators let the scheduler specialize
a job; the job's type picks the path:

* a ``TaskJob`` runs its task class on the **scalar path**:
  ``filter()/run()/read_done()`` per edge — fully general (any Python in the
  callbacks);
* an ``EdgeMapJob`` runs its :class:`EdgeMapSpec` on the **vectorized
  path**, processing whole chunks with numpy while performing the *same*
  reads, writes, buffering and ghost traffic.

``EdgeMapJob.as_task_job()`` runs a spec on the scalar path through
:func:`spec_task`; tests assert the two paths produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .properties import ReduceOp


class TaskContext:
    """Execution context handed to scalar task callbacks, and the scalar
    path's Data Manager (Section 3.3): it resolves each access against the
    worker's machine and buffers what must go remote on the worker.

    One context per worker thread, re-pointed at each (node, neighbor) pair.
    All accessor names follow the paper's C++ API.
    """

    __slots__ = ("_ws", "_node_global", "_nbr_global",
                 "_edge_weight", "_task", "_edge_idx", "_edge_props")

    def __init__(self, ws):
        self._ws = ws
        self._node_global = -1
        self._nbr_global = -1
        self._edge_weight = 0.0
        self._task = None
        self._edge_idx = -1
        self._edge_props = None

    # -- identity -----------------------------------------------------------

    def node_id(self) -> int:
        """Global id of the current node (the paper's ``get_node_id()``)."""
        return self._node_global

    def nbr_id(self) -> int:
        """Global id of the neighbor on the current edge (``get_nbr_id()``)."""
        return self._nbr_global

    def edge_weight(self) -> float:
        """Weight of the current edge (0.0 on unweighted graphs)."""
        return self._edge_weight

    def edge_prop(self, name: str) -> float:
        """A named edge property of the current edge (edge iterators only)."""
        if self._edge_props is None or name not in self._edge_props:
            raise KeyError(f"no edge property {name!r} on the current edge")
        return float(self._edge_props[name][self._edge_idx])

    def machine(self) -> int:
        return self._ws.machine.index

    def worker(self) -> int:
        return self._ws.windex

    # -- location resolution --------------------------------------------------

    def _resolve(self, vertex: int, prop: str, mode: str):
        """``(column, row, is_ghost)`` holding ``vertex.prop`` on this
        machine: the owner's row, or a ghost slot the job syncs for
        ``mode``; None when the access must go remote."""
        m = self._ws.machine
        if m.lo <= vertex < m.hi:
            return m.props[prop], vertex - m.lo, False
        exc = self._ws.exc
        synced = exc.ghost_read_set if mode == "read" else exc.ghost_write_set
        slot = m.ghosts.slot_of_one(vertex)
        if slot >= 0 and prop in synced and prop in m.ghosts.arrays:
            exc.stats.count("ghost_hits", mode)
            return m.ghosts.arrays[prop], slot, True
        return None

    def _remote(self, vertex: int) -> tuple[int, int]:
        """``(owner machine, owner-local offset)`` of a ghost miss."""
        m = self._ws.machine
        owner = m.partitioning.owner(vertex)
        return owner, vertex - m.partitioning.starts[owner]

    # -- data access ----------------------------------------------------------

    def get_local(self, vertex: int, prop: str):
        """Read a property of a vertex resident on this machine (or a ghost)."""
        hit = self._resolve(vertex, prop, "read")
        if hit is None:
            raise KeyError(
                f"vertex {vertex} is neither owned by machine {self.machine()} "
                f"nor ghosted; use read_remote")
        col, row, _ = hit
        self._ws.exc.stats.local_reads += 1
        return col[row]

    def set_local(self, vertex: int, value, prop: str) -> None:
        """Write a property of a vertex owned by this machine."""
        m = self._ws.machine
        if not m.lo <= vertex < m.hi:
            raise KeyError(f"vertex {vertex} is not owned by machine {m.index}")
        self._ws.exc.stats.local_writes += 1
        m.props[prop][vertex - m.lo] = value

    def read_remote(self, vertex: int, prop: str, tag=None) -> None:
        """Request ``vertex.prop``; ``read_done`` fires when it is available.

        Local (and ghosted) vertices resolve immediately — ``read_done`` is
        invoked synchronously with a pointer to the local data (Section 4.1).
        Otherwise the request is buffered and the side structure logs the
        continuation (Section 3.2).
        """
        ws = self._ws
        hit = self._resolve(vertex, prop, "read")
        if hit is not None:
            col, row, _ = hit
            ws.exc.stats.local_reads += 1
            self._task.read_done(self, col[row], tag)
            return
        owner, offset = self._remote(vertex)
        ws.read_buf(owner, prop).append(
            np.array([offset], dtype=np.int64),
            tasks=((self._task, self._node_global, self._nbr_global,
                    self._edge_weight, self._edge_idx, tag),))
        ws.exc.stats.remote_reads += 1
        ws.maybe_flush_reads(owner, prop)

    def write_remote(self, vertex: int, prop: str, value, op: ReduceOp) -> None:
        """Reduce ``value`` into ``vertex.prop`` wherever it lives: applied
        at once when the target is owned or ghosted, buffered otherwise."""
        ws = self._ws
        exc = ws.exc
        hit = self._resolve(vertex, prop, "write")
        if hit is not None:
            col, row, ghost = hit
            col[row] = op.scalar(col[row], value)
            exc.stats.local_writes += 1
            # Pull-style regions (one writer per target) never pay atomic
            # cost, and privatized ghost writes need none.
            if exc.job_uses_atomics and not (ghost and exc.privatize):
                compares, atomics = exc.atomic_cost(
                    ws.machine, prop, op, np.array([row]), np.array([value]),
                    ghost)
                ws.pending_atomics += atomics
                ws.deferred_cpu_ops += compares
            return
        owner, offset = self._remote(vertex)
        ws.write_buf(owner, prop, op).append(
            np.array([offset], dtype=np.int64), np.array([value]))
        exc.stats.remote_writes += 1
        ws.maybe_flush_writes(owner, prop)

    def call_remote(self, machine: int, fn_id: int, *args) -> None:
        """Fire-and-forget remote method invocation (Section 3.4)."""
        self._ws.exc.send_rmi(self._ws.machine.index, machine, fn_id, args)


class Task:
    """Base class of all user contexts.  Subclass and override the hooks."""

    #: Iteration kind; set by the iterator subclasses below.
    ITER: str = "node"

    def filter(self, ctx: TaskContext) -> bool:
        """Vertex-deactivation hook: return False to skip the current vertex."""
        return True

    def run(self, ctx: TaskContext) -> None:
        """Entry point, called once per node (node iterator) or per edge
        (edge iterators).  Must return; yield via buffered remote reads."""
        raise NotImplementedError

    def read_done(self, ctx: TaskContext, value, tag=None) -> None:
        """Continuation invoked when a ``read_remote`` value arrives."""
        raise NotImplementedError(
            f"{type(self).__name__} issued read_remote but defines no read_done")


class NodeIterTask(Task):
    """``run()`` is invoked once per active node."""

    ITER = "node"


class OutNbrIterTask(Task):
    """``run()`` is invoked once per out-edge of each active node (pushing)."""

    ITER = "out"


class InNbrIterTask(Task):
    """``run()`` is invoked once per in-edge of each active node (pulling)."""

    ITER = "in"


@dataclass(frozen=True)
class EdgeMapSpec:
    """Declarative form of the two canonical neighborhood-iteration kernels.

    ``pull``  : ``foreach(n) foreach(t: n.inNbrs)  n.target op= f(t.source, w)``
    ``push``  : ``foreach(n) foreach(t: n.outNbrs) t.target op= f(n.source, w)``

    ``transform`` maps (source values, edge weights or None) to the reduced
    values; ``None`` means identity.  ``active`` names a boolean property
    filtering the *current* node n.  ``reverse`` iterates the opposite edge
    direction (pull from out-neighbors / push to in-neighbors).
    ``undirected`` iterates both incident edge sets in one region — the
    direction's own list, then the opposite one — which algorithms with
    undirected semantics (WCC, KCore) use; it excludes ``reverse``.
    """

    direction: str                       # "pull" | "push"
    source: str
    target: str
    op: ReduceOp
    transform: Optional[Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]] = None
    use_weights: bool = False
    active: Optional[str] = None
    reverse: bool = False
    #: feed the transform a named O(E) edge property instead of the weight
    edge_prop: Optional[str] = None
    undirected: bool = False

    def __post_init__(self):
        if self.direction not in ("pull", "push"):
            raise ValueError(f"direction must be 'pull' or 'push', got {self.direction!r}")
        if self.edge_prop is not None and not self.use_weights:
            raise ValueError("edge_prop requires use_weights=True "
                             "(the transform consumes the per-edge data)")
        if self.undirected and self.reverse:
            raise ValueError("undirected iterates both edge directions; "
                             "it cannot be combined with reverse=True")

    def apply_transform(self, values: np.ndarray,
                        weights: Optional[np.ndarray]) -> np.ndarray:
        if self.transform is None:
            return values
        return self.transform(values, weights)

    @property
    def iter_kinds(self) -> tuple[str, ...]:
        """The CSR directions the region iterates, in chunk-queue order."""
        own, opposite = (("in", "out") if self.direction == "pull"
                         else ("out", "in"))
        if self.undirected:
            return own, opposite
        return (opposite,) if self.reverse else (own,)


def spec_task(spec: EdgeMapSpec, name: str = "SpecTask") -> type:
    """Build a Task class whose scalar callbacks compute what the spec does
    vectorized (identical semantics, which the test suite exercises).

    The class keeps the spec as ``SPEC``: the job reads its CSR directions
    and write pricing from it, and out-of-core streaming ships only the edge
    column it names.  Each chunk runs over its own CSR direction, so an
    undirected spec's class iterates both.
    """

    base = InNbrIterTask if spec.iter_kinds[0] == "in" else OutNbrIterTask

    class _Generated(base):
        SPEC = spec

        def filter(self, ctx: TaskContext) -> bool:
            if spec.active is None:
                return True
            return bool(ctx.get_local(ctx.node_id(), spec.active))

        if spec.direction == "pull":

            def run(self, ctx: TaskContext) -> None:
                if spec.use_weights:
                    # Stash the (local) edge weight for the continuation.
                    ctx.read_remote(ctx.nbr_id(), spec.source, tag=ctx.edge_weight())
                else:
                    ctx.read_remote(ctx.nbr_id(), spec.source)

            def read_done(self, ctx: TaskContext, value, tag=None) -> None:
                w = np.asarray([tag if tag is not None else 0.0])
                val = spec.apply_transform(np.asarray([value]),
                                           w if spec.use_weights else None)[0]
                cur = ctx.get_local(ctx.node_id(), spec.target)
                ctx.set_local(ctx.node_id(), spec.op.scalar(cur, val), spec.target)

        else:

            def run(self, ctx: TaskContext) -> None:
                raw = ctx.get_local(ctx.node_id(), spec.source)
                w = np.asarray([ctx.edge_weight()])
                val = spec.apply_transform(np.asarray([raw]),
                                           w if spec.use_weights else None)[0]
                ctx.write_remote(ctx.nbr_id(), spec.target, val, spec.op)

    _Generated.__name__ = name
    _Generated.__qualname__ = name
    return _Generated
