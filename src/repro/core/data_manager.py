"""The Data Manager (Section 3.3): location resolution and request buffering.

Every read or write of graph data goes through here.  Local data is resolved
immediately; remote requests are accumulated into per-worker, per-destination
buffers, with a side structure logging read requests in order so responses
can be matched back to their originating tasks (Section 3.2).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from .properties import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from .jobrunner import JobExecution
    from .machine import Machine


class DataManager:
    """Per-machine data layer.  Holds no per-job state except a pointer to the
    active :class:`JobExecution`, installed by the Job Runner."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.exec: Optional["JobExecution"] = None

    # ------------------------------------------------------------------
    # local access (scalar path)
    # ------------------------------------------------------------------

    def get_local(self, vertex: int, prop: str):
        """Read a property value available on this machine: an owned vertex
        or a ghost copy of a remote hub vertex."""
        m = self.machine
        if m.is_local(vertex):
            self.exec.stats.local_reads += 1
            return m.props[prop][vertex - m.lo]
        slot = m.ghosts.slot_of_one(vertex)
        if slot >= 0 and prop in self.exec.ghost_read_set and prop in m.ghosts.arrays:
            self.exec.stats.local_reads += 1
            self.exec.hooks.emit("ghost.hit", machine=m.index, prop=prop,
                                 mode="read", count=1, time=self.exec.sim.now)
            return m.ghosts.arrays[prop][slot]
        raise KeyError(
            f"vertex {vertex} is neither owned by machine {m.index} nor ghosted; "
            f"use read_remote")

    def set_local(self, vertex: int, value, prop: str) -> None:
        m = self.machine
        if not m.is_local(vertex):
            raise KeyError(f"vertex {vertex} is not owned by machine {m.index}")
        self.exec.stats.local_writes += 1
        m.props[prop][vertex - m.lo] = value

    # ------------------------------------------------------------------
    # remote reads (scalar path)
    # ------------------------------------------------------------------

    def read_remote(self, worker: int, ctx, vertex: int, prop: str, tag) -> None:
        """The paper's ``read_remote()``: resolve locally when possible,
        otherwise buffer a request and log the continuation."""
        m = self.machine
        ws = self.exec.worker_state(m.index, worker)
        task = ctx._task
        if m.is_local(vertex):
            self.exec.stats.local_reads += 1
            value = m.props[prop][vertex - m.lo]
            task.read_done(ctx, value, tag)
            return
        slot = m.ghosts.slot_of_one(vertex)
        if slot >= 0 and prop in self.exec.ghost_read_set and prop in m.ghosts.arrays:
            self.exec.stats.local_reads += 1
            self.exec.hooks.emit("ghost.hit", machine=m.index, prop=prop,
                                 mode="read", count=1, time=self.exec.sim.now)
            value = m.ghosts.arrays[prop][slot]
            task.read_done(ctx, value, tag)
            return
        self.exec.hooks.emit("ghost.miss", machine=m.index, prop=prop,
                             mode="read", count=1, time=self.exec.sim.now)
        owner = m.partitioning.owner(vertex)
        offset = vertex - m.partitioning.starts[owner]
        ws.read_buf(owner, prop).append(
            np.array([offset], dtype=np.int64),
            tasks=((task, ctx._node_global, ctx._nbr_global,
                    ctx._edge_weight, ctx._edge_idx, tag),))
        self.exec.stats.remote_reads += 1
        ws.maybe_flush_reads(owner, prop)

    # ------------------------------------------------------------------
    # writes (scalar path)
    # ------------------------------------------------------------------

    def write_remote(self, worker: int, vertex: int, prop: str, value,
                     op: ReduceOp) -> None:
        """The paper's ``write_remote<OP>()``: apply immediately when the
        target is local or ghosted, otherwise buffer a write request."""
        m = self.machine
        ws = self.exec.worker_state(m.index, worker)
        if m.is_local(vertex):
            idx = vertex - m.lo
            arr = m.props[prop]
            arr[idx] = op.scalar(arr[idx], value)
            self.exec.stats.local_writes += 1
            if self.exec.job_uses_atomics:
                self.exec.stats.atomic_ops += 1
                ws.pending_atomics += 1
            return
        slot = m.ghosts.slot_of_one(vertex)
        if slot >= 0 and prop in self.exec.ghost_write_set and prop in m.ghosts.arrays:
            self.exec.stats.local_writes += 1
            self.exec.hooks.emit("ghost.hit", machine=m.index, prop=prop,
                                 mode="write", count=1, time=self.exec.sim.now)
            col = m.ghosts.arrays[prop]
            col[slot] = op.scalar(col[slot], value)
            # Gated like the local branch above: pull-style regions (one
            # writer per target) never pay atomic cost, ghosted or not, and
            # privatized ghost writes need none.
            if self.exec.job_uses_atomics and not self.exec.privatize:
                self.exec.stats.atomic_ops += 1
                ws.pending_atomics += 1
            return
        self.exec.hooks.emit("ghost.miss", machine=m.index, prop=prop,
                             mode="write", count=1, time=self.exec.sim.now)
        owner = m.partitioning.owner(vertex)
        offset = vertex - m.partitioning.starts[owner]
        ws.write_buf(owner, prop, op).append(
            np.array([offset], dtype=np.int64), np.array([value]))
        self.exec.stats.remote_writes += 1
        ws.maybe_flush_writes(owner, prop)

    # ------------------------------------------------------------------
    # RMI
    # ------------------------------------------------------------------

    def call_remote(self, worker: int, dst_machine: int, fn_id: int, args) -> None:
        self.exec.send_rmi(self.machine.index, dst_machine, fn_id, args)
