"""Selective ghost nodes and ghost privatization (Section 3.3).

At load time the engine computes every vertex's in- and out-degree and
creates *ghost copies* on every machine for vertices whose either degree
exceeds the configured threshold.  During a parallel region:

* properties **read** in the region are copied owner -> ghost before the
  region starts (so reads of hub vertices become machine-local);
* properties **written (reduced)** start from the reduction's *bottom* value
  on every ghost copy, absorb writes locally during the region, and are
  reduced back to the owner afterwards.

*Ghost privatization* gives each worker thread its own copy of the written
ghost columns so in-machine reductions need no atomics; the sync then runs
in two stages — cores -> machine, then machine -> owner.  The engine models
privatization in cost only: ghost writes skip the atomic price and stage 1
is priced per (worker, ghost) element, but every write lands in the one
machine column in chunk-queue order.  A per-worker copy would hold whichever
chunks that worker happened to grab, so combining the copies would make a
float SUM depend on the schedule.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import Graph
from ..graph.partition import Partitioning
from .properties import ReduceOp


def select_ghosts(graph: Graph, threshold: Optional[int]) -> np.ndarray:
    """Vertex ids (sorted) whose in- OR out-degree exceeds ``threshold``."""
    if threshold is None:
        return np.empty(0, dtype=np.int64)
    ind = graph.in_degrees()
    outd = graph.out_degrees()
    return np.flatnonzero((ind > threshold) | (outd > threshold)).astype(np.int64)


def ghost_slots(ghost_gids: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Slot of each vertex in the sorted ghost table ``ghost_gids``, or -1
    when the vertex is not ghosted (every machine's table is the same)."""
    if len(ghost_gids) == 0:
        return np.full(len(vertices), -1, dtype=np.int64)
    pos = np.searchsorted(ghost_gids, vertices)
    pos_clipped = np.minimum(pos, len(ghost_gids) - 1)
    hit = ghost_gids[pos_clipped] == vertices
    return np.where(hit, pos_clipped, -1)


class MachineGhosts:
    """One machine's ghost table: a slot per ghost vertex, per property."""

    def __init__(self, machine_index: int, ghost_gids: np.ndarray,
                 partitioning: Partitioning, num_workers: int):
        self.machine_index = machine_index
        self.gids = ghost_gids                       # sorted global ids
        self.num_ghosts = int(len(ghost_gids))
        self.num_workers = num_workers
        owners = partitioning.owners(ghost_gids) if self.num_ghosts else np.empty(0, dtype=np.int64)
        self.owners = owners
        self.owned_mask = owners == machine_index
        #: local offsets of each ghost on its *owner* machine
        self.owner_offsets = (partitioning.local_offsets(ghost_gids, owners)
                              if self.num_ghosts else np.empty(0, dtype=np.int64))
        #: machine-level ghost columns: prop -> float/int array [num_ghosts]
        self.arrays: dict[str, np.ndarray] = {}

    def slot_of_one(self, vertex: int) -> int:
        """Scalar twin of :func:`ghost_slots` — the scalar data-manager path
        calls this per access, so it avoids building a 1-element array."""
        if self.num_ghosts == 0:
            return -1
        pos = int(np.searchsorted(self.gids, vertex))
        if pos >= self.num_ghosts:
            pos = self.num_ghosts - 1
        return pos if self.gids[pos] == vertex else -1

    def ensure_column(self, prop: str, dtype) -> np.ndarray:
        if prop not in self.arrays:
            self.arrays[prop] = np.zeros(self.num_ghosts, dtype=dtype)
        return self.arrays[prop]

    # -- write-side lifecycle -------------------------------------------------

    def begin_writes(self, prop: str, op: ReduceOp, dtype) -> None:
        """Reset the machine ghost column to the bottom value."""
        self.ensure_column(prop, dtype)[:] = op.bottom(np.dtype(dtype))

    def reduce_private(self, prop: str) -> int:
        """Stage 1 of the two-stage sync: worker copies -> machine column.
        Returns the number of elements a privatized machine combines (for
        cost accounting); the values are already in the machine column."""
        if prop not in self.arrays:
            return 0
        return self.num_workers * self.num_ghosts

    def partials_for_owner(self, prop: str, owner: int) -> tuple[np.ndarray, np.ndarray]:
        """Stage 2: (owner-local offsets, partial values) this machine must
        ship to ``owner`` for reduction into the original vertices."""
        mask = self.owners == owner
        return self.owner_offsets[mask], self.arrays[prop][mask]

    def ghosts_owned_here(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, owner-local offsets) of ghosts this machine owns — the
        values it broadcasts during read pre-sync."""
        slots = np.flatnonzero(self.owned_mask)
        return slots, self.owner_offsets[slots]

    def slots_owned_by(self, owner: int) -> tuple[np.ndarray, np.ndarray]:
        """(slots here, owner-local offsets) for ghosts owned by ``owner``."""
        mask = self.owners == owner
        return np.flatnonzero(mask), self.owner_offsets[mask]
