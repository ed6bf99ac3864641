"""One PGX.D machine instance (Figure 1): local graph partition, property
columns, ghost table, and the queues the three managers operate on.

Each machine owns a consecutive vertex range.  Its slice of the CSR stores
*global* neighbor ids; at load time the Data Manager resolves every edge
endpoint once into (owner machine, owner-local offset, ghost slot), which is
the runtime payoff of the paper's pivot-table + packed-global-id scheme —
location lookups during execution are O(1) array reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.csr import CsrEdit, Graph
from ..graph.partition import Partitioning
from ..runtime.config import ClusterConfig
from ..runtime.cpu import MachineCpu
from ..runtime.disk import DiskModel, encoded_row_prefix
from .ghost import MachineGhosts, ghost_slots
from .properties import PropertyStore
from .routing_plan import RoutingPlanCache, StageOrderCache


@dataclass
class LocalCsr:
    """One direction (in or out) of a machine's local CSR slice."""

    starts: np.ndarray        # int64[n_local+1], rebased to 0
    nbrs: np.ndarray          # int64[m_local] global neighbor ids
    weights: Optional[np.ndarray]
    nbr_owner: np.ndarray     # int32[m_local]
    nbr_offset: np.ndarray    # int64[m_local] local offset on the owner
    nbr_ghost_slot: np.ndarray  # int64[m_local], -1 when not ghosted
    #: named edge-property slices for this direction
    props: dict = None
    #: per-row prefix of the on-disk encoded bytes, computed by the first
    #: streamed job (shared with every epoch that shares the slice)
    _disk_prefix: Optional[np.ndarray] = field(default=None, init=False,
                                         repr=False)

    @property
    def num_edges(self) -> int:
        return int(len(self.nbrs))

    def disk_row_prefix(self, first_row: int) -> np.ndarray:
        """:func:`~repro.runtime.disk.encoded_row_prefix` of this slice,
        whose row 0 is global vertex ``first_row``."""
        if self._disk_prefix is None:
            self._disk_prefix = encoded_row_prefix(self.starts, self.nbrs,
                                                   first_row)
        return self._disk_prefix

    def edge_data(self, name: Optional[str]) -> Optional[np.ndarray]:
        """Per-edge data selected by an EdgeMapSpec: the weight column when
        ``name`` is None, a named edge property otherwise."""
        if name is None:
            return self.weights
        if not self.props or name not in self.props:
            raise KeyError(f"no edge property {name!r} on this graph")
        return self.props[name]

    @property
    def nbytes(self) -> int:
        """Bytes of the slice's row pointers and per-edge words."""
        return sum(a.nbytes for a in (self.starts, self.nbrs, self.weights,
                                      self.nbr_owner, self.nbr_offset,
                                      self.nbr_ghost_slot) if a is not None)

    @classmethod
    def build(cls, starts: np.ndarray, nbrs: np.ndarray,
              weights: Optional[np.ndarray], lo: int, hi: int,
              partitioning: Partitioning, ghost_gids: np.ndarray,
              edge_props: Optional[dict] = None,
              reorder: Optional[np.ndarray] = None) -> "LocalCsr":
        """Rows ``[lo, hi)`` of a whole-graph CSR direction, with every
        endpoint resolved (the load path)."""
        es, ee = int(starts[lo]), int(starts[hi])
        local_nbrs = nbrs[es:ee]
        local_props = None
        if edge_props:
            local_props = {}
            for name, values in edge_props.items():
                ordered = values if reorder is None else values[reorder]
                local_props[name] = ordered[es:ee]
        owners = partitioning.owners(local_nbrs).astype(np.int32)
        return cls(starts=(starts[lo:hi + 1] - es).astype(np.int64),
                   nbrs=local_nbrs,
                   weights=None if weights is None else weights[es:ee],
                   nbr_owner=owners,
                   nbr_offset=partitioning.local_offsets(local_nbrs, owners),
                   nbr_ghost_slot=ghost_slots(ghost_gids, local_nbrs),
                   props=local_props)

    def patched(self, edit: CsrEdit, lo: int, partitioning: Partitioning,
                ghost_gids: np.ndarray) -> "LocalCsr":
        """This slice after ``edit`` (windowed to it; row 0 is vertex
        ``lo``): itself when the edit is empty, else new arrays with the
        dropped entries gone and the inserted ones merged at their sorted
        row positions.  Only inserted endpoints are resolved, and this
        slice — still readable by a pinned older epoch — is never
        written."""
        if edit.empty:
            return self
        owners = partitioning.owners(edit.nbrs).astype(np.int32)
        return LocalCsr(
            starts=edit.starts(self.starts, lo),
            nbrs=edit.apply(self.nbrs, edit.nbrs),
            weights=(None if self.weights is None
                     else edit.apply(self.weights, edit.weights)),
            nbr_owner=edit.apply(self.nbr_owner, owners),
            nbr_offset=edit.apply(
                self.nbr_offset,
                partitioning.local_offsets(edit.nbrs, owners)),
            nbr_ghost_slot=edit.apply(self.nbr_ghost_slot,
                                      ghost_slots(ghost_gids, edit.nbrs)))


def local_csrs(graph: Graph, partitioning: Partitioning,
               ghost_gids: np.ndarray) -> list[tuple[LocalCsr, LocalCsr]]:
    """Every machine's (out, in) slices of ``graph``."""
    in_weights = None
    if graph.edge_weights is not None:
        in_weights = graph.edge_weights[graph.in_edge_index]
    slices = []
    for i in range(partitioning.num_machines):
        lo, hi = partitioning.machine_range(i)
        slices.append((
            LocalCsr.build(graph.out_starts, graph.out_nbrs,
                           graph.edge_weights, lo, hi, partitioning,
                           ghost_gids, edge_props=graph.edge_props),
            LocalCsr.build(graph.in_starts, graph.in_nbrs, in_weights, lo,
                           hi, partitioning, ghost_gids,
                           edge_props=graph.edge_props,
                           reorder=graph.in_edge_index)))
    return slices


class Machine:
    """State of one simulated PGX.D process.

    Its CSR slices are immutable once built: an epoch build hands an
    unchanged slice to the next epoch's machine as is.  Everything mutable
    — property columns, queues, caches — belongs to one machine, which is
    what keeps an older epoch readable while a newer one goes live.
    """

    def __init__(self, index: int, partitioning: Partitioning,
                 ghost_gids: np.ndarray, config: ClusterConfig,
                 out_csr: LocalCsr, in_csr: LocalCsr,
                 stage_cache: StageOrderCache):
        self.index = index
        self.config = config
        self.lo, self.hi = partitioning.machine_range(index)
        self.n_local = self.hi - self.lo
        self.partitioning = partitioning
        self.machine_config = config.machine_config(index)
        self.cpu = MachineCpu(self.machine_config)
        #: local-disk device timeline (out-of-core edge streaming,
        #: checkpoint archive reads)
        self.disk = DiskModel(self.machine_config)
        self.props = PropertyStore(self.n_local)
        self.ghosts = MachineGhosts(index, ghost_gids, partitioning,
                                    config.engine.num_workers)
        self.out_csr = out_csr
        self.in_csr = in_csr

        # Built-in degree properties (computed at load, like the paper's
        # edge-partitioning pass; algorithms read them locally).
        self.props.add("out_degree", dtype=np.float64,
                       init=0)[:] = np.diff(self.out_csr.starts)
        self.props.add("in_degree", dtype=np.float64,
                       init=0)[:] = np.diff(self.in_csr.starts)

        #: incoming request messages awaiting a copier
        self.request_queue: deque = deque()
        #: chunk queue for the current job (filled by the Task Manager)
        self.chunk_queue: deque = deque()
        #: memoized edge-map routing plans (both CSRs are immutable after
        #: load, so plans stay valid for the machine's lifetime)
        self.plan_cache = RoutingPlanCache(
            max_bytes=config.engine.plan_cache_max_bytes)
        #: scratch buffers and sorted-element count of the canonical
        #: staged apply (jobrunner's content-ordered reduction), and the
        #: write combine's bottom-filled columns — shared by the machines
        #: of one graph, since the host runs one machine's work at a time
        self.stage_cache = stage_cache
        #: persistent byte buffers holding each job's start copies of its
        #: idempotent write targets, keyed (byte size, position)
        #: (JobExecution.atomic_cost)
        self.start_values: dict[tuple[int, int], np.ndarray] = {}

    def csr(self, direction: str) -> LocalCsr:
        if direction == "in":
            return self.in_csr
        if direction == "out":
            return self.out_csr
        raise ValueError(f"unknown direction {direction!r}")
