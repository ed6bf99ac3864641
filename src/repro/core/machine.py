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

from ..graph.csr import Graph
from ..graph.partition import Partitioning
from ..runtime.config import ClusterConfig
from ..runtime.cpu import MachineCpu
from ..runtime.disk import DiskModel, encoded_row_prefix
from .ghost import MachineGhosts
from .properties import PropertyStore, SegmentGroupCache
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
    #: streamed job (epoch-adopted slices share it)
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


def _build_local_csr(starts: np.ndarray, nbrs: np.ndarray,
                     weights: Optional[np.ndarray], lo: int, hi: int,
                     partitioning: Partitioning, ghosts: MachineGhosts,
                     edge_props: Optional[dict] = None,
                     reorder: Optional[np.ndarray] = None) -> LocalCsr:
    es, ee = int(starts[lo]), int(starts[hi])
    local_starts = (starts[lo:hi + 1] - es).astype(np.int64)
    local_nbrs = nbrs[es:ee]
    local_weights = None if weights is None else weights[es:ee]
    local_props = None
    if edge_props:
        local_props = {}
        for name, values in edge_props.items():
            ordered = values if reorder is None else values[reorder]
            local_props[name] = ordered[es:ee]
    owners = partitioning.owners(local_nbrs).astype(np.int32)
    offsets = partitioning.local_offsets(local_nbrs, owners)
    slots = ghosts.slot_of(local_nbrs)
    return LocalCsr(starts=local_starts, nbrs=local_nbrs, weights=local_weights,
                    nbr_owner=owners, nbr_offset=offsets, nbr_ghost_slot=slots,
                    props=local_props)


class Machine:
    """State of one simulated PGX.D process."""

    def __init__(self, index: int, graph: Graph, partitioning: Partitioning,
                 ghost_gids: np.ndarray, config: ClusterConfig,
                 csr_from: Optional["Machine"] = None):
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

        if csr_from is not None:
            # Epoch patching (repro.core.incremental): this machine's edge
            # ranges are untouched by the mutation batch, so both local CSR
            # slices are adopted verbatim from the previous epoch's machine.
            # CSRs are immutable after load, and the adopter shares the same
            # pivots and ghost table, so the endpoint resolution carries over
            # too.  Everything mutable — property columns, queues, caches —
            # is still built fresh, which is what keeps the previous epoch's
            # snapshot readable while this one goes live.
            self.out_csr = csr_from.out_csr
            self.in_csr = csr_from.in_csr
        else:
            in_weights = None
            if graph.edge_weights is not None:
                in_weights = graph.edge_weights[graph.in_edge_index]
            self.out_csr = _build_local_csr(graph.out_starts, graph.out_nbrs,
                                            graph.edge_weights, self.lo,
                                            self.hi, partitioning, self.ghosts,
                                            edge_props=graph.edge_props)
            self.in_csr = _build_local_csr(graph.in_starts, graph.in_nbrs,
                                           in_weights, self.lo, self.hi,
                                           partitioning, self.ghosts,
                                           edge_props=graph.edge_props,
                                           reorder=graph.in_edge_index)

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
        #: staged apply (jobrunner's content-ordered reduction)
        self.stage_cache = StageOrderCache()
        #: memoized write-combine group structure (worker flush trains are
        #: stationary across supersteps); content-verified per use
        self.combine_cache = SegmentGroupCache()

    def csr(self, direction: str) -> LocalCsr:
        if direction == "in":
            return self.in_csr
        if direction == "out":
            return self.out_csr
        raise ValueError(f"unknown direction {direction!r}")

    def is_local(self, vertex: int) -> bool:
        return self.lo <= vertex < self.hi

    def local_index(self, vertex: int) -> int:
        return vertex - self.lo
