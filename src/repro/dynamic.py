"""Dynamic graphs with snapshot-based analytics (Section 6.2, last bullet).

The paper's final outlook item: support constantly-changing graphs by
running continuous pattern matching on updates "while keeping its ability to
perform classical computational analytics by using snapshots of these graphs
for algorithms which do not support graph updates."

This module provides exactly that split:

* :class:`DynamicGraph` — a mutable edge set absorbing batched insertions
  and deletions, versioned by epoch;
* ``snapshot()`` — an immutable :class:`repro.graph.csr.Graph` built from
  the current state, loadable into a cluster for any Table 2 algorithm;
* :class:`ContinuousPatternMonitor` — re-evaluates a registered pattern
  against each update batch, reporting only the *new* matches introduced by
  the batch (a selectivity-style incremental check: every new match must use
  at least one inserted edge, so the search is seeded from the batch rather
  than re-scanning the graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .graph.csr import Graph, copy_positions, from_edges
from .patterns import Pattern, PatternMatcher
from .core.engine import PgxdCluster


@dataclass(frozen=True)
class UpdateBatch:
    """One applied batch of edge changes."""

    epoch: int
    inserted: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]


class DynamicGraph:
    """A mutable directed multigraph with epoch-stamped batched updates.

    The edge multiset is one sorted int64 array of ``u * num_nodes + v``
    keys (a duplicate key per extra copy), so a batch is a sorted merge and
    a snapshot needs no per-edge Python work.
    """

    def __init__(self, num_nodes: int,
                 edges: Optional[Iterable[tuple[int, int]]] = None):
        self.num_nodes = num_nodes
        self._keys = np.sort(self._encode(list(edges or ())))
        self.epoch = 0
        self._pending_inserts: list[tuple[int, int]] = []
        self._pending_removes: list[tuple[int, int]] = []
        self.history: list[UpdateBatch] = []

    def _encode(self, edges: list[tuple[int, int]]) -> np.ndarray:
        """Edge keys of ``edges`` (in the given order), range-checked."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= self.num_nodes)).any(axis=1)
        if bad.any():
            self._check(*pairs[bad][0].tolist())
        return pairs[:, 0] * np.int64(self.num_nodes) + pairs[:, 1]

    # -- mutation -----------------------------------------------------------

    def _in_range(self, u: int, v: int) -> bool:
        return 0 <= u < self.num_nodes and 0 <= v < self.num_nodes

    def _check(self, u: int, v: int) -> None:
        if not self._in_range(u, v):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")

    def add_edge(self, u: int, v: int) -> None:
        self._check(u, v)
        self._pending_inserts.append((u, v))

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u, v)
        self._pending_removes.append((u, v))

    def apply_updates(self) -> UpdateBatch:
        """Apply the pending changes as one atomic batch; bumps the epoch.

        Removals resolve against the pre-batch edges, copy for copy; a
        batch that removes more copies of an edge than exist raises
        ``KeyError`` and leaves the graph and the pending lists untouched.
        """
        keys = self._keys
        rem = np.sort(self._encode(self._pending_removes))
        at, found = copy_positions(keys, rem)
        if not found.all():
            u, v = divmod(int(rem[~found][0]), self.num_nodes)
            raise KeyError(f"cannot remove non-existent edge {(u, v)}")
        keys = np.delete(keys, at)
        ins = np.sort(self._encode(self._pending_inserts))
        self._keys = np.insert(keys, np.searchsorted(keys, ins), ins)
        self.epoch += 1
        batch = UpdateBatch(self.epoch, tuple(self._pending_inserts),
                            tuple(self._pending_removes))
        self._pending_inserts.clear()
        self._pending_removes.clear()
        self.history.append(batch)
        return batch

    # -- inspection -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    def has_edge(self, u: int, v: int) -> bool:
        if not self._in_range(u, v):
            return False
        key = u * self.num_nodes + v
        i = int(np.searchsorted(self._keys, key))
        return i < self._keys.size and int(self._keys[i]) == key

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` int64 arrays of every edge copy, (src, dst)-sorted."""
        return np.divmod(self._keys, np.int64(max(self.num_nodes, 1)))

    def edge_list(self) -> list[tuple[int, int]]:
        src, dst = self.edge_arrays()
        return list(zip(src.tolist(), dst.tolist()))

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> Graph:
        """Immutable CSR snapshot of the current epoch (for classical
        analytics, as the paper prescribes)."""
        src, dst = self.edge_arrays()
        return from_edges(src, dst, num_nodes=self.num_nodes)


class ContinuousPatternMonitor:
    """Continuous pattern detection over a :class:`DynamicGraph`.

    After each applied batch, reports the matches that did not exist before
    the batch.  New matches must involve at least one inserted edge, so the
    check matches against the post-update snapshot and filters to rows using
    a batch edge — far cheaper than diffing full result sets when batches are
    small, which is the streaming regime the cited continuous-matching work
    targets.
    """

    def __init__(self, dynamic: DynamicGraph, pattern: Pattern,
                 cluster_factory=None):
        self.dynamic = dynamic
        self.pattern = pattern
        self._cluster_factory = cluster_factory or (lambda: PgxdCluster())
        self._pattern_edges = [(s, d) for s, d in pattern.edges]
        self._name_pos = {v.name: i for i, v in enumerate(pattern.vertices)}
        self._known: set[tuple[int, ...]] = set()
        self.prime()

    def _all_matches(self) -> set[tuple[int, ...]]:
        snap = self.dynamic.snapshot()
        cluster = self._cluster_factory()
        dg = cluster.load_graph(snap)
        result = PatternMatcher(cluster, dg).find(self.pattern)
        return {tuple(int(x) for x in row) for row in result.matches}

    def prime(self) -> int:
        """(Re)baseline the known-match set; returns its size."""
        self._known = self._all_matches()
        return len(self._known)

    def _row_edges(self, row: tuple[int, ...]):
        """The concrete (u, v) edges a match row binds the pattern edges to."""
        for s, d in self._pattern_edges:
            yield (row[self._name_pos[s]], row[self._name_pos[d]])

    def _uses_batch_edge(self, row: tuple[int, ...],
                         batch: UpdateBatch) -> bool:
        inserted = set(batch.inserted)
        return any(e in inserted for e in self._row_edges(row))

    def on_batch(self, batch: UpdateBatch) -> dict[str, list[tuple[int, ...]]]:
        """Process one applied batch; returns {'appeared': [...],
        'disappeared': [...]} match tuples.

        Truly incremental in both directions: matching is monotone in the
        edge set, so a known match can only disappear when one of its
        bound edges drops out of the graph entirely — a removal that still
        leaves a multigraph copy behind keeps the match.  Remove-only
        batches therefore never rescan; they drop exactly the known
        matches bound to a vanished edge, so no stale match is observable
        at the next epoch.  New matches must use at least one inserted
        edge, so the rescan runs only when the batch inserted something.
        """
        gone = {e for e in set(batch.removed)
                if not self.dynamic.has_edge(*e)}
        if batch.inserted:
            current = self._all_matches()
            appeared = current - self._known
            disappeared = self._known - current
            # Invariant of incremental matching: every appearing match
            # uses an inserted edge (checked, not assumed).
            for row in appeared:
                assert self._uses_batch_edge(row, batch)
            self._known = current
        else:
            appeared = set()
            disappeared = {row for row in self._known
                           if any(e in gone for e in self._row_edges(row))}
            self._known -= disappeared
        return {"appeared": sorted(appeared),
                "disappeared": sorted(disappeared)}
