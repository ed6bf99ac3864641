"""Task chunking (paper Section 3.3, "Edge Chunking").

The Task Manager groups per-node tasks into chunks that worker threads grab
dynamically.  *Node chunking* puts a fixed number of nodes in each chunk;
with skewed degree distributions one chunk can then contain a giant hub and
stall its worker.  *Edge chunking* instead bounds the number of edges per
chunk, which is what balances work between cores (Figure 6(c)).

Chunks are contiguous local-node ranges over one CSR direction; a node's
edges never split across chunks (the engine guarantees all in-edges of a
node run on one worker).  The job runner tags each range with its
direction and queues the directions the region iterates one after the
other: an undirected sweep's queue holds the forward CSR's chunks, then
the reverse CSR's, so the same node range can appear once per direction.
"""

from __future__ import annotations

import numpy as np


def node_chunks(num_nodes: int, chunk_nodes: int) -> list[tuple[int, int]]:
    """Split ``[0, num_nodes)`` into ranges of ``chunk_nodes`` nodes."""
    if chunk_nodes <= 0:
        raise ValueError("chunk_nodes must be positive")
    return [(lo, min(lo + chunk_nodes, num_nodes))
            for lo in range(0, num_nodes, chunk_nodes)]


def edge_chunks(row_starts: np.ndarray, chunk_edges: int) -> list[tuple[int, int]]:
    """Split node ranges so each chunk holds roughly ``chunk_edges`` edges.

    ``row_starts`` is the local CSR row-pointer array (length num_nodes+1)
    for whichever edge direction the job iterates.  A single node whose
    degree exceeds ``chunk_edges`` gets a chunk of its own.
    """
    if chunk_edges <= 0:
        raise ValueError("chunk_edges must be positive")
    num_nodes = len(row_starts) - 1
    if num_nodes <= 0:
        return []
    # Cut points at multiples of chunk_edges along the edge prefix sum; the
    # boundary lands *before* the node that would overflow the chunk, and any
    # node whose own degree reaches the chunk size is isolated in a chunk of
    # its own (hubs must not drag unrelated nodes into a mega-chunk).
    total = int(row_starts[-1])
    if total == 0:
        return node_chunks(num_nodes, max(1, chunk_edges))
    targets = np.arange(chunk_edges, total, chunk_edges)
    cuts = np.searchsorted(row_starts, targets, side="right") - 1
    hubs = np.flatnonzero(np.diff(row_starts) >= chunk_edges)
    bounds = np.unique(np.concatenate(([0], cuts, hubs, hubs + 1, [num_nodes])))
    bounds = bounds[(bounds >= 0) & (bounds <= num_nodes)]
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)
            if bounds[i + 1] > bounds[i]]


def make_chunks(row_starts: np.ndarray, strategy: str, chunk_size: int) -> list[tuple[int, int]]:
    """Dispatch on the chunking strategy from :class:`EngineConfig`."""
    num_nodes = len(row_starts) - 1
    if strategy == "edge":
        return edge_chunks(row_starts, chunk_size)
    if strategy == "node":
        # For node chunking the same chunk_size knob counts nodes; scale it
        # by the average degree so both strategies target similar chunk work
        # on a *uniform* graph (the difference on skewed graphs is the point).
        total_edges = int(row_starts[-1])
        avg_deg = max(1.0, total_edges / max(1, num_nodes))
        return node_chunks(num_nodes, max(1, int(round(chunk_size / avg_deg))))
    raise ValueError(f"unknown chunking strategy {strategy!r}")


def chunk_edge_counts(row_starts: np.ndarray,
                      chunks: list[tuple[int, int]]) -> np.ndarray:
    """Edges contained in each chunk (for balance diagnostics and tests)."""
    return np.array([int(row_starts[hi] - row_starts[lo]) for lo, hi in chunks],
                    dtype=np.int64)
