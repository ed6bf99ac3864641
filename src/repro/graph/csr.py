"""Compressed Sparse Row graph representation (paper Section 3.3).

The whole-graph :class:`Graph` holds the CSR (out-edges) and reverse CSR
(in-edges) in numpy arrays, exactly the layout PGX.D and the standalone
baseline share.  Vertices are assumed to be renumbered 0..N-1 by a
preprocessing step, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np


@dataclass
class Graph:
    """Directed graph in CSR + reverse-CSR form.

    Attributes:
        num_nodes: vertex count N (vertices are 0..N-1).
        out_starts: int64[N+1] row pointers for out-edges.
        out_nbrs:   int64[M] destination of each out-edge, sorted per row.
        in_starts:  int64[N+1] row pointers for in-edges.
        in_nbrs:    int64[M] source of each in-edge, sorted per row.
        in_edge_index: int64[M] mapping each in-edge back to the out-edge
            array position, so edge properties stored in out-edge order can
            be read during in-neighbor iteration.
        edge_weights: optional float64[M] in out-edge order.
    """

    num_nodes: int
    out_starts: np.ndarray
    out_nbrs: np.ndarray
    in_starts: np.ndarray
    in_nbrs: np.ndarray
    in_edge_index: np.ndarray
    edge_weights: Optional[np.ndarray] = None
    #: named O(E) edge properties in out-edge order (paper Section 3.3:
    #: "each node/edge property is represented as an O(N)/O(E)-sized array")
    edge_props: Optional[dict] = None

    @property
    def num_edges(self) -> int:
        return int(self.out_nbrs.shape[0])

    # -- edge properties ------------------------------------------------------

    def add_edge_property(self, name: str, values) -> np.ndarray:
        """Attach a named O(E) edge property (values in out-edge order)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_edges,):
            raise ValueError(f"edge property {name!r} needs {self.num_edges} "
                             f"values, got {values.shape}")
        if self.edge_props is None:
            self.edge_props = {}
        if name in self.edge_props:
            raise KeyError(f"edge property {name!r} already exists")
        self.edge_props[name] = values
        return values

    def edge_property(self, name: str) -> np.ndarray:
        if not self.edge_props or name not in self.edge_props:
            raise KeyError(f"no edge property {name!r}")
        return self.edge_props[name]

    # -- degree queries ------------------------------------------------------

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_starts)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_starts)

    def total_degrees(self) -> np.ndarray:
        """in-degree + out-degree per node (edge partitioning's balance key)."""
        return self.out_degrees() + self.in_degrees()

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_nbrs[self.out_starts[v]:self.out_starts[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_nbrs[self.in_starts[v]:self.in_starts[v + 1]]

    # -- conversions ---------------------------------------------------------

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) arrays in out-edge order."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degrees())
        return src, self.out_nbrs.copy()

    def to_networkx(self):
        """Export to a networkx.DiGraph (validation only; small graphs)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        src, dst = self.edge_list()
        if self.edge_weights is not None:
            g.add_weighted_edges_from(zip(src.tolist(), dst.tolist(),
                                          self.edge_weights.tolist()))
        else:
            g.add_edges_from(zip(src.tolist(), dst.tolist()))
        return g


def from_edges(src: Iterable[int], dst: Iterable[int], num_nodes: Optional[int] = None,
               weights: Optional[Iterable[float]] = None,
               dedup: bool = False) -> Graph:
    """Build a :class:`Graph` from parallel (src, dst) sequences.

    ``dedup`` drops duplicate (src, dst) pairs (keeping the first weight).
    Self-loops are kept; vertex ids must be non-negative.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same length")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and w.shape != src.shape:
        raise ValueError("weights must match edge count")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")

    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    elif src.size and int(max(src.max(), dst.max())) >= num_nodes:
        raise ValueError("edge endpoint exceeds num_nodes")

    if dedup and src.size:
        keys = src * np.int64(num_nodes) + dst
        _, keep = np.unique(keys, return_index=True)
        keep.sort()
        src, dst = src[keep], dst[keep]
        if w is not None:
            w = w[keep]

    # Sort by (src, dst) -> CSR out-edge order; input already in that order
    # (a DynamicGraph's sorted edge keys) is only copied.
    step = np.diff(src)
    ordered = (step >= 0).all() and (np.diff(dst)[step == 0] >= 0).all()
    del step  # E-sized: must not stay alive across the sorts below
    if ordered:
        src_s, dst_s = src, dst.copy()
        w_s = None if w is None else w.copy()
    else:
        order = np.lexsort((dst, src))
        src_s, dst_s = src[order], dst[order]
        w_s = None if w is None else w[order]

    out_starts = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(out_starts, src_s + 1, 1)
    np.cumsum(out_starts, out=out_starts)

    # Reverse CSR: sort edge positions by (dst, src).
    rorder = np.lexsort((src_s, dst_s))
    in_starts = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(in_starts, dst_s + 1, 1)
    np.cumsum(in_starts, out=in_starts)

    return Graph(
        num_nodes=num_nodes,
        out_starts=out_starts,
        out_nbrs=dst_s,
        in_starts=in_starts,
        in_nbrs=src_s[rorder],
        in_edge_index=rorder.astype(np.int64),
        edge_weights=w_s,
    )


def copy_positions(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray,
                                                                np.ndarray]:
    """Positions in sorted ``keys`` of the copies sorted ``want`` names.

    The k-th occurrence of a key in ``want`` takes the k-th stored copy,
    so a multiset of removals maps to distinct positions.  Returns
    ``(positions, found)``; ``found`` is False where ``keys`` holds fewer
    copies than ``want`` asks for.
    """
    nth = np.arange(want.size) - np.searchsorted(want, want, side="left")
    at = np.searchsorted(keys, want, side="left") + nth
    found = at < keys.size
    found[found] = keys[at[found]] == want[found]
    return at, found


@dataclass(frozen=True)
class CsrEdit:
    """An edit of one CSR direction's edge arrays.

    A per-edge array ``a`` becomes ``np.insert(np.delete(a, drop), at,
    values)``: the entries at old positions ``drop`` are dropped, then the
    new entries go in before post-drop positions ``at``.  Both position
    arrays ascend, and so do the rows their entries belong to
    (``drop_rows``, ``rows``).  ``nbrs`` and ``weights`` are the inserted
    entries' neighbor ids and weights (``None`` on an unweighted graph).
    """

    drop: np.ndarray
    drop_rows: np.ndarray
    at: np.ndarray
    rows: np.ndarray
    nbrs: np.ndarray
    weights: Optional[np.ndarray]

    @property
    def empty(self) -> bool:
        return self.drop.size == 0 and self.at.size == 0

    def apply(self, values: np.ndarray, inserted: np.ndarray) -> np.ndarray:
        """A new array: ``values`` with this edit's drops and inserts."""
        return np.insert(np.delete(values, self.drop), self.at, inserted)

    def starts(self, starts: np.ndarray, lo: int) -> np.ndarray:
        """New row pointers for ``starts``, whose row 0 is row ``lo``."""
        n = len(starts) - 1
        grow = (np.bincount(self.rows - lo, minlength=n)
                - np.bincount(self.drop_rows - lo, minlength=n))
        out = starts.copy()
        out[1:] += np.cumsum(grow)
        return out

    def window(self, lo: int, hi: int, first: int) -> "CsrEdit":
        """The part of this edit on rows ``[lo, hi)``, with positions
        rebased to the slice whose entry 0 is old position ``first``."""
        r0, r1 = np.searchsorted(self.drop_rows, (lo, hi))
        i0, i1 = np.searchsorted(self.rows, (lo, hi))
        return CsrEdit(
            drop=self.drop[r0:r1] - first, drop_rows=self.drop_rows[r0:r1],
            # the slice starts at post-drop position first - r0
            at=self.at[i0:i1] - (first - r0), rows=self.rows[i0:i1],
            nbrs=self.nbrs[i0:i1],
            weights=None if self.weights is None else self.weights[i0:i1])


def _row_keys(starts: np.ndarray, nbrs: np.ndarray, n: int) -> np.ndarray:
    """``row * n + nbr`` per entry: ascending, since rows are sorted."""
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(starts))
    return rows * np.int64(n) + nbrs


def patch_edges(graph: Graph, inserted: np.ndarray, removed: np.ndarray,
                weight_fn: Optional[Callable] = None
                ) -> tuple[Graph, CsrEdit, CsrEdit]:
    """Merge an edge delta into ``graph`` without re-sorting it.

    ``inserted`` and ``removed`` are ascending edge keys ``u * N + v``
    (one per copy); ``weight_fn(src, dst)`` weighs the inserted edges and
    is required exactly when ``graph`` is weighted.  Returns the new graph,
    byte-identical to :func:`from_edges` over the resulting multiset, and
    the out- and in-direction :class:`CsrEdit` that produced it.

    A removal takes the first stored copies of its key, in both
    directions; inserted copies go before the surviving ones.  The
    reverse CSR stays sorted by (destination, source, out position), and
    the survivors' ``in_edge_index`` is shifted by the out-side drops and
    inserts, so no step sorts more than the delta.
    """
    n = graph.num_nodes
    if graph.edge_props:
        raise ValueError("patch_edges does not carry edge properties")
    if (weight_fn is None) != (graph.edge_weights is None):
        raise ValueError("weight_fn is required exactly on a weighted graph")
    nn = np.int64(max(n, 1))
    ins_src, ins_dst = np.divmod(inserted, nn)
    rem_src, rem_dst = np.divmod(removed, nn)
    weights = None if weight_fn is None else weight_fn(ins_src, ins_dst)

    okeys = _row_keys(graph.out_starts, graph.out_nbrs, n)
    drop, found = copy_positions(okeys, removed)
    if not found.all():
        u, v = divmod(int(removed[~found][0]), n)
        raise KeyError(f"cannot remove non-existent edge {(u, v)}")
    at = np.searchsorted(okeys, inserted)
    at -= np.searchsorted(drop, at)
    del okeys
    out = CsrEdit(drop=drop, drop_rows=rem_src, at=at, rows=ins_src,
                  nbrs=ins_dst, weights=weights)
    # np.insert places the k-th inserted entry at at[k] + k
    placed = at + np.arange(at.size)

    ikeys = _row_keys(graph.in_starts, graph.in_nbrs, n)
    rem_in = np.sort(rem_dst * nn + rem_src)
    in_drop, _ = copy_positions(ikeys, rem_in)
    ins_in = ins_dst * nn + ins_src
    order = np.argsort(ins_in, kind="stable")  # ties stay in out order
    in_at = np.searchsorted(ikeys, ins_in[order])
    in_at -= np.searchsorted(in_drop, in_at)
    del ikeys
    rev = CsrEdit(drop=in_drop, drop_rows=rem_in // nn, at=in_at,
                  rows=ins_dst[order], nbrs=ins_src[order],
                  weights=None if weights is None else weights[order])

    kept = np.delete(graph.in_edge_index, in_drop)
    kept -= np.searchsorted(drop, kept)
    kept += np.searchsorted(at, kept, side="right")
    return Graph(
        num_nodes=n,
        out_starts=out.starts(graph.out_starts, 0),
        out_nbrs=out.apply(graph.out_nbrs, ins_dst),
        in_starts=rev.starts(graph.in_starts, 0),
        in_nbrs=rev.apply(graph.in_nbrs, rev.nbrs),
        in_edge_index=np.insert(kept, in_at, placed[order]),
        edge_weights=(None if weights is None
                      else out.apply(graph.edge_weights, weights)),
    ), out, rev


def from_networkx(g) -> Graph:
    """Import a networkx.DiGraph/Graph (undirected edges are doubled)."""
    import networkx as nx

    if not g.is_directed():
        g = g.to_directed()
    nodes = sorted(g.nodes())
    if nodes != list(range(len(nodes))):
        mapping = {v: i for i, v in enumerate(nodes)}
        g = nx.relabel_nodes(g, mapping)
    src, dst, wts = [], [], []
    weighted = True
    for u, v, data in g.edges(data=True):
        src.append(u)
        dst.append(v)
        if "weight" in data:
            wts.append(float(data["weight"]))
        else:
            weighted = False
    return from_edges(src, dst, num_nodes=g.number_of_nodes(),
                      weights=wts if weighted and wts else None)
