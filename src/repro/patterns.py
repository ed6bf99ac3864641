"""Distributed graph pattern matching (the paper's Section 6.2 outlook).

The paper plans to extend PGX.D with sub-graph isomorphism ("graph
queries"), warning that pattern matching "tend[s] to generate a potentially
exponential number of partial solutions, or *match contexts*; careless
implementation could result in either too much communication or too much
memory consumption."

This module implements that system on the simulated cluster:

* a query is a small directed pattern graph with optional per-vertex degree
  constraints;
* matching proceeds vertex-by-vertex along a spanning order of the query:
  every machine holds the match contexts whose *frontier* data-vertex it
  owns, extends them through its local CSR, and ships the grown contexts to
  the owners of the new frontier vertices (the communication the paper
  worries about — measured and reported);
* non-tree query edges are verified with local adjacency lookups when the
  context visits the edge's source owner;
* a configurable cap on live match contexts guards memory, mirroring the
  paper's concern.

Results are exact (validated against networkx's DiGraphMatcher in the
tests); costs (bytes shipped, contexts materialized, simulated seconds) come
from the shared cluster models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core.engine import DistributedGraph, PgxdCluster


@dataclass(frozen=True)
class PatternVertex:
    """One query vertex with optional degree constraints."""

    name: str
    min_out_degree: int = 0
    min_in_degree: int = 0


@dataclass
class Pattern:
    """A small directed query graph.

    Vertices are added with constraints; edges are (src name, dst name).
    The pattern must be weakly connected (checked at match time).
    """

    vertices: list[PatternVertex] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)

    def vertex(self, name: str, min_out_degree: int = 0,
               min_in_degree: int = 0) -> "Pattern":
        if any(v.name == name for v in self.vertices):
            raise ValueError(f"duplicate pattern vertex {name!r}")
        self.vertices.append(PatternVertex(name, min_out_degree, min_in_degree))
        return self

    def edge(self, src: str, dst: str) -> "Pattern":
        names = {v.name for v in self.vertices}
        if src not in names or dst not in names:
            raise ValueError(f"edge ({src!r}, {dst!r}) references an unknown "
                             f"pattern vertex")
        if (src, dst) in self.edges:
            raise ValueError(f"duplicate pattern edge ({src!r}, {dst!r})")
        self.edges.append((src, dst))
        return self

    # -- planning ------------------------------------------------------------

    def plan(self) -> tuple[list[int], list[tuple[int, int, bool]], list[list[tuple[int, bool]]]]:
        """Choose a match order (a BFS spanning order over the undirected
        pattern) and classify edges into tree steps and check edges.

        Returns (order, steps, checks):
        * ``order``     — query-vertex indices in match order;
        * ``steps[i]``  — for the (i+1)-th matched vertex: (anchor position
          in the order, query vertex index, forward?) — grow contexts from
          the anchor along out-edges (forward) or in-edges;
        * ``checks[i]`` — non-tree edges verifiable once the i-th vertex is
          bound: list of (other position, forward?).
        """
        n = len(self.vertices)
        if n == 0:
            raise ValueError("empty pattern")
        name_to_idx = {v.name: i for i, v in enumerate(self.vertices)}
        adj: dict[int, list[tuple[int, bool]]] = {i: [] for i in range(n)}
        for s, d in self.edges:
            si, di = name_to_idx[s], name_to_idx[d]
            adj[si].append((di, True))
            adj[di].append((si, False))

        # BFS from vertex 0 over the undirected pattern.
        order = [0]
        pos = {0: 0}
        steps: list[tuple[int, int, bool]] = []
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v, forward in adj[u]:
                    if v not in pos:
                        pos[v] = len(order)
                        steps.append((pos[u], v, forward))
                        order.append(v)
                        nxt.append(v)
            frontier = nxt
        if len(order) != n:
            raise ValueError("pattern must be weakly connected")

        # Non-tree edges become checks at the later endpoint's step.
        tree = set()
        for (anchor_pos, v, forward) in steps:
            u = order[anchor_pos]
            tree.add((u, v) if forward else (v, u))
        checks: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        for s, d in self.edges:
            si, di = name_to_idx[s], name_to_idx[d]
            if (si, di) in tree:
                continue
            if pos[si] > pos[di]:
                # when si is bound, verify edge si -> di (di already bound)
                checks[pos[si]].append((pos[di], True))
            else:
                checks[pos[di]].append((pos[si], False))
        return order, steps, checks


@dataclass
class MatchResult:
    """All matches plus the cost profile of finding them."""

    #: one row per match: data-vertex ids in *pattern-vertex index* order
    matches: np.ndarray
    contexts_materialized: int
    bytes_shipped: float
    simulated_seconds: float

    @property
    def num_matches(self) -> int:
        return int(len(self.matches))


class PatternMatcher:
    """Distributed pattern matching over a loaded graph."""

    def __init__(self, cluster: PgxdCluster, dgraph: DistributedGraph,
                 max_contexts: int = 5_000_000):
        self.cluster = cluster
        self.dgraph = dgraph
        self.max_contexts = max_contexts

    # -- helpers --------------------------------------------------------------

    def _candidates(self, pv: PatternVertex) -> np.ndarray:
        g = self.dgraph.graph
        mask = np.ones(g.num_nodes, dtype=bool)
        if pv.min_out_degree:
            mask &= g.out_degrees() >= pv.min_out_degree
        if pv.min_in_degree:
            mask &= g.in_degrees() >= pv.min_in_degree
        return np.flatnonzero(mask).astype(np.int64)

    def _neighbors(self, vertices: np.ndarray, forward: bool):
        """(row index, neighbor) pairs for each vertex's out/in neighbors."""
        g = self.dgraph.graph
        starts = g.out_starts if forward else g.in_starts
        nbrs = g.out_nbrs if forward else g.in_nbrs
        degs = starts[vertices + 1] - starts[vertices]
        rows = np.repeat(np.arange(len(vertices)), degs)
        slices = [nbrs[starts[v]:starts[v + 1]] for v in vertices]
        flat = (np.concatenate(slices) if slices
                else np.empty(0, dtype=np.int64))
        return rows, flat

    def _has_edge(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized edge-existence check via binary search in the CSR row."""
        g = self.dgraph.graph
        out = np.zeros(len(src), dtype=bool)
        for i, (u, v) in enumerate(zip(src, dst)):
            row = g.out_nbrs[g.out_starts[u]:g.out_starts[u + 1]]
            j = np.searchsorted(row, v)
            out[i] = j < len(row) and row[j] == v
        return out

    # -- main ------------------------------------------------------------------

    def find(self, pattern: Pattern) -> MatchResult:
        order, steps, checks = pattern.plan()
        part = self.dgraph.partitioning
        cluster = self.cluster
        t0 = cluster.now

        contexts_total = 0
        bytes_shipped = 0.0

        # Contexts: array [n_ctx, bound_so_far] of data-vertex ids, columns in
        # match order.  Machine residency is tracked only for cost accounting
        # (the frontier column determines the owner).
        first = self._candidates(pattern.vertices[order[0]])
        ctx = first.reshape(-1, 1)
        contexts_total += len(ctx)

        # Initial scan cost: every machine filters its candidates locally.
        cluster.advance(self.dgraph.num_nodes * 2e-9 + 2e-6)

        for step_idx, (anchor_pos, qv, forward) in enumerate(steps):
            bound = ctx.shape[1]
            if len(ctx) == 0:
                break
            # 1. Expand every context from its anchor column.
            anchors = ctx[:, anchor_pos]
            rows, nbrs = self._neighbors(anchors, forward)
            grown = np.concatenate([ctx[rows], nbrs.reshape(-1, 1)], axis=1)

            # 2. Candidate constraints on the new vertex.
            pv = pattern.vertices[qv]
            g = self.dgraph.graph
            keep = np.ones(len(grown), dtype=bool)
            if pv.min_out_degree:
                keep &= g.out_degrees()[grown[:, -1]] >= pv.min_out_degree
            if pv.min_in_degree:
                keep &= g.in_degrees()[grown[:, -1]] >= pv.min_in_degree
            # 3. Isomorphism: all bound vertices distinct.
            for col in range(bound):
                keep &= grown[:, col] != grown[:, -1]
            grown = grown[keep]

            # 4. Non-tree edge checks that become decidable now.
            for other_pos, fwd in checks[bound]:
                if len(grown) == 0:
                    break
                if fwd:
                    ok = self._has_edge(grown[:, -1], grown[:, other_pos])
                else:
                    ok = self._has_edge(grown[:, other_pos], grown[:, -1])
                grown = grown[ok]

            contexts_total += len(grown)
            if contexts_total > self.max_contexts:
                raise MemoryError(
                    f"pattern expansion exceeded max_contexts="
                    f"{self.max_contexts}; refine the pattern or raise the cap "
                    f"(the Section 6.2 partial-solution explosion)")

            # 5. Ship contexts whose new frontier lives elsewhere (the match
            # contexts the paper worries about): bytes = rows x bound x 8.
            if len(grown):
                anchor_owner = part.owners(
                    grown[:, anchor_pos] if bound > anchor_pos else grown[:, 0])
                new_owner = part.owners(grown[:, -1])
                moved = int((anchor_owner != new_owner).sum())
                ship = moved * (bound + 1) * 8.0
                bytes_shipped += ship
                # expansion compute + shuffle through the fabric model
                cluster.advance(len(grown) * 6e-9
                                + ship / cluster.config.network.link_bw
                                + 4e-6)
            ctx = grown

        # Reorder columns from match order back to pattern-vertex order.
        inv = np.argsort(np.asarray(order))
        matches = ctx[:, inv] if len(ctx) else ctx.reshape(0, len(order))
        return MatchResult(matches=matches,
                           contexts_materialized=contexts_total,
                           bytes_shipped=bytes_shipped,
                           simulated_seconds=cluster.now - t0)


# ---------------------------------------------------------------------------
# Common pattern shorthands
# ---------------------------------------------------------------------------


def path_pattern(length: int) -> Pattern:
    """A directed path v0 -> v1 -> ... -> v_length."""
    p = Pattern()
    for i in range(length + 1):
        p.vertex(f"v{i}")
    for i in range(length):
        p.edge(f"v{i}", f"v{i + 1}")
    return p


def triangle_pattern() -> Pattern:
    """A directed 3-cycle a -> b -> c -> a."""
    return (Pattern().vertex("a").vertex("b").vertex("c")
            .edge("a", "b").edge("b", "c").edge("c", "a"))


def star_pattern(spokes: int, min_hub_out: int = 0) -> Pattern:
    """A hub with ``spokes`` out-neighbors."""
    p = Pattern().vertex("hub", min_out_degree=max(min_hub_out, spokes))
    for i in range(spokes):
        p.vertex(f"s{i}")
        p.edge("hub", f"s{i}")
    return p


def diamond_pattern() -> Pattern:
    """a -> b, a -> c, b -> d, c -> d (two directed paths reconverging)."""
    return (Pattern().vertex("a").vertex("b").vertex("c").vertex("d")
            .edge("a", "b").edge("a", "c").edge("b", "d").edge("c", "d"))
