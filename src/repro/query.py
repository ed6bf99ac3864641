"""Simple SQL-like operators over node properties (paper Section 6.1).

The paper argues that "simple SQL operators can be implemented directly on
top of PGX.D for the convenience of post processing — e.g., find the top-100
Pagerank nodes that have less than 1000 neighbors."  This module provides
exactly that layer: filter / order-by / limit / aggregate over the
distributed property columns, executed machine-local with a merge step on
the driver (and costed as such on the simulated clock).

Example::

    q = (PropertyQuery(cluster, dg)
         .where("out_degree", "<", 1000)
         .order_by("pr", descending=True)
         .limit(100))
    for node_id, row in q.execute():
        ...
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import barrier as barrier_mod
from .core.engine import DistributedGraph, PgxdCluster
from .core.properties import ReduceOp

_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


@dataclass
class _Filter:
    prop: str
    op: str
    value: float


class PropertyQuery:
    """A small scan-filter-sort-limit pipeline over node properties.

    Executes as the paper's server would: each machine scans and filters its
    local columns (and pre-selects its own top-k when a limit is present),
    then the driver merges the per-machine candidates — so the merged data
    volume is O(P * k), not O(N).
    """

    def __init__(self, cluster: PgxdCluster, dgraph: DistributedGraph):
        self.cluster = cluster
        self.dgraph = dgraph
        self._filters: list[_Filter] = []
        self._order_prop: Optional[str] = None
        self._descending = True
        self._limit: Optional[int] = None
        self._select: Optional[list[str]] = None

    # -- builders -------------------------------------------------------------

    def select(self, *props: str) -> "PropertyQuery":
        """Choose the properties returned per node (default: all used ones)."""
        self._select = list(props)
        return self

    def where(self, prop: str, op: str, value: float) -> "PropertyQuery":
        if op not in _OPS:
            raise ValueError(f"unsupported operator {op!r}; "
                             f"choose from {sorted(_OPS)}")
        self._filters.append(_Filter(prop, op, value))
        return self

    def order_by(self, prop: str, descending: bool = True) -> "PropertyQuery":
        self._order_prop = prop
        self._descending = descending
        return self

    def limit(self, k: int) -> "PropertyQuery":
        if k <= 0:
            raise ValueError("limit must be positive")
        self._limit = k
        return self

    # -- execution ---------------------------------------------------------------

    #: Modeled column-scan bandwidth (bytes/sec) shared by every priced
    #: read: filter passes, order-key gathers, row materialization and the
    #: count/aggregate scans.
    SCAN_BW = 30e9
    #: Driver-side merge cost per candidate row.
    MERGE_SECONDS_PER_ROW = 50e-9
    #: Fixed driver dispatch overhead per query.
    DRIVER_OVERHEAD = 2e-6

    def _used_props(self) -> list[str]:
        used = [f.prop for f in self._filters]
        if self._order_prop:
            used.append(self._order_prop)
        if self._select:
            used.extend(self._select)
        seen: list[str] = []
        for p in used:
            if p not in seen:
                seen.append(p)
        return seen

    def fingerprint(self, op: str = "execute", *extra) -> str:
        """Canonical cache key for this query shape + parameters."""
        parts = [
            f"query:{op}",
            ";".join(f"{f.prop}{f.op}{f.value!r}" for f in self._filters),
            f"order={self._order_prop}:"
            f"{'desc' if self._descending else 'asc'}",
            f"limit={self._limit}",
            f"select={','.join(self._select) if self._select else '*'}",
        ]
        parts.extend(str(e) for e in extra)
        return "|".join(parts)

    def _local_mask(self, m) -> np.ndarray:
        mask = np.ones(m.n_local, dtype=bool)
        for f in self._filters:
            mask &= _OPS[f.op](m.props[f.prop], f.value)
        return mask

    def _stable_order(self, keys: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Sort permutation on the composite key (order value, global id).

        Both the machine-local top-k and the driver merge use this exact
        key, so the surviving rows — including ties — are identical under
        any partitioning of the graph.  Ties always break toward the
        smaller global node id, ascending or descending alike.
        """
        keys = keys.astype(np.float64)
        return np.lexsort((gids, -keys if self._descending else keys))

    def _scan_seconds(self, num_columns: int) -> float:
        total = sum(m.n_local for m in self.dgraph.machines)
        return total * 8.0 * num_columns / self.SCAN_BW

    def _reduce_latency(self) -> float:
        return barrier_mod.all_reduce_latency(self.cluster.config.num_machines,
                                              self.cluster.config.network)

    def _execute_priced(self) -> tuple[list, float]:
        props = self._used_props()
        if not props:
            raise ValueError("query references no properties")
        out_props = self._select or props

        candidates: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []
        scanned_bytes = 0.0
        for m in self.dgraph.machines:
            idx = np.flatnonzero(self._local_mask(m))
            # Full-column filter pass (at least one column to read rows).
            scanned_bytes += m.n_local * 8.0 * max(1, len(self._filters))
            if self._order_prop is not None:
                # Order-key gather over the filtered candidates.
                scanned_bytes += len(idx) * 8.0
            if self._order_prop is not None and self._limit is not None \
                    and len(idx) > self._limit:
                # Machine-local top-k before shipping to the driver, on the
                # same stable composite key the driver merge uses.
                keys = m.props[self._order_prop][idx]
                top = self._stable_order(keys, idx + m.lo)
                idx = idx[top[:self._limit]]
            rows = {p: m.props[p][idx].copy() for p in out_props}
            if self._order_prop is not None and self._order_prop not in rows:
                rows[self._order_prop] = m.props[self._order_prop][idx].copy()
            # Materialize every returned column of the surviving rows.
            scanned_bytes += len(idx) * 8.0 * len(rows)
            candidates.append((idx + m.lo, rows))

        merge_rows = sum(len(ids) for ids, _ in candidates)
        cost = (scanned_bytes / self.SCAN_BW
                + merge_rows * self.MERGE_SECONDS_PER_ROW
                + self.DRIVER_OVERHEAD)

        ids = np.concatenate([ids for ids, _ in candidates]) \
            if candidates else np.empty(0, dtype=np.int64)
        merged = {p: np.concatenate([rows[p] for _, rows in candidates])
                  for p in (candidates[0][1] if candidates else {})}
        if self._order_prop is not None:
            order = self._stable_order(merged[self._order_prop], ids)
            ids = ids[order]
            merged = {p: v[order] for p, v in merged.items()}
        if self._limit is not None:
            ids = ids[:self._limit]
            merged = {p: v[:self._limit] for p, v in merged.items()}
        rows_out = [(int(v), {p: merged[p][i] for p in out_props})
                    for i, v in enumerate(ids)]
        return rows_out, cost

    def execute(self) -> list[tuple[int, dict[str, float]]]:
        """Run the query; returns (global node id, {prop: value}) rows."""
        rows, cost = self._execute_priced()
        self.cluster.advance(cost)
        return rows

    # -- aggregates --------------------------------------------------------------

    def _count_priced(self) -> tuple[int, float]:
        counts = [int(self._local_mask(m).sum()) for m in self.dgraph.machines]
        # The local filter pass scans every filter column in full (one
        # column minimum: the scan itself), then a scalar tree all-reduce
        # combines the per-machine counts.
        cost = (self._scan_seconds(max(1, len(self._filters)))
                + self._reduce_latency())
        total = counts[0] if counts else 0
        for c in counts[1:]:
            total = ReduceOp.SUM.scalar(total, c)
        return int(total), cost

    def count(self) -> int:
        """Number of nodes passing the filters (distributed count + reduce)."""
        value, cost = self._count_priced()
        self.cluster.advance(cost)
        return value

    def _aggregate_priced(self, prop: str, how: str = "sum") \
            -> tuple[float, float]:
        ops = {"sum": ReduceOp.SUM, "min": ReduceOp.MIN, "max": ReduceOp.MAX}
        if how == "avg":
            total, sum_cost = self._aggregate_priced(prop, "sum")
            n, count_cost = self._count_priced()
            value = total / n if n else float("nan")
            return value, sum_cost + count_cost
        if how not in ops:
            raise ValueError(f"unsupported aggregate {how!r}")

        def local(m):
            vals = m.props[prop][self._local_mask(m)]
            if len(vals) == 0:
                return ops[how].bottom(np.float64)
            if how == "sum":
                return float(vals.sum())
            return float(vals.min() if how == "min" else vals.max())

        parts = [local(m) for m in self.dgraph.machines]
        # Filter columns plus the aggregated column are all scanned in
        # full before the scalar all-reduce.
        cost = (self._scan_seconds(len(self._filters) + 1)
                + self._reduce_latency())
        result = parts[0]
        for v in parts[1:]:
            result = ops[how].scalar(result, v)
        return float(result), cost

    def aggregate(self, prop: str, how: str = "sum") -> float:
        """SUM/MIN/MAX/AVG of ``prop`` over the filtered nodes."""
        value, cost = self._aggregate_priced(prop, how)
        self.cluster.advance(cost)
        return value


# -- serving-trace helpers -------------------------------------------------

#: Operator mix used by the serve trace, the query benchmark and the audit
#: scenario.  A spec is ``(op, degree_threshold, k)``.
POOL_OPS = ("count", "sum", "max", "top")


def pool_specs(size: int, seed: int = 0) -> list[tuple[str, int, int]]:
    """A seeded pool of query shapes over the built-in degree properties."""
    rng = np.random.default_rng(seed)
    return [(POOL_OPS[i % len(POOL_OPS)], int(rng.integers(1, 8)),
             int(rng.integers(3, 20))) for i in range(size)]


def apply_spec(q: PropertyQuery, spec: tuple[str, int, int]):
    """Run one pool spec against a query builder (``PropertyQuery`` or a
    session-bound subclass); returns the op's result."""
    op, threshold, k = spec
    q = q.where("out_degree", ">=", threshold)
    if op == "count":
        return q.count()
    if op == "sum":
        return q.aggregate("out_degree", "sum")
    if op == "max":
        return q.aggregate("in_degree", "max")
    return (q.order_by("out_degree", descending=True).limit(k)
            .select("out_degree").execute())
