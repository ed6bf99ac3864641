"""Engine-independent reference answers (numpy/scipy only).

Nothing here imports ``repro``: inputs are plain ``(src, dst[, weight])``
edge arrays, so an engine bug cannot hide in its own oracle.  All of it
runs outside the timed region.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra


def pagerank(n: int, src: np.ndarray, dst: np.ndarray, damping: float,
             iterations: int) -> np.ndarray:
    """Power iteration with uniform dangling redistribution — the same
    damping and iteration count the engine runs, multi-edges counted."""
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    # A^T as a sparse matrix; duplicate (src, dst) entries sum, which is
    # exactly a multigraph's multiplicity.
    at = sp.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    dangling = outdeg == 0
    pr = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = np.where(dangling, 0.0, pr / np.maximum(outdeg, 1.0))
        base = (1.0 - damping) / n + damping * pr[dangling].sum() / n
        pr = base + damping * (at @ share)
    return pr


def _min_weight_csr(n: int, src, dst, weight) -> sp.csr_matrix:
    """CSR adjacency keeping the lightest of parallel edges (scipy would
    otherwise *sum* duplicate entries)."""
    order = np.lexsort((weight, dst, src))
    s, d, w = src[order], dst[order], weight[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    return sp.csr_matrix((w[first], (s[first], d[first])), shape=(n, n))


def sssp(n: int, src, dst, weight, root: int) -> np.ndarray:
    return dijkstra(_min_weight_csr(n, src, dst, weight), directed=True,
                    indices=root)


def wcc_labels(n: int, src, dst) -> np.ndarray:
    adj = sp.csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                        shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="weak")
    return labels


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two labelings induce the same partition of the vertices?"""
    if len(a) != len(b):
        return False
    pairs = np.unique(np.stack([a, b]), axis=1)
    return (len(pairs[0]) == len(np.unique(a))
            and len(pairs[0]) == len(np.unique(b)))


def query(spec: tuple, out_deg: np.ndarray, in_deg: np.ndarray):
    """Reference answer for one ``repro.query.pool_specs`` spec
    ``(op, degree_threshold, k)`` from an epoch's degree arrays."""
    op, threshold, k = spec
    mask = out_deg >= threshold
    if op == "count":
        return int(mask.sum())
    if op == "sum":
        return float(out_deg[mask].sum())
    if op == "max":
        return float(in_deg[mask].max()) if mask.any() else float("-inf")
    ids = np.flatnonzero(mask)
    # descending out-degree, ties toward the smaller vertex id
    order = np.lexsort((ids, -out_deg[ids]))[:k]
    return [(int(v), float(out_deg[v])) for v in ids[order]]


def query_matches(spec: tuple, got, want) -> bool:
    if spec[0] != "top":
        return float(got) == float(want)
    rows = [(int(v), float(row["out_degree"])) for v, row in got]
    return rows == want
