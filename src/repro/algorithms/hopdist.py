"""Hop distance: breadth-first traversal from a root (Table 2).

The unweighted twin of SSSP — level-synchronous BFS where the frontier
pushes ``hops + 1`` with a MIN reduction.  The iteration count equals the
graph's eccentricity from the root, so small-diameter social graphs finish
in a handful of steps (the paper's Hop Dist column).
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView, PgxdCluster
from ..core.job import EdgeMapJob, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer


def hop_dist(cluster: PgxdCluster, dg: DistributedGraph, root: int = 0,
             max_iterations: int = 10000) -> AlgorithmResult:
    """Minimum hop count from ``root`` along out-edges (inf if unreachable)."""
    n = dg.num_nodes
    init = np.full(n, np.inf)
    init[root] = 0.0
    dg.add_property("hops", from_global=init)
    dg.add_property("hops_nxt", from_global=init)
    frontier0 = np.zeros(n, dtype=bool)
    frontier0[root] = True
    dg.add_property("frontier", dtype=np.bool_, from_global=frontier0)

    expand = EdgeMapJob(name="bfs_expand", spec=EdgeMapSpec(
        direction="push", source="hops", target="hops_nxt", op=ReduceOp.MIN,
        transform=lambda vals, _w: vals + 1.0, active="frontier"))

    def absorb(view: LocalView, lo: int, hi: int) -> None:
        hops = view["hops"][lo:hi]
        nxt = view["hops_nxt"][lo:hi]
        discovered = nxt < hops
        view["hops"][lo:hi] = np.minimum(hops, nxt)
        view["frontier"][lo:hi] = discovered
        view["hops_nxt"][lo:hi] = view["hops"][lo:hi]

    absorb_job = NodeKernelJob(name="bfs_absorb", kernel=absorb,
                               reads=("hops_nxt",),
                               writes=(("hops", ReduceOp.OVERWRITE),
                                       ("frontier", ReduceOp.OVERWRITE),
                                       ("hops_nxt", ReduceOp.OVERWRITE)),
                               ops_per_node=5, bytes_per_node=40)

    timer = IterationTimer(cluster)
    iterations = 0
    for _ in range(max_iterations):
        s1 = cluster.run_job(dg, expand)
        s2 = cluster.run_job(dg, absorb_job)
        frontier_size = int(cluster.map_reduce(
            dg, lambda v: int(v["frontier"].sum())))
        iterations += 1
        timer.iteration_done(s1, s2)
        if frontier_size == 0:
            break

    total, stats = timer.finish()
    hops = dg.gather("hops")
    for prop in ("hops", "hops_nxt", "frontier"):
        dg.drop_property(prop)
    return AlgorithmResult(name="hop_dist", iterations=iterations,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={"hops": hops},
                           extra={"reached": int(np.isfinite(hops).sum())})
