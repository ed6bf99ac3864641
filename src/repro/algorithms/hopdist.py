"""Hop distance: breadth-first traversal from a root (Table 2).

The unweighted twin of SSSP — level-synchronous BFS where the frontier
pushes ``hops + 1`` with a MIN reduction.  The iteration count equals the
graph's eccentricity from the root, so small-diameter social graphs finish
in a handful of steps (the paper's Hop Dist column).
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def hop_dist(dg: DistributedGraph, root: int = 0,
             max_iterations: int = 10000):
    """Minimum hop count from ``root`` along out-edges (inf if unreachable)."""
    n = dg.num_nodes
    init = np.full(n, np.inf)
    init[root] = 0.0
    frontier0 = np.zeros(n, dtype=bool)
    frontier0[root] = True

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
                               ops_per_node=5, bytes_per_node=40,
                               reduce=MapReduce(
                                   lambda v: int(v["frontier"].sum())))

    with scratch(dg) as add:
        add("hops", from_global=init)
        add("hops_nxt", from_global=init)
        add("frontier", dtype=np.bool_, from_global=frontier0)
        timer = IterationTimer(dg.cluster)
        for _ in range(max_iterations):
            s1 = yield expand
            s2 = yield absorb_job
            timer.iteration_done(s1, s2)
            if s2.reduced == 0:
                break
        total, stats = timer.finish()
        hops = dg.gather("hops")
    return AlgorithmResult(name="hop_dist",
                           iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={"hops": hops},
                           extra={"reached": int(np.isfinite(hops).sum())})
