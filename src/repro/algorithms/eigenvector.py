"""Eigenvector centrality by power iteration (Table 2).

Like exact PageRank, every vertex computes a fresh value from *all* of its
in-neighbors every step — no deactivation — which is why the paper
implements it with data pulling on PGX.D.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def eigenvector(dg: DistributedGraph, max_iterations: int = 10,
                tolerance: float = 0.0):
    """First eigenvector component of the adjacency matrix (L2-normalized).

    Columns ``ev`` and ``ev_nxt`` alternate as input and output.  An
    iteration is two regions: the gather sums the input over in-neighbors
    into ``ev_acc`` and reduces the squared norm on its barrier; the
    normalize region writes the output, clears the accumulator and reduces
    the L1 change on its barrier.
    """
    n = dg.num_nodes
    other = {"ev": "ev_nxt", "ev_nxt": "ev"}
    gathers = {cur: EdgeMapJob(
        name="ev_gather",
        spec=EdgeMapSpec(direction="pull", source=cur, target="ev_acc",
                         op=ReduceOp.SUM),
        reduce=MapReduce(lambda v: float(np.square(v["ev_acc"]).sum())))
        for cur in other}

    with scratch(dg) as add:
        add("ev", init=1.0 / n)
        add("ev_nxt", init=0.0)
        add("ev_acc", init=0.0)
        timer = IterationTimer(dg.cluster)
        change = math.inf
        cur = "ev"
        for _ in range(max_iterations):
            nxt = other[cur]
            s1 = yield gathers[cur]
            norm = math.sqrt(s1.reduced) if s1.reduced > 0 else 1.0

            def normalize(view: LocalView, lo: int, hi: int, nxt=nxt,
                          norm=norm) -> None:
                view[nxt][lo:hi] = view["ev_acc"][lo:hi] / norm
                view["ev_acc"][lo:hi] = 0.0

            s2 = yield NodeKernelJob(
                name="ev_normalize", kernel=normalize,
                writes=((nxt, ReduceOp.OVERWRITE),
                        ("ev_acc", ReduceOp.OVERWRITE)),
                ops_per_node=3, bytes_per_node=24,
                reduce=MapReduce(lambda v, nxt=nxt, cur=cur: float(
                    np.abs(v[nxt] - v[cur]).sum())))
            change = s2.reduced
            timer.iteration_done(s1, s2)
            cur = nxt
            if tolerance > 0 and change < tolerance:
                break
        total, stats = timer.finish()
        ev = dg.gather(cur)
    return AlgorithmResult(name="eigenvector",
                           iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={"ev": ev},
                           extra={"final_change": change})
