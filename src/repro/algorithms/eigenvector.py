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
    """First eigenvector component of the adjacency matrix (L2-normalized)."""
    n = dg.num_nodes
    gather_job = EdgeMapJob(name="ev_gather", spec=EdgeMapSpec(
        direction="pull", source="ev_tmp", target="ev_nxt", op=ReduceOp.SUM))

    def prepare(view: LocalView, lo: int, hi: int) -> None:
        view["ev_tmp"][lo:hi] = view["ev"][lo:hi]
        view["ev_nxt"][lo:hi] = 0.0

    prep_job = NodeKernelJob(name="ev_prepare", kernel=prepare, reads=("ev",),
                             writes=(("ev_tmp", ReduceOp.OVERWRITE),
                                     ("ev_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=2, bytes_per_node=24)

    def swap(view: LocalView, lo: int, hi: int) -> None:
        view["ev"][lo:hi] = view["ev_nxt"][lo:hi]

    with scratch(dg) as add:
        add("ev", init=1.0 / n)
        add("ev_tmp", init=0.0)
        add("ev_nxt", init=0.0)
        timer = IterationTimer(dg.cluster)
        change = math.inf
        for _ in range(max_iterations):
            s1 = yield prep_job
            s2 = yield gather_job
            norm_sq = yield MapReduce(
                lambda v: float(np.square(v["ev_nxt"]).sum()))
            norm = math.sqrt(norm_sq) if norm_sq > 0 else 1.0

            def normalize(view: LocalView, lo: int, hi: int,
                          norm=norm) -> None:
                view["ev_nxt"][lo:hi] /= norm

            s3 = yield NodeKernelJob(
                name="ev_normalize", kernel=normalize,
                writes=(("ev_nxt", ReduceOp.OVERWRITE),), ops_per_node=2,
                bytes_per_node=16)
            change = yield MapReduce(
                lambda v: float(np.abs(v["ev_nxt"] - v["ev"]).sum()))
            s4 = yield NodeKernelJob(
                name="ev_swap", kernel=swap,
                writes=(("ev", ReduceOp.OVERWRITE),),
                ops_per_node=1, bytes_per_node=16)
            timer.iteration_done(s1, s2, s3, s4)
            if tolerance > 0 and change < tolerance:
                break
        total, stats = timer.finish()
        ev = dg.gather("ev")
    return AlgorithmResult(name="eigenvector",
                           iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={"ev": ev},
                           extra={"final_change": change})
