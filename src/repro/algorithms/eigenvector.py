"""Eigenvector centrality by power iteration (Table 2).

Like exact PageRank, every vertex computes a fresh value from *all* of its
in-neighbors every step — no deactivation — which is why the paper
implements it with data pulling on PGX.D.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.engine import DistributedGraph, LocalView, PgxdCluster
from ..core.job import EdgeMapJob, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer


def eigenvector(cluster: PgxdCluster, dg: DistributedGraph,
                max_iterations: int = 10,
                tolerance: float = 0.0) -> AlgorithmResult:
    """First eigenvector component of the adjacency matrix (L2-normalized)."""
    n = dg.num_nodes
    dg.add_property("ev", init=1.0 / n)
    dg.add_property("ev_tmp", init=0.0)
    dg.add_property("ev_nxt", init=0.0)

    gather_job = EdgeMapJob(name="ev_gather", spec=EdgeMapSpec(
        direction="pull", source="ev_tmp", target="ev_nxt", op=ReduceOp.SUM))

    def prepare(view: LocalView, lo: int, hi: int) -> None:
        view["ev_tmp"][lo:hi] = view["ev"][lo:hi]
        view["ev_nxt"][lo:hi] = 0.0

    prep_job = NodeKernelJob(name="ev_prepare", kernel=prepare, reads=("ev",),
                             writes=(("ev_tmp", ReduceOp.OVERWRITE),
                                     ("ev_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=2, bytes_per_node=24)

    timer = IterationTimer(cluster)
    iterations = 0
    change = math.inf
    for _ in range(max_iterations):
        s1 = cluster.run_job(dg, prep_job)
        s2 = cluster.run_job(dg, gather_job)
        norm_sq = cluster.map_reduce(
            dg, lambda v: float(np.square(v["ev_nxt"]).sum()))
        norm = math.sqrt(norm_sq) if norm_sq > 0 else 1.0

        def normalize(view: LocalView, lo: int, hi: int, norm=norm) -> None:
            view["ev_nxt"][lo:hi] /= norm

        s3 = cluster.run_job(dg, NodeKernelJob(
            name="ev_normalize", kernel=normalize,
            writes=(("ev_nxt", ReduceOp.OVERWRITE),), ops_per_node=2,
            bytes_per_node=16))

        change = cluster.map_reduce(
            dg, lambda v: float(np.abs(v["ev_nxt"] - v["ev"]).sum()))

        def swap(view: LocalView, lo: int, hi: int) -> None:
            view["ev"][lo:hi] = view["ev_nxt"][lo:hi]

        s4 = cluster.run_job(dg, NodeKernelJob(
            name="ev_swap", kernel=swap, writes=(("ev", ReduceOp.OVERWRITE),),
            ops_per_node=1, bytes_per_node=16))

        iterations += 1
        timer.iteration_done(s1, s2, s3, s4)
        if tolerance > 0 and change < tolerance:
            break

    total, stats = timer.finish()
    ev = dg.gather("ev")
    for prop in ("ev", "ev_tmp", "ev_nxt"):
        dg.drop_property(prop)
    return AlgorithmResult(name="eigenvector", iterations=iterations,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={"ev": ev},
                           extra={"final_change": change})
