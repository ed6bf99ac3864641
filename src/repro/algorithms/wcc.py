"""Weakly Connected Components via min-label propagation (Table 2).

Push-style, like the paper's approximated-PageRank pattern: only *active*
nodes propagate their component label, and — as the paper notes — a
deactivated node becomes active again when a smaller label reaches it.
Undirected semantics require propagation along both out- and in-edges.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView, PgxdCluster
from ..core.job import EdgeMapJob, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer


def wcc(cluster: PgxdCluster, dg: DistributedGraph, max_iterations: int = 1000) -> AlgorithmResult:
    """Label every node with the smallest node id in its weak component."""
    dg.add_property("comp", init=0.0,
                    from_global=np.arange(dg.num_nodes, dtype=np.float64))
    dg.add_property("comp_nxt", init=0.0,
                    from_global=np.arange(dg.num_nodes, dtype=np.float64))
    dg.add_property("active", dtype=np.bool_, init=True)

    push_out = EdgeMapJob(name="wcc_out", spec=EdgeMapSpec(
        direction="push", source="comp", target="comp_nxt", op=ReduceOp.MIN,
        active="active"))
    push_in = EdgeMapJob(name="wcc_in", spec=EdgeMapSpec(
        direction="push", source="comp", target="comp_nxt", op=ReduceOp.MIN,
        active="active", reverse=True))

    def absorb(view: LocalView, lo: int, hi: int) -> None:
        comp = view["comp"][lo:hi]
        nxt = view["comp_nxt"][lo:hi]
        changed = nxt < comp
        view["comp"][lo:hi] = np.minimum(comp, nxt)
        view["active"][lo:hi] = changed
        view["comp_nxt"][lo:hi] = view["comp"][lo:hi]

    absorb_job = NodeKernelJob(name="wcc_absorb", kernel=absorb,
                               reads=("comp_nxt",),
                               writes=(("comp", ReduceOp.OVERWRITE),
                                       ("active", ReduceOp.OVERWRITE),
                                       ("comp_nxt", ReduceOp.OVERWRITE)),
                               ops_per_node=5, bytes_per_node=40)

    timer = IterationTimer(cluster)
    iterations = 0
    for _ in range(max_iterations):
        s1 = cluster.run_job(dg, push_out)
        s2 = cluster.run_job(dg, push_in)
        s3 = cluster.run_job(dg, absorb_job)
        n_active = int(cluster.map_reduce(dg, lambda v: int(v["active"].sum())))
        iterations += 1
        timer.iteration_done(s1, s2, s3)
        if n_active == 0:
            break

    total, stats = timer.finish()
    comp = dg.gather("comp").astype(np.int64)
    for prop in ("comp", "comp_nxt", "active"):
        dg.drop_property(prop)
    return AlgorithmResult(name="wcc", iterations=iterations, total_time=total,
                           per_iteration=timer.per_iteration, stats=stats,
                           values={"component": comp},
                           extra={"num_components": int(len(np.unique(comp)))})
