"""Single-source shortest paths, Bellman-Ford style (Table 2).

Active nodes push ``dist + edge_weight`` with a MIN reduction to their
out-neighbors; a node whose distance improves becomes active for the next
step.  Edge weights are the uniform-random values the paper generates.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView, PgxdCluster
from ..core.job import EdgeMapJob, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer


def sssp(cluster: PgxdCluster, dg: DistributedGraph, root: int = 0,
         max_iterations: int = 10000) -> AlgorithmResult:
    """Weighted shortest-path distance from ``root`` (Bellman-Ford)."""
    if dg.graph.edge_weights is None:
        raise ValueError("sssp requires edge weights "
                         "(see graph.generators.with_uniform_weights)")
    n = dg.num_nodes
    init_dist = np.full(n, np.inf)
    init_dist[root] = 0.0
    dg.add_property("dist", from_global=init_dist)
    dg.add_property("dist_nxt", from_global=init_dist)
    active0 = np.zeros(n, dtype=bool)
    active0[root] = True
    dg.add_property("active", dtype=np.bool_, from_global=active0)

    relax = EdgeMapJob(name="sssp_relax", spec=EdgeMapSpec(
        direction="push", source="dist", target="dist_nxt", op=ReduceOp.MIN,
        transform=lambda vals, w: vals + w, use_weights=True, active="active"))

    def absorb(view: LocalView, lo: int, hi: int) -> None:
        dist = view["dist"][lo:hi]
        nxt = view["dist_nxt"][lo:hi]
        improved = nxt < dist
        view["dist"][lo:hi] = np.minimum(dist, nxt)
        view["active"][lo:hi] = improved
        view["dist_nxt"][lo:hi] = view["dist"][lo:hi]

    absorb_job = NodeKernelJob(name="sssp_absorb", kernel=absorb,
                               reads=("dist_nxt",),
                               writes=(("dist", ReduceOp.OVERWRITE),
                                       ("active", ReduceOp.OVERWRITE),
                                       ("dist_nxt", ReduceOp.OVERWRITE)),
                               ops_per_node=5, bytes_per_node=40)

    timer = IterationTimer(cluster)
    iterations = 0
    for _ in range(max_iterations):
        s1 = cluster.run_job(dg, relax)
        s2 = cluster.run_job(dg, absorb_job)
        n_active = int(cluster.map_reduce(dg, lambda v: int(v["active"].sum())))
        iterations += 1
        timer.iteration_done(s1, s2)
        if n_active == 0:
            break

    total, stats = timer.finish()
    dist = dg.gather("dist")
    for prop in ("dist", "dist_nxt", "active"):
        dg.drop_property(prop)
    return AlgorithmResult(name="sssp", iterations=iterations, total_time=total,
                           per_iteration=timer.per_iteration, stats=stats,
                           values={"dist": dist},
                           extra={"reached": int(np.isfinite(dist).sum())})
