"""Single-source shortest paths, Bellman-Ford style (Table 2).

Active nodes push ``dist + edge_weight`` with a MIN reduction to their
out-neighbors; a node whose distance improves becomes active for the next
step.  Edge weights are the uniform-random values the paper generates.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def sssp(dg: DistributedGraph, root: int = 0, max_iterations: int = 10000,
         start=None):
    """Weighted shortest-path distance from ``root`` (Bellman-Ford).

    ``start`` warm-starts the relaxation from ``(dist, active)`` global
    arrays instead of the cold start at ``root``; the run stops as soon as
    no node is active, which may be before the first iteration.
    ``extra["active_trace"]`` holds the active count entering each
    iteration, then the final one.
    """
    if dg.graph.edge_weights is None:
        raise ValueError("sssp requires edge weights "
                         "(see graph.generators.with_uniform_weights)")
    if start is None:
        n = dg.num_nodes
        dist0 = np.full(n, np.inf)
        dist0[root] = 0.0
        active0 = np.zeros(n, dtype=bool)
        active0[root] = True
    else:
        dist0, active0 = start

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
                               ops_per_node=5, bytes_per_node=40,
                               reduce=MapReduce(
                                   lambda v: int(v["active"].sum())))

    with scratch(dg) as add:
        add("dist", from_global=dist0)
        add("dist_nxt", from_global=dist0)
        add("active", dtype=np.bool_, from_global=active0)
        timer = IterationTimer(dg.cluster)
        active_trace = [int(active0.sum())]
        for _ in range(max_iterations):
            if active_trace[-1] == 0:
                break
            s1 = yield relax
            s2 = yield absorb_job
            active_trace.append(int(s2.reduced))
            timer.iteration_done(s1, s2)
        total, stats = timer.finish()
        dist = dg.gather("dist")
    return AlgorithmResult(name="sssp", iterations=len(active_trace) - 1,
                           total_time=total,
                           per_iteration=timer.per_iteration, stats=stats,
                           values={"dist": dist},
                           extra={"reached": int(np.isfinite(dist).sum()),
                                  "active_trace": active_trace})
