"""Weakly Connected Components via min-label propagation (Table 2).

Push-style, like the paper's approximated-PageRank pattern: only *active*
nodes propagate their component label, and — as the paper notes — a
deactivated node becomes active again when a smaller label reaches it.
Undirected semantics require propagation along both out- and in-edges: one
``undirected`` push region sweeps both CSRs, so an iteration is two regions
(the push and the absorb), and MIN writes bound for one target from both
directions combine in the sender's one buffer.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def wcc(dg: DistributedGraph, max_iterations: int = 1000, start=None):
    """Label every node with the smallest node id in its weak component.

    ``start`` warm-starts propagation from ``(comp, active)`` global arrays
    (float labels) instead of self-labels with every node active; the run
    stops as soon as no node is active, which may be before the first
    iteration.  ``extra["active_trace"]`` holds the active count entering
    each iteration, then the final one.
    """
    if start is None:
        comp0 = np.arange(dg.num_nodes, dtype=np.float64)
        active0 = np.ones(dg.num_nodes, dtype=bool)
    else:
        comp0, active0 = start

    push = EdgeMapJob(name="wcc_push", spec=EdgeMapSpec(
        direction="push", source="comp", target="comp_nxt", op=ReduceOp.MIN,
        active="active", undirected=True))

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
                               ops_per_node=5, bytes_per_node=40,
                               reduce=MapReduce(
                                   lambda v: int(v["active"].sum())))

    with scratch(dg) as add:
        add("comp", from_global=comp0)
        add("comp_nxt", from_global=comp0)
        add("active", dtype=np.bool_, from_global=active0)
        timer = IterationTimer(dg.cluster)
        active_trace = [int(active0.sum())]
        for _ in range(max_iterations):
            if active_trace[-1] == 0:
                break
            s1 = yield push
            s2 = yield absorb_job
            active_trace.append(int(s2.reduced))
            timer.iteration_done(s1, s2)
        total, stats = timer.finish()
        comp = dg.gather("comp").astype(np.int64)
    return AlgorithmResult(name="wcc", iterations=len(active_trace) - 1,
                           total_time=total,
                           per_iteration=timer.per_iteration, stats=stats,
                           values={"component": comp},
                           extra={"num_components": int(len(np.unique(comp))),
                                  "active_trace": active_trace})
