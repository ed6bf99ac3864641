"""Biggest k-core number (degeneracy) by iterative peeling (Table 2).

For k = 1, 2, ... repeatedly remove vertices whose remaining (in+out) degree
is below k, decrementing their neighbors' degrees, until stable; the answer
is the largest k whose core is non-empty.  The inner rounds do tiny amounts
of work but there are *many* of them, which is why KCore is the paper's
framework-overhead stress test — even PGX.D's small per-step cost
accumulates (Section 5.2), and GraphLab/GraphX could not finish at all.

Degrees follow the directed multigraph convention: degree(v) = in-degree +
out-degree, each parallel edge counted.  The SA baseline uses the identical
convention, and on simple one-directional graphs it coincides with the
undirected core number (validated against networkx in the tests).  A
round is two regions: the mark, and one ``undirected`` push that decrements
the dying vertices' out- and in-neighbors together.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def kcore_max(dg: DistributedGraph, max_k: int = 100000):
    """Return the largest k such that the k-core is non-empty."""
    dec = EdgeMapJob(name="kcore_dec", spec=EdgeMapSpec(
        direction="push", source="neg_one", target="kdeg", op=ReduceOp.SUM,
        active="dying", undirected=True))
    count_dying = MapReduce(lambda v: int(v["dying"].sum()))

    with scratch(dg) as add:
        add("kdeg", init=0.0)
        for m in dg.machines:
            m.props["kdeg"][:] = m.props["out_degree"] + m.props["in_degree"]
        add("alive", dtype=np.bool_, init=True)
        add("dying", dtype=np.bool_, init=False)
        add("neg_one", init=-1.0)
        timer = IterationTimer(dg.cluster)
        iterations = 0
        best_k = 0
        n_alive = dg.num_nodes  # peeling only kills: count the deaths
        k = 1
        while k <= max_k:
            # Peel at threshold k until stable.
            while True:
                def mark(view: LocalView, lo: int, hi: int, k=k) -> None:
                    alive = view["alive"][lo:hi]
                    dying = alive & (view["kdeg"][lo:hi] < k)
                    view["dying"][lo:hi] = dying
                    view["alive"][lo:hi] = alive & ~dying

                s1 = yield NodeKernelJob(
                    name="kcore_mark", kernel=mark, reads=("alive", "kdeg"),
                    writes=(("dying", ReduceOp.OVERWRITE),
                            ("alive", ReduceOp.OVERWRITE)),
                    ops_per_node=4, bytes_per_node=24,
                    reduce=count_dying)
                n_dying = int(s1.reduced)
                n_alive -= n_dying
                iterations += 1
                if n_dying == 0:
                    timer.iteration_done(s1)
                    break
                s2 = yield dec
                timer.iteration_done(s1, s2)

            if n_alive == 0:
                best_k = k - 1
                break
            best_k = k
            k += 1
        total, stats = timer.finish()
    return AlgorithmResult(name="kcore", iterations=iterations,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values={},
                           extra={"max_kcore": best_k})
