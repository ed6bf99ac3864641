"""Betweenness centrality (Brandes) on the PGX.D engine.

Not in the paper's Table 2, but a standard member of the PGX product's
library and a genuinely harder workload than the suite's propagation
kernels: per source it runs a level-synchronous forward phase counting
shortest paths (sigma) and a *backward* phase accumulating dependencies
level by level — exercising frontier filters, push and pull jobs, and
staged temporary properties together.

Unweighted shortest paths (BFS DAG); exact when ``sources`` covers every
vertex, a standard unbiased estimate when sampled.  Parallel edges would
multiply path counts, so callers should use simple graphs (``dedup=True``)
when comparing with networkx.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch

_PROPS = ("bc_d", "bc_sigma", "bc_sigma_in", "bc_frontier", "bc_coef",
          "bc_delta", "bc_acc")


@program
def betweenness(dg: DistributedGraph,
                sources: Optional[Sequence[int]] = None):
    """Sum of source dependencies delta_s(v) over ``sources`` (all by default).

    With all sources this equals networkx's unnormalized directed
    betweenness centrality.
    """
    n = dg.num_nodes
    if sources is None:
        sources = range(n)
    sources = list(sources)

    # sigma flows forward along the BFS DAG.
    push_sigma = EdgeMapJob(name="bc_push_sigma", spec=EdgeMapSpec(
        direction="push", source="bc_sigma", target="bc_sigma_in",
        op=ReduceOp.SUM, active="bc_frontier"))
    # dependency coefficients flow backward: v pulls coef from its
    # out-neighbors (only nodes on the next level carry nonzero coef).
    pull_coef = EdgeMapJob(name="bc_pull_coef", spec=EdgeMapSpec(
        direction="pull", source="bc_coef", target="bc_delta",
        op=ReduceOp.SUM, active="bc_frontier", reverse=True))
    discovered = MapReduce(lambda v: int(v["bc_frontier"].sum()))

    with scratch(dg) as add:
        for prop in _PROPS:
            if prop == "bc_frontier":
                add(prop, dtype=np.bool_, init=False)
            else:
                add(prop, init=0.0)
        timer = IterationTimer(dg.cluster)
        iterations = 0
        for s in sources:
            # ---- init per source ---------------------------------------
            def init(view: LocalView, lo: int, hi: int, s=s) -> None:
                gl, gh = view.lo + lo, view.lo + hi
                view["bc_d"][lo:hi] = np.inf
                view["bc_sigma"][lo:hi] = 0.0
                view["bc_frontier"][lo:hi] = False
                if gl <= s < gh:
                    view["bc_d"][s - view.lo] = 0.0
                    view["bc_sigma"][s - view.lo] = 1.0
                    view["bc_frontier"][s - view.lo] = True

            yield NodeKernelJob(
                name="bc_init", kernel=init,
                writes=(("bc_d", ReduceOp.OVERWRITE),
                        ("bc_sigma", ReduceOp.OVERWRITE),
                        ("bc_frontier", ReduceOp.OVERWRITE)),
                ops_per_node=4, bytes_per_node=32)

            # ---- forward: BFS levels with sigma accumulation -------------
            level = 0
            levels: list[int] = []
            while True:
                def clear_in(view: LocalView, lo: int, hi: int) -> None:
                    view["bc_sigma_in"][lo:hi] = 0.0

                yield NodeKernelJob(
                    name="bc_clear", kernel=clear_in,
                    writes=(("bc_sigma_in", ReduceOp.OVERWRITE),),
                    ops_per_node=1, bytes_per_node=8)
                s1 = yield push_sigma

                def absorb(view: LocalView, lo: int, hi: int,
                           level=level) -> None:
                    fresh = (np.isinf(view["bc_d"][lo:hi])
                             & (view["bc_sigma_in"][lo:hi] > 0))
                    view["bc_d"][lo:hi] = np.where(fresh, level + 1,
                                                   view["bc_d"][lo:hi])
                    view["bc_sigma"][lo:hi] += np.where(
                        fresh, view["bc_sigma_in"][lo:hi], 0.0)
                    view["bc_frontier"][lo:hi] = fresh

                s2 = yield NodeKernelJob(
                    name="bc_absorb", kernel=absorb,
                    reads=("bc_sigma_in",),
                    writes=(("bc_d", ReduceOp.OVERWRITE),
                            ("bc_sigma", ReduceOp.OVERWRITE),
                            ("bc_frontier", ReduceOp.OVERWRITE)),
                    ops_per_node=6, bytes_per_node=48, reduce=discovered)
                iterations += 1
                timer.iteration_done(s1, s2)
                if s2.reduced == 0:
                    break
                level += 1
                levels.append(level)

            # ---- backward: dependency accumulation, deepest level first ---
            def zero_backward(view: LocalView, lo: int, hi: int) -> None:
                view["bc_delta"][lo:hi] = 0.0
                view["bc_coef"][lo:hi] = 0.0

            yield NodeKernelJob(
                name="bc_zero_back", kernel=zero_backward,
                writes=(("bc_delta", ReduceOp.OVERWRITE),
                        ("bc_coef", ReduceOp.OVERWRITE)),
                ops_per_node=2, bytes_per_node=16)

            for lvl in reversed(levels):
                # nodes at level lvl publish their coefficient ...
                def publish(view: LocalView, lo: int, hi: int,
                            lvl=lvl) -> None:
                    at = view["bc_d"][lo:hi] == lvl
                    sigma = np.maximum(view["bc_sigma"][lo:hi], 1.0)
                    view["bc_coef"][lo:hi] = np.where(
                        at, (1.0 + view["bc_delta"][lo:hi]) / sigma, 0.0)
                    # ... and the level above becomes the pulling frontier
                    view["bc_frontier"][lo:hi] = (
                        view["bc_d"][lo:hi] == lvl - 1)

                yield NodeKernelJob(
                    name="bc_publish", kernel=publish,
                    reads=("bc_d", "bc_sigma", "bc_delta"),
                    writes=(("bc_coef", ReduceOp.OVERWRITE),
                            ("bc_frontier", ReduceOp.OVERWRITE)),
                    ops_per_node=6, bytes_per_node=48)
                s3 = yield pull_coef

                def scale(view: LocalView, lo: int, hi: int, lvl=lvl) -> None:
                    at = view["bc_d"][lo:hi] == lvl - 1
                    view["bc_delta"][lo:hi] = np.where(
                        at, view["bc_delta"][lo:hi] * view["bc_sigma"][lo:hi],
                        view["bc_delta"][lo:hi])

                s4 = yield NodeKernelJob(
                    name="bc_scale", kernel=scale, reads=("bc_d", "bc_sigma"),
                    writes=(("bc_delta", ReduceOp.OVERWRITE),),
                    ops_per_node=3, bytes_per_node=24)
                iterations += 1
                timer.iteration_done(s3, s4)

            # accumulate this source's dependencies (excluding the source).
            def accumulate(view: LocalView, lo: int, hi: int, s=s) -> None:
                delta = view["bc_delta"][lo:hi].copy()
                if view.lo <= s < view.hi and lo <= s - view.lo < hi:
                    delta[s - view.lo - lo] = 0.0
                view["bc_acc"][lo:hi] += delta

            yield NodeKernelJob(
                name="bc_accumulate", kernel=accumulate, reads=("bc_delta",),
                writes=(("bc_acc", ReduceOp.OVERWRITE),), ops_per_node=2,
                bytes_per_node=24)

        total, stats = timer.finish()
        values = {"betweenness": dg.gather("bc_acc")}
    return AlgorithmResult(name="betweenness", iterations=iterations,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values,
                           extra={"num_sources": len(sources)})
