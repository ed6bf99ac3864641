"""PageRank on PGX.D — the paper's flagship workload (Section 5.2).

Three variants, exactly as evaluated in Table 3:

* **pull** (exact): every node reads ``PR/degree`` from its in-neighbors —
  the natural formulation, only expressible on PGX.D, and faster because the
  reduce into the reader's own node needs no atomics;
* **push** (exact): every node adds ``PR/degree`` into its out-neighbors —
  the formulation conventional frameworks force, paying atomic additions;
* **approx**: delta propagation with vertex deactivation — nodes whose delta
  falls below a threshold drop out of the computation.

Dangling nodes (out-degree 0) redistribute their mass uniformly so results
match the reference definition (and networkx) exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


@program
def pagerank(dg: DistributedGraph, variant: str = "pull",
             damping: float = 0.85, max_iterations: int = 10,
             tolerance: float = 0.0):
    """Exact PageRank via power iteration.

    ``variant`` selects the communication pattern ("pull" or "push");
    ``tolerance`` > 0 enables early exit on the L1 delta.
    """
    if variant not in ("pull", "push"):
        raise ValueError(f"variant must be 'pull' or 'push', got {variant!r}")
    n = dg.num_nodes

    def prepare(view: LocalView, lo: int, hi: int) -> None:
        outdeg = view.out_degrees()[lo:hi]
        pr = view["pr"][lo:hi]
        view["pr_tmp"][lo:hi] = np.where(outdeg > 0, pr / np.maximum(outdeg, 1.0), 0.0)
        view["pr_nxt"][lo:hi] = 0.0

    edge_job = EdgeMapJob(
        name=f"pr_{variant}",
        spec=EdgeMapSpec(direction=variant, source="pr_tmp", target="pr_nxt",
                         op=ReduceOp.SUM))
    prep_job = NodeKernelJob(name="pr_prepare", kernel=prepare,
                             reads=("pr",), writes=(("pr_tmp", ReduceOp.OVERWRITE),
                                                    ("pr_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=4, bytes_per_node=24)

    def dangling_mass(view: LocalView) -> float:
        outdeg = view.out_degrees()
        return float(view["pr"][outdeg == 0].sum())

    def swap(view: LocalView, lo: int, hi: int) -> None:
        view["pr"][lo:hi] = view["pr_nxt"][lo:hi]

    with scratch(dg) as add:
        add("pr", init=1.0 / n)
        add("pr_tmp", init=0.0)
        add("pr_nxt", init=0.0)
        timer = IterationTimer(dg.cluster)
        for _ in range(max_iterations):
            d_mass = yield MapReduce(dangling_mass)
            s1 = yield prep_job
            s2 = yield edge_job
            base = (1.0 - damping) / n + damping * d_mass / n

            def finalize(view: LocalView, lo: int, hi: int, base=base) -> None:
                view["pr_nxt"][lo:hi] = base + damping * view["pr_nxt"][lo:hi]

            s3 = yield NodeKernelJob(
                name="pr_finalize", kernel=finalize,
                writes=(("pr_nxt", ReduceOp.OVERWRITE),), ops_per_node=3,
                bytes_per_node=16)
            delta = yield MapReduce(
                lambda v: float(np.abs(v["pr_nxt"] - v["pr"]).sum()))
            s4 = yield NodeKernelJob(
                name="pr_swap", kernel=swap,
                writes=(("pr", ReduceOp.OVERWRITE),), ops_per_node=1,
                bytes_per_node=16)
            timer.iteration_done(s1, s2, s3, s4)
            if tolerance > 0 and delta < tolerance:
                break
        total, stats = timer.finish()
        values = {"pr": dg.gather("pr")}
    return AlgorithmResult(name=f"pagerank_{variant}",
                           iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values)


@program
def personalized_pagerank(dg: DistributedGraph, sources,
                          damping: float = 0.85, max_iterations: int = 20,
                          tolerance: float = 0.0):
    """Personalized PageRank: teleport mass returns to ``sources`` only.

    A natural extension of the engine's PageRank (the PGX product ships it);
    the random surfer restarts at the given source set instead of uniformly,
    ranking vertices by proximity to the sources.
    """
    n = dg.num_nodes
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        raise ValueError("personalized_pagerank needs at least one source")
    teleport = np.zeros(n)
    teleport[sources] = 1.0 / sources.size

    def prepare(view: LocalView, lo: int, hi: int) -> None:
        outdeg = view.out_degrees()[lo:hi]
        pr = view["ppr"][lo:hi]
        view["ppr_tmp"][lo:hi] = np.where(outdeg > 0,
                                          pr / np.maximum(outdeg, 1.0), 0.0)
        view["ppr_nxt"][lo:hi] = 0.0

    prep_job = NodeKernelJob(name="ppr_prepare", kernel=prepare,
                             reads=("ppr",),
                             writes=(("ppr_tmp", ReduceOp.OVERWRITE),
                                     ("ppr_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=4, bytes_per_node=24)
    edge_job = EdgeMapJob(name="ppr_pull", spec=EdgeMapSpec(
        direction="pull", source="ppr_tmp", target="ppr_nxt",
        op=ReduceOp.SUM))

    def swap(view: LocalView, lo: int, hi: int) -> None:
        view["ppr"][lo:hi] = view["ppr_nxt"][lo:hi]

    with scratch(dg) as add:
        add("ppr", from_global=teleport.copy())
        add("ppr_tmp", init=0.0)
        add("ppr_nxt", init=0.0)
        add("teleport", from_global=teleport)
        timer = IterationTimer(dg.cluster)
        for _ in range(max_iterations):
            d_mass = yield MapReduce(
                lambda v: float(v["ppr"][v.out_degrees() == 0].sum()))
            s1 = yield prep_job
            s2 = yield edge_job

            def finalize(view: LocalView, lo: int, hi: int,
                         d_mass=d_mass) -> None:
                tp = view["teleport"][lo:hi]
                view["ppr_nxt"][lo:hi] = (
                    (1.0 - damping) * tp
                    + damping * (view["ppr_nxt"][lo:hi] + d_mass * tp))

            s3 = yield NodeKernelJob(
                name="ppr_finalize", kernel=finalize, reads=("teleport",),
                writes=(("ppr_nxt", ReduceOp.OVERWRITE),), ops_per_node=5,
                bytes_per_node=32)
            delta = yield MapReduce(
                lambda v: float(np.abs(v["ppr_nxt"] - v["ppr"]).sum()))
            s4 = yield NodeKernelJob(
                name="ppr_swap", kernel=swap,
                writes=(("ppr", ReduceOp.OVERWRITE),), ops_per_node=1,
                bytes_per_node=16)
            timer.iteration_done(s1, s2, s3, s4)
            if tolerance > 0 and delta < tolerance:
                break
        total, stats = timer.finish()
        values = {"ppr": dg.gather("ppr")}
    return AlgorithmResult(name="personalized_pagerank",
                           iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values)


@program
def pagerank_approx(dg: DistributedGraph, damping: float = 0.85,
                    threshold: float = 1e-4, max_iterations: int = 50,
                    start=None):
    """Approximate PageRank with delta propagation and deactivation.

    Matches the paper's listing: each iteration pushes ``delta/degree`` from
    *active* nodes only, and a node deactivates when its incoming delta drops
    below ``threshold`` in magnitude.  Work and traffic shrink as nodes
    converge.  ``start`` warm-starts from ``(pr, delta, active)`` global
    arrays instead of the uniform cold start; a warm delta may be negative
    (mass leaving a region after a deletion) and keeps propagating.  The
    run stops as soon as no node is active, which may be before the first
    iteration.  ``extra["active_trace"]`` holds the active count entering
    each iteration, then the final one.
    """
    n = dg.num_nodes
    if start is None:
        init = np.full(n, (1.0 - damping) / n)
        start = (init, init, np.ones(n, dtype=bool))
    pr0, delta0, active0 = start

    push_job = EdgeMapJob(
        name="apr_push",
        spec=EdgeMapSpec(direction="push", source="delta_tmp",
                         target="delta_nxt", op=ReduceOp.SUM, active="active"))

    def prepare(view: LocalView, lo: int, hi: int) -> None:
        outdeg = view.out_degrees()[lo:hi]
        delta = view["delta"][lo:hi]
        act = view["active"][lo:hi]
        view["delta_tmp"][lo:hi] = np.where(
            act & (outdeg > 0), damping * delta / np.maximum(outdeg, 1.0), 0.0)
        view["delta_nxt"][lo:hi] = 0.0

    prep_job = NodeKernelJob(name="apr_prepare", kernel=prepare,
                             reads=("delta", "active"),
                             writes=(("delta_tmp", ReduceOp.OVERWRITE),
                                     ("delta_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=5, bytes_per_node=40)

    def active_dangling_mass(view: LocalView) -> float:
        mask = view["active"] & (view.out_degrees() == 0)
        return float(view["delta"][mask].sum())

    with scratch(dg) as add:
        add("apr", from_global=pr0)
        add("delta", from_global=delta0)
        add("delta_tmp", init=0.0)
        add("delta_nxt", init=0.0)
        add("active", dtype=np.bool_, from_global=active0)
        timer = IterationTimer(dg.cluster)
        active_trace = [int(active0.sum())]
        for _ in range(max_iterations):
            if active_trace[-1] == 0:
                break
            # Dangling nodes have no out-edges to push along; their delta
            # mass is redistributed uniformly, matching the exact variant.
            d_mass = yield MapReduce(active_dangling_mass)
            extra = damping * d_mass / n

            def absorb(view: LocalView, lo: int, hi: int, extra=extra) -> None:
                dn = view["delta_nxt"][lo:hi] + extra
                view["apr"][lo:hi] += dn
                view["delta"][lo:hi] = dn
                # Deactivate converged nodes; reactivate on fresh delta.
                view["active"][lo:hi] = np.abs(dn) >= threshold

            absorb_job = NodeKernelJob(name="apr_absorb", kernel=absorb,
                                       reads=("delta_nxt",),
                                       writes=(("apr", ReduceOp.OVERWRITE),
                                               ("delta", ReduceOp.OVERWRITE),
                                               ("active", ReduceOp.OVERWRITE)),
                                       ops_per_node=6, bytes_per_node=48)
            s1 = yield prep_job
            s2 = yield push_job
            s3 = yield absorb_job
            active_trace.append(int((yield MapReduce(
                lambda v: int(v["active"].sum())))))
            timer.iteration_done(s1, s2, s3)
        total, stats = timer.finish()
        values = {"pr": dg.gather("apr")}
    return AlgorithmResult(name="pagerank_approx",
                           iterations=len(active_trace) - 1,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values,
                           extra={"active_trace": active_trace})
