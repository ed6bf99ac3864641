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

from functools import partial

import numpy as np

from ..core.engine import DistributedGraph, LocalView
from ..core.job import EdgeMapJob, MapReduce, NodeKernelJob
from ..core.properties import ReduceOp
from ..core.tasks import EdgeMapSpec
from .common import AlgorithmResult, IterationTimer, program, scratch


def _power_iteration(dg: DistributedGraph, name: str, x: str, x0, direction,
                     update, update_cost: tuple[float, float],
                     max_iterations: int, tolerance: float):
    """Exact power iteration over columns ``x`` (starting at ``x0``) and
    ``x + "_nxt"``, which alternate as input and output.

    An iteration is two regions.  The edge region sums ``x/outdeg`` of the
    neighbors into ``x + "_acc"`` and reduces the input's dangling mass on
    its barrier.  The node region writes ``update(d_mass)(view, lo, hi,
    acc)`` into the output, prepares the next iteration's sources and
    accumulator in the same pass (except in the last iteration) and
    reduces the L1 delta on its barrier.  ``update_cost`` is the update's
    ``(ops_per_node, bytes_per_node)``; preparing adds ``(4, 24)``.
    """
    tmp, acc, overwrite = x + "_tmp", x + "_acc", ReduceOp.OVERWRITE
    other = {x: x + "_nxt", x + "_nxt": x}

    def prepare(view: LocalView, lo: int, hi: int, cur: str) -> None:
        outdeg = view.out_degrees()[lo:hi]
        pr = view[cur][lo:hi]
        view[tmp][lo:hi] = np.where(outdeg > 0, pr / np.maximum(outdeg, 1.0), 0.0)
        view[acc][lo:hi] = 0.0

    def dangling_mass(cur: str) -> MapReduce:
        return MapReduce(lambda v: float(v[cur][v.out_degrees() == 0].sum()))

    edge_jobs = {cur: EdgeMapJob(
        name=f"{x}_{direction}", reduce=dangling_mass(cur),
        spec=EdgeMapSpec(direction=direction, source=tmp, target=acc,
                         op=ReduceOp.SUM)) for cur in other}

    with scratch(dg) as add:
        add(x, from_global=x0)
        for col in (other[x], tmp, acc):
            add(col, init=0.0)
        timer = IterationTimer(dg.cluster)
        cur, steps = x, []
        if max_iterations > 0:
            steps.append((yield NodeKernelJob(
                name=f"{x}_prepare", kernel=partial(prepare, cur=x),
                writes=((tmp, overwrite), (acc, overwrite)),
                ops_per_node=4, bytes_per_node=24)))
        for k in range(max_iterations):
            nxt, last = other[cur], k == max_iterations - 1
            steps.append((yield edge_jobs[cur]))
            finalize = update(steps[-1].reduced)

            def kernel(view: LocalView, lo: int, hi: int, nxt=nxt,
                       finalize=finalize, last=last) -> None:
                view[nxt][lo:hi] = finalize(view, lo, hi, view[acc][lo:hi])
                if not last:
                    prepare(view, lo, hi, nxt)

            job, cols, (ops, nbytes) = f"{x}_finalize", (nxt,), update_cost
            if not last:
                job, cols = job + "_prepare", (nxt, tmp, acc)
                ops, nbytes = ops + 4, nbytes + 24
            steps.append((yield NodeKernelJob(
                name=job, kernel=kernel,
                writes=tuple((c, overwrite) for c in cols),
                ops_per_node=ops, bytes_per_node=nbytes,
                reduce=MapReduce(lambda v, nxt=nxt, cur=cur: float(
                    np.abs(v[nxt] - v[cur]).sum())))))
            delta = steps[-1].reduced
            timer.iteration_done(*steps)
            cur, steps = nxt, []
            if tolerance > 0 and delta < tolerance:
                break
        total, stats = timer.finish()
        values = {x: dg.gather(cur)}
    return AlgorithmResult(name=name, iterations=len(timer.per_iteration),
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values)


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

    def update(d_mass: float):
        base = (1.0 - damping) / n + damping * d_mass / n
        return lambda view, lo, hi, acc: base + damping * acc

    return (yield from _power_iteration(
        dg, f"pagerank_{variant}", "pr", np.full(n, 1.0 / n), variant,
        update, (3, 16), max_iterations, tolerance))


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

    def update(d_mass: float):
        def finalize(view: LocalView, lo: int, hi: int, acc):
            tp = view["teleport"][lo:hi]
            return (1.0 - damping) * tp + damping * (acc + d_mass * tp)
        return finalize

    with scratch(dg) as add:
        add("teleport", from_global=teleport)
        return (yield from _power_iteration(
            dg, "personalized_pagerank", "ppr", teleport, "pull", update,
            (5, 32), max_iterations, tolerance))


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

    def active_dangling_mass(view: LocalView) -> float:
        mask = view["active"] & (view.out_degrees() == 0)
        return float(view["delta"][mask].sum())

    # Dangling nodes have no out-edges to push along; their delta mass,
    # reduced on the prepare region's barrier, is redistributed uniformly,
    # matching the exact variant.
    prep_job = NodeKernelJob(name="apr_prepare", kernel=prepare,
                             reads=("delta", "active"),
                             writes=(("delta_tmp", ReduceOp.OVERWRITE),
                                     ("delta_nxt", ReduceOp.OVERWRITE)),
                             ops_per_node=5, bytes_per_node=40,
                             reduce=MapReduce(active_dangling_mass))
    count_active = MapReduce(lambda v: int(v["active"].sum()))

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
            s1 = yield prep_job
            extra = damping * s1.reduced / n

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
                                       ops_per_node=6, bytes_per_node=48,
                                       reduce=count_active)
            s2 = yield push_job
            s3 = yield absorb_job
            active_trace.append(int(s3.reduced))
            timer.iteration_done(s1, s2, s3)
        total, stats = timer.finish()
        values = {"pr": dg.gather("apr")}
    return AlgorithmResult(name="pagerank_approx",
                           iterations=len(active_trace) - 1,
                           total_time=total, per_iteration=timer.per_iteration,
                           stats=stats, values=values,
                           extra={"active_trace": active_trace})
