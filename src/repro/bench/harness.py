"""Experiment harness: run any Table 2 algorithm on any of the four systems
and print paper-style tables.

All times are *simulated seconds*; tables additionally show the paper-scale
equivalent (``sim / scale``), which is directly comparable to the numbers in
the paper's Table 3 (see ``repro.bench.calibration`` for why that conversion
is exact for the ratio structure).

Environment knobs for the benchmark suite:

* ``REPRO_SCALE``   — graph scale factor (default 1/2000);
* ``REPRO_MACHINES``— comma list of machine counts (default "2,8,32");
* ``REPRO_FULL=1``  — paper-complete sweep (all machine counts 1..32,
  both graphs everywhere); slower.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .. import algorithms as alg
from ..baselines import (DataflowEngine, Eigenvector, GasEngine, HopDist,
                         KCoreMax, PageRankApprox, PageRankPush,
                         SingleMachine, Sssp, Wcc)
from ..core.engine import PgxdCluster
from ..graph.generators import paper_graph
from .calibration import (scaled_cluster_config, scaled_dataflow_config,
                          scaled_gas_config, scaled_machine_config,
                          to_paper_scale)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", 1.0 / 2000.0))


def bench_machines() -> list[int]:
    if os.environ.get("REPRO_FULL"):
        return [1, 2, 4, 8, 16, 32]
    raw = os.environ.get("REPRO_MACHINES", "2,8,32")
    return [int(x) for x in raw.split(",")]


@dataclass
class Row:
    """One experiment outcome."""

    system: str
    machines: int
    algorithm: str
    graph: str
    seconds: float              # simulated seconds (total or per-iteration)
    per_iteration: bool
    iterations: int = 0
    extra: dict = field(default_factory=dict)

    def paper_equiv(self, scale: float) -> float:
        return to_paper_scale(self.seconds, scale)


# ---------------------------------------------------------------------------
# Per-system runners
# ---------------------------------------------------------------------------

#: Iterations used for the per-iteration algorithms (PR exact / EV).
FIXED_ITERS = 3
APPROX_THRESHOLD = 1e-4
APPROX_MAX_ITERS = 30


def run_pgx(graph, graph_name: str, algorithm: str, machines: int,
            scale: float, cluster: Optional[PgxdCluster] = None,
            **engine_overrides) -> Row:
    """Run one algorithm on the PGX.D engine.

    Pass an existing ``cluster`` to observe the run from outside (attach a
    :class:`repro.obs.profiler.SpanProfiler`, read ``cluster.metrics``
    afterwards);
    ``engine_overrides`` are ignored in that case.  The cluster used is
    always available as ``row.extra["cluster"]``.
    """
    if cluster is None:
        cluster = PgxdCluster(scaled_cluster_config(machines, scale,
                                                    **engine_overrides))
    dg = cluster.load_graph(graph)
    if algorithm == "pr_pull":
        r = alg.pagerank(cluster, dg, "pull", max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "pr_push":
        r = alg.pagerank(cluster, dg, "push", max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "pr_approx":
        r = alg.pagerank_approx(cluster, dg, threshold=APPROX_THRESHOLD,
                                max_iterations=APPROX_MAX_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "wcc":
        r = alg.wcc(cluster, dg)
        secs, per_iter = r.total_time, False
    elif algorithm == "sssp":
        r = alg.sssp(cluster, dg, root=0)
        secs, per_iter = r.total_time, False
    elif algorithm == "hop_dist":
        r = alg.hop_dist(cluster, dg, root=0)
        secs, per_iter = r.total_time, False
    elif algorithm == "ev":
        r = alg.eigenvector(cluster, dg, max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "kcore":
        r = alg.kcore_max(cluster, dg)
        secs, per_iter = r.total_time, False
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return Row("PGX", machines, algorithm, graph_name, secs, per_iter,
               iterations=r.iterations,
               extra={"stats": r.stats, "result": r, "cluster": cluster})


def run_sa(graph, graph_name: str, algorithm: str, scale: float) -> Row:
    sa = SingleMachine(graph, config=scaled_machine_config(scale))
    if algorithm == "pr_pull":
        r = sa.pagerank("pull", max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "pr_push":
        r = sa.pagerank("push", max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "pr_approx":
        r = sa.pagerank_approx(threshold=APPROX_THRESHOLD,
                               max_iterations=APPROX_MAX_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "wcc":
        r = sa.wcc()
        secs, per_iter = r.total_time, False
    elif algorithm == "sssp":
        r = sa.sssp(0)
        secs, per_iter = r.total_time, False
    elif algorithm == "hop_dist":
        r = sa.hop_dist(0)
        secs, per_iter = r.total_time, False
    elif algorithm == "ev":
        r = sa.eigenvector(max_iterations=FIXED_ITERS)
        secs, per_iter = r.time_per_iteration, True
    elif algorithm == "kcore":
        r = sa.kcore_max()
        secs, per_iter = r.total_time, False
    else:
        raise ValueError(algorithm)
    return Row("SA", 1, algorithm, graph_name, secs, per_iter,
               iterations=r.iterations)


def _baseline_program(algorithm: str):
    if algorithm == "pr_push":
        return PageRankPush(max_iterations=FIXED_ITERS), True
    if algorithm == "pr_approx":
        return PageRankApprox(threshold=APPROX_THRESHOLD,
                              max_iterations=APPROX_MAX_ITERS), True
    if algorithm == "wcc":
        return Wcc(), False
    if algorithm == "sssp":
        return Sssp(0), False
    if algorithm == "hop_dist":
        return HopDist(0), False
    if algorithm == "ev":
        return Eigenvector(max_iterations=FIXED_ITERS), True
    if algorithm == "kcore":
        return KCoreMax(), False
    if algorithm == "pr_pull":
        return None, True  # data pulling unsupported on push-only systems
    raise ValueError(algorithm)


def run_gl(graph, graph_name: str, algorithm: str, machines: int,
           scale: float) -> Optional[Row]:
    prog, per_iter = _baseline_program(algorithm)
    if prog is None:
        return None
    engine = GasEngine(graph, machines, config=scaled_gas_config(scale),
                       machine=scaled_machine_config(scale))
    r = engine.run(prog)
    secs = r.time_per_superstep if per_iter else r.total_time
    return Row("GL", machines, algorithm, graph_name, secs, per_iter,
               iterations=r.supersteps)


def run_gx(graph, graph_name: str, algorithm: str, machines: int,
           scale: float) -> Optional[Row]:
    prog, per_iter = _baseline_program(algorithm)
    if prog is None or algorithm == "kcore":
        # The paper could not finish KCore on GraphX at all ("n/a").
        return None
    engine = DataflowEngine(graph, machines, config=scaled_dataflow_config(scale),
                            machine=scaled_machine_config(scale))
    r = engine.run(prog)
    secs = r.time_per_superstep if per_iter else r.total_time
    return Row("GX", machines, algorithm, graph_name, secs, per_iter,
               iterations=r.supersteps)


def load_bench_graph(name: str, scale: float, weighted: bool = False):
    return paper_graph(name, scale=scale, weighted=weighted)


# ---------------------------------------------------------------------------
# Table printing
# ---------------------------------------------------------------------------


def format_table(title: str, headers: list[str], rows: list[list[str]],
                 note: str = "") -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    out = [f"\n=== {title} ==="]
    if note:
        out.append(note)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for r in rows:
        out.append(" | ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def fmt_secs(seconds: Optional[float], scale: float) -> str:
    """Render as paper-scale-equivalent seconds (the comparable unit)."""
    if seconds is None:
        return "n/a"
    return f"{to_paper_scale(seconds, scale):.3g}"
