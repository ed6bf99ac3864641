"""Benchmarks for the Section 6 extension subsystems.

Not figures from the paper, but measurements of the future-work systems the
paper sketches — the questions it raises are answerable here:

* **pattern matching**: how match-context communication grows with pattern
  size (the Section 6.2 partial-solution concern, quantified);
* **DSL overhead**: the compiled declarative layer must match the
  hand-written jobs (the paper claims compiler-generated code gives "almost
  the same performance" — Section 4.3);
* **async vs sync GAS**: the comparison the paper mentions making before
  choosing the synchronous GraphLab engine.
"""

from __future__ import annotations

import pytest

from repro import PgxdCluster, ReduceOp, rmat
from repro.algorithms import pagerank
from repro.baselines import GasEngine, PageRankPush
from repro.bench import (bench_scale, format_table, scaled_cluster_config,
                         scaled_gas_config)
from repro.dsl import NBR, N, Procedure
from repro.patterns import PatternMatcher, path_pattern, triangle_pattern
from conftest import cached_graph


def test_pattern_context_growth(benchmark, capsys):
    """Match-context volume and shipped bytes vs pattern size."""
    g = rmat(3000, 18000, seed=6, dedup=True)
    scale = bench_scale()
    data = {}

    def run():
        rows = []
        for name, pattern in [("edge", path_pattern(1)),
                              ("path-2", path_pattern(2)),
                              ("path-3", path_pattern(3)),
                              ("triangle", triangle_pattern())]:
            cluster = PgxdCluster(scaled_cluster_config(4, scale))
            dg = cluster.load_graph(g)
            res = PatternMatcher(cluster, dg, max_contexts=50_000_000) \
                .find(pattern)
            rows.append((name, res.num_matches, res.contexts_materialized,
                         res.bytes_shipped))
        data["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = data["rows"]
    with capsys.disabled():
        print(format_table(
            "Extension — match-context growth (3k-node RMAT, 4 machines)",
            ["pattern", "matches", "contexts", "bytes shipped"],
            [[n, str(m), str(c), f"{b / 1e6:.2f} MB"] for n, m, c, b in rows]))
    # The Section 6.2 explosion: contexts and traffic grow superlinearly
    # with the path length.
    contexts = [c for _, _, c, _ in rows[:3]]
    assert contexts[1] > 2 * contexts[0]
    assert contexts[2] > 2 * contexts[1]
    # Triangles prune hard: far fewer matches than the open path of the
    # same edge count.
    assert rows[3][1] < rows[1][1]


def test_dsl_overhead(benchmark, capsys):
    """The DSL-compiled PageRank step must cost the same simulated time as
    the hand-written jobs (paper Section 4.3: compiler-generated code gives
    almost the same performance)."""
    scale = bench_scale()
    g = cached_graph("TWT")
    data = {}

    def run():
        # Hand-written implementation.
        cluster = PgxdCluster(scaled_cluster_config(8, scale))
        dg = cluster.load_graph(g)
        hand = pagerank(cluster, dg, "pull", max_iterations=3)

        # DSL-compiled equivalent of the two per-iteration parallel regions.
        cluster2 = PgxdCluster(scaled_cluster_config(8, scale))
        dg2 = cluster2.load_graph(g)
        dg2.add_property("pr", init=1.0 / g.num_nodes)
        step = Procedure("pr")
        step.foreach_nodes(contrib=N("pr") / N("out_degree"), acc=0.0)
        step.foreach_in_nbrs("acc", ReduceOp.SUM, NBR("contrib"))
        jobs = step.compile(dg2)
        t0 = cluster2.now
        for _ in range(3):
            for job in jobs:
                cluster2.run_job(dg2, job)
        dsl_time = (cluster2.now - t0) / 3
        # Compare against the same two regions of the hand-written loop:
        # its prepare region (later iterations fuse it into the finalize)
        # and its mean gather.
        pulls = [st.elapsed for name, st in cluster.job_log
                 if name == "pr_pull"]
        prepare = next(st.elapsed for name, st in cluster.job_log
                       if name == "pr_prepare")
        hand_time = prepare + sum(pulls) / len(pulls)
        data["hand"], data["dsl"] = hand_time, dsl_time

    benchmark.pedantic(run, rounds=1, iterations=1)
    hand, dsl = data["hand"], data["dsl"]
    with capsys.disabled():
        print(format_table(
            "Extension — DSL vs hand-written PageRank step (TWT', 8 machines)",
            ["implementation", "time/iter (s sim)"],
            [["hand-written", f"{hand:.4e}"], ["DSL-compiled", f"{dsl:.4e}"]]))
    assert dsl == pytest.approx(hand, rel=0.05)


def test_async_vs_sync_gas(benchmark, capsys):
    """The engine-mode comparison behind the paper's methodology note."""
    scale = bench_scale()
    g = cached_graph("TWT")
    data = {}

    def run():
        rows = []
        for machines in (2, 8, 32):
            sync = GasEngine(g, machines, config=scaled_gas_config(scale),
                             mode="sync").run(PageRankPush(max_iterations=3))
            asyn = GasEngine(g, machines, config=scaled_gas_config(scale),
                             mode="async").run(PageRankPush(max_iterations=3))
            rows.append((machines, sync.time_per_superstep,
                         asyn.time_per_superstep))
        data["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = data["rows"]
    with capsys.disabled():
        print(format_table(
            "Extension — GraphLab-like engine: sync vs async (PR-push, TWT')",
            ["machines", "sync (s sim)", "async (s sim)", "async/sync"],
            [[str(m), f"{s:.3e}", f"{a:.3e}", f"{a / s:.2f}"]
             for m, s, a in rows]))
    for _, s, a in rows:
        assert a > s  # sync consistently faster, as the paper found
