"""Command-line interface: run algorithms and experiments from the shell.

Examples::

    python -m repro info --graph TWT --scale 0.001
    python -m repro run --algorithm pr_pull --graph TWT --machines 8
    python -m repro run --algorithm sssp --graph WEB --machines 4 --scale 5e-4
    python -m repro run --algorithm pr_pull --graph LJ --metrics-out out/pr
    python -m repro report --algo pagerank --graph TWT --machines 8
    python -m repro compare --algorithm pr_push --graph TWT --machines 2,8,32
    python -m repro generate --graph LJ --scale 1e-3 --format binary --out lj.bin
    python -m repro chaos --graph LJ --scale 1e-4 --machines 2 --seed 7
    python -m repro audit --graph LJ --scale 1e-4 --machines 4 --schedules 5
    python -m repro profile --graph LJ --scale 1e-4 --machines 4 --top 5
    python -m repro report --algo pagerank --graph LJ --profile
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench.calibration import scaled_cluster_config, to_paper_scale
from .bench.harness import run_gl, run_gx, run_pgx, run_sa
from .core.engine import PgxdCluster
from .graph.generators import PAPER_GRAPHS, paper_graph
from .graph.io import save_binary, save_edge_list

ALGORITHMS = ["pr_pull", "pr_push", "pr_approx", "wcc", "sssp", "hop_dist",
              "ev", "kcore"]
#: friendly names accepted by ``repro report --algo``
ALGO_ALIASES = {"pagerank": "pr_pull"}


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default="TWT", choices=sorted(PAPER_GRAPHS),
                   help="paper dataset stand-in to generate")
    p.add_argument("--scale", type=float, default=1e-3,
                   help="scale factor vs. the paper's dataset size")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-out", default=None, metavar="PREFIX",
                   help="write PREFIX.prom (Prometheus text) and "
                        "PREFIX.json (snapshot) after the run")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON timeline to PATH")


def _load(args) -> tuple:
    weighted = getattr(args, "algorithm", "") == "sssp"
    g = paper_graph(args.graph, scale=args.scale, weighted=weighted)
    return g


def cmd_info(args) -> int:
    from .graph.partition import edge_partition
    from .graph.stats import degree_stats, partition_stats

    g = _load(args)
    spec = PAPER_GRAPHS[args.graph]
    st = degree_stats(g.total_degrees())
    print(f"{args.graph} at scale {args.scale:g} "
          f"(paper: {spec.paper_nodes:,} nodes / {spec.paper_edges:,} edges)")
    print(f"  nodes: {g.num_nodes:,}")
    print(f"  edges: {g.num_edges:,}")
    print(f"  degree: mean {st.mean:.1f}, median {st.median:.0f}, "
          f"p99 {st.p99:.0f}, max {st.maximum}")
    print(f"  skew: gini {st.gini:.2f}; top 1% of nodes hold "
          f"{st.top1pct_share:.0%} of edges")
    ps = partition_stats(g, edge_partition(g, 8))
    print(f"  8-way edge partitioning: imbalance {ps.imbalance:.2f}x, "
          f"{ps.crossing_fraction:.0%} crossing edges")
    return 0


def _observed_run(args, algorithm: str):
    """Run ``algorithm`` on a cluster we own, with a span profiler installed
    when ``--trace-out`` or ``--profile`` asks for one.

    Returns ``(row, cluster, profiler)``.
    """
    g = paper_graph(args.graph, scale=args.scale,
                    weighted=algorithm == "sssp")
    overrides = {}
    if getattr(args, "ghost_threshold", None) is not None:
        overrides["ghost_threshold"] = args.ghost_threshold
    cluster = PgxdCluster(scaled_cluster_config(args.machines, args.scale,
                                                **overrides))
    profiler = None
    if args.trace_out or getattr(args, "profile", False):
        from .obs.profiler import SpanProfiler

        profiler = SpanProfiler(cluster)
        profiler.install()
    try:
        row = run_pgx(g, args.graph, algorithm, args.machines, args.scale,
                      cluster=cluster)
    finally:
        if profiler is not None:
            profiler.uninstall()
    return row, cluster, profiler


def _export_obs(args, cluster, profiler) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` artifacts, if requested."""
    if args.metrics_out:
        from .obs.exporters import write_metrics

        prom_path, json_path = write_metrics(cluster.metrics, args.metrics_out)
        print(f"  metrics: {prom_path} + {json_path}")
    if args.trace_out:
        n = profiler.save(args.trace_out)
        print(f"  trace: {args.trace_out} ({n} events)")


def cmd_run(args) -> int:
    row, cluster, profiler = _observed_run(args, args.algorithm)
    unit = "per iteration" if row.per_iteration else "total"
    print(f"PGX.D | {args.algorithm} on {args.graph} "
          f"(scale {args.scale:g}, {args.machines} machines)")
    print(f"  simulated time ({unit}): {row.seconds:.6f} s")
    print(f"  paper-scale equivalent:  {to_paper_scale(row.seconds, args.scale):.3f} s")
    print(f"  iterations: {row.iterations}")
    stats = row.extra.get("stats")
    if stats is not None:
        print(f"  traffic: {stats.total_bytes / 1e6:.2f} MB in "
              f"{stats.messages} messages")
        print(f"  remote reads: {stats.remote_reads:,}  "
              f"remote writes: {stats.remote_writes:,}  "
              f"atomics: {stats.atomic_ops:,}")
    _export_obs(args, cluster, profiler)
    return 0


def cmd_report(args) -> int:
    import time as _time

    from .obs.report import render_overhead_report

    algorithm = ALGO_ALIASES.get(args.algo, args.algo)
    t0 = _time.perf_counter()
    row, cluster, profiler = _observed_run(args, algorithm)
    host_elapsed = _time.perf_counter() - t0
    title = (f"{args.algo} on {args.graph} "
             f"(scale {args.scale:g}, {args.machines} machines)")
    print(render_overhead_report(
        cluster.metrics, title=title, elapsed=cluster.now,
        profile=profiler if args.profile else None,
        host_elapsed=host_elapsed))
    _export_obs(args, cluster, profiler)
    return 0


def cmd_compare(args) -> int:
    g = _load(args)
    machines = [int(x) for x in args.machines.split(",")]
    print(f"{args.algorithm} on {args.graph} (scale {args.scale:g}); "
          f"paper-scale-equivalent seconds")
    sa = run_sa(g, args.graph, args.algorithm, args.scale)
    print(f"  {'SA':4s} m=1   {to_paper_scale(sa.seconds, args.scale):10.3f}")
    for m in machines:
        parts = [f"  {'PGX':4s} m={m:<4d}"]
        pgx = run_pgx(g, args.graph, args.algorithm, m, args.scale)
        parts.append(f"{to_paper_scale(pgx.seconds, args.scale):10.3f}")
        gl = run_gl(g, args.graph, args.algorithm, m, args.scale)
        gx = run_gx(g, args.graph, args.algorithm, m, args.scale)
        if gl:
            parts.append(f"  GL {to_paper_scale(gl.seconds, args.scale):10.3f}")
        if gx:
            parts.append(f"  GX {to_paper_scale(gx.seconds, args.scale):10.3f}")
        print("".join(parts))
    return 0


def cmd_chaos(args) -> int:
    """Run PageRank under each fault class; verify bit-identical results."""
    import os
    import tempfile

    import numpy as np

    from .algorithms.pagerank import pagerank
    from .core.faults import FaultPlan, MachineCrash, MachineSlowdown
    from .obs.report import fault_summary

    g = paper_graph(args.graph, scale=args.scale)

    def run(plan, ckpt=None):
        cfg = scaled_cluster_config(args.machines, args.scale)
        if args.out_of_core:
            # small windows (num_workers x chunk_size = 2048 edges) so
            # CLI-scale graphs stream through several activations per job
            # (results must stay bit-identical anyway)
            cfg = cfg.with_engine(out_of_core=True, chunk_size=max(
                1, 2048 // cfg.engine.num_workers))
        if plan is not None:
            cfg = cfg.with_fault_plan(plan)
        cluster = PgxdCluster(cfg)
        dg = cluster.load_graph(g)
        if ckpt is not None:
            cluster.enable_auto_checkpoint(dg, ckpt)
        res = pagerank(cluster, dg, max_iterations=args.iterations,
                       tolerance=0.0)
        return res.values["pr"], cluster

    base, base_cluster = run(None)
    elapsed = base_cluster.now
    s = args.seed
    scenarios = [
        ("drop+dup+delay",
         FaultPlan(seed=s, drop_prob=0.03, dup_prob=0.05, delay_prob=0.05),
         False),
        ("copier-stalls", FaultPlan(seed=s, copier_stall_prob=0.2), False),
        ("slowdown",
         FaultPlan(seed=s, slowdowns=(
             MachineSlowdown(machine=0, start=0.2 * elapsed,
                             duration=0.3 * elapsed, factor=3.0),)),
         False),
        ("crash+recover",
         FaultPlan(seed=s, crashes=(
             MachineCrash(machine=args.machines - 1, at=0.5 * elapsed),)),
         True),
    ]
    mode = " [out-of-core]" if args.out_of_core else ""
    print(f"chaos: pr_pull on {args.graph} (scale {args.scale:g}, "
          f"{args.machines} machines, seed {s}, "
          f"{args.iterations} iterations){mode}")
    print(f"  {'baseline':15s} elapsed {elapsed:.6f} s")
    failures = 0
    with tempfile.TemporaryDirectory() as td:
        for name, plan, use_ckpt in scenarios:
            ckpt = os.path.join(td, f"{name}.npz") if use_ckpt else None
            vals, cluster = run(plan, ckpt)
            fs = fault_summary(cluster.metrics)
            ok = np.array_equal(base, vals) and fs["faults_injected"] > 0
            if use_ckpt:
                ok = ok and fs["recoveries"] >= 1
            failures += 0 if ok else 1
            verdict = "bit-identical" if ok else "MISMATCH"
            print(f"  {name:15s} {verdict:13s} "
                  f"faults {fs['faults_injected']:.0f}  "
                  f"retries {fs['retries']:.0f}  "
                  f"dedup {fs['dedup_drops']:.0f}  "
                  f"recoveries {fs['recoveries']:.0f}")
    print("chaos: OK" if failures == 0
          else f"chaos: {failures} scenario(s) diverged")
    return 0 if failures == 0 else 1


def cmd_audit(args) -> int:
    """Run the determinism audit matrix and print/save the verdict."""
    import dataclasses
    import json

    from .audit.harness import AuditHarness, default_scenarios

    g = paper_graph(args.graph, scale=args.scale, weighted=True)
    cfg = scaled_cluster_config(args.machines, args.scale)
    harness = AuditHarness(g, cfg, schedules=args.schedules,
                           base_seed=args.seed, iterations=args.iterations)
    scenarios = default_scenarios()
    if args.out_of_core:
        # Force every positive cell of the matrix through the streamed
        # path.  The negative control stays in-memory: disk-serialized
        # window delivery makes response arrival order deterministic, so
        # a streamed control would not diverge even with arrival-order
        # staging — blinding the eyesight check it exists to provide.
        scenarios = [sc if sc.expect_divergence
                     else dataclasses.replace(sc, out_of_core=True)
                     for sc in scenarios]
    mode = " [out-of-core]" if args.out_of_core else ""
    print(f"audit: {args.graph} scale {args.scale:g} "
          f"({g.num_nodes:,} nodes, {g.num_edges:,} edges), "
          f"{args.machines} machines, {args.schedules} perturbed schedules, "
          f"seed {args.seed}{mode}")

    def progress(sc):
        runs = args.schedules + 1
        mode = "solo+2tenant" if sc.two_tenant else "solo"
        print(f"  running {sc.name:35s} [{mode}, {runs} schedules]...",
              flush=True)

    doc = harness.run(scenarios, progress=progress)
    print()
    for v in doc["scenarios"]:
        tag = ("caught-divergence" if v["expect_divergence"]
               and not v["bit_identical"] else
               "bit-identical" if v["bit_identical"] else "BIT-DIFF")
        verdict = "ok" if v["passed"] else "FAIL"
        print(f"  {v['name']:35s} {verdict:5s} {tag:17s} "
              f"violations {v['violations']}")
        for d in v["diffs"][:4]:
            print(f"      {d}")
    print()
    print("audit: PASS" if doc["passed"] else "audit: FAIL")
    if not doc["negative_control_flagged"]:
        print("audit: WARNING negative control did not diverge — the "
              "auditor may be blind to ordering bugs at this scale")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"audit: verdict written to {args.json_out}")
    return 0 if doc["passed"] else 1


def _serve_cache_trace(args) -> int:
    """Trace-driven load generator for the serving tier: seeded Zipf-skewed
    read traffic over a query pool with a trickle of mutations, served
    through the epoch-keyed result cache, reporting p50/p99 hit/miss
    latency from the cache histograms."""
    import numpy as np

    from .core.incremental import IncrementalEngine, hash_weights
    from .core.result_cache import zipf_weights
    from .core.scheduler import ReadRateLimitError, SchedulerConfig
    from .dynamic import DynamicGraph
    from .obs.report import cache_summary
    from .query import apply_spec, pool_specs
    from .server import PgxdServer

    cluster = PgxdCluster(scaled_cluster_config(args.machines, args.scale))
    server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
        max_concurrent_jobs=args.max_concurrent,
        read_rate_per_session=args.read_rate))
    server.enable_cache()
    cache = server.cache
    g = paper_graph(args.graph, scale=args.scale)
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.out_starts))
    dyn = DynamicGraph(g.num_nodes,
                       list(zip(src.tolist(), g.out_nbrs.tolist())))
    engine = IncrementalEngine(cluster, dyn,
                               weight_fn=hash_weights(seed=args.seed))
    reader = server.create_session("reader")
    reader.attach_graph("g", engine.pin())
    print(f"serve: cached read trace on {args.graph} "
          f"(scale {args.scale:g}, {args.machines} machines, "
          f"{args.reads} reads, Zipf s={args.zipf:g} over "
          f"{args.pool} queries, mutation every {args.mutate_every}, "
          f"seed {args.seed})")

    rng = np.random.default_rng(args.seed)
    specs = pool_specs(args.pool, seed=args.seed)
    choices = rng.choice(args.pool, size=args.reads,
                         p=zipf_weights(args.pool, args.zipf))
    rejected = epoch_bumps = 0
    for i, qi in enumerate(choices):
        if args.mutate_every and i and i % args.mutate_every == 0:
            dyn.add_edge(int(rng.integers(g.num_nodes)),
                         int(rng.integers(g.num_nodes)))
            existing = dyn.edge_list()
            dyn.remove_edge(*existing[int(rng.integers(len(existing)))])
            engine.mutate(session="mutator")
            reader.attach_graph("g", engine.pin())
            epoch_bumps += 1
        try:
            apply_spec(reader.query("g"), specs[qi])
        except ReadRateLimitError:
            rejected += 1

    cs = cache_summary(cluster.metrics)
    hist = cluster.metrics.get("repro_cache_read_seconds")
    hit_h = hist.labels(result="hit")
    miss_h = hist.labels(result="miss")
    print(f"reads: {args.reads} ({rejected} rate-limited); "
          f"mutations: {epoch_bumps} epoch bumps, "
          f"{cs['evictions']:.0f} evictions")
    print(f"cache: {cs['hits']:.0f} hits / {cs['misses']:.0f} misses "
          f"(hit rate {cs['hit_rate']:.1%}); "
          f"saved {cs['saved_seconds']:.6f} simulated s")
    p50h, p99h = hit_h.quantile(0.5), hit_h.quantile(0.99)
    p50m, p99m = miss_h.quantile(0.5), miss_h.quantile(0.99)
    mean_h = hit_h.sum / max(hit_h.count, 1)
    mean_m = miss_h.sum / max(miss_h.count, 1)
    print(f"latency (simulated): hit p50={p50h:.3g}s p99={p99h:.3g}s; "
          f"miss p50={p50m:.3g}s p99={p99m:.3g}s; "
          f"p50 speedup {p50m / max(p50h, 1e-12):.1f}x, "
          f"mean speedup {mean_m / max(mean_h, 1e-12):.1f}x")
    u = reader.usage
    print(f"reader usage: jobs={u.jobs_run} "
          f"seconds={u.simulated_seconds:.6f}")
    if args.metrics_out:
        from .obs.exporters import write_metrics

        prom_path, json_path = write_metrics(cluster.metrics,
                                             args.metrics_out)
        print(f"  metrics: {prom_path} + {json_path}")
    return 0


def cmd_serve(args) -> int:
    """Replay a synthetic multi-tenant trace through the job scheduler."""
    from .algorithms import pagerank, sssp
    from .core.scheduler import SchedulerConfig
    from .obs.report import scheduler_summary
    from .server import PgxdServer

    if args.cache:
        return _serve_cache_trace(args)
    cluster = PgxdCluster(scaled_cluster_config(args.machines, args.scale))
    server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
        max_concurrent_jobs=args.max_concurrent))
    g_plain = paper_graph(args.graph, scale=args.scale)
    g_weighted = paper_graph(args.graph, scale=args.scale, weighted=True)
    print(f"serve: {args.workload} trace on {args.graph} "
          f"(scale {args.scale:g}, {args.machines} machines, "
          f"{args.sessions} sessions x {args.jobs_per_session} units, "
          f"seed {args.seed})")
    for i in range(args.sessions):
        name = f"tenant{i}"
        s = server.create_session(name)
        # The skewed trace gives tenant0 a 4x-longer run — the hog the
        # fair-share check should flag; balanced gives everyone equal work.
        hog = args.workload == "skewed" and i == 0
        units = args.jobs_per_session * (4 if hog else 1)
        if i % 2 == 1:
            dg = s.load_graph("g", g_weighted)
            s.submit_program("g", sssp, root=args.seed % dg.num_nodes,
                             max_iterations=units)
        else:
            s.load_graph("g", g_plain)
            s.submit_program("g", pagerank, max_iterations=units)
    server.drain()
    log = server.scheduler.dispatch_log
    shown = log if len(log) <= 40 else log[:40]
    for idx, t, sess, jobname, prio, wait in shown:
        print(f"  [{idx:3d}] t={t:.6f} {sess:10s} {prio:6s} "
              f"wait={wait:.6f} {jobname}")
    if len(log) > len(shown):
        print(f"  ... {len(log) - len(shown)} more dispatches")
    print("per-session usage:")
    for nm in server.session_names():
        u = server.usage_report()[nm]
        print(f"  {nm:10s} jobs={u.jobs_run:3d} "
              f"seconds={u.simulated_seconds:.6f} "
              f"bytes={u.bytes_moved / 1e6:.2f}MB")
    print("fair-share deficits: " + ", ".join(
        f"{nm}={d:+.6f}" for nm, d in sorted(server.deficits().items())))
    over = server.over_fair_share()
    print(f"over fair share: {', '.join(over) if over else '(none)'}")
    ss = scheduler_summary(cluster.metrics)
    print(f"scheduler: {ss['admitted']:.0f} admitted, "
          f"{ss['dispatched']:.0f} dispatched, "
          f"{ss['preemptions']:.0f} preemptions, "
          f"{ss['completed']:.0f} completed")
    if args.metrics_out:
        from .obs.exporters import write_metrics

        prom_path, json_path = write_metrics(cluster.metrics,
                                             args.metrics_out)
        print(f"  metrics: {prom_path} + {json_path}")
    return 0


def cmd_mutate(args) -> int:
    """Trace incremental recompute over a mutating graph.

    Replays ``--rounds`` seeded mutation batches through the engine's
    MutationJob path, re-running SSSP/WCC/PageRank incrementally after
    each epoch and printing a per-epoch trace: machines patched vs
    reused, apply latency, and per-algorithm recompute footprint.
    """
    import numpy as np

    from .core.incremental import IncrementalEngine, hash_weights
    from .dynamic import DynamicGraph
    from .obs.report import incremental_summary

    g = paper_graph(args.graph, scale=args.scale)
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.out_starts))
    edges = list(zip(src.tolist(), g.out_nbrs.tolist()))
    cluster = PgxdCluster(scaled_cluster_config(args.machines, args.scale))
    dyn = DynamicGraph(g.num_nodes, edges)
    engine = IncrementalEngine(cluster, dyn,
                               weight_fn=hash_weights(seed=args.seed))
    applies = []
    cluster.hooks.subscribe("dynamic.apply", applies.append)
    rng = np.random.default_rng(args.seed)
    n = g.num_nodes

    print(f"mutate: {args.graph} scale {args.scale:g} "
          f"({n:,} nodes, {g.num_edges:,} edges), {args.machines} machines, "
          f"{args.rounds} epochs x {args.batch_size} edge changes, "
          f"seed {args.seed}")
    # Warm the per-algorithm state so every traced epoch is incremental.
    for algo in ("sssp", "wcc", "pagerank"):
        r = getattr(engine, algo)()
        print(f"  epoch 0  {algo:8s} {r.mode:11s} iters={r.iterations:3d} "
              f"recomputed={r.recomputed_vertices:6d}")
    for _ in range(args.rounds):
        existing = dyn.edge_list()
        half = args.batch_size // 2
        seen = set()
        for i in rng.choice(len(existing), size=min(half, len(existing)),
                            replace=False):
            e = existing[i]
            if e not in seen:
                seen.add(e)
                dyn.remove_edge(*e)
        for _ in range(args.batch_size - half):
            dyn.add_edge(int(rng.integers(n)), int(rng.integers(n)))
        engine.mutate()
        ev = applies[-1]
        print(f"  epoch {engine.epoch}  apply: +{ev['inserted']}/"
              f"-{ev['removed']} edges, machines "
              f"{ev['machines_patched']} patched / "
              f"{ev['machines_reused']} reused, "
              f"{ev['duration'] * 1e6:.1f} us")
        for algo in ("sssp", "wcc", "pagerank"):
            r = getattr(engine, algo)()
            print(f"           {algo:8s} {r.mode:11s} "
                  f"iters={r.iterations:3d} "
                  f"recomputed={r.recomputed_vertices:6d}")
    s = incremental_summary(cluster.metrics)
    print(f"totals: {s['batches']:.0f} batches, "
          f"{s['edges_changed']:.0f} edges changed, "
          f"{s['machines_patched']:.0f} machines patched / "
          f"{s['machines_reused']:.0f} reused, "
          f"{s['recomputed_vertices']:.0f} vertices recomputed, "
          f"{s['fallbacks']:.0f} fallbacks")
    if args.metrics_out:
        from .obs.exporters import write_metrics

        prom_path, json_path = write_metrics(cluster.metrics,
                                             args.metrics_out)
        print(f"  metrics: {prom_path} + {json_path}")
    return 0


def cmd_profile(args) -> int:
    """Causal span profiling: critical path, stragglers, Perfetto trace.

    Default workload is the acceptance scenario: two scheduler sessions
    (PageRank pull + SSSP) interleaving on one cluster, spans attributed
    per session.  ``--solo --algo X`` profiles a single algorithm instead.
    """
    import json

    from .obs.profiler import SpanProfiler

    if args.solo:
        algorithm = ALGO_ALIASES.get(args.algo, args.algo)
        g = paper_graph(args.graph, scale=args.scale,
                        weighted=algorithm == "sssp")
        cluster = PgxdCluster(scaled_cluster_config(args.machines,
                                                    args.scale))
        profiler = SpanProfiler(cluster)
        profiler.install()
        run_pgx(g, args.graph, algorithm, args.machines, args.scale,
                cluster=cluster)
        profiler.uninstall()
        print(f"profile: {args.algo} solo on {args.graph} "
              f"(scale {args.scale:g}, {args.machines} machines)")
        rollup = {}
    else:
        from .algorithms import pagerank, sssp
        from .core.scheduler import SchedulerConfig
        from .server import PgxdServer

        cluster = PgxdCluster(scaled_cluster_config(args.machines,
                                                    args.scale))
        server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
            max_concurrent_jobs=args.max_concurrent))
        profiler = server.enable_profiling()
        g_plain = paper_graph(args.graph, scale=args.scale)
        g_weighted = paper_graph(args.graph, scale=args.scale, weighted=True)
        alice = server.create_session("alice")
        alice.load_graph("g", g_plain)
        alice.submit_program("g", pagerank, max_iterations=args.iterations)
        bob = server.create_session("bob")
        dg_b = bob.load_graph("g", g_weighted)
        bob.submit_program("g", sssp, root=args.seed % dg_b.num_nodes,
                           max_iterations=args.iterations)
        server.drain()
        print(f"profile: two-session PageRank+SSSP on {args.graph} "
              f"(scale {args.scale:g}, {args.machines} machines, "
              f"{args.iterations} units/session)")
        rollup = server.profile_rollup()

    print(profiler.render_report(top=args.top))
    for name in sorted(rollup):
        r = rollup[name]
        stragglers = ", ".join(f"m{m}x{n}" for m, n in
                               sorted(r["straggler_machines"].items()))
        print(f"session {name:10s} jobs={r['jobs']:3d} "
              f"critical-path={r['critical_path_seconds']:.6f} s "
              f"stragglers: {stragglers or '(none)'}")
    if args.trace_out:
        n = profiler.save(args.trace_out)
        print(f"  trace: {args.trace_out} ({n} events; open in "
              f"ui.perfetto.dev or chrome://tracing)")
    if args.json_out:
        doc = {"schema": "repro-profile/v1",
               "jobs": [p.summary() for p in profiler.profiles],
               "sessions": rollup}
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"  summary: {args.json_out}")
    return 0


def cmd_generate(args) -> int:
    g = paper_graph(args.graph, scale=args.scale, weighted=args.weighted)
    if args.format == "binary":
        save_binary(g, args.out)
    else:
        save_edge_list(g, args.out)
    print(f"wrote {args.graph} (scale {args.scale:g}): "
          f"{g.num_nodes:,} nodes, {g.num_edges:,} edges -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PGX.D reproduction: run graph algorithms on the "
                    "simulated cluster")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe a generated dataset")
    _add_graph_args(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_run = sub.add_parser("run", help="run one algorithm on PGX.D")
    _add_graph_args(p_run)
    p_run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_run.add_argument("--machines", type=int, default=8)
    p_run.add_argument("--ghost-threshold", type=int, default=None)
    _add_obs_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser(
        "report", help="run one algorithm and print the per-layer overhead "
                       "breakdown (metrics-registry view of Figure 5)")
    _add_graph_args(p_rep)
    p_rep.add_argument("--algo", required=True,
                       choices=ALGORITHMS + sorted(ALGO_ALIASES),
                       help="algorithm (aliases: pagerank -> pr_pull)")
    p_rep.add_argument("--machines", type=int, default=8)
    p_rep.add_argument("--profile", action="store_true",
                       help="attach the span profiler and fold critical-"
                            "path/straggler columns into the layer table")
    _add_obs_args(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    p_cmp = sub.add_parser("compare",
                           help="compare PGX.D / GraphLab-like / GraphX-like / SA")
    _add_graph_args(p_cmp)
    p_cmp.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_cmp.add_argument("--machines", default="2,8,32",
                       help="comma-separated machine counts")
    p_cmp.set_defaults(fn=cmd_compare)

    p_chaos = sub.add_parser(
        "chaos", help="run PageRank under injected faults (drops, dups, "
                      "delays, stalls, slowdowns, a crash) and verify the "
                      "results stay bit-identical to a fault-free run")
    _add_graph_args(p_chaos)
    p_chaos.add_argument("--machines", type=int, default=4)
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="FaultPlan RNG seed")
    p_chaos.add_argument("--iterations", type=int, default=5,
                         help="PageRank iterations per scenario")
    p_chaos.add_argument("--out-of-core", action="store_true",
                         help="stream edge windows from the modeled disk "
                              "tier during every scenario")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_aud = sub.add_parser(
        "audit", help="run the determinism audit: PageRank/SSSP/WCC under "
                      "K perturbed schedules (solo and two-tenant, with "
                      "faults/combining/privatization toggled), diffing "
                      "result bit patterns, counted work, and dispatch "
                      "logs, plus a negative control that must diverge")
    _add_graph_args(p_aud)
    p_aud.add_argument("--machines", type=int, default=4)
    p_aud.add_argument("--schedules", type=int, default=5,
                       help="perturbed schedules per scenario (beyond the "
                            "canonical one)")
    p_aud.add_argument("--seed", type=int, default=7,
                       help="base seed for tie-break perturbation and faults")
    p_aud.add_argument("--iterations", type=int, default=3,
                       help="iterations/rounds per workload")
    p_aud.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the JSON verdict document to PATH")
    p_aud.add_argument("--out-of-core", action="store_true",
                       help="run every scenario with streamed edge windows "
                            "(results must stay bit-identical)")
    p_aud.set_defaults(fn=cmd_audit)

    p_srv = sub.add_parser(
        "serve", help="replay a synthetic multi-tenant job trace through "
                      "the fair-share scheduler (balanced or skewed)")
    _add_graph_args(p_srv)
    p_srv.add_argument("--workload", choices=["balanced", "skewed"],
                       default="balanced",
                       help="balanced: equal work per tenant; skewed: "
                            "tenant0 runs 4x the iterations")
    p_srv.add_argument("--sessions", type=int, default=3)
    p_srv.add_argument("--jobs-per-session", type=int, default=2,
                       help="work units per session (PageRank / SSSP "
                            "max_iterations)")
    p_srv.add_argument("--machines", type=int, default=2)
    p_srv.add_argument("--seed", type=int, default=7)
    p_srv.add_argument("--max-concurrent", type=int, default=4,
                       help="scheduler job-slot count")
    p_srv.add_argument("--metrics-out", default=None, metavar="PREFIX",
                       help="write PREFIX.prom and PREFIX.json after the "
                            "trace drains")
    p_srv.add_argument("--cache", action="store_true",
                       help="serving-tier trace instead: Zipf-skewed reads "
                            "with a trickle of mutations through the "
                            "epoch-keyed result cache")
    p_srv.add_argument("--reads", type=int, default=200,
                       help="[--cache] reads to replay")
    p_srv.add_argument("--pool", type=int, default=12,
                       help="[--cache] distinct queries in the pool")
    p_srv.add_argument("--zipf", type=float, default=1.2,
                       help="[--cache] Zipf skew over the query pool")
    p_srv.add_argument("--mutate-every", type=int, default=60,
                       help="[--cache] mutation batch every N reads "
                            "(0 disables)")
    p_srv.add_argument("--read-rate", type=float, default=None,
                       help="[--cache] per-session read rate limit "
                            "(reads per simulated second)")
    p_srv.set_defaults(fn=cmd_serve)

    p_mut = sub.add_parser(
        "mutate", help="trace incremental recompute over a mutating graph: "
                       "seeded edge-change batches run as mutation jobs "
                       "(machine patching per epoch), then incremental "
                       "SSSP/WCC/PageRank after each epoch")
    _add_graph_args(p_mut)
    p_mut.add_argument("--machines", type=int, default=4)
    p_mut.add_argument("--rounds", type=int, default=3,
                       help="mutation epochs to trace")
    p_mut.add_argument("--batch-size", type=int, default=10,
                       help="edge changes per batch (half removals, "
                            "half insertions)")
    p_mut.add_argument("--seed", type=int, default=7,
                       help="seed for the batch generator and edge weights")
    p_mut.add_argument("--metrics-out", default=None, metavar="PREFIX",
                       help="write PREFIX.prom and PREFIX.json at the end")
    p_mut.set_defaults(fn=cmd_mutate)

    p_prof = sub.add_parser(
        "profile", help="causal span profiling: assemble per-job span "
                        "trees, extract the critical path, score "
                        "stragglers, and export a Perfetto-loadable trace")
    _add_graph_args(p_prof)
    p_prof.add_argument("--machines", type=int, default=4)
    p_prof.add_argument("--iterations", type=int, default=3,
                        help="PageRank iterations / SSSP rounds per session")
    p_prof.add_argument("--seed", type=int, default=7)
    p_prof.add_argument("--max-concurrent", type=int, default=4,
                        help="scheduler job-slot count (two-session mode)")
    p_prof.add_argument("--top", type=int, default=5,
                        help="how many critical-path segments to print")
    p_prof.add_argument("--solo", action="store_true",
                        help="profile one algorithm without the scheduler")
    p_prof.add_argument("--algo", default="pagerank",
                        choices=ALGORITHMS + sorted(ALGO_ALIASES),
                        help="algorithm for --solo mode")
    p_prof.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the Chrome/Perfetto trace JSON to PATH")
    p_prof.add_argument("--json-out", default=None, metavar="PATH",
                        help="write the per-job profile summary JSON")
    p_prof.set_defaults(fn=cmd_profile)

    p_gen = sub.add_parser("generate", help="write a dataset stand-in to disk")
    _add_graph_args(p_gen)
    p_gen.add_argument("--format", choices=["binary", "text"], default="binary")
    p_gen.add_argument("--weighted", action="store_true")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
