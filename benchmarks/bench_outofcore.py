#!/usr/bin/env python
"""Out-of-core streaming benchmark: cost and capability of the disk tier.

Measures (a) what streaming the edge partitions from the modeled disk
costs versus keeping them DRAM-resident — simulated seconds, stall
share, host wall-clock, and the bytes the device moved (compact shard
format) next to the resolved bytes they became in DRAM — across a
window-size sweep, and (b) the
headline capability: a graph whose edge arrays exceed one machine's
modeled DRAM by >= 10x completing on the 4-machine cluster, bit-identical
to the in-memory run. Results land in ``BENCH_outofcore.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_outofcore.py            # full run
    PYTHONPATH=src python benchmarks/bench_outofcore.py --tiny     # CI smoke
    PYTHONPATH=src python benchmarks/bench_outofcore.py --check BENCH_outofcore.json

``--check`` validates an existing result file against the schema (all
comparisons bit-identical, capability ratio >= the required floor) and
exits non-zero on mismatch (the CI smoke step).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SCHEMA = "repro-bench-outofcore/v1"
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.vector_kernels import CSR_BYTES_PER_EDGE  # noqa: E402


def build_cluster(machines: int, chunk_size: int, out_of_core: bool,
                  window_edges: int = 65536, dram_bytes: float | None = None):
    from repro import ClusterConfig, PgxdCluster
    cfg = ClusterConfig(num_machines=machines)
    if dram_bytes is not None:
        cfg = cfg.with_machine(dram_bytes=dram_bytes)
    cfg = cfg.with_engine(chunk_size=chunk_size, ghost_threshold=64,
                          out_of_core=out_of_core,
                          ooc_window_edges=window_edges)
    return PgxdCluster(cfg)


def run_pagerank(graph, machines: int, iterations: int, chunk_size: int,
                 out_of_core: bool, window_edges: int = 65536,
                 dram_bytes: float | None = None):
    import gc
    from repro.algorithms import pagerank
    from repro.obs.report import disk_summary
    cluster = build_cluster(machines, chunk_size, out_of_core, window_edges,
                            dram_bytes)
    dg = cluster.load_graph(graph)
    gc.collect()
    t0 = time.perf_counter()
    res = pagerank(cluster, dg, variant="pull", max_iterations=iterations)
    wallclock = time.perf_counter() - t0
    disk = disk_summary(cluster.metrics)
    return {
        "wallclock_seconds": wallclock,
        "simulated_seconds": res.total_time,
        "values": res.values["pr"],
        "disk_bytes_read": disk["bytes_read"],
        "resident_bytes_streamed": (res.stats.edges_processed
                                    * CSR_BYTES_PER_EDGE),
        "disk_reads": disk["reads"],
        "disk_read_seconds": disk["read_seconds"],
        "disk_stall_seconds": disk["stall_seconds"],
    }


def bench_stream_vs_resident(name: str, graph, machines: int,
                             iterations: int, chunk_size: int,
                             window_edges: int) -> dict:
    import numpy as np
    mem = run_pagerank(graph, machines, iterations, chunk_size,
                       out_of_core=False)
    ooc = run_pagerank(graph, machines, iterations, chunk_size,
                       out_of_core=True, window_edges=window_edges)
    sim_slowdown = ooc["simulated_seconds"] / mem["simulated_seconds"]
    return {
        "name": name,
        "window_edges": window_edges,
        "iterations": iterations,
        "machines": machines,
        "results_match": bool(np.array_equal(mem["values"], ooc["values"])),
        "inmemory_sim_seconds": mem["simulated_seconds"],
        "streamed_sim_seconds": ooc["simulated_seconds"],
        "sim_slowdown": round(sim_slowdown, 4),
        "inmemory_wallclock_seconds": round(mem["wallclock_seconds"], 4),
        "streamed_wallclock_seconds": round(ooc["wallclock_seconds"], 4),
        "disk_bytes_read": ooc["disk_bytes_read"],
        "resident_bytes_streamed": ooc["resident_bytes_streamed"],
        "disk_reads": int(ooc["disk_reads"]),
        "disk_read_seconds": ooc["disk_read_seconds"],
        "disk_stall_seconds": ooc["disk_stall_seconds"],
        # stall seconds aggregate across machines; normalize to the
        # per-machine share of the streamed run's timeline
        "stall_share": round(ooc["disk_stall_seconds"]
                             / (ooc["simulated_seconds"] * machines), 4)
        if ooc["simulated_seconds"] else 0.0,
    }


def bench_dram_ratio(graph, machines: int, iterations: int, chunk_size: int,
                     window_edges: int, ratio: float) -> dict:
    """The capability entry: shrink the modeled DRAM until the edge arrays
    exceed it ``ratio``-fold, then complete the job streamed."""
    import numpy as np
    edge_bytes_per_machine = (graph.num_edges * 2 * CSR_BYTES_PER_EDGE
                              / machines)
    dram = edge_bytes_per_machine / ratio
    mem = run_pagerank(graph, machines, iterations, chunk_size,
                       out_of_core=False)
    ooc = run_pagerank(graph, machines, iterations, chunk_size,
                       out_of_core=True, window_edges=window_edges,
                       dram_bytes=dram)
    return {
        "name": "dram_ratio_capability",
        "window_edges": window_edges,
        "iterations": iterations,
        "machines": machines,
        "dram_bytes": dram,
        "edge_bytes_per_machine": edge_bytes_per_machine,
        "graph_to_dram_ratio": round(edge_bytes_per_machine / dram, 2),
        "results_match": bool(np.array_equal(mem["values"], ooc["values"])),
        "streamed_sim_seconds": ooc["simulated_seconds"],
        "disk_bytes_read": ooc["disk_bytes_read"],
        "resident_bytes_streamed": ooc["resident_bytes_streamed"],
    }


REQUIRED_ENTRY_KEYS = frozenset({"name", "window_edges", "machines",
                                 "results_match"})


def check_schema(path: Path, min_ratio: float = 10.0) -> list[str]:
    """Validate a result file; returns a list of problems (empty = ok)."""
    problems = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"cannot read {path}: {e}"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + ["entries must be a non-empty list"]
    ratio_seen = False
    for i, e in enumerate(entries):
        missing = REQUIRED_ENTRY_KEYS - set(e)
        if missing:
            problems.append(f"entry {i} missing keys: {sorted(missing)}")
            continue
        if not e["results_match"]:
            problems.append(f"entry {i} ({e['name']}): streamed results "
                            "diverged from in-memory")
        if e["name"] == "dram_ratio_capability":
            ratio_seen = True
            if e.get("graph_to_dram_ratio", 0.0) < min_ratio:
                problems.append(
                    f"entry {i}: graph_to_dram_ratio "
                    f"{e.get('graph_to_dram_ratio')} < required {min_ratio}")
    if not ratio_seen:
        problems.append("missing the dram_ratio_capability entry")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--nodes", type=int, default=50_000)
    ap.add_argument("--edges", type=int, default=800_000)
    ap.add_argument("--iterations", type=int, default=10)
    ap.add_argument("--machines", type=int, default=4)
    ap.add_argument("--chunk-size", type=int, default=16_384)
    ap.add_argument("--windows", type=int, nargs="+",
                    default=[16_384, 65_536, 262_144],
                    help="ooc_window_edges values to sweep")
    ap.add_argument("--ratio", type=float, default=10.0,
                    help="required edge-bytes-to-DRAM factor for the "
                         "capability entry")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--tiny", action="store_true",
                    help="small graph / few iterations (CI smoke)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_outofcore.json")
    ap.add_argument("--check", type=Path, metavar="JSON",
                    help="validate an existing result file and exit")
    args = ap.parse_args(argv)

    if args.check:
        problems = check_schema(args.check, min_ratio=args.ratio)
        for p in problems:
            print(f"SCHEMA ERROR: {p}", file=sys.stderr)
        print(f"{args.check}: {'FAIL' if problems else 'ok'}")
        return 1 if problems else 0

    if args.tiny:
        args.nodes, args.edges = 1_000, 8_000
        args.iterations = 3
        args.chunk_size = 512
        args.windows = [1_024, 4_096]

    from repro import rmat
    graph = rmat(args.nodes, args.edges, seed=args.seed)

    entries = [
        bench_stream_vs_resident(f"pagerank_window_{w}", graph,
                                 args.machines, args.iterations,
                                 args.chunk_size, w)
        for w in args.windows
    ]
    entries.append(bench_dram_ratio(graph, args.machines, args.iterations,
                                    args.chunk_size, args.windows[0],
                                    args.ratio))
    doc = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "graph": {"kind": "rmat", "nodes": args.nodes, "edges": args.edges,
                  "seed": args.seed},
        "config": {"machines": args.machines, "iterations": args.iterations,
                   "chunk_size": args.chunk_size, "windows": args.windows,
                   "ratio": args.ratio, "tiny": args.tiny},
        "entries": entries,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for e in entries:
        if e["name"] == "dram_ratio_capability":
            print(f"{e['name']:>24}: {e['graph_to_dram_ratio']:.1f}x DRAM "
                  f"streamed ok, match={e['results_match']}")
        else:
            print(f"{e['name']:>24}: sim {e['inmemory_sim_seconds']:.4f}s -> "
                  f"{e['streamed_sim_seconds']:.4f}s "
                  f"({e['sim_slowdown']:.2f}x, "
                  f"stall={e['stall_share']:.2%}, "
                  f"disk {e['disk_bytes_read'] / 1e6:.1f} MB -> resident "
                  f"{e['resident_bytes_streamed'] / 1e6:.1f} MB, "
                  f"match={e['results_match']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
