#!/usr/bin/env python3
"""End-to-end benchmark on both clocks (host seconds, simulated seconds).

One workload, one process (what a benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload pr_pull_m16 --seed 7 \\
        --seconds 18 --trace 0

prints a table, then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole suite, each workload in its own fresh subprocess::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--traced]
                                  [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --check A.json B.json

See README.md in this directory.
"""

from __future__ import annotations

import os

# One compute thread: the box has two cores and the engine is one Python
# thread; BLAS/OpenMP pools would only add noise.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCHEMA = "repro-bench-e2e/v1"
DETAIL_PREFIX = "detail: "


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bootstrap_imports() -> None:
    """Make the engine (``src/``) and this directory (as the package
    ``e2e``) importable.  The script directory itself leaves ``sys.path``:
    as a top-level entry its ``trace.py`` would shadow the stdlib's."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {src}/repro not found — run from a checkout that "
                 "holds the engine sources")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for p in (str(src), str(HERE.parent)):
        if p not in sys.path:
            sys.path.insert(0, p)


# -- one workload, in this process -----------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spans_out: Path | None = None) -> dict:
    """Set up, warm up, run the timed repeats, verify; returns the detail
    document of one workload run."""
    import numpy as np

    from e2e import layers, spec, workloads

    sizes = spec.SMOKE if smoke else spec.FULL
    wl = workloads.WORKLOAD_CLASSES[name](sizes)

    t0 = time.perf_counter()
    wl.make_inputs(seed)
    generate_host_s = time.perf_counter() - t0

    setup_samples, load_samples = [], []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        ctx = wl.set_up()
        setup_samples.append(time.perf_counter() - t0)
        load_samples.append(ctx.load_graph_host_s)
        return ctx

    # Warm-up: a short untimed run on a throwaway cluster.  On a traced
    # pass it also carries the engine's own SpanProfiler, so the
    # profiler's handlers never run inside a measured repeat.
    ctx = set_up()
    imbalance = workloads.edge_imbalance(ctx.dg)
    profiler = None
    if trace:
        from repro.obs.profiler import SpanProfiler
        profiler = SpanProfiler(ctx.cluster)
        profiler.install()
    wl.run(ctx, warm=True)
    straggler = busy_skew = None
    if profiler is not None:
        profiler.uninstall()
        profiles = [p for p in profiler.profiles if p.slices]
        if profiles:
            heaviest = max(profiles, key=lambda p: p.elapsed)
            straggler, busy_skew = (heaviest.straggler_share,
                                    heaviest.busy_skew)
    del ctx, profiler

    min_repeats = spec.MIN_REPEATS_TRACED if trace else spec.MIN_REPEATS
    budget = seconds * (2.0 / 3.0 if trace else 1.0)
    host_values, signatures = [], []
    outcome = ctx = None
    t_measure = time.perf_counter()
    while (len(host_values) < min_repeats
           or time.perf_counter() - t_measure < budget):
        outcome = ctx = None  # free the previous repeat's cluster first
        ctx = set_up()
        gc.collect()
        t0 = time.perf_counter()
        outcome = wl.run(ctx)
        host_values.append(time.perf_counter() - t0)
        lat = np.sort(outcome.op_latencies)
        signatures.append((outcome.sim_s,
                           float(lat.mean()) if len(lat) else 0.0,
                           workloads.percentile(lat, 0.99),
                           outcome.attempted, outcome.failed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every repeat runs the same inputs on a fresh cluster: anything on the
    # simulated clock must repeat bit for bit.
    deterministic = all(sig == signatures[0] for sig in signatures)
    sim_s, op_mean, p99, attempted, failed = signatures[-1]
    host_s = statistics.median(host_values)

    # Verify before the traced repeat and drop the cluster: a second live
    # cluster on the heap doubles the traced repeat's host time (GC).
    failed += wl.verify(outcome)
    op_samples = len(outcome.op_latencies)
    lateness_end = outcome.extra.get("sim_lateness_end_s")
    per_layer = None
    if trace:
        from e2e import trace as tracer_mod
        per_layer = layers.sim_and_counts(ctx.cluster, outcome, wl.machines)
        outcome = ctx = None
        ctx = set_up()
        tracer = tracer_mod.Tracer(trace_id=f"{name}#seed{seed}")
        with tracer:
            gc.collect()
            t0 = time.perf_counter()
            outcome = wl.run(ctx)
            traced_host_s = time.perf_counter() - t0
        if spans_out is not None:
            tracer.write_json(spans_out)
        deterministic = deterministic and (
            (outcome.sim_s, outcome.attempted, outcome.failed)
            == (sim_s, attempted, signatures[-1][4]))
        per_layer.update(layers.host_metrics(
            tracer.reduce(), traced_host_s, host_s, per_layer))
        per_layer.update({
            "graph.generate_host_s": generate_host_s,
            "core.engine.load_graph_host_s": statistics.median(load_samples),
            "graph.partition.edge_imbalance": imbalance,
            "obs.profiler.straggler_share": straggler,
            "obs.profiler.busy_skew": busy_skew,
            "trace.traced_host_s": traced_host_s,
        })
    outcome = ctx = None
    if not deterministic:
        print("error: simulated results differ between repeats of the same "
              f"inputs: {signatures}", file=sys.stderr)

    def timing(values):
        return {"value": statistics.median(values), "values": list(values)}

    return {
        "workload": name, "seed": seed, "size": "smoke" if smoke else "full",
        "machines": wl.machines, "repeats": len(host_values),
        "correct": bool(deterministic and failed == 0),
        "deterministic": deterministic,
        "ops_attempted": int(attempted), "ops_failed": int(failed),
        "end_to_end": {
            "setup_s": timing(setup_samples),
            "host_s": timing(host_values),
            "sim_s": {"value": sim_s},
            "peak_rss_mb": {"value": peak_rss_mb},
            "op_sim_mean_s": {"value": op_mean},
            "op_sim_p99_s": {"value": p99},
        },
        "op_samples": op_samples,
        "sim_lateness_end_s": lateness_end,
        "per_layer": per_layer,
    }


def contract_line(detail: dict, contract: dict, trace: bool) -> str:
    """The driver's last line: every contract metric, as a number."""
    metrics = {}
    if trace:
        for m in contract["per_layer"]:
            value = detail["per_layer"][m["name"]]
            if value is None:
                # a layer whose trace boundary is gone measured nothing
                print(f"warning: {m['name']} is undefined on this run; "
                      "reported as 0 on the contract line", file=sys.stderr)
                value = 0.0
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    else:
        for m in contract["end_to_end"]:
            metrics[m["name"]] = {
                "value": float(detail["end_to_end"][m["name"]]["value"]),
                "unit": m["unit"]}
    return json.dumps({"correct": detail["correct"],
                       "attempted": detail["ops_attempted"],
                       "failed": detail["ops_failed"], "metrics": metrics})


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(detail: dict, contract: dict) -> None:
    print(f"== {detail['workload']}  seed={detail['seed']} "
          f"size={detail['size']} machines={detail['machines']} "
          f"repeats={detail['repeats']} ==")
    print(f"ops_attempted={detail['ops_attempted']} "
          f"ops_failed={detail['ops_failed']} correct={detail['correct']}")
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    for name, entry in detail["end_to_end"].items():
        values = entry.get("values")
        extra = ("  [" + " ".join(_fmt(v) for v in values) + "]"
                 if values else "")
        print(f"  {name:<44} {_fmt(entry['value']):>14} "
              f"{units.get(name, ''):<6}{extra}")
    for name, value in (detail["per_layer"] or {}).items():
        print(f"  {name:<44} {_fmt(value):>14} {units.get(name, '')}")


# -- the suite: one fresh subprocess per workload --------------------------

def run_suite(names, seed: int, seconds: float, traced: bool, smoke: bool,
              contract: dict) -> dict:
    doc = {"schema": SCHEMA, "seed": seed,
           "size": "smoke" if smoke else "full", "run_seconds": seconds,
           "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "workloads": {}}
    for name in names:
        entry = None
        for trace in ([0, 1] if traced else [0]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            details = [line for line in proc.stdout.splitlines()
                       if line.startswith(DETAIL_PREFIX)]
            if proc.returncode != 0 or not details:
                sys.exit(f"error: {' '.join(cmd)} failed "
                         f"(exit {proc.returncode})")
            detail = json.loads(details[-1][len(DETAIL_PREFIX):])
            if trace:
                # end-to-end numbers always come from the untraced pass
                entry["per_layer"] = detail["per_layer"]
                entry["correct"] = entry["correct"] and detail["correct"]
            else:
                entry = detail
        print_workload(entry, contract)
        doc["workloads"][name] = entry
    return doc


# -- --check: compare two result files -------------------------------------

def _spread(entry: dict) -> float:
    """Quartile distance of a metric's own repeats over their median (for
    three repeats that is max - min), as the driver judges spreads."""
    values = entry.get("values") or []
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check(path_a: Path, path_b: Path, contract: dict) -> int:
    """B against A, by the bounds in BENCHMARK.json.  Simulated-clock
    metrics and counts must repeat exactly for equal seeds; host and
    memory metrics may worsen by their bound; a host metric whose own
    repeat-to-repeat spread exceeds its bound is *unresolved*."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    same_inputs = (a["seed"], a["size"]) == (b["seed"], b["size"])
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    layer = {m["name"]: m for m in contract["per_layer"]}
    regressions = 0
    print(f"{'workload':<22}{'metric':<46}{'A':>14}{'B':>14}{'change':>9}  "
          "verdict")

    def row(wl, name, va, vb, verdict):
        change = (f"{(vb - va) / va:+.1%}"
                  if isinstance(va, (int, float)) and va
                  and isinstance(vb, (int, float)) else "")
        print(f"{wl:<22}{name:<46}{_fmt(va):>14}{_fmt(vb):>14}"
              f"{change:>9}  {verdict}")

    for wl in a["workloads"]:
        if wl not in b["workloads"]:
            print(f"{wl:<22}missing from {path_b}")
            regressions += 1
            continue
        wa, wb = a["workloads"][wl], b["workloads"][wl]
        share_a = wa["ops_failed"] / wa["ops_attempted"]
        share_b = wb["ops_failed"] / wb["ops_attempted"]
        worse = share_b > share_a
        regressions += worse
        row(wl, "ops_failed/ops_attempted", share_a, share_b,
            "REGRESSION" if worse else "ok")
        for name, m in e2e.items():
            ea, eb = wa["end_to_end"][name], wb["end_to_end"][name]
            va, vb = ea["value"], eb["value"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worsening = sign * (vb - va) / va
            simulated = m["unit"] == "sim_s"
            if simulated and same_inputs:
                verdict = ("same" if vb == va else
                           "REGRESSION" if worsening > 0 else "improved")
            elif not simulated and max(_spread(ea), _spread(eb)) > m["bound"]:
                verdict = "unresolved (repeat spread exceeds bound)"
            elif worsening > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = ("improved" if worsening < -m["bound"]
                           else "within bound")
            regressions += verdict == "REGRESSION"
            row(wl, name, va, vb, verdict)
        la, lb = wa.get("per_layer"), wb.get("per_layer")
        for name in (layer if la and lb else ()):
            va, vb = la.get(name), lb.get(name)
            exact = (layer[name]["unit"] in ("count", "sim_s", "B")
                     and same_inputs)
            if exact:
                verdict = "same" if va == vb else "CHANGED"
            else:
                verdict = "(no bound)"
            row(wl, name, va, vb, verdict)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# -- command line ----------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring budget per run (default: run_seconds "
                         "of BENCHMARK.json; 0 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: run --workload in this process and "
                         "end with the contract's JSON line")
    ap.add_argument("--traced", action="store_true",
                    help="suite mode: add a traced pass per workload")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--out", type=Path, help="write the result document")
    ap.add_argument("--spans-out", type=Path,
                    help="with --trace 1: write the raw spans as JSON")
    ap.add_argument("--check", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two result documents and exit")
    args = ap.parse_args(argv)

    contract = load_contract()
    if args.check:
        return check(*args.check, contract)

    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(contract["run_seconds"])

    _bootstrap_imports()
    from e2e import spec
    seed = spec.DEFAULT_SEED if args.seed is None else args.seed

    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        detail = run_workload(args.workload, seed, seconds, bool(args.trace),
                              args.smoke, args.spans_out)
        print_workload(detail, contract)
        if args.out:
            args.out.write_text(json.dumps(detail, indent=2) + "\n")
        print(DETAIL_PREFIX + json.dumps(detail))
        print(contract_line(detail, contract, bool(args.trace)))
        return 0

    selected = [args.workload] if args.workload else names
    doc = run_suite(selected, seed, seconds, args.traced, args.smoke,
                    contract)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.out}")
    failed = sum(w["ops_failed"] for w in doc["workloads"].values())
    incorrect = [n for n, w in doc["workloads"].items() if not w["correct"]]
    print(f"ops_failed={failed} incorrect_workloads={incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
