"""Smoke test of the end-to-end benchmark (tiny sizes, all four workloads,
untraced + traced pass).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; tier-1's
``testpaths`` does not collect this directory.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from . import layers, spec, workloads
from . import trace as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = str(HERE / "run.py")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_suite(tmp_path: Path, tag: str) -> tuple[dict, str]:
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run([sys.executable, RUN, "--smoke", "--traced",
                           "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return run_suite(tmp, "a"), run_suite(tmp, "b"), tmp


def test_contract_and_spec_agree():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(spec.WORKLOADS)
    assert list(workloads.WORKLOAD_CLASSES) == list(spec.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    declared = [{"name": m.name, "unit": m.unit, "better": m.better}
                for m in spec.LAYER_METRICS if m.contract]
    assert CONTRACT["per_layer"] == declared
    e2e_names = {m["name"] for m in CONTRACT["end_to_end"]} | {"failed"}
    for m in spec.LAYER_METRICS:
        metric, moved_on = m.moves
        assert metric in e2e_names, m
        assert set(moved_on) <= set(spec.WORKLOADS), m
    names = ([w["name"] for w in CONTRACT["workloads"]]
             + [m["name"] for m in CONTRACT["end_to_end"]]
             + [m["name"] for m in CONTRACT["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_every_name_reported_and_oracles_pass(two_runs):
    (doc, stdout), _, _ = two_runs
    for w in CONTRACT["workloads"]:
        entry = doc["workloads"][w["name"]]
        assert w["name"] in stdout
        assert entry["correct"] and entry["ops_failed"] == 0
        assert entry["ops_attempted"] >= 1
        for m in CONTRACT["end_to_end"]:
            assert entry["end_to_end"][m["name"]]["value"] > 0, m
            assert m["name"] in stdout
        for m in spec.LAYER_METRICS:
            assert m.name in entry["per_layer"], m.name
            assert m.name in stdout
            if m.contract:
                assert entry["per_layer"][m.name] is not None, m.name


def test_layer_self_times_fit_inside_the_traced_repeat(two_runs):
    (doc, _), _, _ = two_runs
    for name, entry in doc["workloads"].items():
        layer = entry["per_layer"]
        self_total = sum(layer[prefix + "host_self_s"]
                         for prefix in spec.HOST_LAYERS.values())
        assert 0 < self_total <= layer["trace.traced_host_s"], name
        assert layer["trace.coverage"] >= 0.9, name
        assert layer["trace.coverage"] <= 1.0, name


def test_workloads_load_or_bypass_their_layers(two_runs):
    (doc, _), _, _ = two_runs
    serve_only = ("core.scheduler.host_self_s", "core.scheduler.dispatched",
                  "core.result_cache.lookups", "query.host_self_s",
                  "core.incremental.mutate_host_self_s",
                  "dynamic.host_self_s")
    for name, entry in doc["workloads"].items():
        layer = entry["per_layer"]
        disk = [v for k, v in layer.items() if k.startswith("runtime.disk.")]
        if name == "pr_push_ooc_m4":
            assert all(v > 0 for v in disk), disk
        else:
            assert all(v == 0 for v in disk), (name, disk)
        for metric in serve_only:
            assert (layer[metric] > 0) == (name == "serve_zipf_mutating"), (
                name, metric)
        if name != "serve_zipf_mutating":
            assert layer["core.result_cache.hit_rate"] is None  # not 0


def test_simulated_clock_and_counts_repeat_exactly(two_runs):
    (a, _), (b, _), _ = two_runs
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in ("sim_s", "op_sim_mean_s", "op_sim_p99_s"):
            assert (wa["end_to_end"][metric]["value"]
                    == wb["end_to_end"][metric]["value"]), (name, metric)
        assert wa["ops_attempted"] == wb["ops_attempted"]
        for m in spec.LAYER_METRICS:
            if m.unit in ("count", "sim_s", "B"):
                assert wa["per_layer"][m.name] == wb["per_layer"][m.name], (
                    name, m.name)


def test_check_accepts_equal_runs_and_flags_a_regression(two_runs):
    _, _, tmp = two_runs
    a, b = tmp / "a.json", tmp / "b.json"
    # Host metrics of millisecond smoke repeats are noise; judge the
    # comparison logic on a copy whose host numbers are A's own.
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    for name, entry in doc_b["workloads"].items():
        for metric in ("setup_s", "host_s", "peak_rss_mb"):
            entry["end_to_end"][metric] = (
                doc_a["workloads"][name]["end_to_end"][metric])
            entry["end_to_end"][metric].pop("values", None)
    for entry in doc_a["workloads"].values():
        for metric in ("setup_s", "host_s"):
            entry["end_to_end"][metric].pop("values", None)
    a.write_text(json.dumps(doc_a))
    same = tmp / "same.json"
    same.write_text(json.dumps(doc_b))
    ok = subprocess.run([sys.executable, RUN, "--check", str(a), str(same)],
                        stdout=subprocess.PIPE, text=True)
    assert ok.returncode == 0, ok.stdout
    assert "REGRESSION" not in ok.stdout

    doc_b["workloads"]["pr_pull_m16"]["end_to_end"]["sim_s"]["value"] *= 1.001
    doc_b["workloads"]["sssp_wcc_m4"]["end_to_end"]["host_s"] = {
        "value": 10.0, "values": [5.0, 10.0, 20.0]}
    worse = tmp / "worse.json"
    worse.write_text(json.dumps(doc_b))
    bad = subprocess.run([sys.executable, RUN, "--check", str(a), str(worse)],
                         stdout=subprocess.PIPE, text=True)
    assert bad.returncode == 1
    rows = [r for r in bad.stdout.splitlines() if "REGRESSION" in r]
    assert len(rows) == 1 and "pr_pull_m16" in rows[0] and "sim_s" in rows[0]
    assert any("sssp_wcc_m4" in r and "host_s" in r and "unresolved" in r
               for r in bad.stdout.splitlines())


def test_last_line_is_the_contract_object():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "pr_push_ooc_m4", "--seed",
             "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in CONTRACT[section]}
        units = {m["name"]: m["unit"] for m in CONTRACT[section]}
        for name, metric in last["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float)


def test_untraced_run_never_imports_the_tracer():
    code = (
        "import runpy, sys\n"
        f"sys.argv = [{RUN!r}, '--workload', 'pr_push_ooc_m4', '--smoke',"
        " '--trace', '0']\n"
        "try:\n"
        f"    runpy.run_path({RUN!r}, run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'e2e.workloads' in sys.modules\n"
        "assert 'e2e.trace' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0


def test_without_the_engine_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for f in HERE.iterdir():
        if f.is_file():
            (target / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "pr_pull_m16", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_bindings_and_survives_a_missing_target(
        monkeypatch, capsys):
    from repro.core import jobrunner, routing_plan, task_manager
    from repro.obs.hooks import HookBus

    before = (task_manager.worker_loop, jobrunner.canonical_apply,
              routing_plan.canonical_apply, HookBus.__dict__["emit"])
    targets = dict(tracer_mod.TARGETS)
    targets["dynamic"] = targets["dynamic"] + [
        ("repro.dynamic", "DynamicGraph.no_such_method"),
        ("repro.no_such_module", "f")]
    monkeypatch.setattr(tracer_mod, "TARGETS", targets)

    tracer = tracer_mod.Tracer("t")
    with tracer:
        assert task_manager.worker_loop is not before[0]
        # a ``from x import f`` binding in another module is rebound too
        assert jobrunner.canonical_apply is routing_plan.canonical_apply
        assert jobrunner.canonical_apply is not before[1]
        wl = workloads.WORKLOAD_CLASSES["pr_push_ooc_m4"](spec.SMOKE)
        wl.make_inputs(5)
        outcome = wl.run(wl.set_up())
        assert outcome.failed == 0
    after = (task_manager.worker_loop, jobrunner.canonical_apply,
             routing_plan.canonical_apply, HookBus.__dict__["emit"])
    assert all(x is y for x, y in zip(before, after))

    assert sorted(tracer.broken_layers) == ["dynamic"]
    assert capsys.readouterr().err.count("warning: trace target") == 2
    reduced = tracer.reduce()
    host = layers.host_metrics(
        reduced, 1.0, 1.0, {"runtime.simulator.events": 1,
                            "core.vector_kernels.edges": 1})
    assert host["dynamic.host_self_s"] is None
    assert host["core.task_manager.host_self_s"] > 0
