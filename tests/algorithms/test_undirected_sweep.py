"""WCC and KCore sweep both edge directions in one parallel region.

An ``undirected`` :class:`EdgeMapSpec` queues the forward CSR's chunks and
then the reverse CSR's in one region.  Each program is checked bit for bit
against the form it replaces, in which every undirected step is two
one-direction ``EdgeMapJob``s, the forward push and then the reverse one
(:func:`split_sweeps`).  The check runs at M in {1, 4, 7}, in memory and
out of core, on the vectorized and the scalar path, with and without a
drop/dup fault plan.
"""

from dataclasses import replace

import pytest

from repro import (ClusterConfig, FaultPlan, PgxdCluster, rmat,
                   with_uniform_weights)
from repro.algorithms import kcore_max, wcc
from repro.audit.harness import AuditHarness, AuditScenario
from repro.core.job import EdgeMapJob
from repro.core.properties import ReduceOp
from repro.core.tasks import EdgeMapSpec
from tests.conftest import run_scalar

GRAPH = rmat(150, 900, seed=23)
PROGRAMS = {"wcc": wcc, "kcore_max": kcore_max}


def split_sweeps(gen):
    """The program ``gen`` with every undirected edge map run as two
    one-direction regions: the forward push, then the reverse one, which
    carries the step's reduction and answers the program."""
    try:
        value = None
        while True:
            try:
                step = gen.send(value)
            except StopIteration as stop:
                return stop.value
            spec = getattr(step, "spec", None)
            if spec is None or not spec.undirected:
                value = yield step
                continue
            one_way = replace(spec, undirected=False)
            yield EdgeMapJob(name=f"{step.name}_fwd", spec=one_way)
            value = yield EdgeMapJob(
                name=f"{step.name}_rev", spec=replace(one_way, reverse=True),
                reduce=step.reduce)
    finally:
        gen.close()


def run(algo, machines, out_of_core=False, scalar=False, faults=False,
        split=False, plans=None):
    """``(outcome, job names)`` of one run; the outcome holds everything a
    result reports but its clocks.  ``plans``, a list, receives each
    machine's routing-plan keys."""
    cfg = ClusterConfig(num_machines=machines).with_engine(
        ghost_threshold=20, chunk_size=64, out_of_core=out_of_core)
    if faults:
        cfg = cfg.with_fault_plan(FaultPlan(seed=3, drop_prob=0.05,
                                            dup_prob=0.05))
    cluster = PgxdCluster(cfg)
    if scalar:
        run_scalar(cluster)
    dg = cluster.load_graph(GRAPH)
    program = PROGRAMS[algo].program(dg)
    result = cluster.run(dg, split_sweeps(program) if split else program)
    if plans is not None:
        plans.extend(sorted(m.plan_cache._plans) for m in dg.machines)
    outcome = ({k: v.tobytes() for k, v in result.values.items()},
               sorted(result.extra.items()), result.iterations)
    return outcome, [name for name, _ in cluster.job_log]


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "drop-dup"])
@pytest.mark.parametrize("scalar", [False, True], ids=["vector", "scalar"])
@pytest.mark.parametrize("out_of_core", [False, True], ids=["mem", "ooc"])
@pytest.mark.parametrize("machines", [1, 4, 7])
@pytest.mark.parametrize("algo", sorted(PROGRAMS))
def test_one_region_matches_two(algo, machines, out_of_core, scalar, faults):
    """Components, active traces, k and iteration counts are the two-region
    form's, bit for bit, in every mode."""
    kwargs = dict(out_of_core=out_of_core, scalar=scalar, faults=faults)
    fused, _ = run(algo, machines, **kwargs)
    split, _ = run(algo, machines, split=True, **kwargs)
    assert fused == split


def test_wcc_runs_two_jobs_per_iteration():
    (_, _, iterations), names = run("wcc", 4)
    _, split_names = run("wcc", 4, split=True)
    assert iterations > 1
    assert names == ["wcc_push", "wcc_absorb"] * iterations
    assert len(split_names) == 3 * iterations


def test_kcore_runs_one_edge_region_per_round():
    _, names = run("kcore_max", 4)
    _, split_names = run("kcore_max", 4, split=True)
    rounds = names.count("kcore_dec")
    assert rounds > 1
    assert set(names) == {"kcore_mark", "kcore_dec"}
    # every peeling round is its mark and one edge region
    assert all(prev == "kcore_mark" for prev, name in zip(names, names[1:])
               if name == "kcore_dec")
    assert names[0] == "kcore_mark"
    assert split_names.count("kcore_dec_fwd") == rounds
    assert split_names.count("kcore_dec_rev") == rounds
    assert len(names) == len(split_names) - rounds


@pytest.mark.parametrize("algo", sorted(PROGRAMS))
def test_plan_cache_holds_the_one_direction_plans(algo):
    """Each chunk is planned under its own CSR's ``(direction, lo, hi)``
    key, so the fused region builds exactly the two regions' plans."""
    fused, split = [], []
    run(algo, 4, plans=fused)
    run(algo, 4, split=True, plans=split)
    assert fused == split
    assert all({key[0] for key in keys} == {"out", "in"} for keys in fused)


def test_undirected_excludes_reverse():
    with pytest.raises(ValueError, match="reverse"):
        EdgeMapSpec(direction="push", source="x", target="t",
                    op=ReduceOp.MIN, undirected=True, reverse=True)


@pytest.mark.parametrize("direction,kinds", [("push", ("out", "in")),
                                             ("pull", ("in", "out"))])
def test_queue_order_is_forward_then_reverse(direction, kinds):
    spec = EdgeMapSpec(direction=direction, source="x", target="t",
                       op=ReduceOp.SUM, undirected=True)
    assert spec.iter_kinds == kinds
    assert replace(spec, undirected=False).iter_kinds == kinds[:1]
    assert replace(spec, undirected=False,
                   reverse=True).iter_kinds == kinds[1:]


@pytest.mark.parametrize("out_of_core", [False, True], ids=["mem", "ooc"])
def test_audit_stays_clean(out_of_core):
    graph = with_uniform_weights(rmat(120, 900, seed=21), 0.1, 1.0, seed=22)
    harness = AuditHarness(graph, ClusterConfig(num_machines=4).with_engine(
        num_workers=16, num_copiers=8, buffer_size=64, chunk_size=64,
        ghost_threshold=1000), schedules=2, base_seed=7, iterations=2)
    verdict = harness.run_scenario(AuditScenario(
        "wcc", "wcc", out_of_core=out_of_core))
    assert verdict.passed and verdict.bit_identical
    assert verdict.violation_count == 0
