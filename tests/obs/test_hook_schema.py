"""The hook schema is the engine's emit contract.

``KNOWN_HOOKS`` names exactly the hooks the engine emits, and every
payload the engine builds carries exactly its hook's fields, plus the
scope tags of a ticketed job and the declared optional fields.  The
dynamic half runs one pass that touches every feature layer with a
subscriber on every hook.

The same pass holds the metrics registry to an independent witness: every
family the recorder registers, whether folded from ``JobStats`` or counted
by a hook handler, equals what :class:`~tests.obs.hook_witness.HookWitness`
counts from the payloads and every attempt's rows alone.  Hooks mark
lifecycle transitions only, so how many fire does not grow with the work.
"""

import pathlib
import re

import pytest

from repro import (EdgeMapJob, EdgeMapSpec, FaultPlan, MachineCrash,
                   PgxdCluster, QuotaExceededError, ReduceOp, rmat,
                   with_uniform_weights)
from repro.algorithms import pagerank, sssp
from repro.core.incremental import (IncrementalConfig, IncrementalEngine,
                                    hash_weights)
from repro.core.scheduler import JobScheduler, SchedulerConfig
from repro.dynamic import DynamicGraph
from repro.obs import HookBus, MetricsRecorder, MetricsRegistry
from repro.obs.hooks import KNOWN_HOOKS, OPTIONAL_FIELDS, SCOPE_TAGS
from repro.query import apply_spec, pool_specs
from repro.server import PgxdServer
from tests.conftest import make_cluster
from tests.obs.hook_witness import HookWitness

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: a literal hook name handed to ``emit(...)`` or ``partial(bus.emit, ...)``
EMIT_NAME = re.compile(r'\bemit[(,]\s*"([\w.]+)"')


def test_emitted_names_are_the_schema_keys():
    emitted = {name for path in SRC.rglob("*.py")
               for name in EMIT_NAME.findall(path.read_text())}
    assert emitted == set(KNOWN_HOOKS)


def test_optional_fields_extend_known_hooks_only():
    for name, extra in OPTIONAL_FIELDS.items():
        assert name in KNOWN_HOOKS
        assert not set(extra) & set(KNOWN_HOOKS[name])


class Capture:
    """Every payload key set seen per hook, over any number of clusters,
    and each cluster's hook witness."""

    def __init__(self):
        self.keys: dict[str, set[frozenset]] = {}
        #: (cluster, a witness fed every event and attempt it ran)
        self.clusters: list[tuple[PgxdCluster, HookWitness]] = []

    def attach(self, cluster):
        for name in KNOWN_HOOKS:
            cluster.hooks.subscribe(
                name, lambda p, name=name: self.keys.setdefault(
                    name, set()).add(frozenset(p)))
        self.clusters.append((cluster, HookWitness().attach(cluster)))
        return cluster


def pull_job(name):
    return EdgeMapJob(name=name, spec=EdgeMapSpec(
        direction="pull", source="x", target="t", op=ReduceOp.SUM))


def _algorithms(cap):
    """Pull and push PageRank with ghosts, and SSSP (sender combining)."""
    cluster = cap.attach(make_cluster(4))
    dg = cluster.load_graph(with_uniform_weights(
        rmat(400, 3000, seed=21), 0.1, 1.0, seed=23))
    assert dg.num_ghosts > 0
    pagerank(cluster, dg, "pull", max_iterations=2)
    pagerank(cluster, dg, "push", max_iterations=2)
    sssp(cluster, dg, root=0)


def _out_of_core(cap):
    cluster = cap.attach(make_cluster(2, out_of_core=True, num_workers=2,
                                      chunk_size=64))
    dg = cluster.load_graph(rmat(260, 1500, seed=21))
    pagerank(cluster, dg, "push", max_iterations=2)


def _faults(cap, tmp_path):
    """Drops, duplicates and a crash recovered from a checkpoint."""
    def run(cluster):
        sched = JobScheduler(cluster)
        dg = cluster.load_graph(rmat(260, 1500, seed=21))
        if cluster.faults is not None:
            cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
        sched.submit_program("a", dg, pagerank.program(dg,
                                                       max_iterations=3))
        sched.drain()
        return cluster

    quiet = run(make_cluster(2))
    cfg = quiet.config.with_fault_plan(FaultPlan(
        seed=5, drop_prob=0.05, dup_prob=0.05,
        crashes=(MachineCrash(machine=1, at=0.4 * quiet.now),)))
    run(cap.attach(PgxdCluster(cfg)))


def _scheduler(cap):
    """A quota rejection and a fair-share head-of-line skip."""
    cluster = cap.attach(make_cluster(2))
    sched = JobScheduler(cluster, SchedulerConfig(
        max_concurrent_jobs=1, max_queued_per_session=2))
    dgs = [cluster.load_graph(rmat(260, 1500, seed=21)) for _ in range(2)]
    for dg in dgs:
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
    sched.submit("first", dgs[0], pull_job("f1"))
    sched.submit("first", dgs[0], pull_job("f2"))
    with pytest.raises(QuotaExceededError):
        sched.submit("first", dgs[0], pull_job("f3"))
    sched.submit("second", dgs[1], pull_job("s1"))
    sched.drain()


def _served(cap):
    """Cached reads over a mutating graph, then an incremental recompute,
    and one that falls back to a full rerun (two changed edges exceed the
    0.1% budget, one does not)."""
    cluster = cap.attach(make_cluster(2))
    server = PgxdServer(cluster)
    server.enable_cache()
    graph = rmat(300, 1800, seed=31)
    src, dst = graph.edge_list()
    dyn = DynamicGraph(300, list(zip(src.tolist(), dst.tolist())))
    engine = IncrementalEngine(cluster, dyn, weight_fn=hash_weights(seed=3),
                               config=IncrementalConfig(
                                   full_rerun_fraction=0.001))
    session = server.create_session("a")
    specs = pool_specs(2, seed=31)
    for round_ in range(2):
        session.attach_graph("g", engine.pin())
        for spec in specs + specs:
            apply_spec(session.query("g"), spec)
        if round_ == 0:
            engine.pagerank()
            dyn.add_edge(1, 2)
            engine.mutate(session="a")
    assert engine.pagerank().mode == "incremental"
    dyn.add_edge(2, 3)
    dyn.add_edge(3, 4)
    engine.mutate(session="a")
    assert engine.pagerank().fallback
    session.attach_graph("g", engine.pin())
    apply_spec(session.query("g"), specs[0])  # the cache ends non-empty


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    cap = Capture()
    _algorithms(cap)
    _out_of_core(cap)
    _faults(cap, tmp_path_factory.mktemp("ckpt"))
    _scheduler(cap)
    _served(cap)
    return cap


@pytest.fixture(scope="module")
def captured(capture):
    return capture.keys


def test_every_known_hook_fires(captured):
    assert sorted(set(KNOWN_HOOKS) - set(captured)) == []


def test_payload_keys_are_the_schema_fields(captured):
    for name, key_sets in captured.items():
        fields = set(KNOWN_HOOKS[name])
        allowed = fields | set(SCOPE_TAGS) | set(OPTIONAL_FIELDS.get(name, ()))
        for keys in key_sets:
            assert fields <= keys <= allowed, (name, sorted(keys))


def test_optional_fields_appear(captured):
    seen = {name: set().union(*captured[name]) for name in OPTIONAL_FIELDS}
    assert {"src", "dst", "kind", "machine"} <= seen["fault.inject"]


def test_ticketed_payloads_carry_both_scope_tags(captured):
    for name in ("job.start", "job.end", "cache.hit", "dynamic.apply"):
        assert any(set(SCOPE_TAGS) <= keys for keys in captured[name]), name


#: families the scheduler updates itself, from no engine fact or hook
DRIVER_FAMILIES = ("repro_jobs_total", "repro_job_seconds",
                   "repro_sim_events_total", "repro_sim_event_pool_hits")

#: families fed by ``JobStats.spans`` rows and the ``retries``,
#: ``dedup_drops`` and ``disk_bytes`` counts rather than by hooks
SPAN_FAMILIES = ("repro_job_phases_total", "repro_job_phase_seconds_total",
                 "repro_barriers_total", "repro_barrier_seconds_total",
                 "repro_disk_bytes_read", "repro_disk_reads_total",
                 "repro_disk_read_seconds_total", "repro_disk_stall_seconds",
                 "repro_retries_total", "repro_dedup_drops_total")


def recorder_families() -> list[str]:
    registry = MetricsRegistry()
    MetricsRecorder(registry, HookBus())
    return registry.names()


def test_every_recorder_family_equals_the_hook_witness(capture):
    families = recorder_families()
    reached = set()
    witnessed = dict.fromkeys(SPAN_FAMILIES, 0.0)
    for cluster, witness in capture.clusters:
        got = cluster.metrics.snapshot()
        want = witness.snapshot()
        for name in SPAN_FAMILIES:
            witnessed[name] += sum(s["value"] for s in want[name]["samples"])
        for name in families:
            if name in DRIVER_FAMILIES:
                continue
            # the scenarios run one job at a time, so even the seconds
            # sums repeat the fold's additions bit for bit
            assert got[name] == want[name], name
            samples = got[name]["samples"]
            if (samples and got[name]["labels"]
                    or any(s.get("value", s.get("count")) for s in samples)):
                reached.add(name)
        log = cluster.job_log
        flat = cluster.metrics.counters_flat()
        assert sum(v for k, v in flat.items()
                   if k.startswith("repro_jobs_total")) == len(log)
        assert flat["repro_job_seconds_count"] == len(log)
        assert flat["repro_sim_events_total"] == cluster.sim.events_executed
    assert sorted(set(families) - set(DRIVER_FAMILIES) - reached) == []
    # the witness counted every row-fed family, so no equality above held
    # between two empty families
    assert [name for name, total in witnessed.items() if total <= 0] == []


def test_abandoned_attempts_count_in_totals_not_in_deltas(capture):
    """The crash scenario reruns a job: its first attempt's chunks are in
    the registry (folded when recovery dropped it) but in no job's
    ``metrics_delta``, which covers final attempts only."""
    (cluster, witness), = [(c, w) for c, w in capture.clusters
                           if c.faults is not None]
    attempts: dict[int, list[int]] = {}
    for ticket, stats in witness.attempts:
        attempts.setdefault(ticket, []).append(len(stats.chunks))
    abandoned = sum(sum(n[:-1]) for n in attempts.values())
    assert abandoned > 0
    total = sum(v for k, v in cluster.metrics.counters_flat().items()
                if k.startswith("repro_chunks_total"))
    in_deltas = sum(v for t in cluster.scheduler.tickets
                    for k, v in t.stats.metrics_delta.items()
                    if k.startswith("repro_chunks_total"))
    assert total == in_deltas + abandoned
    assert in_deltas == sum(n[-1] for n in attempts.values())


def emits_per_hook(graph, faulted: bool = False) -> dict[str, int]:
    """How often each engine hook fires over two pull PageRank iterations
    at M=4 on ``graph``: in memory, or out of core over a fabric that
    drops and duplicates messages."""
    cluster = make_cluster(4, out_of_core=faulted)
    if faulted:
        cluster = PgxdCluster(cluster.config.with_fault_plan(FaultPlan(
            seed=5, drop_prob=0.05, dup_prob=0.05)))
    seen = dict.fromkeys(KNOWN_HOOKS, 0)
    for name in KNOWN_HOOKS:
        cluster.hooks.subscribe(
            name, lambda p, name=name: seen.__setitem__(name, seen[name] + 1))
    pagerank(cluster, cluster.load_graph(graph), "pull", max_iterations=2)
    kinds = {kind.split(":")[0] for _, stats in cluster.job_log
             for *_, kind, _, _ in stats.spans}
    assert {"phase", "barrier", "ghost-reduce"} <= kinds
    if faulted:
        assert {"disk-read", "retry"} <= kinds
    return seen


def test_emission_does_not_grow_with_the_work():
    """Ten times the vertices and edges, so many times the chunks, flushes
    and messages, fire every hook exactly as often."""
    small = emits_per_hook(rmat(400, 3000, seed=21))
    large = emits_per_hook(rmat(4000, 30000, seed=21))
    assert small["job.start"] > 0
    assert large == small


def test_emission_does_not_grow_out_of_core_under_faults():
    """The same out of core over a dropping, duplicating fabric, where
    disk windows, retries and duplicate drops grow with the work too.  An
    injected fault is the plan's own event: its ``fault.inject`` follows
    the plan's draws over the messages."""
    small = emits_per_hook(rmat(400, 3000, seed=21), faulted=True)
    large = emits_per_hook(rmat(4000, 30000, seed=21), faulted=True)
    assert large.pop("fault.inject") > small.pop("fault.inject") > 0
    assert small["job.start"] > 0
    assert large == small
