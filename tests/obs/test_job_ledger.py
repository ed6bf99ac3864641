"""Per-ticket metric ledgers against an oracle.

Every job is a scheduler ticket, served or solo.  Its ``stats.metrics_delta``
comes from a sparse ledger: the job's tagged events pass through the one
cluster recorder, and its ``JobStats`` is folded in when it finishes, so the
delta covers its final attempt only.  The oracle rebuilds the same thing
from the outside: capture the cluster bus, bucket events by their
``ticket`` tag (a ``job.start`` opens a new attempt), count each bucket's
payloads and the final attempt's ``JobStats`` rows into a fresh registry
(:mod:`tests.obs.hook_witness`), and add the two job-level series the
scheduler records at completion.
"""

import numpy as np
import pytest

from repro import (EdgeMapJob, EdgeMapSpec, FaultPlan, MachineCrash,
                   PgxdCluster, ReduceOp, rmat, with_uniform_weights)
from repro.algorithms import pagerank, sssp, wcc
from repro.core.incremental import IncrementalEngine, hash_weights
from repro.core.scheduler import DONE, JobScheduler, SchedulerConfig
from repro.dynamic import DynamicGraph
from repro.obs import KNOWN_HOOKS, HookBus, MetricsRecorder
from repro.query import apply_spec, pool_specs
from repro.server import PgxdServer
from tests.conftest import make_cluster
from tests.obs.hook_witness import replay


class TicketOracle:
    """Buckets every cluster-bus event by ticket tag, final attempt only."""

    def __init__(self, cluster):
        self.buckets: dict[int, list] = {}
        for name in KNOWN_HOOKS:
            cluster.hooks.subscribe(
                name, lambda p, name=name: self._capture(name, p))

    def _capture(self, name, payload):
        ticket = payload.get("ticket")
        if ticket is None:
            return
        if name == "job.start":
            self.buckets[ticket] = []
        self.buckets[ticket].append((name, dict(payload)))

    def expected_delta(self, ticket) -> dict:
        registry = replay(self.buckets[ticket.seq], ticket.stats)
        registry.counter("repro_jobs_total", labelnames=("kind",)).labels(
            kind=type(ticket.job).__name__).inc()
        registry.histogram("repro_job_seconds").observe(ticket.stats.elapsed)
        return {k: v for k, v in registry.counters_flat().items() if v != 0.0}

    def check(self, tickets):
        assert tickets
        for ticket in tickets:
            assert ticket.state == DONE
            assert ticket.stats.metrics_delta == self.expected_delta(ticket), \
                (ticket.seq, ticket.job.name)


def served_trace(reads, mutate_every=50):
    """A cached server over a mutating graph taking ``reads`` Zipf-ish
    reads from two sessions; returns (server, oracle)."""
    cluster = make_cluster(2)
    oracle = TicketOracle(cluster)
    server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
        read_burst=float(reads)))
    server.enable_cache()
    graph = rmat(300, 1800, seed=31)
    src, dst = graph.edge_list()
    dyn = DynamicGraph(300, list(zip(src.tolist(), dst.tolist())))
    engine = IncrementalEngine(cluster, dyn, weight_fn=hash_weights(seed=3))
    sessions = [server.create_session(n) for n in ("a", "b")]
    for s in sessions:
        s.attach_graph("g", engine.pin())
    specs = pool_specs(6, seed=31)
    rng = np.random.default_rng(31)
    for i in range(reads):
        if i and i % mutate_every == 0:
            dyn.add_edge(int(rng.integers(300)), int(rng.integers(300)))
            dyn.remove_edge(*dyn.edge_list()[int(rng.integers(dyn.num_edges))])
            engine.mutate(session="a")
            for s in sessions:
                s.attach_graph("g", engine.pin())
        apply_spec(sessions[i % 2].query("g"), specs[int(rng.integers(6))])
    return server, oracle


class TestDeltaAgainstOracle:
    def test_interleaved_pagerank_and_sssp_programs(self):
        cluster = make_cluster(2)
        oracle = TicketOracle(cluster)
        server = PgxdServer(cluster)
        weighted = with_uniform_weights(rmat(200, 1100, seed=22), 0.1, 1.0,
                                        seed=23)
        for name, graph, algorithm, kwargs in (
                ("ranker", rmat(260, 1500, seed=21), pagerank,
                 dict(max_iterations=3)),
                ("pathfinder", weighted, sssp, dict(root=0))):
            s = server.create_session(name)
            s.load_graph("g", graph)
            s.submit_program("g", algorithm, **kwargs)
        server.drain()
        tickets = server.scheduler.tickets
        spans = [(t.session, t.stats.start_time, t.stats.end_time)
                 for t in tickets]
        assert any(s1 < e0 and s0 < e1
                   for i, (n0, s0, e0) in enumerate(spans)
                   for (n1, s1, e1) in spans[i + 1:] if n0 != n1), \
            "programs did not interleave"
        oracle.check(tickets)
        # sched.* events are cluster-level: never in a job's delta
        assert not any(k.startswith("repro_sched_")
                       for t in tickets for k in t.stats.metrics_delta)

    def test_cache_hit_miss_and_mutation_jobs(self):
        server, oracle = served_trace(reads=60, mutate_every=25)
        tickets = server.scheduler.tickets
        kinds = {type(t.job).__name__ for t in tickets}
        assert {"ReadJob", "MutationJob"} <= kinds
        cached = {t.job.cached for t in tickets
                  if type(t.job).__name__ == "ReadJob"}
        assert cached == {True, False}
        oracle.check(tickets)
        hit = next(t for t in tickets if getattr(t.job, "cached", False))
        delta = dict(hit.stats.metrics_delta)
        assert delta.pop("repro_cache_saved_seconds_total") > 0
        assert delta == {
            'repro_cache_requests_total{result="hit"}': 1.0,
            'repro_cache_read_seconds_sum{result="hit"}': hit.job.cost,
            'repro_cache_read_seconds_count{result="hit"}': 1.0,
            'repro_jobs_total{kind="ReadJob"}': 1.0,
            'repro_job_seconds_sum': hit.stats.elapsed,
            'repro_job_seconds_count': 1.0,
        }

    def test_crash_recovered_job_reports_final_attempt_only(self, tmp_path):
        def run(cluster):
            oracle = TicketOracle(cluster)
            sched = JobScheduler(cluster)
            dg = cluster.load_graph(rmat(260, 1500, seed=21))
            if cluster.faults is not None:
                cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
            sched.submit_program("a", dg, pagerank.program(dg,
                                                           max_iterations=3))
            sched.drain()
            return cluster, sched, oracle

        quiet, base_sched, _ = run(make_cluster(2))
        cfg = quiet.config.with_fault_plan(FaultPlan(seed=5, crashes=(
            MachineCrash(machine=1, at=0.4 * quiet.now),)))
        cluster, sched, oracle = run(PgxdCluster(cfg))
        assert cluster.metrics.counters_flat()[
            "repro_job_recoveries_total"] >= 1
        oracle.check(sched.tickets)
        # the re-run job's delta equals the crash-free run's, chunk for
        # chunk: the failed attempt left nothing behind
        for got, want in zip(sched.tickets, base_sched.tickets):
            chunks = {k: v for k, v in got.stats.metrics_delta.items()
                      if k.startswith("repro_chunks_total")}
            assert chunks and chunks == {
                k: v for k, v in want.stats.metrics_delta.items()
                if k.startswith("repro_chunks_total")}

    def test_session_rollups_sum_to_the_scoped_cluster_activity(self):
        server, oracle = served_trace(reads=60, mutate_every=25)
        rollup = server.metrics_rollup()
        assert set(rollup) == {"a", "b"}
        total: dict[str, float] = {}
        for per_session in rollup.values():
            for key, value in per_session.items():
                total[key] = total.get(key, 0.0) + value
        mine = [t for t in server.scheduler.tickets if t.session in rollup]
        tagged = [ev for t in mine for ev in oracle.buckets[t.seq]]
        scoped = replay(tagged, *(t.stats for t in mine)).counters_flat()
        job_level = ("repro_jobs_total", "repro_job_seconds")
        assert {k for k in total if not k.startswith(job_level)} == {
            k for k, v in scoped.items() if v != 0.0}
        flat = server.cluster.metrics.counters_flat()
        for key, value in total.items():
            if not key.startswith(job_level):
                assert value == pytest.approx(scoped[key], rel=1e-12), key
            # nothing a session is charged exceeds what the cluster saw
            assert value <= flat[key] * (1 + 1e-12), key
        # disjoint slices: reads alternate between the two sessions
        hits = 'repro_cache_requests_total{result="hit"}'
        assert rollup["a"][hits] + rollup["b"][hits] == flat[hits]


#: series the cluster records outside any job: never in a job's delta
CLUSTER_LEVEL = ("repro_sim_event", "repro_sched_",
                 "repro_job_recoveries_total")


class TestSoloDeltaAgainstOracle:
    """Plain ``run_job``/``run_jobs``, no server: every job is a ticket of
    the cluster's default scheduler, so the same oracle holds."""

    def test_algorithm_drivers(self):
        cluster = make_cluster(2)
        oracle = TicketOracle(cluster)
        weighted = with_uniform_weights(rmat(260, 1500, seed=21), 0.1, 1.0,
                                        seed=23)
        dg = cluster.load_graph(weighted)
        pagerank(cluster, dg, "pull", max_iterations=3)
        pagerank(cluster, dg, "push", max_iterations=3)
        sssp(cluster, dg, root=0)
        wcc(cluster, dg)
        tickets = cluster.scheduler.tickets
        assert {t.session for t in tickets} == {"driver"}
        assert [s for _, s in cluster.job_log] == [t.stats for t in tickets]
        oracle.check(tickets)
        assert not any(k.startswith(CLUSTER_LEVEL)
                       for t in tickets for k in t.stats.metrics_delta)

    def test_run_jobs_merges_final_attempts(self, tmp_path):
        def run(cluster):
            oracle = TicketOracle(cluster)
            dg = cluster.load_graph(rmat(260, 1500, seed=21))
            dg.add_property("x", init=1.0)
            dg.add_property("t", init=0.0)
            if cluster.faults is not None:
                cluster.enable_auto_checkpoint(dg, tmp_path / "ck.npz")
            jobs = [EdgeMapJob(name=f"pull{i}", spec=EdgeMapSpec(
                direction="pull", source="x", target="t", op=ReduceOp.SUM))
                for i in range(6)]
            merged = cluster.run_jobs(dg, jobs)
            return cluster, merged, oracle

        quiet, base, _ = run(make_cluster(2))
        cfg = quiet.config.with_fault_plan(FaultPlan(seed=5, crashes=(
            MachineCrash(machine=1, at=0.4 * quiet.now),)))
        cluster, merged, oracle = run(PgxdCluster(cfg))
        tickets = cluster.scheduler.tickets
        assert sum(t.recoveries for t in tickets) >= 1
        oracle.check(tickets)
        assert not any(k.startswith(CLUSTER_LEVEL)
                       for k in merged.metrics_delta)
        # the failed attempt left nothing behind: chunk for chunk, the
        # merged delta is the crash-free run's
        chunks = {k: v for k, v in merged.metrics_delta.items()
                  if k.startswith("repro_chunks_total")}
        assert chunks and chunks == {
            k: v for k, v in base.metrics_delta.items()
            if k.startswith("repro_chunks_total")}


class TestServedTraceHostWork:
    def test_one_recorder_and_one_bus_per_cluster_none_per_job(
            self, monkeypatch):
        built = {"recorder": 0, "bus": 0}
        for key, cls in (("recorder", MetricsRecorder), ("bus", HookBus)):
            init = cls.__init__

            def counting(self, *args, _init=init, _key=key, **kwargs):
                built[_key] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        server, _ = served_trace(reads=200)
        assert len(server.scheduler.tickets) >= 200
        # the oracle's replay recorders are built lazily, after this point
        assert built == {"recorder": 1, "bus": 1}

    def test_finished_tickets_drop_their_execution(self):
        server, _ = served_trace(reads=200)
        tickets = server.scheduler.tickets
        assert len(tickets) >= 200
        assert all(t.state == DONE and t.execution is None
                   and t.stats is not None for t in tickets)

    def test_sim_event_counters_track_the_simulator(self):
        # the scheduler attaches before the first event, so "the delta over
        # the trace" is the simulator's own totals
        server, _ = served_trace(reads=40, mutate_every=15)
        sim = server.cluster.sim
        flat = server.cluster.metrics.counters_flat()
        assert sim.events_executed > 0
        assert flat["repro_sim_events_total"] == sim.events_executed
        assert flat["repro_sim_event_pool_hits"] == sim.event_pool_hits
        assert not any("repro_sim_event" in k
                       for t in server.scheduler.tickets
                       for k in t.stats.metrics_delta)
