"""Schedule-perturbation audit harness.

Runs one workload K+1 times: once under the engine's canonical schedule
(insertion-order tie breaking) and K times under seeded permutations of
equal-time events — the only reordering a correct discrete-event engine may
legally experience — then diffs what must not change:

* **property bit patterns** — a SHA-256 fingerprint of every result
  property's raw bytes must be identical across all schedules, solo runs,
  and two-tenant interleaved runs;
* **counted work** — tasks executed, edges processed, and the local/remote
  read/write classification are functions of the data, never of timing;
* **dispatch logs** — each session's dispatch subsequence through the
  PR 4 scheduler is FIFO by construction and must not reorder.

Every run executes with ``EngineConfig.audit`` on, so the conservation
checker (:mod:`repro.audit.invariants`) also sweeps each job; a violation
is captured into the verdict rather than aborting the whole harness.

The negative control proves the auditor has teeth.  For its runs the
harness swaps the ``canonical_apply`` that :mod:`repro.core.jobrunner`
calls for a plain arrival-order ``op.apply_at``, so staged float SUM
contributions reduce in message-timing order, and the scenario passes only
when the perturbed schedules expose the resulting bit divergence.  The
original binding is restored when the scenario finishes, even if a run
raises.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field
from typing import Optional
from unittest import mock

import numpy as np

from ..algorithms.streams import pagerank_stream, sssp_stream, wcc_stream
from ..core import jobrunner
from ..core.engine import PgxdCluster
from ..core.faults import FaultPlan
from ..core.scheduler import JobScheduler, SchedulerConfig
from ..graph.csr import Graph
from ..runtime.config import ClusterConfig
from .invariants import AuditViolation

#: Stats fields that are functions of graph + config alone, never of event
#: timing.  (Message/byte counts are excluded on purpose: flush boundaries
#: move with chunk->worker assignment, so they may differ across legal
#: schedules without any correctness implication.)
INVARIANT_STATS = ("tasks_executed", "edges_processed",
                   "local_reads", "remote_reads",
                   "local_writes", "remote_writes")

#: workload -> (stream builder kwargs key, result properties)
WORKLOADS = ("pagerank", "sssp", "wcc")
RESULT_PROPS = {"pagerank": ("pr",), "sssp": ("dist",), "wcc": ("comp",)}


@dataclass(frozen=True)
class AuditScenario:
    """One cell of the audit matrix: a workload under one engine config."""

    name: str
    workload: str  # "pagerank" | "sssp" | "wcc"
    #: PageRank's direction: "push" reduces its float SUM through ghost
    #: columns and WRITE_REQ staging, "pull" through staged read responses
    variant: str = "pull"
    #: ghost the graph's top degree decile (the harness's graphs are too
    #: small for the configured threshold to ghost anything), so writes
    #: reduce through ghost columns and the post-sync
    ghost_hubs: bool = False
    faults: bool = False
    ghost_privatization: bool = True
    two_tenant: bool = False
    #: the negative control's injected bug: staged remote contributions
    #: reduce in arrival order instead of through ``canonical_apply``
    unsorted_staging: bool = False
    #: stream edge windows from the modeled disk tier — results must stay
    #: bit-identical to the DRAM-resident schedule (streaming only delays
    #: when chunks become runnable, never what they compute)
    out_of_core: bool = False
    #: run the incremental-recompute workload over a mutating graph: a
    #: deterministic batch sequence applied through MutationJobs, then
    #: incremental SSSP/WCC/PageRank — fingerprints must agree across
    #: schedules, and (two_tenant) while a reader of the pinned epoch
    #: interleaves with the mutation jobs
    dynamic: bool = False
    #: run the serving-tier workload: a deterministic read trace (queries +
    #: a cached algorithm) over a mutating graph, once through the result
    #: cache and once fresh — the two fingerprints must agree with each
    #: other and across perturbed schedules (cached answers are
    #: bit-identical to fresh computation, before and after epoch bumps)
    cached: bool = False
    #: True for the negative control: the scenario PASSES when the harness
    #: detects bit divergence (the auditor must catch the broken staging)
    expect_divergence: bool = False

    def engine_overrides(self) -> dict:
        ov = {"audit": True,
              "ghost_privatization": self.ghost_privatization,
              "out_of_core": self.out_of_core}
        if self.out_of_core:
            # Small windows so even the harness's test-sized graphs stream
            # through several activations rather than one resident window.
            ov["ooc_window_edges"] = 2048
        return ov


@dataclass
class ScheduleRun:
    """What one execution under one schedule produced."""

    tie_seed: Optional[int]
    mode: str  # "solo" | "two_tenant"
    #: session -> fingerprint of its result properties
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: session -> {stat: value} over the invariant stat set
    stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: session -> dispatch subsequence (two-tenant runs only)
    dispatch: dict[str, list] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    elapsed: float = 0.0


@dataclass
class ScenarioVerdict:
    """Aggregated comparison across all runs of one scenario."""

    scenario: AuditScenario
    runs: list[ScheduleRun]
    bit_identical: bool
    stats_identical: bool
    dispatch_consistent: bool
    violation_count: int
    diffs: list[str]

    @property
    def passed(self) -> bool:
        clean = (self.stats_identical and self.dispatch_consistent
                 and self.violation_count == 0)
        if self.scenario.expect_divergence:
            # The negative control passes only when the auditor *catches*
            # the divergence the broken staging must produce.
            return clean and not self.bit_identical
        return clean and self.bit_identical

    def as_dict(self) -> dict:
        s = self.scenario
        return {
            "name": s.name,
            "workload": s.workload,
            "config": {"variant": s.variant,
                       "ghost_hubs": s.ghost_hubs,
                       "faults": s.faults,
                       "ghost_privatization": s.ghost_privatization,
                       "two_tenant": s.two_tenant,
                       "unsorted_staging": s.unsorted_staging,
                       "out_of_core": s.out_of_core,
                       "dynamic": s.dynamic,
                       "cached": s.cached},
            "expect_divergence": s.expect_divergence,
            "schedules": len(self.runs),
            "bit_identical": self.bit_identical,
            "stats_identical": self.stats_identical,
            "dispatch_consistent": self.dispatch_consistent,
            "violations": self.violation_count,
            "passed": self.passed,
            "diffs": self.diffs,
        }


def _arrival_order_apply(op, target, rows, vals, cache=None) -> None:
    """Stand-in for ``canonical_apply`` under the negative control: reduce
    in arrival order, so float association follows message timing."""
    op.apply_at(target, rows, vals)


def default_scenarios(schedules_hint: int = 0) -> list[AuditScenario]:
    """The standard audit matrix: PageRank + SSSP through every toggle,
    push PageRank's ghost and write paths, WCC as the exact-operator
    cross-check, one negative control."""
    out: list[AuditScenario] = []
    for wl in ("pagerank", "sssp"):
        out.append(AuditScenario(f"{wl}/baseline", wl, two_tenant=True))
        out.append(AuditScenario(f"{wl}/faults", wl, faults=True,
                                 two_tenant=True))
        out.append(AuditScenario(f"{wl}/no-privatization", wl,
                                 ghost_privatization=False))
        out.append(AuditScenario(f"{wl}/out-of-core", wl, out_of_core=True))
    out.append(AuditScenario("pagerank-push/baseline", "pagerank",
                             variant="push", ghost_hubs=True,
                             two_tenant=True))
    out.append(AuditScenario("pagerank-push/no-privatization", "pagerank",
                             variant="push", ghost_hubs=True,
                             ghost_privatization=False))
    out.append(AuditScenario("wcc/baseline", "wcc"))
    out.append(AuditScenario("wcc/out-of-core", "wcc", out_of_core=True))
    out.append(AuditScenario("dynamic/incremental", "pagerank",
                             dynamic=True, two_tenant=True))
    out.append(AuditScenario("serving/cached-vs-fresh", "pagerank",
                             cached=True))
    out.append(AuditScenario("negative-control/unsorted-staging", "pagerank",
                             unsorted_staging=True, expect_divergence=True))
    return out


class AuditHarness:
    """Runs the audit matrix over one graph and collects verdicts.

    ``graph`` must carry edge weights (SSSP needs them; the others ignore
    them).  ``base_config`` supplies the cluster shape; the harness layers
    each scenario's engine overrides on top.  ``schedules`` is K, the
    number of *perturbed* schedules diffed against the canonical one.
    """

    def __init__(self, graph: Graph, base_config: ClusterConfig,
                 schedules: int = 5, base_seed: int = 7,
                 iterations: int = 3):
        if graph.edge_weights is None:
            raise ValueError("audit harness needs a weighted graph "
                             "(SSSP scenarios relax weighted edges)")
        if schedules < 1:
            raise ValueError("schedules must be >= 1")
        self.graph = graph
        self.base_config = base_config
        self.schedules = schedules
        self.base_seed = base_seed
        self.iterations = iterations
        degrees = np.maximum(graph.in_degrees(), graph.out_degrees())
        #: ghost threshold of ``ghost_hubs`` scenarios
        self.hub_threshold = int(np.percentile(degrees, 90))

    # -- building blocks ---------------------------------------------------

    def _fault_plan(self) -> FaultPlan:
        return FaultPlan(seed=self.base_seed, drop_prob=0.02, dup_prob=0.02,
                         delay_prob=0.05, delay_seconds=2e-4,
                         copier_stall_prob=0.02, copier_stall_seconds=50e-6)

    def _cluster(self, scenario: AuditScenario,
                 tie_seed: Optional[int]) -> PgxdCluster:
        overrides = scenario.engine_overrides()
        if scenario.faults:
            overrides["fault_plan"] = self._fault_plan()
        if scenario.ghost_hubs:
            overrides["ghost_threshold"] = self.hub_threshold
        cluster = PgxdCluster(self.base_config.with_engine(**overrides))
        if tie_seed is not None:
            cluster.sim.set_tie_breaker(tie_seed)
        return cluster

    def _stream(self, workload: str, dg, variant: str = "pull") -> list:
        if workload == "pagerank":
            return pagerank_stream(dg, iterations=self.iterations,
                                   variant=variant)
        if workload == "sssp":
            return sssp_stream(dg, rounds=self.iterations)
        if workload == "wcc":
            return wcc_stream(dg, rounds=self.iterations)
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")

    @staticmethod
    def _other_workload(workload: str) -> str:
        """The second tenant runs a *different* algorithm, maximizing
        cross-tenant traffic diversity on the shared fabric."""
        return "sssp" if workload != "sssp" else "pagerank"

    @staticmethod
    def _fingerprint(dg, props: tuple[str, ...]) -> str:
        h = hashlib.sha256()
        for p in props:
            arr = np.ascontiguousarray(dg.gather(p))
            h.update(p.encode())
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    @staticmethod
    def _invariant_stats(stats_list) -> dict[str, int]:
        out = {k: 0 for k in INVARIANT_STATS}
        for st in stats_list:
            for k in INVARIANT_STATS:
                out[k] += int(getattr(st, k))
        return out

    # -- single runs -------------------------------------------------------

    def _run_solo(self, scenario: AuditScenario,
                  tie_seed: Optional[int]) -> ScheduleRun:
        run = ScheduleRun(tie_seed=tie_seed, mode="solo")
        cluster = self._cluster(scenario, tie_seed)
        dg = cluster.load_graph(self.graph)
        jobs = self._stream(scenario.workload, dg, scenario.variant)
        stats = []
        try:
            for job in jobs:
                stats.append(cluster.run_job(dg, job))
        except AuditViolation as av:
            run.violations.extend(av.violations)
        run.fingerprints["solo"] = self._fingerprint(
            dg, RESULT_PROPS[scenario.workload])
        run.stats["solo"] = self._invariant_stats(stats)
        run.elapsed = cluster.sim.now
        return run

    def _run_two_tenant(self, scenario: AuditScenario,
                        tie_seed: Optional[int]) -> ScheduleRun:
        run = ScheduleRun(tie_seed=tie_seed, mode="two_tenant")
        cluster = self._cluster(scenario, tie_seed)
        dg_a = cluster.load_graph(self.graph)
        dg_b = cluster.load_graph(self.graph)
        other = self._other_workload(scenario.workload)
        jobs_a = self._stream(scenario.workload, dg_a, scenario.variant)
        jobs_b = self._stream(other, dg_b)
        sched = JobScheduler(cluster,
                             SchedulerConfig(max_concurrent_jobs=2))
        tickets_a = sched.submit_many("tenantA", dg_a, jobs_a)
        tickets_b = sched.submit_many("tenantB", dg_b, jobs_b)
        try:
            sched.drain()
        except AuditViolation as av:
            run.violations.extend(av.violations)
        run.fingerprints["tenantA"] = self._fingerprint(
            dg_a, RESULT_PROPS[scenario.workload])
        run.fingerprints["tenantB"] = self._fingerprint(
            dg_b, RESULT_PROPS[other])
        run.stats["tenantA"] = self._invariant_stats(
            [t.stats for t in tickets_a if t.stats is not None])
        run.stats["tenantB"] = self._invariant_stats(
            [t.stats for t in tickets_b if t.stats is not None])
        run.dispatch["tenantA"] = sched.dispatch_log_for("tenantA")
        run.dispatch["tenantB"] = sched.dispatch_log_for("tenantB")
        run.elapsed = cluster.sim.now
        return run

    def _dynamic_engine(self, cluster):
        """A DynamicGraph + IncrementalEngine seeded from the audit graph.

        The batch sequence is derived from ``base_seed`` only — the same
        mutations replay under every tie seed, so any fingerprint drift is
        the engine's fault, never the scenario generator's.
        """
        from ..core.incremental import IncrementalEngine, hash_weights
        from ..dynamic import DynamicGraph

        g = self.graph
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.out_starts))
        edges = list(zip(src.tolist(), g.out_nbrs.tolist()))
        dyn = DynamicGraph(g.num_nodes, edges)
        eng = IncrementalEngine(cluster, dyn,
                                weight_fn=hash_weights(seed=self.base_seed))
        return eng

    def _dynamic_batches(self, eng, rounds: int = 2,
                         inserts: int = 4, removes: int = 4):
        """Queue ``rounds`` deterministic batches; yields after each queue
        so the caller decides how the batch runs (inline vs scheduler)."""
        rng = np.random.default_rng(self.base_seed)
        n = eng.dynamic.num_nodes
        for _ in range(rounds):
            existing = eng.dynamic.edge_list()
            seen = set()
            for i in rng.choice(len(existing), size=min(removes,
                                                        len(existing)),
                                replace=False):
                e = existing[i]
                if e not in seen:
                    seen.add(e)
                    eng.dynamic.remove_edge(*e)
            for _ in range(inserts):
                eng.dynamic.add_edge(int(rng.integers(n)),
                                     int(rng.integers(n)))
            yield

    @staticmethod
    def _fingerprint_arrays(arrays: dict[str, np.ndarray]) -> str:
        h = hashlib.sha256()
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def _run_dynamic(self, scenario: AuditScenario,
                     tie_seed: Optional[int],
                     two_tenant: bool) -> ScheduleRun:
        run = ScheduleRun(tie_seed=tie_seed,
                          mode="dynamic_two_tenant" if two_tenant
                          else "dynamic_solo")
        cluster = self._cluster(scenario, tie_seed)
        eng = self._dynamic_engine(cluster)
        try:
            # Warm the per-algorithm state on epoch 0 so the post-batch
            # runs exercise the incremental path, not a cold full rerun.
            eng.sssp(root=0)
            eng.wcc()
            eng.pagerank()
            if two_tenant:
                sched = JobScheduler(cluster,
                                     SchedulerConfig(max_concurrent_jobs=2))
                reader_dg = eng.pin()
                jobs = self._stream(scenario.workload, reader_dg)
                sched.submit_many("reader", reader_dg, jobs)
                for _ in self._dynamic_batches(eng):
                    sched.submit("mutator", eng, eng.stage())
                sched.drain()
                run.fingerprints["tenantB"] = self._fingerprint(
                    reader_dg, RESULT_PROPS[scenario.workload])
                run.dispatch["reader"] = sched.dispatch_log_for("reader")
                run.dispatch["mutator"] = sched.dispatch_log_for("mutator")
            else:
                for _ in self._dynamic_batches(eng):
                    eng.mutate()
            results = [eng.sssp(root=0), eng.wcc(), eng.pagerank()]
        except AuditViolation as av:
            run.violations.extend(av.violations)
            run.elapsed = cluster.sim.now
            return run
        key = "tenantA" if two_tenant else "solo"
        run.fingerprints[key] = self._fingerprint_arrays(
            {f"{r.algo}:{k}": v for r in results
             for k, v in r.values.items()})
        run.stats[key] = {
            "epoch": int(eng.epoch),
            **{f"{r.algo}_iterations": int(r.iterations) for r in results},
            **{f"{r.algo}_recomputed": int(r.recomputed_vertices)
               for r in results},
        }
        run.elapsed = cluster.sim.now
        return run

    def _run_cached(self, scenario: AuditScenario,
                    tie_seed: Optional[int]) -> ScheduleRun:
        """Serving-tier equality: the same deterministic read trace runs
        once through the result cache and once fresh.

        The cache-on outputs land under the ``solo`` fingerprint key and
        the cache-off outputs under ``tenantA`` — the verdict's own-key
        comparison then enforces both cache-on/off bit-identity *and*
        identity across perturbed schedules in one sweep.  The trace
        interleaves repeated query passes (second pass hits when cached),
        a cached algorithm lookup, and one mutation epoch bump, so stale
        serving after invalidation would flip the fingerprint.
        """
        from ..algorithms import pagerank
        from ..query import apply_spec
        from ..server import PgxdServer

        run = ScheduleRun(tie_seed=tie_seed, mode="cached_vs_fresh")
        specs = [("count", 2, 0), ("sum", 1, 0), ("max", 1, 0),
                 ("top", 2, 8)]
        for key, use_cache in (("solo", True), ("tenantA", False)):
            cluster = self._cluster(scenario, tie_seed)
            server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
                max_concurrent_jobs=2))
            if use_cache:
                server.enable_cache()
            eng = self._dynamic_engine(cluster)
            sess = server.create_session("reader")
            sess.attach_graph("g", eng.pin())
            outputs: list[np.ndarray] = []

            def read_pass():
                for spec in specs:
                    out = apply_spec(sess.query("g"), spec)
                    if isinstance(out, list):
                        outputs.append(np.array([r[0] for r in out],
                                                dtype=np.int64))
                        outputs.append(np.array(
                            [r[1]["out_degree"] for r in out],
                            dtype=np.float64))
                    else:
                        outputs.append(np.array([float(out)]))

            def algo_pass():
                r = sess.run_cached("g", pagerank,
                                    max_iterations=self.iterations)
                outputs.append(np.array(r.values["pr"]))

            try:
                read_pass()
                read_pass()      # second pass: served from cache when on
                algo_pass()
                algo_pass()
                for _ in self._dynamic_batches(eng, rounds=1):
                    eng.mutate(session="mutator")
                sess.attach_graph("g", eng.pin())
                read_pass()      # post-epoch: stale entries must be gone
                read_pass()
                algo_pass()
            except AuditViolation as av:
                run.violations.extend(av.violations)
                run.elapsed = cluster.sim.now
                return run
            run.fingerprints[key] = self._fingerprint_arrays(
                {f"out{i:03d}": arr for i, arr in enumerate(outputs)})
            cache = server.cache
            run.stats[key] = {
                "reads": int(sess.usage.jobs_run),
                "epoch": int(eng.epoch),
                "cache_hits": int(cache.hits) if cache else 0,
                "cache_misses": int(cache.misses) if cache else 0,
                "cache_evictions": int(cache.evictions) if cache else 0,
            }
            run.elapsed = cluster.sim.now
        return run

    # -- scenario driver ---------------------------------------------------

    def tie_seeds(self) -> list[Optional[int]]:
        """The canonical schedule (None) followed by K perturbation seeds."""
        return [None] + [self.base_seed * 1000 + i
                         for i in range(1, self.schedules + 1)]

    def run_scenario(self, scenario: AuditScenario) -> ScenarioVerdict:
        runs: list[ScheduleRun] = []
        staging = (mock.patch.object(jobrunner, "canonical_apply",
                                     _arrival_order_apply)
                   if scenario.unsorted_staging else contextlib.nullcontext())
        with staging:
            for seed in self.tie_seeds():
                if scenario.cached:
                    runs.append(self._run_cached(scenario, seed))
                elif scenario.dynamic:
                    runs.append(self._run_dynamic(scenario, seed,
                                                  two_tenant=False))
                    if scenario.two_tenant:
                        runs.append(self._run_dynamic(scenario, seed,
                                                      two_tenant=True))
                else:
                    runs.append(self._run_solo(scenario, seed))
                    if scenario.two_tenant:
                        runs.append(self._run_two_tenant(scenario, seed))
        return self._verdict(scenario, runs)

    def _verdict(self, scenario: AuditScenario,
                 runs: list[ScheduleRun]) -> ScenarioVerdict:
        diffs: list[str] = []

        # Bit identity: every fingerprint of the scenario's own workload —
        # solo across schedules, and tenant A interleaved — must agree; so
        # must tenant B's across its runs.
        own = [(r.tie_seed, r.mode, fp) for r in runs
               for key, fp in r.fingerprints.items()
               if key in ("solo", "tenantA")]
        other = [(r.tie_seed, fp) for r in runs
                 for key, fp in r.fingerprints.items() if key == "tenantB"]
        bit_identical = len({fp for _, _, fp in own}) <= 1
        if not bit_identical:
            base = own[0]
            for seed, mode, fp in own[1:]:
                if fp != base[2]:
                    diffs.append(
                        f"bit-diff: {mode} tie_seed={seed} fingerprint "
                        f"{fp[:16]} != canonical {base[2][:16]}")
        if len({fp for _, fp in other}) > 1:
            bit_identical = False
            diffs.append("bit-diff: second tenant's results diverged "
                         "across schedules")

        # Counted-work identity, per tenant key.
        stats_identical = True
        for key in ("solo", "tenantA", "tenantB"):
            seen = [(r.tie_seed, r.stats[key]) for r in runs
                    if key in r.stats]
            if not seen:
                continue
            base_stats = seen[0][1]
            for seed, st in seen[1:]:
                if st != base_stats:
                    stats_identical = False
                    delta = {k: (base_stats[k], st[k]) for k in st
                             if st[k] != base_stats[k]}
                    diffs.append(f"stat-diff: {key} tie_seed={seed} "
                                 f"{delta}")

        # Dispatch-log consistency: per-session FIFO subsequences.
        dispatch_consistent = True
        for key in ("tenantA", "tenantB", "reader", "mutator"):
            seen = [(r.tie_seed, r.dispatch[key]) for r in runs
                    if key in r.dispatch]
            if not seen:
                continue
            base_disp = seen[0][1]
            for seed, disp in seen[1:]:
                if disp != base_disp:
                    dispatch_consistent = False
                    diffs.append(f"dispatch-diff: {key} tie_seed={seed} "
                                 "reordered its own FIFO subsequence")

        violation_count = sum(len(r.violations) for r in runs)
        for r in runs:
            for v in r.violations[:3]:
                diffs.append(f"violation: {v.get('invariant')} "
                             f"({v.get('detail')}) at tie_seed={r.tie_seed}")
        return ScenarioVerdict(scenario=scenario, runs=runs,
                               bit_identical=bit_identical,
                               stats_identical=stats_identical,
                               dispatch_consistent=dispatch_consistent,
                               violation_count=violation_count,
                               diffs=diffs)

    def run(self, scenarios: Optional[list[AuditScenario]] = None,
            progress=None) -> dict:
        """Run the matrix; returns the JSON-ready verdict document."""
        scenarios = scenarios if scenarios is not None else default_scenarios()
        verdicts = []
        for sc in scenarios:
            if progress is not None:
                progress(sc)
            verdicts.append(self.run_scenario(sc))
        negative = [v for v in verdicts if v.scenario.expect_divergence]
        return {
            "schedules": self.schedules,
            "base_seed": self.base_seed,
            "iterations": self.iterations,
            "scenarios": [v.as_dict() for v in verdicts],
            "negative_control_flagged": bool(negative) and all(
                not v.bit_identical for v in negative),
            "passed": all(v.passed for v in verdicts),
        }
