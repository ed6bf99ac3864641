"""Incremental recompute over mutating graphs, validated against a
full-rerun oracle.

The contract under test (docs/incremental.md):

* incremental SSSP and WCC are **exact** — bit-identical to a full rerun
  on the same epoch's snapshot, for every seeded mutation scenario;
* incremental PageRank matches the full-rerun fixed point within the
  documented tolerance (``pagerank_tolerance``);
* epoch builds patch only the machines whose edge ranges changed, and
  readers holding a pinned epoch keep a consistent view (snapshot
  isolation);
* the delta-fraction fallback swaps in a full rerun, through the same
  loop, when a batch is too large;
* everything is deterministic across schedule-perturbation tie seeds.
"""

import numpy as np
import pytest

from repro.core.incremental import (IncrementalConfig, IncrementalEngine,
                                    hash_weights)
from repro.core.scheduler import JobScheduler, SchedulerConfig
from repro.dynamic import DynamicGraph
from repro.obs.report import incremental_summary, render_overhead_report
from tests.conftest import MutationOracle, make_cluster, pagerank_tolerance


class TestOracleScenarios:
    """Seeded randomized batch sequences, every epoch checked against a
    full rerun on that epoch's snapshot."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sssp_exact_across_scenario(self, mutation_oracle, seed):
        oracle = mutation_oracle(seed=seed)
        for _ in range(3):
            oracle.random_batch(inserts=5, removes=5)
            v = oracle.check("sssp")
            assert v, v.detail
            assert v.max_diff == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wcc_exact_across_scenario(self, mutation_oracle, seed):
        oracle = mutation_oracle(seed=seed)
        for _ in range(3):
            oracle.random_batch(inserts=5, removes=5)
            v = oracle.check("wcc")
            assert v, v.detail
            assert v.max_diff == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pagerank_within_tolerance(self, mutation_oracle, seed):
        oracle = mutation_oracle(seed=seed)
        for _ in range(3):
            oracle.random_batch(inserts=5, removes=5)
            v = oracle.check("pagerank")
            assert v, v.detail
            assert v.max_diff <= pagerank_tolerance(
                oracle.num_nodes, epochs=oracle.engine.epoch)

    def test_small_batches_run_incrementally(self, mutation_oracle):
        oracle = mutation_oracle(seed=3)
        oracle.engine.sssp()   # cold start: full mode, warms the state
        oracle.engine.wcc()
        oracle.engine.pagerank()
        oracle.random_batch(inserts=3, removes=3)
        for algo in ("sssp", "wcc", "pagerank"):
            v = oracle.check(algo)
            assert v, v.detail
            assert v.mode == "incremental"

    def test_incremental_recomputes_far_fewer_vertices(self, mutation_oracle):
        oracle = mutation_oracle(seed=4)
        full = {a: getattr(oracle.engine, a)() for a in ("sssp", "wcc",
                                                         "pagerank")}
        oracle.random_batch(inserts=3, removes=3)
        for algo, cold in full.items():
            warm = getattr(oracle.engine, algo)()
            assert warm.mode == "incremental"
            assert warm.recomputed_vertices * 5 <= cold.recomputed_vertices, \
                (algo, warm.recomputed_vertices, cold.recomputed_vertices)

    def test_insert_then_remove_in_one_batch(self, mutation_oracle):
        """An edge inserted and removed in the same window must leave no
        trace in any warm-started result."""
        oracle = mutation_oracle(seed=5)
        for algo in ("sssp", "wcc", "pagerank"):
            getattr(oracle.engine, algo)()
        oracle.dynamic.add_edge(0, oracle.num_nodes - 1)
        oracle.engine.mutate()
        oracle.dynamic.remove_edge(0, oracle.num_nodes - 1)
        oracle.dynamic.add_edge(1, 2)
        oracle.engine.mutate()
        for algo in ("sssp", "wcc", "pagerank"):
            v = oracle.check(algo)
            assert v, (algo, v.detail)

    def test_remove_only_batches_stay_exact(self, mutation_oracle):
        oracle = mutation_oracle(seed=6)
        oracle.engine.sssp()
        oracle.engine.wcc()
        for _ in range(2):
            oracle.random_batch(inserts=0, removes=8)
            assert oracle.check("sssp"), "sssp diverged on deletions"
            assert oracle.check("wcc"), "wcc diverged on deletions"


class TestEpochBuild:
    """Machine patching and snapshot isolation of the epoch flip."""

    def _engine(self, **kw):
        oracle = MutationOracle(seed=11, **kw)
        return oracle

    def test_unchanged_machines_are_reused(self):
        oracle = self._engine()
        eng = oracle.engine
        old = eng.dg
        # One edge entirely inside machine 0's range: only machine 0
        # (owner of both endpoints) rebuilds.
        lo, hi = old.partitioning.machine_range(0)
        eng.dynamic.add_edge(int(lo), int(min(lo + 1, hi - 1)))
        eng.mutate()
        new = eng.dg
        assert new is not old
        assert new.machines[0].out_csr is not old.machines[0].out_csr
        for i in range(1, len(new.machines)):
            assert new.machines[i].out_csr is old.machines[i].out_csr
            assert new.machines[i].in_csr is old.machines[i].in_csr
        # Pivots and ghost table are adopted verbatim.
        assert new.partitioning is old.partitioning
        assert new.ghost_gids is old.ghost_gids

    def test_pinned_epoch_is_isolated_from_mutations(self):
        oracle = self._engine()
        eng = oracle.engine
        pinned = eng.pin()
        before = eng.sssp().values["dist"].copy()
        oracle.random_batch(inserts=6, removes=6)
        assert eng.pin() is not pinned  # new epoch installed
        # The reader's pinned graph still computes epoch-0 answers.
        from repro.algorithms.sssp import sssp
        again = sssp(oracle.cluster, pinned, root=0).values["dist"]
        np.testing.assert_array_equal(before, again)

    def test_epoch_tracks_dynamic_graph(self):
        oracle = self._engine()
        assert oracle.engine.epoch == 0
        oracle.random_batch()
        assert oracle.engine.epoch == oracle.dynamic.epoch == 1
        oracle.random_batch()
        assert oracle.engine.epoch == 2

    def test_mutation_emits_dynamic_apply_hook(self):
        oracle = self._engine()
        seen = []
        oracle.cluster.hooks.subscribe("dynamic.apply", seen.append)
        oracle.random_batch(inserts=2, removes=1)
        assert len(seen) == 1
        ev = seen[0]
        assert ev["epoch"] == 1
        assert ev["inserted"] == 2 and ev["removed"] == 1
        assert ev["machines_patched"] + ev["machines_reused"] == 4
        assert ev["duration"] > 0.0


CSR_ARRAYS = ("starts", "nbrs", "weights", "nbr_owner", "nbr_offset",
              "nbr_ghost_slot")


def csr_bytes(dg):
    """Every machine's CSR arrays and degree columns, as bytes."""
    return [{(d, name): (None if getattr(m.csr(d), name) is None
                         else (getattr(m.csr(d), name).dtype,
                               getattr(m.csr(d), name).tobytes()))
             for d in ("out", "in") for name in CSR_ARRAYS}
            | {deg: m.props[deg].tobytes()
               for deg in ("out_degree", "in_degree")}
            for m in dg.machines]


def fresh_load(engine):
    """The engine's current multiset loaded from scratch, on the engine's
    pivots and ghost table (which epoch builds carry over)."""
    from repro import from_edges
    from repro.core.engine import DistributedGraph
    src, dst = engine.dynamic.edge_arrays()
    w = None if engine.weight_fn is None else engine.weight_fn(src, dst)
    graph = from_edges(src, dst, num_nodes=engine.dynamic.num_nodes,
                       weights=w)
    dg = engine.pin()
    return DistributedGraph(engine.cluster, graph, dg.partitioning,
                            dg.ghost_gids)


class TestEdgePatch:
    """A patched epoch against a fresh load of the same edge multiset."""

    HUB = 7

    def _engine(self, seed, weighted=True):
        n = 60
        rng = np.random.default_rng([seed, 5])
        edges = [(int(u), int(v)) for u, v in rng.integers(0, n, (150, 2))]
        edges += [(self.HUB, int(v)) for v in rng.integers(0, n, 25)]
        edges += [(int(u), self.HUB) for u in rng.integers(0, n, 25)]
        edges += [(3, 3), (3, 3), (5, 40), (5, 40), (5, 40), (50, 2)]
        engine = IncrementalEngine(
            make_cluster(4, ghost_threshold=8), DynamicGraph(n, edges),
            weight_fn=hash_weights(seed=seed) if weighted else None)
        assert self.HUB in engine.pin().ghost_gids.tolist()
        self.applies = []
        engine.cluster.hooks.subscribe("dynamic.apply", self.applies.append)
        return engine

    def _mutate(self, engine, inserts=(), removes=()):
        """Apply one batch; check the new epoch against a fresh load and
        the pinned old epoch against its own bytes (copy-on-write)."""
        old = engine.pin()
        before = csr_bytes(old)
        for e in inserts:
            engine.dynamic.add_edge(*e)
        for e in removes:
            engine.dynamic.remove_edge(*e)
        engine.mutate()
        assert csr_bytes(old) == before
        assert csr_bytes(engine.pin()) == csr_bytes(fresh_load(engine))
        return old, self.applies[-1]

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_batches_match_a_fresh_load(self, seed, weighted):
        engine = self._engine(seed, weighted)
        rng = np.random.default_rng([seed, 9])
        n = engine.dynamic.num_nodes
        for _ in range(5):
            present = engine.dynamic.edge_list()
            removes = [present[int(i)] for i in rng.choice(
                len(present), size=6, replace=False)]
            removes.append((5, 40))  # one copy of a duplicate
            inserts = [(int(u), int(v)) for u, v in rng.integers(0, n, (6, 2))]
            inserts += [(3, 3), (self.HUB, int(rng.integers(n))),
                        (int(rng.integers(n)), self.HUB), removes[0]]
            inserts += [(9, 11)] * 2  # a fresh duplicate pair
            self._mutate(engine, inserts, removes)
            engine.dynamic.add_edge(5, 40)
            self._mutate(engine, [(5, 40)])

    def test_rows_emptied_and_refilled(self):
        engine = self._engine(4)
        hub_out = [e for e in engine.dynamic.edge_list() if e[0] == self.HUB]
        self._mutate(engine, removes=hub_out)
        assert engine.pin().graph.out_degrees()[self.HUB] == 0
        self._mutate(engine, inserts=hub_out)
        hub_in = [e for e in engine.dynamic.edge_list() if e[1] == self.HUB]
        self._mutate(engine, removes=hub_in, inserts=[(1, 2)])
        self._mutate(engine, inserts=hub_in)

    def test_batch_inside_one_machine_patches_it_alone(self):
        engine = self._engine(5)
        lo, hi = engine.pin().partitioning.machine_range(2)
        old, ev = self._mutate(engine, [(lo, hi - 1), (hi - 1, hi - 1)])
        assert (ev["machines_patched"], ev["machines_reused"]) == (1, 3)
        new = engine.pin()
        for i in (0, 1, 3):
            assert new.machines[i].out_csr is old.machines[i].out_csr
            assert new.machines[i].in_csr is old.machines[i].in_csr

    def test_batch_touching_every_machine(self):
        engine = self._engine(6)
        starts = engine.pin().partitioning.starts
        inserts = [(int(starts[i]), int(starts[(i + 1) % 4]))
                   for i in range(4)]
        _, ev = self._mutate(engine, inserts)
        assert (ev["machines_patched"], ev["machines_reused"]) == (4, 0)

    def test_one_direction_changes_shares_the_other(self):
        engine = self._engine(7)
        part = engine.pin().partitioning
        u, v = int(part.starts[0]), int(part.starts[3])
        old, _ = self._mutate(engine, [(u, v)])
        new = engine.pin()
        assert new.machines[0].out_csr is not old.machines[0].out_csr
        assert new.machines[0].in_csr is old.machines[0].in_csr
        assert new.machines[3].out_csr is old.machines[3].out_csr
        assert new.machines[3].in_csr is not old.machines[3].in_csr

    def test_empty_batch_shares_every_slice(self):
        engine = self._engine(8)
        old, ev = self._mutate(engine)
        assert (ev["machines_patched"], ev["machines_reused"]) == (0, 4)
        for a, b in zip(old.machines, engine.pin().machines):
            assert a is not b  # fresh property columns, queues, caches
            assert a.out_csr is b.out_csr and a.in_csr is b.in_csr


class TestPatchPrice:
    """The epoch build's simulated cost (docs/incremental.md)."""

    @staticmethod
    def engine(graph, machines=4):
        src, dst = graph.edge_list()
        dyn = DynamicGraph(graph.num_nodes,
                           list(zip(src.tolist(), dst.tolist())))
        return IncrementalEngine(make_cluster(machines), dyn,
                                 weight_fn=hash_weights())

    @staticmethod
    def mutate(engine, edges):
        for e in edges:
            engine.dynamic.add_edge(*e)
        return engine.mutate()[1]

    def test_elapsed_is_the_documented_formula(self):
        from repro import rmat
        from repro.core.barrier import barrier_latency
        from repro.core.incremental import BUILD_SECONDS_PER_EDGE, \
            REUSE_SECONDS
        engine = self.engine(rmat(300, 2000, seed=4))
        cfg = engine.cluster.config
        dg = engine.pin()
        owner = dg.partitioning.owner
        u = int(dg.partitioning.starts[1])
        v = int(dg.partitioning.starts[2])
        batch = [(u, v), (u, u), (v, v)]
        # machines 1 and 2 each copy both directions and resolve three
        # inserted half-edges: an out and an in half of their loop, and
        # one half of (u, v)
        inserted = {1: 3, 2: 3}
        assert owner(u) == 1 and owner(v) == 2
        words = 8 + 8 + 4 + 8 + 8  # nbr, weight, owner, offset, slot
        cost = REUSE_SECONDS
        for i, k in inserted.items():
            m = dg.machines[i]
            nbytes = 2 * (8 * (m.n_local + 1)) + words * (
                m.out_csr.num_edges + m.in_csr.num_edges)
            copy = 2.0 * nbytes / cfg.machine_config(i).dram_seq_bw
            cost = max(cost, REUSE_SECONDS + copy
                       + k * BUILD_SECONDS_PER_EDGE)
        t0 = engine.cluster.now
        stats = self.mutate(engine, batch)
        want = (t0 + (cost + barrier_latency(4, cfg.network))) - t0
        assert stats.elapsed == want

    def test_price_never_decreases_as_the_batch_grows(self):
        from repro import rmat
        graph = rmat(400, 3000, seed=5)
        rng = np.random.default_rng(5)
        edges = [(int(u), int(v)) for u, v in rng.integers(0, 400, (40, 2))]
        prices = [self.mutate(self.engine(graph), edges[:k]).elapsed
                  for k in (0, 1, 2, 4, 8, 16, 40)]
        assert prices == sorted(prices), prices

    def test_one_edge_costs_a_tenth_of_a_slice_rebuild(self):
        from repro import rmat
        from repro.core.incremental import BUILD_SECONDS_PER_EDGE, \
            REUSE_SECONDS
        engine = self.engine(rmat(20000, 160000, seed=7))
        dg = engine.pin()
        u, v = 11, 19000
        rebuild = max(
            (m.out_csr.num_edges + m.in_csr.num_edges) / 2.0
            * BUILD_SECONDS_PER_EDGE + REUSE_SECONDS
            for m in dg.machines
            if m.index in {dg.partitioning.owner(u),
                           dg.partitioning.owner(v)})
        stats = self.mutate(engine, [(u, v)])
        assert stats.elapsed <= rebuild / 10, (stats.elapsed, rebuild)


class TestCrashDuringEpochBuild:
    """A machine crash inside a mutation job fails that job cleanly."""

    @staticmethod
    def engine(**engine_kwargs):
        from repro import rmat
        graph = rmat(400, 3000, seed=3)
        src, dst = graph.edge_list()
        dyn = DynamicGraph(400, list(zip(src.tolist(), dst.tolist())))
        return IncrementalEngine(make_cluster(4, **engine_kwargs), dyn,
                                 weight_fn=hash_weights())

    @staticmethod
    def batch(engine, k):
        engine.dynamic.add_edge(k, 399 - k)
        engine.dynamic.remove_edge(*engine.dynamic.edge_list()[10 * k])

    def test_crash_fails_the_mutation_and_the_next_one_repairs(self):
        from repro import FaultPlan, MachineCrashError
        from repro.core.faults import MachineCrash
        quiet = self.engine()
        self.batch(quiet, 1)
        window = quiet.mutate()[1]
        engine = self.engine(fault_plan=FaultPlan(crashes=(MachineCrash(
            machine=1, at=window.start_time + window.elapsed / 2),)))
        self.batch(engine, 1)
        with pytest.raises(MachineCrashError):
            engine.mutate()
        assert engine.epoch == 0 and engine.dynamic.epoch == 1
        ticket = engine.cluster.scheduler.tickets[-1]
        assert ticket.state == "failed"
        # the lost batch is part of the next epoch's delta
        self.batch(engine, 2)
        engine.mutate()
        assert engine.epoch == 2
        assert csr_bytes(engine.pin()) == csr_bytes(fresh_load(engine))
        assert engine.pin().num_edges == engine.dynamic.num_edges


class TestFallback:
    def test_large_delta_falls_back_to_full(self):
        oracle = MutationOracle(seed=21, config=IncrementalConfig(
            full_rerun_fraction=0.01))
        eng = oracle.engine
        eng.sssp(); eng.wcc(); eng.pagerank()
        oracle.random_batch(inserts=30, removes=0)  # 30 > 1% of 700
        for algo in ("sssp", "wcc", "pagerank"):
            v = oracle.check(algo)
            assert v, (algo, v.detail)
            assert v.mode == "full"

    def test_changed_root_forces_full_sssp(self, mutation_oracle):
        oracle = mutation_oracle(seed=22)
        eng = oracle.engine
        eng.sssp(root=0)
        oracle.random_batch(inserts=2, removes=2)
        r = eng.sssp(root=1)
        assert r.mode == "full"
        v = oracle.validate(r, oracle.expected("sssp", root=1))
        assert v, v.detail

    def test_fallback_threshold_is_configurable(self):
        tight = MutationOracle(seed=23, config=IncrementalConfig(
            full_rerun_fraction=1.0))
        tight.engine.wcc()
        tight.random_batch(inserts=30, removes=30)
        assert tight.engine.wcc().mode == "incremental"


class TestSchedulerIntegration:
    """Mutations as first-class scheduler jobs, interleaved with readers."""

    def test_mutation_job_through_scheduler_queue(self):
        oracle = MutationOracle(seed=31)
        eng = oracle.engine
        sched = JobScheduler(oracle.cluster,
                             SchedulerConfig(max_concurrent_jobs=2))
        eng.dynamic.add_edge(1, 2)
        job = eng.stage()
        ticket = sched.submit("mutator", eng, job)
        assert eng.epoch == 0  # queued, not yet applied to the engine
        sched.drain()
        assert ticket.state == "done"
        assert eng.epoch == 1

    def test_mutation_interleaves_with_pinned_reader(self):
        from repro.algorithms import pagerank
        oracle = MutationOracle(seed=32)
        eng = oracle.engine
        sched = JobScheduler(oracle.cluster,
                             SchedulerConfig(max_concurrent_jobs=2))
        reader_dg = eng.pin()
        epoch0_graph = reader_dg.graph
        eng.dynamic.add_edge(2, 3)
        mjob = eng.stage()
        reader = sched.submit_program(
            "reader", reader_dg, pagerank.program(reader_dg, max_iterations=2))
        sched.submit("mutator", eng, mjob)
        sched.drain()
        # Both tenants ran; the mutation's lock token is the engine, not
        # the reader's pinned graph, so neither blocked the other's queue.
        sessions = {s for (_, _, s, _, _, _) in sched.dispatch_log}
        assert sessions == {"reader", "mutator"}
        assert eng.epoch == 1
        # Reader computed on the epoch-0 snapshot (its pin predates the
        # mutation): identical to running the same program alone on a
        # quiet cluster loaded with the epoch-0 graph.
        assert reader_dg is not eng.pin()
        quiet = make_cluster()
        qdg = quiet.load_graph(epoch0_graph)
        np.testing.assert_array_equal(
            reader.result.values["pr"],
            pagerank(quiet, qdg, max_iterations=2).values["pr"])

    def test_serialized_mutations_keep_epoch_order(self):
        oracle = MutationOracle(seed=33)
        eng = oracle.engine
        sched = JobScheduler(oracle.cluster,
                             SchedulerConfig(max_concurrent_jobs=4))
        eng.dynamic.add_edge(1, 2)
        j1 = eng.stage()
        eng.dynamic.add_edge(3, 4)
        j2 = eng.stage()
        sched.submit("mutator", eng, j1)
        sched.submit("mutator", eng, j2)
        sched.drain()
        assert eng.epoch == 2
        # Each build diffed from the installed epoch up to its own, so
        # the serialized builds each applied exactly their own batch.
        assert eng.dg.num_edges == oracle.dynamic.num_edges

    def test_mutation_dispatched_behind_a_later_one(self):
        """Fair share can dispatch epoch 2's job before epoch 1's: the
        late job must neither roll the epoch back nor make the next build
        apply epoch 2's batch twice."""
        oracle = MutationOracle(seed=34)
        eng = oracle.engine
        sched = JobScheduler(oracle.cluster,
                             SchedulerConfig(max_concurrent_jobs=1))
        eng.dynamic.add_edge(1, 2)
        sched.submit("a", eng, eng.stage())
        sched.drain()  # session "a" now has service, "b" has none
        eng.dynamic.add_edge(3, 4)
        j2 = eng.stage()
        eng.dynamic.add_edge(5, 6)
        eng.dynamic.remove_edge(*eng.dynamic.edge_list()[0])
        j3 = eng.stage()
        sched.submit("a", eng, j2)
        sched.submit("b", eng, j3)
        sched.drain()
        assert [job for (_, _, _, job, _, _) in sched.dispatch_log] == [
            "mutate_epoch_1", "mutate_epoch_3", "mutate_epoch_2"]
        assert eng.epoch == 3
        oracle.random_batch(inserts=3, removes=3)
        assert eng.epoch == 4
        assert csr_bytes(eng.pin()) == csr_bytes(fresh_load(eng))


class TestDeterminism:
    """Bit-identical incremental results across schedule tie seeds."""

    def _scenario_values(self, tie_seed):
        oracle = MutationOracle(seed=41)
        if tie_seed is not None:
            oracle.cluster.sim.set_tie_breaker(tie_seed)
        for _ in range(2):
            oracle.random_batch(inserts=4, removes=4)
        return {
            "dist": oracle.engine.sssp().values["dist"],
            "comp": oracle.engine.wcc().values["component"],
            "pr": oracle.engine.pagerank().values["pr"],
        }

    def test_results_identical_across_three_tie_seeds(self):
        base = self._scenario_values(None)
        for seed in (101, 202, 303):
            perturbed = self._scenario_values(seed)
            for key, arr in base.items():
                assert np.array_equal(arr, perturbed[key],
                                      equal_nan=False) or \
                    np.array_equal(np.nan_to_num(arr, posinf=1e30),
                                   np.nan_to_num(perturbed[key], posinf=1e30)), \
                    f"{key} diverged under tie seed {seed}"


class TestObservability:
    def test_incremental_metrics_and_report_row(self):
        oracle = MutationOracle(seed=51)
        oracle.random_batch(inserts=3, removes=2)
        oracle.engine.sssp()
        oracle.engine.wcc()
        summary = incremental_summary(oracle.cluster.metrics)
        assert summary["batches"] == 1
        assert summary["edges_changed"] == 5
        assert summary["machines_patched"] >= 1
        assert summary["runs"] >= 2
        assert summary["apply_seconds"] > 0.0
        report = render_overhead_report(oracle.cluster.metrics)
        assert "dynamic:" in report

    def test_no_mutations_keeps_report_quiet(self):
        cluster = make_cluster()
        report = render_overhead_report(cluster.metrics)
        assert "dynamic:" not in report


class TestWeightsAndErrors:
    def test_sssp_requires_weights(self):
        dyn = DynamicGraph(4, [(0, 1), (1, 2)])
        cluster = make_cluster(num_machines=2)
        eng = IncrementalEngine(cluster, dyn)  # no weight_fn
        with pytest.raises(ValueError, match="weight"):
            eng.sssp()

    def test_hash_weights_deterministic_and_bounded(self):
        fn = hash_weights(0.2, 0.9, seed=5)
        src = np.array([0, 1, 2, 0], dtype=np.int64)
        dst = np.array([1, 2, 3, 1], dtype=np.int64)
        w1, w2 = fn(src, dst), fn(src, dst)
        np.testing.assert_array_equal(w1, w2)
        assert np.all((w1 >= 0.2) & (w1 < 0.9))
        # Different seed, different weights (with overwhelming likelihood).
        assert not np.array_equal(w1, hash_weights(0.2, 0.9, seed=6)(src, dst))

    def test_mutation_job_requires_engine(self):
        from repro.core.job import MutationJob
        with pytest.raises(ValueError):
            MutationJob(name="m")


class TestArrayBackedEpochBuild:
    """The sorted-key edge store against a ``Counter`` multiset model:
    every installed epoch's graph, merged from the previous one's, is
    byte-equal to the always-sort CSR construction over the model's sorted
    edge list."""

    @staticmethod
    def check(engine, model):
        from tests.graph.test_csr import assert_same_bytes, two_lexsort_csr
        dyn = engine.dynamic
        edges = sorted(model.elements())
        assert dyn.edge_list() == edges and dyn.num_edges == len(edges)
        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        w = engine.weight_fn(src, dst) if engine.weight_fn else None
        want = two_lexsort_csr(src, dst, dyn.num_nodes, w)
        assert_same_bytes(engine.pin().graph, want)
        assert_same_bytes(dyn.snapshot(),
                          two_lexsort_csr(src, dst, dyn.num_nodes))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_seeded_batch_streams_match_the_counter_model(self, seed,
                                                          weighted):
        from collections import Counter
        n = 12
        rng = np.random.default_rng([seed, 77])
        base = [(int(u), int(v)) for u, v in rng.integers(0, n, (30, 2))]
        base += [(3, 3), (3, 3), (5, 7), (5, 7), (5, 7)]  # loops, copies
        model = Counter(base)
        dyn = DynamicGraph(n, base)
        engine = IncrementalEngine(
            make_cluster(2), dyn,
            weight_fn=hash_weights(seed=seed) if weighted else None)
        self.check(engine, model)
        for _ in range(6):
            present = sorted(model.elements())
            removes = [present[int(i)] for i in rng.choice(
                len(present), size=min(4, len(present)), replace=False)]
            inserts = [(int(u), int(v)) for u, v in rng.integers(0, n, (4, 2))]
            # the same edge removed and re-inserted by one batch, plus a
            # fresh duplicate pair and a self-loop
            inserts += [removes[0], (1, 1), (2, 9), (2, 9)]
            for e in inserts:
                dyn.add_edge(*e)
            for e in removes:
                dyn.remove_edge(*e)
            model.subtract(removes)
            model.update(inserts)
            model = +model
            engine.mutate()
            self.check(engine, model)

    def test_graph_emptied_and_refilled(self):
        from collections import Counter
        dyn = DynamicGraph(5)
        engine = IncrementalEngine(make_cluster(2), dyn,
                                   weight_fn=hash_weights())
        self.check(engine, Counter())
        for e in ((4, 0), (0, 0), (4, 0)):
            dyn.add_edge(*e)
        engine.mutate()
        self.check(engine, Counter({(4, 0): 2, (0, 0): 1}))
        for e in ((4, 0), (0, 0), (4, 0)):
            dyn.remove_edge(*e)
        engine.mutate()
        self.check(engine, Counter())
