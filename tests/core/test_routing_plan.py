"""Routing-plan cache: plan correctness, hit accounting, and the guarantee
that caching is invisible to results, modeled work, and simulated time —
a run that keeps its plans matches one that rebuilds every chunk's plan
(``plan_cache_max_bytes=0``) in every observable."""

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat, with_uniform_weights
from repro.algorithms import pagerank, sssp, wcc
from repro.core.routing_plan import (ChunkPlan, RoutingPlanCache,
                                     stable_owner_order)
from repro.runtime.config import EngineConfig
from tests.conftest import make_cluster


def plan_cluster(keep_plans, **engine_kwargs):
    """A 3-machine cluster that keeps its routing plans (the default
    capacity) or rebuilds every chunk's plan (capacity 0)."""
    max_bytes = EngineConfig().plan_cache_max_bytes if keep_plans else 0
    return make_cluster(3, 30, plan_cache_max_bytes=max_bytes,
                        **engine_kwargs)


def run_pagerank(graph, keep_plans, iterations=4, variant="pull"):
    cluster = plan_cluster(keep_plans)
    dg = cluster.load_graph(graph)
    res = pagerank(cluster, dg, variant=variant, max_iterations=iterations)
    return cluster, dg, res


class TestChunkPlanFields:
    @pytest.fixture
    def machine(self, small_rmat):
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(small_rmat)
        return dg.machines[0]

    def test_plan_matches_direct_computation(self, machine):
        csr = machine.out_csr
        lo, hi = 0, machine.n_local
        plan = ChunkPlan(csr, lo, hi, ghost_ok=True,
                         machine_index=machine.index, num_machines=3)
        es, ee = int(csr.starts[lo]), int(csr.starts[hi])
        rows = np.repeat(np.arange(lo, hi), np.diff(csr.starts[lo:hi + 1]))
        assert np.array_equal(plan.rows, rows)
        owners = csr.nbr_owner[es:ee]
        is_local = owners == machine.index
        is_ghost = (~is_local) & (csr.nbr_ghost_slot[es:ee] >= 0)
        assert np.array_equal(plan.local_idx, np.nonzero(is_local)[0])
        assert np.array_equal(plan.ghost_idx, np.nonzero(is_ghost)[0])
        assert np.array_equal(np.sort(plan.remote_idx),
                              np.nonzero(~(is_local | is_ghost))[0])
        assert plan.n_local + plan.n_ghost + plan.n_remote == plan.n_edges

    def test_remote_order_is_stable_owner_sort(self, machine):
        csr = machine.out_csr
        plan = ChunkPlan(csr, 0, machine.n_local, ghost_ok=False,
                         machine_index=machine.index, num_machines=3)
        es, ee = int(csr.starts[0]), int(csr.starts[machine.n_local])
        owners = csr.nbr_owner[es:ee]
        rem = np.nonzero(owners != machine.index)[0]
        expected = rem[np.argsort(owners[rem], kind="stable")]
        assert np.array_equal(plan.remote_idx, expected)
        # per-destination bounds slice a sorted-by-owner array
        sorted_owners = owners[plan.remote_idx]
        for dst in range(3):
            b0, b1 = plan.bounds[dst], plan.bounds[dst + 1]
            assert (sorted_owners[b0:b1] == dst).all()

    def test_ghost_ok_false_has_no_ghost_class(self, machine):
        plan = ChunkPlan(machine.out_csr, 0, machine.n_local, ghost_ok=False,
                         machine_index=machine.index, num_machines=3)
        assert plan.n_ghost == 0
        assert len(plan.ghost_idx) == 0

    def test_weight_split_memoizes(self, machine):
        csr = machine.out_csr
        data = np.arange(csr.num_edges, dtype=np.float64)
        plan = ChunkPlan(csr, 0, machine.n_local, ghost_ok=True,
                         machine_index=machine.index, num_machines=3)
        first = plan.weight_split("k", data)
        assert plan.weight_split("k", data) is first
        w_local, _, w_remote = first
        assert np.array_equal(w_local, data[plan.es:plan.ee][plan.local_idx])
        assert np.array_equal(w_remote, data[plan.es:plan.ee][plan.remote_idx])

    @pytest.mark.parametrize("ghost_ok", [True, False])
    def test_kept_matches_classifying_the_masked_edges(self, machine,
                                                       ghost_ok):
        """What a filter keeps of a plan, against deriving it from scratch:
        mask first, then classify and stable-sort by owner."""
        csr = machine.out_csr
        plan = ChunkPlan(csr, 0, machine.n_local, ghost_ok=ghost_ok,
                         machine_index=machine.index, num_machines=3)
        owners = csr.nbr_owner[plan.es:plan.ee]
        offsets = csr.nbr_offset[plan.es:plan.ee]
        is_local = owners == machine.index
        is_ghost = ((~is_local) & (csr.nbr_ghost_slot[plan.es:plan.ee] >= 0)
                    if ghost_ok else np.zeros(plan.n_edges, dtype=bool))
        is_remote = ~(is_local | is_ghost)
        rng = np.random.default_rng(3)
        for density in (0.0, 0.02, 0.5, 1.0):
            act = rng.random(plan.n_nodes) < density
            edge_mask = np.repeat(act, plan.degrees)
            local, ghost, remote, runs = plan.kept(edge_mask)
            edges = np.nonzero(edge_mask)[0]
            assert np.array_equal(plan.local_idx[local],
                                  edges[is_local[edges]])
            assert np.array_equal(plan.ghost_idx[ghost],
                                  edges[is_ghost[edges]])
            rem = edges[is_remote[edges]]
            rem = rem[np.argsort(owners[rem], kind="stable")]
            assert np.array_equal(plan.remote_idx[remote], rem)
            bounds = np.searchsorted(owners[rem], np.arange(4))
            assert [(dst, b0, b1) for dst, b0, b1, _, _ in runs] == [
                (dst, bounds[dst], bounds[dst + 1]) for dst in range(3)
                if bounds[dst + 1] > bounds[dst]]
            for dst, b0, b1, run_offsets, run_rows in runs:
                assert np.array_equal(run_offsets, offsets[rem[b0:b1]])
                assert np.array_equal(run_rows, plan.rows[rem[b0:b1]])


class TestStableOwnerOrder:
    @pytest.mark.parametrize("num_machines", [2, 4, 16, 300])
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_same_permutation_as_int32_sort(self, num_machines, n):
        """Narrow-dtype keys change the sort algorithm, not its answer."""
        owners = np.random.default_rng(num_machines + n).integers(
            0, num_machines, size=n).astype(np.int32)
        assert np.array_equal(stable_owner_order(owners, num_machines),
                              np.argsort(owners, kind="stable"))

    def test_machine_counts_past_16_bits_sort_as_given(self):
        owners = np.array([70000, 3, 70000, 65536, 3], dtype=np.int32)
        assert np.array_equal(stable_owner_order(owners, 70001),
                              [1, 4, 3, 0, 2])


class TestCacheBehavior:
    def test_lookup_hits_after_miss(self, small_rmat):
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(small_rmat)
        m = dg.machines[0]
        cache = RoutingPlanCache()
        p1, hit1 = cache.lookup(m.out_csr, "out", 0, 10, True, m.index, 3)
        p2, hit2 = cache.lookup(m.out_csr, "out", 0, 10, True, m.index, 3)
        assert (hit1, hit2) == (False, True)
        assert p2 is p1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_do_not_collide(self, small_rmat):
        cluster = make_cluster(3, 30)
        m = cluster.load_graph(small_rmat).machines[0]
        cache = RoutingPlanCache()
        cache.lookup(m.out_csr, "out", 0, 10, True, m.index, 3)
        _, hit = cache.lookup(m.out_csr, "out", 0, 10, False, m.index, 3)
        assert not hit
        _, hit = cache.lookup(m.in_csr, "in", 0, 10, True, m.index, 3)
        assert not hit
        assert len(cache) == 3

    def test_max_bytes_zero_rejects_but_still_serves(self, small_rmat):
        cluster = make_cluster(3, 30)
        m = cluster.load_graph(small_rmat).machines[0]
        cache = RoutingPlanCache(max_bytes=0)
        plan, hit = cache.lookup(m.out_csr, "out", 0, 10, True, m.index, 3)
        assert plan is not None and not hit
        assert cache.rejected == 1 and len(cache) == 0
        _, hit = cache.lookup(m.out_csr, "out", 0, 10, True, m.index, 3)
        assert not hit  # rebuilt, never stored

    def test_engine_populates_machine_caches(self, small_rmat):
        cluster, dg, _ = run_pagerank(small_rmat, keep_plans=True)
        for m in dg.machines:
            assert m.plan_cache.hits > 0
            assert len(m.plan_cache) > 0

    def test_cache_disabled_stays_empty(self, small_rmat):
        """Capacity 0: every chunk builds its plan and none is kept."""
        cluster, dg, _ = run_pagerank(small_rmat, keep_plans=False)
        for m in dg.machines:
            cache = m.plan_cache
            assert len(cache) == 0 and cache.nbytes == 0
            assert cache.hits == 0
            assert cache.misses > 0 and cache.rejected == cache.misses


class TestCacheIsInvisible:
    """Identical results AND identical simulated behavior whether plans are
    kept or rebuilt every chunk — the cache is wall-clock-only."""

    def test_pagerank_pull_bit_identical(self, small_rmat):
        _, _, on = run_pagerank(small_rmat, True)
        _, _, off = run_pagerank(small_rmat, False)
        assert np.array_equal(on.values["pr"], off.values["pr"])
        assert on.total_time == off.total_time
        assert on.per_iteration == off.per_iteration

    def test_pagerank_push_bit_identical(self, small_rmat):
        _, _, on = run_pagerank(small_rmat, True, variant="push")
        _, _, off = run_pagerank(small_rmat, False, variant="push")
        assert np.array_equal(on.values["pr"], off.values["pr"])
        assert on.total_time == off.total_time

    def test_sssp_active_filter_bit_identical(self, small_rmat_weighted):
        def run(flag):
            cluster = plan_cluster(flag)
            dg = cluster.load_graph(small_rmat_weighted)
            return sssp(cluster, dg, root=0, max_iterations=30)
        on, off = run(True), run(False)
        assert np.array_equal(on.values["dist"], off.values["dist"])
        assert on.total_time == off.total_time

    def test_wcc_bit_identical(self, small_rmat):
        def run(flag):
            cluster = plan_cluster(flag)
            dg = cluster.load_graph(small_rmat)
            return wcc(cluster, dg, max_iterations=50)
        on, off = run(True), run(False)
        assert np.array_equal(on.values["component"], off.values["component"])
        assert on.total_time == off.total_time

    def test_weighted_pull_bit_identical(self, small_rmat_weighted):
        _, _, on = run_pagerank(small_rmat_weighted, True)
        _, _, off = run_pagerank(small_rmat_weighted, False)
        assert np.array_equal(on.values["pr"], off.values["pr"])
        assert on.total_time == off.total_time


FILTERS = ("none", "one_row", "all_but_one", "all", "sparse", "half")


def make_filter(kind: str, n: int, rng) -> np.ndarray:
    if kind == "none":
        return np.zeros(n, dtype=bool)
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "one_row":
        act = np.zeros(n, dtype=bool)
        act[rng.integers(n)] = True
        return act
    if kind == "all_but_one":
        act = np.ones(n, dtype=bool)
        act[rng.integers(n)] = False
        return act
    return rng.random(n) < (0.03 if kind == "sparse" else 0.5)


WORK_COUNTERS = ("tasks_executed", "edges_processed", "remote_reads",
                 "remote_writes", "local_reads", "local_writes",
                 "atomic_ops", "messages")


def run_filtered_jobs(graph, keep_plans, direction, weighted, privatize, op):
    """One filtered edge-map job per filter kind (twice, so the second run
    hits the kept plans) on a 3-machine cluster; returns everything a kept
    plan must leave untouched."""
    cluster = plan_cluster(keep_plans, chunk_size=64,
                           ghost_privatization=privatize)
    dg = cluster.load_graph(graph)
    n = dg.num_nodes
    rng = np.random.default_rng(17)
    flushes = []
    cluster.hooks.subscribe("comm.flush", lambda p: flushes.append(
        (p["machine"], p["worker"], p["kind"], p["dst"], p["items"])))
    dg.add_property("x")
    dg.add_property("t")
    dg.add_property("active", dtype=bool, init=False)
    job = EdgeMapJob(name="filtered", spec=EdgeMapSpec(
        direction=direction, source="x", target="t", op=op,
        transform=(lambda vals, w: vals + w) if weighted else None,
        use_weights=weighted, active="active"))
    out = []
    for kind in FILTERS:
        for _ in range(2):
            dg.set_from_global("x", rng.random(n))
            dg.set_from_global("t", np.full(n, op.bottom(np.float64)))
            dg.set_from_global("active", make_filter(kind, n, rng))
            del flushes[:]
            stats = cluster.run_job(dg, job)
            out.append({
                "filter": kind,
                "t": dg.gather("t").tobytes(),
                "start": stats.start_time, "end": stats.end_time,
                "counters": {k: getattr(stats, k) for k in WORK_COUNTERS},
                "bytes": dict(stats.bytes_by_kind),
                "flushes": list(flushes)})
    return dg, out


class TestMaskedPlannedPath:
    """A filtered chunk subsets its plan (:meth:`ChunkPlan.kept`); a kept
    plan, masked, must match a plan rebuilt for that chunk
    (``plan_cache_max_bytes=0``) in every observable."""

    @pytest.fixture(scope="class")
    def graph(self):
        return with_uniform_weights(rmat(300, 2400, seed=5), 0.1, 1.0, seed=9)

    @pytest.mark.parametrize("op", [ReduceOp.MIN, ReduceOp.SUM],
                             ids=lambda o: o.value)
    @pytest.mark.parametrize("privatize", [True, False],
                             ids=["private", "shared"])
    @pytest.mark.parametrize("weighted", [True, False],
                             ids=["weighted", "unweighted"])
    @pytest.mark.parametrize("direction", ["pull", "push"])
    def test_matches_generic_path(self, graph, direction, weighted,
                                  privatize, op):
        dg, kept = run_filtered_jobs(graph, True, direction, weighted,
                                     privatize, op)
        rdg, rebuilt = run_filtered_jobs(graph, False, direction, weighted,
                                         privatize, op)
        assert all(m.plan_cache.hits > 0 for m in dg.machines)
        assert all(m.plan_cache.hits == 0 for m in rdg.machines)
        for got, want in zip(kept, rebuilt):
            for field in want:
                assert got[field] == want[field], (want["filter"], field)
        moved = {run["filter"] for run in rebuilt if run["flushes"]}
        assert moved == set(FILTERS) - {"none"}

    def test_sssp_and_wcc_supersteps_identical(self, graph):
        def run(flag):
            cluster = plan_cluster(flag)
            dg = cluster.load_graph(graph)
            return (sssp(cluster, dg, root=0, max_iterations=30),
                    wcc(cluster, dg, max_iterations=50))
        for on, off, prop in zip(run(True), run(False),
                                 ("dist", "component")):
            assert on.values[prop].tobytes() == off.values[prop].tobytes()
            assert on.total_time == off.total_time
            assert on.per_iteration == off.per_iteration


class TestSortedElementsProxy:
    """``StageOrderCache.sorted_elements`` — a host-work proxy that repeats
    bit for bit, where host seconds drift by tens of percent."""

    def test_min_workloads_never_sort_and_float_sum_does(self):
        graph = with_uniform_weights(rmat(400, 3200, seed=7), 0.1, 1.0,
                                     seed=8)
        cluster = make_cluster(4, 30)
        dg = cluster.load_graph(graph)
        res = sssp(cluster, dg, root=0, max_iterations=40)
        assert np.isfinite(res.values["dist"]).sum() > 100
        wcc(cluster, dg, max_iterations=50)
        assert [m.stage_cache.sorted_elements for m in dg.machines] == [0] * 4
        stats = pagerank(cluster, dg, variant="push", max_iterations=2).stats
        assert stats.remote_writes > 0
        assert all(m.stage_cache.sorted_elements > 0 for m in dg.machines)


class TestPlanCacheMetrics:
    def test_requests_counter_and_hit_ratio_exported(self, small_rmat):
        cluster, _, _ = run_pagerank(small_rmat, keep_plans=True)
        flat = cluster.metrics.counters_flat()
        hits = flat.get('repro_plan_cache_requests_total{result="hit"}', 0)
        misses = flat.get('repro_plan_cache_requests_total{result="miss"}', 0)
        assert hits > 0 and misses > 0
        gauge = cluster.metrics.get("repro_plan_cache_hit_ratio")
        assert gauge.value == pytest.approx(hits / (hits + misses))

    def test_prometheus_export_contains_metric(self, small_rmat):
        from repro.obs.exporters import to_prometheus
        cluster, _, _ = run_pagerank(small_rmat, keep_plans=True)
        text = to_prometheus(cluster.metrics)
        assert "repro_plan_cache_requests_total" in text
        assert "repro_plan_cache_hit_ratio" in text
