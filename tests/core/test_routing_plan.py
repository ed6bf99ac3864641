"""Routing-plan cache: plan correctness, hit accounting, and the guarantee
that caching is invisible to results, modeled work, and simulated time —
a run that keeps its plans matches one that rebuilds every chunk's plan
(``plan_cache_max_bytes=0``) in every observable."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat, with_uniform_weights
from repro.algorithms import pagerank, sssp, wcc
from repro.core.jobrunner import JobExecution
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


def plan_requests(cluster) -> dict:
    """The cluster's routing-plan lookups by ``hit``/``miss`` (its
    ``repro_plan_cache_requests_total`` family)."""
    family = cluster.metrics.get("repro_plan_cache_requests_total")
    counts = {key[0]: child.value for key, child in family.children()}
    return {result: counts.get(result, 0.0) for result in ("hit", "miss")}


def classify(csr, lo, hi, ghost_ok, machine_index, keep=None):
    """The oracle: route the chunk's edges one by one.  Per class, the
    ``(row, target, position, owner)`` of every edge — local and ghost in
    CSR order, remote stable-sorted by owner — keeping only rows whose
    ``keep`` entry is set."""
    classes = ([], [], [])
    for row in range(lo, hi):
        if keep is not None and not keep[row]:
            continue
        for e in range(int(csr.starts[row]), int(csr.starts[row + 1])):
            owner = int(csr.nbr_owner[e])
            slot = int(csr.nbr_ghost_slot[e])
            if owner == machine_index:
                classes[0].append((row, int(csr.nbr_offset[e]), e, owner))
            elif ghost_ok and slot >= 0:
                classes[1].append((row, slot, e, owner))
            else:
                classes[2].append((row, int(csr.nbr_offset[e]), e, owner))
    classes[2].sort(key=lambda edge: edge[3])  # stable
    return classes


def owned_bytes(plan) -> int:
    """Bytes of every numpy buffer reachable from ``plan``'s slots, tuples
    and dicts, each counted once (views count their base) — what a plan
    really holds, whatever its ``nbytes`` claims.  The CSR it was built
    from is not its own."""
    roots: dict = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while x.base is not None:
                x = x.base
            roots[id(x)] = x.nbytes
        elif isinstance(x, (tuple, list)):
            for item in x:
                walk(item)
        elif isinstance(x, dict):
            for item in x.values():
                walk(item)

    for name in ChunkPlan.__slots__:
        if name != "_source":
            walk(getattr(plan, name))
    return sum(roots.values())


def split(rows, targets, splits):
    """The ``(rows, targets)`` slice of each class: local, ghost, remote."""
    g0, g1 = splits
    return [(rows[:g0], targets[:g0]), (rows[g0:g1], targets[g0:g1]),
            (rows[g1:], targets[g1:])]


class TestChunkPlanFields:
    """Every plan field against routing the chunk's edges one by one."""

    @pytest.fixture
    def machine(self, small_rmat_weighted):
        cluster = make_cluster(3, 30)
        dg = cluster.load_graph(small_rmat_weighted)
        return dg.machines[0]

    @staticmethod
    def assert_class(pair, edges):
        rows, targets = pair
        assert rows.tolist() == [e[0] for e in edges]
        assert targets.tolist() == [e[1] for e in edges]

    @classmethod
    def assert_remote(cls, pair, runs, edges, num_machines=3):
        """The remote class and its runs: one per non-empty destination,
        slicing the owner-sorted class."""
        cls.assert_class(pair, edges)
        bounds = np.searchsorted([e[3] for e in edges],
                                 np.arange(num_machines + 1))
        assert [run[:3] for run in runs] == [
            (dst, bounds[dst], bounds[dst + 1]) for dst in range(num_machines)
            if bounds[dst + 1] > bounds[dst]]
        rows, offsets = pair
        for _, b0, b1, run_offsets, run_rows in runs:
            assert np.array_equal(run_offsets, offsets[b0:b1])
            assert np.array_equal(run_rows, rows[b0:b1])

    def plans(self, machine, ghost_oks=(True, False)):
        """``(plan, csr, lo, hi, ghost_ok)`` over both directions and
        several chunks of the machine."""
        n = machine.n_local
        for direction in ("out", "in"):
            csr = machine.csr(direction)
            for lo, hi in ((0, n), (0, n // 3), (n // 3, n),
                           (n // 2, n // 2 + 1)):
                for ghost_ok in ghost_oks:
                    yield (ChunkPlan(csr, lo, hi, ghost_ok, machine.index, 3),
                           csr, lo, hi, ghost_ok)

    def test_plan_matches_direct_computation(self, machine):
        for plan, csr, lo, hi, ghost_ok in self.plans(machine):
            want = classify(csr, lo, hi, ghost_ok, machine.index)
            got = split(plan.rows, plan.targets, plan.splits)
            self.assert_class(got[0], want[0])
            self.assert_class(got[1], want[1])
            assert len(plan.rows) == plan.ee - plan.es == sum(map(len, want))

    def test_remote_order_is_stable_owner_sort(self, machine):
        for plan, csr, lo, hi, ghost_ok in self.plans(machine):
            want = classify(csr, lo, hi, ghost_ok, machine.index)
            got = split(plan.rows, plan.targets, plan.splits)
            self.assert_remote(got[2], plan.dest_runs, want[2])

    def test_ghost_ok_false_has_no_ghost_class(self, machine):
        for plan, *_ in self.plans(machine, ghost_oks=(False,)):
            assert plan.splits[0] == plan.splits[1]

    def test_ids_are_four_bytes(self, machine):
        plan = ChunkPlan(machine.out_csr, 0, machine.n_local, True,
                         machine.index, 3)
        assert plan.rows.dtype == plan.targets.dtype == np.int32

    def test_at_most_8_bytes_per_planned_edge(self, machine):
        """A (row, target) pair per edge, plus one run start per
        destination run: the whole plan, counted from what it holds."""
        for plan, *_ in self.plans(machine):
            assert plan.nbytes == owned_bytes(plan)
            assert plan.nbytes <= (8 * len(plan.rows)
                                   + 8 * len(plan.dest_runs))

    def test_weight_split_memoizes(self, machine):
        """A retaining cache memoizes the split column on the plan; one
        that retains nothing splits it again."""
        csr = machine.out_csr
        want = classify(csr, 0, machine.n_local, True, machine.index)
        want = [csr.weights[e[2]] for edges in want for e in edges]
        for max_bytes in (1 << 30, 0):
            cache = RoutingPlanCache(max_bytes=max_bytes)
            plan, _ = cache.lookup(csr, "out", 0, machine.n_local, True,
                                   machine.index, 3)
            first = cache.weights(plan, None)
            assert first.tolist() == want
            assert (cache.weights(plan, None) is first) == bool(max_bytes)
            assert cache.nbytes == (owned_bytes(plan) if max_bytes else 0)

    @pytest.mark.parametrize("ghost_ok", [True, False])
    def test_kept_matches_classifying_the_masked_edges(self, machine,
                                                       ghost_ok):
        """What a node-level filter keeps of a plan, against classifying
        only the edges of the rows it keeps."""
        rng = np.random.default_rng(3)
        for plan, csr, lo, hi, _ in self.plans(machine, (ghost_ok,)):
            for density in (0.0, 0.01, 0.5, 1.0):
                act = rng.random(machine.n_local) < density
                rows, targets, splits, runs, positions = plan.kept(act)
                want = classify(csr, lo, hi, ghost_ok, machine.index, act)
                got = split(rows, targets, splits)
                self.assert_class(got[0], want[0])
                self.assert_class(got[1], want[1])
                self.assert_remote(got[2], runs, want[2])
                assert np.array_equal(rows, plan.rows[positions])
                assert np.array_equal(targets, plan.targets[positions])


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
        assert p2 is p1 and len(cache) == 1

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
        assert plan_requests(cluster)["hit"] > 0
        for m in dg.machines:
            assert len(m.plan_cache) > 0

    def test_cache_disabled_stays_empty(self, small_rmat):
        """Capacity 0: every chunk builds its plan and none is kept."""
        cluster, dg, _ = run_pagerank(small_rmat, keep_plans=False)
        requests = plan_requests(cluster)
        assert requests["hit"] == 0 and requests["miss"] > 0
        for m in dg.machines:
            cache = m.plan_cache
            assert len(cache) == 0 and cache.nbytes == 0
            assert cache.rejected > 0
        assert sum(m.plan_cache.rejected for m in dg.machines) \
            == requests["miss"]


class TestCacheChargesWeightMemos:
    """``nbytes`` counts every byte the cache keeps alive, so
    ``plan_cache_max_bytes`` caps what is really held: the weight columns
    memoized on retained plans (SSSP's push, and a weighted pull over
    plans an unweighted pull built) included."""

    @staticmethod
    def run(graph, max_bytes=None):
        kwargs = {} if max_bytes is None else {"plan_cache_max_bytes":
                                               max_bytes}
        cluster = make_cluster(3, 30, **kwargs)
        dg = cluster.load_graph(graph)
        res = sssp(cluster, dg, root=0, max_iterations=30)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        for weighted in (False, True):
            cluster.run_job(dg, EdgeMapJob(name="pull", spec=EdgeMapSpec(
                direction="pull", source="x", target="t", op=ReduceOp.SUM,
                transform=(lambda vals, w: vals * w) if weighted else None,
                use_weights=weighted)))
        return dg, res.values["dist"].tobytes() + dg.gather("t").tobytes()

    def test_nbytes_is_what_live_plans_hold(self, small_rmat_weighted):
        dg, _ = self.run(small_rmat_weighted)
        for m in dg.machines:
            cache = m.plan_cache
            plans = cache._plans.values()
            assert cache.rejected == 0
            assert any(plan.columns for plan in plans)
            assert cache.nbytes == sum(owned_bytes(p) for p in plans)

    def test_cap_just_below_rejects(self, small_rmat_weighted):
        dg, want = self.run(small_rmat_weighted)
        held = max(m.plan_cache.nbytes for m in dg.machines)
        capped, got = self.run(small_rmat_weighted, max_bytes=held - 1)
        assert got == want
        assert any(m.plan_cache.rejected for m in capped.machines)
        for m in capped.machines:
            cache = m.plan_cache
            assert cache.nbytes <= held - 1
            assert cache.nbytes == sum(owned_bytes(p)
                                       for p in cache._plans.values())


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
    requests = []
    send_request = JobExecution.send_request

    def recording(exc, msg, kind):
        """Note each request a worker's buffer flush ships."""
        if kind in ("read_req", "write_req"):
            requests.append((msg.src, msg.worker, kind, msg.dst,
                             msg.item_count))
        send_request(exc, msg, kind)
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
            del requests[:]
            with mock.patch.object(JobExecution, "send_request", recording):
                stats = cluster.run_job(dg, job)
            out.append({
                "filter": kind,
                "t": dg.gather("t").tobytes(),
                "start": stats.start_time, "end": stats.end_time,
                "counters": {k: getattr(stats, k) for k in WORK_COUNTERS},
                "bytes": dict(stats.bytes_by_kind),
                "requests": list(requests)})
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
        assert all(len(m.plan_cache) > 0 for m in dg.machines)
        assert plan_requests(dg.cluster)["hit"] > 0
        assert plan_requests(rdg.cluster)["hit"] == 0
        for got, want in zip(kept, rebuilt):
            for field in want:
                assert got[field] == want[field], (want["filter"], field)
        moved = {run["filter"] for run in rebuilt if run["requests"]}
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


class TestPushIntoItself:
    """A push spec may name one property as both source and target (the
    DSL's ``push x += x``).  A chunk reads every source value before it
    writes any, so the values it sends to remote owners are the ones it
    saw before its own local writes.  The digests are pinned from the
    kernel that gathered a chunk's source values in a single pass."""

    PINNED = {(False, False): "56497354f860a9bd",
              (False, True): "92d4ba2cabde0767",
              (True, False): "d3cf6c38928c28b2",
              (True, True): "6978b1d0ee99d8ae"}

    @pytest.mark.parametrize("filtered", [False, True],
                             ids=["all", "filtered"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    def test_matches_pinned_bits(self, weighted, filtered):
        graph = with_uniform_weights(rmat(300, 2400, seed=5), 0.1, 1.0,
                                     seed=9)
        cluster = make_cluster(3, 30, chunk_size=64)
        dg = cluster.load_graph(graph)
        rng = np.random.default_rng(23)
        dg.add_property("x")
        dg.add_property("active", dtype=bool, init=False)
        dg.set_from_global("x", rng.random(dg.num_nodes))
        dg.set_from_global("active", rng.random(dg.num_nodes)
                           < (0.5 if filtered else 1.1))
        spec = EdgeMapSpec(
            direction="push", source="x", target="x", op=ReduceOp.SUM,
            transform=(lambda vals, w: vals * w) if weighted else None,
            use_weights=weighted, active="active" if filtered else None)
        for _ in range(2):  # the second job runs over kept plans
            cluster.run_job(dg, EdgeMapJob(name="self", spec=spec))
        digest = hashlib.sha256(dg.gather("x").tobytes()).hexdigest()
        assert digest[:16] == self.PINNED[weighted, filtered]


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
        cache = dg.machines[0].stage_cache
        assert all(m.stage_cache is cache for m in dg.machines)
        assert cache.sorted_elements == 0
        stats = pagerank(cluster, dg, variant="push", max_iterations=2).stats
        assert stats.remote_writes > 0
        assert cache.sorted_elements > 0


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
