"""The query serving tier: epoch-keyed result cache + admitted reads.

Covers the cache mechanics (hit identity, LRU capacity, per-family epoch
invalidation), the scheduler-admitted read path (accounting, per-session
read rate limiting), the observability surface, and the seeded oracle
suite: cached answers must stay bit-identical to freshly-computed answers
before and after every mutation batch — including an epoch whose
incremental recompute falls back to a full rerun.
"""

import numpy as np
import pytest

from repro import ClusterConfig, PgxdCluster, rmat
from repro.algorithms import pagerank
from repro.core.incremental import (IncrementalConfig, IncrementalEngine,
                                    hash_weights)
from repro.core.result_cache import CacheConfig, ResultCache, zipf_weights
from repro.core.scheduler import ReadRateLimitError, SchedulerConfig
from repro.dynamic import DynamicGraph
from repro.obs.report import cache_summary
from repro.query import PropertyQuery, apply_spec, pool_specs
from repro.server import PgxdServer
from tests.conftest import MutationOracle, make_cluster


def cache_counts(server) -> dict:
    """The server's cache hits, misses and evictions, as its cluster's
    ``cache.*`` families count them."""
    return cache_summary(server.cluster.metrics)


def serve_graph(graph, *, cache=True, cache_config=None, sched_config=None):
    """A server + session with ``graph`` loaded as ``"g"``."""
    server = PgxdServer(make_cluster(), scheduler_config=sched_config)
    if cache:
        server.enable_cache(cache_config)
    sess = server.create_session("reader")
    sess.load_graph("g", graph)
    return server, sess


def twin_oracles(seed, config=None):
    """Two identically-seeded serving stacks: ``warm`` has the result
    cache enabled, ``cold`` serves everything fresh.  Identical seeds
    mean identical graphs, partitions and mutation batches, so every
    answer must match bit-for-bit."""
    pair = []
    for use_cache in (True, False):
        oracle = MutationOracle(seed=seed, config=config)
        server = PgxdServer(oracle.cluster,
                            scheduler_config=SchedulerConfig(
                                max_concurrent_jobs=2))
        if use_cache:
            server.enable_cache()
        sess = server.create_session("reader")
        sess.attach_graph("g", oracle.engine.pin())
        pair.append((oracle, server, sess))
    (warm, warm_srv, warm_s), (cold, cold_srv, cold_s) = pair
    return warm, warm_srv, warm_s, cold, cold_srv, cold_s


class TestCacheMechanics:
    def test_hit_is_bit_identical_and_near_free(self, small_rmat):
        server, sess = serve_graph(small_rmat)
        cluster = server.cluster
        q = lambda: sess.query("g").where("out_degree", ">=", 2).count()
        t0 = cluster.now
        first = q()
        miss_cost = cluster.now - t0
        t1 = cluster.now
        second = q()
        hit_cost = cluster.now - t1
        assert second == first
        assert cache_counts(server)["hits"] == 1 and cache_counts(server)["misses"] == 1
        assert hit_cost == pytest.approx(server.cache.config.hit_seconds)
        assert hit_cost < miss_cost / 10

    def test_execute_rows_identical_on_hit(self, small_rmat):
        server, sess = serve_graph(small_rmat)
        q = lambda: (sess.query("g").where("in_degree", ">=", 1)
                     .order_by("out_degree", descending=True).limit(10)
                     .select("out_degree", "in_degree").execute())
        first, second = q(), q()
        assert second == first  # ids, key order and row values all exact
        assert cache_counts(server)["hits"] == 1

    def test_distinct_fingerprints_do_not_collide(self, small_rmat):
        server, sess = serve_graph(small_rmat)
        n2 = sess.query("g").where("out_degree", ">=", 2).count()
        n3 = sess.query("g").where("out_degree", ">=", 3).count()
        agg = sess.query("g").aggregate("out_degree", "sum")
        assert cache_counts(server)["misses"] == 3 and cache_counts(server)["hits"] == 0
        assert n3 <= n2
        assert agg == pytest.approx(small_rmat.num_edges)

    def test_capacity_lru_eviction(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, cache_config=CacheConfig(max_entries=2))
        for k in (1, 2):
            sess.query("g").where("out_degree", ">=", k).count()
        # Touch k=1 so k=2 is the least-recently-used victim.
        sess.query("g").where("out_degree", ">=", 1).count()
        sess.query("g").where("out_degree", ">=", 3).count()
        assert len(server.cache) == 2 and cache_counts(server)["evictions"] == 1
        assert cache_counts(server)["hits"] == 1
        # k=1 survived the eviction; k=2 did not.
        sess.query("g").where("out_degree", ">=", 1).count()
        assert cache_counts(server)["hits"] == 2
        sess.query("g").where("out_degree", ">=", 2).count()
        assert cache_counts(server)["misses"] == 4

    def test_epoch_bump_evicts_only_the_mutated_family(self, small_rmat):
        """The PR's precision requirement: a mutation invalidates the
        mutated graph's entries and nothing else."""
        server, sess = serve_graph(small_rmat)
        cluster = server.cluster
        g2 = rmat(150, 800, seed=9)
        src = np.repeat(np.arange(150), np.diff(g2.out_starts))
        dyn = DynamicGraph(150, list(zip(src.tolist(), g2.out_nbrs.tolist())))
        engine = IncrementalEngine(cluster, dyn,
                                   weight_fn=hash_weights(seed=5))
        sess.attach_graph("d", engine.pin())

        static_count = sess.query("g").where("out_degree", ">=", 1).count()
        sess.query("d").where("out_degree", ">=", 1).count()
        assert len(server.cache) == 2

        dyn.add_edge(0, 1)
        dyn.add_edge(2, 3)
        engine.mutate(session="mutator")
        sess.attach_graph("d", engine.pin())
        assert len(server.cache) == 1 and cache_counts(server)["evictions"] == 1

        # The static graph still hits; the mutated one recomputes fresh.
        assert sess.query("g").where("out_degree", ">=", 1).count() \
            == static_count
        assert cache_counts(server)["hits"] == 1
        new_count = sess.query("d").where("out_degree", ">=", 1).count()
        oracle = PropertyQuery(cluster, engine.pin()) \
            .where("out_degree", ">=", 1).count()
        assert new_count == oracle
        assert cache_counts(server)["misses"] == 3

    def test_manual_invalidate(self, small_rmat):
        server, sess = serve_graph(small_rmat)
        sess.query("g").count()
        assert server.cache.invalidate(sess.graph("g")) == 1
        assert len(server.cache) == 0
        sess.query("g").count()
        assert cache_counts(server)["misses"] == 2 and cache_counts(server)["hits"] == 0

    def test_enable_cache_is_idempotent_and_exclusive(self, small_rmat):
        server, _ = serve_graph(small_rmat)
        assert server.enable_cache() is server.cache
        with pytest.raises(ValueError):
            ResultCache(server.cluster)

    def test_zipf_weights_normalized_and_skewed(self):
        w = zipf_weights(10, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert w[0] > w[1] > w[-1] > 0


def replay_zipf_trace(use_cache, reads=150, pool=16, zipf_s=1.2,
                      mutate_every=50, seed=7):
    """Seeded Zipf read trace over a mutating graph on an unscaled
    4-machine cluster (full per-job fixed cost, so a miss is expensive);
    returns (per-read results, server)."""
    g = rmat(800, 5000, seed=seed)
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.out_starts))
    dyn = DynamicGraph(g.num_nodes,
                       list(zip(src.tolist(), g.out_nbrs.tolist())))
    server = PgxdServer(PgxdCluster(ClusterConfig(num_machines=4)))
    if use_cache:
        server.enable_cache()
    engine = IncrementalEngine(server.cluster, dyn,
                               weight_fn=hash_weights(seed=seed))
    sess = server.create_session("reader")
    sess.attach_graph("g", engine.pin())
    rng = np.random.default_rng(seed + 1)
    specs = pool_specs(pool, seed=seed)
    results = []
    for i, qi in enumerate(rng.choice(pool, size=reads,
                                      p=zipf_weights(pool, zipf_s))):
        if i and i % mutate_every == 0:
            dyn.add_edge(int(rng.integers(dyn.num_nodes)),
                         int(rng.integers(dyn.num_nodes)))
            existing = dyn.edge_list()
            dyn.remove_edge(*existing[int(rng.integers(len(existing)))])
            engine.mutate(session="mutator")
            sess.attach_graph("g", engine.pin())
        results.append(apply_spec(sess.query("g"), specs[int(qi)]))
    return results, server


class TestZipfTrace:
    """The serving tier's headline claim: on a skewed trace a hit is at
    least 10x cheaper than a miss at p50, and cached answers equal fresh
    ones across epoch bumps."""

    def test_hits_beat_misses_and_match_fresh(self):
        cached, server = replay_zipf_trace(use_cache=True)
        fresh, _ = replay_zipf_trace(use_cache=False)
        hist = server.cluster.metrics.get("repro_cache_read_seconds")
        hit, miss = hist.labels(result="hit"), hist.labels(result="miss")
        assert miss.quantile(0.5) >= 10 * hit.quantile(0.5)
        assert hit.quantile(0.99) < miss.quantile(0.5)
        cache = cache_counts(server)
        assert 0 < cache["hits"] / (cache["hits"] + cache["misses"]) < 1
        assert cache["evictions"] > 0
        assert cached == fresh


class TestAdmittedReads:
    def test_reads_are_accounted_scheduler_jobs(self, small_rmat):
        server, sess = serve_graph(small_rmat)
        before = sess.usage.jobs_run
        sess.query("g").count()
        sess.query("g").count()  # the hit is still an admitted job
        assert sess.usage.jobs_run == before + 2
        assert sess.usage.simulated_seconds > 0

    def test_read_rate_limit_backpressure(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, sched_config=SchedulerConfig(
                read_rate_per_session=1.0, read_burst=2.0))
        sess.query("g").count()
        sess.query("g").count()
        with pytest.raises(ReadRateLimitError) as ei:
            sess.query("g").count()
        assert ei.value.reason == "read_rate"
        flat = server.cluster.metrics.counters_flat()
        assert flat['repro_sched_rejected_total{reason="read_rate"}'] == 1

    def test_rate_limit_refills_with_simulated_time(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, sched_config=SchedulerConfig(
                read_rate_per_session=1.0, read_burst=1.0))
        sess.query("g").count()
        with pytest.raises(ReadRateLimitError):
            sess.query("g").count()
        server.cluster.advance(2.0)  # one token per simulated second
        assert sess.query("g").count() >= 0

    def test_rate_limit_is_per_session(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, sched_config=SchedulerConfig(
                read_rate_per_session=1.0, read_burst=1.0))
        other = server.create_session("other")
        other.load_graph("g", small_rmat)
        sess.query("g").count()
        with pytest.raises(ReadRateLimitError):
            sess.query("g").count()
        other.query("g").count()  # its own bucket is untouched

    def test_algorithm_hit_and_miss_charge_one_token_each(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, sched_config=SchedulerConfig(
                read_rate_per_session=1e-9, read_burst=2.0))
        r1 = sess.run_cached("g", pagerank, "pull", max_iterations=3)  # miss
        r2 = sess.run_cached("g", pagerank, "pull", max_iterations=3)  # hit
        assert np.array_equal(r1.values["pr"], r2.values["pr"])
        with pytest.raises(ReadRateLimitError):
            sess.run_cached("g", pagerank, "pull", max_iterations=3)

    def test_uncached_server_reads_match_direct_query(self, small_rmat):
        server, sess = serve_graph(small_rmat, cache=False)
        cluster, dg = server.cluster, sess.graph("g")
        t0 = cluster.now
        got = (sess.query("g").where("out_degree", ">=", 1)
               .order_by("out_degree", descending=True).limit(8)
               .select("out_degree").execute())
        assert cluster.now > t0  # scans stay priced without a cache
        want = (PropertyQuery(cluster, dg).where("out_degree", ">=", 1)
                .order_by("out_degree", descending=True).limit(8)
                .select("out_degree").execute())
        assert got == want
        assert sess.query("g").count() == PropertyQuery(cluster, dg).count()


class TestObservability:
    def test_cache_metric_families(self, small_rmat):
        server, sess = serve_graph(
            small_rmat, cache_config=CacheConfig(max_entries=1))
        sess.query("g").count()
        sess.query("g").count()
        sess.query("g").aggregate("out_degree", "max")  # evicts the count
        flat = server.cluster.metrics.counters_flat()
        assert flat['repro_cache_requests_total{result="hit"}'] == 1
        assert flat['repro_cache_requests_total{result="miss"}'] == 2
        assert flat['repro_cache_evictions_total{reason="capacity"}'] == 1
        hist = server.cluster.metrics.get("repro_cache_read_seconds")
        assert hist.labels(result="hit").count == 1
        assert hist.labels(result="miss").count == 2
        assert hist.labels(result="miss").quantile(0.5) \
            > hist.labels(result="hit").quantile(0.5)
        saved = server.cluster.metrics.get("repro_cache_saved_seconds_total")
        assert saved.value > 0

    def test_cache_summary_and_report_line(self, small_rmat):
        from repro.obs.report import cache_summary, render_overhead_report

        server, sess = serve_graph(small_rmat)
        sess.query("g").count()
        sess.query("g").count()
        cs = cache_summary(server.cluster.metrics)
        assert cs["hits"] == 1 and cs["misses"] == 1
        assert cs["hit_rate"] == pytest.approx(0.5)
        assert cs["saved_seconds"] > 0
        report = render_overhead_report(server.cluster.metrics)
        assert "cache:" in report and "50.0% hit rate" in report

    def test_cache_hooks_fire(self, small_rmat):
        events = []
        server, sess = serve_graph(small_rmat)
        for name in ("cache.hit", "cache.miss", "cache.evict"):
            server.cluster.hooks.subscribe(
                name, lambda p, n=name: events.append((n, p)))
        sess.query("g").count()
        sess.query("g").count()
        server.cache.invalidate(sess.graph("g"))
        kinds = [k for k, _ in events]
        assert kinds == ["cache.miss", "cache.hit", "cache.evict"]
        hit = dict(events[1][1])
        assert hit["saved"] > 0 and hit["fingerprint"]
        assert events[2][1]["reason"] == "manual"


class TestServingOracle:
    """Satellite 3: seeded oracle runs in the ``MutationOracle`` style.
    Cached answers must equal freshly-computed answers before and after
    each mutation batch, across seeds, including the fallback path."""

    def _compare_round(self, warm_s, cold_s, specs):
        fresh = [apply_spec(cold_s.query("g"), sp) for sp in specs]
        first = [apply_spec(warm_s.query("g"), sp) for sp in specs]
        again = [apply_spec(warm_s.query("g"), sp) for sp in specs]
        assert first == fresh, "fresh-side answers diverged on a cold cache"
        assert again == fresh, "cached answers diverged from fresh compute"
        want = cold_s.run_algorithm("g", pagerank, "pull", max_iterations=4)
        got = warm_s.run_cached("g", pagerank, "pull", max_iterations=4)
        hit = warm_s.run_cached("g", pagerank, "pull", max_iterations=4)
        assert np.array_equal(want.values["pr"], got.values["pr"])
        assert np.array_equal(got.values["pr"], hit.values["pr"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_equals_fresh_across_mutation_batches(self, seed):
        warm, warm_srv, warm_s, cold, cold_srv, cold_s = twin_oracles(seed)
        specs = pool_specs(6, seed=seed)
        self._compare_round(warm_s, cold_s, specs)
        for _ in range(3):
            warm.random_batch()
            cold.random_batch()  # identical rng -> identical batch
            warm_s.attach_graph("g", warm.engine.pin())
            cold_s.attach_graph("g", cold.engine.pin())
            self._compare_round(warm_s, cold_s, specs)
        assert warm.engine.epoch == cold.engine.epoch == 3
        assert cache_counts(warm_srv)["hits"] > 0 and cache_counts(warm_srv)["misses"] > 0
        assert cache_counts(warm_srv)["evictions"] > 0  # epochs invalidated entries
        assert cold_srv.cache is None

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cached_equals_fresh_through_fallback_rerun(self, seed):
        """An oversized batch forces the engine's full-rerun fallback;
        served answers must still match the fresh twin bit-for-bit."""
        cfg = IncrementalConfig(full_rerun_fraction=0.05)
        warm, warm_srv, warm_s, cold, cold_srv, cold_s = \
            twin_oracles(seed, config=cfg)
        specs = pool_specs(4, seed=seed + 10)
        warm.engine.pagerank()
        cold.engine.pagerank()  # warm both engines past the cold start
        self._compare_round(warm_s, cold_s, specs)
        warm.random_batch(inserts=40, removes=40)
        cold.random_batch(inserts=40, removes=40)
        rw = warm.engine.pagerank()
        rc = cold.engine.pagerank()
        assert rw.fallback and rc.fallback, "batch did not force a rerun"
        assert np.array_equal(np.asarray(rw.values["pr"]),
                              np.asarray(rc.values["pr"]))
        warm_s.attach_graph("g", warm.engine.pin())
        cold_s.attach_graph("g", cold.engine.pin())
        self._compare_round(warm_s, cold_s, specs)
