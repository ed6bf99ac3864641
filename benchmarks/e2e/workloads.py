"""The four workloads: inputs, set-up, the timed operation, verification.

Each workload class has the same shape:

* ``make_inputs(seed)``   — everything random, generated before any clock
  starts; the system later receives only these inputs;
* ``set_up()``            — a fresh cluster with the graph loaded (timed
  by the caller as one ``setup_s`` sample);
* ``run(ctx, warm=False)``— the timed region (``warm=True`` is the short
  untimed warm-up on a throwaway cluster);
* ``verify(outcome)``     — failed-operation count against ``oracles``.

The system is driven through stable public API only, with the default
``EngineConfig`` (plus ``out_of_core`` where that is the workload).
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import (ClusterConfig, PgxdCluster, ReadRateLimitError,
                   SchedulerConfig, rmat, with_uniform_weights)
from repro.algorithms import pagerank, sssp, wcc
from repro.core.incremental import IncrementalEngine
from repro.dynamic import DynamicGraph
from repro.query import apply_spec, pool_specs
from repro.server import PgxdServer

from . import oracles, spec

#: the engine's modeled CSR bytes per edge at the seed commit; only sizes
#: the out-of-core workload's (otherwise unused) modeled DRAM
_MODELED_CSR_BYTES_PER_EDGE = 24.0


@dataclass
class Context:
    """One set-up: a fresh cluster with the graph loaded."""

    cluster: PgxdCluster
    dg: object
    load_graph_host_s: float
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed region produced."""

    sim_s: float
    #: simulated latency of each operation a client waits for: one per
    #: superstep (batch) or per served read, from its due time (serve)
    op_latencies: np.ndarray
    attempted: int
    #: operations that raised or were refused (oracle mismatches are
    #: added by ``verify``)
    failed: int
    results: dict
    extra: dict = field(default_factory=dict)


def _attempt(fn, *args, **kwargs):
    """Run one operation; a raise is a failed operation, not a failed
    benchmark.  Returns ``(result or None, failed 0/1)``."""
    try:
        return fn(*args, **kwargs), 0
    except Exception:  # boundary: count it, report it, keep measuring
        traceback.print_exc()
        return None, 1


def edge_imbalance(dg) -> float:
    """max/mean in+out edges per machine of a loaded graph."""
    starts = np.asarray(dg.partitioning.starts)
    prefix = np.concatenate(([0], np.cumsum(dg.graph.total_degrees())))
    per_machine = prefix[starts[1:]] - prefix[starts[:-1]]
    return float(per_machine.max() / per_machine.mean())


class _Batch:
    """Shared shape of the three batch workloads on ``G``."""

    name = ""
    weighted = False

    def __init__(self, sizes: spec.Sizes):
        self.sizes = sizes
        self.machines = spec.MACHINES[self.name]

    def make_inputs(self, seed: int) -> None:
        self.graph = rmat(self.sizes.nodes, self.sizes.edges, seed=seed)
        if self.weighted:
            with_uniform_weights(self.graph, seed=seed)
        self.src, self.dst = self.graph.edge_list()

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(num_machines=self.machines)

    def set_up(self) -> Context:
        cluster = PgxdCluster(self.cluster_config())
        t0 = time.perf_counter()
        dg = cluster.load_graph(self.graph)
        return Context(cluster, dg, time.perf_counter() - t0)


class _PageRank(_Batch):
    variant = ""
    #: the ``Sizes`` field holding this workload's iteration count
    iterations_field = ""

    def run(self, ctx: Context, warm: bool = False) -> Outcome:
        t0 = ctx.cluster.now
        iters = 1 if warm else getattr(self.sizes, self.iterations_field)
        res, failed = _attempt(pagerank, ctx.cluster, ctx.dg,
                               variant=self.variant,
                               damping=spec.PAGERANK_DAMPING,
                               max_iterations=iters)
        return Outcome(sim_s=ctx.cluster.now - t0,
                       op_latencies=np.asarray(res.per_iteration if res
                                               else []),
                       attempted=1, failed=failed,
                       results={"pr": res.values["pr"] if res else None,
                                "iterations": iters})

    def verify(self, outcome: Outcome) -> int:
        got = outcome.results["pr"]
        if got is None:
            return 0  # already counted as raised
        want = oracles.pagerank(self.graph.num_nodes, self.src, self.dst,
                                spec.PAGERANK_DAMPING,
                                outcome.results["iterations"])
        return 0 if np.allclose(got, want, rtol=1e-9, atol=1e-15) else 1


class PrPullM16(_PageRank):
    name = "pr_pull_m16"
    variant = "pull"
    iterations_field = "pr_pull_iterations"


class PrPushOocM4(_PageRank):
    name = "pr_push_ooc_m4"
    variant = "push"
    iterations_field = "pr_push_ooc_iterations"

    def cluster_config(self) -> ClusterConfig:
        machine_edge_bytes = (2.0 * self.sizes.edges / self.machines
                              * _MODELED_CSR_BYTES_PER_EDGE)
        return (ClusterConfig(num_machines=self.machines)
                .with_engine(out_of_core=True)
                .with_machine(dram_bytes=spec.OOC_DRAM_FRACTION
                              * machine_edge_bytes))


class SsspWccM4(_Batch):
    name = "sssp_wcc_m4"
    weighted = True
    root = 0

    def run(self, ctx: Context, warm: bool = False) -> Outcome:
        cl, dg = ctx.cluster, ctx.dg
        t0 = cl.now
        caps = ({"max_iterations": 2}, {"max_iterations": 1}) if warm \
            else ({}, {})
        r_sssp, f1 = _attempt(sssp, cl, dg, root=self.root, **caps[0])
        r_wcc, f2 = _attempt(wcc, cl, dg, **caps[1])
        steps = [t for r in (r_sssp, r_wcc) if r for t in r.per_iteration]
        return Outcome(
            sim_s=cl.now - t0, op_latencies=np.asarray(steps),
            attempted=2, failed=f1 + f2,
            results={"dist": r_sssp.values["dist"] if r_sssp else None,
                     "component": (r_wcc.values["component"]
                                   if r_wcc else None)})

    def verify(self, outcome: Outcome) -> int:
        n = self.graph.num_nodes
        failed = 0
        dist = outcome.results["dist"]
        if dist is not None:
            want = oracles.sssp(n, self.src, self.dst,
                                self.graph.edge_weights, self.root)
            failed += 0 if np.allclose(dist, want, rtol=1e-12, atol=0) else 1
        comp = outcome.results["component"]
        if comp is not None:
            want = oracles.wcc_labels(n, self.src, self.dst)
            failed += 0 if oracles.same_partition(comp, want) else 1
        return failed


# -- serve_zipf_mutating ---------------------------------------------------

def edge_weight(src, dst) -> np.ndarray:
    """Deterministic per-edge weight in [0.1, 1.0): every epoch assigns
    the same weight to the same (u, v), as incremental SSSP requires."""
    with np.errstate(over="ignore"):
        h = (np.asarray(src, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ np.asarray(dst, dtype=np.uint64)
             * np.uint64(0xC2B2AE3D27D4EB4F))
        h ^= h >> np.uint64(29)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
    return 0.1 + 0.9 * ((h >> np.uint64(11)).astype(np.float64)
                        / float(1 << 53))


def percentile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of an ascending array (0.0 when no
    operation completed, i.e. every one of them already counts as failed)."""
    if len(sorted_values) == 0:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


class ServeZipfMutating:
    """Open loop on the simulated clock: after one cold SSSP + WCC, Poisson
    read arrivals at a fixed offered rate, with a mutation batch and an
    incremental SSSP + WCC every ``serve_mutate_every`` reads.  Latency is
    measured from each read's due time, so reads that queue behind an
    epoch build pay for it."""

    name = "serve_zipf_mutating"
    root = 0

    def __init__(self, sizes: spec.Sizes):
        self.sizes = sizes
        self.machines = spec.MACHINES[self.name]

    def make_inputs(self, seed: int) -> None:
        """The whole trace — due times, query ids, edges to add and
        remove, and each epoch's edge set for the oracles — so the timed
        loop never asks the system anything for the generator's sake."""
        sz = self.sizes
        n = sz.serve_nodes
        graph = rmat(n, sz.serve_edges, seed=seed)
        src, dst = graph.edge_list()
        self.initial_edges = list(zip(src.tolist(), dst.tolist()))
        rng = np.random.default_rng([seed, 1])
        ranks = np.arange(1, spec.SERVE_POOL + 1, dtype=np.float64)
        zipf = ranks ** -spec.SERVE_ZIPF_S
        self.specs = pool_specs(spec.SERVE_POOL, seed=seed)
        self.query_ids = rng.choice(spec.SERVE_POOL, size=sz.serve_reads,
                                    p=zipf / zipf.sum())
        self.due = np.cumsum(rng.exponential(1.0 / spec.SERVE_OFFERED_RATE,
                                             size=sz.serve_reads))
        mirror = list(self.initial_edges)
        half = spec.SERVE_BATCH_EDGES // 2
        self.batches = []
        self.epoch_edges = [(src, dst)]
        for _ in range((sz.serve_reads - 1) // sz.serve_mutate_every):
            removes = []
            for _ in range(half):
                i = int(rng.integers(len(mirror)))
                mirror[i], mirror[-1] = mirror[-1], mirror[i]
                removes.append(mirror.pop())
            adds = [(int(rng.integers(n)), int(rng.integers(n)))
                    for _ in range(half)]
            mirror.extend(adds)
            self.batches.append((adds, removes))
            edges = np.asarray(mirror, dtype=np.int64)
            self.epoch_edges.append((edges[:, 0], edges[:, 1]))

    def set_up(self) -> Context:
        cluster = PgxdCluster(ClusterConfig(num_machines=self.machines))
        load_s = []
        load_graph = cluster.load_graph

        def timed_load_graph(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return load_graph(*args, **kwargs)
            finally:
                load_s.append(time.perf_counter() - t0)

        cluster.load_graph = timed_load_graph  # the engine loads it itself
        server = PgxdServer(cluster, scheduler_config=SchedulerConfig(
            read_rate_per_session=(spec.SERVE_RATE_LIMIT_FACTOR
                                   * spec.SERVE_OFFERED_RATE),
            read_burst=spec.SERVE_READ_BURST))
        server.enable_cache()
        dyn = DynamicGraph(self.sizes.serve_nodes, self.initial_edges)
        engine = IncrementalEngine(cluster, dyn, weight_fn=edge_weight)
        del cluster.load_graph
        session = server.create_session("reader")
        session.attach_graph("g", engine.pin())
        return Context(cluster, engine.pin(), sum(load_s),
                       extra={"server": server, "engine": engine,
                              "dyn": dyn, "session": session})

    def run(self, ctx: Context, warm: bool = False) -> Outcome:
        cl = ctx.cluster
        engine, dyn = ctx.extra["engine"], ctx.extra["dyn"]
        session = ctx.extra["session"]
        reads = self.sizes.warmup_reads if warm else self.sizes.serve_reads
        every = reads // 2 if warm else self.sizes.serve_mutate_every
        due, query_ids, specs = self.due, self.query_ids, self.specs
        # The server computes its analytics once, cold, before it takes
        # traffic; from then on every epoch is an incremental recompute.
        t0 = cl.now
        r_sssp, f_sssp = _attempt(engine.sssp, self.root)
        r_wcc, f_wcc = _attempt(engine.wcc)
        service = cl.now - t0
        attempted, failed = 2, f_sssp + f_wcc
        epoch = 0
        recomputes = [(epoch, r_sssp, r_wcc)]
        t_start = cl.now
        latencies, answers = [], []
        lateness_max = lateness = 0.0
        for i in range(reads):
            t_due = t_start + due[i]
            if cl.now < t_due:
                cl.advance(t_due - cl.now)
            if i and i % every == 0:
                # maintenance is due with this read and runs ahead of it
                t0 = cl.now
                adds, removes = self.batches[epoch]
                epoch += 1
                for e in adds:
                    dyn.add_edge(*e)
                for e in removes:
                    dyn.remove_edge(*e)
                _, f_mut = _attempt(engine.mutate, session="mutator")
                session.attach_graph("g", engine.pin())
                r_sssp, f_sssp = _attempt(engine.sssp, self.root)
                r_wcc, f_wcc = _attempt(engine.wcc)
                attempted += 3
                failed += f_mut + f_sssp + f_wcc
                recomputes.append((epoch, r_sssp, r_wcc))
                service += cl.now - t0
            lateness = cl.now - t_due
            lateness_max = max(lateness_max, lateness)
            attempted += 1
            t0 = cl.now
            qi = int(query_ids[i])
            try:
                answer = apply_spec(session.query("g"), specs[qi])
            except ReadRateLimitError:
                failed += 1  # a refused read is a failed operation
                continue
            service += cl.now - t0
            latencies.append(cl.now - t_due)
            answers.append((epoch, qi, answer))
        return Outcome(
            sim_s=service, op_latencies=np.asarray(latencies),
            attempted=attempted, failed=failed,
            results={"answers": answers, "recomputes": recomputes},
            extra={"sim_lateness_max_s": lateness_max,
                   "sim_lateness_end_s": lateness,
                   "sim_span_s": cl.now - t_start})

    def verify(self, outcome: Outcome) -> int:
        n = self.sizes.serve_nodes
        failed = 0
        degrees: dict[int, tuple] = {}
        expected: dict[tuple, object] = {}
        for epoch, qi, answer in outcome.results["answers"]:
            if epoch not in degrees:
                src, dst = self.epoch_edges[epoch]
                degrees[epoch] = (
                    np.bincount(src, minlength=n).astype(np.float64),
                    np.bincount(dst, minlength=n).astype(np.float64))
            if (epoch, qi) not in expected:
                expected[epoch, qi] = oracles.query(self.specs[qi],
                                                    *degrees[epoch])
            if not oracles.query_matches(self.specs[qi], answer,
                                         expected[epoch, qi]):
                failed += 1
        for epoch, r_sssp, r_wcc in outcome.results["recomputes"]:
            src, dst = self.epoch_edges[epoch]
            if r_sssp is not None:
                want = oracles.sssp(n, src, dst, edge_weight(src, dst),
                                    self.root)
                if not np.allclose(r_sssp.values["dist"], want,
                                   rtol=1e-12, atol=0):
                    failed += 1
            if r_wcc is not None:
                want = oracles.wcc_labels(n, src, dst)
                if not oracles.same_partition(r_wcc.values["component"],
                                              want):
                    failed += 1
        return failed


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (PrPullM16, SsspWccM4, PrPushOocM4, ServeZipfMutating)}
