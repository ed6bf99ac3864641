"""What the end-to-end benchmark runs and what it reports.

``BENCHMARK.json`` at the repository root is the contract (names, units,
bounds); this module holds what the contract's fixed key set has no room
for: sizes, machine counts, iteration counts, the offered read rate, and
— for every per-layer metric — the end-to-end metric and workload it is
predicted to move.  ``test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7

#: Timed repeats per run: at least this many, then more until the run's
#: ``--seconds`` budget is spent.  A traced run spends a third of its
#: budget on the one traced repeat.
MIN_REPEATS = 3
MIN_REPEATS_TRACED = 2


@dataclass(frozen=True)
class Sizes:
    """Input and work sizes of one size class (full or smoke)."""

    #: the shared batch graph ``G = rmat(nodes, edges, seed)``
    nodes: int
    edges: int
    pr_pull_iterations: int
    pr_push_ooc_iterations: int
    #: serve graph and trace
    serve_nodes: int
    serve_edges: int
    serve_reads: int
    serve_mutate_every: int
    warmup_reads: int


#: Sized on the 2-core reference box at the seed commit so that one timed
#: repeat is ~3 s of host time (sssp_wcc_m4 has no iteration knob: it runs
#: to convergence, ~6 s) — iterations were adjusted, not graph shape.
FULL = Sizes(nodes=200_000, edges=3_000_000,
             pr_pull_iterations=4, pr_push_ooc_iterations=6,
             serve_nodes=20_000, serve_edges=160_000,
             serve_reads=4000, serve_mutate_every=400, warmup_reads=120)

SMOKE = Sizes(nodes=3_000, edges=30_000,
              pr_pull_iterations=2, pr_push_ooc_iterations=2,
              serve_nodes=1_500, serve_edges=9_000,
              serve_reads=300, serve_mutate_every=100, warmup_reads=40)

MACHINES = {"pr_pull_m16": 16, "sssp_wcc_m4": 4, "pr_push_ooc_m4": 4,
            "serve_zipf_mutating": 4}
WORKLOADS = tuple(MACHINES)

PAGERANK_DAMPING = 0.85
#: modeled DRAM = this fraction of one machine's edge bytes (out-of-core)
OOC_DRAM_FRACTION = 0.1

# -- serve_zipf_mutating ---------------------------------------------------
SERVE_POOL = 64
SERVE_ZIPF_S = 1.1
#: edge changes per mutation batch (half inserted, half removed)
SERVE_BATCH_EDGES = 8
#: Offered read rate, reads per *simulated* second (open loop, Poisson).
#: Fixed once at the seed commit and never re-derived at run time:
#: closed-loop capacity of the full-size trace, reads plus maintenance,
#: measured 121.6k reads/s at seed 7, and this is a quarter of it.  At
#: half of capacity maintenance stalls cover ~45% of the trace, which puts
#: the median read on the edge between "served at once" and "queued behind
#: an epoch build" — it swung 400x between seeds.  At a quarter ~20% of
#: reads meet a stall: the median is an unqueued read, p99 a stalled one.
SERVE_OFFERED_RATE = 30_000.0
SERVE_RATE_LIMIT_FACTOR = 4.0
#: Token-bucket burst.  The longest epoch build + recompute stalls reads
#: for ~5.6 simulated ms (~170 reads queued at the offered rate); the
#: backlog then drains back-to-back, far above any refill rate, so a burst
#: below it refuses reads (32, at twice this rate, refused 24% of them).
#: 512 leaves 3x headroom: no operation fails unless maintenance gets
#: three times slower.
SERVE_READ_BURST = 512.0


# -- per-layer metrics -----------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workloads) this metric is predicted to move
    moves: tuple
    #: listed in BENCHMARK.json.  False for ratios whose denominator is
    #: zero on some workload: the contract line carries their numerator
    #: and denominator instead, the report derives them (null if undefined).
    contract: bool = True


_BATCH = ("pr_pull_m16", "sssp_wcc_m4", "pr_push_ooc_m4")
_ALL = WORKLOADS
_SERVE = ("serve_zipf_mutating",)


def _m(name, unit, better, metric, workloads, contract=True):
    return LayerMetric(name, unit, better, (metric, tuple(workloads)),
                       contract)


LAYER_METRICS = (
    _m("graph.generate_host_s", "s", "lower", "setup_s", ()),
    _m("core.engine.load_graph_host_s", "s", "lower", "setup_s", _ALL),
    _m("graph.partition.edge_imbalance", "ratio", "lower", "sim_s", _BATCH),

    _m("runtime.simulator.host_self_s", "s", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("runtime.simulator.events", "count", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("runtime.simulator.host_us_per_event", "us", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("runtime.simulator.event_pool_hit_rate", "ratio", "higher", "host_s",
       ("pr_pull_m16",)),

    _m("core.task_manager.host_self_s", "s", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("core.task_manager.chunks", "count", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("core.task_manager.flushes", "count", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("core.task_manager.sim_busy_s", "sim_s", "lower", "sim_s", _BATCH),

    _m("core.vector_kernels.host_self_s", "s", "lower", "host_s",
       ("sssp_wcc_m4",)),
    _m("core.vector_kernels.edges", "count", "lower", "host_s",
       ("sssp_wcc_m4",)),
    _m("core.vector_kernels.host_ns_per_edge", "ns", "lower", "host_s",
       ("sssp_wcc_m4",)),
    _m("core.vector_kernels.atomic_ops", "count", "lower", "sim_s",
       ("pr_push_ooc_m4",)),

    _m("core.routing_plan.lookup_host_self_s", "s", "lower", "host_s",
       ("pr_push_ooc_m4", "serve_zipf_mutating")),
    _m("core.routing_plan.hit_rate", "ratio", "higher", "host_s",
       ("pr_push_ooc_m4", "serve_zipf_mutating")),
    _m("core.routing_plan.canonical_apply_host_self_s", "s", "lower",
       "host_s", ("sssp_wcc_m4", "pr_push_ooc_m4")),
    _m("core.routing_plan.canonical_apply_calls", "count", "lower", "host_s",
       ("sssp_wcc_m4", "pr_push_ooc_m4")),

    _m("core.comm_manager.host_self_s", "s", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("core.comm_manager.messages", "count", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("core.comm_manager.sim_busy_s", "sim_s", "lower", "sim_s",
       ("pr_pull_m16",)),
    _m("runtime.network.host_self_s", "s", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("runtime.network.messages", "count", "lower", "host_s",
       ("pr_pull_m16",)),
    _m("runtime.network.bytes", "B", "lower", "sim_s", ("pr_pull_m16",)),
    _m("runtime.network.sim_transit_s", "sim_s", "lower", "sim_s",
       ("pr_pull_m16",)),
    _m("core.ghost.hit_rate", "ratio", "higher", "sim_s", ("pr_pull_m16",)),
    _m("core.ghost.sim_sync_s", "sim_s", "lower", "sim_s", ("pr_pull_m16",)),
    _m("core.barrier.sim_s", "sim_s", "lower", "sim_s", _BATCH),

    _m("core.jobrunner.host_self_s", "s", "lower", "host_s",
       ("serve_zipf_mutating", "sssp_wcc_m4")),
    _m("core.jobrunner.jobs", "count", "lower", "host_s",
       ("serve_zipf_mutating", "sssp_wcc_m4")),
    _m("runtime.stats.inter_machine_share", "ratio", "lower", "sim_s",
       _BATCH),
    _m("runtime.stats.intra_machine_share", "ratio", "lower", "sim_s",
       _BATCH),
    _m("obs.profiler.straggler_share", "ratio", "lower", "sim_s", _BATCH),
    _m("obs.profiler.busy_skew", "ratio", "lower", "sim_s", _BATCH),
    _m("obs.host_self_s", "s", "lower", "host_s",
       ("pr_pull_m16", "serve_zipf_mutating")),
    _m("obs.emits", "count", "lower", "host_s",
       ("pr_pull_m16", "serve_zipf_mutating")),

    _m("runtime.disk.sim_read_s", "sim_s", "lower", "sim_s",
       ("pr_push_ooc_m4",)),
    _m("runtime.disk.sim_stall_s", "sim_s", "lower", "sim_s",
       ("pr_push_ooc_m4",)),
    _m("runtime.disk.stall_share", "ratio", "lower", "sim_s",
       ("pr_push_ooc_m4",)),
    _m("runtime.disk.bytes_read", "B", "lower", "sim_s",
       ("pr_push_ooc_m4",)),

    _m("core.scheduler.host_self_s", "s", "lower", "host_s", _SERVE),
    _m("core.scheduler.dispatched", "count", "lower", "host_s", _SERVE),
    _m("core.scheduler.rejected", "count", "lower", "failed", _SERVE),
    _m("core.scheduler.sim_wait_s", "sim_s", "lower", "op_sim_p99_s",
       _SERVE),
    _m("core.result_cache.host_self_s", "s", "lower", "host_s", _SERVE),
    _m("core.result_cache.hits", "count", "higher", "sim_s", _SERVE),
    _m("core.result_cache.lookups", "count", "lower", "host_s", _SERVE),
    _m("core.result_cache.hit_rate", "ratio", "higher", "sim_s", _SERVE,
       contract=False),
    _m("core.result_cache.evictions", "count", "lower", "sim_s", _SERVE),
    _m("query.host_self_s", "s", "lower", "host_s", _SERVE),
    _m("query.misses", "count", "lower", "sim_s", _SERVE),
    _m("query.sim_miss_s", "sim_s", "lower", "sim_s", _SERVE),
    _m("query.sim_miss_mean_s", "sim_s", "lower", "sim_s", _SERVE,
       contract=False),

    _m("core.incremental.mutate_host_self_s", "s", "lower", "host_s",
       _SERVE),
    _m("core.incremental.recompute_host_self_s", "s", "lower", "host_s",
       _SERVE),
    _m("core.incremental.machines_reused", "count", "higher", "host_s",
       _SERVE),
    _m("core.incremental.machines_patched", "count", "lower", "host_s",
       _SERVE),
    _m("core.incremental.machines_reused_share", "ratio", "higher", "host_s",
       _SERVE, contract=False),
    _m("core.incremental.recomputed_vertices", "count", "lower", "host_s",
       _SERVE),
    _m("core.incremental.sim_apply_s", "sim_s", "lower", "op_sim_p99_s",
       _SERVE),
    _m("dynamic.host_self_s", "s", "lower", "host_s", _SERVE),

    _m("serve.sim_lateness_max_s", "sim_s", "lower", "op_sim_p99_s", _SERVE),
    _m("trace.traced_host_s", "s", "lower", "host_s", ()),
    _m("trace.overhead_ratio", "ratio", "lower", "host_s", ()),
    _m("trace.coverage", "ratio", "higher", "host_s", ()),
)

#: Layers whose host self time comes from the traced repeat; the value is
#: the layer's metric-name prefix (``<prefix>host_self_s``).
HOST_LAYERS = {
    "runtime.simulator": "runtime.simulator.",
    "core.task_manager": "core.task_manager.",
    "core.vector_kernels": "core.vector_kernels.",
    "core.routing_plan.lookup": "core.routing_plan.lookup_",
    "core.routing_plan.canonical_apply":
        "core.routing_plan.canonical_apply_",
    "core.comm_manager": "core.comm_manager.",
    "runtime.network": "runtime.network.",
    "core.jobrunner": "core.jobrunner.",
    "obs": "obs.",
    "core.scheduler": "core.scheduler.",
    "core.result_cache": "core.result_cache.",
    "query": "query.",
    "core.incremental.mutate": "core.incremental.mutate_",
    "core.incremental.recompute": "core.incremental.recompute_",
    "dynamic": "dynamic.",
}
