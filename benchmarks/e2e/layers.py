"""Per-layer metrics: counts and simulated seconds from an untraced repeat,
host self seconds from the traced repeat.

Counts and ``sim_*`` values are read from the cluster's own instruments
(``repro.obs.report`` summaries, ``cluster.metrics``, ``cluster.job_log``,
``cluster.sim``) after an *untraced* repeat on a fresh cluster, so they
cover exactly the timed region and repeat bit for bit.  A ratio whose
denominator is zero is ``None`` (``null``), never a sentinel.
"""

from __future__ import annotations

from repro.obs.report import (cache_summary, disk_summary, ghost_hit_rate,
                              incremental_summary, overhead_breakdown,
                              scheduler_summary, traffic_by_kind)

from . import spec


def ratio(num: float, den: float):
    return num / den if den else None


def _counter_sum(flat: dict, name: str, label: str = "") -> float:
    """Sum one counter family out of ``MetricsRegistry.counters_flat()``,
    optionally only the series whose label string contains ``label``."""
    return sum(value for key, value in flat.items()
               if (key == name or key.startswith(name + "{"))
               and label in key)


def sim_and_counts(cluster, outcome, num_machines: int) -> dict:
    """Every per-layer metric that does not need the tracer."""
    reg = cluster.metrics
    flat = reg.counters_flat()
    sim_layers = overhead_breakdown(reg)
    disk = disk_summary(reg)
    sched = scheduler_summary(reg)
    inc = incremental_summary(reg)
    cache = cache_summary(reg)
    ghost_hits, ghost_misses = ghost_hit_rate(reg)
    events = cluster.sim.events_executed
    plan_hits = _counter_sum(flat, "repro_plan_cache_requests_total",
                             'result="hit"')
    plan_lookups = _counter_sum(flat, "repro_plan_cache_requests_total")
    miss_sim_s = _counter_sum(flat, "repro_cache_read_seconds_sum",
                              'result="miss"')

    workers = cluster.config.engine.num_workers
    parallel = intra = inter = 0.0
    edges = atomics = 0
    for _name, stats in cluster.job_log:
        edges += stats.edges_processed
        atomics += stats.atomic_ops
        if stats.busy_intervals:  # reads and epoch builds have no workers
            b = stats.breakdown(workers)
            parallel += b.fully_parallel
            intra += b.intra_machine
            inter += b.inter_machine
    region_s = parallel + intra + inter
    span_s = outcome.extra.get("sim_span_s", outcome.sim_s)

    return {
        "runtime.simulator.events": events,
        "runtime.simulator.event_pool_hit_rate":
            ratio(cluster.sim.event_pool_hits, events),
        "core.task_manager.chunks": _counter_sum(flat, "repro_chunks_total"),
        "core.task_manager.flushes":
            _counter_sum(flat, "repro_comm_flushes_total"),
        "core.task_manager.sim_busy_s": sim_layers.task,
        "core.vector_kernels.edges": edges,
        "core.vector_kernels.atomic_ops": atomics,
        "core.routing_plan.hit_rate": ratio(plan_hits, plan_lookups),
        "core.comm_manager.messages":
            _counter_sum(flat, "repro_copier_messages_total"),
        "core.comm_manager.sim_busy_s": sim_layers.comm,
        "runtime.network.messages":
            _counter_sum(flat, "repro_net_messages_total"),
        "runtime.network.bytes": sum(traffic_by_kind(reg).values()),
        "runtime.network.sim_transit_s": sim_layers.network,
        "core.ghost.hit_rate": ratio(ghost_hits, ghost_hits + ghost_misses),
        "core.ghost.sim_sync_s": sim_layers.ghost,
        "core.barrier.sim_s": sim_layers.barrier,
        "core.jobrunner.jobs": len(cluster.job_log),
        "runtime.stats.inter_machine_share": ratio(inter, region_s),
        "runtime.stats.intra_machine_share": ratio(intra, region_s),
        "runtime.disk.sim_read_s": disk["read_seconds"],
        "runtime.disk.sim_stall_s": disk["stall_seconds"],
        "runtime.disk.stall_share":
            ratio(disk["stall_seconds"], span_s * num_machines),
        "runtime.disk.bytes_read": disk["bytes_read"],
        "core.scheduler.dispatched": sched["dispatched"],
        "core.scheduler.rejected": sched["rejected"],
        "core.scheduler.sim_wait_s": sched["wait_seconds"],
        "core.result_cache.hits": cache["hits"],
        "core.result_cache.lookups": cache["hits"] + cache["misses"],
        "core.result_cache.hit_rate":
            ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "core.result_cache.evictions": cache["evictions"],
        "query.misses": cache["misses"],
        "query.sim_miss_s": miss_sim_s,
        "query.sim_miss_mean_s": ratio(miss_sim_s, cache["misses"]),
        "core.incremental.machines_reused": inc["machines_reused"],
        "core.incremental.machines_patched": inc["machines_patched"],
        "core.incremental.machines_reused_share":
            ratio(inc["machines_reused"],
                  inc["machines_reused"] + inc["machines_patched"]),
        "core.incremental.recomputed_vertices": inc["recomputed_vertices"],
        "core.incremental.sim_apply_s": inc["apply_seconds"],
        "serve.sim_lateness_max_s":
            outcome.extra.get("sim_lateness_max_s", 0.0),
    }


def host_metrics(reduced: dict, traced_host_s: float, untraced_host_s: float,
                 counts: dict) -> dict:
    """Host self seconds per layer from ``Tracer.reduce()``; a layer with
    a missing wrap target reports ``None`` for its host metrics."""
    layers = reduced["layers"]
    out = {}
    for layer, prefix in spec.HOST_LAYERS.items():
        entry = layers.get(layer)
        broken = entry is None or entry.get("broken")
        out[prefix + "host_self_s"] = None if broken else entry["self_s"]
    sim_self = out["runtime.simulator.host_self_s"]
    out["runtime.simulator.host_us_per_event"] = (
        None if sim_self is None
        else ratio(sim_self * 1e6, counts["runtime.simulator.events"]))
    vk_self = out["core.vector_kernels.host_self_s"]
    out["core.vector_kernels.host_ns_per_edge"] = (
        None if vk_self is None
        else ratio(vk_self * 1e9, counts["core.vector_kernels.edges"]))

    def calls(layer, names=None):
        entry = layers.get(layer)
        if entry is None or entry.get("broken"):
            return None
        return sum(v["calls"] for k, v in entry["by_name"].items()
                   if names is None or k.endswith(names))

    out["core.routing_plan.canonical_apply_calls"] = calls(
        "core.routing_plan.canonical_apply")
    out["obs.emits"] = calls("obs", names=".emit")
    out["trace.overhead_ratio"] = traced_host_s / untraced_host_s - 1.0
    out["trace.coverage"] = reduced["covered_s"] / traced_host_s
    return out
