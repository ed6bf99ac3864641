"""Figure-5-style per-layer overhead reporting from live metrics.

Turns a cluster's :class:`~repro.obs.metrics.MetricsRegistry` into the
overhead breakdown the paper analyses in Figure 5: how much time the run
spent in task execution (workers), communication handling (copiers), on the
fabric, in ghost synchronization, and in barriers.  Worker/copier rows are
CPU-seconds summed across threads and machines; phase/barrier rows are
simulated wall seconds — the table reports each layer's share of the summed
instrumented time, which is the paper's relative-overhead view.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.stats import straggler
from .metrics import MetricsRegistry


def _family_sum(registry: MetricsRegistry, name: str,
                where: dict[str, str] | None = None) -> float:
    """A counter family's total, or a histogram family's summed ``sum``."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for key, child in metric.children():
        labels = dict(zip(metric.labelnames, key))
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        total += child.sum if metric.kind == "histogram" else child.value
    return total


@dataclass
class OverheadBreakdown:
    """Per-layer instrumented seconds for one measurement window."""

    task: float = 0.0       # worker busy CPU-seconds
    comm: float = 0.0       # copier busy CPU-seconds
    network: float = 0.0    # send-to-deliver transit seconds
    ghost: float = 0.0      # presync + postsync wall seconds
    barrier: float = 0.0    # barrier wall seconds
    disk: float = 0.0       # local-disk window-read seconds (out-of-core)

    @property
    def total(self) -> float:
        return (self.task + self.comm + self.network + self.ghost
                + self.barrier + self.disk)

    def rows(self) -> list[tuple[str, float, float]]:
        t = self.total
        return [(layer, secs, secs / t if t > 0 else 0.0)
                for layer, secs in (("task", self.task), ("comm", self.comm),
                                    ("network", self.network),
                                    ("ghost", self.ghost),
                                    ("barrier", self.barrier),
                                    ("disk", self.disk))]


def overhead_breakdown(registry: MetricsRegistry) -> OverheadBreakdown:
    """Read the per-layer seconds out of the standard instrument set."""
    ghost_sync = (_family_sum(registry, "repro_job_phase_seconds_total",
                              {"phase": "presync"})
                  + _family_sum(registry, "repro_job_phase_seconds_total",
                                {"phase": "postsync"}))
    return OverheadBreakdown(
        task=_family_sum(registry, "repro_worker_busy_seconds_total"),
        comm=_family_sum(registry, "repro_copier_busy_seconds_total"),
        network=_family_sum(registry, "repro_net_transit_seconds_total"),
        ghost=ghost_sync,
        barrier=_family_sum(registry, "repro_barrier_seconds_total"),
        disk=_family_sum(registry, "repro_disk_read_seconds_total"),
    )


def _sums(registry: MetricsRegistry, **families) -> dict[str, float]:
    """``{key: _family_sum(registry, family)}``; a ``(name, where)``
    family sums only the children whose labels match ``where``."""
    return {key: _family_sum(registry, *((spec,) if isinstance(spec, str)
                                         else spec))
            for key, spec in families.items()}


def disk_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Out-of-core disk-tier activity, zero-suppressed by the caller."""
    return _sums(registry, bytes_read="repro_disk_bytes_read",
                 reads="repro_disk_reads_total",
                 read_seconds="repro_disk_read_seconds_total",
                 stall_seconds="repro_disk_stall_seconds")


def traffic_by_kind(registry: MetricsRegistry) -> dict[str, float]:
    """Fabric bytes per message kind (read_req / read_resp / ...)."""
    metric = registry.get("repro_net_bytes_total")
    if metric is None:
        return {}
    return {key[0]: child.value for key, child in metric.children()}


def ghost_hit_rate(registry: MetricsRegistry) -> tuple[float, float]:
    """(hits, misses) over both read and write modes."""
    return (_family_sum(registry, "repro_ghost_hits_total"),
            _family_sum(registry, "repro_ghost_misses_total"))


def fault_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Faults / retries / dedup drops / recoveries, zero-suppressed."""
    return _sums(registry, faults_injected="repro_faults_injected_total",
                 retries="repro_retries_total",
                 dedup_drops="repro_dedup_drops_total",
                 recoveries="repro_job_recoveries_total",
                 checkpoints="repro_checkpoints_total")


def scheduler_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Multi-tenant scheduler activity, zero-suppressed by the caller.

    ``wait_seconds`` / ``turnaround_seconds`` are sums over all dispatched
    jobs (divide by ``dispatched`` / ``completed`` for means); the per-
    session histograms stay available in the registry for exporters.
    """
    return _sums(registry, admitted="repro_sched_admitted_total",
                 rejected="repro_sched_rejected_total",
                 dispatched="repro_sched_dispatched_total",
                 preemptions="repro_sched_preemptions_total",
                 completed="repro_sched_completed_total",
                 wait_seconds="repro_sched_wait_seconds",
                 turnaround_seconds="repro_sched_turnaround_seconds")


def incremental_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Dynamic-graph epoch builds + incremental recomputes, zero-suppressed."""
    machines = "repro_incremental_machines_total"
    return _sums(
        registry, batches="repro_incremental_batches_total",
        edges_changed="repro_incremental_edges_changed_total",
        machines_patched=(machines, {"action": "patched"}),
        machines_reused=(machines, {"action": "reused"}),
        apply_seconds="repro_incremental_apply_seconds_total",
        runs="repro_incremental_runs_total",
        recomputed_vertices="repro_incremental_recomputed_vertices_total",
        fallbacks="repro_incremental_fallbacks_total")


def cache_summary(registry: MetricsRegistry) -> dict[str, float]:
    """Serving-tier result-cache activity, zero-suppressed."""
    requests = "repro_cache_requests_total"
    out = _sums(registry, hits=(requests, {"result": "hit"}),
                misses=(requests, {"result": "miss"}))
    lookups = out["hits"] + out["misses"]
    out["hit_rate"] = out["hits"] / lookups if lookups else 0.0
    out.update(_sums(registry, evictions="repro_cache_evictions_total",
                     saved_seconds="repro_cache_saved_seconds_total"))
    return out


def _table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = [f"=== {title} ==="]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("-+-".join("-" * w for w in widths))
    for r in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def render_overhead_report(registry: MetricsRegistry, title: str = "",
                           elapsed: float | None = None,
                           profile=None,
                           host_elapsed: float | None = None) -> str:
    """The ``repro report`` payload: per-layer table plus traffic/ghost lines.

    ``profile`` is an installed :class:`~repro.obs.profiler.SpanProfiler`
    (or None): when given, the layer table gains critical-path columns —
    how many of each layer's instrumented seconds actually gated job
    completion — plus a straggler line below the table.  ``host_elapsed``
    is real (wall-clock) seconds spent driving the simulation; when given,
    the event line reports the host-side event execution rate.
    """
    bd = overhead_breakdown(registry)
    path_layers = profile.layer_summary() if profile is not None else {}
    path_total = sum(path_layers.values())
    headers = ["layer", "seconds", "share"]
    if profile is not None:
        headers += ["crit-path", "cp-share"]
    rows = []
    for layer, secs, frac in bd.rows():
        row = [layer, f"{secs:.6f}", f"{frac:6.1%}"]
        if profile is not None:
            cp = path_layers.get(layer, 0.0)
            row += [f"{cp:.6f}",
                    f"{cp / path_total if path_total > 0 else 0.0:6.1%}"]
        rows.append(row)
    total_row = ["total", f"{bd.total:.6f}",
                 f"{1.0 if bd.total > 0 else 0.0:6.1%}"]
    if profile is not None:
        total_row += [f"{path_total:.6f}",
                      f"{1.0 if path_total > 0 else 0.0:6.1%}"]
    rows.append(total_row)
    heading = "Per-layer overheads" + (f" — {title}" if title else "")
    parts = [_table(heading, headers, rows)]

    if profile is not None:
        by_machine = profile.straggler_summary()
        machine, share = straggler(by_machine)
        if share > 0.0:
            parts.append(
                f"critical path: {path_total:.6f} s over "
                f"{len(profile.profiles)} job(s); straggler machine "
                f"{machine} holds {share:.0%} of on-CPU path time "
                f"({share * len(by_machine):.2f}x fair share)")

    if elapsed is not None:
        parts.append(f"elapsed (simulated wall): {elapsed:.6f} s")

    traffic = traffic_by_kind(registry)
    if traffic:
        total = sum(traffic.values())
        kinds = ", ".join(f"{k} {v / 1e6:.2f}" for k, v in sorted(traffic.items()))
        parts.append(f"fabric traffic: {total / 1e6:.2f} MB ({kinds})")
    ds = disk_summary(registry)
    if any(ds.values()):
        parts.append(
            f"disk tier: {ds['bytes_read'] / 1e6:.2f} MB streamed over "
            f"{ds['reads']:.0f} window reads "
            f"({ds['read_seconds']:.6f} s on-device); "
            f"worker stall {ds['stall_seconds']:.6f} s")
    hits, misses = ghost_hit_rate(registry)
    if hits or misses:
        rate = hits / (hits + misses) if (hits + misses) else 0.0
        parts.append(f"ghost accesses: {hits:.0f} hits / {misses:.0f} misses "
                     f"({rate:.1%} served locally)")
    jobs = _family_sum(registry, "repro_jobs_total")
    barriers = _family_sum(registry, "repro_barriers_total")
    parts.append(f"jobs: {jobs:.0f}  barriers: {barriers:.0f}")
    events = _family_sum(registry, "repro_sim_events_total")
    if events:
        pool_hits = _family_sum(registry, "repro_sim_event_pool_hits")
        line = (f"events: {events:.0f} executed; "
                f"pool hits: {pool_hits:.0f} ({pool_hits / events:.1%})")
        if host_elapsed is not None and host_elapsed > 0:
            line += f"; rate: {events / host_elapsed:,.0f} events/s (host)"
        parts.append(line)
    ss = scheduler_summary(registry)
    if any(ss.values()):
        dispatched = ss["dispatched"] or 1.0
        completed = ss["completed"] or 1.0
        parts.append(
            f"scheduler: {ss['admitted']:.0f} admitted; "
            f"{ss['rejected']:.0f} rejected; "
            f"{ss['dispatched']:.0f} dispatched; "
            f"{ss['preemptions']:.0f} preemptions; "
            f"{ss['completed']:.0f} completed; "
            f"mean wait {ss['wait_seconds'] / dispatched:.6f} s; "
            f"mean turnaround {ss['turnaround_seconds'] / completed:.6f} s")
    inc = incremental_summary(registry)
    if any(inc.values()):
        parts.append(
            f"dynamic: {inc['batches']:.0f} batches "
            f"({inc['edges_changed']:.0f} edges changed); machines "
            f"{inc['machines_patched']:.0f} patched / "
            f"{inc['machines_reused']:.0f} reused; "
            f"apply {inc['apply_seconds']:.6f} s; "
            f"recomputes: {inc['runs']:.0f} "
            f"({inc['fallbacks']:.0f} full-rerun fallbacks, "
            f"{inc['recomputed_vertices']:.0f} frontier vertices)")
    cs = cache_summary(registry)
    if cs["hits"] or cs["misses"] or cs["evictions"]:
        parts.append(
            f"cache: {cs['hits']:.0f} hits / {cs['misses']:.0f} misses "
            f"({cs['hit_rate']:.1%} hit rate); "
            f"{cs['evictions']:.0f} evictions; "
            f"saved {cs['saved_seconds']:.6f} s")
    fs = fault_summary(registry)
    if any(fs.values()):
        parts.append(
            f"faults: {fs['faults_injected']:.0f} injected; "
            f"retries: {fs['retries']:.0f}; "
            f"dedup drops: {fs['dedup_drops']:.0f}; "
            f"recoveries: {fs['recoveries']:.0f}; "
            f"checkpoints: {fs['checkpoints']:.0f}")
    return "\n".join(parts)
