"""The always-on bridge from the engine to the metrics registry.

One :class:`MetricsRecorder` is installed per cluster at construction.  It
maintains the standard ``repro_*`` instrument set — the substrate behind
``repro report``, the Prometheus/JSON exporters, and the per-job deltas
attached to ``JobStats``.  What the engine counts per chunk, message or
request, and each region's phases, barrier, disk windows, retries and
duplicate drops, land in the attempt's
:class:`~repro.runtime.stats.JobStats`, and :meth:`MetricsRecorder.fold`
adds that account to the registry once, when the attempt ends; the events
outside any attempt's work (faults, checkpoints, recoveries, scheduling,
cache, epochs) arrive through hook handlers.
"""

from __future__ import annotations

from .hooks import HookBus
from .metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry


class MetricsRecorder:
    """Subscribes the standard engine metrics to a cluster's hook bus."""

    def __init__(self, registry: MetricsRegistry, bus: HookBus):
        self.registry = registry
        c, g, h = registry.counter, registry.gauge, registry.histogram

        self.chunks = c("repro_chunks_total", "Task chunks executed",
                        ("machine", "kind"))
        self.worker_busy = c(
            "repro_worker_busy_seconds_total",
            "Worker busy time (CPU-seconds, summed over workers)", ("machine",))
        self.chunk_seconds = h("repro_chunk_seconds",
                               "Distribution of chunk busy durations",
                               ("kind",))

        self.flushes = c("repro_comm_flushes_total", "Request-buffer flushes",
                         ("kind",))
        self.flush_items = c("repro_comm_flush_items_total",
                             "Items shipped by flushes", ("kind",))
        self.comm_requests = c("repro_comm_requests_total",
                               "Request messages enqueued at destinations",
                               ("kind",))
        self.queue_depth = g("repro_comm_queue_depth",
                             "Current request-queue depth", ("machine",))
        self.queue_depth_samples = h(
            "repro_comm_queue_depth_samples",
            "Request-queue depth observed at enqueue/dequeue",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        self.copier_busy = c(
            "repro_copier_busy_seconds_total",
            "Copier busy time (CPU-seconds, summed over copiers)", ("machine",))
        self.copier_messages = c("repro_copier_messages_total",
                                 "Messages processed by copiers", ("kind",))

        self.net_messages = c("repro_net_messages_total",
                              "Messages on the fabric", ("kind",))
        self.net_bytes = c("repro_net_bytes_total", "Bytes on the fabric",
                           ("kind",))
        self.net_transit = c(
            "repro_net_transit_seconds_total",
            "Send-to-deliver latency summed over fabric messages")
        self.net_message_bytes = h("repro_net_message_bytes",
                                   "Fabric message size distribution",
                                   buckets=DEFAULT_BYTE_BUCKETS)
        self.net_dropped = c("repro_net_dropped_total",
                             "Fabric messages lost to injected drops",
                             ("kind",))
        self.net_dropped_bytes = c("repro_net_dropped_bytes_total",
                                   "Bytes lost to injected drops", ("kind",))

        self.ghost_hits = c("repro_ghost_hits_total",
                            "Accesses resolved against a local ghost copy",
                            ("mode",))
        self.ghost_misses = c("repro_ghost_misses_total",
                              "Non-local accesses that had to go remote",
                              ("mode",))

        self.plan_cache_requests = c("repro_plan_cache_requests_total",
                                     "Routing-plan cache lookups", ("result",))
        self.plan_cache_hit_ratio = g(
            "repro_plan_cache_hit_ratio",
            "Fraction of plan lookups served from the cache")
        self.combine_items = c(
            "repro_comm_combine_items_total",
            "Write elements through the sender-side combine step", ("stage",))
        self.write_combine_ratio = g(
            "repro_comm_write_combine_ratio",
            "Fraction of buffered write elements eliminated by combining "
            "(1 - out/in)")

        self.faults_injected = c("repro_faults_injected_total",
                                 "Faults injected by the active FaultPlan",
                                 ("fault",))
        self.retries = c(
            "repro_retries_total",
            "Reliable-request retransmissions (timeout/backoff resends)",
            ("kind",))
        self.dedup_drops = c(
            "repro_dedup_drops_total",
            "Duplicate or stale deliveries discarded by receivers", ("kind",))
        self.checkpoints = c("repro_checkpoints_total",
                             "Automatic property checkpoints written")
        self.recoveries = c("repro_job_recoveries_total",
                            "Job restarts after injected machine crashes")

        self.disk_bytes = c(
            "repro_disk_bytes_read",
            "Bytes streamed from the modeled local disks (out-of-core)",
            ("machine",))
        self.disk_reads = c("repro_disk_reads_total",
                            "Window reads served by the modeled local disks",
                            ("machine",))
        self.disk_read_seconds = c(
            "repro_disk_read_seconds_total",
            "Seconds the modeled disks spent serving window reads",
            ("machine",))
        self.disk_stall = c(
            "repro_disk_stall_seconds",
            "Seconds workers sat idle waiting for a window read",
            ("machine",))

        self.phase_seconds = c("repro_job_phase_seconds_total",
                               "Wall time spent per job phase", ("phase",))
        self.phases = c("repro_job_phases_total", "Phase transitions",
                        ("phase",))
        self.barriers = c("repro_barriers_total", "End-of-region barriers")
        self.barrier_seconds = c("repro_barrier_seconds_total",
                                 "Wall time spent in barriers")

        self.sched_admitted = c(
            "repro_sched_admitted_total",
            "Background jobs admitted into the scheduler queues",
            ("priority",))
        self.sched_rejected = c(
            "repro_sched_rejected_total",
            "Job submissions rejected at admission (backpressure)",
            ("reason",))
        self.sched_dispatched = c("repro_sched_dispatched_total",
                                  "Jobs dispatched onto the cluster",
                                  ("priority",))
        self.sched_preemptions = c(
            "repro_sched_preemptions_total",
            "Head-of-line tickets skipped at dispatch because their session "
            "was over its fair share", ("session",))
        self.sched_completed = c("repro_sched_completed_total",
                                 "Scheduled jobs completed", ("session",))
        self.sched_queue_depth = g("repro_sched_queue_depth",
                                   "Current admission-queue depth",
                                   ("priority",))
        self.sched_wait = h("repro_sched_wait_seconds",
                            "Queue wait per job: admission to dispatch",
                            ("session",))
        self.sched_turnaround = h(
            "repro_sched_turnaround_seconds",
            "Turnaround per job: admission to completion", ("session",))

        self.incremental_batches = c(
            "repro_incremental_batches_total",
            "Mutation batches applied as epoch-building jobs")
        self.incremental_edges = c(
            "repro_incremental_edges_changed_total",
            "Edges changed by applied mutation batches", ("op",))
        self.incremental_machines = c(
            "repro_incremental_machines_total",
            "Machines patched vs reused across epoch builds", ("action",))
        self.incremental_apply_seconds = c(
            "repro_incremental_apply_seconds_total",
            "Simulated seconds spent building epochs from mutation batches")
        self.incremental_runs = c(
            "repro_incremental_runs_total",
            "Incremental recomputes by algorithm and mode", ("algo", "mode"))
        self.incremental_recomputed = c(
            "repro_incremental_recomputed_vertices_total",
            "Active-frontier vertices processed by recomputes", ("algo",))
        self.incremental_fallbacks = c(
            "repro_incremental_fallbacks_total",
            "Warm recomputes that fell back to a full rerun because the "
            "delta exceeded the configured fraction", ("algo",))

        self.cache_requests = c("repro_cache_requests_total",
                                "Result-cache lookups by served reads",
                                ("result",))
        self.cache_evictions = c("repro_cache_evictions_total",
                                 "Result-cache entries evicted", ("reason",))
        self.cache_entries = g("repro_cache_entries",
                               "Entries resident in the result cache")
        self.cache_read_seconds = h(
            "repro_cache_read_seconds",
            "Served-read latency (simulated seconds) by cache outcome",
            ("result",))
        self.cache_saved_seconds = c(
            "repro_cache_saved_seconds_total",
            "Simulated seconds saved by cache hits versus their entries' "
            "fresh compute cost")

        # Updated by the scheduler (no hook needed — it knows).
        c("repro_jobs_total", "Parallel regions executed", ("kind",))
        h("repro_job_seconds", "Job elapsed time distribution")
        c("repro_sim_events_total",
          "Discrete events executed by the simulator")
        c("repro_sim_event_pool_hits",
          "Simulator events served from the recycled-event pool")

        bus.subscribe_known({
            "fault.inject":
                lambda p: self.faults_injected.child(p["fault"]).inc(),
            "job.checkpoint": lambda p: self.checkpoints.inc(),
            "job.recover": lambda p: self.recoveries.inc(),
            "sched.admit": self._on_sched_admit,
            "sched.reject":
                lambda p: self.sched_rejected.child(p["reason"]).inc(),
            "sched.dispatch": self._on_sched_dispatch,
            "sched.preempt":
                lambda p: self.sched_preemptions.child(p["session"]).inc(),
            "sched.complete": self._on_sched_complete,
            "dynamic.apply": self._on_dynamic_apply,
            "job.incremental": self._on_job_incremental,
            "cache.hit": lambda p: self._on_cache_read("hit", p),
            "cache.miss": lambda p: self._on_cache_read("miss", p),
            "cache.evict": self._on_cache_evict,
        })

    # -- the per-attempt fold ------------------------------------------------

    def fold(self, stats) -> None:
        """Add one attempt's :class:`~repro.runtime.stats.JobStats` to the
        registry.  The scheduler calls this once per attempt: inside the
        job's ledger scope when it finishes, outside any ledger when crash
        recovery abandons it.  Seconds are added one slice, span or
        message at a time, in the order the engine recorded them."""
        for _, m, _, kind, _, duration in stats.chunks:
            machine = str(m)
            self.chunks.child(machine, kind).inc()
            self.worker_busy.child(machine).inc(duration)
            self.chunk_seconds.child(kind).observe(duration)
        for _, m, _, kind, _, duration in stats.copier_passes:
            self.copier_busy.child(str(m)).inc(duration)
            self.copier_messages.child(kind).inc()
        for _, m, lane, kind, _, duration in stats.spans:
            if kind == "phase":
                self.phase_seconds.child(lane).inc(duration)
                self.phases.child(lane).inc()
            elif kind == "barrier":
                self.barriers.inc()
                self.barrier_seconds.inc(duration)
            elif kind == "disk-read" and duration:  # not an adopted read
                self.disk_reads.child(str(m)).inc()
                self.disk_read_seconds.child(str(m)).inc(duration)
            elif kind == "disk-stall":
                self.disk_stall.child(str(m)).inc(duration)
        transit = self.net_transit.child()
        sizes = self.net_message_bytes.child()
        for _, _, _, kind, nbytes, send, deliver in stats.sends:
            self.net_messages.child(kind).inc()
            sizes.observe(nbytes)
            if deliver is None:
                self.net_dropped.child(kind).inc()
                self.net_dropped_bytes.child(kind).inc(nbytes)
            else:
                transit.inc(deliver - send)
        for kind, nbytes in stats.bytes_by_kind.items():
            self.net_bytes.child(kind).inc(nbytes)
        for mode, n in (("read", stats.remote_reads),
                        ("write", stats.remote_writes)):
            if n:
                self.ghost_misses.child(mode).inc(n)
        if not stats.counts:  # a read or an epoch build: no ratio moves
            return
        for (fact, label), n in stats.counts.items():
            family = getattr(self, fact)  # each fact names its instrument
            if family.kind == "counter":
                family.child(label).inc(n)
            elif family.kind == "gauge":  # the last value seen
                family.child(str(label)).set(n)
            else:  # ``n`` observations of ``label``
                hist = family.child()
                for _ in range(n):
                    hist.observe(label)
        hits, misses = self._totals(self.plan_cache_requests, "hit", "miss")
        if hits + misses:
            self.plan_cache_hit_ratio.set(hits / (hits + misses))
        items_in, items_out = self._totals(self.combine_items, "in", "out")
        if items_in:
            self.write_combine_ratio.set(1.0 - items_out / items_in)

    @staticmethod
    def _totals(family, *labels) -> list[float]:
        """The running totals of ``family``'s children for ``labels``."""
        children = dict(family.children())
        return [children[(label,)].value if (label,) in children else 0.0
                for label in labels]

    # -- hook handlers -----------------------------------------------------

    def _on_sched_admit(self, p: dict) -> None:
        self.sched_admitted.child(p["priority"]).inc()
        self.sched_queue_depth.child(p["priority"]).set(p["depth"])

    def _on_sched_dispatch(self, p: dict) -> None:
        self.sched_dispatched.child(p["priority"]).inc()
        self.sched_queue_depth.child(p["priority"]).set(p["depth"])
        self.sched_wait.child(p["session"]).observe(p["wait"])

    def _on_sched_complete(self, p: dict) -> None:
        self.sched_completed.child(p["session"]).inc()
        self.sched_turnaround.child(p["session"]).observe(p["turnaround"])

    def _on_dynamic_apply(self, p: dict) -> None:
        self.incremental_batches.inc()
        self.incremental_edges.child("insert").inc(p["inserted"])
        self.incremental_edges.child("remove").inc(p["removed"])
        self.incremental_machines.child("patched").inc(p["machines_patched"])
        self.incremental_machines.child("reused").inc(p["machines_reused"])
        self.incremental_apply_seconds.inc(p["duration"])

    def _on_job_incremental(self, p: dict) -> None:
        algo = p["algo"]
        self.incremental_runs.child(algo, p["mode"]).inc()
        self.incremental_recomputed.child(algo).inc(p["recomputed_vertices"])
        if p["fallback"]:
            self.incremental_fallbacks.child(algo).inc()

    def _on_cache_read(self, result: str, p: dict) -> None:
        self.cache_requests.child(result).inc()
        self.cache_read_seconds.child(result).observe(p["cost"])
        if result == "hit":
            self.cache_saved_seconds.inc(p["saved"])
        self.cache_entries.set(p["entries"])

    def _on_cache_evict(self, p: dict) -> None:
        self.cache_evictions.child(p["reason"]).inc(p["count"])
        self.cache_entries.set(p["entries"])
