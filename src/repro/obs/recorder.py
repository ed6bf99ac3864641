"""The always-on bridge from the hook bus to the metrics registry.

One :class:`MetricsRecorder` is installed per cluster at construction.  It
subscribes to the engine's built-in hook points and maintains the standard
``repro_*`` instrument set — the substrate behind ``repro report``, the
Prometheus/JSON exporters, and the per-job deltas attached to ``JobStats``.
"""

from __future__ import annotations

from .hooks import HookBus
from .metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry


class MetricsRecorder:
    """Subscribes the standard engine metrics to a cluster's hook bus."""

    def __init__(self, registry: MetricsRegistry, bus: HookBus):
        self.registry = registry
        r = registry

        self.chunks = r.counter(
            "repro_chunks_total", "Task chunks executed", ("machine", "kind"))
        self.worker_busy = r.counter(
            "repro_worker_busy_seconds_total",
            "Worker busy time (CPU-seconds, summed over workers)", ("machine",))
        self.chunk_seconds = r.histogram(
            "repro_chunk_seconds", "Distribution of chunk busy durations",
            ("kind",))

        self.flushes = r.counter(
            "repro_comm_flushes_total", "Request-buffer flushes", ("kind",))
        self.flush_items = r.counter(
            "repro_comm_flush_items_total", "Items shipped by flushes",
            ("kind",))
        self.comm_requests = r.counter(
            "repro_comm_requests_total",
            "Request messages enqueued at destinations", ("kind",))
        self.queue_depth = r.gauge(
            "repro_comm_queue_depth", "Current request-queue depth",
            ("machine",))
        self.queue_depth_samples = r.histogram(
            "repro_comm_queue_depth_samples",
            "Request-queue depth observed at enqueue/dequeue",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        self.copier_busy = r.counter(
            "repro_copier_busy_seconds_total",
            "Copier busy time (CPU-seconds, summed over copiers)", ("machine",))
        self.copier_messages = r.counter(
            "repro_copier_messages_total", "Messages processed by copiers",
            ("kind",))

        self.net_messages = r.counter(
            "repro_net_messages_total", "Messages on the fabric", ("kind",))
        self.net_bytes = r.counter(
            "repro_net_bytes_total", "Bytes on the fabric", ("kind",))
        self.net_transit = r.counter(
            "repro_net_transit_seconds_total",
            "Send-to-deliver latency summed over fabric messages")
        self.net_message_bytes = r.histogram(
            "repro_net_message_bytes", "Fabric message size distribution",
            buckets=DEFAULT_BYTE_BUCKETS)
        self.net_dropped = r.counter(
            "repro_net_dropped_total",
            "Fabric messages lost to injected drops", ("kind",))
        self.net_dropped_bytes = r.counter(
            "repro_net_dropped_bytes_total",
            "Bytes lost to injected drops", ("kind",))

        self.ghost_hits = r.counter(
            "repro_ghost_hits_total",
            "Accesses resolved against a local ghost copy", ("mode",))
        self.ghost_misses = r.counter(
            "repro_ghost_misses_total",
            "Non-local accesses that had to go remote", ("mode",))

        self.plan_cache_requests = r.counter(
            "repro_plan_cache_requests_total",
            "Routing-plan cache lookups", ("result",))
        self.plan_cache_hit_ratio = r.gauge(
            "repro_plan_cache_hit_ratio",
            "Fraction of plan lookups served from the cache")
        self.combine_items = r.counter(
            "repro_comm_combine_items_total",
            "Write elements through the sender-side combine step", ("stage",))
        self.write_combine_ratio = r.gauge(
            "repro_comm_write_combine_ratio",
            "Fraction of buffered write elements eliminated by combining "
            "(1 - out/in)")
        self._plan_hits = 0
        self._plan_lookups = 0
        self._combine_in = 0
        self._combine_out = 0

        self.faults_injected = r.counter(
            "repro_faults_injected_total",
            "Faults injected by the active FaultPlan", ("fault",))
        self.retries = r.counter(
            "repro_retries_total",
            "Reliable-request retransmissions (timeout/backoff resends)",
            ("kind",))
        self.dedup_drops = r.counter(
            "repro_dedup_drops_total",
            "Duplicate or stale deliveries discarded by receivers", ("kind",))
        self.checkpoints = r.counter(
            "repro_checkpoints_total", "Automatic property checkpoints written")
        self.recoveries = r.counter(
            "repro_job_recoveries_total",
            "Job restarts after injected machine crashes")

        self.disk_bytes = r.counter(
            "repro_disk_bytes_read",
            "Bytes streamed from the modeled local disks (out-of-core)",
            ("machine",))
        self.disk_reads = r.counter(
            "repro_disk_reads_total",
            "Window reads served by the modeled local disks", ("machine",))
        self.disk_read_seconds = r.counter(
            "repro_disk_read_seconds_total",
            "Seconds the modeled disks spent serving window reads",
            ("machine",))
        self.disk_stall = r.counter(
            "repro_disk_stall_seconds",
            "Seconds workers sat idle waiting for a window read",
            ("machine",))

        self.phase_seconds = r.counter(
            "repro_job_phase_seconds_total",
            "Wall time spent per job phase", ("phase",))
        self.phases = r.counter(
            "repro_job_phases_total", "Phase transitions", ("phase",))
        self.barriers = r.counter(
            "repro_barriers_total", "End-of-region barriers")
        self.barrier_seconds = r.counter(
            "repro_barrier_seconds_total", "Wall time spent in barriers")

        self.sched_admitted = r.counter(
            "repro_sched_admitted_total",
            "Background jobs admitted into the scheduler queues",
            ("priority",))
        self.sched_rejected = r.counter(
            "repro_sched_rejected_total",
            "Job submissions rejected at admission (backpressure)",
            ("reason",))
        self.sched_dispatched = r.counter(
            "repro_sched_dispatched_total",
            "Jobs dispatched onto the cluster", ("priority",))
        self.sched_preemptions = r.counter(
            "repro_sched_preemptions_total",
            "Head-of-line tickets skipped at dispatch because their session "
            "was over its fair share", ("session",))
        self.sched_completed = r.counter(
            "repro_sched_completed_total",
            "Scheduled jobs completed", ("session",))
        self.sched_queue_depth = r.gauge(
            "repro_sched_queue_depth",
            "Current admission-queue depth", ("priority",))
        self.sched_wait = r.histogram(
            "repro_sched_wait_seconds",
            "Queue wait per job: admission to dispatch", ("session",))
        self.sched_turnaround = r.histogram(
            "repro_sched_turnaround_seconds",
            "Turnaround per job: admission to completion", ("session",))

        self.incremental_batches = r.counter(
            "repro_incremental_batches_total",
            "Mutation batches applied as epoch-building jobs")
        self.incremental_edges = r.counter(
            "repro_incremental_edges_changed_total",
            "Edges changed by applied mutation batches", ("op",))
        self.incremental_machines = r.counter(
            "repro_incremental_machines_total",
            "Machines patched vs reused across epoch builds", ("action",))
        self.incremental_apply_seconds = r.counter(
            "repro_incremental_apply_seconds_total",
            "Simulated seconds spent building epochs from mutation batches")
        self.incremental_runs = r.counter(
            "repro_incremental_runs_total",
            "Incremental recomputes by algorithm and mode", ("algo", "mode"))
        self.incremental_recomputed = r.counter(
            "repro_incremental_recomputed_vertices_total",
            "Active-frontier vertices processed by recomputes", ("algo",))
        self.incremental_fallbacks = r.counter(
            "repro_incremental_fallbacks_total",
            "Warm recomputes that fell back to a full rerun because the "
            "delta exceeded the configured fraction", ("algo",))

        self.cache_requests = r.counter(
            "repro_cache_requests_total",
            "Result-cache lookups by served reads", ("result",))
        self.cache_evictions = r.counter(
            "repro_cache_evictions_total",
            "Result-cache entries evicted", ("reason",))
        self.cache_entries = r.gauge(
            "repro_cache_entries",
            "Entries resident in the result cache")
        self.cache_read_seconds = r.histogram(
            "repro_cache_read_seconds",
            "Served-read latency (simulated seconds) by cache outcome",
            ("result",))
        self.cache_saved_seconds = r.counter(
            "repro_cache_saved_seconds_total",
            "Simulated seconds saved by cache hits versus their entries' "
            "fresh compute cost")

        # Updated by PgxdCluster.run_job (no hook needed — the driver knows).
        r.counter("repro_jobs_total", "Parallel regions executed", ("kind",))
        r.histogram("repro_job_seconds", "Job elapsed time distribution")
        r.counter("repro_sim_events_total",
                  "Discrete events executed by the simulator")
        r.counter("repro_sim_event_pool_hits",
                  "Simulator events served from the recycled-event pool")

        bus.subscribe_known({
            "task.chunk_end": self._on_chunk_end,
            "comm.flush": self._on_flush,
            "comm.enqueue": self._on_enqueue,
            "comm.copier_done": self._on_copier_done,
            "net.send": self._on_net_send,
            "net.drop": self._on_net_drop,
            "ghost.hit": self._on_ghost_hit,
            "ghost.miss": self._on_ghost_miss,
            "task.plan_cache": self._on_plan_cache,
            "comm.combine": self._on_combine,
            "job.phase_end": self._on_phase_end,
            "barrier.exit": self._on_barrier_exit,
            "fault.inject": self._on_fault_inject,
            "comm.retry": self._on_retry,
            "comm.dedup_drop": self._on_dedup_drop,
            "job.checkpoint": self._on_checkpoint,
            "job.recover": self._on_recover,
            "disk.read": self._on_disk_read,
            "sched.admit": self._on_sched_admit,
            "sched.reject": self._on_sched_reject,
            "sched.dispatch": self._on_sched_dispatch,
            "sched.preempt": self._on_sched_preempt,
            "sched.complete": self._on_sched_complete,
            "dynamic.apply": self._on_dynamic_apply,
            "job.incremental": self._on_job_incremental,
            "cache.hit": self._on_cache_hit,
            "cache.miss": self._on_cache_miss,
            "cache.evict": self._on_cache_evict,
        })

    # -- hook handlers (machine labels are str()-ed once per event) --------

    def _on_chunk_end(self, p: dict) -> None:
        machine, kind, duration = str(p["machine"]), p["kind"], p["duration"]
        self.chunks.child(machine, kind).inc()
        self.worker_busy.child(machine).inc(duration)
        self.chunk_seconds.child(kind).observe(duration)

    def _on_flush(self, p: dict) -> None:
        kind = p["kind"]
        self.flushes.child(kind).inc()
        self.flush_items.child(kind).inc(p["items"])

    def _on_enqueue(self, p: dict) -> None:
        self.comm_requests.child(p["kind"]).inc()
        self.queue_depth.child(str(p["machine"])).set(p["depth"])
        self.queue_depth_samples.observe(p["depth"])

    def _on_copier_done(self, p: dict) -> None:
        machine = str(p["machine"])
        self.copier_busy.child(machine).inc(p["duration"])
        self.copier_messages.child(p["kind"]).inc()
        self.queue_depth.child(machine).set(p["depth"])

    def _on_net_send(self, p: dict) -> None:
        kind = p["kind"]
        self.net_messages.child(kind).inc()
        self.net_bytes.child(kind).inc(p["nbytes"])
        if p["deliver"] is not None:  # dropped messages never deliver
            self.net_transit.inc(p["deliver"] - p["time"])
        self.net_message_bytes.observe(p["nbytes"])

    def _on_net_drop(self, p: dict) -> None:
        self.net_dropped.child(p["kind"]).inc()
        self.net_dropped_bytes.child(p["kind"]).inc(p["nbytes"])

    def _on_ghost_hit(self, p: dict) -> None:
        self.ghost_hits.child(p["mode"]).inc(p["count"])

    def _on_ghost_miss(self, p: dict) -> None:
        self.ghost_misses.child(p["mode"]).inc(p["count"])

    def _on_plan_cache(self, p: dict) -> None:
        self.plan_cache_requests.child("hit" if p["hit"] else "miss").inc()
        self._plan_lookups += 1
        self._plan_hits += 1 if p["hit"] else 0
        self.plan_cache_hit_ratio.set(self._plan_hits / self._plan_lookups)

    def _on_combine(self, p: dict) -> None:
        self.combine_items.child("in").inc(p["items_in"])
        self.combine_items.child("out").inc(p["items_out"])
        self._combine_in += p["items_in"]
        self._combine_out += p["items_out"]
        if self._combine_in:
            self.write_combine_ratio.set(
                1.0 - self._combine_out / self._combine_in)

    def _on_phase_end(self, p: dict) -> None:
        phase = p["phase"]
        self.phase_seconds.child(phase).inc(p["duration"])
        self.phases.child(phase).inc()

    def _on_barrier_exit(self, p: dict) -> None:
        self.barriers.inc()
        self.barrier_seconds.inc(p["duration"])

    def _on_fault_inject(self, p: dict) -> None:
        self.faults_injected.child(p["fault"]).inc()

    def _on_retry(self, p: dict) -> None:
        self.retries.child(p["kind"]).inc()

    def _on_dedup_drop(self, p: dict) -> None:
        self.dedup_drops.child(p["kind"]).inc()

    def _on_checkpoint(self, p: dict) -> None:
        self.checkpoints.inc()

    def _on_recover(self, p: dict) -> None:
        self.recoveries.inc()

    def _on_disk_read(self, p: dict) -> None:
        machine = str(p["machine"])
        if p["nbytes"]:  # an adopted readahead was counted by its issuer
            self.disk_bytes.child(machine).inc(p["nbytes"])
            self.disk_reads.child(machine).inc()
            self.disk_read_seconds.child(machine).inc(p["duration"])
        if p["stall"] > 0.0:
            self.disk_stall.child(machine).inc(p["stall"])

    def _on_sched_admit(self, p: dict) -> None:
        self.sched_admitted.child(p["priority"]).inc()
        self.sched_queue_depth.child(p["priority"]).set(p["depth"])

    def _on_sched_reject(self, p: dict) -> None:
        self.sched_rejected.child(p["reason"]).inc()

    def _on_sched_dispatch(self, p: dict) -> None:
        self.sched_dispatched.child(p["priority"]).inc()
        self.sched_queue_depth.child(p["priority"]).set(p["depth"])
        self.sched_wait.child(p["session"]).observe(p["wait"])

    def _on_sched_preempt(self, p: dict) -> None:
        self.sched_preemptions.child(p["session"]).inc()

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

    def _on_cache_hit(self, p: dict) -> None:
        self.cache_requests.child("hit").inc()
        self.cache_read_seconds.child("hit").observe(p["cost"])
        self.cache_saved_seconds.inc(p["saved"])
        self.cache_entries.set(p["entries"])

    def _on_cache_miss(self, p: dict) -> None:
        self.cache_requests.child("miss").inc()
        self.cache_read_seconds.child("miss").observe(p["cost"])
        self.cache_entries.set(p["entries"])

    def _on_cache_evict(self, p: dict) -> None:
        self.cache_evictions.child(p["reason"]).inc(p["count"])
        self.cache_entries.set(p["entries"])
