"""An independent witness for the metrics recorder.

Events outside any attempt's work (faults, checkpoints, recoveries,
scheduling, cache, epochs) reach the registry through the recorder's hook
handlers; what each chunk, flush, request, copier pass, message, phase,
barrier, disk window, retry and duplicate drop did reaches it when
:meth:`MetricsRecorder.fold` adds the attempt's ``JobStats``.  The
witness rebuilds both halves without the fold: it hands every hook event to
a fresh recorder, and counts every attempt's ``JobStats`` itself — crash
recovery's abandoned attempts included — one row or count at a time, the
way each family is documented to count it.
"""

from repro.obs import KNOWN_HOOKS, HookBus, MetricsRecorder, MetricsRegistry


class HookWitness:
    """A registry filled from hook payloads and ``JobStats`` rows alone."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self._bus = HookBus()
        self._rec = MetricsRecorder(self.registry, self._bus)
        self._plan = [0, 0]     # hits, lookups
        self._combine = [0, 0]  # items in, items out
        #: ``(ticket, JobStats)`` of every attempt, in start order
        self.attempts: list[tuple] = []
        self._counted = 0

    def feed(self, name: str, p: dict) -> None:
        self._bus.emit(name, **p)

    def count(self, stats) -> None:
        """Add one attempt's rows and counts to the registry."""
        r = self._rec
        for _, m, _, kind, _, duration in stats.chunks:
            r.chunks.labels(machine=m, kind=kind).inc()
            r.worker_busy.labels(machine=m).inc(duration)
            r.chunk_seconds.labels(kind=kind).observe(duration)
        for _, m, _, kind, _, duration in stats.copier_passes:
            r.copier_busy.labels(machine=m).inc(duration)
            r.copier_messages.labels(kind=kind).inc()
        for _, m, lane, kind, _, duration in stats.spans:
            if kind == "phase":
                r.phase_seconds.labels(phase=lane).inc(duration)
                r.phases.labels(phase=lane).inc()
            elif kind == "barrier":
                r.barriers.inc()
                r.barrier_seconds.inc(duration)
            elif kind == "disk-read" and duration > 0.0:
                # a zero-length read is an adopted readahead: its issuing
                # region counted the read
                r.disk_reads.labels(machine=m).inc()
                r.disk_read_seconds.labels(machine=m).inc(duration)
            elif kind == "disk-stall":
                r.disk_stall.labels(machine=m).inc(duration)
            else:
                assert kind in ("ghost-reduce", "disk-read") or \
                    kind.startswith("retry:"), kind
        for _, _, _, kind, nbytes, send, deliver in stats.sends:
            r.net_messages.labels(kind=kind).inc()
            r.net_bytes.labels(kind=kind).inc(nbytes)
            r.net_message_bytes.observe(nbytes)
            if deliver is None:
                r.net_dropped.labels(kind=kind).inc()
                r.net_dropped_bytes.labels(kind=kind).inc(nbytes)
            else:
                r.net_transit.inc(deliver - send)
        for mode, n in (("read", stats.remote_reads),
                        ("write", stats.remote_writes)):
            if n:
                r.ghost_misses.labels(mode=mode).inc(n)
        for (fact, label), n in stats.counts.items():
            if fact in ("flushes", "flush_items", "comm_requests"):
                getattr(r, fact).labels(kind=label).inc(n)
            elif fact == "queue_depth":
                r.queue_depth.labels(machine=label).set(n)
            elif fact == "queue_depth_samples":
                for _ in range(n):
                    r.queue_depth_samples.observe(label)
            elif fact in ("retries", "dedup_drops"):
                getattr(r, fact).labels(kind=label).inc(n)
            elif fact == "disk_bytes":
                r.disk_bytes.labels(machine=label).inc(n)
            elif fact == "ghost_hits":
                r.ghost_hits.labels(mode=label).inc(n)
            elif fact == "plan_cache_requests":
                r.plan_cache_requests.labels(result=label).inc(n)
                self._plan[0] += n if label == "hit" else 0
                self._plan[1] += n
                r.plan_cache_hit_ratio.set(self._plan[0] / self._plan[1])
            else:
                assert fact == "combine_items", fact
                r.combine_items.labels(stage=label).inc(n)
                self._combine[label == "out"] += n
                if self._combine[0]:
                    r.write_combine_ratio.set(
                        1.0 - self._combine[1] / self._combine[0])

    def snapshot(self) -> dict:
        """The registry's snapshot, every attempt seen so far counted."""
        for _, stats in self.attempts[self._counted:]:
            self.count(stats)
        self._counted = len(self.attempts)
        return self.registry.snapshot()

    def attach(self, cluster) -> "HookWitness":
        """Feed every engine event ``cluster`` emits from now on, and keep
        each attempt's ``JobStats`` when its ``job.start`` fires."""
        def on_start(p):
            ticket = next(t for t in cluster.scheduler.tickets
                          if t.seq == p["ticket"])
            self.attempts.append((ticket.seq, ticket.execution.stats))

        cluster.hooks.subscribe("job.start", on_start)
        for name in KNOWN_HOOKS:
            cluster.hooks.subscribe(
                name, lambda p, name=name: self.feed(name, p))
        return self


def replay(events, *attempts) -> MetricsRegistry:
    """The registry ``(hook, payload)`` events and the attempts'
    ``JobStats`` amount to."""
    witness = HookWitness()
    for name, payload in events:
        witness.feed(name, payload)
    for stats in attempts:
        witness.count(stats)
    return witness.registry
