"""An independent witness for the metrics recorder's per-attempt fold.

The engine counts what it does per chunk, flush, request, copier pass and
message in each attempt's ``JobStats``, and the recorder folds that into
the registry when the attempt ends.  The hooks still fire for every one of
those facts, so a test can rebuild the registry from the event stream
alone: :class:`HookWitness` counts the nine hot hooks' payloads itself, the
way each family is documented to count them, and hands every other event
to a fresh recorder.
"""

from repro.obs import KNOWN_HOOKS, HookBus, MetricsRecorder, MetricsRegistry

#: the hooks whose facts reach the registry through ``JobStats``
HOT_HOOKS = ("task.chunk_end", "task.plan_cache", "comm.enqueue",
             "comm.flush", "comm.copier_done", "comm.combine", "net.send",
             "ghost.hit", "ghost.miss")


class HookWitness:
    """A registry filled from hook payloads alone, one event at a time."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self._bus = HookBus()
        self._rec = MetricsRecorder(self.registry, self._bus)
        self._plan = [0, 0]     # hits, lookups
        self._combine = [0, 0]  # items in, items out

    def feed(self, name: str, p: dict) -> None:
        if name not in HOT_HOOKS:
            self._bus.emit(name, **p)
            return
        r = self._rec
        if name == "task.chunk_end":
            r.chunks.labels(machine=p["machine"], kind=p["kind"]).inc()
            r.worker_busy.labels(machine=p["machine"]).inc(p["duration"])
            r.chunk_seconds.labels(kind=p["kind"]).observe(p["duration"])
        elif name == "comm.flush":
            r.flushes.labels(kind=p["kind"]).inc()
            r.flush_items.labels(kind=p["kind"]).inc(p["items"])
        elif name == "comm.enqueue":
            r.comm_requests.labels(kind=p["kind"]).inc()
            r.queue_depth.labels(machine=p["machine"]).set(p["depth"])
            r.queue_depth_samples.observe(p["depth"])
        elif name == "comm.copier_done":
            r.copier_busy.labels(machine=p["machine"]).inc(p["duration"])
            r.copier_messages.labels(kind=p["kind"]).inc()
            r.queue_depth.labels(machine=p["machine"]).set(p["depth"])
        elif name == "net.send":
            r.net_messages.labels(kind=p["kind"]).inc()
            r.net_bytes.labels(kind=p["kind"]).inc(p["nbytes"])
            if p["deliver"] is not None:
                r.net_transit.inc(p["deliver"] - p["time"])
            r.net_message_bytes.observe(p["nbytes"])
        elif name in ("ghost.hit", "ghost.miss"):
            family = r.ghost_hits if name == "ghost.hit" else r.ghost_misses
            family.labels(mode=p["mode"]).inc(p["count"])
        elif name == "task.plan_cache":
            r.plan_cache_requests.labels(
                result="hit" if p["hit"] else "miss").inc()
            self._plan[0] += bool(p["hit"])
            self._plan[1] += 1
            r.plan_cache_hit_ratio.set(self._plan[0] / self._plan[1])
        else:  # comm.combine
            r.combine_items.labels(stage="in").inc(p["items_in"])
            r.combine_items.labels(stage="out").inc(p["items_out"])
            self._combine[0] += p["items_in"]
            self._combine[1] += p["items_out"]
            r.write_combine_ratio.set(
                1.0 - self._combine[1] / self._combine[0])

    def attach(self, cluster) -> "HookWitness":
        """Feed every engine event ``cluster`` emits from now on."""
        for name in KNOWN_HOOKS:
            cluster.hooks.subscribe(
                name, lambda p, name=name: self.feed(name, p))
        return self


def replay(events) -> MetricsRegistry:
    """The registry ``(hook, payload)`` events amount to."""
    witness = HookWitness()
    for name, payload in events:
        witness.feed(name, payload)
    return witness.registry
