"""Outside-in span tracer for the traced benchmark pass.

Wraps the public entry points of each layer from *outside* ``src/`` —
class methods on the class, module functions in every ``repro.*`` module
global that binds them — and records one span per call: name, start,
end, parent.  Spans stay in memory (four parallel lists, appended on the
hot path) and are reduced, or written out as JSON, when the repeat ends.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so layer self times never double count and sum to at most
the traced wall time.

End-to-end numbers never import this module: tracing is a separate
repeat, and the difference between the two is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

#: layer -> [(module, "function") | (module, "Class.method")].  The event
#: callbacks of a layer (what the simulator invokes) are boundaries too,
#: so ``runtime.simulator`` self time is dispatch alone.
TARGETS = {
    "runtime.simulator": [
        ("repro.runtime.simulator", "Simulator.step_while"),
        ("repro.runtime.simulator", "Simulator.run"),
    ],
    "core.task_manager": [
        ("repro.core.task_manager", "worker_loop"),
        ("repro.core.task_manager", "_end_work"),
        ("repro.core.task_manager", "WorkerState.flush_all"),
        ("repro.core.task_manager", "WorkerState.response_arrived"),
        ("repro.core.task_manager", "MachineWindowStream._window_loaded"),
        ("repro.core.task_manager", "MachineWindowStream._maybe_activate"),
    ],
    "core.vector_kernels": [
        ("repro.core.vector_kernels", "execute_edge_map_chunk"),
        ("repro.core.vector_kernels", "execute_node_kernel_chunk"),
    ],
    "core.routing_plan.lookup": [
        ("repro.core.routing_plan", "RoutingPlanCache.lookup"),
    ],
    "core.routing_plan.canonical_apply": [
        ("repro.core.routing_plan", "canonical_apply"),
    ],
    "core.comm_manager": [
        ("repro.core.comm_manager", "deliver_request"),
        ("repro.core.comm_manager", "deliver_response"),
        ("repro.core.comm_manager", "copier_loop"),
        ("repro.core.comm_manager", "_copier_done"),
    ],
    "runtime.network": [
        ("repro.runtime.network", "Network.send"),
    ],
    "core.jobrunner": [
        ("repro.core.jobrunner", "JobExecution.start"),
        ("repro.core.jobrunner", "JobExecution._finalize"),
        ("repro.core.jobrunner", "JobExecution._phase_main"),
        ("repro.core.jobrunner", "JobExecution._phase_postsync"),
        ("repro.core.jobrunner", "JobExecution._phase_barrier"),
        ("repro.core.jobrunner", "JobExecution._postsync_machine_done"),
        ("repro.core.jobrunner", "make_execution"),
        ("repro.core.engine", "PgxdCluster.run_job"),
    ],
    "obs": [
        ("repro.obs.hooks", "HookBus.emit"),
        ("repro.obs.hooks", "ScopedHookBus.emit"),
        ("repro.obs.metrics", "MetricsRegistry.counters_flat"),
        ("repro.obs.metrics", "MetricsRegistry.delta_since"),
    ],
    "core.scheduler": [
        ("repro.core.scheduler", "JobScheduler.run_inline"),
        ("repro.core.scheduler", "JobScheduler.submit"),
        ("repro.core.scheduler", "JobScheduler.drain"),
        ("repro.core.scheduler", "JobScheduler.admit_read"),
        ("repro.core.scheduler", "JobScheduler._job_finished"),
    ],
    "core.result_cache": [
        ("repro.core.result_cache", "ResultCache.lookup"),
        ("repro.core.result_cache", "ResultCache.put"),
        ("repro.core.result_cache", "ResultCache.peek"),
        ("repro.core.result_cache", "ResultCache.on_epoch"),
        ("repro.core.result_cache", "ReadExecution.start"),
        ("repro.core.result_cache", "ReadExecution._finalize"),
    ],
    "query": [
        ("repro.server", "SessionQuery.execute"),
        ("repro.server", "SessionQuery.count"),
        ("repro.server", "SessionQuery.aggregate"),
        ("repro.query", "PropertyQuery._execute_priced"),
        ("repro.query", "PropertyQuery._count_priced"),
        ("repro.query", "PropertyQuery._aggregate_priced"),
    ],
    "core.incremental.mutate": [
        ("repro.core.incremental", "IncrementalEngine.mutate"),
        ("repro.core.incremental", "IncrementalEngine.pin"),
        # the epoch build itself runs as a scheduled job's start()
        ("repro.core.incremental", "MutationExecution.start"),
        ("repro.core.incremental", "MutationExecution._finalize"),
    ],
    "core.incremental.recompute": [
        ("repro.core.incremental", "IncrementalEngine.sssp"),
        ("repro.core.incremental", "IncrementalEngine.wcc"),
    ],
    "dynamic": [
        ("repro.dynamic", "DynamicGraph.apply_updates"),
        ("repro.dynamic", "DynamicGraph.snapshot"),
        ("repro.dynamic", "DynamicGraph.edge_list"),
    ],
}


class Tracer:
    """Install once per traced repeat; ``uninstall()`` restores every
    binding it replaced."""

    def __init__(self, trace_id: str = ""):
        #: shared by all spans of one workload repeat
        self.trace_id = trace_id
        self.span_names: list[str] = []      # span-name id -> name
        self.layer_of: list[str] = []        # span-name id -> layer
        #: layers with a wrap target that no longer exists; their host
        #: metrics are reported as null, never guessed
        self.broken_layers: dict[str, list[str]] = {}
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._current = [-1]
        #: (namespace, attribute, original, wrapper) per replaced binding
        self._patches: list[tuple] = []

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for layer, targets in TARGETS.items():
            for module_name, qualname in targets:
                try:
                    self._wrap_target(layer, module_name, qualname)
                except (ImportError, AttributeError) as exc:
                    self.broken_layers.setdefault(layer, []).append(
                        f"{module_name}:{qualname}")
                    print(f"warning: trace target {module_name}:{qualname} "
                          f"not found ({exc.__class__.__name__}); layer "
                          f"{layer} host metrics reported as null",
                          file=sys.stderr)

    def _wrap_target(self, layer: str, module_name: str,
                     qualname: str) -> None:
        module = importlib.import_module(module_name)
        nid = len(self.span_names)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                raise AttributeError(qualname)
            bindings = [(cls, attr)]
        else:
            original = getattr(module, qualname)
            # ``from .x import f`` copies the binding: rebind every
            # ``repro.*`` module global that holds this function.
            bindings = [(mod, name)
                        for mod_name, mod in list(sys.modules.items())
                        if mod is not None
                        and (mod_name == "repro"
                             or mod_name.startswith("repro."))
                        for name, value in list(vars(mod).items())
                        if value is original]
        self.span_names.append(f"{module_name}:{qualname}")
        self.layer_of.append(layer)
        wrapper = self._make_wrapper(original, nid)
        for namespace, attr in bindings:
            setattr(namespace, attr, wrapper)
            self._patches.append((namespace, attr, original, wrapper))

    def _make_wrapper(self, fn, nid: int):
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        current = self._current
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]

        return traced

    def uninstall(self) -> None:
        for namespace, attr, original, _wrapper in reversed(self._patches):
            setattr(namespace, attr, original)
        for namespace, attr, original, wrapper in self._patches:
            bound = vars(namespace)[attr]
            assert bound is original and bound is not wrapper, (
                f"tracer failed to restore {namespace!r}.{attr}")
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> dict:
        """Per-layer self seconds and call counts, plus the seconds spent
        inside any span (for coverage).  Spans still open are ignored."""
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        dur[np.asarray(self._end) == 0.0] = 0.0
        n = len(name)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        self_time = dur - child_sum
        k = len(self.span_names)
        per_name_self = np.bincount(name, weights=self_time, minlength=k)
        per_name_calls = np.bincount(name, minlength=k)
        layers: dict[str, dict] = {}
        for nid, layer in enumerate(self.layer_of):
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0,
                                              "by_name": {}})
            entry["self_s"] += float(per_name_self[nid])
            entry["calls"] += int(per_name_calls[nid])
            entry["by_name"][self.span_names[nid]] = {
                "self_s": float(per_name_self[nid]),
                "calls": int(per_name_calls[nid])}
        for layer in self.broken_layers:
            layers.setdefault(layer, {"self_s": 0.0, "calls": 0,
                                      "by_name": {}})["broken"] = True
        return {"layers": layers,
                "covered_s": float(dur[~has_parent].sum())}

    def write_json(self, path) -> None:
        """The raw span record, columnar (one list per field)."""
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id,
                       "names": self.span_names,
                       "layers": self.layer_of,
                       "span": {"name": self._name, "parent": self._parent,
                                "start": self._start, "end": self._end}}, fh)
