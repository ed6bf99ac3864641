"""Public engine API: :class:`PgxdCluster` and :class:`DistributedGraph`.

Typical use (the Figure 2 application shape)::

    from repro import PgxdCluster, ClusterConfig
    from repro.core.job import EdgeMapJob
    from repro.core.tasks import EdgeMapSpec
    from repro.core.properties import ReduceOp

    cluster = PgxdCluster(ClusterConfig(num_machines=8))
    dg = cluster.load_graph(graph)
    dg.add_property("x", init=1.0)
    dg.add_property("acc", init=0.0)
    job = EdgeMapJob(name="gather", spec=EdgeMapSpec(
        direction="pull", source="x", target="acc", op=ReduceOp.SUM))
    stats = cluster.run_job(dg, job)        # simulated seconds in stats.elapsed
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..graph.csr import Graph
from ..graph.partition import Partitioning, make_partitioning
from ..obs import HookBus, MetricsRecorder, MetricsRegistry
from ..runtime.config import ClusterConfig
from ..runtime.disk import DramCapacityError
from ..runtime.network import Network
from ..runtime.simulator import Simulator
from ..runtime.stats import JobStats
from . import barrier as barrier_mod
from .data_manager import DataManager
from .faults import EngineStallError, FaultController, MachineCrashError
from .ghost import select_ghosts
from .job import Job
from .jobrunner import JobExecution, make_execution
from .machine import Machine
from .messages import MessagePool, RmiRegistry
from .properties import ReduceOp


class LocalView:
    """A machine-local window handed to node kernels and RMI methods."""

    def __init__(self, machine: Machine):
        self._m = machine

    @property
    def machine_index(self) -> int:
        return self._m.index

    @property
    def lo(self) -> int:
        return self._m.lo

    @property
    def hi(self) -> int:
        return self._m.hi

    @property
    def n_local(self) -> int:
        return self._m.n_local

    def __getitem__(self, prop: str) -> np.ndarray:
        """The machine's local column of ``prop`` (mutable view)."""
        return self._m.props[prop]

    def out_degrees(self) -> np.ndarray:
        return self._m.props["out_degree"]

    def in_degrees(self) -> np.ndarray:
        return self._m.props["in_degree"]


class DistributedGraph:
    """A graph loaded into the cluster: partitioned CSR + property columns."""

    def __init__(self, cluster: "PgxdCluster", graph: Graph,
                 partitioning: Partitioning, ghost_gids: np.ndarray,
                 reuse_machines: Optional[dict] = None):
        self.cluster = cluster
        self.graph = graph
        self.partitioning = partitioning
        self.ghost_gids = ghost_gids
        #: epoch patching (repro.core.incremental): machines whose edge
        #: ranges were untouched by a mutation batch adopt the previous
        #: epoch's immutable CSR slices instead of rebuilding them.
        reuse = reuse_machines or {}
        self.machines = [
            Machine(i, graph, partitioning, ghost_gids, cluster.config,
                    csr_from=reuse.get(i))
            for i in range(cluster.config.num_machines)
        ]
        for m in self.machines:
            m.dm = DataManager(m)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def num_ghosts(self) -> int:
        return int(len(self.ghost_gids))

    # -- property management ------------------------------------------------

    def add_property(self, name: str, dtype=np.float64, init=0,
                     from_global: Optional[np.ndarray] = None) -> None:
        """Create a node property on every machine (column-oriented)."""
        for m in self.machines:
            arr = m.props.add(name, dtype=dtype, init=init)
            if from_global is not None:
                arr[:] = from_global[m.lo:m.hi]

    def drop_property(self, name: str) -> None:
        for m in self.machines:
            m.props.drop(name)

    def has_property(self, name: str) -> bool:
        return name in self.machines[0].props

    def gather(self, name: str) -> np.ndarray:
        """Collect a property into one global array (driver-side helper)."""
        return np.concatenate([m.props[name] for m in self.machines])

    def set_from_global(self, name: str, values: np.ndarray) -> None:
        for m in self.machines:
            m.props[name][:] = values[m.lo:m.hi]

    def local_views(self) -> list[LocalView]:
        return [LocalView(m) for m in self.machines]


class PgxdCluster:
    """The simulated PGX.D cluster: one engine instance per machine."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self.sim = Simulator()
        #: instance-scoped telemetry: every engine layer emits on this bus,
        #: and the recorder keeps the standard ``repro_*`` instruments live.
        self.hooks = HookBus()
        self.metrics = MetricsRegistry()
        self.recorder = MetricsRecorder(self.metrics, self.hooks)
        #: deterministic fault injector, or None when no plan is configured
        #: (None keeps every fault check a single ``is None`` test — the
        #: fault layer is fully pay-for-play)
        plan = self.config.engine.fault_plan
        self.faults = (FaultController(plan, self.sim, self.hooks)
                       if plan is not None else None)
        self.network = Network(self.sim, self.config.num_machines,
                               self.config.network, hooks=self.hooks,
                               faults=self.faults,
                               audit=self.config.engine.audit)
        self.rmi = RmiRegistry()
        #: cluster-lifetime message/side-structure free lists; job executions
        #: use them only when pooling is safe (no fault layer)
        self.msg_pool = MessagePool()
        self.job_log: list[tuple[str, JobStats]] = []
        #: multi-tenant front end; attach with JobScheduler(cluster).  When
        #: set, run_job routes through the scheduler so queued background
        #: tenants interleave with synchronous driver jobs.
        self.scheduler = None
        #: epoch-keyed result cache for served reads; attach with
        #: ResultCache(cluster) or PgxdServer.enable_cache().  When set,
        #: scheduled read jobs consult it before computing.
        self.result_cache = None
        #: causal span profiler; set by SpanProfiler.install().  When
        #: present, completed jobs get critical-path fields on their stats.
        self.profiler = None
        #: crash-recovery state (see enable_auto_checkpoint / run_job)
        self.auto_recover = False
        self.max_recoveries = 3
        self._ckpt_dgraph: Optional[DistributedGraph] = None
        self._ckpt_path: Optional[Path] = None
        self._ckpt_every = 1
        self._ckpt_countdown = 1
        self._last_checkpoint: Optional[Path] = None

    # -- graph loading --------------------------------------------------------

    def load_graph(self, graph: Graph,
                   partitioning: Optional[str] = None,
                   ghost_threshold: Union[int, None, str] = "config",
                   timed: bool = False) -> DistributedGraph:
        """Partition and distribute ``graph`` (paper Section 3.3 load path).

        ``partitioning`` overrides the configured strategy ("edge"/"vertex");
        ``ghost_threshold`` overrides the configured degree threshold
        (``None`` disables ghost nodes).  With ``timed=True`` the simulated
        clock advances by the modeled loading time (degree pass + pivot
        selection + CSR construction + ghost setup — the Table 4 PGX path),
        recorded on ``dgraph.load_time``.
        """
        t0 = self.sim.now
        strategy = partitioning or self.config.engine.partitioning
        part = make_partitioning(graph, self.config.num_machines, strategy)
        thr = (self.config.engine.ghost_threshold
               if ghost_threshold == "config" else ghost_threshold)
        ghosts = select_ghosts(graph, thr)
        dg = DistributedGraph(self, graph, part, ghosts)
        if not self.config.engine.out_of_core:
            # In-memory mode keeps both CSR directions resident: a machine
            # whose edge arrays exceed its modeled DRAM cannot load.  The
            # out-of-core mode lifts exactly this cap (edges live on the
            # machine's local disk; vertex columns stay resident).
            from .vector_kernels import CSR_BYTES_PER_EDGE

            for m in dg.machines:
                edge_bytes = ((m.out_csr.num_edges + m.in_csr.num_edges)
                              * CSR_BYTES_PER_EDGE)
                dram = m.machine_config.dram_bytes
                if edge_bytes > dram:
                    raise DramCapacityError(m.index, edge_bytes, dram)
        if timed:
            # Ingest + build both CSR directions + per-edge endpoint
            # resolution, cluster-parallel; plus a degree pass and the ghost
            # broadcast setup.  Constants per repro.bench.calibration.
            mcfg = self.config.machine
            per_machine_edges = graph.num_edges / max(1, self.config.num_machines)
            build = per_machine_edges * 40e-9
            degrees = graph.num_nodes * 8e-9
            ghost_setup = (len(ghosts) * 8.0 * self.config.num_machines
                           / self.config.network.link_bw)
            self.advance(build + degrees + ghost_setup)
        dg.load_time = self.sim.now - t0
        return dg

    # -- execution -------------------------------------------------------------

    def run_job(self, dgraph: DistributedGraph, job: Job,
                recover: Optional[bool] = None) -> JobStats:
        """Execute one parallel region to completion; returns its stats.

        ``recover`` controls what happens when an injected machine crash
        (:class:`~repro.core.faults.MachineCrashError`) aborts the region:
        ``True`` restores the last checkpoint written by
        :meth:`enable_auto_checkpoint` (if any) and reruns the job, up to
        ``max_recoveries`` times; ``False`` re-raises; ``None`` (default)
        uses the cluster's ``auto_recover`` setting.  A drained event queue
        with the job unfinished raises a structured
        :class:`~repro.core.faults.EngineStallError` carrying per-worker
        parked/in-flight diagnostics.

        With a :class:`~repro.core.scheduler.JobScheduler` attached, the
        call delegates to :meth:`JobScheduler.run_inline`: it still blocks
        until this job completes, but queued background jobs of other
        sessions advance in the same event loop.
        """
        if self.scheduler is not None:
            return self.scheduler.run_inline(dgraph, job, recover=recover)
        if recover is None:
            recover = self.auto_recover
        before = self.metrics.counters_flat()
        events_before = self.sim.events_executed
        pool_hits_before = self.sim.event_pool_hits
        recoveries = 0
        while True:
            exc = make_execution(self, dgraph, job)
            crash_events = (self.faults.arm_crashes()
                            if self.faults is not None else [])
            try:
                exc.start()
                if not self.sim.step_while(lambda: not exc.done):
                    raise EngineStallError(job.name, exc.stall_diagnostics())
            except MachineCrashError:
                if not recover or recoveries >= self.max_recoveries:
                    raise
                recoveries += 1
                self._recover_after_crash(dgraph, job)
                continue
            finally:
                for ev in crash_events:
                    self.sim.cancel(ev)
            break
        self.metrics.counter("repro_jobs_total", labelnames=("kind",)).labels(
            kind=type(job).__name__).inc()
        self.metrics.counter("repro_sim_events_total").inc(
            self.sim.events_executed - events_before)
        self.metrics.counter("repro_sim_event_pool_hits").inc(
            self.sim.event_pool_hits - pool_hits_before)
        self.metrics.histogram("repro_job_seconds").observe(exc.stats.elapsed)
        exc.stats.metrics_delta = self.metrics.delta_since(before)
        if self.profiler is not None:
            self.profiler.annotate(exc.stats, job.name)
        self.job_log.append((job.name, exc.stats))
        self._maybe_auto_checkpoint(dgraph)
        return exc.stats

    def run_jobs(self, dgraph: DistributedGraph, jobs: Sequence[Job],
                 recover: Optional[bool] = None) -> JobStats:
        """Run jobs back-to-back; returns merged stats spanning all of them.

        ``recover`` applies to every job, with the same semantics as
        :meth:`run_job` (it used to be silently dropped, so a crash
        mid-sequence ignored the caller's recovery request).  The merged
        stats sum each job's ``metrics_delta`` series-wise.
        """
        merged = JobStats(start_time=self.sim.now)
        for job in jobs:
            stats = self.run_job(dgraph, job, recover=recover)
            merged.merge_from(stats)
        merged.end_time = self.sim.now
        return merged

    # -- checkpointing and crash recovery ----------------------------------

    def enable_auto_checkpoint(self, dgraph: DistributedGraph,
                               path: Union[str, Path], every: int = 1,
                               recover: Optional[bool] = None) -> None:
        """Write property checkpoints of ``dgraph`` every ``every`` jobs.

        A baseline checkpoint is written immediately; afterwards the archive
        at ``path`` is refreshed after every ``every``-th completed job, and
        a crashed job restarted with ``recover=True`` restores it before
        rerunning.  Exact recovery needs ``every=1`` (the default): a crash
        then rewinds precisely to the state at the start of the failed job.
        Coarser cadences rewind further back, which is only correct if the
        driver replays the intervening jobs itself.  ``recover`` (if given)
        also sets the cluster-wide ``auto_recover`` default so algorithm
        drivers pick recovery up without threading a flag through.
        """
        from .checkpoint import save_checkpoint

        self._ckpt_dgraph = dgraph
        self._ckpt_path = Path(path)
        self._ckpt_every = max(1, int(every))
        self._ckpt_countdown = self._ckpt_every
        if recover is not None:
            self.auto_recover = bool(recover)
        save_checkpoint(dgraph, self._ckpt_path)
        self._last_checkpoint = self._ckpt_path
        self.hooks.emit("job.checkpoint", path=str(self._ckpt_path),
                        time=self.sim.now)

    def disable_auto_checkpoint(self) -> None:
        """Stop periodic checkpoints (the archive on disk is kept)."""
        self._ckpt_dgraph = None
        self._ckpt_path = None
        self._last_checkpoint = None

    def _maybe_auto_checkpoint(self, dgraph: DistributedGraph) -> None:
        if self._ckpt_path is None or dgraph is not self._ckpt_dgraph:
            return
        self._ckpt_countdown -= 1
        if self._ckpt_countdown > 0:
            return
        self._ckpt_countdown = self._ckpt_every
        from .checkpoint import save_checkpoint

        save_checkpoint(dgraph, self._ckpt_path)
        self._last_checkpoint = self._ckpt_path
        self.hooks.emit("job.checkpoint", path=str(self._ckpt_path),
                        time=self.sim.now)

    def _recover_after_crash(self, dgraph: DistributedGraph, job: Job) -> None:
        """Reset live execution state and roll back to the last checkpoint.

        The crashed execution's events are abandoned wholesale (they must
        not fire into the restarted job), per-machine queues and thread
        accounting are cleared, property columns are restored from the last
        auto-checkpoint when one exists, and the clock advances by the
        plan's ``restart_delay`` to model detection + restart.
        """
        self.sim.clear_pending()
        self._reset_dgraph_state(dgraph)
        ckpt = self._restore_last_checkpoint(dgraph)
        if self.faults is not None:
            self.advance(self.faults.plan.restart_delay)
        self.hooks.emit("job.recover", job=job.name, time=self.sim.now,
                        checkpoint=str(ckpt) if ckpt is not None else "")

    def _reset_dgraph_state(self, dgraph: DistributedGraph) -> None:
        """Clear per-machine queues and thread accounting after a crash."""
        for m in dgraph.machines:
            m.request_queue.clear()
            m.chunk_queue.clear()
            m.cpu.reset_threads()
            m.disk.reset()

    def _restore_last_checkpoint(self, dgraph: DistributedGraph) -> Optional[Path]:
        """Restore ``dgraph`` from the auto-checkpoint archive, if it has one.

        Returns the checkpoint path actually restored, or ``None`` when the
        graph has no checkpoint (the caller then restarts from live state).
        """
        ckpt = self._last_checkpoint
        if ckpt is not None and self._ckpt_dgraph is dgraph:
            from .checkpoint import restore_properties

            restore_properties(dgraph, ckpt)
            return ckpt
        return None

    # -- sequential-region primitives -------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now

    def advance(self, seconds: float) -> None:
        """Model sequential (driver) computation between parallel regions."""
        self.sim.run(until=self.sim.now + seconds)

    def barrier(self) -> float:
        """Cluster-wide barrier; returns its latency (Figure 5(b))."""
        latency = barrier_mod.barrier_latency(self.config.num_machines,
                                              self.config.network)
        self.advance(latency)
        return latency

    def all_reduce(self, per_machine_values: Sequence, op: ReduceOp = ReduceOp.SUM):
        """Combine one value per machine; costs a tree all-reduce latency."""
        latency = barrier_mod.all_reduce_latency(self.config.num_machines,
                                                 self.config.network)
        self.advance(latency)
        result = per_machine_values[0]
        for v in per_machine_values[1:]:
            result = op.scalar(result, v)
        return result

    def map_reduce(self, dgraph: DistributedGraph,
                   fn: Callable[[LocalView], object],
                   op: ReduceOp = ReduceOp.SUM):
        """Evaluate ``fn`` on every machine's local view and all-reduce."""
        values = [fn(LocalView(m)) for m in dgraph.machines]
        return self.all_reduce(values, op)

    def register_rmi(self, fn: Callable, name: Optional[str] = None) -> int:
        """Register a remote method; returns its wire identifier (Section 3.4)."""
        return self.rmi.register(fn, name)
