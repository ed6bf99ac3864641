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
from typing import Callable, Generator, Optional, Sequence, Union

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
from .faults import FaultController
from .ghost import select_ghosts
from .job import Job, program_step
from .machine import LocalCsr, Machine, local_csrs
from .messages import RmiRegistry
from .properties import ReduceOp
from .routing_plan import StageOrderCache
from .scheduler import JobScheduler


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
                 csrs: Optional[Sequence[tuple[LocalCsr, LocalCsr]]] = None):
        self.cluster = cluster
        self.graph = graph
        self.partitioning = partitioning
        self.ghost_gids = ghost_gids
        #: simulated seconds the load took: 0 for a load, the archive read
        #: for a checkpoint restore (repro.core.checkpoint)
        self.load_time = 0.0
        #: each machine's (out, in) CSR slices: built from ``graph`` on
        #: load, handed in by an epoch build (repro.core.incremental),
        #: which shares every slice its edge delta leaves untouched
        if csrs is None:
            csrs = local_csrs(graph, partitioning, ghost_gids)
        stage_cache = StageOrderCache()
        self.machines = [
            Machine(i, partitioning, ghost_gids, cluster.config, *csrs[i],
                    stage_cache)
            for i in range(cluster.config.num_machines)
        ]

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
        #: instance-scoped telemetry: engine layers emit on this bus, and the
        #: recorder keeps the ``repro_*`` instruments from hooks and JobStats.
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
                               self.config.network, faults=self.faults,
                               audit=self.config.engine.audit,
                               frame_bytes=self.config.engine.buffer_size)
        self.rmi = RmiRegistry()
        self.job_log: list[tuple[str, JobStats]] = []
        #: the one job loop; run_job creates a default JobScheduler on the
        #: first job, so a configured one must be attached before that
        self.scheduler: Optional[JobScheduler] = None
        #: epoch-keyed result cache for served reads; attach with
        #: ResultCache(cluster) or PgxdServer.enable_cache().  When set,
        #: scheduled read jobs consult it before computing.
        self.result_cache = None
        #: causal span profiler; set by SpanProfiler.install().  When
        #: present, completed jobs get critical-path fields on their stats.
        self.profiler = None
        #: crash recoveries allowed per job (each ticket counts its own)
        self.max_recoveries = 3
        #: crash-recovery state (see enable_auto_checkpoint / run_job)
        self._ckpt_dgraph: Optional[DistributedGraph] = None
        self._ckpt_path: Optional[Path] = None
        self._last_checkpoint: Optional[Path] = None

    # -- graph loading --------------------------------------------------------

    def load_graph(self, graph: Graph) -> DistributedGraph:
        """Partition and distribute ``graph`` (paper Section 3.3 load path)
        with the configured ``EngineConfig.partitioning`` strategy and
        ``ghost_threshold``."""
        engine = self.config.engine
        part = make_partitioning(graph, self.config.num_machines,
                                 engine.partitioning)
        ghosts = select_ghosts(graph, engine.ghost_threshold)
        dg = DistributedGraph(self, graph, part, ghosts)
        # Vertex and ghost columns are always resident; in-memory mode also
        # keeps both CSR directions resident, while out-of-core mode streams
        # the edges from the machine's local disk instead.
        from .vector_kernels import CSR_BYTES_PER_EDGE

        for m in dg.machines:
            resident = m.props.nbytes + sum(
                a.nbytes for a in m.ghosts.arrays.values())
            if not engine.out_of_core:
                resident += ((m.out_csr.num_edges + m.in_csr.num_edges)
                             * CSR_BYTES_PER_EDGE)
            dram = m.machine_config.dram_bytes
            if resident > dram:
                raise DramCapacityError(m.index, resident, dram)
        return dg

    # -- execution -------------------------------------------------------------

    def run_job(self, dgraph: DistributedGraph, job: Job) -> JobStats:
        """Execute one parallel region to completion; returns its stats.

        Every job is a ticket of the cluster's
        :class:`~repro.core.scheduler.JobScheduler`, created here on the
        first job when none is attached: the call is
        :meth:`JobScheduler.run_inline`, which blocks until this job
        completes while queued background jobs of other sessions advance in
        the same event loop.

        When an injected machine crash
        (:class:`~repro.core.faults.MachineCrashError`) aborts the region
        and ``dgraph`` is the graph :meth:`enable_auto_checkpoint` keeps,
        the checkpoint is restored and the job reruns, up to
        ``max_recoveries`` times per job; otherwise the crash propagates.
        A drained event queue with the job unfinished raises a structured
        :class:`~repro.core.faults.EngineStallError` carrying per-worker
        parked/in-flight diagnostics.
        """
        return (self.scheduler or JobScheduler(self)).run_inline(dgraph, job)

    def run(self, dgraph: DistributedGraph, program: Generator):
        """Drive an algorithm program inline; returns what it returns.

        Each :class:`~repro.core.job.Job` the generator yields runs through
        :meth:`run_job` and is answered with its ``JobStats``, whose
        ``reduced`` holds the value of the job's ``reduce``; any other step
        raises ``TypeError``.  A step that raises closes the program first,
        so it drops its property columns before the error propagates.
        """
        value = None
        while True:
            try:
                step = program.send(value)
            except StopIteration as stop:
                return stop.value
            try:
                value = self.run_job(dgraph, program_step(step))
            except BaseException:
                program.close()
                raise

    def run_jobs(self, dgraph: DistributedGraph,
                 jobs: Sequence[Job]) -> JobStats:
        """Run jobs back-to-back; returns merged stats spanning all of them.

        Each job recovers from a crash as :meth:`run_job` does.  The merged
        stats sum each job's ``metrics_delta`` series-wise.
        """
        merged = JobStats(start_time=self.sim.now)
        for job in jobs:
            merged.merge_from(self.run_job(dgraph, job))
        merged.end_time = self.sim.now
        return merged

    # -- checkpointing and crash recovery ----------------------------------

    def enable_auto_checkpoint(self, dgraph: DistributedGraph,
                               path: Union[str, Path]) -> None:
        """Checkpoint ``dgraph``'s properties after every job on it, and
        recover its crashed jobs from that checkpoint.

        A baseline checkpoint is written immediately; afterwards the archive
        at ``path`` is refreshed after every completed job on ``dgraph``,
        so a crash rewinds precisely to the state at the start of the
        failed job, which then reruns (see :meth:`run_job`).
        """
        self._ckpt_dgraph = dgraph
        self._ckpt_path = Path(path)
        self._maybe_auto_checkpoint(dgraph)

    def disable_auto_checkpoint(self) -> None:
        """Stop periodic checkpoints (the archive on disk is kept)."""
        self._ckpt_dgraph = None
        self._ckpt_path = None
        self._last_checkpoint = None

    def _maybe_auto_checkpoint(self, dgraph: DistributedGraph) -> None:
        if self._ckpt_path is None or dgraph is not self._ckpt_dgraph:
            return
        from .checkpoint import save_checkpoint

        save_checkpoint(dgraph, self._ckpt_path)
        self._last_checkpoint = self._ckpt_path
        self.hooks.emit("job.checkpoint", path=str(self._ckpt_path),
                        time=self.sim.now)

    def _reset_dgraph_state(self, dgraph: DistributedGraph) -> None:
        """Clear per-machine queues and thread accounting after a crash."""
        for m in dgraph.machines:
            m.request_queue.clear()
            m.chunk_queue.clear()
            m.cpu.reset_threads()
            m.disk.reset()

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
        """Evaluate ``fn`` on every machine's local view and all-reduce,
        outside any region: a tree all-reduce of its own (a job's
        ``reduce`` rides the region's closing barrier instead)."""
        values = [fn(LocalView(m)) for m in dgraph.machines]
        return self.all_reduce(values, op)

    def register_rmi(self, fn: Callable, name: Optional[str] = None) -> int:
        """Register a remote method; returns its wire identifier (Section 3.4)."""
        return self.rmi.register(fn, name)
