"""Jobs: the unit of parallel execution (Section 4.2, Figure 2).

A PGX.D application alternates sequential regions with parallel *jobs*.  A
job names its task (or kernel), and declares which properties it reads and
which it writes together with their reduction operators — the information
the engine needs to synchronize ghost nodes semi-automatically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

from .properties import ReduceOp
from .tasks import EdgeMapSpec, Task, spec_task


@dataclass
class Job:
    """Base parallel region descriptor."""

    name: str = "job"
    #: properties read from possibly-remote vertices (ghost pre-sync set)
    reads: tuple[str, ...] = ()
    #: (property, reduction) pairs written, possibly remotely (ghost post-sync)
    writes: tuple[tuple[str, ReduceOp], ...] = ()
    #: a :class:`MapReduce` evaluated on every machine once the region's
    #: writes have landed, and all-reduced on its closing barrier; the
    #: value is the job's ``stats.reduced``
    reduce: Optional["MapReduce"] = None

    def __post_init__(self):
        if self.reduce is not None and not isinstance(self.reduce, MapReduce):
            raise TypeError(f"job {self.name!r}: reduce must be a MapReduce, "
                            f"got {type(self.reduce).__name__}")
        if self.reduce is not None and self.kind in ("mutation", "read"):
            raise TypeError(f"job {self.name!r}: a {type(self).__name__} "
                            "runs no parallel region to reduce over")

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass
class EdgeMapJob(Job):
    """Vectorizable neighborhood iteration described by an :class:`EdgeMapSpec`.

    ``reads``/``writes`` are derived from the spec automatically; additional
    entries may be supplied for custom transforms touching more properties.
    """

    spec: Optional[EdgeMapSpec] = None

    def __post_init__(self):
        super().__post_init__()
        if self.spec is None:
            raise ValueError("EdgeMapJob requires a spec")
        reads = set(self.reads)
        writes = dict(self.writes)
        reads.add(self.spec.source)
        writes.setdefault(self.spec.target, self.spec.op)
        # Note: the filter property (spec.active) is always evaluated on the
        # *current* node, which is local, so it needs no ghost pre-sync and is
        # deliberately not added to ``reads``.
        self.reads = tuple(sorted(reads))
        self.writes = tuple(sorted(writes.items()))

    @property
    def kind(self) -> str:
        return "edge_map"

    def as_task_job(self) -> "TaskJob":
        """The same region as a :class:`TaskJob` running the spec's
        generated task class on the general per-edge RTC path."""
        return TaskJob(self.name, self.reads, self.writes, self.reduce,
                       task_cls=spec_task(self.spec, name=f"{self.name}_task"))


@dataclass
class TaskJob(Job):
    """General parallel region running a user :class:`Task` on the scalar
    RTC path (the paper's fully general mechanism)."""

    task_cls: Optional[type] = None

    def __post_init__(self):
        super().__post_init__()
        if self.task_cls is None or not issubclass(self.task_cls, Task):
            raise ValueError("TaskJob requires a Task subclass")

    @property
    def kind(self) -> str:
        return "task"


@dataclass
class NodeKernelJob(Job):
    """Purely local per-node computation, vectorized over each machine's
    vertex range (the sequential-looking node loops between edge jobs,
    e.g. applying the damping factor in PageRank).

    ``kernel(view)`` receives a :class:`LocalView` per machine and mutates
    local property arrays in place.  ``ops_per_node``/``bytes_per_node``
    parameterize the cost model for the kernel's work.
    """

    kernel: Optional[Callable] = None
    ops_per_node: float = 4.0
    bytes_per_node: float = 16.0

    def __post_init__(self):
        super().__post_init__()
        if self.kernel is None:
            raise ValueError("NodeKernelJob requires a kernel")

    @property
    def kind(self) -> str:
        return "node_kernel"


@dataclass
class MutationJob(Job):
    """A dynamic-graph mutation batch as a first-class scheduled job.

    Carries one applied :class:`~repro.dynamic.UpdateBatch` worth of edge
    changes plus the owning :class:`~repro.core.incremental.IncrementalEngine`.
    Running it (via :meth:`PgxdCluster.run_job` or through the
    :class:`~repro.core.scheduler.JobScheduler`) builds the next epoch's
    partitions — patching only the machines whose edge ranges changed —
    and installs them on the engine.  The scheduler's graph-lock token for
    a mutation job is the engine itself, so mutations serialize against
    each other while readers of the previous (pinned) epoch's
    ``DistributedGraph`` keep running concurrently: snapshot isolation.
    """

    engine: Optional[object] = None   #: the owning IncrementalEngine
    epoch: int = 0                    #: epoch this batch produces
    inserted: tuple = ()              #: inserted (u, v) edges
    removed: tuple = ()               #: removed (u, v) edges

    def __post_init__(self):
        super().__post_init__()
        if self.engine is None:
            raise ValueError("MutationJob requires an IncrementalEngine")

    @property
    def kind(self) -> str:
        return "mutation"


@dataclass
class ReadJob(Job):
    """A served read — a :class:`~repro.query.PropertyQuery` operation or a
    cached-algorithm lookup — admitted through the scheduler as a
    first-class job.

    ``compute()`` runs host-side and returns ``(result, cost_seconds)``
    without touching the simulated clock; the
    :class:`~repro.core.result_cache.ReadExecution` charges that cost (or
    the cache's hit cost) as the job's elapsed time, so read traffic shows
    up in the fairness ledger and per-session accounting like any other
    job.  ``fingerprint`` keys the cluster's result cache; empty disables
    caching for this read.  ``result``/``cached``/``cost`` are filled by
    the execution.
    """

    compute: Optional[Callable[[], tuple]] = None
    fingerprint: str = ""
    result: object = None
    cached: bool = False
    cost: float = 0.0

    @property
    def kind(self) -> str:
        return "read"


@dataclass(frozen=True)
class MapReduce:
    """A reduction over the cluster: ``fn`` runs on every machine's
    :class:`~repro.core.engine.LocalView` and the results combine under
    ``op`` in machine order.  A job's ``reduce`` runs it on the region's
    closing barrier (Pregel's aggregator); :meth:`PgxdCluster.map_reduce`
    runs one outside any region."""

    fn: Callable
    op: ReduceOp = ReduceOp.SUM

    def value(self, dgraph):
        """The reduced value, host-side; the caller charges the all-reduce."""
        return functools.reduce(self.op.scalar,
                                map(self.fn, dgraph.local_views()))


def program_step(step) -> Job:
    """``step``, checked: an algorithm program yields only jobs (a
    reduction rides a job as its ``reduce``)."""
    if not isinstance(step, Job):
        raise TypeError(f"program step {step!r} is not a Job; a reduction "
                        "rides a job as its reduce")
    return step
