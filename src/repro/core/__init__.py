"""The PGX.D engine: task/data/communication managers and the public API."""

from .engine import DistributedGraph, LocalView, PgxdCluster
from .ghost import MachineGhosts, select_ghosts
from .job import EdgeMapJob, Job, NodeKernelJob, TaskJob
from .properties import PropertyStore, ReduceOp
from .tasks import (EdgeMapSpec, InNbrIterTask, NodeIterTask, OutNbrIterTask,
                    Task, TaskContext, spec_task)

__all__ = [
    "PgxdCluster", "DistributedGraph", "LocalView",
    "Job", "EdgeMapJob", "TaskJob", "NodeKernelJob",
    "ReduceOp", "PropertyStore",
    "Task", "NodeIterTask", "InNbrIterTask", "OutNbrIterTask",
    "TaskContext", "EdgeMapSpec", "spec_task",
    "select_ghosts", "MachineGhosts",
]
