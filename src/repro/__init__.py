"""repro — a from-scratch reproduction of "PGX.D: A Fast Distributed Graph
Processing Engine" (Hong et al., SC '15).

The package provides:

* :mod:`repro.core` — the PGX.D engine (RTC tasks, data pulling/pushing,
  selective ghost nodes, edge partitioning/chunking, copier/poller comm);
* :mod:`repro.graph` — CSR graphs, partitioners, generators, file formats;
* :mod:`repro.runtime` — the deterministic discrete-event cluster simulator
  that supplies the timing model (all times are simulated seconds);
* :mod:`repro.algorithms` — the paper's Table 2 algorithm suite on PGX.D;
* :mod:`repro.baselines` — single-machine (SA), GraphLab-like (GAS) and
  GraphX-like (dataflow) comparators built on the same substrate;
* :mod:`repro.bench` — the harness regenerating every table and figure.
"""

from .core.engine import DistributedGraph, LocalView, PgxdCluster
from .core.faults import (EngineStallError, FaultPlan, MachineCrash,
                          MachineCrashError, MachineSlowdown,
                          RetryExhaustedError)
from .core.job import EdgeMapJob, NodeKernelJob, TaskJob
from .core.properties import ReduceOp
from .core.result_cache import CacheConfig, ResultCache
from .core.scheduler import (AdmissionError, JobScheduler, JobTicket,
                             QueueFullError, QuotaExceededError,
                             ReadRateLimitError, SchedulerConfig,
                             SchedulerError)
from .core.tasks import (EdgeMapSpec, InNbrIterTask, NodeIterTask,
                         OutNbrIterTask, Task)
from .graph.csr import Graph, from_edges
from .graph.generators import (grid_graph, paper_graph, rmat, uniform_random,
                               with_uniform_weights)
from .runtime.config import (ClusterConfig, ConfigError, EngineConfig,
                             MachineConfig, NetworkConfig)

__version__ = "1.0.0"

__all__ = [
    "PgxdCluster", "DistributedGraph", "LocalView",
    "EdgeMapJob", "TaskJob", "NodeKernelJob",
    "ReduceOp", "EdgeMapSpec",
    "Task", "NodeIterTask", "InNbrIterTask", "OutNbrIterTask",
    "Graph", "from_edges", "rmat", "uniform_random", "grid_graph",
    "paper_graph", "with_uniform_weights",
    "ClusterConfig", "EngineConfig", "MachineConfig", "NetworkConfig",
    "ConfigError",
    "FaultPlan", "MachineSlowdown", "MachineCrash",
    "EngineStallError", "MachineCrashError", "RetryExhaustedError",
    "JobScheduler", "SchedulerConfig", "JobTicket",
    "SchedulerError", "AdmissionError", "QuotaExceededError",
    "QueueFullError", "ReadRateLimitError",
    "ResultCache", "CacheConfig",
    "__version__",
]
