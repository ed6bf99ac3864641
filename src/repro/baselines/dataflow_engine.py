"""GraphX-like engine: vertex programs on a general dataflow substrate.

GraphX layers Pregel on Spark: the graph lives as immutable distributed
collections (a vertex table and edge-triplet partitions), and every superstep
is a chain of dataflow operators —

1. **join** the vertex table with the edge partitions (vertex attributes are
   shipped to every edge partition that references them),
2. **aggregateMessages** over triplets (partial combine per partition),
3. **shuffle** the partial aggregates to the vertex-table partitions,
4. build a **new immutable vertex table** (copy-on-write semantics),
5. driver-side job scheduling for the whole chain.

Each of those steps pays generic-dataflow costs (serialization, hashing,
copies, task launch) that a specialized engine avoids — which is why the
paper measures GraphX roughly an order of magnitude slower than GraphLab and
two orders slower than PGX.D, with the flattest scaling curve of the three
(driver overhead grows with the partition count).

Functional execution is exact (shared vertex-program machinery); only the
superstep cost model differs from :mod:`.gas_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..runtime.config import MachineConfig, NetworkConfig
from ..runtime.memory import DramModel
from .gas_engine import BaselineResult
from .vertex_program import VertexProgram, run_functional_superstep


@dataclass(frozen=True)
class DataflowConfig:
    """GraphX/Spark-class overhead constants (calibrated against Table 3)."""

    #: CPU operations per triplet visit: iterator chain, boxing, hashing.
    per_edge_ops: float = 3600.0
    #: Bytes touched per triplet (triplet view materialization).
    per_edge_bytes: float = 64.0
    gather_locality: float = 0.5
    #: Serialization cost per shuffled record.
    serialize_per_item: float = 1100.0e-9
    #: Bytes per shuffled record (key + value + framing).
    shuffle_bytes_per_item: float = 32.0
    #: Fraction of messages surviving map-side partial combine.
    combine_survival: float = 0.5
    #: Copy cost per vertex for the new immutable vertex table, per superstep.
    per_vertex_copy: float = 90.0e-9
    #: Non-parallelizing per-vertex driver/table cost per superstep (fitted
    #: from Table 3's GraphX PR-push column: t(P) ~= 581/P + 14.4 s).
    per_vertex_seq_time: float = 346.0e-9
    #: Driver/job-launch overhead per superstep (grows with partitions).
    step_overhead: float = 1.3e-3
    step_overhead_per_partition: float = 55.0e-6
    #: Task-launch jitter: stragglers stretch each superstep.
    straggler_factor: float = 1.35
    #: Effective worker threads per machine.
    threads: int = 16
    #: Edge partitions per machine (Spark tasks).
    partitions_per_machine: int = 8


class DataflowEngine:
    """GraphX-style executor: exact results, dataflow-priced supersteps."""

    def __init__(self, graph: Graph, num_machines: int,
                 config: DataflowConfig | None = None,
                 machine: MachineConfig | None = None,
                 network: NetworkConfig | None = None,
                 seed: int = 13):
        self.graph = graph
        self.num_machines = num_machines
        self.config = config or DataflowConfig()
        self.machine = machine or MachineConfig()
        self.network = network or NetworkConfig()
        self.dram = DramModel(self.machine)

        rng = np.random.default_rng(seed)
        m = graph.num_edges
        num_parts = num_machines * self.config.partitions_per_machine
        self.edge_partition = rng.integers(0, num_parts, size=m, dtype=np.int32)
        self.edge_src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64),
                                  graph.out_degrees())
        self.edge_dst = graph.out_nbrs

        # Vertex-attribute routing: a vertex's attribute is shipped to every
        # edge partition referencing it (GraphX's routing table).
        keys = np.concatenate([
            self.edge_src * np.int64(num_parts) + self.edge_partition,
            self.edge_dst * np.int64(num_parts) + self.edge_partition,
        ])
        uniq = np.unique(keys)
        presence = np.zeros(graph.num_nodes, dtype=np.int64)
        np.add.at(presence, (uniq // num_parts).astype(np.int64), 1)
        self.vertex_routing = np.maximum(presence, 1)
        self.replication_factor = float(self.vertex_routing.mean())

    # ------------------------------------------------------------------

    def _superstep_time(self, counts: dict, passes: int) -> float:
        cfg = self.config
        p = self.num_machines
        n = self.graph.num_nodes
        live = counts["live_edges"]
        touched = counts["touched_mask"]

        # 1. vertex -> edge-partition join (ship attributes of participating
        # vertices to each referencing partition).
        ship_records = float(self.vertex_routing[touched].sum())
        join_bytes = ship_records * cfg.shuffle_bytes_per_item
        join_cpu = ship_records * cfg.serialize_per_item / cfg.threads / p

        # 2. triplet scan + message generation.
        edges_m = live / p * cfg.straggler_factor
        scan_cpu = edges_m * cfg.per_edge_ops * self.machine.cpu_op_time / cfg.threads
        rand_bw = self.dram.aggregate_random_bw(cfg.threads)
        scan_mem = edges_m * cfg.per_edge_bytes * (
            (1.0 - cfg.gather_locality) / rand_bw
            + cfg.gather_locality / self.machine.dram_seq_bw)

        # 3. message shuffle back to the vertex table (post partial combine).
        shuffle_records = live * cfg.combine_survival
        shuffle_bytes = shuffle_records * cfg.shuffle_bytes_per_item
        shuffle_cpu = shuffle_records * cfg.serialize_per_item / cfg.threads / p

        net = ((join_bytes + shuffle_bytes) / p / self.network.link_bw
               if p > 1 else 0.0)

        # 4. new immutable vertex table.
        copy = n / p * cfg.per_vertex_copy / cfg.threads

        # 5. driver scheduling for the operator chain.
        driver = (cfg.step_overhead
                  + cfg.step_overhead_per_partition
                  * p * cfg.partitions_per_machine) * passes

        seq = n * cfg.per_vertex_seq_time
        return (join_cpu + scan_cpu + scan_mem + shuffle_cpu + net + copy
                + seq + driver)

    def run(self, prog: VertexProgram, max_supersteps: int = 1000000) -> BaselineResult:
        graph = self.graph
        prog.init(graph)
        per_step: list[float] = []
        steps = 0
        while steps < max_supersteps:
            active = prog.pre_step(graph)
            if active is None:
                break
            counts = run_functional_superstep(prog, graph, active, self.edge_src)
            counts["touched_mask"] = active
            passes = 2 if prog.direction == "both" else 1
            t = self._superstep_time(counts, passes)
            if getattr(prog, "has_global_reduce", False):
                t += self.config.step_overhead  # an extra collect() job
            per_step.append(t)
            steps += 1
        return BaselineResult(name=f"gx_{prog.name}", supersteps=steps,
                              total_time=sum(per_step), per_superstep=per_step,
                              values=prog.result(),
                              extra={"replication_factor": self.replication_factor})
