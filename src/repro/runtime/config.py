"""Calibrated machine and cluster constants.

Every constant here is anchored to the paper's Table 1 environment (2 x 8-core
2.2 GHz Xeon E5-2660 with 2-way HT, DDR3-1600, Mellanox 56 Gb/s InfiniBand) or
to a measurement reported in the evaluation section.  The simulator consumes
these to turn counted work (edges touched, bytes moved, messages sent) into
simulated seconds.  See ``repro.bench.calibration`` for the derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.faults import FaultPlan


class ConfigError(ValueError):
    """A configuration value the engine cannot run with, rejected when the
    config object is constructed rather than mid-job."""


@dataclass(frozen=True)
class MachineConfig:
    """Hardware model of one cluster machine (paper Table 1)."""

    #: Hardware thread count (2 sockets x 8 cores x 2 HT).
    hw_threads: int = 32

    #: Peak aggregate random-access DRAM bandwidth for 8-byte reads, in
    #: bytes/sec, achieved only with many concurrent threads (Figure 8(a),
    #: "Local" line plateau).
    dram_random_bw: float = 3.2e9

    #: Thread count at which half of ``dram_random_bw`` is extracted.  Gives
    #: the Figure 8(a) saturation shape: a few threads cannot saturate DRAM.
    dram_half_threads: float = 5.0

    #: Peak DRAM bandwidth for streaming/sequential access (bytes/sec).
    #: CSR scans fall between random and sequential; kernels declare their
    #: locality via an access-pattern discount.
    dram_seq_bw: float = 38.0e9

    #: Effective last-level-cache capacity (2 sockets x 20 MB, minus code and
    #: structure footprint).  Random accesses into a working set that fits
    #: here run at cache speed — the reason per-machine property columns get
    #: cheap at high machine counts.
    llc_bytes: float = 32.0e6

    #: Miss-rate floor even for cache-resident working sets (coherence,
    #: first-touch, TLB).
    llc_miss_floor: float = 0.05

    #: Fixed CPU cost per arithmetic-ish operation on the hot path, seconds.
    #: (~2 cycles at 2.2 GHz for the tight C++ loops the paper describes.)
    cpu_op_time: float = 1.0e-9

    #: Extra cost of an atomic read-modify-write versus a plain store
    #: (contended fetch-and-add; drives the pull-vs-push gap in Table 3).
    atomic_op_time: float = 18.0e-9

    #: Modeled DRAM capacity in bytes.  The paper's machines carry 256 GB;
    #: a partition whose edge arrays exceed this must run out-of-core
    #: (``EngineConfig.out_of_core``) or ``load_graph`` refuses it.
    dram_bytes: float = 256.0e9

    #: Sequential read bandwidth of the machine's local disk in bytes/sec
    #: (datacenter SATA-SSD class).  Out-of-core edge windows stream at
    #: this rate; there is no random tier because windows are laid out and
    #: re-read in partition order.
    disk_seq_bw: float = 500.0e6

    #: Fixed positioning latency per disk read request, seconds.
    disk_seek_time: float = 1.0e-4

    def __post_init__(self):
        if self.disk_seq_bw <= 0:
            raise ConfigError(
                f"disk_seq_bw must be > 0, got {self.disk_seq_bw!r}")
        if self.disk_seek_time < 0:
            raise ConfigError(
                f"disk_seek_time must be >= 0, got {self.disk_seek_time!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect model (Mellanox Connect-IB 56 Gb/s, SX6512 switch)."""

    #: Achievable per-port bandwidth in bytes/sec per direction.  The paper
    #: measures 6.2 GB/s maximum attained in the buffer-size exploration
    #: (Figure 8(b)), below the 7 GB/s raw line rate.
    link_bw: float = 6.2e9

    #: Fixed per-message overhead in seconds (driver + poller + DMA setup).
    #: Calibrated so a 4 KB buffer attains ~1.5 GB/s as in Figure 8(b):
    #: ``4096 / (4096/6.2e9 + o) = 1.5e9  ->  o ~= 2.07e-6``.
    per_message_overhead: float = 2.07e-6

    #: One-way switch+wire latency in seconds (InfiniBand class).
    link_latency: float = 1.3e-6

    #: Service time the poller thread spends per message (enqueue/dequeue,
    #: buffer-pool bookkeeping).  The poller is a single thread per machine,
    #: so this bounds the message rate of a machine.
    poller_per_message: float = 0.6e-6


@dataclass(frozen=True)
class EngineConfig:
    """PGX.D engine parameters (paper Section 3 defaults)."""

    #: Worker threads per machine (paper uses 16 for all experiments).
    num_workers: int = 16

    #: Copier threads per machine (paper uses 8 for all experiments).
    num_copiers: int = 8

    #: Message buffer size in bytes; the paper settles on 256 KB from the
    #: Figure 8(b) exploration.
    buffer_size: int = 256 * 1024

    #: Degree threshold above which a vertex gets ghost copies on every
    #: machine (selective ghost nodes).  ``None`` disables ghosts.
    ghost_threshold: int | None = 1000

    #: Graph partitioning strategy: ``"edge"`` (balanced in+out degree sums,
    #: the paper's default) or ``"vertex"`` (equal node counts, the naive
    #: baseline of Figure 6(b)).
    partitioning: str = "edge"

    #: Task chunking strategy: ``"edge"`` (chunks hold ~equal edge counts,
    #: Section 3.3) or ``"node"`` (equal node counts, Figure 6(c) baseline).
    chunking: str = "edge"

    #: Target chunk weight (edges for edge chunking, nodes for node
    #: chunking).  Small enough for dynamic load balance, large enough to
    #: amortize scheduling.
    chunk_size: int = 4096

    #: Max read-request messages a worker may have in flight per destination
    #: before it stalls (back-pressure, Section 3.4).
    max_inflight_per_dest: int = 4

    #: Privatize ghost copies per worker thread when a region reduces into
    #: ghosted properties (Section 3.3 "Ghost Privatization").
    ghost_privatization: bool = True

    #: Per-task scheduling overhead in seconds (grabbing from the chunk
    #: queue, filter evaluation).  Deliberately tiny: the RTC design's whole
    #: point (Figure 5(a)).
    task_dispatch_time: float = 25.0e-9

    #: Per-chunk overhead (queue pop + bookkeeping).
    chunk_dispatch_time: float = 0.8e-6

    #: CPU time per remote request element when marshalling into a buffer.
    marshal_per_item: float = 4.0e-9

    #: CPU time per element when a copier services a request (unmarshal +
    #: address translation), on top of the DRAM access itself.
    copier_per_item: float = 5.0e-9

    #: Soft capacity of one machine's routing-plan cache in bytes.  A plan
    #: (edge expansion, owner/ghost classification, per-destination sort)
    #: is built per chunk and memoized, since the CSR is immutable after
    #: load; plans that would exceed the capacity are rebuilt on every
    #: chunk instead of stored, and ``0`` rebuilds every chunk.  Purely a
    #: host-side cost: counted work, traffic and results do not depend on it.
    plan_cache_max_bytes: int = 1 << 30

    #: CPU time per buffered element for the sender-side combine step,
    #: charged on every write flush whose reduction is order-insensitive
    #: (sender-side message reduction a la Yan et al. / Pregelix
    #: combiners; float SUM and OVERWRITE ship uncombined).
    combine_per_item: float = 3.0e-9

    #: Optional deterministic fault-injection schedule
    #: (:class:`repro.core.faults.FaultPlan`).  ``None`` disables the fault
    #: layer entirely — no injection, no retry timers, no dedup bookkeeping —
    #: leaving simulated times and metrics untouched.
    fault_plan: "FaultPlan | None" = None

    #: Enable the conservation checker (:mod:`repro.audit`): every tracked
    #: request must be acked exactly once, all outstanding counters must
    #: return to zero, staged groups must drain, and network port timelines
    #: must stay monotonic.  Checked at the end of every job; violations
    #: raise :class:`repro.audit.AuditViolation` with the event context.
    #: Adds per-request bookkeeping, so off by default.
    audit: bool = False

    #: Out-of-core mode (GraphD-style): edge-partition CSR windows live on
    #: each machine's modeled local disk and stream back during edge-map
    #: execution, double-buffered so the next window's read overlaps the
    #: current window's compute.  Vertex property columns and the ghost
    #: table stay DRAM-resident.  Results are bit-identical to in-memory
    #: runs — streaming only delays when chunks become runnable, and the
    #: canonical staged apply already makes results schedule-invariant.
    out_of_core: bool = False

    #: Edge budget of one streamed window (out-of-core mode only).  A
    #: window groups consecutive chunks until the budget fills; a single
    #: hub chunk larger than the budget gets a window of its own.
    ooc_window_edges: int = 65536

    def __post_init__(self):
        if self.ooc_window_edges < 1:
            raise ConfigError("ooc_window_edges must be >= 1, got "
                              f"{self.ooc_window_edges!r}")


@dataclass(frozen=True)
class ClusterConfig:
    """Full cluster description handed to :class:`repro.core.engine.PgxdCluster`."""

    num_machines: int = 4
    machine: MachineConfig = field(default_factory=MachineConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: per-machine hardware overrides (index -> MachineConfig), for
    #: heterogeneous-cluster and straggler-injection experiments
    machine_overrides: tuple = ()

    def machine_config(self, index: int) -> MachineConfig:
        """The hardware model of one machine (override or the default)."""
        for idx, cfg in self.machine_overrides:
            if idx == index:
                return cfg
        return self.machine

    def with_straggler(self, index: int, slowdown: float) -> "ClusterConfig":
        """Inject a straggler: machine ``index`` runs ``slowdown``x slower
        (CPU and DRAM) than the cluster default.  Models a degraded or
        oversubscribed host; repeated calls replace, not stack."""
        base = self.machine
        slow = replace(base,
                       cpu_op_time=base.cpu_op_time * slowdown,
                       atomic_op_time=base.atomic_op_time * slowdown,
                       dram_random_bw=base.dram_random_bw / slowdown,
                       dram_seq_bw=base.dram_seq_bw / slowdown)
        overrides = tuple((i, c) for i, c in self.machine_overrides
                          if i != index) + ((index, slow),)
        return replace(self, machine_overrides=overrides)

    def with_engine(self, **kwargs) -> "ClusterConfig":
        """Return a copy with engine parameters overridden."""
        return replace(self, engine=replace(self.engine, **kwargs))

    def with_machines(self, num_machines: int) -> "ClusterConfig":
        """Return a copy with a different machine count."""
        return replace(self, num_machines=num_machines)

    def with_network(self, **kwargs) -> "ClusterConfig":
        """Return a copy with network parameters overridden."""
        return replace(self, network=replace(self.network, **kwargs))

    def with_machine(self, **kwargs) -> "ClusterConfig":
        """Return a copy with machine hardware parameters overridden."""
        return replace(self, machine=replace(self.machine, **kwargs))

    def with_fault_plan(self, plan: "FaultPlan | None") -> "ClusterConfig":
        """Return a copy with the fault-injection plan set (or cleared)."""
        return self.with_engine(fault_plan=plan)
