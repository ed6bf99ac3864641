"""Local-disk cost model for out-of-core edge streaming.

GraphD-style out-of-core execution ("Efficient Processing of Very Large
Graphs in a Small Cluster") keeps vertex state DRAM-resident and streams
edge-partition chunks from each machine's *local* disk.  The disk is the
classic sequential device: a fixed positioning (seek + rotational) latency
per request plus a sequential-transfer term,

    T(nbytes) = seek_time + nbytes / seq_bw

Windows are written once at load time and re-read in partition order every
superstep, so all modeled reads are sequential; there is no random-access
tier.  Like :class:`~repro.runtime.memory.DramModel`, this class only
*prices* accesses — scheduling happens on the simulator event loop.  The
disk is additionally a serial device (one head), so it keeps a
``next_free`` timeline like the network's ports: concurrent read requests
queue behind each other rather than overlapping.

The disk holds *compact* shards (NXgraph-style): a row pointer per node, a
4-byte neighbor id per edge, and only the edge columns the streaming job
reads.  The owner / owner-local offset / ghost-slot words of the in-DRAM
layout are not stored; workers resolve them after the read
(``core.vector_kernels.RESOLVE_OPS_PER_EDGE``).  :func:`window_disk_bytes`
is the one statement of that format.
"""

from __future__ import annotations

from .config import MachineConfig


#: On-disk shard format, bytes: neighbor id per edge, row pointer per node
#: (+1 closing pointer per window), one value per edge per streamed column.
DISK_ID_BYTES = 4.0
DISK_ROW_PTR_BYTES = 8.0
DISK_EDGE_COLUMN_BYTES = 8.0
#: Node ids the neighbor-id field can hold (``load_graph`` refuses more).
DISK_MAX_NODES = 2 ** 32


def window_disk_bytes(num_edges: int, num_nodes: int,
                      edge_columns: int) -> float:
    """Bytes one streamed window of ``num_nodes`` rows and ``num_edges``
    edges occupies on disk when the job reads ``edge_columns`` per-edge
    columns (weights / a named edge property)."""
    return (num_edges * (DISK_ID_BYTES + edge_columns * DISK_EDGE_COLUMN_BYTES)
            + (num_nodes + 1) * DISK_ROW_PTR_BYTES)


class DiskFormatError(ValueError):
    """The graph does not fit the on-disk shard format.

    Raised by ``load_graph`` under ``EngineConfig.out_of_core`` when a node
    id would not fit the format's 4-byte neighbor id.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        super().__init__(
            f"out-of-core shards store {int(DISK_ID_BYTES)}-byte neighbor "
            f"ids; a graph of {num_nodes} nodes needs ids >= 2**32")


class DramCapacityError(RuntimeError):
    """A machine's edge partition exceeds its modeled DRAM capacity.

    Raised by ``load_graph`` when ``out_of_core`` is off and a partition's
    edge arrays do not fit ``MachineConfig.dram_bytes``; the fix is to
    enable ``EngineConfig.out_of_core`` (or model bigger machines).
    """

    def __init__(self, machine: int, needed_bytes: float, dram_bytes: float):
        self.machine = machine
        self.needed_bytes = needed_bytes
        self.dram_bytes = dram_bytes
        super().__init__(
            f"machine {machine} needs {needed_bytes / 1e9:.2f} GB for edge "
            f"arrays but models {dram_bytes / 1e9:.2f} GB of DRAM; enable "
            f"EngineConfig.out_of_core to stream edge windows from disk")


class DiskModel:
    """Per-machine local-disk cost model and serial-device timeline."""

    __slots__ = ("_cfg", "next_free", "busy_time", "bytes_read", "reads")

    def __init__(self, config: MachineConfig):
        self._cfg = config
        self.next_free = 0.0    # device timeline (simulated seconds)
        self.busy_time = 0.0    # total seconds the head was transferring
        self.bytes_read = 0.0
        self.reads = 0

    def read_time(self, nbytes: float) -> float:
        """Seconds to serve one sequential read of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self._cfg.disk_seek_time + nbytes / self._cfg.disk_seq_bw

    def occupy(self, now: float, nbytes: float) -> float:
        """Reserve the device for one read issued at ``now``; returns the
        completion time.  Requests serialize on the single head."""
        duration = self.read_time(nbytes)
        start = max(now, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_time += duration
        self.bytes_read += nbytes
        self.reads += 1
        return end

    def reset(self) -> None:
        """Forget the device timeline (crash recovery restarts the clock)."""
        self.next_free = 0.0
