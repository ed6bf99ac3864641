"""Local-disk cost model and on-disk shard format for out-of-core streaming.

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
disk is additionally a serial device: its ``head`` is one
:class:`~repro.runtime.simulator.SerialResource`, like the network's ports,
so concurrent read requests queue behind each other rather than
overlapping.  It also holds the
pending *readaheads*: reads that streams queued behind their last window
for the next region streaming the same shard, at most one per shard
(``core.task_manager.MachineWindowStream``).

On-disk shard format
--------------------
Shards are byte-coded CSR rows in the style of Ligra+ (Shun, Dhulipala &
Blelloch, "Smaller and Faster: Parallel Processing of Compressed Graphs
with Ligra+", DCC 2015).  One streamed window of consecutive rows is

=====================  ====================================================
per window             ``WINDOW_HEADER_BYTES`` (8 B) header: row count and
                       encoded id bytes, 4 B each
per row                LEB128 degree
per edge               zigzag-LEB128 delta to the previous neighbor; a
                       row's first delta is taken against the row's own
                       global id
per edge, per column   ``DISK_EDGE_COLUMN_BYTES`` (8 B), only the edge
                       columns the streaming job reads
=====================  ====================================================

Zigzag coding applies to every delta, so unsorted rows, multi-edges
(delta 0) and a first neighbor below the row id all encode; ids have no
fixed width, so the format limits neither node count nor id range.  The
owner / owner-local offset / ghost-slot words of the in-DRAM layout are not
stored: workers decode and resolve them after the read
(``core.vector_kernels.DECODE_OPS_PER_EDGE`` / ``RESOLVE_OPS_PER_EDGE``).
:func:`encoded_row_prefix` and :func:`window_bytes` are the only code that
knows this layout.
"""

from __future__ import annotations

import numpy as np

from .config import MachineConfig
from .simulator import SerialResource


WINDOW_HEADER_BYTES = 8.0
DISK_EDGE_COLUMN_BYTES = 8.0


def _varint_bytes(values: np.ndarray) -> np.ndarray:
    """LEB128 length of each unsigned value: 7 payload bits per byte."""
    nbytes = np.ones(len(values), dtype=np.uint8)
    for shift in range(7, 64, 7):
        longer = values >= np.uint64(1 << shift)
        if not longer.any():
            break
        nbytes += longer
    return nbytes


def encoded_row_prefix(starts: np.ndarray, nbrs: np.ndarray,
                       first_row: int) -> np.ndarray:
    """Encoded id bytes before each row of a CSR slice, ``int64[n+1]``.

    ``starts``/``nbrs`` are a slice's rebased row pointers and global
    neighbor ids, and ``first_row`` is the global id of its row 0.  Entry
    ``i`` counts the degree and neighbor-delta bytes of rows ``[0, i)``; a
    window's disk bytes add its header and edge columns
    (:func:`window_bytes`).  The per-edge scratch is released on return.
    """
    starts = np.asarray(starts, dtype=np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int64)
    degrees = np.diff(starts)
    delta = np.empty_like(nbrs)
    np.subtract(nbrs[1:], nbrs[:-1], out=delta[1:])
    nonempty = np.flatnonzero(degrees)
    heads = starts[nonempty]
    delta[heads] = nbrs[heads] - (first_row + nonempty)
    # zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
    sign = delta >> 63
    delta <<= 1
    delta ^= sign
    del sign
    edge_bytes = _varint_bytes(delta.view(np.uint64))
    del delta
    row_bytes = _varint_bytes(degrees.astype(np.uint64)).astype(np.int64)
    if len(heads):
        row_bytes[nonempty] += np.add.reduceat(edge_bytes, heads,
                                               dtype=np.int64)
    prefix = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(row_bytes, out=prefix[1:])
    return prefix


def window_bytes(row_prefix: np.ndarray, lo: int, hi: int, num_edges: int,
                 edge_columns: int) -> float:
    """Disk bytes of the window holding rows ``[lo, hi)`` and their
    ``num_edges`` edges, for a job reading ``edge_columns`` per-edge
    columns; ``row_prefix`` is the slice's :func:`encoded_row_prefix`."""
    return (WINDOW_HEADER_BYTES + float(row_prefix[hi] - row_prefix[lo])
            + num_edges * edge_columns * DISK_EDGE_COLUMN_BYTES)


class DramCapacityError(RuntimeError):
    """A machine's resident data exceeds its modeled DRAM capacity.

    Raised by ``load_graph`` when a partition's vertex and ghost columns,
    plus its edge arrays unless ``EngineConfig.out_of_core`` streams them,
    do not fit ``MachineConfig.dram_bytes``.
    """

    def __init__(self, machine: int, needed_bytes: float, dram_bytes: float):
        self.machine = machine
        self.needed_bytes = needed_bytes
        self.dram_bytes = dram_bytes
        super().__init__(
            f"machine {machine} needs {needed_bytes:.4g} B resident (vertex "
            f"and ghost columns, plus edge arrays unless "
            f"EngineConfig.out_of_core streams them) but models "
            f"{dram_bytes:.4g} B of DRAM")


class DiskModel:
    """Per-machine local-disk cost model and serial device."""

    __slots__ = ("_cfg", "head", "bytes_read", "readaheads")

    def __init__(self, config: MachineConfig):
        self._cfg = config
        self.head = SerialResource()
        #: bytes the device served, counted by the stream that claimed them
        self.bytes_read = 0.0
        #: pending readaheads, ``(key, start, end, duration)`` each
        self.readaheads: list = []

    def read_time(self, nbytes: float) -> float:
        """Seconds to serve one sequential read of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self._cfg.disk_seek_time + nbytes / self._cfg.disk_seq_bw

    def reset(self) -> None:
        """Free the head and drop the pending readaheads (crash recovery
        restarts the clock, and rolled-back state must not adopt a read
        issued before the crash)."""
        self.head.reset()
        self.readaheads.clear()
