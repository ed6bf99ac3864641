"""Message framing and request buffers (Sections 3.2-3.4).

Remote accesses are never sent one by one: each worker accumulates them into
per-destination buffers and ships a large message when the buffer reaches
``EngineConfig.buffer_size`` (256 KB default) or when the worker runs out of
tasks.  A *side structure* stays behind for read requests so the response can
be walked in order and continuations (``read_done``) invoked on the right
task objects — the paper's continuation mechanism.

Payloads travel as numpy arrays by reference; only their modeled byte size
touches the simulated wire (serialization cost is part of the marshalling
CPU cost, the copy itself is not re-performed in Python).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .properties import ReduceOp

#: Fixed header bytes per message (kind, ids, counts).
HEADER_BYTES = 64
#: Bytes per read-request element: one 8-byte address (local offset + prop).
READ_REQ_ITEM_BYTES = 8
#: Bytes per read-response element: the 8-byte value.
READ_RESP_ITEM_BYTES = 8
#: Bytes per write-request element: 8-byte address + 8-byte value.
WRITE_REQ_ITEM_BYTES = 16

# Fallback id source for messages constructed outside a JobExecution (tests,
# ad-hoc tools).  Engine paths pass request_id=exc.next_request_id() so id
# sequences are per-execution and deterministic regardless of what else ran
# in the process.
_msg_ids = itertools.count()


class MsgKind(enum.Enum):
    READ_REQ = "read_req"
    READ_RESP = "read_resp"
    WRITE_REQ = "write_req"
    RMI_REQ = "rmi_req"
    GHOST_SYNC = "ghost_sync"


@dataclass
class Message:
    """One buffer on the simulated wire."""

    kind: MsgKind
    src: int
    dst: int
    prop: Optional[str] = None
    #: local offsets on the destination machine (read/write requests)
    offsets: Optional[np.ndarray] = None
    #: values (write requests, read responses, ghost sync)
    values: Optional[np.ndarray] = None
    op: Optional[ReduceOp] = None
    #: id correlating a READ_RESP with the requester's side structure
    request_id: int = -1
    #: originating worker (responses are routed back to it — Section 3.2 (4))
    worker: int = -1
    #: RMI dispatch
    rmi_fn: int = -1
    rmi_args: tuple = ()
    #: ghost-sync direction: True = pre-sync (owner -> ghost columns),
    #: False = post-sync (ghost partials -> owner, reduced with ``op``)
    ghost_pre: bool = False

    def __post_init__(self):
        if self.request_id < 0:
            self.request_id = next(_msg_ids)

    @property
    def item_count(self) -> int:
        if self.offsets is not None:
            return int(len(self.offsets))
        if self.values is not None:
            return int(len(self.values))
        return 0

    def wire_bytes(self) -> float:
        """Modeled size on the wire."""
        n = self.item_count
        if self.kind is MsgKind.READ_REQ:
            return HEADER_BYTES + n * READ_REQ_ITEM_BYTES
        if self.kind is MsgKind.READ_RESP:
            return HEADER_BYTES + n * READ_RESP_ITEM_BYTES
        if self.kind is MsgKind.WRITE_REQ:
            return HEADER_BYTES + n * WRITE_REQ_ITEM_BYTES
        if self.kind is MsgKind.GHOST_SYNC:
            return HEADER_BYTES + n * WRITE_REQ_ITEM_BYTES
        return HEADER_BYTES


@dataclass
class SideStructure:
    """What a worker remembers about an in-flight read-request message.

    Vectorized path: ``rows`` are the local target rows awaiting the fetched
    values, ``weights`` optional per-request edge data for the transform.
    Scalar path: ``tasks`` holds (task object, node, neighbor, edge weight,
    edge index, tag) in request order.
    """

    request_id: int
    prop: str
    rows: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    tasks: list = field(default_factory=list)


class ReadBuffer:
    """Per-worker, per-destination accumulator of read requests.

    A vectorized chunk appends a batch of offsets with the local ``rows``
    awaiting the values; a scalar task appends a batch of one with its
    continuation entry in ``tasks``.  Either way the side structure built
    at flush time holds what the response is walked against.
    """

    __slots__ = ("offsets", "rows", "weights", "tasks", "nbytes")

    def __init__(self) -> None:
        self.offsets: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []
        self.weights: list[np.ndarray] = []
        self.tasks: list = []
        self.nbytes: float = 0.0

    def append(self, offsets: np.ndarray, rows: Optional[np.ndarray] = None,
               weights: Optional[np.ndarray] = None,
               tasks: Optional[Sequence] = None) -> None:
        # Rows vs tasks and weights are all-or-nothing per buffer: a mix
        # would make drain() return side data shorter than offsets,
        # silently misaligning per-request state with its response values.
        if self.offsets:
            if (tasks is not None) != bool(self.tasks):
                raise ValueError(
                    "mixed row and task appends to one ReadBuffer; a buffer "
                    "serves either vectorized chunks or scalar tasks")
            if (weights is not None) != bool(self.weights):
                raise ValueError(
                    "mixed weighted and unweighted appends to one ReadBuffer; "
                    "weights must be provided for every batch or for none")
        self.offsets.append(offsets)
        if tasks is None:
            self.rows.append(rows)
        else:
            self.tasks.extend(tasks)
        if weights is not None:
            self.weights.append(weights)
        self.nbytes += len(offsets) * READ_REQ_ITEM_BYTES

    @property
    def empty(self) -> bool:
        return not self.offsets

    def drain(self) -> tuple[np.ndarray, Optional[np.ndarray],
                             Optional[np.ndarray], list]:
        """``(offsets, rows, weights, tasks)``: ``rows`` is None for a
        buffer of scalar tasks, ``tasks`` empty for one of vectorized
        rows.  Ids come out ``int64`` whatever width they were appended at
        (routing plans hold 4-byte ids): the copy widens them for free."""
        offsets = np.concatenate(self.offsets, dtype=np.int64)
        rows = (np.concatenate(self.rows, dtype=np.int64) if self.rows
                else None)
        weights = np.concatenate(self.weights) if self.weights else None
        tasks = self.tasks
        self.offsets.clear()
        self.rows.clear()
        self.weights.clear()
        self.tasks = []
        self.nbytes = 0.0
        return offsets, rows, weights, tasks


class WriteBuffer:
    """Per-worker, per-destination accumulator of write (reduction) requests."""

    __slots__ = ("offsets", "values", "nbytes")

    def __init__(self) -> None:
        self.offsets: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.nbytes: float = 0.0

    def append(self, offsets: np.ndarray, values: np.ndarray) -> None:
        self.offsets.append(offsets)
        self.values.append(values)
        self.nbytes += len(offsets) * WRITE_REQ_ITEM_BYTES

    @property
    def empty(self) -> bool:
        return not self.offsets

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the buffered batches, duplicates and all, with
        ``int64`` offsets (as :meth:`ReadBuffer.drain`)."""
        offsets = np.concatenate(self.offsets, dtype=np.int64)
        values = np.concatenate(self.values)
        self.offsets.clear()
        self.values.clear()
        self.nbytes = 0.0
        return offsets, values


@dataclass
class RmiRegistry:
    """Remote-method-invocation table (Section 3.4): the application registers
    methods at setup and gets compact identifiers used on the wire."""

    _methods: list[Callable] = field(default_factory=list)
    _names: dict[str, int] = field(default_factory=dict)

    def register(self, fn: Callable, name: Optional[str] = None) -> int:
        name = name or fn.__name__
        if name in self._names:
            raise KeyError(f"RMI method {name!r} already registered")
        fn_id = len(self._methods)
        self._methods.append(fn)
        self._names[name] = fn_id
        return fn_id

    def lookup(self, fn_id: int) -> Callable:
        return self._methods[fn_id]

    def id_of(self, name: str) -> int:
        return self._names[name]
