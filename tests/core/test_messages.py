"""Message framing, request buffers, RMI registry (Section 3.4)."""

import numpy as np
import pytest

from repro.core.messages import (HEADER_BYTES, Message, MsgKind, ReadBuffer,
                                 RmiRegistry, SideStructure, WriteBuffer)
from repro.core.properties import ReduceOp


class TestWireBytes:
    def test_read_request_8_bytes_per_item(self):
        msg = Message(MsgKind.READ_REQ, src=0, dst=1,
                      offsets=np.arange(10))
        assert msg.wire_bytes() == HEADER_BYTES + 80

    def test_read_response_8_bytes_per_item(self):
        msg = Message(MsgKind.READ_RESP, src=0, dst=1,
                      values=np.arange(10.0))
        assert msg.wire_bytes() == HEADER_BYTES + 80

    def test_write_request_16_bytes_per_item(self):
        """Address + value, 8 B each — the Figure 8(a) framing."""
        msg = Message(MsgKind.WRITE_REQ, src=0, dst=1,
                      offsets=np.arange(5), values=np.arange(5.0),
                      op=ReduceOp.SUM)
        assert msg.wire_bytes() == HEADER_BYTES + 80

    def test_rmi_message_header_only(self):
        assert Message(MsgKind.RMI_REQ, src=0, dst=1).wire_bytes() == HEADER_BYTES

    def test_unique_request_ids(self):
        a = Message(MsgKind.READ_REQ, src=0, dst=1)
        b = Message(MsgKind.READ_REQ, src=0, dst=1)
        assert a.request_id != b.request_id


class TestReadBuffer:
    def test_accumulates_bytes(self):
        buf = ReadBuffer()
        buf.append(np.arange(4), np.arange(4))
        assert buf.nbytes == 32
        buf.append(np.arange(2), np.arange(2))
        assert buf.nbytes == 48

    def test_drain_concatenates_in_order(self):
        buf = ReadBuffer()
        buf.append(np.array([1, 2]), np.array([10, 20]))
        buf.append(np.array([3]), np.array([30]))
        offsets, rows, weights, tasks = buf.drain()
        assert offsets.tolist() == [1, 2, 3]
        assert rows.tolist() == [10, 20, 30]
        assert weights is None and tasks == []
        assert buf.empty and buf.nbytes == 0

    def test_drain_with_weights(self):
        buf = ReadBuffer()
        buf.append(np.array([1]), np.array([0]), np.array([0.5]))
        _, _, weights, _ = buf.drain()
        assert weights.tolist() == [0.5]

    def test_mixed_weighted_then_unweighted_rejected(self):
        # Regression: a mix used to drain a weights array shorter than
        # offsets, silently misaligning edge data with its rows.
        buf = ReadBuffer()
        buf.append(np.array([1]), np.array([0]), np.array([0.5]))
        with pytest.raises(ValueError, match="mixed weighted"):
            buf.append(np.array([2]), np.array([1]))

    def test_mixed_unweighted_then_weighted_rejected(self):
        buf = ReadBuffer()
        buf.append(np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="mixed weighted"):
            buf.append(np.array([2]), np.array([1]), np.array([0.5]))

    def test_consistent_appends_still_fine_after_drain(self):
        buf = ReadBuffer()
        buf.append(np.array([1]), np.array([0]), np.array([0.5]))
        buf.drain()
        # a drained buffer may switch modes — it is empty again
        buf.append(np.array([2]), np.array([1]))
        offsets, rows, weights, tasks = buf.drain()
        assert offsets.tolist() == [2] and weights is None

    def test_scalar_batches_of_one_carry_tasks(self):
        buf = ReadBuffer()
        for i in range(3):
            buf.append(np.array([i]), tasks=[("task", i)])
        assert buf.nbytes == 24
        offsets, rows, weights, tasks = buf.drain()
        assert offsets.tolist() == [0, 1, 2] and rows is None
        assert tasks == [("task", 0), ("task", 1), ("task", 2)]
        assert buf.tasks == []  # the drained list is handed over, not reused

    def test_mixed_rows_and_tasks_rejected(self):
        buf = ReadBuffer()
        buf.append(np.array([1]), np.array([0]))
        with pytest.raises(ValueError, match="mixed row and task"):
            buf.append(np.array([2]), tasks=[("task", 2)])
        buf.drain()
        buf.append(np.array([2]), tasks=[("task", 2)])
        with pytest.raises(ValueError, match="mixed row and task"):
            buf.append(np.array([1]), np.array([0]))


class TestWriteBuffer:
    def test_accumulates_16b_per_item(self):
        buf = WriteBuffer()
        buf.append(np.arange(3), np.ones(3))
        assert buf.nbytes == 48

    def test_drain(self):
        buf = WriteBuffer()
        buf.append(np.array([7]), np.array([1.5]))
        offsets, values = buf.drain()
        assert offsets.tolist() == [7] and values.tolist() == [1.5]
        assert buf.empty

    def test_drain_without_combine_preserves_duplicates(self):
        buf = WriteBuffer()
        buf.append(np.array([3, 1, 3]), np.array([1.0, 2.0, 4.0]))
        offsets, values = buf.drain()
        assert offsets.tolist() == [3, 1, 3]
        assert values.tolist() == [1.0, 2.0, 4.0]


class TestRmiRegistry:
    def test_register_and_lookup(self):
        reg = RmiRegistry()
        fn = lambda view: None
        fn_id = reg.register(fn, name="ping")
        assert reg.lookup(fn_id) is fn
        assert reg.id_of("ping") == fn_id

    def test_ids_are_compact(self):
        reg = RmiRegistry()
        ids = [reg.register(lambda: None, name=f"f{i}") for i in range(3)]
        assert ids == [0, 1, 2]

    def test_duplicate_name_rejected(self):
        reg = RmiRegistry()
        reg.register(lambda: None, name="f")
        with pytest.raises(KeyError):
            reg.register(lambda: None, name="f")

    def test_default_name_from_function(self):
        reg = RmiRegistry()

        def my_method(view):
            pass

        fn_id = reg.register(my_method)
        assert reg.id_of("my_method") == fn_id


class TestSideStructure:
    def test_holds_vectorized_state(self):
        side = SideStructure(request_id=1, prop="x", rows=np.arange(3))
        assert side.rows.tolist() == [0, 1, 2] and side.tasks == []

    def test_holds_scalar_tasks(self):
        side = SideStructure(request_id=2, prop="x",
                             tasks=[("task", 0, 1, 0.0, None)])
        assert side.rows is None and len(side.tasks) == 1
