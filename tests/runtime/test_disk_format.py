"""The on-disk shard format against a plain-Python reference codec.

The oracle below writes each window to ``bytes`` the slow, obvious way —
an 8 B header, a LEB128 degree per row, a zigzag-LEB128 delta per edge
(a row's first delta against the row's own global id), then 8 B per edge
per streamed column — and reads it back.  The engine never materializes
these bytes; it prices them from a vectorised per-row prefix
(:func:`repro.runtime.disk.encoded_row_prefix`).  Every window's modeled
disk bytes must equal the oracle's ``len()``, and decoding must give back
the CSR the window covers.
"""

import struct

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat, with_uniform_weights
from repro.core.jobrunner import JobExecution
from repro.runtime.disk import encoded_row_prefix, window_bytes
from tests.conftest import disk_reads, make_cluster


# -- reference codec ----------------------------------------------------------


def leb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if not value:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def read_leb128(blob: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, pos


def zigzag(delta: int) -> int:
    return 2 * delta if delta >= 0 else -2 * delta - 1


def unzigzag(code: int) -> int:
    return code // 2 if code % 2 == 0 else -(code + 1) // 2


def encode_rows(starts, nbrs, first_row: int, lo: int, hi: int) -> bytes:
    """Rows ``[lo, hi)`` of a CSR slice whose row 0 is ``first_row``."""
    out = bytearray()
    for row in range(lo, hi):
        s, e = int(starts[row]), int(starts[row + 1])
        out += leb128(e - s)
        prev = first_row + row
        for nbr in nbrs[s:e].tolist():
            out += leb128(zigzag(nbr - prev))
            prev = nbr
    return bytes(out)


def encode_window(starts, nbrs, first_row: int, lo: int, hi: int,
                  columns=()) -> bytes:
    """One window: header (row count, id bytes), rows, edge columns."""
    ids = encode_rows(starts, nbrs, first_row, lo, hi)
    s, e = int(starts[lo]), int(starts[hi])
    out = bytearray(struct.pack("<II", hi - lo, len(ids)))
    out += ids
    for col in columns:
        out += np.asarray(col[s:e], dtype="<f8").tobytes()
    return bytes(out)


def decode_window(blob: bytes, first_row: int, num_columns: int = 0):
    """Inverse of :func:`encode_window` for a window whose first row is
    global vertex ``first_row``: (rebased starts, nbrs, columns)."""
    num_rows, id_bytes = struct.unpack_from("<II", blob, 0)
    pos = 8
    starts, nbrs = [0], []
    for row in range(num_rows):
        degree, pos = read_leb128(blob, pos)
        prev = first_row + row
        for _ in range(degree):
            code, pos = read_leb128(blob, pos)
            prev += unzigzag(code)
            nbrs.append(prev)
        starts.append(len(nbrs))
    assert pos == 8 + id_bytes
    m = len(nbrs)
    columns = [np.frombuffer(blob, dtype="<f8", count=m, offset=pos + 8 * m * i)
               for i in range(num_columns)]
    assert pos + 8 * m * num_columns == len(blob)
    return (np.array(starts, dtype=np.int64), np.array(nbrs, dtype=np.int64),
            columns)


def assert_window_matches(starts, nbrs, first_row, lo, hi, disk_bytes,
                          columns=()):
    blob = encode_window(starts, nbrs, first_row, lo, hi, columns)
    assert disk_bytes == len(blob), (lo, hi)
    got_starts, got_nbrs, got_cols = decode_window(blob, first_row + lo,
                                                   len(columns))
    s, e = int(starts[lo]), int(starts[hi])
    assert np.array_equal(got_starts, np.asarray(starts[lo:hi + 1]) - s)
    assert np.array_equal(got_nbrs, np.asarray(nbrs[s:e]))
    for got, col in zip(got_cols, columns):
        assert np.array_equal(got, np.asarray(col[s:e], dtype=np.float64))


# -- the codec itself ----------------------------------------------------------


class TestReferenceCodec:
    @pytest.mark.parametrize("value,nbytes", [
        (0, 1), (127, 1), (128, 2), (2**14 - 1, 2), (2**14, 3),
        (2**32 - 1, 5), (2**35 - 1, 5), (2**35, 6)])
    def test_leb128_lengths_roundtrip(self, value, nbytes):
        blob = leb128(value)
        assert len(blob) == nbytes
        assert read_leb128(blob, 0) == (value, nbytes)

    def test_zigzag_interleaves_signs(self):
        assert [zigzag(d) for d in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
        for d in (-2**40, -5, 0, 7, 2**40):
            assert unzigzag(zigzag(d)) == d


# -- synthetic CSRs: every edge case of the format ------------------------------


def _csr(rows):
    starts = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    nbrs = np.array([n for r in rows for n in r], dtype=np.int64)
    return starts, nbrs


SYNTHETIC = {
    # rows with no edges between, before and after non-empty ones
    "empty_rows": (_csr([[], [3, 4], [], [], [0], []]), 10),
    "all_empty": (_csr([[], [], []]), 0),
    # one hub row holding nearly every edge, sorted
    "hub": (_csr([[1], list(range(0, 3000, 3)), [7, 9]]), 0),
    # multi-edges: repeated neighbors encode as delta 0
    "multi_edges": (_csr([[5, 5, 5], [2, 2], [9]]), 0),
    # first neighbor below the row's own id: a negative first delta
    "first_below_row": (_csr([[0, 1], [2], [1, 300]]), 500),
    # unsorted rows still encode (zigzag on every delta)
    "unsorted": (_csr([[9, 1, 8, 2], [0, 200, 100]]), 40),
    # ids past 2**32: no fixed width, 5-byte varints appear
    "ids_past_2_32": (_csr([[2**32 + 5, 2**33, 3],
                            [2**33 + 1, 2**33 + 2]]), 2**33),
}


class TestPrefixMatchesOracle:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_every_row_range(self, name):
        (starts, nbrs), first_row = SYNTHETIC[name]
        prefix = encoded_row_prefix(starts, nbrs, first_row)
        n = len(starts) - 1
        assert prefix[0] == 0 and len(prefix) == n + 1
        weights = np.linspace(0.5, 1.5, len(nbrs))
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                edges = int(starts[hi] - starts[lo])
                assert_window_matches(starts, nbrs, first_row, lo, hi,
                                      window_bytes(prefix, lo, hi, edges, 0))
                assert_window_matches(starts, nbrs, first_row, lo, hi,
                                      window_bytes(prefix, lo, hi, edges, 1),
                                      columns=(weights,))

    def test_multi_edge_deltas_are_one_byte_zeros(self):
        (starts, nbrs), first_row = SYNTHETIC["multi_edges"]
        row = encode_rows(starts, nbrs, first_row, 0, 1)
        assert row == leb128(3) + leb128(zigzag(5)) + b"\x00\x00"

    def test_ids_past_two_to_the_32(self):
        """Varint ids have no width: a graph with ids past 2**32 encodes,
        the wide deltas take 5 bytes, and the prefix still matches."""
        (starts, nbrs), first_row = SYNTHETIC["ids_past_2_32"]
        row0 = encode_rows(starts, nbrs, first_row, 0, 1)
        # degree 3; 2**32+5 - 2**33; 2**33 - (2**32+5); 3 - 2**33
        deltas = (2**32 + 5 - 2**33, 2**33 - 2**32 - 5, 3 - 2**33)
        assert [len(leb128(zigzag(d))) for d in deltas] == [5, 5, 5]
        assert len(row0) == 1 + 15
        prefix = encoded_row_prefix(starts, nbrs, first_row)
        assert prefix[1] == len(row0)
        assert prefix[2] - prefix[1] == len(encode_rows(starts, nbrs,
                                                        first_row, 1, 2))


# -- the engine's windows --------------------------------------------------------


def _run_streamed(graph, spec, chunk_size=64):
    # windows of num_workers x chunk_size edges
    cluster = make_cluster(out_of_core=True, num_workers=2,
                           chunk_size=chunk_size)
    dg = cluster.load_graph(graph)
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    exc = JobExecution(cluster, dg, EdgeMapJob(name="j", spec=spec),
                       cluster.hooks)
    exc.start()
    while not exc.done:
        cluster.sim.step()
    return dg, exc, disk_reads(cluster, exc.stats)


class TestEngineWindowsMatchOracle:
    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("direction,csr_name", [("push", "out"),
                                                    ("pull", "in")])
    def test_rmat_windows(self, seed, direction, csr_name):
        graph = rmat(400, 3000, seed=seed)
        dg, exc, reads = _run_streamed(graph, EdgeMapSpec(
            direction=direction, source="x", target="t", op=ReduceOp.SUM))
        nbytes = {(e["machine"], e["window"]): e["nbytes"] for e in reads}
        windows = 0
        for stream, m in zip(exc.window_streams, dg.machines):
            csr = m.csr(csr_name)
            assert len(stream.windows) >= 2
            for w, (chunks, disk_bytes, _) in enumerate(stream.windows):
                lo, hi = chunks[0][0], chunks[-1][1]
                assert_window_matches(csr.starts, csr.nbrs, m.lo, lo, hi,
                                      disk_bytes)
                assert nbytes[(m.index, w)] == disk_bytes
                windows += 1
        # plus each machine's readahead of its window 0
        assert windows + len(dg.machines) == len(reads)

    def test_weighted_windows_carry_the_weight_column(self):
        graph = with_uniform_weights(rmat(400, 3000, seed=5), 0.1, 1.0,
                                     seed=9)
        dg, exc, _ = _run_streamed(graph, EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.MIN,
            use_weights=True))
        for stream, m in zip(exc.window_streams, dg.machines):
            csr = m.out_csr
            for chunks, disk_bytes, _ in stream.windows:
                assert_window_matches(csr.starts, csr.nbrs, m.lo,
                                      chunks[0][0], chunks[-1][1], disk_bytes,
                                      columns=(csr.weights,))

    def test_hub_window(self):
        """A hub row bigger than the window budget is a window of its own,
        and its bytes still match the oracle."""
        graph = rmat(200, 4000, seed=3)
        dg, exc, _ = _run_streamed(graph, EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM),
            chunk_size=4)
        hubs = 0
        for stream, m in zip(exc.window_streams, dg.machines):
            csr = m.in_csr
            for chunks, disk_bytes, _ in stream.windows:
                lo, hi = chunks[0][0], chunks[-1][1]
                hubs += int(csr.starts[hi] - csr.starts[lo]) > 8
                assert_window_matches(csr.starts, csr.nbrs, m.lo, lo, hi,
                                      disk_bytes)
        assert hubs > 0

    def test_prefix_cached_on_the_csr(self):
        dg, exc, _ = _run_streamed(rmat(400, 3000, seed=5), EdgeMapSpec(
            direction="push", source="x", target="t", op=ReduceOp.SUM))
        for stream, m in zip(exc.window_streams, dg.machines):
            assert list(stream.row_prefixes) == ["out"]
            assert stream.row_prefixes["out"] is m.out_csr.disk_row_prefix(
                m.lo)
            assert m.in_csr._disk_prefix is None  # never streamed
