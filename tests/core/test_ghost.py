"""Selective ghost nodes: selection, columns, privatization, sync helpers."""

import numpy as np
import pytest

from repro.core.ghost import MachineGhosts, ghost_slots, select_ghosts
from repro.core.properties import ReduceOp
from repro.graph.partition import edge_partition


class TestSelection:
    def test_threshold_none_disables(self, small_rmat):
        assert len(select_ghosts(small_rmat, None)) == 0

    def test_high_threshold_selects_nothing(self, small_rmat):
        assert len(select_ghosts(small_rmat, 10 ** 9)) == 0

    def test_selects_by_either_degree(self, small_rmat):
        thr = 40
        gids = select_ghosts(small_rmat, thr)
        ind, outd = small_rmat.in_degrees(), small_rmat.out_degrees()
        for v in gids:
            assert ind[v] > thr or outd[v] > thr
        for v in range(small_rmat.num_nodes):
            if ind[v] > thr or outd[v] > thr:
                assert v in gids

    def test_sorted_output(self, small_rmat):
        gids = select_ghosts(small_rmat, 20)
        assert np.all(np.diff(gids) > 0)

    def test_lower_threshold_more_ghosts(self, small_rmat):
        assert len(select_ghosts(small_rmat, 10)) > len(select_ghosts(small_rmat, 100))


@pytest.fixture
def ghosts4(small_rmat):
    """MachineGhosts for machine 1 of a 4-way edge partition."""
    part = edge_partition(small_rmat, 4)
    gids = select_ghosts(small_rmat, 30)
    return part, gids, MachineGhosts(1, gids, part, num_workers=3)


class TestMachineGhosts:
    def test_slot_lookup(self, ghosts4):
        part, gids, mg = ghosts4
        slots = ghost_slots(mg.gids, gids)
        assert slots.tolist() == list(range(len(gids)))

    def test_non_ghost_gets_minus_one(self, ghosts4):
        part, gids, mg = ghosts4
        non_ghosts = np.setdiff1d(np.arange(50), gids)[:5]
        assert (ghost_slots(mg.gids, non_ghosts) == -1).all()

    def test_slot_of_one_matches_vector_twin(self, ghosts4):
        """The scalar path's per-access lookup must agree with ghost_slots
        for every vertex — ghosted, owned, and out of range."""
        part, gids, mg = ghosts4
        for v in range(int(gids.max()) + 2):
            assert mg.slot_of_one(v) == int(ghost_slots(mg.gids, np.array([v]))[0])

    def test_slot_of_one_empty_table(self, small_rmat):
        part = edge_partition(small_rmat, 4)
        mg = MachineGhosts(1, np.array([], dtype=np.int64), part,
                           num_workers=3)
        assert mg.slot_of_one(0) == -1

    def test_owner_offsets_consistent(self, ghosts4):
        part, gids, mg = ghosts4
        for i, v in enumerate(gids):
            assert mg.owners[i] == part.owner(int(v))
            assert mg.owner_offsets[i] == part.local_offset(int(v))

    def test_begin_writes_sets_bottom(self, ghosts4):
        _, gids, mg = ghosts4
        mg.begin_writes("d", ReduceOp.MIN, np.float64)
        assert (mg.arrays["d"] == np.inf).all()

    def test_reduce_private_combines_all_workers(self, ghosts4):
        """Stage 1 is priced over every worker's slots; the writes already
        sit in the machine column, which it leaves exactly as it is."""
        _, gids, mg = ghosts4
        if len(gids) == 0:
            pytest.skip("no ghosts at this threshold")
        mg.begin_writes("s", ReduceOp.SUM, np.float64)
        mg.arrays["s"][0] = 0.1
        mg.arrays["s"][-1] += 0.2
        before = mg.arrays["s"].copy()
        assert mg.reduce_private("s") == 3 * len(gids)
        assert np.array_equal(mg.arrays["s"], before)
        assert mg.reduce_private("never-written") == 0

    def test_partials_for_owner_partition_the_ghosts(self, ghosts4):
        part, gids, mg = ghosts4
        mg.begin_writes("s", ReduceOp.SUM, np.float64)
        total = 0
        for owner in range(4):
            offsets, values = mg.partials_for_owner("s", owner)
            total += len(offsets)
            lo, hi = part.machine_range(owner)
            assert np.all((offsets >= 0) & (offsets < hi - lo))
        assert total == len(gids)

    def test_ghosts_owned_here(self, ghosts4):
        part, gids, mg = ghosts4
        slots, offsets = mg.ghosts_owned_here()
        for s in slots:
            assert part.owner(int(gids[s])) == 1

    def test_slots_owned_by(self, ghosts4):
        part, gids, mg = ghosts4
        all_slots = np.concatenate([mg.slots_owned_by(m)[0] for m in range(4)])
        assert sorted(all_slots.tolist()) == list(range(len(gids)))

    def test_empty_ghost_table(self, small_rmat):
        part = edge_partition(small_rmat, 2)
        mg = MachineGhosts(0, np.empty(0, dtype=np.int64), part, 2)
        assert mg.num_ghosts == 0
        assert (ghost_slots(mg.gids, np.array([1, 2, 3])) == -1).all()
        assert mg.reduce_private("x") == 0
