"""Priority updates: an idempotent reduction (MIN, MAX, AND, OR) pays an
atomic only for a contribution that changes its target's job-start value;
SUM and OVERWRITE pay one per write.

Known answers on hand-built graphs, the rule's monotonicity (fewer atomics
never make a job slower) and its independence of the schedule.
"""

import pytest

from repro import (ClusterConfig, EdgeMapJob, EdgeMapSpec, PgxdCluster,
                   ReduceOp, from_edges, rmat, with_uniform_weights)
from repro.algorithms import hop_dist, sssp, wcc
from repro.bench.calibration import scaled_cluster_config
from repro.core import comm_manager
from repro.core.jobrunner import JobExecution
from repro.core.messages import MsgKind

#: every target starts the job at 5.0; a contribution is its edge weight
START = 5.0

# Vertex partitioning over two machines: machine 0 owns 0-3, machine 1 4-7.
# (src, dst, weight); "wins" marks a contribution below START.
NO_GHOST_EDGES = [
    (0, 1, 1.0),   # wins
    (0, 2, 7.0),
    (1, 2, 2.0),   # wins
    (2, 3, 9.0),
    (3, 1, 3.0),   # wins: tested against START, not against the 1.0
    (4, 5, 6.0),
    (5, 6, 4.0),   # wins
    # cross-machine, one per target, so sender-side combining merges none
    (1, 4, 0.5),   # wins
    (2, 7, 8.0),
    (6, 0, 2.0),   # wins
    (7, 3, 5.0),   # ties START: no change, no atomic
]
LOCAL_WINS, REMOTE_WINS = 4, 2

# Hubs 2, 4, 5 and 6 (in-degree 3 > threshold 2) get ghost copies; every
# edge reduces into a ghost or an owned row, none crosses the wire.
GHOST_EDGES = [
    (0, 4, 1.0), (1, 4, 6.0), (2, 4, 2.0),     # machine 0's partial: 1.0
    (3, 5, 7.0), (0, 5, 8.0), (1, 5, 9.0),     # partial 7.0: no change
    (4, 6, 3.0), (5, 6, 6.0), (7, 6, 1.0),     # all owned by machine 1
    (5, 2, 3.0), (6, 2, 4.0), (7, 2, 9.0),     # machine 1's partial: 3.0
]
# Post-sync: machine 0 ships partials for 4, 5 and 6 (6 still at bottom,
# +inf), machine 1 one for 2; only those for 4 and 2 change their owners.
POSTSYNC_WINS = 2
# Owned-row writes: the three into 6 on machine 1, of which 3.0 and 1.0 win.
GHOST_OWNED_WINS = 2
# Shared (non-privatized) ghost writes: 6 on machine 0, 3 on machine 1.
GHOST_WRITES = 9


def graph(edges):
    src, dst, w = zip(*edges)
    return from_edges(src, dst, num_nodes=8, weights=w)


def relax_job(op=ReduceOp.MIN):
    return EdgeMapJob(name="relax", spec=EdgeMapSpec(
        direction="push", source="x", target="d", op=op,
        transform=lambda v, w: v + w, use_weights=True))


@pytest.fixture
def copier_atomics(monkeypatch):
    """The atomics the copiers price, by request kind."""
    priced = {MsgKind.WRITE_REQ: 0, MsgKind.GHOST_SYNC: 0}
    real = comm_manager._process_message

    def spy(exc, machine, msg):
        tally, resp = real(exc, machine, msg)
        if msg.kind in priced:
            priced[msg.kind] += tally.atomic_ops
        return tally, resp

    monkeypatch.setattr(comm_manager, "_process_message", spy)
    return priced


def relax(edges, ghost_threshold, scalar, privatize=True, op=ReduceOp.MIN):
    """One push relaxation on two machines; its ``JobStats``."""
    cl = PgxdCluster(ClusterConfig(num_machines=2).with_engine(
        partitioning="vertex", ghost_threshold=ghost_threshold,
        ghost_privatization=privatize, num_workers=2, num_copiers=1))
    dg = cl.load_graph(graph(edges))
    dg.add_property("x", init=0.0)
    dg.add_property("d", init=START)
    job = relax_job(op)
    return cl.run_job(dg, job.as_task_job() if scalar else job)


PATHS = pytest.mark.parametrize("scalar", [False, True],
                                ids=["vector", "scalar"])


class TestKnownAnswer:
    @PATHS
    def test_owned_rows_and_write_requests(self, scalar, copier_atomics):
        stats = relax(NO_GHOST_EDGES, None, scalar)
        assert stats.remote_writes == 4
        assert copier_atomics[MsgKind.WRITE_REQ] == REMOTE_WINS
        assert stats.atomic_ops == LOCAL_WINS + REMOTE_WINS

    @PATHS
    def test_post_sync_ghost_partials(self, scalar):
        """Privatized ghost writes pay nothing; a post-sync partial pays
        only where it lowers the owner's row."""
        stats = relax(GHOST_EDGES, 2, scalar)
        assert stats.remote_writes == 0
        assert stats.atomic_ops == GHOST_OWNED_WINS + POSTSYNC_WINS

    @PATHS
    def test_shared_ghost_writes_test_against_bottom(self, scalar):
        """Without privatization a ghost slot starts the job at bottom
        (+inf), so every finite contribution into it changes it."""
        stats = relax(GHOST_EDGES, 2, scalar, privatize=False)
        assert stats.atomic_ops == (GHOST_OWNED_WINS + GHOST_WRITES
                                    + POSTSYNC_WINS)

    @PATHS
    def test_sum_pays_every_write(self, scalar, copier_atomics):
        stats = relax(NO_GHOST_EDGES, None, scalar, op=ReduceOp.SUM)
        assert copier_atomics[MsgKind.WRITE_REQ] == 4
        assert stats.atomic_ops == len(NO_GHOST_EDGES)


GRAPH = with_uniform_weights(rmat(3000, 30000, seed=5), 0.1, 1.0, seed=6)
ALGOS = {"sssp": lambda c, d: sssp(c, d, root=0),
         "wcc": lambda c, d: wcc(c, d),
         "hop_dist": lambda c, d: hop_dist(c, d, root=0)}
REGIMES = {"default": lambda m: ClusterConfig(num_machines=m),
           "scaled": lambda m: scaled_cluster_config(m, 1e-3)}


def charge_every_write(self, machine, prop, op, offsets, values,
                       ghost=False):
    """The rule before priority updates: one untested atomic per write."""
    self.stats.atomic_ops += len(offsets)
    return 0, len(offsets)


def run_algo(algo, config, tie_seed=None):
    cluster = PgxdCluster(config)
    if tie_seed is not None:
        cluster.sim.set_tie_breaker(tie_seed)
    result = ALGOS[algo](cluster, cluster.load_graph(GRAPH))
    return cluster.now, result


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("machines", [2, 4, 8])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_fewer_atomics_never_slower(algo, machines, regime, monkeypatch):
    """Dropping no-op atomics only removes work: no cell's clock may end
    later than under one atomic per write."""
    config = REGIMES[regime](machines)
    tested, result = run_algo(algo, config)
    monkeypatch.setattr(JobExecution, "atomic_cost", charge_every_write)
    untested, reference = run_algo(algo, config)
    assert result.stats.atomic_ops < reference.stats.atomic_ops
    assert tested <= untested


@pytest.mark.parametrize("machines", [2, 4])
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_counts_ignore_the_schedule(algo, machines):
    """The start-value test makes the count a function of the data and
    the flush contents, never of which equal-time event ran first."""
    config = REGIMES["scaled"](machines)

    def counts(tie_seed):
        stats = run_algo(algo, config, tie_seed)[1].stats
        return (stats.atomic_ops, stats.local_writes, stats.remote_writes,
                stats.messages)

    want = counts(None)
    assert all(counts(seed) == want for seed in (1, 7, 42))
