"""Remote contributions that no arrival order can change apply on arrival.

``JobExecution.stage`` reduces an order-insensitive contribution (MIN,
MAX, AND, OR, integer SUM) into a column the region never reads the
moment it arrives; everything else — float SUM, OVERWRITE, and any
reduction into a column the region reads — waits for the canonical apply
at the phase boundary.
"""

import hashlib

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat
from repro.core.jobrunner import JobExecution
from tests.conftest import make_cluster

GRAPH = rmat(300, 1800, seed=5)


def run_region(spec, target_dtype=np.float64, source_dtype=np.float64):
    """Run one region of ``spec`` over x -> t on 4 machines without ghosts,
    so every cross-machine contribution travels as a message.  Returns the
    staged group keys left when the main phase ended, the execution, and
    the graph."""
    cluster = make_cluster(4, ghost_threshold=None)
    dg = cluster.load_graph(GRAPH)
    x = np.random.default_rng(3).permutation(dg.num_nodes).astype(np.float64)
    dg.add_property("x", from_global=x.astype(source_dtype))
    dg.add_property("t", dtype=target_dtype, init=dg.num_nodes)
    exc = JobExecution(cluster, dg, EdgeMapJob(name="j", spec=spec),
                       cluster.hooks)
    left = []
    postsync = exc._phase_postsync

    def main_ended():
        left.append(sorted(exc._staged))
        postsync()

    exc._phase_postsync = main_ended
    exc.start()
    while not exc.done:
        cluster.sim.step()
    (staged,) = left
    return staged, exc, dg


@pytest.mark.parametrize("spec,dtype", [
    (EdgeMapSpec(direction="push", source="x", target="t", op=ReduceOp.MIN,
                 undirected=True), np.float64),
    (EdgeMapSpec(direction="pull", source="x", target="t", op=ReduceOp.MAX),
     np.float64),
    (EdgeMapSpec(direction="push", source="x", target="t", op=ReduceOp.SUM),
     np.int64),
], ids=["push-min-undirected", "pull-max", "push-int-sum"])
def test_order_insensitive_unread_target_applies_on_arrival(spec, dtype):
    staged, exc, dg = run_region(spec, dtype)
    traffic = (exc.stats.remote_writes if spec.direction == "push"
               else exc.stats.remote_reads)
    assert traffic > 0
    assert staged == []
    # the values are the canonical apply's: every contribution, once
    src, dst = GRAPH.edge_list()
    x = dg.gather("x")
    want = np.full(dg.num_nodes, dg.num_nodes, dtype=dtype)
    pairs = [(dst, src)]
    if spec.direction == "pull":
        pairs = [(src, dst)]
    elif spec.undirected:
        pairs.append((src, dst))
    for to, frm in pairs:
        spec.op.apply_at(want, to, x[frm].astype(dtype))
    assert np.array_equal(dg.gather("t"), want)


def test_float_sum_stays_staged():
    staged, _, _ = run_region(EdgeMapSpec(
        direction="push", source="x", target="t", op=ReduceOp.SUM))
    assert staged and {key[1:] for key in staged} == {("t", "SUM")}


def test_min_into_a_read_column_stays_staged():
    """A push of x into x reads the column it lowers: a contribution
    landing mid-region would change what later chunks push, so it waits
    for the phase boundary, and the result is the one staging gave
    before contributions applied on arrival."""
    staged, _, dg = run_region(EdgeMapSpec(
        direction="push", source="x", target="x", op=ReduceOp.MIN))
    assert staged and {key[1:] for key in staged} == {("x", "MIN")}
    digest = hashlib.sha256(dg.gather("x").tobytes()).hexdigest()
    assert digest == PINNED_SELF_MIN


def test_active_filter_column_counts_as_read():
    """The active filter is read on every chunk, so a target that is also
    the filter stays staged."""
    spec = EdgeMapSpec(direction="push", source="x", target="t",
                       op=ReduceOp.AND, active="t")
    staged, exc, _ = run_region(spec, np.bool_, np.bool_)
    assert exc.stats.remote_writes > 0
    assert staged and {key[1:] for key in staged} == {("t", "AND")}


#: sha256 of the gathered x after the x -> x MIN push, taken when every
#: remote contribution was staged
PINNED_SELF_MIN = ("18bb2158347ee6f32b9d6ef8ec65870e"
                   "74f503f8a450676b467144e698af31db")
