"""Counted work of the scalar run-to-completion path.

``test_force_scalar.py`` compares the scalar path's *values* with the
vectorized path's; this file pins the scalar path's *accounting*: the five
``JobStats`` access counters, the message count, the simulated clock and
the ghost hit/miss metrics by mode.  Every figure was taken from the engine
as it stands and must not move under refactors of the access layer.
"""

import numpy as np
import pytest

from repro import (EdgeMapJob, EdgeMapSpec, OutNbrIterTask, ReduceOp, TaskJob,
                   rmat, with_uniform_weights)
from tests.conftest import make_cluster

COUNTERS = ("local_reads", "remote_reads", "local_writes", "remote_writes",
            "atomic_ops", "messages")


def _load(privatize=True):
    g = with_uniform_weights(rmat(300, 2400, seed=13), 0.1, 1.0, seed=3)
    cluster = make_cluster(4, ghost_threshold=20,
                           ghost_privatization=privatize)
    dg = cluster.load_graph(g)
    dg.add_property("x", from_global=np.arange(g.num_nodes, dtype=float))
    dg.add_property("t", init=0.0)
    return cluster, dg


def _ghost_counts(cluster):
    out = {}
    for family in ("repro_ghost_hits_total", "repro_ghost_misses_total"):
        metric = cluster.metrics.get(family)
        for key, child in metric.children():
            out[f"{family}[{key[0]}]"] = child.value
    return out


def _counted(cluster, stats):
    got = {name: getattr(stats, name) for name in COUNTERS}
    got["now"] = cluster.now
    got.update(_ghost_counts(cluster))
    return got


# (direction, privatize) -> counted work of the spec's scalar twin; every
# cell's atomics include the 114 post-sync SUM partials the copiers apply
SPEC_CELLS = {
    ("pull", True): {
        "local_reads": 4159, "remote_reads": 641, "local_writes": 2400,
        "remote_writes": 0, "atomic_ops": 114, "messages": 92,
        "now": 7.202094832342955e-05,
        "repro_ghost_hits_total[read]": 1175.0,
        "repro_ghost_misses_total[read]": 641.0},
    ("pull", False): {
        "local_reads": 4159, "remote_reads": 641, "local_writes": 2400,
        "remote_writes": 0, "atomic_ops": 114, "messages": 92,
        "now": 7.183694832342956e-05,
        "repro_ghost_hits_total[read]": 1175.0,
        "repro_ghost_misses_total[read]": 641.0},
    # privatized ghost writes pay no atomic; owned ones always do
    ("push", True): {
        "local_reads": 2400, "remote_reads": 0, "local_writes": 1720,
        "remote_writes": 680, "atomic_ops": 1378, "messages": 58,
        "now": 6.334128650254669e-05,
        "repro_ghost_hits_total[write]": 1136.0,
        "repro_ghost_misses_total[write]": 680.0},
    ("push", False): {
        "local_reads": 2400, "remote_reads": 0, "local_writes": 1720,
        "remote_writes": 680, "atomic_ops": 2514, "messages": 58,
        "now": 6.537392453310697e-05,
        "repro_ghost_hits_total[write]": 1136.0,
        "repro_ghost_misses_total[write]": 680.0},
}


@pytest.mark.parametrize("direction,privatize", sorted(SPEC_CELLS))
def test_spec_task_counted_work(direction, privatize):
    cluster, dg = _load(privatize)
    spec = EdgeMapSpec(direction=direction, source="x", target="t",
                       op=ReduceOp.SUM, use_weights=True,
                       transform=lambda v, w: v * w)
    stats = cluster.run_job(dg, EdgeMapJob(name="j", spec=spec).as_task_job())
    assert _counted(cluster, stats) == SPEC_CELLS[(direction, privatize)]


FREE_FORM = {
    "local_reads": 1136, "remote_reads": 0, "local_writes": 2856,
    "remote_writes": 680, "atomic_ops": 1378, "messages": 59,
    "now": 6.35495812393888e-05,
    "repro_ghost_hits_total[read]": 1136.0,
    "repro_ghost_hits_total[write]": 2272.0,
    "repro_ghost_misses_total[write]": 680.0}


def test_free_form_task_counted_work():
    """A hand-written task reading a ghost with ``get_local``, reducing
    with ``write_remote`` and firing an RMI from one node."""
    cluster, dg = _load()
    ghosts = frozenset(int(v) for v in dg.ghost_gids)
    owner = dg.partitioning.owner
    calls = []
    misses = []
    fired = []

    def note(view, amount):
        calls.append((view.machine_index, amount))

    fn_id = cluster.register_rmi(note)

    class Probe(OutNbrIterTask):
        def run(self, ctx):
            v = ctx.nbr_id()
            if v in ghosts and owner(v) != ctx.machine():
                ctx.write_remote(v, "t", ctx.get_local(v, "x"), ReduceOp.SUM)
            elif owner(v) != ctx.machine() and not misses:
                with pytest.raises(KeyError):
                    ctx.get_local(v, "x")
                misses.append(v)
            ctx.write_remote(v, "t", ctx.edge_weight(), ReduceOp.SUM)
            if ctx.node_id() == 0 and not fired:
                ctx.call_remote((ctx.machine() + 1) % 4, fn_id, float(v))
                fired.append(v)

    stats = cluster.run_job(dg, TaskJob(name="probe", task_cls=Probe,
                                        reads=("x",),
                                        writes=(("t", ReduceOp.SUM),)))
    assert misses and len(calls) == 1
    assert _counted(cluster, stats) == FREE_FORM
