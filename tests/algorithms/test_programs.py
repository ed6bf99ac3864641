"""Every ``repro.algorithms`` entry point is one program, run inline by
``PgxdCluster.run``: known answers, and cleanup when a run fails.

The pins are each algorithm's result digest, iteration count and final
simulated clock under the canonical schedule and tie seed 7.  The digests
and iteration counts are the hand-written driver loops' own; the clocks
are those of the programs whose reductions ride the closing barrier of the
region before them.  A program that moved a job or a reduction would
change at least one of them.
"""

import hashlib

import numpy as np
import pytest

from repro import (ClusterConfig, FaultPlan, MachineCrash, MachineCrashError,
                   PgxdCluster, rmat, with_uniform_weights)
from repro.algorithms import (betweenness, eigenvector, hop_dist, kcore_max,
                              pagerank, pagerank_approx,
                              personalized_pagerank, sssp, wcc)
from repro.core.incremental import IncrementalEngine, hash_weights
from repro.dynamic import DynamicGraph
from tests.conftest import make_cluster

GRAPH = with_uniform_weights(rmat(300, 2400, seed=13), 0.1, 1.0, seed=14)
RUNS = {
    "pagerank": lambda c, d: pagerank(c, d, "pull", max_iterations=30,
                                      tolerance=1e-3),
    "pagerank_approx": lambda c, d: pagerank_approx(c, d, threshold=1e-4),
    "personalized_pagerank": lambda c, d: personalized_pagerank(
        c, d, [0, 5], max_iterations=5),
    "wcc": lambda c, d: wcc(c, d),
    "sssp": lambda c, d: sssp(c, d, root=0),
    "hop_dist": lambda c, d: hop_dist(c, d, root=0),
    "eigenvector": lambda c, d: eigenvector(c, d, max_iterations=5),
    "kcore_max": lambda c, d: kcore_max(c, d),
    "betweenness": lambda c, d: betweenness(c, d, sources=range(3)),
}


def digest(values: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(values):
        arr = np.ascontiguousarray(values[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algo,tie_seed,sha,iterations,now", [
    ("pagerank", None, "783753dedac3c77067f7c4f808602a4ae4e30eea3414911d361cb08b8d6924f3", 6, 0.0005492782360271651),
    ("pagerank", 7, "783753dedac3c77067f7c4f808602a4ae4e30eea3414911d361cb08b8d6924f3", 6, 0.0005492782360271651),
    ("pagerank_approx", None, "7b2a5a528b197955147a7fa7a2d7ad7d3ef2b304cc10ffacd497e230497c3f86", 12, 0.0012485354447771633),
    ("pagerank_approx", 7, "7b2a5a528b197955147a7fa7a2d7ad7d3ef2b304cc10ffacd497e230497c3f86", 12, 0.0012485354447771633),
    ("personalized_pagerank", None, "af5be2c626360ea778056861650a2ab32d908ba1623adde5eee9ef025716b81c", 5, 0.0004624971661290326),
    ("personalized_pagerank", 7, "af5be2c626360ea778056861650a2ab32d908ba1623adde5eee9ef025716b81c", 5, 0.0004624971661290326),
    ("wcc", None, "d09d0416980b82a1037a42358f80ef36332dc27fe493801f458b44656c3d3378", 4, 0.00032324050043293725),
    ("wcc", 7, "d09d0416980b82a1037a42358f80ef36332dc27fe493801f458b44656c3d3378", 4, 0.00032324050043293725),
    ("sssp", None, "ac7e197438b96d83e7acec56659979a0985d2929762a1980bef39ba50a122ee3", 6, 0.0004531315863773348),
    ("sssp", 7, "ac7e197438b96d83e7acec56659979a0985d2929762a1980bef39ba50a122ee3", 6, 0.0004531315863773348),
    ("hop_dist", None, "8628e65859de4cc94b273959f87da58d312bd30a1006b2a993c45a9151c1aa47", 4, 0.00030515226695882836),
    ("hop_dist", 7, "8628e65859de4cc94b273959f87da58d312bd30a1006b2a993c45a9151c1aa47", 4, 0.00030515226695882836),
    ("eigenvector", None, "261de6582d9484a92be96355e6286ec27943be0f5274254ccb9cd0ae2872527e", 5, 0.0004362100863327678),
    ("eigenvector", 7, "261de6582d9484a92be96355e6286ec27943be0f5274254ccb9cd0ae2872527e", 5, 0.0004362100863327678),
    ("kcore_max", None, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 88, 0.004410586319259265),
    ("kcore_max", 7, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 88, 0.004410586319259265),
    ("betweenness", None, "71cb823e95796f5bcb46dda01f6a4a3d844e033f0ef85dcc025f5f5c6ca8f049", 21, 0.0023286336452970975),
    ("betweenness", 7, "71cb823e95796f5bcb46dda01f6a4a3d844e033f0ef85dcc025f5f5c6ca8f049", 21, 0.002329412532376894),
])
def test_known_answer_pinned(algo, tie_seed, sha, iterations, now):
    cluster = make_cluster(4)
    if tie_seed is not None:
        cluster.sim.set_tie_breaker(tie_seed)
    dg = cluster.load_graph(GRAPH)
    columns = dg.machines[0].props.names()
    result = RUNS[algo](cluster, dg)
    assert (digest(result.values), result.iterations, cluster.now) == (
        sha, iterations, now)
    assert dg.machines[0].props.names() == columns


def test_driver_is_the_program_run_inline():
    """``algo(cluster, dg, ...)`` is ``cluster.run(dg, algo.program(dg,
    ...))``: same bits, same clock."""
    results = []
    for inline in (True, False):
        cluster = make_cluster(4)
        dg = cluster.load_graph(GRAPH)
        results.append((sssp(cluster, dg, root=3) if inline else
                        cluster.run(dg, sssp.program(dg, root=3)),
                        cluster.now))
    (a, now_a), (b, now_b) = results
    assert now_a == now_b and a.per_iteration == b.per_iteration
    assert digest(a.values) == digest(b.values)


class TestFailedRunCleanup:
    """A run that raises drops the columns it created, so the next run of
    the same algorithm starts clean and reproduces the quiet cluster."""

    GRAPH = with_uniform_weights(rmat(2000, 20000, seed=3), 0.1, 1.0, seed=4)

    @staticmethod
    def crashing_cluster() -> PgxdCluster:
        # no checkpoint: the crash in the first job propagates
        return PgxdCluster(ClusterConfig(num_machines=4).with_fault_plan(
            FaultPlan(seed=5, crashes=(MachineCrash(machine=1, at=2e-5),))))

    @pytest.mark.parametrize("algorithm,kwargs", [
        (pagerank, dict(max_iterations=3)),
        (sssp, dict(root=0)),
    ], ids=["pagerank", "sssp"])
    def test_crash_drops_columns_and_rerun_matches_quiet(self, algorithm,
                                                         kwargs):
        quiet_cluster = PgxdCluster(ClusterConfig(num_machines=4))
        quiet = algorithm(quiet_cluster, quiet_cluster.load_graph(self.GRAPH),
                          **kwargs)
        cluster = self.crashing_cluster()
        dg = cluster.load_graph(self.GRAPH)
        columns = dg.machines[0].props.names()
        with pytest.raises(MachineCrashError):
            algorithm(cluster, dg, **kwargs)
        assert dg.machines[0].props.names() == columns
        rerun = algorithm(cluster, dg, **kwargs)
        assert rerun.iterations == quiet.iterations
        assert digest(rerun.values) == digest(quiet.values)

    def test_incremental_engine_survives_a_crashed_recompute(self):
        """The engine's three algorithms share the ``active`` column: a
        crashed SSSP must not leave it behind for WCC."""
        src, dst = self.GRAPH.edge_list()
        edges = list(zip(src.tolist(), dst.tolist()))

        def engine(cluster):
            return IncrementalEngine(cluster, DynamicGraph(2000, edges),
                                     weight_fn=hash_weights(seed=11))

        quiet = engine(PgxdCluster(ClusterConfig(num_machines=4)))
        eng = engine(self.crashing_cluster())
        columns = eng.dg.machines[0].props.names()
        with pytest.raises(MachineCrashError):
            eng.sssp(root=0)
        assert eng.dg.machines[0].props.names() == columns
        for algo in ("wcc", "sssp", "pagerank"):
            got, want = getattr(eng, algo)(), getattr(quiet, algo)()
            assert got.mode == want.mode == "full"
            assert digest(got.values) == digest(want.values), algo
