"""Every Table 2 program's results are pinned across the engine's modes.

Each pin is a program's result fingerprint (value arrays plus its
``extra`` facts) and iteration count on one machine count.  Each pin holds
in memory and out of core, under the canonical schedule and tie seeds 1,
7 and 42, so neither the streaming mode nor the equal-time event order
moves a bit.  The pins were taken before reductions rode region barriers,
when every program still ran its reductions as separate steps between
jobs and PageRank and eigenvector still copied their output column back
in a swap region: restructuring the regions must not change a result.
"""

import hashlib

import numpy as np
import pytest

from repro import ClusterConfig, PgxdCluster, rmat, with_uniform_weights
from repro.algorithms import (betweenness, eigenvector, hop_dist, kcore_max,
                              pagerank, pagerank_approx,
                              personalized_pagerank, sssp, wcc)

GRAPH = with_uniform_weights(rmat(120, 700, seed=13), 0.1, 1.0, seed=14)
MACHINES = (1, 4, 7)
RUNS = {
    "pagerank_pull": lambda c, d: pagerank(c, d, "pull", max_iterations=30,
                                           tolerance=1e-3),
    "pagerank_push": lambda c, d: pagerank(c, d, "push", max_iterations=4),
    "pagerank_approx": lambda c, d: pagerank_approx(c, d, threshold=1e-3),
    "personalized_pagerank": lambda c, d: personalized_pagerank(
        c, d, [0, 5], max_iterations=4),
    "wcc": lambda c, d: wcc(c, d),
    "sssp": lambda c, d: sssp(c, d, root=0),
    "hop_dist": lambda c, d: hop_dist(c, d, root=0),
    "eigenvector": lambda c, d: eigenvector(c, d, max_iterations=4),
    "kcore_max": lambda c, d: kcore_max(c, d),
    "betweenness": lambda c, d: betweenness(c, d, sources=range(2)),
}


def fingerprint(result) -> str:
    h = hashlib.sha256()
    for key in sorted(result.values):
        arr = np.ascontiguousarray(result.values[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    h.update(repr(sorted(result.extra.items())).encode())
    return h.hexdigest()[:20]


def run_once(algo: str, machines: int, out_of_core: bool, tie_seed):
    cfg = ClusterConfig(num_machines=machines)
    if out_of_core:
        cfg = cfg.with_engine(out_of_core=True)
    cluster = PgxdCluster(cfg)
    if tie_seed is not None:
        cluster.sim.set_tie_breaker(tie_seed)
    result = RUNS[algo](cluster, cluster.load_graph(GRAPH))
    return fingerprint(result), result.iterations


PINS = {
    ("pagerank_pull", 1): ("1638912e449c6a96c260", 6),
    ("pagerank_pull", 4): ("c569f89c35d17f14f3a9", 6),
    ("pagerank_pull", 7): ("8e28e013414ae5931359", 6),
    ("pagerank_push", 1): ("02e6f16f24fc4ccdb0f6", 4),
    ("pagerank_push", 4): ("537839a7b3c4ec99b429", 4),
    ("pagerank_push", 7): ("221fa3576ce1de3470c3", 4),
    ("pagerank_approx", 1): ("f6f642121a5330e38076", 5),
    ("pagerank_approx", 4): ("a1351186be33b0febc06", 5),
    ("pagerank_approx", 7): ("4364fdf55b522f3ab4ad", 5),
    ("personalized_pagerank", 1): ("f1429ac0e02b273acb8c", 4),
    ("personalized_pagerank", 4): ("8570bcd5a096806fc483", 4),
    ("personalized_pagerank", 7): ("f7b037ff08ba6ff00d5a", 4),
    ("wcc", 1): ("c3d1be202cb07957833c", 4),
    ("wcc", 4): ("c3d1be202cb07957833c", 4),
    ("wcc", 7): ("c3d1be202cb07957833c", 4),
    ("sssp", 1): ("ec3437b7b2a5dee106e4", 5),
    ("sssp", 4): ("ec3437b7b2a5dee106e4", 5),
    ("sssp", 7): ("ec3437b7b2a5dee106e4", 5),
    ("hop_dist", 1): ("13d83d8c24df0fce4753", 4),
    ("hop_dist", 4): ("13d83d8c24df0fce4753", 4),
    ("hop_dist", 7): ("13d83d8c24df0fce4753", 4),
    ("eigenvector", 1): ("36841ccf9544d11c1ffc", 4),
    ("eigenvector", 4): ("853b4b82ada8796a37d1", 4),
    ("eigenvector", 7): ("47e6776b729574ed443a", 4),
    ("kcore_max", 1): ("a09aa1e2c31d78c36c0f", 60),
    ("kcore_max", 4): ("a09aa1e2c31d78c36c0f", 60),
    ("kcore_max", 7): ("a09aa1e2c31d78c36c0f", 60),
    ("betweenness", 1): ("745ab20cfa28d5495560", 14),
    ("betweenness", 4): ("fbca30b6f2fe6aecb43d", 14),
    ("betweenness", 7): ("3c0710f95083a670853c", 14),
}


@pytest.mark.parametrize("algo,machines", sorted(PINS))
def test_results_pinned_in_every_mode(algo, machines):
    want = PINS[algo, machines]
    for out_of_core in (False, True):
        for tie_seed in (None, 1, 7, 42):
            assert run_once(algo, machines, out_of_core, tie_seed) == want, (
                out_of_core, tie_seed)
