"""Shared fixtures: small deterministic graphs and cluster factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (ClusterConfig, EdgeMapJob, PgxdCluster, from_edges, rmat,
                   with_uniform_weights)


@pytest.fixture
def tiny_graph():
    """Six nodes, hand-checkable: 0->1->2->3->5, 0->4->3."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)]
    return from_edges([e[0] for e in edges], [e[1] for e in edges], num_nodes=6)


@pytest.fixture
def small_rmat():
    """A skewed 300-node graph with hubs (deterministic)."""
    return rmat(300, 1800, seed=5)


@pytest.fixture
def small_rmat_weighted():
    g = rmat(300, 1800, seed=5)
    return with_uniform_weights(g, 0.1, 1.0, seed=9)


@pytest.fixture
def medium_rmat():
    return rmat(2000, 16000, seed=11)


def make_cluster(num_machines=4, ghost_threshold=40, chunk_size=256,
                 num_workers=4, num_copiers=2, **engine_kwargs):
    cfg = ClusterConfig(num_machines=num_machines).with_engine(
        ghost_threshold=ghost_threshold, chunk_size=chunk_size,
        num_workers=num_workers, num_copiers=num_copiers, **engine_kwargs)
    return PgxdCluster(cfg)


def disk_reads(cluster, *stats) -> list:
    """The window reads recorded in ``stats`` (default: every job the
    cluster ran), in record order, as dicts of ``machine``, ``window``,
    ``start`` and ``duration`` of each ``disk-read`` row, the ``stall``
    its activation recorded (0.0 for a readahead's issue), and ``nbytes``
    recovered from the device time (``DiskModel.read_time`` inverted:
    window bytes are whole numbers, so rounding is exact; 0 for an adopted
    readahead's zero-length activation)."""
    cfg = cluster.config.machine
    stalls: dict = {}
    reads = []
    for st in stats or [st for _, st in cluster.job_log]:
        for seq, m, window, kind, start, duration in st.spans:
            if kind == "disk-stall":
                stalls[seq, m, window] = duration
            elif kind == "disk-read":
                nbytes = round((duration - cfg.disk_seek_time)
                               * cfg.disk_seq_bw) if duration else 0
                reads.append({"machine": m, "window": window,
                              "start": start, "duration": duration,
                              "nbytes": float(nbytes),
                              "stall": stalls.pop((seq, m, window), 0.0)})
    return reads


def run_scalar(cluster):
    """Make ``cluster`` run every EdgeMapJob as its ``as_task_job()`` twin,
    so any algorithm driver exercises the general per-edge RTC path."""
    run_job = cluster.run_job

    def run_job_scalar(dgraph, job, **kwargs):
        if isinstance(job, EdgeMapJob):
            job = job.as_task_job()
        return run_job(dgraph, job, **kwargs)

    cluster.run_job = run_job_scalar
    return cluster


@pytest.fixture
def cluster_factory():
    return make_cluster


@pytest.fixture
def loaded(small_rmat):
    """(cluster, distributed graph) over 4 machines with ghosts on."""
    cluster = make_cluster()
    return cluster, cluster.load_graph(small_rmat)


def power_iteration(g, teleport, iterations, damping=0.85):
    """Engine-independent PageRank oracle: ``iterations`` power steps from
    ``teleport``, dangling mass returned along the teleport vector."""
    src, dst = g.edge_list()
    outdeg = g.out_degrees()
    pr = teleport.copy()
    for _ in range(iterations):
        share = np.where(outdeg > 0, pr / np.maximum(outdeg, 1), 0.0)
        pulled = np.bincount(dst, weights=share[src], minlength=g.num_nodes)
        dangling = pr[outdeg == 0].sum()
        pr = ((1.0 - damping) * teleport
              + damping * (pulled + dangling * teleport))
    return pr


# -- seeded mutation-scenario oracle harness ---------------------------------
#
# Shared by every incremental-recompute test: a scenario generator that
# derives randomized insert/delete batch sequences from a seed, and an
# oracle that computes the expected result of each algorithm by a full
# rerun on the epoch's snapshot.  Incremental SSSP/WCC must match the
# oracle exactly; incremental PageRank within `pagerank_tolerance`.

from dataclasses import dataclass  # noqa: E402


def pagerank_tolerance(n: int, threshold: float = 1e-4,
                       damping: float = 0.85, epochs: int = 1) -> float:
    """Documented bound on |incremental - full| for approximate PageRank.

    Each frontier-localized run truncates per-vertex residuals below
    ``threshold``; summed over all vertices and amplified by the geometric
    propagation factor d/(1-d), the accumulated L1 (hence L-inf) drift
    after ``epochs`` warm restarts is at most
    ``epochs * n * threshold * damping / (1 - damping)``.
    (Empirically the max-abs diff sits ~30x below this bound.)
    """
    return epochs * n * threshold * damping / (1.0 - damping)


@dataclass(frozen=True)
class OracleExpectation:
    """Expected values for one algorithm at one epoch (full-rerun oracle)."""

    algo: str
    epoch: int
    values: np.ndarray
    tolerance: float = 0.0  # 0.0 => bit-exact comparison


@dataclass
class ValidationResult:
    """Outcome of comparing an incremental result against the oracle."""

    ok: bool
    algo: str
    epoch: int
    mode: str
    max_diff: float
    mismatches: int
    detail: str = ""

    def __bool__(self) -> bool:  # allows `assert oracle.validate(...)`
        return self.ok


class MutationOracle:
    """Seeded mutation scenario: a DynamicGraph + IncrementalEngine pair
    with randomized batches and a full-rerun oracle per epoch."""

    def __init__(self, num_nodes=120, num_edges=700, seed=0,
                 num_machines=4, weight_seed=11, config=None):
        from repro.core.incremental import IncrementalEngine, hash_weights
        from repro.dynamic import DynamicGraph

        self.rng = np.random.default_rng(seed)
        self.num_nodes = num_nodes
        self.weight_seed = weight_seed
        self.num_machines = num_machines
        base = rmat(num_nodes, num_edges, seed=seed + 1)
        src = np.repeat(np.arange(num_nodes), np.diff(base.out_starts))
        edges = list(zip(src.tolist(), base.out_nbrs.tolist()))
        self.dynamic = DynamicGraph(num_nodes, edges)
        self.cluster = make_cluster(num_machines=num_machines)
        self.engine = IncrementalEngine(
            self.cluster, self.dynamic,
            weight_fn=hash_weights(seed=weight_seed), config=config)

    # -- scenario generation ------------------------------------------------

    def random_batch(self, inserts=5, removes=5):
        """Queue a randomized batch (unique removals of existing edges +
        random insertions) and apply it through the engine."""
        existing = self.dynamic.edge_list()
        k = min(removes, len(existing))
        chosen, seen = [], set()
        if k:
            for i in self.rng.choice(len(existing), size=k, replace=False):
                e = existing[i]
                if e not in seen:  # one copy per distinct edge per batch
                    seen.add(e)
                    chosen.append(e)
        for (u, v) in chosen:
            self.dynamic.remove_edge(u, v)
        for _ in range(inserts):
            self.dynamic.add_edge(int(self.rng.integers(self.num_nodes)),
                                  int(self.rng.integers(self.num_nodes)))
        batch, stats = self.engine.mutate()
        return batch

    def run_scenario(self, rounds=3, inserts=5, removes=5):
        return [self.random_batch(inserts=inserts, removes=removes)
                for _ in range(rounds)]

    # -- oracle -------------------------------------------------------------

    def expected(self, algo: str, root: int = 0,
                 threshold: float = 1e-4) -> OracleExpectation:
        """Full rerun of ``algo`` on the current epoch's snapshot, on a
        fresh cluster (so the oracle shares nothing with the engine)."""
        from repro.algorithms.pagerank import pagerank_approx
        from repro.algorithms.sssp import sssp
        from repro.algorithms.wcc import wcc

        src, dst = self.dynamic.edge_arrays()
        snap = from_edges(src, dst, num_nodes=self.num_nodes,
                          weights=self.engine.weight_fn(src, dst))
        cl = make_cluster(num_machines=self.num_machines)
        dg = cl.load_graph(snap)
        if algo == "sssp":
            vals = sssp(cl, dg, root=root).values["dist"]
            tol = 0.0
        elif algo == "wcc":
            vals = wcc(cl, dg).values["component"]
            tol = 0.0
        elif algo == "pagerank":
            vals = pagerank_approx(cl, dg, threshold=threshold).values["pr"]
            tol = pagerank_tolerance(self.num_nodes, threshold,
                                     epochs=max(1, self.engine.epoch))
        else:
            raise ValueError(f"unknown algo {algo!r}")
        return OracleExpectation(algo=algo, epoch=self.engine.epoch,
                                 values=np.asarray(vals), tolerance=tol)

    def validate(self, result, expectation: OracleExpectation) -> ValidationResult:
        """Compare an IncrementalResult against the oracle expectation."""
        key = {"sssp": "dist", "wcc": "component", "pagerank": "pr"}[expectation.algo]
        got = np.asarray(result.values[key])
        want = expectation.values
        if result.epoch != expectation.epoch:
            return ValidationResult(False, expectation.algo, result.epoch,
                                    result.mode, np.inf, got.size,
                                    detail=f"epoch mismatch: result at "
                                           f"{result.epoch}, oracle at "
                                           f"{expectation.epoch}")
        with np.errstate(invalid="ignore"):
            diff = np.abs(got - want)
        diff = np.where(np.isnan(diff), np.where(got == want, 0.0, np.inf), diff)
        # inf == inf (unreachable SSSP vertices) counts as equal
        both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
        diff = np.where(both_inf, 0.0, diff)
        max_diff = float(np.max(diff)) if diff.size else 0.0
        if expectation.tolerance == 0.0:
            bad = int(np.count_nonzero(diff != 0.0))
            ok = bad == 0
        else:
            bad = int(np.count_nonzero(diff > expectation.tolerance))
            ok = bad == 0
        detail = "" if ok else (f"{bad} vertices differ "
                                f"(max |diff| {max_diff:.3e}, "
                                f"tolerance {expectation.tolerance:.3e})")
        return ValidationResult(ok, expectation.algo, result.epoch,
                                result.mode, max_diff, bad, detail=detail)

    def check(self, algo: str, root: int = 0) -> ValidationResult:
        """Run the incremental algorithm and validate it in one step."""
        if algo == "sssp":
            result = self.engine.sssp(root=root)
        elif algo == "wcc":
            result = self.engine.wcc()
        elif algo == "pagerank":
            result = self.engine.pagerank()
        else:
            raise ValueError(f"unknown algo {algo!r}")
        return self.validate(result, self.expected(algo, root=root))


@pytest.fixture
def mutation_oracle():
    """Factory for seeded mutation scenarios with a full-rerun oracle."""
    return MutationOracle
