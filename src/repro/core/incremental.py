"""Incremental recompute over mutating graphs (Section 6.2 outlook).

The paper's dynamic-graph outlook, made concrete: a
:class:`DynamicGraph`'s mutation batches become first-class scheduled
jobs (:class:`~repro.core.job.MutationJob`) with **snapshot isolation** —
readers pin an epoch's :class:`~repro.core.engine.DistributedGraph` and
keep running while a mutation job builds the next epoch's partitions.
The build patches at edge granularity: it adopts the previous epoch's
pivots and ghost table, shares every CSR slice its edge delta leaves
untouched, and copies the others with the removed entries dropped and the
inserted ones merged in, so a batch costs what it changes.

On top of the epoch chain sits **delta-driven recompute**: instead of a
full rerun per update batch, the active-vertex frontier is seeded from
the changed edge set.

* **SSSP** (exact): monotone re-relaxation.  Deletions invalidate the
  affected subtree — vertices whose shortest path was supported by a
  deleted edge, found by walking tight edges under the old distances —
  back to +inf; the frontier is the affected region's intact in-boundary
  plus inserted-edge sources.  The Bellman-Ford fixpoint from this state
  equals the from-scratch fixpoint exactly.
* **WCC** (exact): every component containing a genuinely-deleted edge is
  reset to self-labels and reactivated together with inserted-edge
  endpoints; min-label propagation re-floods only the reset region.
* **PageRank** (to the same convergence threshold): frontier-localized
  delta propagation seeded with the *residual* the structural change
  introduces — ``d * (A_new^T - A_old^T) p_old`` plus the dangling-mass
  shift — warm-started from the previous fixed point.  Matches a full
  rerun within the documented truncation tolerance
  (``docs/incremental.md``).

All three run the shared :mod:`repro.algorithms` programs
(``sssp``, ``wcc``, ``pagerank_approx``), warm-started through their
``start`` argument.  When the accumulated delta exceeds a configurable
fraction of the edge set, incremental seeding stops paying and the engine
falls back to a full rerun (same program, cold-start state — so the work
accounting stays comparable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..algorithms.pagerank import pagerank_approx
from ..algorithms.sssp import sssp
from ..algorithms.wcc import wcc
from ..graph.csr import Graph, from_edges, patch_edges
from ..runtime.config import ConfigError, _at_least
from ..runtime.stats import JobStats
from . import barrier as barrier_mod
from .engine import DistributedGraph, PgxdCluster
from .job import MutationJob

#: modeled per-edge CSR build cost (ingest + endpoint resolution, per
#: repro.bench.calibration), paid by each inserted half-edge, whose
#: endpoint a patch resolves
BUILD_SECONDS_PER_EDGE = 40e-9
#: modeled fixed cost of every machine's epoch flip (pivot/ghost-table
#: bookkeeping); all a machine with an empty delta pays
REUSE_SECONDS = 1e-6
#: PageRank delta-propagation parameters (both modes use the same
#: threshold, so incremental and full runs truncate identically)
PR_DAMPING = 0.85
PR_THRESHOLD = 1e-4
PR_MAX_ITERATIONS = 100
#: iteration caps for the exact algorithms
SSSP_MAX_ITERATIONS = 10000
WCC_MAX_ITERATIONS = 1000


def patch_seconds(machine, slices, edits) -> float:
    """Modeled seconds ``machine`` spends on its part of an epoch build.

    ``slices`` are its previous epoch's (out, in) CSR slices and ``edits``
    their :class:`~repro.graph.csr.CsrEdit` windows.  Each slice with a
    non-empty edit is copied: one thread streams its bytes in and the
    patched arrays out through the machine's DRAM model, and resolves each
    inserted entry at :data:`BUILD_SECONDS_PER_EDGE`.  Shared slices cost
    nothing beyond :data:`REUSE_SECONDS`.
    """
    copied = sum(c.nbytes for c, e in zip(slices, edits) if not e.empty)
    inserted = sum(e.at.size for e in edits)
    return (REUSE_SECONDS
            + machine.cpu.dram.access_time(2.0 * copied, 1, locality=1.0)
            + inserted * BUILD_SECONDS_PER_EDGE)


def hash_weights(low: float = 0.1, high: float = 1.0,
                 seed: int = 0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A deterministic per-edge weight function ``(src, dst) -> weights``.

    Every epoch's snapshot assigns the *same* weight to the same (u, v)
    edge — the property that makes incremental SSSP comparable against a
    full rerun on the current snapshot.  Splitmix-style integer hash,
    mapped into [low, high).
    """

    mix = np.uint64((seed * 0x94D049BB133111EB) % (1 << 64))

    def weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (np.asarray(src, dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15)
                 + np.asarray(dst, dtype=np.uint64)
                 * np.uint64(0xBF58476D1CE4E5B9) + mix)
            h ^= h >> np.uint64(31)
            h *= np.uint64(0xD6E8FEB86659FD93)
            h ^= h >> np.uint64(27)
        frac = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return low + frac * (high - low)

    return weights


@dataclass(frozen=True)
class IncrementalConfig:
    """Knobs of the incremental recompute engine."""

    #: fall back to a full rerun when the accumulated changed-edge count
    #: exceeds this fraction of the current edge set
    full_rerun_fraction: float = 0.2

    def __post_init__(self) -> None:
        _at_least(self, 0, "full_rerun_fraction")
        if not self.full_rerun_fraction <= 1:
            raise ConfigError(f"full_rerun_fraction must be <= 1, "
                              f"got {self.full_rerun_fraction!r}")


@dataclass
class IncrementalResult:
    """Outcome of one (incremental or fallback) recompute."""

    algo: str
    mode: str                 #: "incremental" | "full"
    epoch: int
    iterations: int
    #: sum over iterations of the active-frontier size entering the step —
    #: the work measure compared across modes (incremental vs full rerun)
    recomputed_vertices: int
    total_time: float         #: simulated seconds
    values: dict = field(default_factory=dict)
    #: True when warm state existed but the delta exceeded the configured
    #: full-rerun fraction (distinguishes a real fallback from cold start)
    fallback: bool = False


class MutationExecution:
    """Execution of one :class:`MutationJob` on the simulator.

    Scheduler-compatible twin of :class:`JobExecution` (``start`` /
    ``done`` / ``on_done`` / ``stats`` / ``stall_diagnostics``): builds
    the next epoch's ``DistributedGraph`` host-side, charges the slowest
    machine's :func:`patch_seconds` plus a cluster barrier, and installs
    the epoch at the simulated completion instant.
    """

    def __init__(self, cluster: PgxdCluster, job: MutationJob, hooks):
        self.cluster = cluster
        self.job = job
        self.engine = job.engine
        self.sim = cluster.sim
        self.hooks = hooks
        self.on_done = None
        self.done = False
        self.phase = "mutate"
        self.stats = JobStats(start_time=self.sim.now)
        self._built = None

    def start(self) -> None:
        self.hooks.emit("job.start", job=self.job.name, time=self.sim.now)
        self._built = self.engine._build_epoch(self.job)
        new_dg, patched, reused, cost = self._built
        latency = barrier_mod.barrier_latency(
            self.cluster.config.num_machines, self.cluster.config.network)
        self.sim.schedule_at(self.sim.now + (cost + latency),
                             self._finalize)

    def _finalize(self) -> None:
        new_dg, patched, reused, _cost = self._built
        self.engine._install_epoch(self.job.epoch, new_dg)
        self.phase = "done"
        self.stats.end_time = self.sim.now
        self.hooks.emit("dynamic.apply", epoch=self.job.epoch,
                        inserted=len(self.job.inserted),
                        removed=len(self.job.removed),
                        machines_patched=len(patched),
                        machines_reused=reused,
                        duration=self.stats.elapsed, time=self.sim.now)
        self.hooks.emit("job.end", job=self.job.name,
                        start=self.stats.start_time,
                        duration=self.stats.elapsed)
        self.done = True
        if self.on_done is not None:
            self.on_done(self)

    def stall_diagnostics(self) -> dict:
        return {"job": self.job.name, "phase": self.phase,
                "epoch": self.job.epoch}


class IncrementalEngine:
    """Epoch-chained serving of a :class:`~repro.dynamic.DynamicGraph`.

    Owns the current epoch's :class:`DistributedGraph` (``pin()`` hands it
    to readers — it stays valid and immutable while newer epochs are
    installed) and the per-algorithm warm-start state the incremental
    drivers reuse.  ``mutate()`` commits the dynamic graph's pending
    updates and runs them as a :class:`MutationJob`; with a
    :class:`~repro.core.scheduler.JobScheduler` attached the job takes
    the normal admission path and interleaves with readers.  The
    scheduler's graph-lock token for mutation jobs is the engine itself,
    so mutations serialize while reads of pinned epochs proceed.
    """

    def __init__(self, cluster: PgxdCluster, dynamic,
                 weight_fn: Optional[Callable] = None,
                 config: Optional[IncrementalConfig] = None):
        self.cluster = cluster
        self.dynamic = dynamic
        self.weight_fn = weight_fn
        self.config = config or IncrementalConfig()
        self.epoch = dynamic.epoch
        src, dst = dynamic.edge_arrays()
        self.dg = cluster.load_graph(from_edges(
            src, dst, num_nodes=dynamic.num_nodes,
            weights=None if weight_fn is None else weight_fn(src, dst)))
        #: algo -> {"epoch", "graph", <warm-start arrays>}
        self._state: dict[str, dict] = {}

    # -- snapshots and epochs ----------------------------------------------

    def pin(self) -> DistributedGraph:
        """The current epoch's distributed graph, for readers.

        The returned object is never mutated by later epochs — a reader
        holding it keeps a consistent view while mutations install newer
        epochs on the engine (snapshot isolation).
        """
        return self.dg

    def mutate(self, session: Optional[str] = None):
        """Commit pending updates and run the epoch build as a job.

        Returns ``(batch, stats)``.  A job builds from the installed epoch
        up to its own, so queued mutation jobs each build their own epoch
        even when several are admitted before the first runs.
        """
        job = self.stage()
        batch = self.dynamic.history[-1]
        cl = self.cluster
        if session is not None and cl.scheduler is not None:
            with cl.scheduler.session_scope(session):
                stats = cl.run_job(self, job)
        else:
            stats = cl.run_job(self, job)
        return batch, stats

    def mutation_job(self, batch) -> MutationJob:
        """The job form of an applied batch (for direct scheduler submit).

        ``mutate()`` builds one internally; two-tenant callers that want
        the mutation *queued* (e.g. the audit harness's dynamic scenario)
        call :meth:`stage` instead and submit the returned job themselves
        with the engine as the scheduler's graph token.
        """
        return MutationJob(name=f"mutate_epoch_{batch.epoch}", engine=self,
                           epoch=batch.epoch, inserted=batch.inserted,
                           removed=batch.removed)

    def stage(self) -> MutationJob:
        """Commit pending updates and return the job (not yet run) — for
        explicit scheduler submission."""
        return self.mutation_job(self.dynamic.apply_updates())

    def _net_delta(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending edge keys ``u * N + v`` of the copies inserted and
        removed between the installed epoch and ``epoch``.

        Diffing against the installed epoch, not the latest batch, keeps
        the patch exact when an earlier mutation job died before it
        installed; an edge removed and re-added in the window cancels.
        """
        inserted, removed = self._changes_between(self.epoch, epoch)
        n = np.int64(self.dynamic.num_nodes)
        pairs = np.asarray(inserted + removed, dtype=np.int64).reshape(-1, 2)
        keys, where = np.unique(pairs[:, 0] * n + pairs[:, 1],
                                return_inverse=True)
        sign = np.repeat([1, -1], [len(inserted), len(removed)])
        net = np.bincount(where, weights=sign,
                          minlength=keys.size).astype(np.int64)
        return (np.repeat(keys, np.maximum(net, 0)),
                np.repeat(keys, np.maximum(-net, 0)))

    def _build_epoch(self, job: MutationJob):
        """Build ``job.epoch``'s DistributedGraph by patching the installed
        one at edge granularity.

        The partitioning pivots and ghost table carry over verbatim.  Each
        machine takes the part of the delta whose rows fall in its out
        range (sources) or in range (destinations); a CSR slice whose part
        is empty is shared, any other is copied with its part merged in
        (:meth:`LocalCsr.patched`).  Machines patch in parallel, so the
        build costs the slowest machine's :func:`patch_seconds`.  Returns
        ``(dgraph, patched machine indices, shared machine count, cost)``.
        """
        old = self.dg
        part, ghosts, g = old.partitioning, old.ghost_gids, old.graph
        inserted, removed = self._net_delta(job.epoch)
        graph, out_edit, in_edit = patch_edges(g, inserted, removed,
                                               self.weight_fn)
        csrs, patched, cost = [], [], REUSE_SECONDS
        for m in old.machines:
            slices = (m.out_csr, m.in_csr)
            edits = (out_edit.window(m.lo, m.hi, int(g.out_starts[m.lo])),
                     in_edit.window(m.lo, m.hi, int(g.in_starts[m.lo])))
            csrs.append(tuple(c.patched(e, m.lo, part, ghosts)
                              for c, e in zip(slices, edits)))
            if not all(e.empty for e in edits):
                patched.append(m.index)
                cost = max(cost, patch_seconds(m, slices, edits))
        new_dg = DistributedGraph(self.cluster, graph, part, ghosts,
                                  csrs=csrs)
        return new_dg, patched, len(csrs) - len(patched), cost

    def _install_epoch(self, epoch: int, dg: DistributedGraph) -> None:
        prev = self.dg
        # a mutation dispatched behind a later one found nothing to add
        self.epoch = max(self.epoch, epoch)
        self.dg = dg
        cache = getattr(self.cluster, "result_cache", None)
        if cache is not None:
            # Serving-tier invalidation: precisely this engine's cached
            # results are stale now; other graphs' entries survive.
            cache.on_epoch(self, prev, dg, epoch)

    # -- changeset bookkeeping ---------------------------------------------

    def _changes_between(self, first: int, last: int):
        """Merged (inserted, removed) edge lists covering
        ``(first, last]`` of the dynamic graph's history."""
        inserted: list = []
        removed: list = []
        for batch in self.dynamic.history:
            if first < batch.epoch <= last:
                inserted.extend(batch.inserted)
                removed.extend(batch.removed)
        return inserted, removed

    def _plan(self, algo: str, **key):
        """``(warm state, fallback, inserted, removed)``: no state (a cold
        start) when there is none for this epoch and ``key`` (SSSP's root),
        or when the delta exceeds the full-rerun fraction (the fallback)."""
        state = self._state.get(algo)
        if (state is None or state["epoch"] > self.epoch
                or any(state[k] != v for k, v in key.items())):
            return None, False, (), ()
        inserted, removed = self._changes_between(state["epoch"], self.epoch)
        budget = self.config.full_rerun_fraction * max(1, self.dg.num_edges)
        if len(inserted) + len(removed) > budget:
            return None, True, (), ()
        return state, False, inserted, removed

    def _finish(self, algo: str, warm, fellback: bool, run,
                values: dict) -> IncrementalResult:
        """Wrap a shared-program run as an :class:`IncrementalResult`; the
        recomputed-vertex count sums its ``active_trace``."""
        result = IncrementalResult(
            algo=algo, mode="full" if warm is None else "incremental",
            epoch=self.epoch, iterations=run.iterations,
            recomputed_vertices=sum(run.extra["active_trace"]),
            total_time=run.total_time, values=values, fallback=fellback)
        self.cluster.hooks.emit(
            "job.incremental", algo=result.algo, mode=result.mode,
            epoch=result.epoch, iterations=result.iterations,
            recomputed_vertices=result.recomputed_vertices,
            fallback=result.fallback,
            duration=result.total_time, time=self.cluster.sim.now)
        return result

    # -- SSSP ---------------------------------------------------------------

    def sssp(self, root: int = 0) -> IncrementalResult:
        """Exact single-source shortest paths on the current epoch."""
        if self.dg.graph.edge_weights is None:
            raise ValueError("incremental sssp requires a weight_fn")
        warm, fellback, inserted, removed = self._plan("sssp", root=root)
        start = (None if warm is None else
                 self._sssp_seed(warm["dist"], root, inserted, removed))
        run = sssp(self.cluster, self.dg, root=root,
                   max_iterations=SSSP_MAX_ITERATIONS,
                   start=start)
        dist = run.values["dist"]
        self._state["sssp"] = {"epoch": self.epoch, "root": root,
                               "dist": dist}
        return self._finish("sssp", warm, fellback, run, {"dist": dist})

    def _edge_in_graph(self, g: Graph, u: int, v: int) -> bool:
        row = g.out_nbrs[g.out_starts[u]:g.out_starts[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def _sssp_seed(self, dist_old: np.ndarray, root: int, inserted, removed):
        """Affected-subtree invalidation + frontier seeding (driver-side).

        A deleted edge (u, v) that was *tight* under the old distances
        (``dist[v] == dist[u] + w``) may have supported v's shortest
        path; the invalidation walk marks every vertex reachable from
        such seeds along still-present tight edges, over-approximating
        the set whose old distance is no longer achievable.  Those reset
        to +inf; the frontier is their intact (finite-distance)
        in-boundary plus inserted-edge sources.
        """
        g = self.dg.graph
        n = g.num_nodes
        wfn = self.weight_fn
        affected = np.zeros(n, dtype=bool)
        stack: list[int] = []
        for (u, v) in removed:
            if self._edge_in_graph(g, u, v):
                continue  # another multigraph copy survives, same weight
            if not np.isfinite(dist_old[u]):
                continue
            w = float(wfn(np.array([u]), np.array([v]))[0])
            if dist_old[v] == dist_old[u] + w and not affected[v]:
                affected[v] = True
                stack.append(v)
        while stack:
            x = stack.pop()
            row = g.out_nbrs[g.out_starts[x]:g.out_starts[x + 1]]
            if len(row) == 0:
                continue
            ws = g.edge_weights[g.out_starts[x]:g.out_starts[x + 1]]
            tight = dist_old[row] == dist_old[x] + ws
            for y in row[tight & ~affected[row]]:
                affected[y] = True
                stack.append(int(y))
        dist0 = dist_old.copy()
        dist0[affected] = np.inf
        dist0[root] = 0.0
        active0 = np.zeros(n, dtype=bool)
        aff_idx = np.flatnonzero(affected)
        for v in aff_idx:
            ins = g.in_nbrs[g.in_starts[v]:g.in_starts[v + 1]]
            active0[ins[np.isfinite(dist0[ins])]] = True
        if affected[root]:
            active0[root] = True
        for (u, _v) in inserted:
            if np.isfinite(dist0[u]):
                active0[u] = True
        active0 &= np.isfinite(dist0)
        return dist0, active0

    # -- WCC ----------------------------------------------------------------

    def wcc(self) -> IncrementalResult:
        """Exact weakly connected components on the current epoch."""
        warm, fellback, inserted, removed = self._plan("wcc")
        start = (None if warm is None else
                 self._wcc_seed(warm["comp"], inserted, removed))
        run = wcc(self.cluster, self.dg,
                  max_iterations=WCC_MAX_ITERATIONS, start=start)
        comp = run.values["component"]
        self._state["wcc"] = {"epoch": self.epoch,
                              "comp": comp.astype(np.float64)}
        return self._finish("wcc", warm, fellback, run, {"component": comp})

    def _wcc_seed(self, comp_old: np.ndarray, inserted, removed):
        """Affected-fragment invalidation for deletions.

        A warm label ``m = comp_old[x]`` stays valid exactly when ``m`` is
        still (weakly) reachable from ``x``: the new component is a subset
        of the old one, so its minimum is ``m`` iff ``m`` is inside it.
        For each genuinely-deleted edge the driver checks reachability of
        the label vertex from both endpoints; a side that lost its label
        vertex — the actual split fragment — resets to self-labels and
        reactivates, and min-label propagation recomputes just that
        fragment.  Deletions that do not disconnect (the common trickle
        case) reset nothing.  Inserted-edge endpoints reactivate so
        merges flood the smaller label across.
        """
        g = self.dg.graph
        n = g.num_nodes
        reset = np.zeros(n, dtype=bool)
        for (u, v) in removed:
            if self._edge_in_graph(g, u, v):
                continue  # multigraph copy survives — no split possible
            for x in (u, v):
                if reset[x]:
                    continue  # fragment already recomputing from scratch
                side = self._severed_side(g, x, int(comp_old[x]), reset)
                if side is not None:
                    reset[side] = True
        comp0 = comp_old.copy()
        idx = np.flatnonzero(reset)
        comp0[idx] = idx.astype(np.float64)
        active0 = reset.copy()
        for (u, v) in inserted:
            active0[u] = True
            active0[v] = True
        return comp0, active0

    @staticmethod
    def _severed_side(g: Graph, x: int, label: int, reset: np.ndarray):
        """Undirected BFS from ``x``: None when the label vertex is still
        reachable (warm labels on this side stay valid), else the list of
        vertices in x's new component — the fragment that lost its label.

        Entering an already-reset vertex also terminates the walk: that
        fragment is restarting from self-labels anyway, and x's fragment
        is connected to it, so they recompute together.
        """
        if x == label:
            return None
        seen = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for row in (g.out_nbrs[g.out_starts[y]:g.out_starts[y + 1]],
                        g.in_nbrs[g.in_starts[y]:g.in_starts[y + 1]]):
                for z in row:
                    z = int(z)
                    if z == label:
                        return None
                    if z not in seen:
                        if reset[z]:
                            return sorted(seen)
                        seen.add(z)
                        stack.append(z)
        return sorted(seen)

    # -- PageRank ------------------------------------------------------------

    def pagerank(self) -> IncrementalResult:
        """Delta-propagation PageRank to :data:`PR_THRESHOLD`.

        Full mode is ``pagerank_approx``'s cold start; incremental mode
        warm-starts it from the previous fixed point and seeds the
        frontier with the residual the structural change introduces.
        Both truncate at the same threshold.
        """
        warm, fellback, inserted, removed = self._plan("pagerank")
        start = None
        if warm is not None:
            delta0 = self._pr_residual(warm["pr"], warm["graph"],
                                       inserted, removed)
            start = (warm["pr"], delta0, np.abs(delta0) >= PR_THRESHOLD)
        run = pagerank_approx(self.cluster, self.dg, damping=PR_DAMPING,
                              threshold=PR_THRESHOLD,
                              max_iterations=PR_MAX_ITERATIONS,
                              start=start)
        pr = run.values["pr"]
        self._state["pagerank"] = {"epoch": self.epoch, "pr": pr,
                                   "graph": self.dg.graph}
        return self._finish("pagerank", warm, fellback, run, {"pr": pr})

    def _pr_residual(self, p_old: np.ndarray, g_old: Graph,
                     inserted, removed) -> np.ndarray:
        """The delta seed: ``d * (A_new^T - A_old^T) p_old`` plus the
        uniform dangling-mass shift, nonzero only around changed sources."""
        g_new = self.dg.graph
        n = g_new.num_nodes
        d = PR_DAMPING
        delta0 = np.zeros(n)
        sources = sorted({u for (u, _v) in inserted}
                         | {u for (u, _v) in removed})
        for u in sources:
            pu = float(p_old[u])
            if pu == 0.0:
                continue
            old_row = g_old.out_nbrs[g_old.out_starts[u]:
                                     g_old.out_starts[u + 1]]
            new_row = g_new.out_nbrs[g_new.out_starts[u]:
                                     g_new.out_starts[u + 1]]
            if len(old_row):
                np.add.at(delta0, old_row, -d * pu / len(old_row))
            if len(new_row):
                np.add.at(delta0, new_row, d * pu / len(new_row))
        dm_old = float(p_old[np.diff(g_old.out_starts) == 0].sum())
        dm_new = float(p_old[np.diff(g_new.out_starts) == 0].sum())
        delta0 += d * (dm_new - dm_old) / n
        return delta0
