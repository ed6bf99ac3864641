"""Shared scaffolding for the Table 2 algorithm suite.

Every algorithm is one *program*: a generator over a ``DistributedGraph``
that yields its jobs, is sent each job's ``JobStats`` (a reduction rides
the job that precedes it as its ``reduce``, and comes back as
``stats.reduced``), and returns an :class:`AlgorithmResult` (see
docs/programming_model.md, section 8).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..runtime.stats import JobStats


def program(fn):
    """Decorate a program ``fn(dg, ...)`` into the driver ``(cluster, dg,
    ...)`` that runs it inline; the generator function stays reachable as
    the driver's ``program`` attribute."""

    def run(cluster, dg, *args, **kwargs):
        return cluster.run(dg, fn(dg, *args, **kwargs))

    run.program = fn
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(run, attr, getattr(fn, attr))
    return run


@contextmanager
def scratch(dg):
    """Yield ``add(name, **kwargs)``, a ``dg.add_property`` whose columns
    are dropped when the block exits — also when a step raises or the
    program is closed mid-run, so a failed run leaves the graph clean."""
    added: list[str] = []

    def add(name: str, **kwargs) -> None:
        dg.add_property(name, **kwargs)
        added.append(name)

    try:
        yield add
    finally:
        for name in added:
            dg.drop_property(name)


@dataclass
class AlgorithmResult:
    """Outcome of one algorithm execution on the PGX.D engine.

    ``total_time`` / ``per_iteration`` are simulated seconds; ``values`` maps
    output property names to gathered global arrays.
    """

    name: str
    iterations: int
    total_time: float
    per_iteration: list[float] = field(default_factory=list)
    stats: JobStats = field(default_factory=JobStats)
    values: dict[str, np.ndarray] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def time_per_iteration(self) -> float:
        """Mean per-iteration time — what Table 3 reports for PR and EV."""
        return self.total_time / max(1, self.iterations)


class IterationTimer:
    """Tracks per-iteration simulated times and merged stats for a driver loop."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.start = cluster.now
        self.per_iteration: list[float] = []
        self.stats = JobStats(start_time=self.start)
        self._iter_start = self.start

    def iteration_done(self, *job_stats: JobStats) -> None:
        now = self.cluster.now
        self.per_iteration.append(now - self._iter_start)
        self._iter_start = now
        for s in job_stats:
            self.stats.merge_from(s)

    def finish(self) -> tuple[float, JobStats]:
        self.stats.end_time = self.cluster.now
        return self.cluster.now - self.start, self.stats
