"""CPU/thread model for one simulated machine.

Tracks how many software threads (workers + copiers + poller) are currently
executing.  When more threads are active than hardware threads exist, every
duration on that machine is stretched by the oversubscription factor — this
is what makes the worker/copier grid of Figure 7 fall off at the top right.

Durations are computed when an event *starts*, from a snapshot of the active
count; this is a standard coarse-grained approximation that keeps the event
count low while preserving contention trends.
"""

from __future__ import annotations

from .config import MachineConfig
from .memory import DramModel


class MachineCpu:
    """Thread accounting and work->time conversion for one machine."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.dram = DramModel(config)
        self.active_threads: int = 0

    # -- thread lifecycle ---------------------------------------------------

    def thread_started(self) -> None:
        self.active_threads += 1

    def thread_finished(self) -> None:
        if self.active_threads <= 0:  # pragma: no cover - defensive
            raise RuntimeError("thread_finished without matching thread_started")
        self.active_threads -= 1

    def reset_threads(self) -> None:
        """Forget in-flight thread accounting (crash recovery only).

        A machine crash abandons events mid-flight, so their balancing
        ``thread_finished`` calls never run; without this the restarted job
        would inherit phantom oversubscription.
        """
        self.active_threads = 0

    # -- cost helpers --------------------------------------------------------

    def oversubscription_factor(self) -> float:
        """How much slower each thread runs because of time-sharing."""
        return max(1.0, self.active_threads / self.config.hw_threads)

    def work_duration(self, cpu_ops: float = 0.0, dram_bytes: float = 0.0,
                      atomic_ops: float = 0.0, locality: float = 0.0) -> float:
        """Seconds one thread needs for a batch of work, under current load.

        ``cpu_ops`` are plain hot-loop operations, ``atomic_ops`` are
        read-modify-writes, ``dram_bytes`` are moved with the given access
        ``locality`` (0 = pure random, 1 = streaming).
        """
        cfg = self.config
        cpu_time = cpu_ops * cfg.cpu_op_time + atomic_ops * cfg.atomic_op_time
        mem_time = self.dram.access_time(dram_bytes, max(1, self.active_threads), locality)
        return (cpu_time + mem_time) * self.oversubscription_factor()

    def mixed_duration(self, cpu_ops: float, atomic_ops: float,
                       random_bytes: float, seq_bytes: float) -> float:
        """Duration for work mixing random gathers with streaming scans."""
        cfg = self.config
        n = max(1, self.active_threads)
        cpu_time = cpu_ops * cfg.cpu_op_time + atomic_ops * cfg.atomic_op_time
        mem_time = (self.dram.access_time(random_bytes, n, locality=0.0)
                    + self.dram.access_time(seq_bytes, n, locality=1.0))
        return (cpu_time + mem_time) * self.oversubscription_factor()
