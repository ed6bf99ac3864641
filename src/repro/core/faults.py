"""Deterministic fault injection and the defenses that absorb it.

The paper's Communication Manager (Section 3.4) is engineered so that flow
control *avoids* failure; this module lets us prove the reproduction also
*survives* failure.  A :class:`FaultPlan` attached to
:class:`~repro.runtime.config.EngineConfig` injects, deterministically from a
seed, four classes of trouble:

* **message faults** — drops, duplications and delays at the
  :meth:`~repro.runtime.network.Network.send` boundary;
* **copier stalls** — a copier pauses before servicing a request;
* **machine slowdowns** — all work on one machine stretches by a factor
  inside a simulated-time window;
* **machine crashes** — a whole machine dies at a chosen simulated time
  (recovered via checkpoints, see ``docs/robustness.md``).

The matching defenses live in :class:`ReliabilityLayer` (per
:class:`~repro.core.jobrunner.JobExecution`): reliable request kinds are
tracked by ``request_id`` and resent on a capped exponential-backoff timer,
receivers deduplicate non-idempotent WRITE_REQ/GHOST_SYNC deliveries so a
duplicated or retried message applies exactly once, and stale read responses
are discarded at the issuing worker.  Read requests themselves are never
deduplicated — re-serving a read is idempotent, and re-serving is exactly
what recovers a dropped READ_RESP.

Everything is pay-for-play: with no plan configured, ``cluster.faults`` and
``exc.reliability`` are ``None`` and every hot-path check is a single
``is None`` test, so simulated times and metrics are bit-identical to an
engine built without this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..runtime.config import ConfigError
from ..runtime.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.hooks import HookBus
    from .messages import Message

#: Message kinds the fabric-level faults may target.
FAULTABLE_KINDS = ("read_req", "read_resp", "write_req", "ghost_sync")


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class FaultError(RuntimeError):
    """Base class for failures raised by the fault/recovery subsystem."""


class EngineStallError(RuntimeError):
    """The event queue drained before the job completed.

    Replaces the engine's historical bare ``RuntimeError``: carries the
    phase, outstanding counters and per-worker parked/in-flight state so a
    stall can actually be diagnosed.  ``diagnostics`` is the dict returned
    by :meth:`~repro.core.jobrunner.JobExecution.stall_diagnostics`.
    """

    def __init__(self, job_name: str, diagnostics: dict):
        self.job_name = job_name
        self.diagnostics = diagnostics
        stuck = [w for w in diagnostics.get("workers", [])
                 if w["outstanding_reads"] or w["parked"]]
        super().__init__(
            f"simulation deadlock in job {job_name!r} "
            f"(phase={diagnostics.get('phase')}, "
            f"workers_remaining={diagnostics.get('workers_remaining')}, "
            f"write_outstanding={diagnostics.get('write_outstanding')}, "
            f"sync_outstanding={diagnostics.get('sync_outstanding')}, "
            f"rmi_outstanding={diagnostics.get('rmi_outstanding')}, "
            f"stuck_workers={len(stuck)})")


class MachineCrashError(FaultError):
    """A planned whole-machine crash fired (recoverable via checkpoints)."""

    def __init__(self, machine: int, time: float):
        self.machine = machine
        self.time = time
        super().__init__(f"machine {machine} crashed at t={time:.6f}s")


class RetryExhaustedError(FaultError):
    """A reliable message exceeded ``FaultPlan.max_attempts`` resends."""

    def __init__(self, kind: str, request_id: int, src: int, dst: int,
                 attempts: int):
        self.kind = kind
        self.request_id = request_id
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(
            f"{kind} request {request_id} ({src}->{dst}) gave up after "
            f"{attempts} attempts")


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineSlowdown:
    """All work on ``machine`` runs ``factor``x slower inside the window."""

    machine: int
    start: float
    duration: float
    factor: float

    def __post_init__(self):
        if not self.duration >= 0.0:
            raise ConfigError(
                f"MachineSlowdown.duration must be >= 0, got {self.duration!r}")
        if not self.factor > 0.0:
            raise ConfigError(
                f"MachineSlowdown.factor must be > 0, got {self.factor!r}")


@dataclass(frozen=True)
class MachineCrash:
    """Machine ``machine`` dies at simulated time ``at`` (whole-job abort)."""

    machine: int
    at: float


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule plus the retry/backoff knobs.

    Probabilities are per fabric message (same-machine handoffs are never
    faulted — they model a function call, not a wire).  One ``random.Random``
    seeded with ``seed`` drives every decision, so a given plan on a given
    workload injects an identical fault sequence every run.
    """

    seed: int = 0
    #: per-message probability the fabric silently drops it
    drop_prob: float = 0.0
    #: per-message probability the fabric delivers it twice
    dup_prob: float = 0.0
    #: per-message probability of an extra in-flight delay
    delay_prob: float = 0.0
    #: size of the injected delay, seconds
    delay_seconds: float = 2e-3
    #: per-request probability a copier stalls before servicing it
    copier_stall_prob: float = 0.0
    #: size of the copier stall, seconds
    copier_stall_seconds: float = 100e-6
    #: whole-machine slowdown windows
    slowdowns: tuple[MachineSlowdown, ...] = ()
    #: whole-machine crash points
    crashes: tuple[MachineCrash, ...] = ()
    #: message kinds eligible for drop/dup/delay
    kinds: tuple[str, ...] = FAULTABLE_KINDS
    #: initial reliable-message timeout, seconds (round trip for reads)
    retry_timeout: float = 1e-3
    #: multiplicative backoff applied after every expiry
    retry_backoff: float = 2.0
    #: ceiling on the per-attempt timeout, seconds
    retry_timeout_cap: float = 16e-3
    #: resend attempts before :class:`RetryExhaustedError`
    max_attempts: int = 10
    #: simulated pause before a crashed job restarts from its checkpoint
    restart_delay: float = 100e-6

    def __post_init__(self):
        for name in ("drop_prob", "dup_prob", "delay_prob",
                     "copier_stall_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p!r}")
        if self.drop_prob + self.dup_prob + self.delay_prob > 1.0:
            raise ConfigError("drop_prob + dup_prob + delay_prob exceeds 1")
        bad = set(self.kinds) - set(FAULTABLE_KINDS)
        if bad:
            raise ConfigError(
                f"unknown faultable kinds {sorted(bad)}; "
                f"choose from {FAULTABLE_KINDS}")
        # The simulator cannot schedule into the past, and a zero timeout
        # would expire every reliable request before its ack could land.
        for name in ("delay_seconds", "copier_stall_seconds",
                     "restart_delay"):
            v = getattr(self, name)
            if not v >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        for name in ("retry_timeout", "retry_timeout_cap"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ConfigError(f"{name} must be > 0, got {v!r}")
        if self.retry_backoff < 1.0:
            raise ConfigError("retry_backoff must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")

    @property
    def injects_message_faults(self) -> bool:
        return (self.drop_prob + self.dup_prob + self.delay_prob) > 0.0


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class FaultController:
    """Cluster-scoped fault decisions, deterministic from ``plan.seed``.

    One controller per :class:`~repro.core.engine.PgxdCluster`; the network,
    copiers and workers consult it at their respective boundaries.  Every
    injected fault emits a ``fault.inject`` hook event (the recorder turns
    those into ``repro_faults_injected_total``).
    """

    def __init__(self, plan: FaultPlan, sim: Simulator, hooks: "HookBus"):
        self.plan = plan
        self.sim = sim
        self.hooks = hooks
        self._rng = random.Random(plan.seed)
        self._fired_crashes: set[int] = set()
        self._seen_slowdowns: set[int] = set()

    def _emit(self, fault: str, **detail) -> None:
        self.hooks.emit("fault.inject", fault=fault, time=self.sim.now,
                        **detail)

    # -- message boundary ---------------------------------------------------

    def message_action(self, src: int, dst: int,
                       kind: str) -> tuple[str, float]:
        """Decide the fate of one fabric message.

        Returns ``(action, extra_delay)`` where action is one of
        ``"deliver"``, ``"drop"``, ``"dup"`` or ``"delay"``.  Draws exactly
        one random number per eligible message so the fault sequence is
        insensitive to which fault classes are enabled.
        """
        plan = self.plan
        if kind not in plan.kinds or not plan.injects_message_faults:
            return "deliver", 0.0
        r = self._rng.random()
        if r < plan.drop_prob:
            self._emit("drop", src=src, dst=dst, kind=kind)
            return "drop", 0.0
        r -= plan.drop_prob
        if r < plan.dup_prob:
            self._emit("dup", src=src, dst=dst, kind=kind)
            return "dup", 0.0
        r -= plan.dup_prob
        if r < plan.delay_prob:
            self._emit("delay", src=src, dst=dst, kind=kind,
                       seconds=plan.delay_seconds)
            return "delay", plan.delay_seconds
        return "deliver", 0.0

    # -- copier boundary ----------------------------------------------------

    def copier_stall(self, machine: int) -> float:
        """Extra seconds this copier service call stalls (usually 0)."""
        plan = self.plan
        if plan.copier_stall_prob <= 0.0:
            return 0.0
        if self._rng.random() < plan.copier_stall_prob:
            self._emit("copier_stall", machine=machine,
                       seconds=plan.copier_stall_seconds)
            return plan.copier_stall_seconds
        return 0.0

    # -- machine-wide faults ------------------------------------------------

    def work_scale(self, machine: int, now: float) -> float:
        """Duration multiplier for work starting on ``machine`` at ``now``."""
        factor = 1.0
        for i, sd in enumerate(self.plan.slowdowns):
            if sd.machine != machine:
                continue
            if sd.start <= now < sd.start + sd.duration:
                if i not in self._seen_slowdowns:
                    self._seen_slowdowns.add(i)
                    self._emit("slowdown", machine=machine, factor=sd.factor,
                               duration=sd.duration)
                factor *= sd.factor
        return factor

    def arm_crashes(self) -> list:
        """Schedule pending crash events; returns them for cancellation.

        A crash point whose time passed while no job was running (driver
        compute, barriers) fires at the start of the next job — the machine
        died while idle and is discovered dead when next used.  Each crash
        fires at most once across the cluster's lifetime, so a recovered
        job does not immediately re-crash on the same plan entry.
        """
        events = []
        for i, crash in enumerate(self.plan.crashes):
            if i in self._fired_crashes:
                continue
            at = max(crash.at, self.sim.now)
            events.append(self.sim.timer_at(at, self._crash_fire, i, crash))
        return events

    def _crash_fire(self, index: int, crash: MachineCrash) -> None:
        self._fired_crashes.add(index)
        self._emit("crash", machine=crash.machine)
        raise MachineCrashError(crash.machine, self.sim.now)


# ---------------------------------------------------------------------------
# The defense
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    """One reliable message awaiting its acknowledgement."""

    msg: "Message"
    kind: str
    attempts: int = 1
    timeout: float = 0.0
    event: Optional[object] = field(default=None, repr=False)


class ReliabilityLayer:
    """Per-job at-least-once delivery with exactly-once application.

    Senders track READ_REQ (acknowledged implicitly by the READ_RESP),
    WRITE_REQ and GHOST_SYNC (acknowledged when the destination copier
    finishes applying them) on capped exponential-backoff timers.  Timers
    are cancelable simulator events, so in a fault-free run they are armed,
    cancelled and never advance the clock.  Receivers consult
    :meth:`first_delivery` before enqueueing non-idempotent kinds.
    """

    #: request kinds carried reliably (READ_RESP is covered by the read's
    #: round-trip timer; RMIs stay on the raw fabric)
    TRACKED = ("read_req", "write_req", "ghost_sync")

    def __init__(self, exc, plan: FaultPlan):
        self.exc = exc
        self.plan = plan
        self._pending: dict[int, _Pending] = {}
        #: request ids of WRITE_REQ/GHOST_SYNC already accepted at receivers
        self._delivered: set[int] = set()

    # -- sender side --------------------------------------------------------

    def track(self, msg: "Message", kind: str) -> None:
        """Arm the retry timer for one outgoing reliable request."""
        if kind not in self.TRACKED:
            return
        rec = _Pending(msg=msg, kind=kind, timeout=self.plan.retry_timeout)
        rec.event = self.exc.sim.timer_at(self.exc.sim.now + rec.timeout,
                                          self._expire, msg.request_id)
        self._pending[msg.request_id] = rec

    def ack(self, request_id: int) -> None:
        """The request is known applied (or answered); stop resending."""
        rec = self._pending.pop(request_id, None)
        if rec is not None and rec.event is not None:
            self.exc.sim.cancel(rec.event)

    def _expire(self, request_id: int) -> None:
        rec = self._pending.get(request_id)
        if rec is None:  # pragma: no cover - ack raced the timer pop
            return
        if rec.attempts >= self.plan.max_attempts:
            self._pending.pop(request_id, None)
            raise RetryExhaustedError(rec.kind, request_id, rec.msg.src,
                                      rec.msg.dst, rec.attempts)
        rec.attempts += 1
        rec.timeout = min(rec.timeout * self.plan.retry_backoff,
                          self.plan.retry_timeout_cap)
        stats, sim = self.exc.stats, self.exc.sim
        stats.spans.append((sim.current, rec.msg.src, rec.attempts,
                            "retry:" + rec.kind, sim.now, 0.0))
        stats.count("retries", rec.kind)
        self.exc.resend_request(rec.msg, rec.kind)
        rec.event = sim.timer_at(sim.now + rec.timeout, self._expire,
                                 request_id)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- receiver side ------------------------------------------------------

    def first_delivery(self, request_id: int) -> bool:
        """Exactly-once filter for non-idempotent request kinds."""
        if request_id in self._delivered:
            return False
        self._delivered.add(request_id)
        return True
