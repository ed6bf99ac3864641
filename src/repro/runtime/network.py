"""Interconnect model: per-machine NICs, a poller server, and a switch.

Matches the communication architecture of Section 3.4: every message leaves
through its machine's single *poller* thread (a serial server), serializes
onto the NIC transmit port at link bandwidth plus a fixed per-message
overhead, crosses the switch with a small latency, serializes into the
destination's receive port, and is handed off by the destination poller.

The per-message overhead is what makes small buffers waste bandwidth — the
exact effect the paper sweeps in Figure 8(b) before settling on 256 KB
buffers.  Receive-port sharing is what creates incast pressure in N:N
patterns.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.hooks import HookBus
from .config import NetworkConfig
from .simulator import Simulator

if False:  # pragma: no cover - type-only import, avoids a runtime cycle
    from ..core.faults import FaultController


class _Port:
    """A serial resource timeline (one NIC direction, or the poller)."""

    __slots__ = ("next_free",)

    def __init__(self) -> None:
        self.next_free: float = 0.0

    def occupy(self, now: float, duration: float) -> float:
        """Reserve the port for ``duration`` starting no earlier than ``now``.
        Returns the completion time."""
        start = max(now, self.next_free)
        end = start + duration
        self.next_free = end
        return end


class Network:
    """The cluster fabric connecting ``num_machines`` simulated machines."""

    def __init__(self, sim: Simulator, num_machines: int, config: NetworkConfig,
                 hooks: Optional[HookBus] = None,
                 faults: "Optional[FaultController]" = None,
                 audit: bool = False):
        self.sim = sim
        self.num_machines = num_machines
        self.config = config
        #: instrumentation bus; the owning cluster passes its own so network
        #: events land on the same stream as the engine's.
        self.hooks = hooks if hooks is not None else HookBus()
        #: optional fault injector consulted per fabric message
        self.faults = faults
        #: when True, every send validates its port timelines (monotonic,
        #: causally ordered) and records violations for the audit checker
        self.audit = audit
        self.audit_violations: list[dict] = []
        self._tx = [_Port() for _ in range(num_machines)]
        self._rx = [_Port() for _ in range(num_machines)]
        # The poller is one thread, but its outbound service happens at send
        # time while inbound service happens at (future) arrival time; using
        # one reservation timeline would let future arrivals block present
        # sends.  Track the two directions on separate timelines.
        self._poller_out = [_Port() for _ in range(num_machines)]
        self._poller_in = [_Port() for _ in range(num_machines)]

    def send(self, src: int, dst: int, nbytes: float,
             callback: Callable, *args: Any, kind: str = "data",
             hooks: Optional[HookBus] = None) -> float:
        """Transmit a message; ``callback(*args)`` fires at delivery.

        Returns the simulated delivery time.  ``kind`` tags the bytes for the
        traffic breakdowns used by Figure 6(a); the ``net.send`` and
        ``net.drop`` events are the fabric's only account of its traffic.
        ``hooks`` overrides the bus they are emitted on — the scheduler
        passes a per-job scoped bus here so fabric traffic stays
        attributable when several executions share the network.
        """
        if not (0 <= src < self.num_machines and 0 <= dst < self.num_machines):
            raise ValueError(f"bad endpoints {src}->{dst}")
        bus = hooks if hooks is not None else self.hooks
        now = self.sim.now
        if src == dst:
            # Same-machine messages never touch the fabric (Section 3.3:
            # local requests are resolved immediately); a nominal handoff
            # keeps event ordering sane.
            deliver = now + 1e-9
            self.sim.schedule_at_fast(deliver, callback, *args)
            return deliver

        cfg = self.config
        action, extra_delay = ("deliver", 0.0)
        if self.faults is not None:
            action, extra_delay = self.faults.message_action(src, dst, kind)

        depart = self._poller_out[src].occupy(now, cfg.poller_per_message)
        tx_done = self._tx[src].occupy(
            depart, nbytes / cfg.link_bw + cfg.per_message_overhead)
        arrive = tx_done + cfg.link_latency + extra_delay
        if action == "drop":
            # The sender paid for the transmit; the fabric loses the message
            # before the receive side, so no rx/poller-in work happens and
            # the callback never fires.  ``deliver=None`` tells consumers the
            # message never lands.
            bus.emit("net.send", src=src, dst=dst, nbytes=nbytes,
                     kind=kind, time=now, deliver=None, dropped=True)
            bus.emit("net.drop", src=src, dst=dst, nbytes=nbytes,
                     kind=kind, time=now, lost_at=arrive)
            if self.audit:
                self._audit_times(src, dst, kind, now, depart, tx_done, arrive)
            return arrive
        rx_done = self._rx[dst].occupy(arrive, nbytes / cfg.link_bw)
        deliver = self._poller_in[dst].occupy(rx_done, cfg.poller_per_message)
        self.sim.schedule_at_fast(deliver, callback, *args)
        if action == "dup":
            # A fabric-level duplicate: the same payload surfaces a second
            # time after another receive pass (retransmit-ambiguity model);
            # ``fault.inject`` reports it.
            dup_rx = self._rx[dst].occupy(deliver + cfg.link_latency,
                                          nbytes / cfg.link_bw)
            dup_deliver = self._poller_in[dst].occupy(dup_rx,
                                                      cfg.poller_per_message)
            self.sim.schedule_at_fast(dup_deliver, callback, *args)
        bus.emit("net.send", src=src, dst=dst, nbytes=nbytes, kind=kind,
                 time=now, deliver=deliver)
        if self.audit:
            self._audit_times(src, dst, kind, now, depart, tx_done, arrive,
                              rx_done, deliver)
        return deliver

    def _audit_times(self, src: int, dst: int, kind: str, now: float,
                     depart: float, tx_done: float, arrive: float,
                     rx_done: Optional[float] = None,
                     deliver: Optional[float] = None) -> None:
        """Validate one message's port timeline: each stage must start no
        earlier than the previous one finished (ports are serial resources,
        so reservations can push stages later but never earlier)."""
        stages = [("send", now), ("depart", depart), ("tx_done", tx_done),
                  ("arrive", arrive)]
        if rx_done is not None:
            stages.append(("rx_done", rx_done))
        if deliver is not None:
            stages.append(("deliver", deliver))
        for (pname, pt), (qname, qt) in zip(stages, stages[1:]):
            if qt < pt - 1e-12:
                self.audit_violations.append({
                    "invariant": "network.port_timeline_monotonic",
                    "detail": f"{qname}={qt!r} precedes {pname}={pt!r}",
                    "src": src, "dst": dst, "kind": kind, "time": now,
                })

    # -- analytic helpers (used by calibration and Figure 8(b)) -------------

    def point_to_point_throughput(self, buffer_size: int) -> float:
        """Steady-state 1:1 throughput (bytes/s) for back-to-back messages of
        ``buffer_size`` bytes — the closed form behind Figure 8(b)."""
        cfg = self.config
        per_msg = buffer_size / cfg.link_bw + cfg.per_message_overhead
        per_msg = max(per_msg, cfg.poller_per_message)
        return buffer_size / per_msg
