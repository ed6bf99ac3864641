"""Interconnect model: per-machine NICs, a poller server, and a switch.

Matches the communication architecture of Section 3.4: every message leaves
through its machine's single *poller* thread (a serial server), waits in the
machine's send queue for the NIC transmit port, crosses the switch with a
small latency, serializes into the destination's receive port, and is handed
off by the destination poller.  Each of those four serial servers is one
:class:`~repro.runtime.simulator.SerialResource` per machine, claimed in call
order; the transmit port is also event-driven, because a frame forms only
when the port frees (``_port_free``).

The per-message overhead is what makes small buffers waste bandwidth — the
exact effect the paper sweeps in Figure 8(b) before settling on 256 KB
buffers.  So whenever the transmit port frees, the poller packs the oldest
waiting message together with every later one waiting for the same
destination, up to ``frame_bytes``, into one *frame*: a frame pays one
per-message overhead, one receive-port claim and one receive-poller handoff
(machine-level message combining, Yan et al.).  Receive-port sharing is
what creates incast pressure in N:N patterns.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .config import NetworkConfig
from .simulator import SerialResource, Simulator
from .stats import JobStats

if False:  # pragma: no cover - type-only import, avoids a runtime cycle
    from ..core.faults import FaultController


class _Queued:
    """One message waiting in its source's send queue."""

    __slots__ = ("dst", "nbytes", "depart", "action", "delay", "callback",
                 "args", "kind", "stats", "time", "taken")

    def __init__(self, dst: int, nbytes: float, depart: float, action: str,
                 delay: float, callback: Callable, args: tuple, kind: str,
                 stats: Optional[JobStats], time: float):
        self.dst = dst
        self.nbytes = nbytes
        #: when the sender's poller has cleared it
        self.depart = depart
        #: the fault injector's verdict ("deliver", "drop", "dup", "delay")
        self.action = action
        self.delay = delay
        self.callback = callback
        self.args = args
        self.kind = kind
        #: the sending job's account, which records the message
        self.stats = stats
        #: the enqueue time (the ``send`` of its ``JobStats.sends`` row)
        self.time = time
        #: already shipped in a frame formed for an older message
        self.taken = False


class Network:
    """The cluster fabric connecting ``num_machines`` simulated machines.

    ``frame_bytes`` caps a frame; ``None`` sends every message as its own
    frame (the raw-fabric benchmarks of Figure 8).
    """

    def __init__(self, sim: Simulator, num_machines: int, config: NetworkConfig,
                 faults: "Optional[FaultController]" = None,
                 audit: bool = False, frame_bytes: Optional[float] = None):
        self.sim = sim
        self.num_machines = num_machines
        self.config = config
        #: optional fault injector consulted per fabric message
        self.faults = faults
        #: when True, every frame validates its messages' port timelines
        #: (monotonic, causally ordered) and records violations for the
        #: audit checker
        self.audit = audit
        self.audit_violations: list[dict] = []
        self.frame_bytes = frame_bytes
        n = num_machines
        # The poller is one thread, but its outbound service happens at send
        # time while inbound service happens at (future) arrival time; using
        # one timeline would let future arrivals block present sends.  Track
        # the two directions separately.
        self._send_poller = [SerialResource() for _ in range(n)]
        self._tx = [SerialResource() for _ in range(n)]
        self._rx = [SerialResource() for _ in range(n)]
        self._recv_poller = [SerialResource() for _ in range(n)]
        #: per source: waiting messages, oldest first (shipped ones are
        #: marked ``taken`` and skipped), and the same messages per dst
        self._queue = [deque() for _ in range(n)]
        self._waiting = [[deque() for _ in range(n)] for _ in range(n)]
        #: per source: whether the event marking its transmit port's next
        #: free instant is pending
        self._tx_busy = [False] * n

    def send(self, src: int, dst: int, nbytes: float,
             callback: Callable, *args: Any, kind: str = "data",
             stats: Optional[JobStats] = None) -> None:
        """Transmit a message; ``callback(*args)`` fires at delivery.

        ``kind`` tags the bytes for the traffic breakdowns used by Figure
        6(a).  The fabric keeps no counters of its own: when the message's
        frame forms, it appends one row to the sending job's
        ``stats.sends`` (``send`` = this call's instant), so fabric traffic
        stays attributable when several executions share the network.
        """
        if not (0 <= src < self.num_machines and 0 <= dst < self.num_machines):
            raise ValueError(f"bad endpoints {src}->{dst}")
        now = self.sim.now
        if src == dst:
            # Same-machine messages never touch the fabric (Section 3.3:
            # local requests are resolved immediately); a nominal handoff
            # keeps event ordering sane.
            self.sim.schedule_at(now + 1e-9, callback, *args)
            return
        action, delay = ("deliver", 0.0)
        if self.faults is not None:
            action, delay = self.faults.message_action(src, dst, kind)
        depart = self._send_poller[src].claim(now,
                                              self.config.poller_per_message)
        msg = _Queued(dst, nbytes, depart, action, delay, callback, args,
                      kind, stats, now)
        self._queue[src].append(msg)
        self._waiting[src][dst].append(msg)
        if not self._tx_busy[src]:
            self._send_frame(src)

    def reset(self) -> None:
        """Forget every waiting message and free every port and poller
        (crash recovery: the events that would free the transmit ports and
        deliver the claimed frames were cleared with the rest)."""
        for src in range(self.num_machines):
            self._queue[src].clear()
            for waiting in self._waiting[src]:
                waiting.clear()
            self._tx_busy[src] = False
            for servers in (self._send_poller, self._tx, self._rx,
                            self._recv_poller):
                servers[src].reset()

    def _port_free(self, src: int) -> None:
        """``src``'s transmit port finished a frame: send the next one."""
        self._tx_busy[src] = False
        queue = self._queue[src]
        while queue and queue[0].taken:
            queue.popleft()
        if queue:
            self._send_frame(src)

    def _send_frame(self, src: int) -> None:
        """Ship the oldest waiting message and every later one waiting for
        the same destination, in queue order, while they fit
        ``frame_bytes``.  The frame starts when the port is free and its
        last message has cleared the poller."""
        head = self._queue[src].popleft()
        dst = head.dst
        waiting = self._waiting[src][dst]
        frame = [waiting.popleft()]
        nbytes = head.nbytes
        cap = self.frame_bytes
        if cap is not None:
            while waiting and nbytes + waiting[0].nbytes <= cap:
                msg = waiting.popleft()
                msg.taken = True
                frame.append(msg)
                nbytes += msg.nbytes
        cfg, sim = self.config, self.sim
        tx_done = self._tx[src].claim(
            frame[-1].depart, nbytes / cfg.link_bw + cfg.per_message_overhead)
        self._tx_busy[src] = True
        sim.schedule_at(tx_done, self._port_free, src)
        arrive = tx_done + cfg.link_latency
        rx, recv_poller = self._rx[dst], self._recv_poller[dst]
        # One receive pass for the frame's on-time messages; a delayed
        # message takes its own pass when it arrives, a dropped one none.
        landed = [m for m in frame if not m.delay and m.action != "drop"]
        rx_done = deliver = None
        if landed:
            rx_done = rx.claim(
                arrive, sum(m.nbytes for m in landed) / cfg.link_bw)
            deliver = recv_poller.claim(rx_done, cfg.poller_per_message)
            sim.schedule_at(deliver, self._deliver, landed)
        seq = sim.current
        for m in frame:
            if m.action == "drop":
                # The sender paid for the transmit; the fabric loses the
                # message before the receive side, so the callback never
                # fires.  ``deliver=None`` tells consumers it never lands.
                if m.stats is not None:
                    m.stats.sends.append((seq, src, dst, m.kind, m.nbytes,
                                          m.time, None))
                if self.audit:
                    self._audit_times(src, dst, m, tx_done, arrive)
                continue
            m_arrive, m_rx_done, m_deliver = arrive, rx_done, deliver
            if m.delay:
                m_arrive = arrive + m.delay
                m_rx_done = rx.claim(m_arrive, m.nbytes / cfg.link_bw)
                m_deliver = recv_poller.claim(m_rx_done,
                                              cfg.poller_per_message)
                sim.schedule_at(m_deliver, m.callback, *m.args)
            if m.action == "dup":
                # A fabric-level duplicate: the same payload surfaces a
                # second time after another receive pass (retransmit-
                # ambiguity model); ``fault.inject`` reports it.
                dup_rx = rx.claim(m_deliver + cfg.link_latency,
                                  m.nbytes / cfg.link_bw)
                sim.schedule_at(
                    recv_poller.claim(dup_rx, cfg.poller_per_message),
                    m.callback, *m.args)
            if m.stats is not None:
                m.stats.sends.append((seq, src, dst, m.kind, m.nbytes,
                                      m.time, m_deliver))
            if self.audit:
                self._audit_times(src, dst, m, tx_done, m_arrive, m_rx_done,
                                  m_deliver)

    @staticmethod
    def _deliver(frame: list) -> None:
        """Hand a frame's messages to their callbacks, in queue order."""
        for m in frame:
            m.callback(*m.args)

    def _audit_times(self, src: int, dst: int, m: _Queued, tx_done: float,
                     arrive: float, rx_done: Optional[float] = None,
                     deliver: Optional[float] = None) -> None:
        """Validate one message's port timeline: each stage must start no
        earlier than the previous one finished (ports are serial resources,
        so reservations can push stages later but never earlier)."""
        stages = [("send", m.time), ("depart", m.depart),
                  ("tx_done", tx_done), ("arrive", arrive)]
        if rx_done is not None:
            stages.append(("rx_done", rx_done))
        if deliver is not None:
            stages.append(("deliver", deliver))
        for (pname, pt), (qname, qt) in zip(stages, stages[1:]):
            if qt < pt - 1e-12:
                self.audit_violations.append({
                    "invariant": "network.port_timeline_monotonic",
                    "detail": f"{qname}={qt!r} precedes {pname}={pt!r}",
                    "src": src, "dst": dst, "kind": m.kind, "time": m.time,
                })

    # -- analytic helpers (used by calibration and Figure 8(b)) -------------

    def point_to_point_throughput(self, buffer_size: int) -> float:
        """Steady-state 1:1 throughput (bytes/s) for back-to-back messages of
        ``buffer_size`` bytes — the closed form behind Figure 8(b)."""
        cfg = self.config
        per_msg = buffer_size / cfg.link_bw + cfg.per_message_overhead
        per_msg = max(per_msg, cfg.poller_per_message)
        return buffer_size / per_msg
