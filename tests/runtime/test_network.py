"""Network fabric model: serialization, overheads, incast, accounting,
frames."""

import random

import pytest

from repro.runtime.config import NetworkConfig
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.stats import JobStats


def make_net(n=4, frame_bytes=None, **kwargs):
    sim = Simulator()
    return sim, Network(sim, n, NetworkConfig(**kwargs),
                        frame_bytes=frame_bytes)


def deliver_times(sim, net, sends):
    """Issue ``(src, dst, nbytes)`` sends at the current instant, run the
    simulator, and return each message's delivery time in send order."""
    times = [None] * len(sends)

    def landed(i):
        times[i] = sim.now

    for i, (src, dst, nbytes) in enumerate(sends):
        net.send(src, dst, nbytes, landed, i)
    sim.run()
    return times


class TestDelivery:
    def test_message_is_delivered(self):
        sim, net = make_net()
        got = []
        net.send(0, 1, 1024, got.append, "msg")
        sim.run()
        assert got == ["msg"]

    def test_delivery_time_includes_serialization_and_latency(self):
        sim, net = make_net()
        cfg = net.config
        (t,) = deliver_times(sim, net, [(0, 1, 256 * 1024)])
        expected_min = (2 * 256 * 1024 / cfg.link_bw + cfg.per_message_overhead
                        + cfg.link_latency)
        assert t >= expected_min

    def test_local_send_is_near_instant(self):
        sim, net = make_net()
        (t,) = deliver_times(sim, net, [(2, 2, 10_000_000)])
        assert t < 1e-6

    def test_bad_endpoints_rejected(self):
        _, net = make_net(2)
        with pytest.raises(ValueError):
            net.send(0, 5, 100, lambda: None)

    def test_back_to_back_messages_serialize_on_tx(self):
        sim, net = make_net()
        t1, t2 = deliver_times(sim, net, [(0, 1, 100_000), (0, 1, 100_000)])
        assert t2 > t1

    def test_different_sources_do_not_serialize_on_tx(self):
        """Two senders to two distinct receivers overlap fully."""
        sim, net = make_net()
        (t1,) = deliver_times(sim, net, [(0, 1, 1_000_000)])
        sim2, net2 = make_net()
        _, t2 = deliver_times(sim2, net2, [(0, 1, 1_000_000),
                                           (2, 3, 1_000_000)])
        assert t2 == pytest.approx(t1, rel=1e-9)

    def test_incast_serializes_on_rx(self):
        """N senders to one receiver: deliveries spread out."""
        sim, net = make_net(8)
        times = []
        for src in range(1, 8):
            net.send(src, 0, 1_000_000, lambda: None)
            times.append(net._rx[0].next_free)
        assert times == sorted(times)
        span = times[-1] - times[0]
        assert span >= 5 * 1_000_000 / net.config.link_bw

    def test_outbound_send_not_blocked_by_future_inbound(self):
        """Regression: inbound deliveries reserve the poller at future times;
        they must not delay a present-time outbound send."""
        sim, net = make_net()
        # Queue lots of inbound traffic to machine 1 (reserves far future),
        # then machine 1 sends something now: it departs almost immediately.
        times = deliver_times(sim, net, [(0, 1, 1_000_000)] * 50
                              + [(1, 2, 1024)])
        assert times[-1] < 50 * 1_000_000 / net.config.link_bw

    def test_callback_args_passed(self):
        sim, net = make_net()
        got = []
        net.send(0, 1, 10, lambda a, b: got.append((a, b)), 1, 2)
        sim.run()
        assert got == [(1, 2)]


class TestThroughputModel:
    def test_small_buffers_waste_bandwidth(self):
        _, net = make_net()
        assert (net.point_to_point_throughput(4096)
                < 0.5 * net.point_to_point_throughput(256 * 1024))

    def test_throughput_monotone_in_buffer_size(self):
        _, net = make_net()
        sizes = [1 << k for k in range(8, 22)]
        rates = [net.point_to_point_throughput(s) for s in sizes]
        assert rates == sorted(rates)

    def test_throughput_approaches_link_bw(self):
        _, net = make_net()
        assert net.point_to_point_throughput(16 << 20) > 0.95 * net.config.link_bw

    def test_paper_anchor_4kb_1_5_gbs(self):
        """Figure 8(b): 4 KB buffers attain ~1.5 GB/s."""
        _, net = make_net()
        assert net.point_to_point_throughput(4096) == pytest.approx(1.5e9, rel=0.05)


#: the fields of a ``JobStats.sends`` row
SEND_FIELDS = ("seq", "src", "dst", "kind", "nbytes", "send", "deliver")


def capture(net):
    """Account every later send in one ``JobStats``, as a job's sends are
    (the fabric's only traffic account); the live list of its rows, each
    as a field dict once read through :func:`sent`."""
    stats = JobStats()
    send = net.send
    net.send = lambda *args, **kw: send(*args, stats=stats, **kw)
    return stats.sends


def sent(rows):
    return [dict(zip(SEND_FIELDS, row)) for row in rows]


def arrivals(sim, got):
    """A delivery callback recording the simulated time it fires at."""
    return lambda *args: got.append((sim.now, args))


def bytes_by(events, field):
    out = {}
    for p in events:
        out[p[field]] = out.get(p[field], 0) + p["nbytes"]
    return out


class TestAccounting:
    def test_bytes_counted_per_source(self):
        sim, net = make_net()
        ev = capture(net)
        net.send(0, 1, 100, lambda: None)
        net.send(0, 2, 200, lambda: None)
        net.send(1, 2, 300, lambda: None)
        sim.run()
        assert bytes_by(sent(ev), "src") == {0: 300, 1: 300}

    def test_bytes_by_kind(self):
        sim, net = make_net()
        ev = capture(net)
        net.send(0, 1, 100, lambda: None, kind="read_req")
        net.send(0, 1, 50, lambda: None, kind="ghost_sync")
        sim.run()
        assert bytes_by(sent(ev), "kind") == {"read_req": 100,
                                              "ghost_sync": 50}

    def test_local_messages_not_counted(self):
        sim, net = make_net()
        ev = capture(net)
        got = []
        net.send(1, 1, 999, got.append, "m")
        sim.run()
        assert got == ["m"] and ev == []

    def test_reset_stats(self):
        """A measurement window is a ``JobStats``: traffic sent on another
        account, or on none, is not counted in it."""
        sim, net = make_net()
        mine, other = JobStats(), JobStats()
        net.send(0, 1, 100, lambda: None, stats=mine)
        net.send(0, 1, 200, lambda: None, stats=other)
        net.send(0, 1, 400, lambda: None)
        sim.run()
        assert [row[4] for row in mine.sends] == [100]
        assert [row[4] for row in other.sends] == [200]

    def test_busy_fractions_reported(self):
        """Every port a message occupies shows in its delivery time: the
        poller out, the tx port, the wire, the rx port, the poller in."""
        sim, net = make_net()
        cfg = net.config
        ev = capture(net)
        got = []
        nbytes = 1_000_000
        net.send(0, 1, nbytes, arrivals(sim, got))
        sim.run()
        expected = (2 * cfg.poller_per_message + 2 * nbytes / cfg.link_bw
                    + cfg.per_message_overhead + cfg.link_latency)
        (send,) = sent(ev)
        assert send["deliver"] == pytest.approx(expected, rel=1e-12)
        assert got == [(send["deliver"], ())]


class _ForcedFaults:
    """Stub FaultController forcing one fabric action for every message."""

    def __init__(self, action, extra_delay=0.0):
        self.action = action
        self.extra_delay = extra_delay

    def message_action(self, src, dst, kind):
        return self.action, self.extra_delay


def make_faulty_net(action, n=4, audit=False):
    sim = Simulator()
    net = Network(sim, n, NetworkConfig(), faults=_ForcedFaults(action),
                  audit=audit)
    return sim, net


class TestFaultObservability:
    def test_drop_emits_drop_not_deliver(self):
        sim, net = make_faulty_net("drop")
        ev = capture(net)
        got = []
        net.send(0, 1, 512, got.append, "m", kind="write_req")
        sim.run()
        assert got == []  # the callback must never fire for a lost message
        (drop,) = sent(ev)
        assert drop["deliver"] is None
        assert drop["kind"] == "write_req" and drop["nbytes"] == 512

    def test_drop_counts_bytes_dropped(self):
        sim, net = make_faulty_net("drop")
        ev = capture(net)
        net.send(0, 1, 512, lambda: None, kind="write_req")
        net.send(0, 2, 256, lambda: None, kind="read_req")
        sim.run()
        assert sum(p["nbytes"] for p in sent(ev)) == 768
        assert len(ev) == 2
        assert all(p["deliver"] is None for p in sent(ev))

    def test_dup_emits_two_delivers(self):
        sim, net = make_faulty_net("dup")
        ev = capture(net)
        got = []
        net.send(0, 1, 512, arrivals(sim, got), "m", kind="ghost_sync")
        sim.run()
        # The duplicate really lands twice; the send is counted once, at
        # the original's delivery time.
        assert [args for _, args in got] == [("m",), ("m",)]
        (send,) = sent(ev)
        assert got[0][0] == send["deliver"]
        assert got[1][0] > got[0][0]

    def test_clean_deliver_single_event(self):
        sim, net = make_faulty_net("deliver")
        ev = capture(net)
        got = []
        net.send(0, 1, 512, arrivals(sim, got))
        sim.run()
        (send,) = sent(ev)
        assert send["deliver"] is not None
        assert got == [(send["deliver"], ())]

    def test_audit_timelines_clean_on_normal_traffic(self):
        sim, net = make_faulty_net("deliver", audit=True)
        for i in range(8):
            net.send(i % 3, 3, 4096, lambda: None)
        sim.run()
        assert net.audit_violations == []

    def test_audit_timelines_clean_on_drops_and_dups(self):
        for action in ("drop", "dup"):
            sim, net = make_faulty_net(action, audit=True)
            for i in range(8):
                net.send(i % 3, 3, 4096, lambda: None)
            sim.run()
            assert net.audit_violations == []


class _ScriptedFaults:
    """Stub FaultController handing out one scripted action per message."""

    def __init__(self, *actions):
        self.actions = list(actions)

    def message_action(self, src, dst, kind):
        return self.actions.pop(0)


#: round numbers, so every closed form below is exact in binary
_CFG = dict(link_bw=2.0 ** 30, per_message_overhead=2.0 ** -18,
            link_latency=2.0 ** -19, poller_per_message=2.0 ** -21)


def reservation_times(sends, cfg):
    """Delivery times under per-message port reservations: every message
    claims the poller, the transmit port, the receive port and the receive
    poller on its own, at send time (the fabric before frames)."""
    poller_out, tx, rx, poller_in = {}, {}, {}, {}
    times = []
    for src, dst, nbytes in sends:
        depart = poller_out[src] = (poller_out.get(src, 0.0)
                                    + cfg.poller_per_message)
        tx_done = tx[src] = (max(depart, tx.get(src, 0.0))
                             + (nbytes / cfg.link_bw
                                + cfg.per_message_overhead))
        arrive = tx_done + cfg.link_latency
        rx_done = rx[dst] = (max(arrive, rx.get(dst, 0.0))
                             + nbytes / cfg.link_bw)
        poller_in[dst] = (max(rx_done, poller_in.get(dst, 0.0))
                          + cfg.poller_per_message)
        times.append(poller_in[dst])
    return times


class TestFrames:
    """The poller packs messages waiting for one destination into a frame:
    one per-message overhead, one receive claim, one poller handoff."""

    def test_partials_to_one_destination_arrive_together(self):
        sim, net = make_net(frame_bytes=64 * 1024, **_CFG)
        cfg = net.config
        blocker, sizes = 32 * 1024, [1024, 3072, 2048, 4096]
        times = deliver_times(sim, net, [(0, 2, blocker)]
                              + [(0, 1, s) for s in sizes])
        p, o, bw = cfg.poller_per_message, cfg.per_message_overhead, cfg.link_bw
        port_free = p + (blocker / bw + o)
        start = max(port_free, (1 + len(sizes)) * p)
        total = sum(sizes)
        deliver = (start + (total / bw + o) + cfg.link_latency
                   + total / bw + p)
        assert times[1:] == [deliver] * len(sizes)

    def test_frame_delivers_in_queue_order(self):
        sim, net = make_net(frame_bytes=64 * 1024, **_CFG)
        got = []
        for i in range(5):
            net.send(0, 1 + (i == 0), 100, got.append, i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_full_messages_travel_alone_on_todays_timeline(self):
        cap = 16 * 1024
        sends = [(0, 1, cap)] * 6 + [(2, 3, cap), (3, 2, cap)] * 3
        sim, net = make_net(frame_bytes=cap, **_CFG)
        times = deliver_times(sim, net, sends)
        assert times == reservation_times(sends, net.config)
        sim2, unframed = make_net(**_CFG)
        assert deliver_times(sim2, unframed, sends) == times
        gap = times[5] - times[4]
        assert cap / gap == pytest.approx(
            net.point_to_point_throughput(cap), rel=1e-12)

    def test_singletons_without_a_cap_keep_todays_timeline(self):
        """A rotated N:N flood, as Figure 8(b) sends it."""
        sends = [(src, (src + k) % 4, 1000 * (k + 1))
                 for k in range(1, 4) for src in range(4)] * 5
        sim, net = make_net(**_CFG)
        assert deliver_times(sim, net, sends) == reservation_times(
            sends, net.config)

    def test_frame_never_exceeds_its_cap(self):
        rng = random.Random(5)
        cap = 8192
        sim, net = make_net(frame_bytes=cap, **_CFG)
        ev = capture(net)
        for _ in range(400):
            net.send(rng.randrange(3), 3, rng.choice([64, 500, 3000, 8192]),
                     lambda: None)
        sim.run()
        frames = {}
        for p in sent(ev):
            frames.setdefault((p["src"], p["deliver"]), []).append(p["nbytes"])
        assert len(ev) == 400
        assert max(len(f) for f in frames.values()) > 1
        assert all(sum(f) <= cap or len(f) == 1 for f in frames.values())

    def test_faults_act_per_message_inside_a_frame(self):
        sim = Simulator()
        delay = 2.0 ** -12
        net = Network(sim, 3, NetworkConfig(**_CFG), frame_bytes=1 << 20,
                      faults=_ScriptedFaults(
                          ("deliver", 0.0), ("deliver", 0.0), ("drop", 0.0),
                          ("dup", 0.0), ("delay", delay)))
        cfg = net.config
        ev = capture(net)
        got = []
        sends = [(0, 2, 4096), (0, 1, 1024), (0, 1, 2048), (0, 1, 512),
                 (0, 1, 256)]
        for i, (src, dst, nbytes) in enumerate(sends):
            net.send(src, dst, nbytes, arrivals(sim, got), i)
        sim.run()
        p, o, bw = cfg.poller_per_message, cfg.per_message_overhead, cfg.link_bw
        start = max(p + (4096 / bw + o), 5 * p)
        arrive = start + ((1024 + 2048 + 512 + 256) / bw + o) + cfg.link_latency
        # the frame's receive pass carries the delivered and the dup bytes
        deliver = arrive + (1024 + 512) / bw + p
        dup = deliver + cfg.link_latency + 512 / bw + p
        late = arrive + delay + 256 / bw + p
        assert sorted(got) == sorted([(got[0][0], (0,)), (deliver, (1,)),
                                      (deliver, (3,)), (dup, (3,)),
                                      (late, (4,))])
        assert [args for t, args in got if t == deliver] == [(1,), (3,)]
        delivered = {p["nbytes"]: p["deliver"] for p in sent(ev)}
        assert delivered == {4096: got[0][0], 1024: deliver, 2048: None,
                             512: deliver, 256: late}

    def test_reset_forgets_waiting_messages(self):
        sim, net = make_net(frame_bytes=1 << 20, **_CFG)
        got = []
        for dst in (1, 2, 2, 3):
            net.send(0, dst, 4096, got.append, dst)
        sim.clear_pending()  # what crash recovery does first
        net.reset()
        sim.run()
        assert got == []
        net.send(0, 1, 4096, got.append, "after")
        sim.run()
        assert got == ["after"]

    def test_reset_frees_every_port_and_poller(self):
        """Crash recovery dropped the frames the ports and pollers were
        serving, so the first frame after a reset starts transmitting at
        its poller departure, not behind the dropped frames' claims."""
        sim, net = make_net(**_CFG)
        cfg = net.config
        for _ in range(8):
            net.send(0, 1, 64 * 1024, lambda: None)
            net.send(2, 1, 64 * 1024, lambda: None)
        for _ in range(200):  # keeps the send poller busy past the reset
            net.send(0, 3, 64, lambda: None)
        reset_at = 2.0 ** -14
        sim.run(until=reset_at)
        claimed = (net._send_poller[0], net._tx[0], net._rx[1],
                   net._recv_poller[1])
        assert all(r.next_free > reset_at for r in claimed)
        sim.clear_pending()  # what crash recovery does first
        net.reset()
        (t,) = deliver_times(sim, net, [(0, 1, 4096)])
        p, o, bw = cfg.poller_per_message, cfg.per_message_overhead, cfg.link_bw
        depart = reset_at + p
        assert t == depart + (4096 / bw + o) + cfg.link_latency + 4096 / bw + p
