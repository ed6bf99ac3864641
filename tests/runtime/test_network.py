"""Network fabric model: serialization, overheads, incast, accounting."""

import pytest

from repro.runtime.config import NetworkConfig
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator


def make_net(n=4, **kwargs):
    sim = Simulator()
    return sim, Network(sim, n, NetworkConfig(**kwargs))


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
        t = net.send(0, 1, 256 * 1024, lambda: None)
        expected_min = (2 * 256 * 1024 / cfg.link_bw + cfg.per_message_overhead
                        + cfg.link_latency)
        assert t >= expected_min

    def test_local_send_is_near_instant(self):
        sim, net = make_net()
        t = net.send(2, 2, 10_000_000, lambda: None)
        assert t < 1e-6
        sim.run()

    def test_bad_endpoints_rejected(self):
        _, net = make_net(2)
        with pytest.raises(ValueError):
            net.send(0, 5, 100, lambda: None)

    def test_back_to_back_messages_serialize_on_tx(self):
        sim, net = make_net()
        t1 = net.send(0, 1, 100_000, lambda: None)
        t2 = net.send(0, 1, 100_000, lambda: None)
        assert t2 > t1

    def test_different_sources_do_not_serialize_on_tx(self):
        """Two senders to two distinct receivers overlap fully."""
        sim, net = make_net()
        t1 = net.send(0, 1, 1_000_000, lambda: None)
        sim2, net2 = make_net()
        net2.send(0, 1, 1_000_000, lambda: None)
        t2 = net2.send(2, 3, 1_000_000, lambda: None)
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
        # Queue lots of inbound traffic to machine 1 (reserves far future).
        for _ in range(50):
            net.send(0, 1, 1_000_000, lambda: None)
        # Machine 1 sends something now: should depart almost immediately.
        t = net.send(1, 2, 1024, lambda: None)
        assert t < 50 * 1_000_000 / net.config.link_bw

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


def capture(net, *names):
    """Subscribe a list per hook name; the fabric's only traffic account."""
    events = {name: [] for name in names}
    for name, sink in events.items():
        net.hooks.subscribe(name, sink.append)
    return events


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
        ev = capture(net, "net.send")
        net.send(0, 1, 100, lambda: None)
        net.send(0, 2, 200, lambda: None)
        net.send(1, 2, 300, lambda: None)
        assert bytes_by(ev["net.send"], "src") == {0: 300, 1: 300}

    def test_bytes_by_kind(self):
        sim, net = make_net()
        ev = capture(net, "net.send")
        net.send(0, 1, 100, lambda: None, kind="read_req")
        net.send(0, 1, 50, lambda: None, kind="ghost_sync")
        assert bytes_by(ev["net.send"], "kind") == {"read_req": 100,
                                                    "ghost_sync": 50}

    def test_local_messages_not_counted(self):
        sim, net = make_net()
        ev = capture(net, "net.send")
        got = []
        net.send(1, 1, 999, got.append, "m")
        sim.run()
        assert got == ["m"] and ev["net.send"] == []

    def test_reset_stats(self):
        """A measurement window is a subscription: traffic sent after it
        is cancelled is not counted."""
        sim, net = make_net()
        sent = []
        sub = net.hooks.subscribe("net.send", sent.append)
        net.send(0, 1, 100, lambda: None)
        sub.cancel()
        net.send(0, 1, 200, lambda: None)
        assert [p["nbytes"] for p in sent] == [100]

    def test_busy_fractions_reported(self):
        """Every port a message occupies shows in its delivery time: the
        poller out, the tx port, the wire, the rx port, the poller in."""
        sim, net = make_net()
        cfg = net.config
        ev = capture(net, "net.send")
        got = []
        nbytes = 1_000_000
        net.send(0, 1, nbytes, arrivals(sim, got))
        sim.run()
        expected = (2 * cfg.poller_per_message + 2 * nbytes / cfg.link_bw
                    + cfg.per_message_overhead + cfg.link_latency)
        (send,) = ev["net.send"]
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
        ev = capture(net, "net.send", "net.drop")
        got = []
        net.send(0, 1, 512, got.append, "m", kind="write_req")
        sim.run()
        assert got == []  # the callback must never fire for a lost message
        assert len(ev["net.send"]) == 1
        assert ev["net.send"][0]["deliver"] is None
        assert ev["net.send"][0]["dropped"] is True
        assert len(ev["net.drop"]) == 1
        assert ev["net.drop"][0]["kind"] == "write_req"
        assert ev["net.drop"][0]["lost_at"] > ev["net.drop"][0]["time"]

    def test_drop_counts_bytes_dropped(self):
        sim, net = make_faulty_net("drop")
        ev = capture(net, "net.send", "net.drop")
        net.send(0, 1, 512, lambda: None, kind="write_req")
        net.send(0, 2, 256, lambda: None, kind="read_req")
        assert sum(p["nbytes"] for p in ev["net.drop"]) == 768
        assert len(ev["net.drop"]) == 2
        assert all(p["dropped"] for p in ev["net.send"])

    def test_dup_emits_two_delivers(self):
        sim, net = make_faulty_net("dup")
        ev = capture(net, "net.send", "net.drop")
        got = []
        net.send(0, 1, 512, arrivals(sim, got), "m", kind="ghost_sync")
        sim.run()
        # The duplicate really lands twice; the send is counted once, at
        # the original's delivery time.
        assert [args for _, args in got] == [("m",), ("m",)]
        (send,) = ev["net.send"]
        assert got[0][0] == send["deliver"]
        assert got[1][0] > got[0][0]
        assert ev["net.drop"] == []

    def test_clean_deliver_single_event(self):
        sim, net = make_faulty_net("deliver")
        ev = capture(net, "net.send")
        got = []
        net.send(0, 1, 512, arrivals(sim, got))
        sim.run()
        (send,) = ev["net.send"]
        assert send["deliver"] is not None and "dropped" not in send
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
