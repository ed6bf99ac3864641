"""The instrumentation hook bus."""

import pytest

from repro.obs.hooks import KNOWN_HOOKS, SCOPE_TAGS, HookBus


class TestSubscribe:
    def test_emit_reaches_subscriber(self):
        bus = HookBus()
        got = []
        bus.subscribe("a.b", got.append)
        bus.emit("a.b", x=1, time=2.0)
        assert got == [{"x": 1, "time": 2.0}]

    def test_emit_without_subscribers_is_noop(self):
        HookBus().emit("nobody.listens", x=1)

    def test_multiple_subscribers_all_called(self):
        bus = HookBus()
        got_a, got_b = [], []
        bus.subscribe("h", got_a.append)
        bus.subscribe("h", got_b.append)
        bus.emit("h", v=7)
        assert got_a == got_b == [{"v": 7}]

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            HookBus().subscribe("h", 42)

    def test_subscriber_counts(self):
        bus = HookBus()
        assert bus.subscriber_count("h") == bus.subscriber_count() == 0
        sub = bus.subscribe("h", lambda p: None)
        assert bus.subscriber_count("h") == bus.subscriber_count() == 1
        bus.unsubscribe(sub)
        assert bus.subscriber_count("h") == bus.subscriber_count() == 0


class TestUnsubscribe:
    def test_unsubscribed_fn_not_called(self):
        bus = HookBus()
        got = []
        sub = bus.subscribe("h", got.append)
        bus.unsubscribe(sub)
        bus.emit("h", v=1)
        assert got == []

    def test_unsubscribe_is_idempotent(self):
        bus = HookBus()
        sub = bus.subscribe("h", lambda p: None)
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)  # no error

    def test_cancel_handle(self):
        bus = HookBus()
        got = []
        sub = bus.subscribe("h", got.append)
        sub.cancel()
        bus.emit("h", v=1)
        assert got == [] and not sub.active

    def test_unsubscribe_during_emit_is_safe(self):
        bus = HookBus()
        got = []
        subs = []

        def first(p):
            subs[1].cancel()
            got.append("first")

        subs.append(bus.subscribe("h", first))
        subs.append(bus.subscribe("h", lambda p: got.append("second")))
        bus.emit("h", v=1)
        assert got == ["first"]  # second was cancelled mid-fanout


class TestSubscribeMany:
    def test_installs_all(self):
        bus = HookBus()
        subs = bus.subscribe_many({"a": lambda p: None, "b": lambda p: None})
        assert len(subs) == 2
        assert bus.subscriber_count("a") == bus.subscriber_count("b") == 1

    def test_rolls_back_on_failure(self):
        bus = HookBus()
        with pytest.raises(TypeError):
            bus.subscribe_many({"a": lambda p: None, "b": "not callable"})
        assert bus.subscriber_count() == 0  # nothing half-installed


class TestIsolation:
    def test_two_buses_are_independent(self):
        bus1, bus2 = HookBus(), HookBus()
        got1, got2 = [], []
        bus1.subscribe("h", got1.append)
        bus2.subscribe("h", got2.append)
        bus1.emit("h", v=1)
        assert got1 == [{"v": 1}] and got2 == []

    def test_subscriber_exception_propagates(self):
        bus = HookBus()

        def boom(p):
            raise ValueError("instrumentation bug")

        bus.subscribe("h", boom)
        with pytest.raises(ValueError):
            bus.emit("h")


class TestKnownHooks:
    def test_names_are_namespaced(self):
        assert all("." in name for name in KNOWN_HOOKS)

    def test_core_hook_points_present(self):
        for name in ("job.start", "job.end", "fault.inject", "job.recover",
                     "dynamic.apply", "job.incremental"):
            assert name in KNOWN_HOOKS

    def test_restating_hooks_are_gone(self):
        # the start hooks' end twins carry ``start``
        for name in ("task.chunk_start", "comm.copier_start",
                     "ghost.reduce_start", "job.phase_start",
                     "barrier.enter", "comm.queue_depth"):
            assert name not in KNOWN_HOOKS

    def test_per_unit_hooks_are_gone(self):
        # what each chunk, flush, request, copier pass, plan lookup, ghost
        # access and message did is a row or count of the job's JobStats
        for name in ("task.chunk_end", "task.plan_cache", "comm.enqueue",
                     "comm.flush", "comm.copier_done", "comm.combine",
                     "ghost.hit", "ghost.miss", "net.send", "net.drop"):
            assert name not in KNOWN_HOOKS

    def test_region_span_hooks_are_gone(self):
        # each phase, barrier, ghost reduce, disk window, retry and
        # duplicate drop is a row or count of the job's JobStats too
        for name in ("job.phase_end", "barrier.exit", "ghost.reduce_end",
                     "disk.read", "comm.retry", "comm.dedup_drop"):
            assert name not in KNOWN_HOOKS

    def test_schema_maps_names_to_field_tuples(self):
        for name, fields in KNOWN_HOOKS.items():
            assert isinstance(fields, tuple) and fields, name
            assert len(set(fields)) == len(fields), name
            if not name.startswith("sched."):  # emitted unscoped
                assert not set(SCOPE_TAGS) & set(fields), name

    def test_subscribe_known_rejects_unknown_hooks_atomically(self):
        bus = HookBus()
        with pytest.raises(ValueError, match="job.phase_end"):
            bus.subscribe_known({"job.end": print, "job.phase_end": print})
        assert bus.subscriber_count() == 0
        assert len(bus.subscribe_known({"job.end": print})) == 1
