"""Chaos regression suite: injected faults must not change results.

Each fault class (message drop / duplicate / delay, copier stall, machine
slowdown, machine crash) runs PageRank and BFS under a seeded
:class:`~repro.core.faults.FaultPlan` and asserts the results are
bit-identical to a fault-free run — and that the retry/dedup/recovery
metrics are nonzero exactly when faults were injected.
"""

from collections import Counter

import numpy as np
import pytest

from repro import (ConfigError, EdgeMapJob, EdgeMapSpec, EngineStallError,
                   FaultPlan, MachineCrash, MachineCrashError, MachineSlowdown,
                   PgxdCluster, ReduceOp, RetryExhaustedError, rmat)
from repro.algorithms import hop_dist, pagerank
from repro.bench.calibration import scaled_cluster_config
from repro.core import comm_manager
from repro.core.faults import FaultController
from repro.core.jobrunner import JobExecution
from repro.core.messages import MsgKind
from repro.core.scheduler import JobScheduler
from repro.obs.report import fault_summary
from tests.conftest import make_cluster


def _run_pagerank(small_rmat, plan=None, iterations=5, ckpt=None,
                  machines=4):
    cluster = make_cluster(num_machines=machines, fault_plan=plan)
    dg = cluster.load_graph(small_rmat)
    if ckpt is not None:
        cluster.enable_auto_checkpoint(dg, ckpt)
    r = pagerank(cluster, dg, "pull", max_iterations=iterations,
                 tolerance=0.0)
    return r.values["pr"], cluster


def _run_hop_dist(small_rmat, plan=None):
    cluster = make_cluster(fault_plan=plan)
    dg = cluster.load_graph(small_rmat)
    r = hop_dist(cluster, dg, root=0)
    return r.values["hops"], cluster


class TestFaultPlanValidation:
    def test_prob_out_of_range(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(dup_prob=-0.1)

    def test_probs_sum_above_one(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.5, dup_prob=0.4, delay_prob=0.2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultPlan(kinds=("rmi",))

    def test_bad_retry_knobs(self):
        with pytest.raises(ValueError):
            FaultPlan(retry_backoff=0.5)
        with pytest.raises(ValueError):
            FaultPlan(max_attempts=0)

    @pytest.mark.parametrize("field,make", [
        pytest.param("delay_seconds",
                     lambda: FaultPlan(delay_seconds=-1e-3), id="delay<0"),
        pytest.param("copier_stall_seconds",
                     lambda: FaultPlan(copier_stall_seconds=-1e-6),
                     id="stall<0"),
        pytest.param("restart_delay",
                     lambda: FaultPlan(restart_delay=-1e-6), id="restart<0"),
        pytest.param("retry_timeout",
                     lambda: FaultPlan(retry_timeout=0.0), id="timeout=0"),
        pytest.param("retry_timeout",
                     lambda: FaultPlan(retry_timeout=-1e-3), id="timeout<0"),
        pytest.param("retry_timeout_cap",
                     lambda: FaultPlan(retry_timeout_cap=0.0), id="cap=0"),
        pytest.param("retry_timeout_cap",
                     lambda: FaultPlan(retry_timeout_cap=-1e-3), id="cap<0"),
        pytest.param("duration",
                     lambda: MachineSlowdown(0, 0.0, -1e-3, 2.0),
                     id="slowdown-duration<0"),
        pytest.param("factor", lambda: MachineSlowdown(0, 0.0, 1.0, 0.0),
                     id="slowdown-factor=0"),
        pytest.param("factor", lambda: MachineSlowdown(0, 0.0, 1.0, -2.0),
                     id="slowdown-factor<0"),
    ])
    def test_unschedulable_durations_rejected(self, field, make):
        """Durations the simulator cannot schedule (negative delays, zero
        timeouts, non-positive slowdown factors) fail at construction,
        naming the field, instead of mid-job."""
        with pytest.raises(ConfigError, match=field):
            make()

    def test_injects_message_faults_property(self):
        assert not FaultPlan().injects_message_faults
        assert FaultPlan(drop_prob=0.1).injects_message_faults


class TestMessageFaults:
    """Drops, duplicates and delays leave results bit-identical."""

    def test_drops_are_retried(self, small_rmat):
        base, _ = _run_pagerank(small_rmat)
        vals, cluster = _run_pagerank(small_rmat,
                                      FaultPlan(seed=3, drop_prob=0.05))
        assert np.array_equal(base, vals)
        fs = fault_summary(cluster.metrics)
        assert fs["faults_injected"] > 0
        assert fs["retries"] > 0

    def test_duplicates_apply_once(self, small_rmat):
        base, _ = _run_pagerank(small_rmat)
        vals, cluster = _run_pagerank(small_rmat,
                                      FaultPlan(seed=3, dup_prob=0.1))
        assert np.array_equal(base, vals)
        fs = fault_summary(cluster.metrics)
        assert fs["faults_injected"] > 0
        assert fs["dedup_drops"] > 0

    def test_each_read_pass_sends_its_own_response(self, monkeypatch):
        """A duplicated or retried READ_REQ is served once per copier
        pass, and every pass sends the READ_RESP it built: no response
        object goes out twice and none is lost."""
        sent, passes = [], Counter()
        send_response = JobExecution.send_response
        process = comm_manager._process_message

        def record_send(exc, msg):
            # Holding every (execution, message) keeps their ids unique.
            sent.append((exc, msg))
            send_response(exc, msg)

        def count_pass(exc, machine, msg):
            if msg.kind is MsgKind.READ_REQ:
                passes[id(exc), msg.request_id] += 1
            return process(exc, machine, msg)

        monkeypatch.setattr(JobExecution, "send_response", record_send)
        monkeypatch.setattr(comm_manager, "_process_message", count_pass)
        cluster = PgxdCluster(scaled_cluster_config(
            4, 1e-3, fault_plan=FaultPlan(seed=3, dup_prob=0.3)))
        dg = cluster.load_graph(rmat(2000, 20000, seed=3))
        pagerank(cluster, dg, "pull", max_iterations=2, tolerance=0.0)
        assert sum(passes.values()) > len(passes)  # some read served twice
        assert len({id(msg) for _, msg in sent}) == len(sent)
        assert Counter((id(exc), msg.request_id)
                       for exc, msg in sent) == passes

    def test_delays_beyond_timeout(self, small_rmat):
        # delay_seconds (2 ms) exceeds the initial 1 ms retry timeout, so
        # delayed messages force the resend path *and* the late original
        # still arrives — both recovery mechanisms fire together.
        base, _ = _run_pagerank(small_rmat)
        vals, cluster = _run_pagerank(small_rmat,
                                      FaultPlan(seed=3, delay_prob=0.1))
        assert np.array_equal(base, vals)
        fs = fault_summary(cluster.metrics)
        assert fs["faults_injected"] > 0
        assert fs["retries"] > 0

    def test_all_message_faults_twenty_iterations(self, small_rmat):
        """The PR's acceptance scenario: a 20-iteration PageRank under
        drops + dups + delays completes bit-identical to fault-free."""
        base, _ = _run_pagerank(small_rmat, iterations=20)
        plan = FaultPlan(seed=7, drop_prob=0.03, dup_prob=0.05,
                         delay_prob=0.05)
        vals, cluster = _run_pagerank(small_rmat, plan, iterations=20)
        assert np.array_equal(base, vals)
        fs = fault_summary(cluster.metrics)
        assert fs["faults_injected"] > 0
        assert fs["retries"] > 0
        assert fs["dedup_drops"] > 0

    def test_hop_dist_under_message_faults(self, small_rmat):
        base, _ = _run_hop_dist(small_rmat)
        plan = FaultPlan(seed=11, drop_prob=0.03, dup_prob=0.05,
                         delay_prob=0.05)
        vals, cluster = _run_hop_dist(small_rmat, plan)
        assert np.array_equal(base, vals)
        assert fault_summary(cluster.metrics)["faults_injected"] > 0


class TestMachineFaults:
    def test_copier_stalls(self, small_rmat):
        base, _ = _run_pagerank(small_rmat)
        vals, cluster = _run_pagerank(small_rmat,
                                      FaultPlan(seed=5,
                                                copier_stall_prob=0.2))
        assert np.array_equal(base, vals)
        assert fault_summary(cluster.metrics)["faults_injected"] > 0

    def test_machine_slowdown(self, small_rmat):
        base, base_cluster = _run_pagerank(small_rmat)
        window = MachineSlowdown(machine=1, start=0.0,
                                 duration=base_cluster.now, factor=4.0)
        vals, cluster = _run_pagerank(small_rmat,
                                      FaultPlan(seed=5,
                                                slowdowns=(window,)))
        assert np.array_equal(base, vals)
        assert fault_summary(cluster.metrics)["faults_injected"] > 0
        # Slowing one machine stretches the run.
        assert cluster.now > base_cluster.now


class TestPayForPlay:
    def test_no_plan_means_zero_fault_metrics(self, small_rmat):
        _, cluster = _run_pagerank(small_rmat)
        fs = fault_summary(cluster.metrics)
        assert all(v == 0.0 for v in fs.values())

    def test_zero_probability_plan_changes_nothing(self, small_rmat):
        """A plan that never fires must not perturb timing or metrics:
        retry timers are armed but cancelled before they can advance the
        clock."""
        base, base_cluster = _run_pagerank(small_rmat)
        vals, cluster = _run_pagerank(small_rmat, FaultPlan(seed=1))
        assert np.array_equal(base, vals)
        assert cluster.now == base_cluster.now
        assert (cluster.metrics.counters_flat()
                == base_cluster.metrics.counters_flat())


class TestCrashRecovery:
    def test_crash_without_recovery_raises(self, small_rmat):
        plan = FaultPlan(seed=2, crashes=(MachineCrash(machine=1, at=1e-6),))
        with pytest.raises(MachineCrashError):
            _run_pagerank(small_rmat, plan)

    def test_crash_recovers_from_checkpoint(self, small_rmat, tmp_path):
        base, base_cluster = _run_pagerank(small_rmat)
        crash_at = 0.5 * base_cluster.now
        plan = FaultPlan(seed=2,
                         crashes=(MachineCrash(machine=2, at=crash_at),))
        vals, cluster = _run_pagerank(small_rmat, plan,
                                      ckpt=tmp_path / "ck.npz")
        assert np.array_equal(base, vals)
        fs = fault_summary(cluster.metrics)
        assert fs["recoveries"] >= 1
        assert fs["checkpoints"] >= 1

    def test_idle_crash_fires_at_next_job(self, small_rmat, tmp_path):
        """A crash point that lands between jobs (driver compute) is
        discovered at the start of the next job, not silently skipped."""
        plan = FaultPlan(seed=2, crashes=(MachineCrash(machine=0, at=0.0),))
        vals, cluster = _run_pagerank(small_rmat, plan,
                                      ckpt=tmp_path / "ck.npz")
        base, _ = _run_pagerank(small_rmat)
        assert np.array_equal(base, vals)
        assert fault_summary(cluster.metrics)["recoveries"] >= 1


class TestRecoveryRules:
    """A crashed job recovers exactly when its graph is the
    auto-checkpointed graph and it has recoveries left: a rerun needs a
    checkpoint to rewind to, and ``max_recoveries`` caps each job's
    recoveries, not the cluster's."""

    GRAPH = rmat(400, 3000, seed=3)
    JOBS = 8

    def _run(self, *crashes, ckpt=None, scheduler=False, max_recoveries=3):
        """JOBS pull-SUM jobs accumulating in-degrees into ``t``; returns
        (t, cluster)."""
        plan = FaultPlan(seed=5, crashes=crashes) if crashes else None
        cluster = make_cluster(num_machines=2, fault_plan=plan)
        cluster.max_recoveries = max_recoveries
        if scheduler:
            JobScheduler(cluster)  # attached up front, as a server does
        dg = cluster.load_graph(self.GRAPH)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        if ckpt is not None:
            cluster.enable_auto_checkpoint(dg, ckpt)
        cluster.run_jobs(dg, [EdgeMapJob(name=f"j{i}", spec=EdgeMapSpec(
            direction="pull", source="x", target="t", op=ReduceOp.SUM))
            for i in range(self.JOBS)])
        return dg.gather("t"), cluster

    def test_recover_without_checkpoint_reraises(self):
        # a rerun over the crashed attempt's half-applied writes would
        # "succeed" with wrong sums
        _, quiet = self._run()
        with pytest.raises(MachineCrashError):
            self._run(MachineCrash(machine=1, at=0.5 * quiet.now))

    def test_checkpoint_alone_recovers(self, tmp_path):
        want, quiet = self._run()
        got, cluster = self._run(MachineCrash(machine=1, at=0.5 * quiet.now),
                                 ckpt=tmp_path / "ck.npz")
        assert np.array_equal(got, want)
        assert fault_summary(cluster.metrics)["recoveries"] == 1

    def test_crash_on_other_graph_reraises(self, tmp_path):
        # the checkpoint of graph A cannot rewind graph B's half-applied
        # writes
        _, quiet = self._run()
        plan = FaultPlan(seed=5, crashes=(
            MachineCrash(machine=1, at=0.5 * quiet.now),))
        cluster = make_cluster(num_machines=2, fault_plan=plan)
        checkpointed = cluster.load_graph(self.GRAPH)
        cluster.enable_auto_checkpoint(checkpointed, tmp_path / "ck.npz")
        dg = cluster.load_graph(self.GRAPH)
        dg.add_property("x", init=1.0)
        dg.add_property("t", init=0.0)
        with pytest.raises(MachineCrashError):
            cluster.run_jobs(dg, [EdgeMapJob(name=f"j{i}", spec=EdgeMapSpec(
                direction="pull", source="x", target="t", op=ReduceOp.SUM))
                for i in range(self.JOBS)])
        assert fault_summary(cluster.metrics)["recoveries"] == 0

    @pytest.mark.parametrize("scheduler", [False, True],
                             ids=["default", "attached"])
    def test_recovery_budget_is_per_job(self, tmp_path, scheduler):
        want, quiet = self._run()
        t_end = quiet.now
        got, cluster = self._run(
            MachineCrash(machine=1, at=0.06 * t_end),
            MachineCrash(machine=0, at=0.8 * t_end),
            ckpt=tmp_path / "ck.npz", scheduler=scheduler, max_recoveries=1)
        assert np.array_equal(got, want)
        assert want.sum() == self.JOBS * self.GRAPH.num_edges
        assert fault_summary(cluster.metrics)["recoveries"] == 2
        assert sorted(t.recoveries for t in cluster.scheduler.tickets) == [
            0] * (self.JOBS - 2) + [1, 1]


class TestRetryExhaustion:
    def test_total_loss_gives_up(self, small_rmat):
        plan = FaultPlan(seed=4, drop_prob=1.0, max_attempts=2)
        with pytest.raises(RetryExhaustedError) as ei:
            _run_pagerank(small_rmat, plan)
        assert ei.value.attempts == 2
        assert ei.value.kind in ("read_req", "write_req", "ghost_sync")


class TestEngineStall:
    def test_lost_request_reports_diagnostics(self, small_rmat,
                                              monkeypatch):
        """A genuinely lost message (no fault layer, no retries) must now
        surface as a structured EngineStallError, not a bare RuntimeError."""
        from repro.core import jobrunner

        cluster = make_cluster()
        dg = cluster.load_graph(small_rmat)
        stolen = []
        deliver = jobrunner.deliver_request

        def steal(exc, msg):
            if not stolen and msg.kind is MsgKind.READ_REQ:
                stolen.append(msg)  # never reaches the request queue
                return
            deliver(exc, msg)

        monkeypatch.setattr(jobrunner, "deliver_request", steal)
        with pytest.raises(EngineStallError) as ei:
            pagerank(cluster, dg, "pull", max_iterations=1)
        assert stolen, "test never captured a read request"
        err = ei.value
        assert "deadlock" in str(err)
        assert err.job_name == err.diagnostics["job"]
        d = err.diagnostics
        assert set(d) >= {"phase", "workers_remaining", "queued_requests",
                          "workers", "retry_pending"}
        # The worker that issued the stolen read is visibly stuck.
        assert any(w["outstanding_reads"] or w["parked"]
                   for w in d["workers"])


class TestRequestIds:
    def test_ids_restart_per_execution(self, small_rmat, monkeypatch):
        """Request-id sequences are per-JobExecution: a region's ids do not
        depend on what ran earlier in the process (the old module-global
        counter made them drift)."""
        from repro.core import jobrunner

        captured = []
        orig = jobrunner.JobExecution.send_request

        def spy(self, msg, kind):
            captured.append((kind, msg.request_id))
            return orig(self, msg, kind)

        monkeypatch.setattr(jobrunner.JobExecution, "send_request", spy)

        def ids(warmup_runs):
            cluster = make_cluster()
            dg = cluster.load_graph(small_rmat)
            for _ in range(warmup_runs):
                pagerank(cluster, dg, "pull", max_iterations=1)
            captured.clear()
            pagerank(cluster, dg, "pull", max_iterations=1)
            return list(captured)

        fresh = ids(0)
        warmed = ids(2)
        assert fresh
        assert fresh == warmed

    def test_deterministic_fault_sequence(self, small_rmat):
        """Same seed, same workload => identical injected-fault counts."""
        plan = FaultPlan(seed=9, drop_prob=0.03, dup_prob=0.05)
        _, c1 = _run_pagerank(small_rmat, plan)
        _, c2 = _run_pagerank(small_rmat, plan)
        assert (fault_summary(c1.metrics) == fault_summary(c2.metrics))
        assert c1.now == c2.now


class TestControllerUnits:
    def test_single_draw_per_message(self):
        """Enabling more fault classes must not consume extra randomness."""
        from repro.obs.hooks import HookBus
        from repro.runtime.simulator import Simulator

        def actions(plan, n=200):
            ctl = FaultController(plan, Simulator(), HookBus())
            return [ctl.message_action(0, 1, "read_req")[0]
                    for _ in range(n)]

        drops_only = actions(FaultPlan(seed=13, drop_prob=0.1))
        combined = actions(FaultPlan(seed=13, drop_prob=0.1, dup_prob=0.2))
        # Wherever the drop-only plan dropped, the combined plan (same seed,
        # same drop band) must drop too.
        assert all(b == "drop" for a, b in zip(drops_only, combined)
                   if a == "drop")

    def test_work_scale_outside_window(self):
        from repro.obs.hooks import HookBus
        from repro.runtime.simulator import Simulator

        sd = MachineSlowdown(machine=0, start=1.0, duration=1.0, factor=3.0)
        ctl = FaultController(FaultPlan(slowdowns=(sd,)), Simulator(),
                              HookBus())
        assert ctl.work_scale(0, 0.5) == 1.0
        assert ctl.work_scale(0, 1.5) == 3.0
        assert ctl.work_scale(1, 1.5) == 1.0
        assert ctl.work_scale(0, 2.5) == 1.0
