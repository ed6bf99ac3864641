"""DRAM saturation model, LLC adjustment, CPU thread accounting."""

import pytest

from repro.runtime.config import MachineConfig
from repro.runtime.cpu import MachineCpu
from repro.runtime.memory import DramModel, cache_adjusted_locality


class TestDramModel:
    def setup_method(self):
        self.cfg = MachineConfig()
        self.dram = DramModel(self.cfg)

    def test_aggregate_bw_increases_with_threads(self):
        bws = [self.dram.aggregate_random_bw(t) for t in (1, 2, 4, 8, 16, 32)]
        assert bws == sorted(bws)

    def test_aggregate_bw_saturates_below_peak(self):
        assert self.dram.aggregate_random_bw(32) < self.cfg.dram_random_bw
        assert self.dram.aggregate_random_bw(1000) > 0.99 * self.cfg.dram_random_bw

    def test_half_saturation_point(self):
        t_half = self.cfg.dram_half_threads
        assert (self.dram.aggregate_random_bw(int(t_half))
                == pytest.approx(self.cfg.dram_random_bw / 2, rel=0.1))

    def test_zero_threads_zero_bw(self):
        assert self.dram.aggregate_random_bw(0) == 0.0

    def test_per_thread_bw_decreases_with_contention(self):
        assert (self.dram.per_thread_random_bw(1)
                > self.dram.per_thread_random_bw(16))

    def test_access_time_zero_bytes(self):
        assert self.dram.access_time(0, 4) == 0.0

    def test_access_time_scales_with_bytes(self):
        t1 = self.dram.access_time(1000, 4)
        t2 = self.dram.access_time(2000, 4)
        assert t2 == pytest.approx(2 * t1)

    def test_sequential_cheaper_than_random(self):
        assert (self.dram.access_time(10_000, 8, locality=1.0)
                < self.dram.access_time(10_000, 8, locality=0.0))

    def test_locality_interpolates_monotonically(self):
        times = [self.dram.access_time(10_000, 8, locality=l)
                 for l in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert times == sorted(times, reverse=True)

    def test_invalid_locality_rejected(self):
        with pytest.raises(ValueError):
            self.dram.access_time(100, 4, locality=1.5)


class TestCacheAdjustment:
    def setup_method(self):
        self.cfg = MachineConfig()

    def test_fitting_working_set_raises_locality(self):
        loc = cache_adjusted_locality(0.2, self.cfg.llc_bytes / 2, self.cfg)
        assert loc > 0.9

    def test_huge_working_set_keeps_base(self):
        loc = cache_adjusted_locality(0.2, self.cfg.llc_bytes * 1000, self.cfg)
        assert loc == pytest.approx(0.2, abs=0.01)

    def test_zero_working_set_is_noop(self):
        assert cache_adjusted_locality(0.3, 0, self.cfg) == 0.3

    def test_monotone_in_working_set(self):
        sizes = [self.cfg.llc_bytes * f for f in (0.1, 0.5, 1.0, 2.0, 10.0)]
        locs = [cache_adjusted_locality(0.2, s, self.cfg) for s in sizes]
        assert locs == sorted(locs, reverse=True)

    def test_miss_floor_applies(self):
        loc = cache_adjusted_locality(0.0, 1.0, self.cfg)
        assert loc <= 1.0 - self.cfg.llc_miss_floor * (1.0 - 0.0) + 1e-12


class TestMachineCpu:
    def test_thread_accounting(self):
        cpu = MachineCpu(MachineConfig())
        cpu.thread_started()
        cpu.thread_started()
        assert cpu.active_threads == 2
        cpu.thread_finished()
        assert cpu.active_threads == 1

    def test_unmatched_finish_raises(self):
        cpu = MachineCpu(MachineConfig())
        with pytest.raises(RuntimeError):
            cpu.thread_finished()

    def test_no_oversubscription_below_hw_threads(self):
        cpu = MachineCpu(MachineConfig(hw_threads=4))
        for _ in range(4):
            cpu.thread_started()
        assert cpu.oversubscription_factor() == 1.0

    def test_oversubscription_slows_work(self):
        cpu = MachineCpu(MachineConfig(hw_threads=2))
        cpu.thread_started()
        t1 = cpu.work_duration(cpu_ops=1000)
        for _ in range(3):
            cpu.thread_started()
        t2 = cpu.work_duration(cpu_ops=1000)
        assert t2 == pytest.approx(2 * t1)

    def test_atomics_cost_more_than_plain_ops(self):
        cpu = MachineCpu(MachineConfig())
        cpu.thread_started()
        assert (cpu.work_duration(atomic_ops=100)
                > cpu.work_duration(cpu_ops=100))

    def test_mixed_duration_combines_buckets(self):
        cpu = MachineCpu(MachineConfig())
        cpu.thread_started()
        total = cpu.mixed_duration(100, 10, 1000, 1000)
        assert total > cpu.mixed_duration(100, 10, 0, 0)
        assert total > cpu.mixed_duration(0, 0, 1000, 1000)

    def test_dram_contention_from_other_threads(self):
        cpu = MachineCpu(MachineConfig())
        cpu.thread_started()
        solo = cpu.mixed_duration(0, 0, 10_000, 0)
        for _ in range(15):
            cpu.thread_started()
        crowded = cpu.mixed_duration(0, 0, 10_000, 0)
        assert crowded > solo
