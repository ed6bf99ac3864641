"""Configuration dataclasses and their helpers."""

import dataclasses

import pytest

from repro.core.incremental import IncrementalConfig
from repro.core.result_cache import CacheConfig
from repro.core.scheduler import SchedulerConfig
from repro.runtime.config import (ClusterConfig, ConfigError, EngineConfig,
                                  MachineConfig, NetworkConfig)


class TestClusterConfigHelpers:
    def test_with_engine_overrides_only_named_fields(self):
        cfg = ClusterConfig().with_engine(num_workers=5)
        assert cfg.engine.num_workers == 5
        assert cfg.engine.num_copiers == EngineConfig().num_copiers

    def test_with_machines(self):
        assert ClusterConfig().with_machines(16).num_machines == 16

    def test_with_network(self):
        cfg = ClusterConfig().with_network(link_bw=1e9)
        assert cfg.network.link_bw == 1e9
        assert cfg.network.link_latency == NetworkConfig().link_latency

    def test_with_machine(self):
        cfg = ClusterConfig().with_machine(hw_threads=64)
        assert cfg.machine.hw_threads == 64

    def test_helpers_return_new_objects(self):
        base = ClusterConfig()
        derived = base.with_engine(buffer_size=128)
        assert base.engine.buffer_size == EngineConfig().buffer_size
        assert derived is not base

    def test_configs_are_frozen(self):
        cfg = ClusterConfig()
        with pytest.raises(Exception):
            cfg.num_machines = 99
        with pytest.raises(Exception):
            cfg.engine.buffer_size = 1

    def test_chained_helpers_compose(self):
        cfg = (ClusterConfig(num_machines=2)
               .with_engine(num_workers=3)
               .with_network(link_bw=2e9)
               .with_machine(hw_threads=8)
               .with_straggler(1, 2.0))
        assert cfg.engine.num_workers == 3
        assert cfg.network.link_bw == 2e9
        assert cfg.machine.hw_threads == 8
        assert cfg.machine_config(1).cpu_op_time == pytest.approx(
            2 * cfg.machine.cpu_op_time)

    def test_engine_mode_switches(self):
        """Staging order is not a switch: canonical apply is unconditional
        and the audit's negative control injects the unsorted apply.  Nor
        is write combining: every order-insensitive flush combines."""
        switches = {f.name for f in dataclasses.fields(EngineConfig)
                    if f.type in (bool, "bool")}
        assert switches == {"ghost_privatization", "audit", "out_of_core"}


class TestPaperDefaults:
    """The defaults must stay pinned to the paper's experimental setup."""

    def test_thread_populations(self):
        e = EngineConfig()
        assert e.num_workers == 16 and e.num_copiers == 8

    def test_buffer_size_256kb(self):
        assert EngineConfig().buffer_size == 256 * 1024

    def test_hw_threads_32(self):
        assert MachineConfig().hw_threads == 32

    def test_partitioning_defaults(self):
        e = EngineConfig()
        assert e.partitioning == "edge" and e.chunking == "edge"

    def test_network_anchors(self):
        n = NetworkConfig()
        assert n.link_bw == pytest.approx(6.2e9)
        # 4 KB buffers must land at ~1.5 GB/s (Figure 8(b) anchor).
        assert 4096 / (4096 / n.link_bw + n.per_message_overhead) == \
            pytest.approx(1.5e9, rel=0.05)


class TestEngineConfigValidation:
    """Values that would stall the first job, raise inside it or shorten
    the clock with a negative cost fail at construction, naming the
    field."""

    @pytest.mark.parametrize("field,value", [
        ("num_workers", 0), ("num_copiers", 0),
        ("max_inflight_per_dest", 0), ("chunk_size", 0), ("chunk_size", -5),
        ("chunking", "foo"), ("partitioning", "foo"),
        ("buffer_size", 0), ("buffer_size", 15), ("ghost_threshold", -1),
        ("task_dispatch_time", -1e-9), ("chunk_dispatch_time", -1e-9),
        ("marshal_per_item", -1e-9), ("copier_per_item", -1e-9),
        ("combine_per_item", -1e-9), ("plan_cache_max_bytes", -1)])
    def test_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            ClusterConfig().with_engine(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("num_workers", 1), ("chunk_size", 1), ("chunking", "node"),
        ("partitioning", "vertex"), ("buffer_size", 16),
        ("ghost_threshold", 0), ("ghost_threshold", None),
        ("task_dispatch_time", 0.0), ("combine_per_item", 0.0),
        ("plan_cache_max_bytes", 0)])
    def test_boundary_accepted(self, field, value):
        assert getattr(EngineConfig(**{field: value}), field) == value

    def test_scaled_configs_construct(self):
        from repro.bench.calibration import scaled_cluster_config
        for scale in (1e-9, 1e-4, 1e-3, 1.0):
            assert scaled_cluster_config(2, scale).engine.buffer_size >= 64


class TestHardwareConfigValidation:
    """Hardware values that would divide by zero or schedule a negative
    delay inside the first job fail at construction, naming the field."""

    @pytest.mark.parametrize("cls,field,value", [
        (NetworkConfig, "link_bw", 0.0), (NetworkConfig, "link_bw", -1e9),
        (NetworkConfig, "per_message_overhead", -1e-9),
        (NetworkConfig, "link_latency", -1e-9),
        (NetworkConfig, "poller_per_message", -1e-9),
        (MachineConfig, "hw_threads", 0),
        (MachineConfig, "dram_random_bw", 0.0),
        (MachineConfig, "dram_seq_bw", 0.0),
        (MachineConfig, "dram_bytes", 0.0),
        (MachineConfig, "cpu_op_time", -1e-9),
        (MachineConfig, "atomic_op_time", -1e-9),
        (MachineConfig, "llc_bytes", -1.0),
        (MachineConfig, "dram_half_threads", -1.0),
        (MachineConfig, "llc_miss_floor", -0.1),
        (MachineConfig, "llc_miss_floor", 1.5),
        (ClusterConfig, "num_machines", 0),
        (ClusterConfig, "num_machines", -2)])
    def test_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})
        helper = {NetworkConfig: ClusterConfig().with_network,
                  MachineConfig: ClusterConfig().with_machine}.get(cls)
        if helper is not None:
            with pytest.raises(ConfigError, match=field):
                helper(**{field: value})

    @pytest.mark.parametrize("cls,field,value", [
        (NetworkConfig, "per_message_overhead", 0.0),
        (NetworkConfig, "link_latency", 0.0),
        (NetworkConfig, "poller_per_message", 0.0),
        (MachineConfig, "hw_threads", 1), (MachineConfig, "cpu_op_time", 0.0),
        (MachineConfig, "llc_bytes", 0.0),
        (MachineConfig, "llc_miss_floor", 0.0),
        (MachineConfig, "llc_miss_floor", 1.0),
        (ClusterConfig, "num_machines", 1)])
    def test_boundary_accepted(self, cls, field, value):
        assert getattr(cls(**{field: value}), field) == value

    def test_stragglers_and_scaled_configs_construct(self):
        from repro.bench.calibration import scaled_cluster_config
        for machines in (1, 2, 32):
            for scale in (1e-9, 1e-4, 1.0):
                cfg = scaled_cluster_config(machines, scale)
                assert cfg.with_straggler(0, 3.0).machine_config(0)


class TestServiceConfigValidation:
    """Scheduler, result-cache and incremental knobs that would deadlock
    the job loop, refuse every read or never rerun fail at construction,
    naming the field."""

    @pytest.mark.parametrize("cls,field,value", [
        (SchedulerConfig, "max_concurrent_jobs", 0),
        (SchedulerConfig, "max_queued_per_session", -1),
        (SchedulerConfig, "max_queue_depth", -1),
        (SchedulerConfig, "read_rate_per_session", 0.0),
        (SchedulerConfig, "read_rate_per_session", -2.0),
        (SchedulerConfig, "read_burst", -1.0),
        (CacheConfig, "max_entries", -1),
        (CacheConfig, "hit_seconds", -1.0),
        (IncrementalConfig, "full_rerun_fraction", -0.1),
        (IncrementalConfig, "full_rerun_fraction", 2.0),
        (IncrementalConfig, "full_rerun_fraction", float("nan"))])
    def test_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("cls,field,value", [
        (SchedulerConfig, "max_concurrent_jobs", 1),
        (SchedulerConfig, "max_queue_depth", 0),
        (SchedulerConfig, "read_rate_per_session", None),
        (SchedulerConfig, "read_rate_per_session", 1e-9),
        (SchedulerConfig, "read_burst", 0.0),
        (CacheConfig, "max_entries", 0), (CacheConfig, "hit_seconds", 0.0),
        (IncrementalConfig, "full_rerun_fraction", 0.0),
        (IncrementalConfig, "full_rerun_fraction", 1.0)])
    def test_boundary_accepted(self, cls, field, value):
        assert getattr(cls(**{field: value}), field) == value
