"""Configuration dataclasses and their helpers."""

import dataclasses

import pytest

from repro.runtime.config import (ClusterConfig, EngineConfig, MachineConfig,
                                  NetworkConfig)


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
