"""Discrete-event simulation substrate for the PGX.D reproduction.

Provides the deterministic event loop and the serial-resource timeline
(:mod:`.simulator`), the interconnect model (:mod:`.network`), the DRAM/CPU
cost models (:mod:`.memory`, :mod:`.cpu`), execution statistics
(:mod:`.stats`) and the calibrated hardware constants (:mod:`.config`).
"""

from .config import (ClusterConfig, ConfigError, EngineConfig, MachineConfig,
                     NetworkConfig)
from .cpu import MachineCpu
from .memory import DramModel
from .network import Network
from .simulator import Event, SerialResource, Simulator
from .stats import Breakdown, JobStats

__all__ = [
    "ClusterConfig",
    "ConfigError",
    "EngineConfig",
    "MachineConfig",
    "NetworkConfig",
    "MachineCpu",
    "DramModel",
    "Network",
    "Event",
    "SerialResource",
    "Simulator",
    "Breakdown",
    "JobStats",
]
