"""Distributed barrier latency model (measured in Figure 5(b)).

PGX.D synchronizes at the end of every parallel step.  We model the classic
tree barrier: an arrive phase up a binary tree and a release phase back down,
each round costing one small control message per hop.  With P machines that
is ``2 * ceil(log2 P)`` rounds; latency is therefore logarithmic in the
cluster size and measured in tens of microseconds — negligible against the
per-step times of Table 3, which is exactly the paper's point.
"""

from __future__ import annotations

import math

from ..runtime.config import NetworkConfig
from .messages import HEADER_BYTES

#: Local bookkeeping when only one machine participates.
_LOCAL_BARRIER = 2.0e-6


def barrier_latency(num_machines: int, network: NetworkConfig) -> float:
    """Simulated seconds one barrier operation takes: the tree of an
    all-reduce whose hops carry no value."""
    return all_reduce_latency(num_machines, network, nbytes=0.0)


def all_reduce_latency(num_machines: int, network: NetworkConfig,
                       nbytes: float = 8.0) -> float:
    """Latency of an all-reduce of ``nbytes`` per machine (tree up + down)."""
    if num_machines <= 1:
        return _LOCAL_BARRIER
    rounds = 2 * math.ceil(math.log2(num_machines))
    per_hop = (network.link_latency + network.per_message_overhead
               + 2 * network.poller_per_message
               + (HEADER_BYTES + nbytes) / network.link_bw)
    return _LOCAL_BARRIER + rounds * per_hop
