"""Series builders for the microbenchmark figures (Figures 5 and 8).

These are hardware microbenchmarks in the paper — no graph involved — so
they run against the *unscaled* machine/network models.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.barrier import barrier_latency
from ..runtime.config import MachineConfig, NetworkConfig
from ..runtime.memory import DramModel
from ..runtime.network import Network
from ..runtime.simulator import Simulator

#: Request/response element sizes of the Figure 8(a) microbench: 8-byte
#: addresses fetch 8-byte values.
_ITEM = 8


@dataclass
class RandomReadResult:
    """One point of the Figure 8(a) sweep."""

    copiers: int
    effective_bw: float    # data bytes / elapsed
    utilized_bw: float     # (address + data) bytes / elapsed
    local_bw: float        # DRAM random-read bandwidth with this many threads
    network_bw: float      # the link line


def remote_random_read_bench(num_copiers: int,
                             total_requests: int = 4_000_000,
                             buffer_size: int = 256 * 1024,
                             requesters: int = 16,
                             machine: MachineConfig | None = None,
                             network: NetworkConfig | None = None) -> RandomReadResult:
    """Two machines, 1:1 (Figure 8(a)): requester threads on machine 0 flood
    machine 1 with 8-byte random read requests; ``num_copiers`` copiers on
    machine 1 service them, paying the DRAM random-access cost.

    Measures the attained bandwidth as the paper defines it: *utilized*
    counts address + data bytes on the wire, *effective* only the data.
    """
    machine = machine or MachineConfig()
    network = network or NetworkConfig()
    sim = Simulator()
    fabric = Network(sim, 2, network)
    dram = DramModel(machine)

    items_per_msg = max(1, buffer_size // _ITEM)
    num_messages = max(1, total_requests // items_per_msg)

    request_queue: deque[int] = deque()
    copiers_busy = [False] * num_copiers
    done = {"responses": 0}

    def copier_loop(cid: int) -> None:
        if not request_queue:
            copiers_busy[cid] = False
            return
        copiers_busy[cid] = True
        items = request_queue.popleft()
        # The gather: pure random 8-byte reads, shared DRAM bandwidth among
        # the copiers currently issuing (the Figure 8(a) "Local" limiter).
        per_thread_bw = dram.aggregate_random_bw(num_copiers) / num_copiers
        dur = items * _ITEM / per_thread_bw
        sim.schedule_at(sim.now + dur, copier_done, cid, items)

    def copier_done(cid: int, items: int) -> None:
        fabric.send(1, 0, items * _ITEM, response_delivered, items,
                    kind="read_resp")
        copier_loop(cid)

    def request_delivered(items: int) -> None:
        request_queue.append(items)
        for cid in range(num_copiers):
            if not copiers_busy[cid]:
                copiers_busy[cid] = True
                sim.schedule_at(sim.now, copier_loop, cid)
                break

    def response_delivered(items: int) -> None:
        done["responses"] += items

    # Requesters can generate addresses faster than anything downstream; pace
    # the sends at the source NIC by just issuing them back-to-back.
    for _ in range(num_messages):
        fabric.send(0, 1, items_per_msg * _ITEM, request_delivered,
                    items_per_msg, kind="read_req")

    sim.run()
    elapsed = sim.now
    data_bytes = done["responses"] * _ITEM
    return RandomReadResult(
        copiers=num_copiers,
        effective_bw=data_bytes / elapsed,
        utilized_bw=2 * data_bytes / elapsed,
        local_bw=dram.aggregate_random_bw(num_copiers),
        network_bw=network.link_bw,
    )


def buffer_size_bench(num_machines: int, buffer_size: int,
                      bytes_per_machine: float = 1e9,
                      network: NetworkConfig | None = None) -> float:
    """N:N dummy-buffer flood (Figure 8(b)): every machine sends
    ``bytes_per_machine`` to all the others in ``buffer_size`` messages;
    returns the attained per-machine send bandwidth (bytes/s)."""
    network = network or NetworkConfig()
    sim = Simulator()
    fabric = Network(sim, num_machines, network)
    per_dest = bytes_per_machine / max(1, num_machines - 1)
    msgs_per_dest = max(1, int(per_dest // buffer_size))
    total = 0.0
    # Rotated all-to-all schedule: in every round each source targets a
    # distinct destination, so receive ports are never gratuitously idle
    # (the schedule any sane N:N flood uses).
    for k in range(msgs_per_dest):
        for shift in range(1, num_machines):
            for src in range(num_machines):
                dst = (src + shift) % num_machines
                fabric.send(src, dst, buffer_size, lambda: None, kind="flood")
                total += buffer_size
    sim.run()
    return total / num_machines / sim.now


def barrier_series(machine_counts: list[int],
                   network: NetworkConfig | None = None) -> list[tuple[int, float]]:
    """Figure 5(b): barrier latency (seconds) per machine count."""
    network = network or NetworkConfig()
    return [(p, barrier_latency(p, network)) for p in machine_counts]
