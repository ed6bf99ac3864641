"""Checkpoint and restore of a loaded DistributedGraph.

The long-running server of Section 6.2 needs durable state: a client's
loaded graph plus every property column it has computed.  A checkpoint
captures the graph structure, the partitioning pivots, the ghost table and
all user property columns into one ``.npz`` archive; ``restore`` rebuilds
the distributed state on a fresh cluster.  When the target cluster has the
same machine count as the one that saved, the archived pivots and ghost
table are reused verbatim — no re-partitioning, no ghost re-selection;
otherwise the graph is re-partitioned to the new shape and all saved
property columns redistributed.

:func:`restore_properties` additionally restores property columns *in
place* onto an already-loaded graph — the rollback primitive behind
checkpoint-based job recovery (``docs/robustness.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..graph.csr import from_edges
from ..graph.partition import Partitioning
from ..runtime.disk import DiskModel
from .engine import DistributedGraph, PgxdCluster

_FORMAT_VERSION = 1
#: properties materialized by the engine itself at load time
_BUILTIN_PROPS = ("out_degree", "in_degree")


def save_checkpoint(dg: DistributedGraph, path: Union[str, Path]) -> None:
    """Write graph structure + partitioning + all property columns."""
    g = dg.graph
    arrays: dict[str, np.ndarray] = {
        "__version": np.array([_FORMAT_VERSION]),
        "__num_nodes": np.array([g.num_nodes]),
        "__out_starts": g.out_starts,
        "__out_nbrs": g.out_nbrs,
        "__starts": dg.partitioning.starts,
        "__ghost_gids": dg.ghost_gids,
    }
    if g.edge_weights is not None:
        arrays["__edge_weights"] = g.edge_weights
    if g.edge_props:
        for name, values in g.edge_props.items():
            arrays[f"__edge_prop__{name}"] = values
    for name in dg.machines[0].props.names():
        if name in _BUILTIN_PROPS:
            continue
        arrays[f"prop__{name}"] = dg.gather(name)
    np.savez(Path(path), **arrays)


def _check_version(data) -> None:
    version = int(data["__version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")


def restore_checkpoint(cluster: PgxdCluster, path: Union[str, Path],
                       ) -> DistributedGraph:
    """Rebuild a DistributedGraph from a checkpoint on ``cluster``.

    If ``cluster`` has the same machine count as the saver, the archived
    partitioning pivots and ghost table are adopted directly (fast path —
    no re-partitioning).  Otherwise the graph is re-partitioned with the
    cluster's configured strategy and all saved property columns are
    redistributed to the new pivots.
    """
    # Materialize everything inside the context manager: NpzFile members are
    # lazy zip reads, and the archive must be closed (not leaked) on return.
    with np.load(Path(path)) as data:
        _check_version(data)
        n = int(data["__num_nodes"][0])
        out_starts = data["__out_starts"]
        nbrs = data["__out_nbrs"]
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(out_starts))
        weights = data["__edge_weights"] if "__edge_weights" in data else None
        graph = from_edges(src, nbrs, num_nodes=n, weights=weights)
        archive_bytes = float(out_starts.nbytes + nbrs.nbytes
                              + (weights.nbytes if weights is not None else 0))
        for key in data.files:
            if key.startswith("__edge_prop__"):
                values = data[key]
                archive_bytes += values.nbytes
                graph.add_edge_property(key[len("__edge_prop__"):], values)
        starts = np.asarray(data["__starts"], dtype=np.int64)
        ghost_gids = np.asarray(data["__ghost_gids"])
        props = {key[len("prop__"):]: data[key]
                 for key in data.files if key.startswith("prop__")}
        archive_bytes += (starts.nbytes + ghost_gids.nbytes
                          + sum(v.nbytes for v in props.values()))

    # Both restore paths pay the archive read: machines stream their ~1/Nth
    # shard of the checkpoint from local disk in parallel, so the modeled
    # cost is one shard on one disk device.  The same-machine-count fast
    # path used to report ``load_time == 0.0`` while the re-partition path
    # charged its rebuild — an accounting asymmetry, not a real saving.
    t0 = cluster.sim.now
    cluster.advance(DiskModel(cluster.config.machine).read_time(
        archive_bytes / cluster.config.num_machines))
    if len(starts) - 1 == cluster.config.num_machines:
        dg = DistributedGraph(cluster, graph, Partitioning(starts=starts),
                              ghost_gids)
    else:
        dg = cluster.load_graph(graph)
    for name, values in sorted(props.items()):
        dg.add_property(name, dtype=values.dtype, from_global=values)
    dg.load_time = cluster.sim.now - t0
    return dg


def restore_properties(dg: DistributedGraph,
                       path: Union[str, Path]) -> list[str]:
    """Restore the saved property columns in place onto a loaded graph.

    The graph structure in the archive must match ``dg`` (node count is
    verified).  Columns present in the archive overwrite the live ones;
    columns created after the checkpoint are left untouched.  Returns the
    restored property names.  This is the rollback step of crash recovery:
    it rewinds mutable state without rebuilding the partitioning.
    """
    with np.load(Path(path)) as data:
        _check_version(data)
        n = int(data["__num_nodes"][0])
        if n != dg.num_nodes:
            raise ValueError(
                f"checkpoint holds a different graph ({n} nodes, "
                f"live graph has {dg.num_nodes})")
        restored = []
        for key in data.files:
            if not key.startswith("prop__"):
                continue
            name = key[len("prop__"):]
            values = data[key]
            if dg.has_property(name):
                dg.set_from_global(name, values)
            else:
                dg.add_property(name, dtype=values.dtype, from_global=values)
            restored.append(name)
    return sorted(restored)


def checkpoint_properties(path: Union[str, Path]) -> list[str]:
    """List the user property columns stored in a checkpoint."""
    with np.load(Path(path)) as data:
        return sorted(k[len("prop__"):] for k in data.files
                      if k.startswith("prop__"))
