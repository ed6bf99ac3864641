#!/usr/bin/env python
"""Routing on a road-network-like grid: SSSP and hop distance.

Road networks are the opposite of social graphs — bounded degree, huge
diameter — so the frontier-based algorithms run for *many* iterations with
little work per step, the regime where framework overhead dominates
(Section 5.3.1).  This example shows:

* weighted shortest paths (travel time) vs hop counts (turns);
* how iteration count scales with graph diameter;
* the partitioning comparison on a graph where vertex partitioning is fine
  (uniform degrees — contrast with the Twitter example).

Run:  python examples/road_network_routing.py
"""

import numpy as np

from repro import ClusterConfig, PgxdCluster, grid_graph, with_uniform_weights
from repro.algorithms import hop_dist, sssp


def main() -> None:
    # A 60x60 city grid; edge weights are travel times.
    rows = cols = 60
    graph = grid_graph(rows, cols)
    with_uniform_weights(graph, 1.0, 5.0, seed=7)
    print(f"road grid: {graph.num_nodes:,} intersections, "
          f"{graph.num_edges:,} road segments")

    config = ClusterConfig(num_machines=4).with_engine(ghost_threshold=None)
    cluster = PgxdCluster(config)
    dg = cluster.load_graph(graph)

    depot = 0  # top-left corner
    # --- travel-time shortest paths --------------------------------------
    times = sssp(cluster, dg, root=depot)
    dist = times.values["dist"]
    far = int(np.argmax(np.where(np.isfinite(dist), dist, -1)))
    print(f"\nSSSP from depot {depot}: {times.iterations} iterations, "
          f"{times.total_time * 1e3:.2f} simulated ms")
    print(f"farthest intersection: {far} "
          f"(row {far // cols}, col {far % cols}) at travel time {dist[far]:.1f}")

    # --- hop distance (number of road segments) ---------------------------
    hops = hop_dist(cluster, dg, root=depot)
    h = hops.values["hops"]
    print(f"hop distance: {hops.iterations} iterations "
          f"(graph diameter from depot = {int(np.nanmax(np.where(np.isfinite(h), h, np.nan)))})")
    corner = rows * cols - 1
    assert h[corner] == (rows - 1) + (cols - 1), "manhattan distance check"
    print(f"opposite corner is {int(h[corner])} hops away — "
          f"matches the manhattan distance")

    # High-diameter graphs need many supersteps: compare with a social graph
    # of the same size, which finishes in a handful.
    from repro import rmat

    social = rmat(graph.num_nodes, graph.num_edges, seed=1)
    cluster2 = PgxdCluster(config)
    dg2 = cluster2.load_graph(social)
    social_hops = hop_dist(cluster2, dg2, root=0)
    print(f"\nsame-size social graph: BFS finishes in {social_hops.iterations} "
          f"iterations vs {hops.iterations} on the road grid "
          f"(the many-tiny-steps regime of Section 5.3.1)")

    # --- partitioning on uniform-degree graphs ---------------------------
    def time_with(partitioning):
        c = PgxdCluster(config.with_engine(partitioning=partitioning))
        d = c.load_graph(graph)
        return sssp(c, d, root=depot).total_time

    t_edge, t_vertex = time_with("edge"), time_with("vertex")
    print(f"\npartitioning on the grid: edge {t_edge * 1e3:.2f} ms vs "
          f"vertex {t_vertex * 1e3:.2f} ms simulated — nearly identical, "
          f"because grid degrees are uniform (contrast with Figure 6(b))")


if __name__ == "__main__":
    main()
