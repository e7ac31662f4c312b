"""Static shortest-path routing.

The paper's topologies are trees/chains, so any correct shortest-path
next-hop assignment reproduces its forwarding exactly.  Next hops are
the parent pointers of a breadth-first search outward from each
destination over the undirected adjacency induced by the installed
links.  Deterministic tie-breaking (alphabetical neighbor order) keeps
runs reproducible.

The cost is linear in what the tables hold, not quadratic in the host
count.  A destination with a single neighbor (every host of the paper's
topologies) hangs its BFS tree off that neighbor's: the search from the
destination visits the neighbor first and then proceeds exactly as the
neighbor's own search does, so every other node gets the same parent
either way, and hosts attached to one switch share one search.  A node
with a single neighbor forwards everything through it, so its table is
``dict.fromkeys`` over the destinations rather than one Python-level
assignment per destination; only nodes with a choice of ports are
filled in entry by entry.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError

__all__ = ["compute_next_hops"]


def compute_next_hops(
    adjacency: dict[str, list[str]], destinations: list[str]
) -> dict[str, dict[str, str]]:
    """Compute next-hop tables for every node toward each destination.

    Parameters
    ----------
    adjacency:
        Node name → list of neighbor names (undirected; both directions
        must be present).
    destinations:
        Host names that packets can be addressed to.

    Returns
    -------
    dict
        ``tables[node][destination] = neighbor`` for every node that can
        reach the destination (the destination itself is omitted).

    Raises
    ------
    ConfigurationError
        If some node cannot reach a destination (partitioned network).
    """
    tables: dict[str, dict[str, str]] = {name: {} for name in adjacency}
    # Sorted once, not per BFS visit: the tie-break order is the same for
    # every destination, and a 129-neighbor switch is visited once per search.
    ordered = {name: sorted(neighbors) for name, neighbors in adjacency.items()}
    # Nodes with a choice of ports (or none at all) get one entry per
    # destination; everything else is filled in wholesale at the end.
    choosers = [name for name, neighbors in ordered.items() if len(neighbors) != 1]
    trees: dict[str, dict[str, str]] = {}
    for dst in destinations:
        if dst not in adjacency:
            raise ConfigurationError(f"destination {dst!r} is not in the topology")
        # A single-neighbor destination shares the tree rooted at that
        # neighbor: same parents everywhere except at the root itself,
        # whose next hop is the destination.
        root = ordered[dst][0] if len(ordered[dst]) == 1 else dst
        parent = trees.get(root)
        if parent is None:
            parent = trees[root] = _bfs_parents(ordered, root)
        if len(parent) != len(adjacency):
            node = next(name for name in adjacency if name not in parent)
            raise ConfigurationError(f"node {node!r} cannot reach {dst!r}")
        for node in choosers:
            if node != dst:
                tables[node][dst] = dst if node == root else parent[node]
    for node, neighbors in ordered.items():
        if len(neighbors) == 1:
            # Every destination is reachable, so all of them lie through
            # the node's only neighbor.
            tables[node] = dict.fromkeys(destinations, neighbors[0])
            tables[node].pop(node, None)
    return tables


def _bfs_parents(ordered: dict[str, list[str]], root: str) -> dict[str, str]:
    """Parent pointers of the BFS outward from ``root``: at each reached
    node, its next hop toward ``root`` (``root`` maps to itself)."""
    parent = {root: root}
    frontier = deque([root])
    while frontier:
        current = frontier.popleft()
        for neighbor in ordered[current]:
            if neighbor not in parent:
                parent[neighbor] = current
                frontier.append(neighbor)
    return parent
