"""Static shortest-path routing.

The paper's topologies are trees/chains, so any correct shortest-path
next-hop assignment reproduces its forwarding exactly.  We compute
next hops with a breadth-first search from every destination host over
the undirected adjacency induced by the installed links.  Deterministic
tie-breaking (alphabetical neighbor order) keeps runs reproducible.
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
    # every destination, and a 129-neighbor switch is visited once per host.
    ordered = {name: sorted(neighbors) for name, neighbors in adjacency.items()}
    for dst in destinations:
        if dst not in adjacency:
            raise ConfigurationError(f"destination {dst!r} is not in the topology")
        # BFS outward from the destination; the parent pointer at each node
        # is that node's next hop toward the destination.
        parent: dict[str, str] = {dst: dst}
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            for neighbor in ordered[current]:
                if neighbor not in parent:
                    parent[neighbor] = current
                    frontier.append(neighbor)
        for node in adjacency:
            if node == dst:
                continue
            if node not in parent:
                raise ConfigurationError(f"node {node!r} cannot reach {dst!r}")
            tables[node][dst] = parent[node]
    return tables
