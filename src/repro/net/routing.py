"""Static shortest-path routing.

The paper's topologies are trees/chains, so any correct shortest-path
next-hop assignment reproduces its forwarding exactly.  Next hops are
the parent pointers of a breadth-first search outward from each
destination over the undirected adjacency induced by the installed
links.  Deterministic tie-breaking (alphabetical neighbor order) keeps
runs reproducible.

What a table costs depends on the node.  A node with a choice of ports
(a switch) holds one entry per destination host: O(H) for H hosts.  A
node with a single neighbor (every host of the paper's topologies)
forwards everything through it, so its table is a
:class:`SingleHopRoutes` view: two references, O(1), onto one
``dict.fromkeys(destinations, neighbor)`` built once per neighbor and
shared by every node attached to it.  A dumbbell with H hosts therefore
holds O(H) route entries in all, not H², and a point at 512 hosts a side
builds no table larger than its two switches'.

The searches are linear too.  A destination with a single neighbor
hangs its BFS tree off that neighbor's: the search from the destination
visits the neighbor first and then proceeds exactly as the neighbor's
own search does, so every other node gets the same parent either way,
and hosts attached to one switch share one search.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping

from repro.errors import ConfigurationError

__all__ = ["compute_next_hops", "SingleHopRoutes"]


class SingleHopRoutes(Mapping[str, str]):
    """The routes of a node with a single neighbor, as a read-only view.

    ``table`` maps every destination to that neighbor and is shared by
    every node attached to it; the view answers for each of them except
    its own node ``own``, which has no route to itself.  Lookups,
    membership, ``len``, iteration order and the ``KeyError`` of a
    missing destination are those of the ``dict`` the node would
    otherwise hold.  :meth:`repro.net.node.Node.add_route` swaps the
    view for a private ``dict`` before writing, so the shared table never
    changes.
    """

    __slots__ = ("_table", "_own")

    def __init__(self, table: dict[str, str], own: str) -> None:
        self._table = table
        self._own = own

    def __getitem__(self, destination: str) -> str:
        if destination == self._own:
            raise KeyError(destination)
        return self._table[destination]

    def __iter__(self) -> Iterator[str]:
        own = self._own
        return (destination for destination in self._table if destination != own)

    def __len__(self) -> int:
        return len(self._table) - (self._own in self._table)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def compute_next_hops(
    adjacency: dict[str, list[str]], destinations: list[str]
) -> dict[str, Mapping[str, str]]:
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
        reach the destination (the destination itself is omitted).  A
        single-neighbor node's table is a :class:`SingleHopRoutes` view;
        every other node's is a ``dict``.

    Raises
    ------
    ConfigurationError
        If some node cannot reach a destination (partitioned network).
    """
    # Sorted once, not per BFS visit: the tie-break order is the same for
    # every destination, and a 129-neighbor switch is visited once per search.
    ordered = {name: sorted(neighbors) for name, neighbors in adjacency.items()}
    # Nodes with a choice of ports (or none at all) get one entry per
    # destination; everything else shares one table per neighbor.
    choosers = [name for name, neighbors in ordered.items() if len(neighbors) != 1]
    filled: dict[str, dict[str, str]] = {name: {} for name in choosers}
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
                filled[node][dst] = dst if node == root else parent[node]
    tables: dict[str, Mapping[str, str]] = {}
    shared: dict[str, dict[str, str]] = {}
    for node, neighbors in ordered.items():
        if len(neighbors) == 1:
            # Every destination is reachable, so all of them lie through
            # the node's only neighbor.
            via = neighbors[0]
            table = shared.get(via)
            if table is None:
                table = shared[via] = dict.fromkeys(destinations, via)
            tables[node] = SingleHopRoutes(table, node)
        else:
            tables[node] = filled[node]
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
