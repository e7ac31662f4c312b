"""One BFS per attachment point against one BFS per destination.

``compute_next_hops`` shares a search between the single-neighbor
destinations hanging off one node and fills a single-neighbor node's
table wholesale.  The per-destination BFS kept in ``test_routing`` is
the oracle: on every graph the tables must be equal for every
``(node, destination)`` pair — equal-cost ties included — and a graph
the oracle cannot route must be refused.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net import compute_next_hops
from tests.net.test_routing import _reference_next_hops


def _adjacency(graph, order):
    """Both directions of every edge, neighbor lists in a drawn order."""
    names = {node: f"n{node}" for node in graph.nodes}
    adjacency = {names[node]: [names[peer] for peer in graph.neighbors(node)]
                 for node in graph.nodes}
    for neighbors in adjacency.values():
        order.shuffle(neighbors)
    return adjacency


@st.composite
def routed_graphs(draw):
    """A connected graph and the destinations to route toward.

    A random tree (chains, stars and every single-neighbor leaf shape in
    between), optionally closed into cycles by extra edges — which is
    what makes equal-cost ties and multi-homed destinations.
    """
    size = draw(st.integers(min_value=1, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    graph = (nx.random_labeled_tree(size, seed=seed) if size > 1
             else nx.empty_graph(1))
    extra = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        max_size=size))
    graph.add_edges_from((a, b) for a, b in extra if a != b)
    adjacency = _adjacency(graph, draw(st.randoms(use_true_random=False)))
    destinations = draw(st.lists(st.sampled_from(sorted(adjacency)),
                                 max_size=2 * size))
    return adjacency, destinations


@settings(max_examples=300, deadline=None)
@given(routed_graphs())
def test_tables_equal_the_per_destination_bfs(case):
    adjacency, destinations = case
    before = {node: list(neighbors) for node, neighbors in adjacency.items()}
    tables = compute_next_hops(adjacency, destinations)
    assert tables == _reference_next_hops(adjacency, destinations)
    assert list(tables) == list(adjacency)
    assert adjacency == before


@settings(max_examples=100, deadline=None)
@given(routed_graphs(), routed_graphs())
def test_a_partition_is_refused_like_the_oracle_refuses_it(left, right):
    """Two components: any destination leaves the other side stranded,
    and the node named is the first one the per-destination BFS misses."""
    adjacency = dict(left[0])
    adjacency.update({f"m{node[1:]}": [f"m{peer[1:]}" for peer in neighbors]
                      for node, neighbors in right[0].items()})
    destinations = left[1] + [f"m{dst[1:]}" for dst in right[1]]
    if not destinations:
        assert compute_next_hops(adjacency, destinations) == {
            node: {} for node in adjacency}
        return
    with pytest.raises(KeyError) as stranded:
        _reference_next_hops(adjacency, destinations)
    with pytest.raises(ConfigurationError) as refused:
        compute_next_hops(adjacency, destinations)
    assert repr(stranded.value.args[0]) in str(refused.value)
    assert repr(destinations[0]) in str(refused.value)


@given(routed_graphs(), st.integers(min_value=0, max_value=30))
def test_an_unknown_destination_is_refused(case, position):
    adjacency, destinations = case
    destinations.insert(min(position, len(destinations)), "nowhere")
    with pytest.raises(ConfigurationError, match="'nowhere' is not in the topology"):
        compute_next_hops(adjacency, destinations)


def test_hosts_on_one_switch_share_one_search(monkeypatch):
    """The growth law itself: a star's BFS count does not grow with its
    leaves (it was one search per leaf)."""
    from repro.net import routing

    searches = []
    bfs = routing._bfs_parents
    monkeypatch.setattr(routing, "_bfs_parents",
                        lambda ordered, root: searches.append(root)
                        or bfs(ordered, root))
    leaves = [f"h{i}" for i in range(40)]
    adjacency = {"hub": list(leaves), **{leaf: ["hub"] for leaf in leaves}}
    compute_next_hops(adjacency, leaves)
    assert searches == ["hub"]
