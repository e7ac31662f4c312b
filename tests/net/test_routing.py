"""Unit tests for repro.net.routing (BFS next hops)."""

import networkx as nx
import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.net import Packet, PacketKind, build_chain, build_dumbbell, compute_next_hops


def _chain(names):
    adjacency = {name: [] for name in names}
    for a, b in zip(names, names[1:]):
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


class TestChainRouting:
    def test_two_node_chain(self):
        tables = compute_next_hops(_chain(["a", "b"]), ["a", "b"])
        assert tables["a"]["b"] == "b"
        assert tables["b"]["a"] == "a"

    def test_multi_hop_chain(self):
        tables = compute_next_hops(_chain(["a", "b", "c", "d"]), ["a", "d"])
        assert tables["a"]["d"] == "b"
        assert tables["b"]["d"] == "c"
        assert tables["c"]["d"] == "d"
        assert tables["d"]["a"] == "c"

    def test_destination_has_no_self_route(self):
        tables = compute_next_hops(_chain(["a", "b"]), ["a"])
        assert "a" not in tables["a"]


class TestStarRouting:
    def test_star(self):
        adjacency = {
            "hub": ["s1", "s2", "s3"],
            "s1": ["hub"], "s2": ["hub"], "s3": ["hub"],
        }
        tables = compute_next_hops(adjacency, ["s1", "s2", "s3"])
        assert tables["s1"]["s2"] == "hub"
        assert tables["hub"]["s3"] == "s3"


class TestErrors:
    def test_unknown_destination(self):
        with pytest.raises(ConfigurationError):
            compute_next_hops(_chain(["a", "b"]), ["z"])

    def test_partitioned_network(self):
        adjacency = {"a": ["b"], "b": ["a"], "c": []}
        with pytest.raises(ConfigurationError):
            compute_next_hops(adjacency, ["a"])


class TestAgainstNetworkx:
    """Cross-validate next-hop distances against networkx shortest paths."""

    def test_random_tree(self):
        graph = nx.random_labeled_tree(12, seed=4)
        graph = nx.relabel_nodes(graph, {n: f"n{n}" for n in graph.nodes})
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        destinations = list(adjacency)[:4]
        tables = compute_next_hops(adjacency, destinations)
        for dst in destinations:
            lengths = nx.single_source_shortest_path_length(graph, dst)
            for node in adjacency:
                if node == dst:
                    continue
                hop = tables[node][dst]
                # Following the next hop must strictly decrease distance.
                assert lengths[hop] == lengths[node] - 1

    def test_grid_with_ties_is_deterministic(self):
        graph = nx.grid_2d_graph(3, 3)
        graph = nx.relabel_nodes(graph, {n: f"{n[0]}{n[1]}" for n in graph.nodes})
        adjacency = {node: list(graph.neighbors(node)) for node in graph.nodes}
        tables_a = compute_next_hops(adjacency, ["00"])
        tables_b = compute_next_hops(adjacency, ["00"])
        assert tables_a == tables_b


def _reference_next_hops(adjacency, destinations):
    """The BFS as first written: re-sorts a node's neighbors on every
    visit.  Kept as the oracle for the sort-once implementation."""
    from collections import deque

    tables = {name: {} for name in adjacency}
    for dst in destinations:
        parent = {dst: dst}
        frontier = deque([dst])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(adjacency[current]):
                if neighbor not in parent:
                    parent[neighbor] = current
                    frontier.append(neighbor)
        for node in adjacency:
            if node != dst:
                tables[node][dst] = parent[node]
    return tables


class TestSortOnceMatchesPerVisitSort:
    """Sorting each adjacency list once must not move a single tie-break."""

    @staticmethod
    def _adjacency_and_hosts(net):
        from repro.net import Host

        adjacency = {name: [] for name in net.nodes}
        for a, b in net.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        hosts = [name for name, node in net.nodes.items()
                 if isinstance(node, Host)]
        return adjacency, hosts

    @pytest.mark.parametrize("build", [
        pytest.param(lambda sim: build_dumbbell(sim), id="dumbbell-n1"),
        pytest.param(lambda sim: build_dumbbell(sim, n_left=128, n_right=128),
                     id="dumbbell-n128"),
        pytest.param(lambda sim: build_chain(sim, n_switches=4), id="chain-4"),
    ])
    def test_tables_identical(self, build):
        net = build(Simulator())
        adjacency, hosts = self._adjacency_and_hosts(net)
        expected = _reference_next_hops(adjacency, hosts)
        assert compute_next_hops(adjacency, hosts) == expected
        # ...and they are the routes the builders actually installed.
        assert {name: node.routes for name, node in net.nodes.items()} == expected

    def test_input_lists_are_not_reordered(self):
        adjacency = {"hub": ["s3", "s1", "s2"],
                     "s1": ["hub"], "s2": ["hub"], "s3": ["hub"]}
        compute_next_hops(adjacency, ["s1"])
        assert adjacency["hub"] == ["s3", "s1", "s2"]


def _four_switch():
    from repro.scenarios import build, paper

    return build(paper.four_switch(duration=1.0, warmup=0.5)).net


INSTALLED = [
    pytest.param(lambda: build_dumbbell(Simulator()), id="dumbbell-n1"),
    pytest.param(lambda: build_dumbbell(Simulator(), n_left=2, n_right=2),
                 id="dumbbell-n2"),
    pytest.param(lambda: build_dumbbell(Simulator(), n_left=5, n_right=5),
                 id="dumbbell-n5"),
    pytest.param(lambda: build_dumbbell(Simulator(), n_left=64, n_right=64),
                 id="dumbbell-n64"),
    pytest.param(lambda: build_chain(Simulator(), n_switches=3,
                                     hosts_per_switch=2), id="chain-3x2"),
    pytest.param(_four_switch, id="four_switch"),
]


class TestInstalledRoutesAnswerAsFullTables:
    """What a node's routes answer — a shared single-hop view for a
    single-port node, a dict for a switch — is what the full per-node
    dict of the per-destination BFS answers, for every node and every
    destination, the node itself and unknown names included."""

    @staticmethod
    def _expected(net):
        adjacency, hosts = TestSortOnceMatchesPerVisitSort._adjacency_and_hosts(net)
        return _reference_next_hops(adjacency, hosts), hosts

    @pytest.mark.parametrize("build", INSTALLED)
    def test_mapping_surface(self, build):
        net = build()
        expected, hosts = self._expected(net)
        for name, node in net.nodes.items():
            table, routes = expected[name], node.routes
            assert len(routes) == len(table)
            assert list(routes) == list(table)
            assert list(routes.items()) == list(table.items())
            assert routes == table
            for dst in [*hosts, name, "sw1", "nowhere"]:
                assert (dst in routes) == (dst in table), (name, dst)
                assert routes.get(dst) == table.get(dst), (name, dst)
                assert routes.get(dst, "-") == table.get(dst, "-"), (name, dst)
                if dst in table:
                    assert routes[dst] == table[dst]
                else:
                    with pytest.raises(KeyError):
                        routes[dst]

    @pytest.mark.parametrize("build", INSTALLED)
    def test_port_toward_and_send(self, build):
        net = build()
        expected, hosts = self._expected(net)
        for name, node in net.nodes.items():
            for dst in [*hosts, name, "nowhere"]:
                if dst in expected[name]:
                    assert node.port_toward(dst) is node.ports[expected[name][dst]]
                else:
                    with pytest.raises(ConfigurationError,
                                       match=f"{name}: no route to {dst}$"):
                        node.port_toward(dst)
        for name in hosts:
            host = net.host(name)
            taken = []
            for port in host.ports.values():
                port.send = lambda packet, port=port: taken.append(port) or True
            for dst in [*hosts, "nowhere"]:
                for _ in range(2):  # the second send is answered by the memo
                    packet = Packet(conn_id=1, kind=PacketKind.DATA, seq=0,
                                    size=500)
                    if dst in expected[name]:
                        assert host.send(packet, dst)
                        assert taken.pop() is host.ports[expected[name][dst]]
                    else:
                        with pytest.raises(ConfigurationError,
                                           match=f"{name}: no route to {dst}$"):
                            host.send(packet, dst)
                        assert not taken
