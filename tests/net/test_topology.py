"""Unit tests for repro.net.topology."""

import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError
from repro.net import Network, Packet, PacketKind, build_chain, build_dumbbell


class TestDumbbell:
    def test_node_inventory(self):
        net = build_dumbbell(Simulator())
        assert sorted(net.nodes) == ["host1", "host2", "sw1", "sw2"]

    def test_bottleneck_parameters(self):
        net = build_dumbbell(
            Simulator(), bottleneck_bandwidth=50_000.0,
            bottleneck_propagation=1.0, buffer_packets=20,
        )
        port = net.port("sw1", "sw2")
        assert port.bandwidth == 50_000.0
        assert port.link.propagation == 1.0
        assert port.queue.capacity == 20

    def test_access_links_unbuffered_by_default(self):
        net = build_dumbbell(Simulator())
        assert net.port("host1", "sw1").queue.capacity is None

    def test_infinite_bottleneck_buffers(self):
        net = build_dumbbell(Simulator(), buffer_packets=None)
        assert net.port("sw1", "sw2").queue.capacity is None

    def test_routes_installed(self):
        net = build_dumbbell(Simulator())
        assert net.nodes["host1"].routes["host2"] == "sw1"
        assert net.nodes["sw1"].routes["host2"] == "sw2"
        assert net.nodes["sw2"].routes["host1"] == "sw1"

    def test_host_lookup_type_checked(self):
        net = build_dumbbell(Simulator())
        with pytest.raises(ConfigurationError):
            net.host("sw1")
        with pytest.raises(ConfigurationError):
            net.switch("host1")

    def test_unknown_port(self):
        net = build_dumbbell(Simulator())
        with pytest.raises(ConfigurationError):
            net.port("sw1", "host2")


class TestChain:
    def test_node_inventory(self):
        net = build_chain(Simulator(), n_switches=4)
        assert sorted(n for n in net.nodes if n.startswith("sw")) == [
            "sw1", "sw2", "sw3", "sw4"]
        assert sorted(n for n in net.nodes if n.startswith("host")) == [
            "host1", "host2", "host3", "host4"]

    def test_multi_hop_routes(self):
        net = build_chain(Simulator(), n_switches=4)
        assert net.nodes["sw1"].routes["host4"] == "sw2"
        assert net.nodes["sw2"].routes["host4"] == "sw3"
        assert net.nodes["sw4"].routes["host1"] == "sw3"

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            build_chain(Simulator(), n_switches=1)

    def test_inter_switch_buffers(self):
        net = build_chain(Simulator(), n_switches=3, buffer_packets=7)
        assert net.port("sw1", "sw2").queue.capacity == 7
        assert net.port("sw3", "sw2").queue.capacity == 7


class TestNetworkConstruction:
    def test_duplicate_node_name_rejected(self):
        net = Network(Simulator())
        net.add_host("h")
        with pytest.raises(ConfigurationError):
            net.add_switch("h")

    def test_duplicate_link_rejected(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_switch("a")
        b = net.add_switch("b")
        net.connect(a, b, 1e6, 0.01, 5, 5)
        with pytest.raises(ConfigurationError):
            net.connect(b, a, 1e6, 0.01, 5, 5)

    def test_asymmetric_buffers(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_switch("a")
        b = net.add_switch("b")
        duplex = net.connect(a, b, 1e6, 0.01, 3, None)
        assert duplex.forward.queue.capacity == 3
        assert duplex.reverse.queue.capacity is None

    def test_same_direction_duplicate_link_rejected(self):
        net = Network(Simulator())
        a = net.add_switch("a")
        b = net.add_switch("b")
        net.connect(a, b, 1e6, 0.01, 5, 5)
        with pytest.raises(ConfigurationError, match="already connected"):
            net.connect(a, b, 1e6, 0.01, 5, 5)


class TestGeneralizedDumbbell:
    def test_node_inventory_four_by_four(self):
        net = build_dumbbell(Simulator(), n_left=4, n_right=4)
        hosts = sorted(n for n in net.nodes if n.startswith("host"))
        assert hosts == [f"host{i}" for i in range(1, 9)]
        assert sorted(n for n in net.nodes if n.startswith("sw")) == [
            "sw1", "sw2"]

    def test_every_cross_pair_routes_through_the_bottleneck(self):
        n = 4
        net = build_dumbbell(Simulator(), n_left=n, n_right=n)
        for i in range(1, n + 1):
            for j in range(n + 1, 2 * n + 1):
                assert net.nodes[f"host{i}"].routes[f"host{j}"] == "sw1"
                assert net.nodes["sw1"].routes[f"host{j}"] == "sw2"
                assert net.nodes[f"host{j}"].routes[f"host{i}"] == "sw2"
                assert net.nodes["sw2"].routes[f"host{i}"] == "sw1"

    def test_same_side_pairs_turn_around_at_their_switch(self):
        net = build_dumbbell(Simulator(), n_left=4, n_right=4)
        assert net.nodes["host1"].routes["host3"] == "sw1"
        assert net.nodes["sw1"].routes["host3"] == "host3"
        assert net.nodes["host6"].routes["host8"] == "sw2"
        assert net.nodes["sw2"].routes["host8"] == "host8"

    def test_asymmetric_sides(self):
        net = build_dumbbell(Simulator(), n_left=1, n_right=5)
        assert net.nodes["sw2"].routes["host6"] == "host6"
        assert net.nodes["host6"].routes["host1"] == "sw2"

    def test_two_host_default_unchanged(self):
        # The generalized builder with defaults is exactly Figure 1.
        net = build_dumbbell(Simulator())
        assert sorted(net.nodes) == ["host1", "host2", "sw1", "sw2"]
        assert net.nodes["host1"].routes["host2"] == "sw1"

    def test_access_propagation_overrides(self):
        net = build_dumbbell(
            Simulator(), n_left=2, n_right=2,
            access_propagation=0.001,
            access_propagation_overrides={"host2": 0.009},
        )
        assert net.port("host2", "sw1").link.propagation == 0.009
        assert net.port("host1", "sw1").link.propagation == 0.001

    def test_override_for_unknown_host_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown hosts"):
            build_dumbbell(Simulator(), n_left=2, n_right=2,
                           access_propagation_overrides={"host9": 0.01})

    def test_degenerate_sides_rejected(self):
        with pytest.raises(ConfigurationError):
            build_dumbbell(Simulator(), n_left=0)
        with pytest.raises(ConfigurationError):
            build_dumbbell(Simulator(), n_right=0)


class TestMultiHostChain:
    def test_hosts_per_switch_inventory(self):
        net = build_chain(Simulator(), n_switches=3, hosts_per_switch=2)
        hosts = sorted(n for n in net.nodes if n.startswith("host"))
        assert hosts == [f"host{i}" for i in range(1, 7)]
        # Switch i carries hosts host{2i-1}, host{2i}.
        assert "host3" in net.nodes["sw2"].ports
        assert "host4" in net.nodes["sw2"].ports
        assert "host3" not in net.nodes["sw1"].ports

    def test_multi_hop_routes_with_shared_switches(self):
        net = build_chain(Simulator(), n_switches=3, hosts_per_switch=2)
        # host1 (sw1) -> host6 (sw3) crosses both inter-switch links.
        assert net.nodes["host1"].routes["host6"] == "sw1"
        assert net.nodes["sw1"].routes["host6"] == "sw2"
        assert net.nodes["sw2"].routes["host6"] == "sw3"
        assert net.nodes["sw3"].routes["host6"] == "host6"
        # Siblings on one switch reach each other without a switch hop.
        assert net.nodes["host3"].routes["host4"] == "sw2"
        assert net.nodes["sw2"].routes["host4"] == "host4"

    def test_access_buffers_configurable(self):
        net = build_chain(Simulator(), n_switches=2, hosts_per_switch=2,
                          access_buffer_packets=6)
        assert net.port("host1", "sw1").queue.capacity == 6
        assert net.port("sw1", "host2").queue.capacity == 6
        # Historical default stays infinite.
        default = build_chain(Simulator(), n_switches=2)
        assert default.port("host1", "sw1").queue.capacity is None

    def test_hosts_per_switch_validated(self):
        with pytest.raises(ConfigurationError):
            build_chain(Simulator(), n_switches=2, hosts_per_switch=0)


class TestAddRoute:
    """Hosts on one switch read one shared table; a route added to one
    of them is that host's alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_add_route_changes_no_other_host(self, n):
        net = build_dumbbell(Simulator(), n_left=n, n_right=n)
        before = {name: dict(node.routes) for name, node in net.nodes.items()}
        net.nodes["host1"].add_route("sw2", via="sw1")
        net.nodes["host1"].add_route("host2", via="sw1")
        assert net.nodes["host1"].routes == {**before["host1"], "sw2": "sw1"}
        for name, node in net.nodes.items():
            if name != "host1":
                assert dict(node.routes) == before[name], name
                assert "sw2" not in node.routes

    def test_add_route_on_a_host_with_two_ports_moves_its_sends(self):
        sim = Simulator()
        net = Network(sim)
        home, far = net.add_host("home"), net.add_host("far")
        sw1, sw2 = net.add_switch("sw1"), net.add_switch("sw2")
        net.connect(home, sw1, 1e6, 0.001, None, None)
        net.connect(home, sw2, 1e6, 0.001, None, None)
        net.connect(sw1, far, 1e6, 0.001, None, None)
        net.connect(sw1, sw2, 1e6, 0.001, None, None)
        net.compute_routes()
        taken = []
        for port in home.ports.values():
            port.send = lambda packet, port=port: taken.append(port) or True

        def first_hop():
            home.send(Packet(conn_id=1, kind=PacketKind.DATA, seq=0, size=500),
                      "far")
            return taken.pop()

        assert first_hop() is home.ports["sw1"] is home.port_toward("far")
        home.add_route("far", via="sw2")
        assert first_hop() is home.ports["sw2"] is home.port_toward("far")
        assert net.nodes["far"].routes == {"home": "sw1"}

    def test_recomputed_routes_cover_hosts_added_since(self):
        sim = Simulator()
        net = build_dumbbell(sim)
        late = net.add_host("late")
        net.connect(net.switch("sw2"), late, 1e6, 0.001, None, None)
        net.compute_routes()
        assert net.nodes["host1"].routes == {"host2": "sw1", "late": "sw1"}
        assert net.nodes["late"].routes == {"host1": "sw2", "host2": "sw2"}
        assert net.nodes["sw1"].routes["late"] == "sw2"
