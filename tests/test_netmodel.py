"""Network model construction, validation, separability and decoupling."""

import json
import math

import pytest

from netident import (
    Edge,
    MAX_NODES,
    NetworkFormatError,
    NetworkModel,
    NotSeparableError,
    ValidationError,
    decouple,
    is_separable,
    load_network,
    random_network,
    save_network,
    separate,
)
from netident.netmodel import network_from_dict, network_to_dict

from corpus import chain_net, fan_net, minimal_net
from helpers import permute


class TestValidate:
    def test_minimal_net_is_valid(self):
        """The 2-node single-unknown network passes every invariant."""
        assert minimal_net().n == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match=r"^self-loop at node 1$"):
            NetworkModel(2, [Edge(0, 0, known=True)], [0], [1])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match=r"^duplicate edge 1->2$"):
            NetworkModel(2, [Edge(0, 1, known=True), Edge(0, 1, known=False)], [0], [1])

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"^node index 3 out of range 1\.\.2 in edge 1->3$"):
            NetworkModel(2, [Edge(0, 2, known=True)], [0], [1])
        with pytest.raises(ValidationError, match=r"^node index 6 out of range 1\.\.2 in excited$"):
            NetworkModel(2, [Edge(0, 1, known=True)], [5], [1])

    def test_duplicate_excitation_and_measurement_rejected(self):
        with pytest.raises(ValidationError, match=r"^node 1 excited twice$"):
            NetworkModel(2, [Edge(0, 1, known=False)], [0, 0], [1])
        with pytest.raises(ValidationError, match=r"^node 2 measured twice$"):
            NetworkModel(2, [Edge(0, 1, known=False)], [0], [1, 1])

    def test_node_may_be_both_excited_and_measured(self):
        """Dual roles are legal in general networks; only separability rejects them."""
        net = NetworkModel(2, [Edge(0, 1, known=False)], [0, 1], [1])
        assert not is_separable(net)


class TestSeparate:
    def test_fan_net_bipartition(self):
        """All unknown edges cross from the excited part to the measured part; every known edge is excited-side."""
        net = fan_net()
        blocks = separate(net)
        assert blocks.b_part == {0, 1, 2, 3}
        assert blocks.c_part == {4}
        assert all(e.src in blocks.b_part and e.dst in blocks.c_part for e in net.unknown_edges)
        assert all(e.src in blocks.b_part for e in net.known_edges) and len(net.known_edges) == 4

    def test_block_structure_invariants(self):
        """Known edges stay inside a part; nothing runs measured-to-excited."""
        for seed in range(30):
            net = random_network(
                nodes=7, unknowns=2, excited=2, measured=1, separable=True, seed=seed
            )
            blocks = separate(net)
            assert blocks.b_part | blocks.c_part == set(range(net.n))
            assert not (blocks.b_part & blocks.c_part)
            assert set(net.excited) <= blocks.b_part
            assert set(net.measured) <= blocks.c_part
            for e in net.edges:
                if e.known:
                    assert (e.src in blocks.b_part) == (e.dst in blocks.b_part)
                else:
                    assert e.src in blocks.b_part and e.dst in blocks.c_part

    def test_conflict_node_excited_and_measured(self):
        net = NetworkModel(4, [Edge(3, 1, known=False)], [3], [3, 1])
        with pytest.raises(NotSeparableError) as err:
            separate(net)
        assert err.value.node == 3

    def test_conflict_chained_unknown_edges(self):
        """A node that is head of one unknown edge and tail of another cannot be labeled."""
        net = NetworkModel(4, [Edge(1, 2, known=False), Edge(2, 3, known=False)], [1], [3])
        with pytest.raises(NotSeparableError) as err:
            separate(net)
        assert err.value.node == 2

    def test_known_edges_propagate_conflict(self):
        """Known edges glue their endpoints into one component."""
        net = NetworkModel(
            3,
            [Edge(0, 1, known=True), Edge(1, 2, known=False)],
            [1],
            [0],
        )
        # node 0 is measured, but its known-edge component holds excited node 1
        with pytest.raises(NotSeparableError):
            separate(net)

    def test_order_independence(self):
        """Renumbering the nodes renumbers the bipartition and nothing else."""
        for seed in range(20):
            net = random_network(
                nodes=6, unknowns=2, excited=1, measured=2, separable=True, seed=seed
            )
            perm = [(i + 3) % 6 for i in range(6)]
            moved = permute(net, perm)
            blocks = separate(net)
            moved_blocks = separate(moved)
            assert moved_blocks.b_part == {perm[v] for v in blocks.b_part}
            assert moved_blocks.c_part == {perm[v] for v in blocks.c_part}

    def test_unconstrained_components_go_to_excited_part(self):
        net = NetworkModel(3, [Edge(0, 1, known=False)], [0], [1])
        blocks = separate(net)
        assert 2 in blocks.b_part


class TestDecouple:
    def test_minimal_net(self):
        """The single unknown edge reappears as a cross edge from the excited copy."""
        dec = decouple(minimal_net(), 0)
        assert dec.n == 4
        by_pair = {(e.src, e.dst): e.known for e in dec.edges}
        assert by_pair == {(0, 1): True, (2, 3): True, (2, 1): False}
        assert dec.excited == (2,)
        assert dec.measured == (1,)

    def test_three_node_chain(self):
        """Both copies carry the full edge set as known; only the cross edge is unknown."""
        dec = decouple(chain_net(), 0)
        assert dec.n == 6
        known = {(e.src, e.dst) for e in dec.edges if e.known}
        unknown = {(e.src, e.dst) for e in dec.edges if not e.known}
        assert known == {(0, 1), (1, 2), (3, 4), (4, 5)}
        assert unknown == {(4, 2)}
        assert dec.excited == (3,)
        assert dec.measured == (2,)

    def test_always_separable(self):
        for seed in range(40):
            try:
                net = random_network(
                    nodes=3 + seed % 5,
                    unknowns=1 + seed % 3,
                    excited=1 + seed % 2,
                    measured=1 + seed % 2,
                    known_density=0.4,
                    seed=seed,
                )
            except Exception:
                continue
            dec = decouple(net, seed)
            assert is_separable(dec)

    def test_decouple_twice_still_valid_and_separable(self):
        twice = decouple(decouple(fan_net(), 0), 0)
        assert is_separable(twice)

    def test_seed_only_affects_values(self):
        valued = NetworkModel(
            2, [Edge(0, 1, known=True, value=2.5), Edge(1, 0, known=False)], [0], [1]
        )
        a = decouple(valued, 1)
        b = decouple(valued, 2)
        assert [(e.src, e.dst, e.known) for e in a.edges] == [
            (e.src, e.dst, e.known) for e in b.edges
        ]
        # measured copy keeps the original value; excited copies differ by seed
        assert a.edges[0].value == 2.5 == b.edges[0].value
        assert a.edges[2].value != b.edges[2].value


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        net = fan_net()
        path = tmp_path / "net.json"
        save_network(net, str(path))
        again = load_network(str(path))
        assert again == net

    def test_one_based_indices_in_files(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(minimal_net(), str(path))
        data = json.loads(path.read_text())
        assert data["edges"][0] == {"from": 1, "to": 2, "known": False}
        assert data["excited"] == [1] and data["measured"] == [2]

    def test_value_field_preserved(self):
        net = NetworkModel(2, [Edge(0, 1, known=True, value=0.25)], [0], [1])
        assert network_from_dict(network_to_dict(net)) == net

    def test_missing_field_named(self):
        with pytest.raises(NetworkFormatError, match="excited"):
            network_from_dict({"nodes": 2, "edges": [], "measured": []})

    def test_bad_edge_field_named(self):
        with pytest.raises(NetworkFormatError, match=r"edges\[0\]"):
            network_from_dict(
                {"nodes": 2, "edges": [{"from": 1, "known": True}], "excited": [], "measured": []}
            )

    def test_invalid_network_rejected_at_parse(self):
        data = {
            "nodes": 2,
            "edges": [{"from": 1, "to": 1, "known": True}],
            "excited": [1],
            "measured": [2],
        }
        with pytest.raises(NetworkFormatError, match="self-loop"):
            network_from_dict(data)

    @pytest.mark.parametrize(
        "field, patch",
        [
            ("nodes", lambda d: d.update(nodes=True)),
            ("from", lambda d: d["edges"][0].update({"from": True})),
            ("to", lambda d: d["edges"][0].update(to=True)),
            ("excited", lambda d: d.update(excited=[True])),
            ("measured", lambda d: d.update(measured=[True])),
        ],
    )
    def test_bool_node_index_rejected(self, field, patch):
        """JSON true is a Python int; read as node 1 it would silently pass validation."""
        data = network_to_dict(minimal_net())
        patch(data)
        with pytest.raises(NetworkFormatError, match=field):
            network_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])
    def test_non_finite_value_rejected(self, value):
        data = network_to_dict(chain_net())
        data["edges"][0]["value"] = value
        with pytest.raises(NetworkFormatError, match=r"edges\[0\]\.value"):
            network_from_dict(data)

    @pytest.mark.parametrize("nodes", [MAX_NODES + 1, 20000, 10**12])
    def test_node_count_ceiling(self, nodes):
        data = network_to_dict(minimal_net())
        data["nodes"] = nodes
        with pytest.raises(NetworkFormatError, match="'nodes' must be at most"):
            network_from_dict(data)

    def test_node_count_at_the_ceiling_loads(self):
        data = network_to_dict(minimal_net())
        data["nodes"] = MAX_NODES
        assert network_from_dict(data).n == MAX_NODES

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": 2,')
        with pytest.raises(NetworkFormatError, match="line"):
            load_network(str(path))
