"""Instance container, validation, serialization, and path table."""

import collections
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scnptree.cli import solve_instance
from scnptree.evaluator import batch_objective, objective_tree, pair_survival
from scnptree.generator import generate_instance
from scnptree.instance import (
    AttackVector,
    InstanceError,
    NegativeConnectionCost,
    NonpositiveAttackCost,
    NotATree,
    ParseError,
    PathTable,
    ProbabilityOutOfRange,
    build_path_table,
    make_instance,
    normalize_pair,
    read_instance,
    rooted,
    write_instance,
)


def small_instance():
    return make_instance(
        4,
        [(0, 1), (1, 2), (1, 3)],
        [0.5, 0.25, 1.0, 0.0],
        [1.0, 2.0, 1.0, 3.0],
        [(0, 2, 4.0), (1, 3, 0.5)],
        3.0,
    )


def test_normalize_pair_orders_endpoints():
    assert normalize_pair(3, 1) == (1, 3)
    assert normalize_pair(1, 3) == (1, 3)


def test_pair_cost_defaults_to_unit_for_missing_pairs():
    inst = small_instance()
    assert inst.pair_cost(0, 2) == 4.0
    assert inst.pair_cost(2, 0) == 4.0
    assert inst.pair_cost(0, 1) == 1.0  # not listed explicitly
    assert inst.pair_cost(1, 3) == 0.5


def test_unit_costs_total():
    inst = make_instance(5, [(0, 1), (0, 2), (2, 3), (2, 4)], [0.5] * 5, [1.0] * 5, None, 2.0)
    assert inst.total_connection_cost() == 10.0  # 5 choose 2


def test_leaves_and_adjacency_sorted():
    inst = small_instance()
    assert inst.leaves() == [0, 2, 3]
    assert inst.adjacency() == [[1], [0, 2, 3], [1], [1]]


def test_validate_rejects_cycle():
    with pytest.raises(NotATree):
        make_instance(3, [(0, 1), (1, 2), (0, 2)], [0.5] * 3, [1.0] * 3, None, 1.0)


def test_validate_rejects_disconnected():
    with pytest.raises(NotATree):
        make_instance(4, [(0, 1), (2, 3), (0, 1)], [0.5] * 4, [1.0] * 4, None, 1.0)


def test_validate_rejects_bad_probability():
    with pytest.raises(ProbabilityOutOfRange):
        make_instance(2, [(0, 1)], [0.5, 1.5], [1.0, 1.0], None, 1.0)
    with pytest.raises(ProbabilityOutOfRange):
        make_instance(2, [(0, 1)], [-0.1, 0.5], [1.0, 1.0], None, 1.0)


def test_validate_rejects_nonpositive_attack_cost():
    with pytest.raises(NonpositiveAttackCost):
        make_instance(2, [(0, 1)], [0.5, 0.5], [0.0, 1.0], None, 1.0)


def test_validate_rejects_negative_connection_cost():
    with pytest.raises(NegativeConnectionCost):
        make_instance(2, [(0, 1)], [0.5, 0.5], [1.0, 1.0], [(0, 1, -2.0)], 1.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "field, error",
    [("kappa", NonpositiveAttackCost), ("c", NegativeConnectionCost), ("K", NonpositiveAttackCost)],
)
def test_validate_rejects_non_finite_numbers(field, error, value):
    kappa = [value, 1.0] if field == "kappa" else [1.0, 1.0]
    costs = [(0, 1, value)] if field == "c" else None
    budget = value if field == "K" else 1.0
    with pytest.raises(error):
        make_instance(2, [(0, 1)], [0.5, 0.5], kappa, costs, budget)


def test_validate_rejects_an_infinite_total_connection_cost():
    # every pair cost is finite, but their sum overflows
    costs = [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)]
    with pytest.raises(NegativeConnectionCost, match="total connection cost inf") as info:
        make_instance(3, [(0, 1), (1, 2)], [0.5] * 3, [1.0] * 3, costs, 1.0)
    assert info.value.report == ["total connection cost inf is not finite"]


def test_validate_ends_on_a_cycle_beside_an_isolated_root():
    # three edges for four nodes, but they close a cycle and leave node 0 alone
    with pytest.raises(NotATree, match=r"nodes \[1, 2, 3\] unreachable from node 0"):
        make_instance(4, [(1, 2), (2, 3), (1, 3)], [0.5] * 4, [1.0] * 4, None, 1.0)


def test_validate_collects_full_report():
    with pytest.raises(InstanceError) as info:
        make_instance(3, [(0, 1), (0, 1)], [2.0, 0.5, 0.5], [1.0, -1.0, 1.0], None, 1.0)
    assert len(info.value.report) >= 2


def test_round_trip_preserves_instance(tmp_path):
    inst = small_instance()
    target = tmp_path / "inst.json"
    write_instance(inst, target)
    back = read_instance(target)
    assert back.node_count == inst.node_count
    assert back.edges == inst.edges
    assert back.survival_prob == inst.survival_prob
    assert back.attack_cost == inst.attack_cost
    assert back.connection_cost == inst.connection_cost
    assert back.budget == inst.budget


def test_unit_costs_serialize_as_marker(tmp_path):
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5] * 3, [1.0] * 3, None, 1.0)
    target = tmp_path / "unit.json"
    write_instance(inst, target)
    payload = json.loads(target.read_text())
    assert payload["c"] == "unit"
    assert read_instance(target).connection_cost is None


def test_read_instance_reports_field(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text('{"n": 2, "edges": [[0, 1]], "kappa": [1, 1], "c": "unit", "K": 1}')
    with pytest.raises(ParseError) as info:
        read_instance(target)
    assert info.value.field == "p"


def test_read_instance_length_mismatch_is_validation_error(tmp_path):
    target = tmp_path / "short.json"
    target.write_text('{"n": 2, "edges": [[0, 1]], "p": [0.5], "kappa": [1, 1], "c": "unit", "K": 1}')
    with pytest.raises(ProbabilityOutOfRange):
        read_instance(target)


def test_read_instance_rejects_garbage(tmp_path):
    target = tmp_path / "garbage.json"
    target.write_text("this is not json")
    with pytest.raises(ParseError):
        read_instance(target)


def test_path_table_matches_bfs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = oracles.random_tree_instance(rng, int(rng.integers(2, 12)))
        table = build_path_table(inst)
        expected = oracles.tree_paths(inst.node_count, inst.edges)
        assert dict(table.paths) == expected
        assert set(table.pairs()) == set(expected)


def test_path_orientation_starts_at_smaller_node():
    inst = small_instance()
    table = build_path_table(inst)
    assert table.path(3, 0) == (0, 1, 3)
    assert table.path(0, 3) == (0, 1, 3)


def _reference_table(inst):
    """parent, levels and slots by walking parent pointers pair by pair."""
    n = inst.node_count
    adj = inst.adjacency()
    parent, depth, queue = {0: 0}, {0: 0}, [0]
    for node in queue:
        for nxt in adj[node]:
            if nxt not in parent:
                parent[nxt], depth[nxt] = node, depth[node] + 1
                queue.append(nxt)

    chains = []
    for node in range(n):
        chain = [node]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chains.append(chain)

    slots = []
    for i in range(n):
        above_i = set(chains[i])
        for j in range(i + 1, n):
            top = next(a for a in chains[j] if a in above_i)
            slots.append(((depth[i] - depth[top]) * n + i, (depth[j] - depth[top] + 1) * n + j))
    levels = max(depth.values()) + 2
    return [parent[i] for i in range(n)], levels, np.array(slots, dtype=int).reshape(-1, 2).T


def _assert_table_matches_reference(inst):
    table = build_path_table(inst)
    assert "slots" not in table.__dict__  # filled by the first read
    parent, levels, slots = _reference_table(inst)
    assert table.parent.tolist() == parent
    assert table.levels == levels
    assert np.array_equal(table.slots, slots)
    assert table.slots is table.slots
    assert not table.slots.flags.writeable
    return table


def _assert_columns_are_path_products(inst, table, rng):
    rows = rng.integers(0, 2, size=(3, inst.node_count))
    factors = 1.0 - (1.0 - np.array(inst.survival_prob)) * rows
    expected = [factors[:, list(table.path(i, j))].prod(axis=1) for i, j in table.pairs()]
    survival = pair_survival(inst, table, rows)
    assert survival.shape == (3, len(expected))
    np.testing.assert_allclose(survival, np.reshape(expected, (-1, 3)).T, rtol=1e-12, atol=0.0)


def _unit_tree(n, edges):
    return make_instance(n, edges, [0.5 + 0.01 * (k % 40) for k in range(n)], [1.0] * n, None, 1.0)


def test_path_table_of_a_single_node():
    inst = _unit_tree(1, [])
    table = _assert_table_matches_reference(inst)
    assert table.slots.shape == (2, 0)
    assert list(table.pairs()) == []
    assert table.paths == {}
    assert pair_survival(inst, table, np.ones((2, 1))).shape == (2, 0)
    assert objective_tree(inst, table, AttackVector((1,))) == 0.0
    assert batch_objective(inst, table, np.zeros((2, 1))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "n, edges, levels",
    [
        (2, [(0, 1)], 3),
        (10, [(0, k) for k in range(1, 10)], 3),  # star around the root
        (10, [(4, k) for k in range(10) if k != 4], 4),  # star around a leaf's neighbour
        (200, [(k, k + 1) for k in range(199)], 201),  # path rooted at one end
        (200, [(k, (k + 101) % 200) for k in range(199)], 102),  # path rooted inside
    ],
    ids=["two", "star-root", "star-leaf", "path200-end", "path200-inner"],
)
def test_path_table_on_degenerate_trees(n, edges, levels):
    inst = _unit_tree(n, edges)
    table = _assert_table_matches_reference(inst)
    assert table.levels == levels
    _assert_columns_are_path_products(inst, table, np.random.default_rng(n))


def test_path_table_matches_parent_pointer_reference():
    rng = np.random.default_rng(17)
    for n in list(range(1, 13)) + [int(k) for k in rng.integers(13, 61, size=20)]:
        inst = oracles.random_tree_instance(rng, n)
        table = _assert_table_matches_reference(inst)
        assert list(table.pairs()) == sorted(table.pairs())
        assert list(table.pairs()) == list(table.paths)
        _assert_columns_are_path_products(inst, table, rng)


def test_path_table_slot_ends_are_the_upper_triangle():
    rng = np.random.default_rng(29)
    for n in list(range(1, 41)) + [200]:
        inst = oracles.random_tree_instance(rng, n)
        slots = _assert_table_matches_reference(inst).slots
        ends = np.array(np.triu_indices(n, 1))
        assert slots.dtype == ends.dtype
        assert np.array_equal(slots % n, ends)


def test_path_table_eager_arrays_are_the_walk():
    rng = np.random.default_rng(23)
    for n in (1, 2, 9, 40):
        inst = oracles.random_tree_instance(rng, n)
        table = build_path_table(inst)
        assert table.preorder.tolist() == rooted(inst)[1]
        for array in (table.parent, table.preorder, table.depth, table.size):
            assert not array.flags.writeable
        assert "slots" not in table.__dict__
        chains = [(0,)] + [table.path(0, node) for node in range(1, n)]  # root down to each node
        assert table.depth.tolist() == [len(chain) - 1 for chain in chains]
        assert table.size.tolist() == [sum(node in chain for chain in chains) for node in range(n)]


def _count_fills(monkeypatch):
    """Count each run of the functions behind ``PathTable``'s cached
    properties, by property name."""
    fills = collections.Counter()
    for name in ("slots", "paths", "bottom_up"):
        prop = PathTable.__dict__[name]

        def counted(table, name=name, func=prop.func):
            fills[name] += 1
            return func(table)

        monkeypatch.setattr(prop, "func", counted)
    return fills


def test_an_instance_has_one_path_table(monkeypatch):
    fills = _count_fills(monkeypatch)
    inst = generate_instance(7, "type1", 3)
    assert build_path_table(inst) is build_path_table(inst)
    records = [solve_instance(inst, method, {}) for method in ("milp", "benders", "exhaustive")]
    best = records[-1]["value"]
    assert [record["value"] for record in records] == pytest.approx([best] * 3, abs=1e-3)
    attack = AttackVector.from_nodes(records[-1]["attack"], 7)
    assert objective_tree(inst, build_path_table(inst), attack) == pytest.approx(best, rel=1e-12)
    assert fills == {"slots": 1, "paths": 1}

    unit = generate_instance(9, "unit", 3)
    dp_record = solve_instance(unit, "dp", {})
    optimum = solve_instance(unit, "exhaustive", {})["value"]
    assert dp_record["bound"] - 1e-9 <= optimum <= dp_record["value"] + 1e-9
    assert fills == {"slots": 1, "paths": 1, "bottom_up": 1}

    copy = dataclasses.replace(inst)
    assert build_path_table(copy) is not build_path_table(inst)
    assert objective_tree(copy, build_path_table(copy), attack) == objective_tree(inst, build_path_table(inst), attack)
    assert fills["slots"] == 2


def test_a_pickled_instance_evaluates_the_same():
    for scheme in ("unit", "type2"):
        inst = generate_instance(12, scheme, 5)
        flags = (np.random.default_rng(5).uniform(size=(20, 12)) < 0.3).astype(np.uint8)
        values = batch_objective(inst, build_path_table(inst), flags)
        attack = AttackVector(tuple(flags[0].tolist()))
        value = objective_tree(inst, build_path_table(inst), attack)
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst
        assert np.array_equal(batch_objective(back, build_path_table(back), flags), values)
        assert objective_tree(back, build_path_table(back), attack) == value


def test_a_pickle_carries_no_derived_values():
    # the unpickled instance rebuilds its table, slots and costs read-only,
    # and the pickle is no longer than a fresh equal instance's
    inst = generate_instance(8, "type1", 1)
    build_path_table(inst).slots
    inst.pair_cost_array
    fresh = generate_instance(8, "type1", 1)
    assert len(pickle.dumps(inst)) == len(pickle.dumps(fresh))
    back = pickle.loads(pickle.dumps(inst))
    table = build_path_table(back)
    for array in (back.pair_cost_array, table.slots, table.parent, table.preorder, table.depth, table.size):
        assert not array.flags.writeable


def test_attack_vector_constructors_and_cost():
    inst = small_instance()
    attack = AttackVector.from_nodes([3, 0], 4)
    assert attack.flags == (1, 0, 0, 1)
    assert attack.attacked == (0, 3)
    assert attack.total_cost(inst) == 4.0
    assert AttackVector.empty(4).flags == (0, 0, 0, 0)


def test_attack_vector_rejects_nodes_outside_the_instance():
    for node in (4, -1):
        with pytest.raises(ValueError, match="outside"):
            AttackVector.from_nodes([0, node], 4)


def test_attack_feasibility_budget_and_certain_nodes():
    inst = small_instance()
    assert AttackVector.from_nodes([0, 1], 4).is_feasible(inst)  # cost 3 = budget
    assert not AttackVector.from_nodes([0, 3], 4).is_feasible(inst)  # cost 4 > 3
    assert not AttackVector.from_nodes([2], 4).is_feasible(inst)  # p = 1 node


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_instances(tmp_path_factory, n, seed):
    rng = np.random.default_rng(seed)
    inst = oracles.random_tree_instance(rng, n, "weighted" if seed % 2 else "unit")
    target = tmp_path_factory.mktemp("roundtrip") / "x.json"
    write_instance(inst, target)
    back = read_instance(target)
    assert back == inst
