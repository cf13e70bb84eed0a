"""Objective evaluation routes and the exhaustive solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scnptree.benders import pair_values
from scnptree.evaluator import (
    InstanceTooLarge,
    TooManyAttackedNodes,
    batch_objective,
    exhaustive_solve,
    feasible_attack_vectors,
    objective_scenarios,
    objective_tree,
)
from scnptree.instance import AttackVector, build_path_table, make_instance


def test_objective_no_attack_equals_total_cost():
    rng = np.random.default_rng(0)
    inst = oracles.random_tree_instance(rng, 8, "weighted")
    paths = build_path_table(inst)
    empty = AttackVector.empty(8)
    assert objective_tree(inst, paths, empty) == pytest.approx(inst.total_connection_cost())
    assert objective_scenarios(inst, empty) == pytest.approx(inst.total_connection_cost())


def test_objective_routes_agree_with_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        inst = oracles.random_tree_instance(rng, int(rng.integers(2, 12)), "weighted")
        paths = build_path_table(inst)
        attack = oracles.attack_with_at_most(rng, inst, 8)
        expected = oracles.expected_pair_connectivity(inst, attack.flags)
        assert objective_tree(inst, paths, attack) == pytest.approx(expected, abs=1e-9)
        assert objective_scenarios(inst, attack) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_objective_tree_vs_scenarios_property(n, seed):
    rng = np.random.default_rng(seed)
    inst = oracles.random_tree_instance(rng, n, "weighted" if seed % 2 else "unit")
    paths = build_path_table(inst)
    attack = oracles.attack_with_at_most(rng, inst, 8)
    assert objective_tree(inst, paths, attack) == pytest.approx(
        objective_scenarios(inst, attack), abs=1e-9
    )


def test_scenarios_guard_on_attack_size():
    inst = make_instance(
        30,
        [(i, i + 1) for i in range(29)],
        [0.5] * 30,
        [1.0] * 30,
        None,
        30.0,
    )
    attack = AttackVector.from_nodes(list(range(26)), 30)
    with pytest.raises(TooManyAttackedNodes):
        objective_scenarios(inst, attack)


def _random_weighted_case():
    rng = np.random.default_rng(2)
    inst = oracles.random_tree_instance(rng, 9, "weighted")
    return inst, [oracles.attack_with_at_most(rng, inst, 5).flags for _ in range(40)]


def _all_flag_rows(n):
    return [tuple((bits >> i) & 1 for i in range(n)) for bits in range(2**n)]


def _star_case():
    # p = 0 and p = 1 on attackable leaves: certain removal and certain survival
    inst = make_instance(5, [(0, i) for i in range(1, 5)], [0.5, 0.0, 1.0, 0.3, 0.0], [1.0] * 5, None, 5.0)
    return inst, _all_flag_rows(5)


def _path_case():
    # the zero-cost pair (1, 4) is listed; unlisted pairs default to cost 1
    costs = {(0, 5): 3.0, (1, 4): 0.0, (2, 3): 2.5}
    inst = make_instance(6, [(i, i + 1) for i in range(5)], [0.2, 0.0, 0.7, 1.0, 0.4, 0.9], [1.0] * 6, costs, 6.0)
    return inst, _all_flag_rows(6)


def _single_node_case():
    return make_instance(1, [], [0.5], [1.0], None, 1.0), [(0,), (1,)]


def _two_node_case():
    return make_instance(2, [(0, 1)], [0.0, 0.6], [1.0, 2.0], {(0, 1): 4.0}, 3.0), _all_flag_rows(2)


def _empty_batch_case():
    rng = np.random.default_rng(4)
    return oracles.random_tree_instance(rng, 7, "weighted"), np.zeros((0, 7), dtype=int)


KERNEL_CASES = {
    "random-weighted": _random_weighted_case,
    "star-certain-outcomes": _star_case,
    "path-zero-cost-pair": _path_case,
    "single-node": _single_node_case,
    "two-nodes": _two_node_case,
    "empty-batch": _empty_batch_case,
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_batch_objective_matches_single_route(case):
    inst, flag_rows = KERNEL_CASES[case]()
    paths = build_path_table(inst)
    rows = np.array(flag_rows, dtype=int).reshape(len(flag_rows), inst.node_count)
    values = batch_objective(inst, paths, rows)
    assert values.shape == (len(rows),)
    for row, value in zip(rows, values):
        attack = AttackVector(tuple(int(v) for v in row))
        expected = oracles.expected_pair_connectivity(inst, attack.flags)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(objective_tree(inst, paths, attack), abs=1e-9)
        per_pair = pair_values(inst, paths, attack)
        assert per_pair.shape == (len(list(paths.pairs())),)
        assert math.fsum(per_pair) == pytest.approx(expected, abs=1e-9)


def test_single_routes_after_a_chunked_batch():
    # 7140 pairs at n = 120 give chunks of 36 rows, so 100 rows reuse one
    # scratch buffer three times; no result handed out may share it
    rng = np.random.default_rng(9)
    inst = oracles.random_tree_instance(rng, 120, "weighted")
    paths = build_path_table(inst)
    rows = (rng.uniform(size=(100, 120)) < 0.2).astype(int)
    attacks = [AttackVector(tuple(row.tolist())) for row in rows]
    before = pair_values(inst, paths, attacks[0])
    values = batch_objective(inst, paths, rows)
    for index in (0, 35, 36, 99):
        expected = oracles.expected_pair_connectivity(inst, attacks[index].flags)
        assert values[index] == pytest.approx(expected, abs=1e-9)
        assert objective_tree(inst, paths, attacks[index]) == pytest.approx(expected, abs=1e-9)
        assert math.fsum(pair_values(inst, paths, attacks[index])) == pytest.approx(expected, abs=1e-9)
    batch_objective(inst, paths, 1 - rows)
    expected = oracles.expected_pair_connectivity(inst, attacks[0].flags)
    assert math.fsum(before) == pytest.approx(expected, abs=1e-9)


def test_feasible_attack_vectors_lexicographic_and_complete():
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5, 1.0, 0.5], [1.0, 1.0, 1.0], None, 2.0)
    vectors = list(feasible_attack_vectors(inst))
    # node 1 has p = 1 and never appears
    assert vectors == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]


def test_feasible_attack_vectors_budget_pruning():
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5, 0.5, 0.5], [2.0, 2.0, 2.0], None, 3.0)
    vectors = list(feasible_attack_vectors(inst))
    assert all(sum(v) <= 1 for v in vectors)
    assert len(vectors) == 4


def test_feasible_attack_vectors_guard():
    inst = make_instance(
        25,
        [(i, i + 1) for i in range(24)],
        [0.5] * 25,
        [1.0] * 25,
        None,
        25.0,
    )
    with pytest.raises(InstanceTooLarge):
        list(feasible_attack_vectors(inst))


def test_exhaustive_solve_branches_only_on_affordable_nodes():
    # 25 nodes with p < 1, but only five cost at most the budget
    cheap = (2, 7, 12, 17, 22)
    kappa = [1.0 if i in cheap else 100.0 for i in range(25)]
    inst = make_instance(25, [(i, i + 1) for i in range(24)], [0.5] * 25, kappa, None, 5.0)
    paths = build_path_table(inst)
    subsets = [[node for bit, node in enumerate(cheap) if mask >> bit & 1] for mask in range(32)]
    best = min(objective_tree(inst, paths, AttackVector.from_nodes(nodes, 25)) for nodes in subsets)
    attack, value = exhaustive_solve(inst)
    assert value == best
    assert attack.attacked == cheap  # attacking all five is best on a path
    assert len(list(feasible_attack_vectors(inst))) == 32


def test_exhaustive_solve_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(15):
        inst = oracles.random_tree_instance(rng, int(rng.integers(2, 9)), "weighted")
        flags, value = oracles.brute_force_optimum(inst)
        attack, found = exhaustive_solve(inst)
        assert found == pytest.approx(value, abs=1e-9)
        assert attack.flags == flags


def test_exhaustive_solve_tie_break_is_lexicographic():
    # symmetric star: attacking any single leaf gives the same value, and the
    # first minimizer in flag-tuple order is the one attacking the last leaf
    inst = make_instance(4, [(0, 1), (0, 2), (0, 3)], [1.0, 0.5, 0.5, 0.5], [1.0] * 4, None, 1.0)
    attack, _ = exhaustive_solve(inst)
    assert attack.flags == (0, 0, 0, 1)
    flags, _ = oracles.brute_force_optimum(inst)
    assert attack.flags == flags
