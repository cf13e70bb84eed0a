"""Truncated dynamic program: hand cases, the two-sided value sandwich on
random and degenerate trees and around the chain MILP at n = 30-40, pinned
results, the integer type, input validation, and the child-merge advance
against brute force."""

import numpy as np
import pytest

import oracles
from scnptree import dp, dp_solve, generate_instance, make_instance
from scnptree.dp import (
    STATE_CAP,
    NonUnitCosts,
    StateOverflow,
    _int_dtype,
    _scaled_probabilities,
)
from scnptree.evaluator import objective_tree
from scnptree.instance import AttackVector, build_path_table
from scnptree.milpcore import STATUS_OPTIMAL, solve_milp
from scnptree.models import build_chain_milp


def unit_instance(rng, n, max_attacks):
    return oracles.random_tree_instance(rng, n, "unit", budget=float(max_attacks))


def test_two_node_hand_case():
    inst = make_instance(2, [(0, 1)], [0.3, 0.4], [1.0, 1.0], None, 2.0)
    res = dp_solve(inst, max_attacks=2, nu=6)
    assert res.attack == AttackVector((1, 1))
    assert res.exact_value == pytest.approx(0.12, abs=1e-9)
    assert res.truncated_value <= res.exact_value + 1e-12
    assert res.slack_bound == pytest.approx(1 / 10**6)


def test_three_node_path_attacks_the_middle():
    inst = make_instance(
        3, [(0, 1), (1, 2)], [0.8, 0.5, 0.9], [1.0] * 3, None, 1.0
    )
    res = dp_solve(inst, max_attacks=1, nu=6)
    assert res.attack == AttackVector((0, 1, 0))
    assert res.exact_value == pytest.approx(1.5, abs=1e-9)


def test_zero_attacks_counts_every_pair():
    rng = np.random.default_rng(70)
    inst = unit_instance(rng, 8, 0)
    res = dp_solve(inst, max_attacks=0, nu=3)
    assert res.attack == AttackVector((0,) * 8)
    assert res.exact_value == pytest.approx(28.0, abs=1e-12)
    assert res.truncated_value == pytest.approx(28.0, abs=1e-12)


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_value_sandwich_against_brute_force(nu):
    rng = np.random.default_rng(71 + nu)
    for _ in range(12):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, n))
        inst = unit_instance(rng, n, k)
        res = dp_solve(inst, max_attacks=k, nu=nu)
        _, opt = oracles.brute_force_optimum(inst)
        assert res.truncated_value <= opt + 1e-9
        assert opt <= res.truncated_value + res.slack_bound + 1e-9
        assert opt - 1e-9 <= res.exact_value <= res.truncated_value + res.slack_bound + 1e-9
        assert sum(res.attack.flags) <= k
        replay = objective_tree(inst, build_path_table(inst), res.attack)
        assert replay == pytest.approx(res.exact_value, abs=1e-9)


def star(n):
    return [(0, i) for i in range(1, n)]


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


# (node count, edges, survival probabilities, max attacks); 1/3 and 0.123
# have no two-decimal form, so they take the Python-int arithmetic
DEGENERATE_TREES = {
    "n1": (1, [], [0.4], 1),
    "n1-k0": (1, [], [0.0], 0),
    "n2": (2, [(0, 1)], [0.3, 0.9], 1),
    "n2-k2": (2, [(0, 1)], [0.0, 1.0], 2),
    "path-k0": (6, path(6), [0.2, 0.5, 0.0, 0.9, 0.33, 0.7], 0),
    "star-k0": (6, star(6), [0.1, 0.6, 0.8, 0.0, 1.0, 0.45], 0),
    "star-k-n-minus-1": (7, star(7), [0.5, 0.2, 0.9, 0.1, 0.6, 0.3, 0.75], 6),
    "path-k-above-n": (6, path(6), [0.5, 0.25, 0.9, 0.1, 0.6, 0.3], 9),
    "path-p-0-1": (7, path(7), [0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], 2),
    "star-p-0-1": (7, star(7), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0], 3),
    "star-thirds": (6, star(6), [1 / 3] * 6, 2),
    "path-non-decimal": (7, path(7), [0.123, 1 / 3, 0.5, 0.123, 0.9, 2 / 3, 0.0], 2),
    "star-non-decimal-p-0-1": (6, star(6), [1 / 3, 0.123, 1.0, 0.0, 0.123, 1.0], 4),
}


@pytest.mark.parametrize("case", DEGENERATE_TREES)
def test_degenerate_trees_keep_the_sandwich(case):
    n, edges, probabilities, k = DEGENERATE_TREES[case]
    inst = make_instance(n, edges, probabilities, [1.0] * n, None, float(k))
    _, opt = oracles.brute_force_optimum(inst)
    table = build_path_table(inst)
    for nu in (2, 4):
        for root in range(n):
            res = dp_solve(inst, max_attacks=k, nu=nu, root=root)
            assert res.truncated_value <= opt + 1e-9
            assert opt - 1e-9 <= res.exact_value <= res.truncated_value + res.slack_bound + 1e-9
            assert sum(res.attack.flags) <= k
            assert objective_tree(inst, table, res.attack) == pytest.approx(res.exact_value, abs=1e-9)


# (states, transitions) of the DP before attacked roots dropped the
# unattacked-root states they beat, by generator seed
PINNED_CEILINGS = {801: (4232, 13215), 1203: (17502, 62675), 270: (166, 238)}


@pytest.mark.parametrize(
    "n, seed, k, nu, root, value, attacked, states, transitions",
    [
        (80, 801, 8, 4, 0, 264.7855, [28, 29, 53, 55, 67, 68, 77, 78], 3164, 8183),
        (120, 1203, 12, 3, 0, 617.657, [7, 10, 30, 43, 50, 52, 59, 71, 73, 84, 103, 118], 11945, 40093),
        # two attack sets reach the same value here; only the tie rule picks
        (17, 270, 3, 2, 14, 55.19, [1, 7, 12], 159, 225),
    ],
)
def test_pinned_generator_instances(n, seed, k, nu, root, value, attacked, states, transitions):
    # values and attacks recorded from the dict-based DP that preceded the
    # array tables: ties between equal values break the same way
    res = dp_solve(generate_instance(n, "unit", seed), max_attacks=k, nu=nu, root=root)
    assert res.truncated_value == value
    assert res.attack == AttackVector.from_nodes(attacked, n)
    assert (res.state_count, res.transition_count) == (states, transitions)
    state_ceiling, transition_ceiling = PINNED_CEILINGS[seed]
    assert res.state_count <= state_ceiling and res.transition_count <= transition_ceiling


def test_level_tables_are_sorted_and_undominated(monkeypatch):
    tables = []
    merge = dp._merge

    def recording(*args):
        table, pairs = merge(*args)
        tables.append(table)
        return table, pairs

    monkeypatch.setattr(dp, "_merge", recording)
    rng = np.random.default_rng(82)
    for trial in range(40):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(0, n + 2))
        p = [round(float(rng.uniform()), 2) for _ in range(n)]
        for node in rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False):
            p[node] = float(rng.integers(0, 2))  # sure survivors and sure losses
        if trial % 5 == 0:
            p[0] = 1 / 3  # object arrays
        edges = oracles.random_tree_instance(rng, n).edges
        inst = make_instance(n, list(edges), p, [1.0] * n, None, float(k))
        dp_solve(inst, max_attacks=k, nu=int(rng.integers(1, 4)), root=int(rng.integers(0, n)))
    assert len(tables) > 200
    for table in tables:
        attacks, flag, c, value = (np.array(column.tolist()) for column in table[:4])
        keys = list(zip(attacks.tolist(), flag.tolist(), c.tolist()))
        assert keys == sorted(set(keys))
        same_cell = (attacks[1:] == attacks[:-1]) & (flag[1:] == flag[:-1])
        assert (value[1:][same_cell] < value[:-1][same_cell]).all()
        for row in np.flatnonzero(flag == 0):
            beats = (attacks == attacks[row]) & (flag == 1) & (c <= c[row]) & (value < value[row])
            assert not beats.any()


@pytest.mark.parametrize("root, attacked", [(0, [0, 10, 11]), (11, [0, 9, 10])])
def test_equal_states_keep_the_first_pair_formed(root, attacked):
    # identical leaves reach each state through many pairs; keeping the
    # first pair formed decides which of the equal attacks is replayed
    n = 12
    star = make_instance(n, [(0, k) for k in range(1, n)], [0.5] * n, [1.0] * n, None, 3.0)
    res = dp_solve(star, max_attacks=3, nu=2, root=root)
    assert res.attack == AttackVector.from_nodes(attacked, n)


def test_generator_instances_take_int64():
    # object arrays are exact too, but several times slower
    for n in range(1, 201):
        _, den = _scaled_probabilities(generate_instance(n, "unit", n))
        for nu in range(1, 5):
            assert _int_dtype(n, 10**nu, den) is np.int64
    binary = make_instance(3, path(3), [1 / 3, 0.5, 0.123], [1.0] * 3, None, 1.0)
    _, den = _scaled_probabilities(binary)
    assert _int_dtype(3, 10**2, den) is object


def test_fine_truncation_recovers_the_optimum():
    rng = np.random.default_rng(75)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        inst = unit_instance(rng, n, k)
        res = dp_solve(inst, max_attacks=k, nu=6)
        _, opt = oracles.brute_force_optimum(inst)
        assert res.exact_value == pytest.approx(opt, abs=1e-4)


@pytest.mark.parametrize("n, seed", [(30, 1), (30, 2), (30, 3), (40, 1)])
def test_sandwich_holds_around_the_chain_milp(n, seed):
    # past exhaustive search, the chain MILP closed to an absolute gap of
    # 1e-6 stands in for the optimum
    inst = generate_instance(n, "unit", seed)
    k = int(inst.budget + 1e-9)
    res = dp_solve(inst, max_attacks=k, nu=5)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    milp = solve_milp(model, gap=1e-6)
    assert milp.status == STATUS_OPTIMAL
    assert res.truncated_value <= milp.objective + 1e-9
    assert milp.objective <= res.truncated_value + res.slack_bound + 1e-6
    assert res.exact_value >= milp.objective - 1e-6


def test_root_choice_does_not_change_the_value():
    rng = np.random.default_rng(76)
    inst = unit_instance(rng, 7, 3)
    values = {
        dp_solve(inst, max_attacks=3, nu=6, root=r).exact_value for r in range(7)
    }
    assert max(values) - min(values) <= 1e-9


def test_rejects_non_unit_attack_costs():
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5] * 3, [1.0, 2.0, 1.0], None, 2.0)
    with pytest.raises(NonUnitCosts):
        dp_solve(inst, max_attacks=1, nu=3)


def test_rejects_non_unit_connection_costs():
    inst = make_instance(
        3, [(0, 1), (1, 2)], [0.5] * 3, [1.0] * 3, [(0, 2, 4.0)], 2.0
    )
    with pytest.raises(NonUnitCosts):
        dp_solve(inst, max_attacks=1, nu=3)


def test_state_cap_overflow():
    # n*n*K*mu = 200 * 200 * 20 * 10**4 = 8e9 exceeds the cap; it raises
    # before any merge.
    inst = generate_instance(200, "unit", 1)
    assert 200 * 200 * 20 * 10**4 > STATE_CAP
    with pytest.raises(StateOverflow):
        dp_solve(inst, max_attacks=20, nu=4)


def test_attack_count_is_capped_at_n():
    # no tree allows more than n attacks, so a larger count changes nothing
    # and stays clear of the state cap
    inst = generate_instance(8, "unit", 1)
    assert 8 * 8 * 10**9 * 10**4 > STATE_CAP
    assert dp_solve(inst, max_attacks=10**9, nu=4) == dp_solve(inst, max_attacks=8, nu=4)


def test_parameter_validation():
    rng = np.random.default_rng(78)
    inst = unit_instance(rng, 4, 2)
    with pytest.raises(ValueError):
        dp_solve(inst, max_attacks=-1, nu=3)
    with pytest.raises(ValueError):
        dp_solve(inst, max_attacks=1, nu=0)
    with pytest.raises(ValueError):
        dp_solve(inst, max_attacks=1, nu=3, root=4)


def test_counters_track_work():
    rng = np.random.default_rng(79)
    inst = unit_instance(rng, 9, 4)
    small = dp_solve(inst, max_attacks=1, nu=2)
    large = dp_solve(inst, max_attacks=4, nu=4)
    assert small.state_count > 0 and small.transition_count > 0
    assert large.state_count > small.state_count
    assert large.transition_count > small.transition_count


def test_child_advance_matches_brute_force():
    rng = np.random.default_rng(80)
    for _ in range(40):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, n))
        inst = unit_instance(rng, n, k)
        _, opt = oracles.brute_force_optimum(inst)
        res = dp_solve(inst, max_attacks=k, nu=6)
        assert res.exact_value == pytest.approx(opt, abs=1e-6)
