"""Chain formulation, the equal-probability selector formulation, and
the leaf dominance inequalities."""

import itertools
import math

import numpy as np
import pytest

import oracles
from scnptree import generate_instance, make_instance
from scnptree.evaluator import objective_tree
from scnptree.instance import BUDGET_SLACK, AttackVector, attackable_nodes, build_path_table
from scnptree.milpcore import STATUS_OPTIMAL, LinearModel, branchbound, solve_lp, solve_milp
from scnptree.models import (
    UnequalProbabilities,
    _add_attack_block,
    _budget_cliques,
    build_chain_milp,
    build_ilp_p,
    feasible_attack,
    model_size,
    valid_inequalities,
)


def final_level_cols(model, pairs):
    """Column of each pair's final survival level: position (i, j) of the
    paths from i, named ``s_{i}_{j}``."""
    return {(i, j): model.var_names.index(f"s_{i}_{j}") for i, j in pairs}


def equal_p_instance(n: int, p: float, seed: int):
    base = generate_instance(n, "type1", seed)
    return make_instance(
        n,
        list(base.edges),
        [p] * n,
        list(base.attack_cost),
        [(i, j, base.pair_cost(i, j)) for i in range(n) for j in range(i + 1, n)],
        base.budget,
    )


@pytest.mark.parametrize("vi", [False, True])
def test_chain_milp_matches_brute_force(vi):
    rng = np.random.default_rng(31)
    for trial in range(6):
        inst = oracles.random_tree_instance(rng, int(rng.integers(3, 9)), "weighted")
        paths = build_path_table(inst)
        model, attack_cols = build_chain_milp(inst, paths, add_valid_ineq=vi)
        res = solve_milp(model, gap=0.0)
        _, expected = oracles.brute_force_optimum(inst)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-7)
        attack = feasible_attack(model, inst, attack_cols, res.x)
        assert attack is not None and attack.is_feasible(inst)


def test_chain_milp_survival_levels_match_formula():
    rng = np.random.default_rng(32)
    inst = oracles.random_tree_instance(rng, 7, "weighted")
    paths = build_path_table(inst)
    model, attack_cols = build_chain_milp(inst, paths)
    res = solve_milp(model, gap=0.0)
    attack = feasible_attack(model, inst, attack_cols, res.x)
    assert attack is not None
    for pair, col in final_level_cols(model, paths.pairs()).items():
        level = float(res.x[col])
        expected = oracles.pair_slave_value(inst, paths.path(*pair), attack.flags)
        assert level * inst.pair_cost(*pair) == pytest.approx(expected, abs=1e-6)


def test_chain_milp_size_and_root_lp_are_pinned():
    # One survival column per (start node, node): 75 columns and 125 rows
    # here, where survival-plus-removal columns needed 140 x 243 and one
    # chain per pair 360 x 611.  The attack block's rounded budget and
    # count row lifted the root LP from 53.947526 to 60.524376, and its two
    # clique rows (v2 + v9 <= 1, v2 + v5 <= 1) lift it further; a tighter
    # block may only raise it.
    inst = generate_instance(10, "type1", 33)
    model, _ = build_chain_milp(inst, build_path_table(inst))
    assert (model.num_variables, model.num_rows) == (75, 125)
    root = solve_lp(model).objective
    assert root == pytest.approx(75.351773, abs=1e-6)
    assert root >= 60.524376 - 1e-9
    _, expected = oracles.brute_force_optimum(inst)
    assert expected == pytest.approx(77.9336, abs=1e-7)
    assert solve_milp(model, gap=0.0).objective == pytest.approx(expected, abs=1e-7)


def _projection_instance(shape: str, probs: str):
    rng = np.random.default_rng(35)
    n = 7
    edges = [(0, k) for k in range(1, n)] if shape == "star" else [(k, k + 1) for k in range(n - 1)]
    p = {
        "zero": [0.0] * n,
        "one": [1.0] * n,
        "zero_or_one": list(rng.integers(0, 2, n).astype(float)),
        "shared": [0.4] * n,
        "random": list(rng.random(n)),
    }[probs]
    # about a third of the pairs cost nothing
    costs = [(i, j, float(rng.integers(0, 3))) for i in range(n) for j in range(i + 1, n)]
    return make_instance(n, edges, p, [1.0] * n, costs, 3.0)


@pytest.mark.parametrize("probs", ["zero", "one", "zero_or_one", "shared", "random"])
@pytest.mark.parametrize("shape", ["star", "path"])
def test_chain_lp_at_fixed_binary_attacks_is_the_objective(shape, probs):
    # The chain model keeps only lower bounds on each survival level, so at
    # every fixed binary attack its LP must still land on the exact
    # objective, and every costed level on its path product.
    inst = _projection_instance(shape, probs)
    paths = build_path_table(inst)
    model, cols = build_chain_milp(inst, paths)
    lower, upper = np.array(model.lower), np.array(model.upper)
    attack_cols = list(cols)
    level_cols = final_level_cols(model, paths.pairs())
    attackable = [i for i in range(inst.node_count) if inst.survival_prob[i] < 1.0]
    for chosen in itertools.product((0, 1), repeat=len(attackable)):
        flags = [0] * inst.node_count
        for i, bit in zip(attackable, chosen):
            flags[i] = bit
        attack = AttackVector(tuple(flags))
        if not attack.is_feasible(inst):
            continue
        lower[attack_cols] = upper[attack_cols] = flags
        expected = objective_tree(inst, paths, attack)
        for backend in ("highs", "simplex"):
            res = solve_lp(model, backend=backend, lower=lower, upper=upper)
            assert res.status == STATUS_OPTIMAL
            assert res.objective == pytest.approx(expected, abs=1e-9)
            for pair in paths.pairs():
                if inst.pair_cost(*pair) > 0:
                    product = math.prod(
                        1.0 - (1.0 - inst.survival_prob[k]) * flags[k] for k in paths.path(*pair)
                    )
                    level = float(res.x[level_cols[pair]])
                    assert level == pytest.approx(product, abs=1e-9)


@pytest.mark.parametrize(
    ("n", "scheme", "floor", "root_lp"),
    [
        pytest.param(21, "unit", 97.0667278, 99.8521923, id="21-unit-97.0667278"),
        pytest.param(30, "type1", 359.4785543, 361.0869195, id="30-type1-359.4785543"),
    ],
)
def test_chain_root_lp_with_dominance_rows_is_pinned(n, scheme, floor, root_lp):
    # The floor is the root LP before the attack block rounded the budget
    # and capped the attack count; a tighter block may only raise it.
    inst = generate_instance(n, scheme, 1)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    root = solve_lp(model).objective
    assert root == pytest.approx(root_lp, abs=1e-6)
    assert root >= floor - 1e-9


def test_certain_nodes_are_fixed_to_zero():
    # a reward of 1 on attacking the p = 1 node tempts the search: only
    # the column's upper bound of 0 keeps v_0 at 0 (ilp-p needs equal p,
    # so its twin has p = 1 everywhere)
    for builder, probs in ((build_chain_milp, [1.0, 0.5, 0.3]), (build_ilp_p, [1.0] * 3)):
        inst = make_instance(3, [(0, 1), (1, 2)], probs, [1.0] * 3, None, 3.0)
        for backend in ("highs", "simplex"):
            model, attack_cols = builder(inst, build_path_table(inst))
            model.objective[attack_cols[0]] = -1.0
            res = solve_milp(model, gap=0.0, backend=backend)
            assert res.status == STATUS_OPTIMAL
            assert res.x[attack_cols[0]] == pytest.approx(0.0, abs=1e-9)


def _assert_attack_block_is_exact(inst):
    # a model holding only the attack block accepts a binary v exactly
    # when the attack is feasible
    model = LinearModel("attack_block")
    _add_attack_block(model, inst, add_valid_ineq=False)
    for flags in itertools.product((0, 1), repeat=inst.node_count):
        expected = AttackVector(flags).is_feasible(inst)
        assert model.is_feasible(np.array(flags, dtype=float)) == expected, (inst, flags)


def _reweighted(inst, survival_prob, budget):
    return make_instance(
        inst.node_count,
        inst.edges,
        survival_prob,
        inst.attack_cost,
        inst.connection_cost,
        budget,
    )


@pytest.mark.parametrize("scheme", ["unit", "type1", "type2", "type3"])
def test_attack_block_is_exact_on_seeded_instances(scheme):
    # 80 trees per scheme, n 1-8; some nodes get p = 0 or p = 1, and the
    # budget is the generator's, 0, on the integer grid, off it, and a
    # random cost sum exactly and 1e-10 either side
    rng = np.random.default_rng(37)
    for n in range(1, 9):
        for seed in range(10):
            base = generate_instance(n, scheme, seed)
            probs = [
                float(rng.choice([0.0, 1.0])) if rng.random() < 0.3 else p
                for p in base.survival_prob
            ]
            total = sum(base.attack_cost)
            chosen = rng.random(n) < 0.5
            edge = sum(c for c, pick in zip(base.attack_cost, chosen) if pick)
            for budget in (
                base.budget,
                0.0,
                float(rng.integers(0, math.ceil(total) + 1)),
                float(rng.uniform(0.0, total)),
                edge,
                edge + 1e-10,
                max(0.0, edge - 1e-10),
            ):
                _assert_attack_block_is_exact(_reweighted(base, probs, budget))


@pytest.mark.parametrize(
    "kappa, probs, budgets",
    [
        # gcd 2 among attackable nodes; the p = 1 node's odd cost is ignored
        ([2.0, 4.0, 6.0, 3.0], [0.5, 0.0, 0.5, 1.0], [0.0, 1.9, 2.0, 3.0, 5.9, 6.0, 7.0, 12.0, 50.0]),
        # one node above every budget but the last
        ([5.0, 1.0, 1.0, 1.0], [0.2, 0.4, 0.6, 0.8], [0.0, 1.0, 2.5, 3.0, 4.0, 5.0 - 1e-10, 8.0]),
        # fractional costs: no rounding, only bars and the count row
        ([0.3, 0.3, 0.4, 0.25], [0.1, 0.2, 0.3, 0.4], [0.25, 0.55, 0.6, 0.6 - 1e-10, 0.6 + 1e-10, 1.0, 1.25]),
        # mixed integer and fractional costs
        ([1.0, 2.0, 1.5, 3.0], [0.5] * 4, [1.0, 1.5, 2.5, 3.5, 4.5 - 1e-10, 4.5 + 1e-10]),
        # every node survives surely, or none survives
        ([1.0] * 4, [1.0] * 4, [0.0, 4.0]),
        ([1.0] * 4, [0.0] * 4, [0.0, 0.7, 1.0, 2.0 - 1e-10, 2.0 + 1e-10, 4.0]),
    ],
)
def test_attack_block_is_exact_on_hand_made_cases(kappa, probs, budgets):
    for budget in budgets:
        inst = make_instance(4, [(0, 1), (0, 2), (0, 3)], probs, kappa, None, budget)
        _assert_attack_block_is_exact(inst)


def _clique_rows(model):
    start, index, _ = model.row_matrix()
    return [
        index[start[r] : start[r + 1]].tolist()
        for r, name in enumerate(model.row_names)
        if name.startswith("clique_")
    ]


@pytest.mark.parametrize("scheme", ["unit", "type1", "type2", "type3"])
def test_clique_rows_bar_exactly_the_pairs_over_the_budget(scheme):
    # n 2-10, seeds 0-14, every binary v: a point that breaks a clique row
    # is an infeasible attack, and every pair of attackable nodes whose
    # costs exceed the budget together breaks a clique row or the count row
    for n in range(2, 11):
        flags = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        for seed in range(15):
            inst = generate_instance(n, scheme, seed)
            model = LinearModel("attack_block")
            _add_attack_block(model, inst, add_valid_ineq=False)
            cliques = _clique_rows(model)
            broken = np.zeros(len(flags), dtype=bool)
            for cols in cliques:
                broken |= flags[:, cols].sum(axis=1) > 1.0
            for v in flags[broken]:
                assert not AttackVector(tuple(int(x) for x in v)).is_feasible(inst), (n, seed, v)
            count = [rhs for name, rhs in zip(model.row_names, model.rhs) if name == "count"]
            for a, b in itertools.combinations(attackable_nodes(inst), 2):
                if AttackVector.from_nodes((a, b), n).is_feasible(inst):
                    continue
                in_clique = any(a in cols and b in cols for cols in cliques)
                assert in_clique or count[0] < 2.0, (n, seed, a, b)


def test_budget_cliques_on_hand_made_costs():
    # costs 5, 4, 3, 2, 1 under K = 6.5: 5 conflicts with 4, 3 and 2, and 4
    # with 3; so the head clique {5, 4, 3} and {5, 2}
    inst = make_instance(5, [(0, k) for k in range(1, 5)], [0.5] * 5, [5.0, 4.0, 3.0, 2.0, 1.0], None, 6.5)
    assert _budget_cliques(inst, attackable_nodes(inst)) == [(0, 1, 2), (0, 3)]
    # a pair whose sum is exactly K + BUDGET_SLACK fits, so it is no conflict
    fits = (1.0 + BUDGET_SLACK) - 0.5
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5] * 3, [0.5, fits, 0.6], None, 1.0)
    assert AttackVector.from_nodes((0, 1), 3).is_feasible(inst)
    assert _budget_cliques(inst, attackable_nodes(inst)) == [(2, 1), (2, 0)]
    # K = 1 buys one node: the count row says it all
    inst = make_instance(3, [(0, 1), (1, 2)], [0.5] * 3, [1.0] * 3, None, 1.0)
    model, _ = build_chain_milp(inst, build_path_table(inst))
    assert _clique_rows(model) == []
    # unit costs and K >= 2: no pair is over the budget
    for n in (20, 25, 30):
        inst = generate_instance(n, "unit", 1)
        assert inst.budget >= 2.0
        model, _ = build_chain_milp(inst, build_path_table(inst))
        assert _clique_rows(model) == []


def _counted_node_lps(monkeypatch):
    lps = []
    real = branchbound.solve_lp

    def counted(*args, **kwargs):
        lps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(branchbound, "solve_lp", counted)
    return lps


@pytest.mark.parametrize(
    "n, scheme, seed, optimum, ceiling",
    [(30, "type1", 1, 430.2287, 54), (20, "type2", 3, 413.9817, 9)],
)
def test_chain_milp_node_lps_stay_under_their_ceiling(monkeypatch, n, scheme, seed, optimum, ceiling):
    # with the clique rows 54 and 9 node LPs (64 and 61 without them)
    inst = generate_instance(n, scheme, seed)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    lps = _counted_node_lps(monkeypatch)
    res = solve_milp(model, gap=1e-6)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(optimum, abs=1e-4)
    assert len(lps) <= ceiling


def test_unaffordable_unit_attacks_close_at_the_root():
    # K = 0.7 buys no unit attack: every attack column is barred, so the
    # root LP is already integral
    for seed in range(5):
        inst = generate_instance(7, "unit", seed)
        model, _ = build_chain_milp(inst, build_path_table(inst))
        res = solve_milp(model, gap=0.0)
        assert res.status == STATUS_OPTIMAL
        assert res.nodes == 1
        assert res.objective == pytest.approx(inst.total_connection_cost(), abs=1e-9)


def test_valid_inequalities_selects_dominated_leaves():
    # path 0 - 1 - 2 with a leaf 0 whose neighbor is cheaper and weaker
    inst = make_instance(
        3,
        [(0, 1), (1, 2)],
        [0.8, 0.5, 0.9],
        [2.0, 1.0, 1.0],
        None,
        2.0,
    )
    pairs = valid_inequalities(inst)
    assert (0, 1) in pairs  # v_0 <= v_1 is valid: p_1 <= p_0 and kappa_1 <= kappa_0
    # the reverse direction is never emitted for the same leaf
    assert (1, 0) not in pairs


def test_valid_inequalities_skip_leaf_neighbors():
    # two-node tree: both ends are leaves, neighbor is a leaf -> no rows
    inst = make_instance(2, [(0, 1)], [0.5, 0.4], [1.0, 1.0], None, 1.0)
    assert valid_inequalities(inst) == ()


def test_valid_inequality_rows_do_not_change_optimum():
    rng = np.random.default_rng(34)
    for trial in range(6):
        inst = oracles.random_tree_instance(rng, int(rng.integers(3, 9)), "weighted")
        paths = build_path_table(inst)
        with_vi, _ = build_chain_milp(inst, paths, add_valid_ineq=True)
        without, _ = build_chain_milp(inst, paths, add_valid_ineq=False)
        a = solve_milp(with_vi, gap=0.0)
        b = solve_milp(without, gap=0.0)
        assert a.objective == pytest.approx(b.objective, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_selector_formulation_matches_brute_force(p):
    for seed in (40, 41):
        inst = equal_p_instance(8, p, seed)
        paths = build_path_table(inst)
        model, attack_cols = build_ilp_p(inst, paths)
        res = solve_milp(model, gap=0.0)
        flags, expected = oracles.brute_force_optimum(inst)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-7)
        attack = feasible_attack(model, inst, attack_cols, res.x)
        assert attack is not None and attack.is_feasible(inst)


def test_selector_formulation_rejects_mixed_probabilities():
    inst = generate_instance(6, "unit", 3)
    with pytest.raises(UnequalProbabilities):
        build_ilp_p(inst, build_path_table(inst))


def test_selector_count_capped_by_affordable_attacks():
    # budget 2 with unit costs: at most 2 attacks per path regardless of length
    inst = make_instance(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0.5] * 5, [1.0] * 5, None, 2.0
    )
    paths = build_path_table(inst)
    model, _ = build_ilp_p(inst, paths)
    # pair (0, 4) has 5 path nodes but only selectors 0..2
    assert [name for name in model.var_names if name.startswith("y_0_4_")] == ["y_0_4_0", "y_0_4_1", "y_0_4_2"]


def test_model_size_summary():
    inst = generate_instance(6, "unit", 9)
    model, _ = build_chain_milp(inst, build_path_table(inst))
    size = model_size(model)
    assert size["variables"] == model.num_variables
    assert size["rows"] == model.num_rows
    assert size["integer_variables"] == 6
    assert size["nonzeros"] > 0
