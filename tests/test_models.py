"""Chain formulation, the equal-probability selector formulation, and
the leaf dominance inequalities."""

import itertools
import math

import numpy as np
import pytest

import oracles
from scnptree import generate_instance, make_instance
from scnptree.evaluator import objective_tree
from scnptree.instance import AttackVector, build_path_table
from scnptree.milpcore import STATUS_OPTIMAL, solve_lp, solve_milp
from scnptree.models import (
    UnequalProbabilities,
    attack_from_solution,
    build_chain_milp,
    build_ilp_p,
    chain_survival_value,
    model_size,
    valid_inequalities,
)


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
        model, index = build_chain_milp(inst, paths, add_valid_ineq=vi)
        res = solve_milp(model, gap=0.0)
        _, expected = oracles.brute_force_optimum(inst)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-7)
        attack = attack_from_solution(index.attack, res.x)
        assert attack.is_feasible(inst)


def test_chain_milp_survival_levels_match_formula():
    rng = np.random.default_rng(32)
    inst = oracles.random_tree_instance(rng, 7, "weighted")
    paths = build_path_table(inst)
    model, index = build_chain_milp(inst, paths)
    res = solve_milp(model, gap=0.0)
    attack = attack_from_solution(index.attack, res.x)
    for pair in paths.pairs():
        level = chain_survival_value(index, pair, res.x)
        expected = oracles.pair_slave_value(inst, paths.path(*pair), attack.flags)
        assert level * inst.pair_cost(*pair) == pytest.approx(expected, abs=1e-6)


def test_chain_milp_size_and_root_lp_are_pinned():
    # One survival column per (start node, node): 75 columns and 122 rows
    # here, where survival-plus-removal columns needed 140 x 243 and one
    # chain per pair 360 x 611 for the same root LP.
    inst = generate_instance(10, "type1", 33)
    model, _ = build_chain_milp(inst, build_path_table(inst))
    assert (model.num_variables, model.num_rows) == (75, 122)
    assert solve_lp(model).objective == pytest.approx(53.947526, abs=1e-7)
    _, expected = oracles.brute_force_optimum(inst)
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
    model, index = build_chain_milp(inst, paths)
    lower, upper = np.array(model.lower), np.array(model.upper)
    attack_cols = list(index.attack)
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
                    level = chain_survival_value(index, pair, res.x)
                    assert level == pytest.approx(product, abs=1e-9)


@pytest.mark.parametrize(
    ("n", "scheme", "root_lp"), [(21, "unit", 97.0667278), (30, "type1", 359.4785543)]
)
def test_chain_root_lp_with_dominance_rows_is_pinned(n, scheme, root_lp):
    # Values of the survival-plus-removal model this one replaced.
    inst = generate_instance(n, scheme, 1)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    assert solve_lp(model).objective == pytest.approx(root_lp, abs=1e-6)


def test_certain_nodes_are_fixed_to_zero():
    # a reward of 1 on attacking the p = 1 node tempts the search: only
    # the fix row keeps v_0 at 0 (ilp-p needs equal p, so its twin has
    # p = 1 everywhere)
    for builder, probs in ((build_chain_milp, [1.0, 0.5, 0.3]), (build_ilp_p, [1.0] * 3)):
        inst = make_instance(3, [(0, 1), (1, 2)], probs, [1.0] * 3, None, 3.0)
        for backend in ("highs", "simplex"):
            model, index = builder(inst, build_path_table(inst))
            model.objective[index.attack[0]] = -1.0
            res = solve_milp(model, gap=0.0, backend=backend)
            assert res.status == STATUS_OPTIMAL
            assert res.x[index.attack[0]] == pytest.approx(0.0, abs=1e-9)


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
        model, index = build_ilp_p(inst, paths)
        res = solve_milp(model, gap=0.0)
        flags, expected = oracles.brute_force_optimum(inst)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-7)
        assert attack_from_solution(index.attack, res.x).is_feasible(inst)


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
    model, index = build_ilp_p(inst, paths)
    # pair (0, 4) has 5 path nodes but only selectors 0..2
    assert len(index.selector[(0, 4)]) == 3


def test_model_size_summary():
    inst = generate_instance(6, "unit", 9)
    model, _ = build_chain_milp(inst, build_path_table(inst))
    size = model_size(model)
    assert size["variables"] == model.num_variables
    assert size["rows"] == model.num_rows
    assert size["integer_variables"] == 6
    assert size["nonzeros"] > 0
