"""Every exact method on degenerate trees: one or two nodes, stars and
paths, zero budget, survival probabilities of 0 and 1, and zero-cost
pairs, checked against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scnptree.cli import solve_instance
from scnptree.evaluator import objective_tree
from scnptree.instance import AttackVector, build_path_table, make_instance
from scnptree.milpcore import NumericalFailure
from scnptree.models import attack_from_solution


@st.composite
def degenerate_instances(draw):
    n = draw(st.integers(1, 6))
    if draw(st.sampled_from(("star", "path"))) == "star":
        center = draw(st.integers(0, n - 1))
        edges = [(center, v) for v in range(n) if v != center]
    else:
        edges = [(v, v + 1) for v in range(n - 1)]
    if draw(st.booleans()):
        probs = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    else:
        probs = [draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))] * n
    kappa = draw(st.lists(st.sampled_from((1.0, 2.0)), min_size=n, max_size=n))
    costs = [
        (i, j, draw(st.sampled_from((0.0, 1.0, 3.0))))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    budget = draw(st.sampled_from((0.0, 1.0, 2.0)))
    return make_instance(n, edges, probs, kappa, costs, budget)


# a path of sure survivors with budget to spare: attacking them is infeasible
CERTAIN_PATH = make_instance(3, [(0, 1), (1, 2)], [1.0] * 3, [1.0] * 3, None, 2.0)


@settings(max_examples=40, deadline=None)
@given(inst=degenerate_instances(), backend=st.sampled_from(("highs", "simplex")))
@example(inst=CERTAIN_PATH, backend="highs")
@example(inst=CERTAIN_PATH, backend="simplex")
def test_exact_methods_on_degenerate_trees(inst, backend):
    _, optimum = oracles.brute_force_optimum(inst)
    paths = build_path_table(inst)
    methods = ["milp", "benders", "exhaustive"]
    if len(set(inst.survival_prob)) == 1:
        methods.append("ilp-p")
    for method in methods:
        record = solve_instance(inst, method, {"eps": 1e-6, "backend": backend})
        attack = AttackVector.from_nodes(record["attack"], inst.node_count)
        assert attack.is_feasible(inst), method
        assert objective_tree(inst, paths, attack) == pytest.approx(record["value"], abs=1e-9)
        assert record["value"] == pytest.approx(optimum, abs=1e-5), method
        assert record["bound"] <= optimum + 1e-9, method


# kappa = 0.50000005 puts the attack {1, 2} 5e-8 over the budget: inside
# the solvers' 1e-7 row tolerance, outside AttackVector.is_feasible's 1e-9
OVER_BUDGET_PATH = make_instance(
    4, [(0, 1), (1, 2), (2, 3)], [0.9, 0.1, 0.1, 0.9], [0.2, 0.5, 0.50000005, 0.2], None, 1.0
)


@pytest.mark.parametrize("backend", ("highs", "simplex"))
@pytest.mark.parametrize("method", ("milp", "benders"))
def test_a_solver_point_over_the_budget_raises(method, backend):
    # the solvers return {1, 2}; attack_from_solution raises on it, so both
    # methods cut it off with a cover row and solve again
    point = np.zeros(4)
    point[[1, 2]] = 1.0
    with pytest.raises(NumericalFailure):
        attack_from_solution(OVER_BUDGET_PATH, (0, 1, 2, 3), point)
    record = solve_instance(OVER_BUDGET_PATH, method, {"eps": 1e-9, "backend": backend})
    attack = AttackVector.from_nodes(record["attack"], 4)
    assert attack.is_feasible(OVER_BUDGET_PATH)
    assert record["value"] == pytest.approx(1.351, abs=1e-9)
    assert record["bound"] == pytest.approx(1.351, abs=1e-8)


def test_the_over_budget_path_has_a_feasible_optimum():
    record = solve_instance(OVER_BUDGET_PATH, "exhaustive", {})
    assert record["attack"] == [0, 2, 3]
    assert record["value"] == pytest.approx(1.351, abs=1e-9)
