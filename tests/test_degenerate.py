"""Every exact method on degenerate trees: one or two nodes, stars and
paths, zero budget, survival probabilities of 0 and 1, and zero-cost
pairs, checked against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from scnptree import benders, cli, models
from scnptree.benders import bd_scnp
from scnptree.cli import solve_instance
from scnptree.evaluator import objective_tree
from scnptree.instance import AttackVector, build_path_table, make_instance
from scnptree.milpcore import LESS_EQUAL, solve_milp
from scnptree.models import build_chain_milp, build_ilp_p, feasible_attack


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
# the solvers' 1e-7 row tolerance, outside AttackVector.is_feasible's 1e-9.
# The pair is a clique of the budget's conflict graph, so the attack block
# bars it with v_1 + v_2 <= 1 before any LP sees it
OVER_BUDGET_PATH = make_instance(
    4, [(0, 1), (1, 2), (2, 3)], [0.9, 0.1, 0.1, 0.9], [0.2, 0.5, 0.50000005, 0.2], None, 1.0
)

# the three middle nodes put {1, 2, 3} 5e-8 over the budget while every
# pair fits, so no clique row bars the set: the LPs reach it, and only
# feasible_attack's cover row v_1 + v_2 + v_3 <= 2 cuts it off
COVER_PATH = make_instance(
    5,
    [(0, 1), (1, 2), (2, 3), (3, 4)],
    [0.9, 0.1, 0.1, 0.1, 0.9],
    [0.2, 0.33333335, 0.33333335, 0.33333335, 0.2],
    None,
    1.0,
)
# its twin with one survival probability, for ilp-p
EQUAL_P_COVER_PATH = make_instance(
    5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0.1] * 5, [0.2, 0.33333335, 0.33333335, 0.33333335, 0.2], None, 1.0
)


def _count_cover_rows(monkeypatch) -> list:
    """Attacks the attack block's check rejects from here on, in the
    models and in the cut loop: one cover row each."""
    rejected = []
    real = models.feasible_attack

    def counted(model, instance, attack_cols, x):
        attack = real(model, instance, attack_cols, x)
        if attack is None:
            rejected.append(tuple(round(float(x[c])) for c in attack_cols))
        return attack

    monkeypatch.setattr(models, "feasible_attack", counted)
    monkeypatch.setattr(benders, "feasible_attack", counted)
    return rejected


@pytest.mark.parametrize("backend", ("highs", "simplex"))
@pytest.mark.parametrize("method", ("milp", "benders"))
def test_a_solver_point_over_the_budget_gets_one_cover_row(monkeypatch, method, backend):
    # the LPs reach {1, 2, 3}; feasible_attack rejects it and cuts it off
    # with the cover row v_1 + v_2 + v_3 <= 2 inside the search, and both
    # methods still end optimal
    model, attack_cols = build_chain_milp(COVER_PATH, build_path_table(COVER_PATH))
    rows = model.num_rows
    point = np.zeros(model.num_variables)
    point[[attack_cols[1], attack_cols[2], attack_cols[3]]] = 1.0
    assert feasible_attack(model, COVER_PATH, attack_cols, point) is None
    assert model.num_rows == rows + 1
    assert model.row_cols[-1] == [attack_cols[1], attack_cols[2], attack_cols[3]]
    assert (model.row_coefs[-1], model.senses[-1], model.rhs[-1]) == ([1.0] * 3, LESS_EQUAL, 2.0)
    rejected = _count_cover_rows(monkeypatch)
    record = solve_instance(COVER_PATH, method, {"eps": 1e-9, "backend": backend})
    assert rejected and all(sum(flags) == 3 for flags in rejected)
    attack = AttackVector.from_nodes(record["attack"], 5)
    assert attack.is_feasible(COVER_PATH)
    assert record["value"] == pytest.approx(0.618, abs=1e-9)
    assert record["bound"] == pytest.approx(0.618, abs=1e-8)


@pytest.mark.parametrize("backend", ("highs", "simplex"))
def test_a_milp_record_comes_from_one_search(monkeypatch, backend):
    # the cover row is added inside branch and bound, so the over-budget
    # point costs no second solve
    real_solve = cli.solve_milp
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_milp", counted)
    rejected = _count_cover_rows(monkeypatch)
    record = solve_instance(COVER_PATH, "milp", {"eps": 1e-9, "backend": backend})
    assert len(solves) == 1
    assert rejected
    assert AttackVector.from_nodes(record["attack"], 5).is_feasible(COVER_PATH)
    assert record["value"] == pytest.approx(0.618, abs=1e-9)
    assert record["bound"] <= record["value"] + 1e-9


def test_the_over_budget_path_has_a_feasible_optimum():
    record = solve_instance(OVER_BUDGET_PATH, "exhaustive", {})
    assert record["attack"] == [0, 2, 3]
    assert record["value"] == pytest.approx(1.351, abs=1e-9)
    assert solve_instance(COVER_PATH, "exhaustive", {})["value"] == pytest.approx(0.618, abs=1e-9)
    assert solve_instance(EQUAL_P_COVER_PATH, "exhaustive", {})["value"] == pytest.approx(0.352, abs=1e-9)


@st.composite
def near_budget_instances(draw):
    """Trees of at most 6 nodes in which two or three nodes together cost
    1e-8 to 9e-8 more than the budget: inside the solvers' 1e-7 row
    tolerance, so that attack can come back optimal, and outside
    ``AttackVector.is_feasible``'s 1e-9.  Every other cost is a share of
    the budget; half the trees have one survival probability, for
    ``ilp-p``."""
    n = draw(st.integers(3, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if draw(st.booleans()):
        probs = [draw(st.sampled_from((0.1, 0.5, 0.9)))] * n
    else:
        probs = draw(st.lists(st.sampled_from((0.1, 0.5, 0.9)), min_size=n, max_size=n))
    budget = draw(st.sampled_from((1.0, 1.5, 2.0)))
    kappa = [budget * draw(st.sampled_from((0.3, 0.6, 1.1))) for _ in range(n)]
    over = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True))
    shares = draw(st.lists(st.integers(1, 4), min_size=len(over), max_size=len(over)))
    excess = draw(st.sampled_from((1e-8, 5e-8, 9e-8)))
    for node, share in zip(over, shares):
        kappa[node] = (budget + excess) * share / sum(shares)
    return make_instance(n, edges, probs, kappa, None, budget)


# equal p, and the attack {0, 1} 5e-8 over the budget; a clique row bars
# the pair, as in OVER_BUDGET_PATH
EQUAL_P_OVER_BUDGET_PATH = make_instance(3, [(0, 1), (1, 2)], [0.1] * 3, [0.33333335, 0.6666667, 0.6], None, 1.0)


@pytest.mark.parametrize("backend", ("highs", "simplex"))
@pytest.mark.parametrize(
    "inst, pair, methods",
    (
        (OVER_BUDGET_PATH, (1, 2), ("milp", "benders")),
        (EQUAL_P_OVER_BUDGET_PATH, (0, 1), ("milp", "benders", "ilp-p")),
    ),
    ids=("path", "equal_p"),
)
def test_a_pair_over_the_budget_needs_no_cover_row(monkeypatch, inst, pair, methods, backend):
    # the clique row over the pair keeps every search off it
    model, attack_cols = build_chain_milp(inst, build_path_table(inst))
    cliques = [set(cols) for name, cols in zip(model.row_names, model.row_cols) if name.startswith("clique_")]
    assert {attack_cols[u] for u in pair} in cliques
    rejected = _count_cover_rows(monkeypatch)
    for method in methods:
        record = solve_instance(inst, method, {"eps": 1e-9, "backend": backend})
        assert AttackVector.from_nodes(record["attack"], inst.node_count).is_feasible(inst)
    assert rejected == []


@settings(max_examples=60, deadline=None)
@given(inst=near_budget_instances())
@example(inst=OVER_BUDGET_PATH)
@example(inst=EQUAL_P_OVER_BUDGET_PATH)
@example(inst=COVER_PATH)
@example(inst=EQUAL_P_COVER_PATH)
def test_exact_methods_match_exhaustive_near_the_budget(inst):
    optimum = solve_instance(inst, "exhaustive", {})["value"]
    methods = ["milp", "benders"] + (["ilp-p"] if len(set(inst.survival_prob)) == 1 else [])
    for backend in ("highs", "simplex"):
        for method in methods:
            record = solve_instance(inst, method, {"eps": 1e-9, "backend": backend})
            attack = AttackVector.from_nodes(record["attack"], inst.node_count)
            assert attack.is_feasible(inst), (method, backend)
            assert record["value"] == pytest.approx(optimum, abs=1e-6), (method, backend)


@pytest.mark.parametrize("backend", ("highs", "simplex"))
@pytest.mark.parametrize("inst", (COVER_PATH, EQUAL_P_COVER_PATH), ids=("path", "equal_p"))
def test_the_cut_loop_meets_only_feasible_master_points(monkeypatch, inst, backend):
    # the master's search cuts the point over the budget off itself, so
    # every round before the last adds cuts
    rejected = _count_cover_rows(monkeypatch)
    res = bd_scnp(inst, eps=1e-9, backend=backend)
    assert rejected
    assert res.iterations == len(res.trace)
    assert all(row.cuts_added > 0 for row in res.trace[:-1])
    for before, after in zip(res.trace, res.trace[1:]):
        assert after.lower_bound >= before.lower_bound
        assert after.upper_bound <= before.upper_bound
    assert all(AttackVector(record.master_flags).is_feasible(inst) for record in res.cuts)
    assert res.attack is not None and res.attack.is_feasible(inst)


@pytest.mark.parametrize("backend", ("highs", "simplex"))
@pytest.mark.parametrize(
    "inst, build",
    (
        (COVER_PATH, build_chain_milp),
        (EQUAL_P_COVER_PATH, build_ilp_p),
    ),
    ids=("milp", "ilp_p"),
)
def test_solve_milp_on_an_attack_model_returns_a_feasible_attack(inst, build, backend):
    # no caller read-off needed: the attack block's lazy rows keep the
    # search's incumbent within the budget
    model, attack_cols = build(inst, build_path_table(inst))
    res = solve_milp(model, gap=1e-9, backend=backend)
    assert any(name.startswith("cover") for name in model.row_names)
    attack = AttackVector(tuple(round(float(res.x[c])) for c in attack_cols))
    assert attack.is_feasible(inst)
    assert res.objective == pytest.approx(solve_instance(inst, "exhaustive", {})["value"], abs=1e-8)
