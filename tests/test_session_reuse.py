"""HiGHS sessions: recycled HiGHS objects and the structural cold start."""

import dataclasses
import gc

import numpy as np
import pytest

from scnptree import bd_scnp, build_path_table, generate_instance
from scnptree.milpcore import LESS_EQUAL, STATUS_OPTIMAL, LinearModel, solve_lp, solve_milp
from scnptree.milpcore import backends, branchbound
from scnptree.models import build_chain_milp, build_ilp_p

pytestmark = pytest.mark.skipif(
    backends._binding is None, reason="scipy lacks the private HiGHS binding"
)


def _chain(n, scheme, seed):
    inst = generate_instance(n, scheme, seed)
    return build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)[0]


def _ilp_p(n, scheme, seed):
    inst = generate_instance(n, scheme, seed)
    inst = dataclasses.replace(inst, survival_prob=(0.4,) * n)
    return build_ilp_p(inst, build_path_table(inst))[0]


def _node_results(monkeypatch, solve):
    """Every node LP of ``solve()``, as exact bytes, plus the objects used."""
    results, objects = [], []
    real = branchbound.solve_lp

    def record(model, **kwargs):
        res = real(model, **kwargs)
        objects.append(backends._sessions[model].highs)
        x = None if res.x is None else res.x.tobytes()
        duals = None if res.duals is None else res.duals.tobytes()
        results.append((res.status, res.objective, x, duals, res.iterations))
        return res

    monkeypatch.setattr(branchbound, "solve_lp", record)
    solve()
    monkeypatch.setattr(branchbound, "solve_lp", real)
    return results, objects


def _fresh_then_recycled(monkeypatch, solve):
    backends._spares.clear()
    fresh, fresh_objects = _node_results(monkeypatch, solve)
    # leave one spare, a new object that last held a different model
    backends._spares.clear()
    solve_milp(_chain(9, "type2", 11), gap=1e-6)
    gc.collect()
    spare = backends._spares[-1]
    recycled, recycled_objects = _node_results(monkeypatch, solve)
    assert spare not in fresh_objects
    assert recycled_objects[0] is spare
    return fresh, recycled


# models whose search branches (22, 7, 9 and 21 nodes); the attack
# block's clique rows close most n = 8 models at the root
@pytest.mark.parametrize(
    "build",
    [
        lambda: _chain(8, "type3", 9),
        lambda: _chain(21, "unit", 3),
        lambda: _ilp_p(10, "type2", 3),
        lambda: _ilp_p(8, "type3", 4),
    ],
)
def test_a_recycled_object_solves_a_model_bit_identically(monkeypatch, build):
    fresh, recycled = _fresh_then_recycled(monkeypatch, lambda: solve_milp(build(), gap=1e-6))
    assert len(fresh) > 1
    assert recycled == fresh


def test_a_recycled_object_solves_the_growing_master_bit_identically(monkeypatch):
    inst = generate_instance(8, "type1", 3)
    outcome = []
    fresh, recycled = _fresh_then_recycled(monkeypatch, lambda: outcome.append(bd_scnp(inst)))
    assert outcome[0].iterations > 2
    assert recycled == fresh
    assert outcome[0].upper_bound == outcome[1].upper_bound


def test_the_spare_list_stays_within_its_cap():
    held = []
    for seed in range(3 * backends._SPARE_CAP):
        model = _chain(6, "type1", seed)
        assert solve_lp(model).status == STATUS_OPTIMAL
        held.append(model)
    objects = {id(backends._sessions[m].highs) for m in held}
    assert len(objects) == len(held)  # live models never share an object
    del held, model
    gc.collect()
    assert len(backends._spares) == backends._SPARE_CAP
    for seed in range(50):
        solve_milp(_chain(6, "type2", seed), gap=1e-6)
    gc.collect()
    assert len(backends._spares) <= backends._SPARE_CAP


def test_a_model_with_lazy_rows_hands_its_object_back_without_gc():
    # the attack block's lazy-row check does not hold the model, so
    # reference counting alone ends the model and its session
    model = _chain(6, "type1", 1)
    assert model.lazy_rows is not None
    assert solve_milp(model, gap=1e-6).status == STATUS_OPTIMAL
    highs = backends._sessions[model].highs
    backends._spares.clear()
    gc.disable()
    try:
        del model
        assert backends._spares == [highs]
    finally:
        gc.enable()


def test_options_survive_recycling():
    solve_lp(_chain(6, "type1", 1))
    gc.collect()
    spare = backends._spares[-1]
    model = _chain(6, "type1", 2)
    solve_lp(model)
    highs = backends._sessions[model].highs
    assert highs is spare
    assert highs.getOptionValue("output_flag")[1] is False
    assert highs.getOptionValue("presolve")[1] == "off"


def _slack_start(model: LinearModel) -> LinearModel:
    model.start_basis = []
    return model


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_structural_start_halves_root_iterations(seed):
    structural = solve_lp(_chain(21, "unit", seed))
    slack = solve_lp(_slack_start(_chain(21, "unit", seed)))
    assert structural.status == slack.status == STATUS_OPTIMAL
    assert structural.objective == pytest.approx(slack.objective, abs=1e-9)
    assert 0 < structural.iterations <= 0.5 * slack.iterations


@pytest.mark.parametrize(
    "build", [lambda: _chain(8, "type1", 4), lambda: _chain(8, "type3", 2), lambda: _ilp_p(8, "type2", 6)]
)
def test_the_structural_start_keeps_the_optimum(build):
    structural = solve_milp(build(), gap=1e-9)
    slack = solve_milp(_slack_start(build()), gap=1e-9)
    assert structural.objective == pytest.approx(slack.objective, abs=1e-9)
    root = solve_lp(build())
    assert root.objective == pytest.approx(solve_lp(_slack_start(build())).objective, abs=1e-9)


def _two_row_lp() -> LinearModel:
    m = LinearModel("rejected")
    m.add_variable("x", 0.0, 4.0, -1.0)
    m.add_variable("y", 0.0, 4.0, -2.0)
    m.add_row("a", [0, 1], [1.0, 1.0], LESS_EQUAL, 3.0)
    m.add_row("b", [0, 1], [1.0, 3.0], LESS_EQUAL, 6.0)
    return m


def test_a_rejected_basis_falls_back_to_the_slack_start():
    slack = solve_lp(_two_row_lp())
    rejected = _two_row_lp()
    # two columns basic in one row: one basic variable too many
    rejected.start_basis = [(0, 0), (0, 1)]
    res = solve_lp(rejected)
    assert res.status == slack.status == STATUS_OPTIMAL
    assert res.iterations == slack.iterations > 0
    assert res.x.tobytes() == slack.x.tobytes()
    assert res.objective == slack.objective == pytest.approx(-4.5)


def test_the_simplex_backend_never_reads_the_structural_start(monkeypatch):
    def refuse(highs, model):
        raise AssertionError("structural start on the simplex backend")

    monkeypatch.setattr(backends, "_set_start_basis", refuse)
    res = solve_milp(_chain(7, "type2", 4), backend="simplex", gap=1e-6)
    assert res.status == STATUS_OPTIMAL
    with pytest.raises(AssertionError):
        solve_lp(_chain(7, "type2", 4), backend="highs")


def test_the_chain_start_basis_is_feasible_and_triangular():
    model = _chain(9, "type3", 5)
    rows = [row for row, _ in model.start_basis]
    cols = [col for _, col in model.start_basis]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    # every basic column is created before the one it pins, so ordering the
    # pairs by column gives a lower-triangular basis with unit diagonal
    for row, col in model.start_basis:
        assert max(model.row_cols[row]) == col
        assert model.row_coefs[row][model.row_cols[row].index(col)] == 1.0
    point = np.zeros(model.num_variables)
    point[cols] = 1.0
    assert model.is_feasible(point, tol=0.0)
