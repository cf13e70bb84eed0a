"""Closed-form slave pricing, analytic duals, cut validity, and the
full cut-generation loop, checked against the chain MILP past exhaustive
search."""

import csv
import math

import numpy as np
import pytest

import oracles
from scnptree import bd_scnp, benders, generate_instance, make_instance, objective_tree
from scnptree.benders import (
    TRACE_HEADER,
    PathDuals,
    analytic_dual,
    cut_from_duals,
    dual_feasibility_check,
    dual_objective,
    pair_values,
    slave_primal,
    write_trace_csv,
)
from scnptree.instance import AttackVector, build_path_table
from scnptree.evaluator import exhaustive_solve
from scnptree.milpcore import (
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    LinearModel,
    SolveResult,
    solve_lp,
    solve_milp,
)
from scnptree.milpcore import branchbound
from scnptree.models import _chain_rows, build_chain_milp


def three_node_path():
    return make_instance(
        3,
        [(0, 1), (1, 2)],
        [0.2, 0.5, 0.9],
        [1.0, 1.0, 1.0],
        [(0, 2, 2.0)],
        2.0,
    )


def test_slave_primal_worked_example():
    inst = three_node_path()
    attack = AttackVector((1, 0, 1))
    sol = slave_primal(inst, (0, 1, 2), attack)
    # levels: 1 -> 0.2 (node 0 attacked), unchanged at node 1, x0.9 at node 2
    assert sol.survival == pytest.approx((0.2, 0.2, 0.18))
    assert sol.objective == pytest.approx(0.36)


def test_worked_example_strong_duality():
    inst = three_node_path()
    attack = AttackVector((1, 0, 1))
    path = (0, 1, 2)
    duals = analytic_dual(inst, path, attack)
    assert dual_feasibility_check(duals, inst, path)
    assert dual_objective(duals, inst, path, attack) == pytest.approx(0.36, abs=1e-12)


def test_strong_duality_random_cases():
    rng = np.random.default_rng(50)
    for _ in range(200):
        inst = oracles.random_tree_instance(rng, int(rng.integers(2, 10)), "weighted")
        paths = build_path_table(inst)
        pairs = sorted(paths.pairs())
        pair = pairs[int(rng.integers(0, len(pairs)))]
        path = paths.path(*pair)
        attack = oracles.attack_with_at_most(rng, inst, int(rng.integers(0, inst.node_count + 1)))
        primal = slave_primal(inst, path, attack)
        duals = analytic_dual(inst, path, attack)
        assert dual_feasibility_check(duals, inst, path)
        assert dual_objective(duals, inst, path, attack) == pytest.approx(
            primal.objective, abs=1e-9
        )


def test_feasibility_check_rejects_each_violated_row():
    inst = three_node_path()
    path = (0, 1, 2)
    duals = analytic_dual(inst, path, AttackVector((1, 0, 0)))
    assert duals == PathDuals((2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    assert dual_feasibility_check(duals, inst, path)
    # each perturbation breaks exactly one kind of row
    negative = PathDuals((2.0, 2.0, 2.0 + 0.9 * 0.1), (0.0, 0.0, -0.1))
    over_cost = PathDuals((2.0, 2.0, 2.5), (0.0, 0.0, 0.0))
    unbalanced = PathDuals((2.0, 2.5, 2.0), (0.0, 0.0, 0.0))
    for perturbed in (negative, over_cost, unbalanced):
        assert not dual_feasibility_check(perturbed, inst, path)


def test_slave_is_the_chain_models_rows():
    rng = np.random.default_rng(54)
    for _ in range(60):
        length = int(rng.integers(2, 8))
        nodes = tuple(int(u) for u in rng.permutation(length))
        probs = rng.uniform(size=length)
        sure = rng.uniform(size=length) < 0.3
        probs[sure] = rng.choice([0.0, 1.0], size=int(sure.sum()))
        cost = float(rng.integers(1, 10))
        inst = make_instance(
            length,
            list(zip(nodes, nodes[1:])),
            probs.tolist(),
            [1.0] * length,
            [(nodes[0], nodes[-1], cost)],
            float(length),
        )
        attack = AttackVector(tuple(int(b) for b in rng.integers(0, 2, length)))
        model = LinearModel("slave")
        prev = None
        for k, node in enumerate(nodes):
            flag = float(attack.flags[node])
            v = model.add_variable(f"v{node}", lower=flag, upper=flag)
            s = model.add_variable(f"s{k}", objective=cost if k == length - 1 else 0.0)
            _chain_rows(model, v, s, prev, 1.0 - inst.survival_prob[node], str(k))
            prev = s
        primal = slave_primal(inst, nodes, attack).objective
        for backend in ("highs", "simplex"):
            res = solve_lp(model, backend=backend)
            assert res.status == STATUS_OPTIMAL
            assert res.objective == pytest.approx(primal, abs=1e-9)
        # rows run sfirst, then sdrop and sscale per later position
        duals = analytic_dual(inst, nodes, attack)
        y = [duals.drop[0]]
        for k in range(1, length):
            y += [duals.drop[k], duals.scale[k]]
        assert model.dual_objective(np.array(y)) == pytest.approx(primal, abs=1e-9)


def test_dual_collapses_when_attack_is_certain():
    inst = make_instance(
        3, [(0, 1), (1, 2)], [0.5, 0.0, 0.7], [1.0] * 3, None, 3.0
    )
    attack = AttackVector((0, 1, 0))
    duals = analytic_dual(inst, (0, 1, 2), attack)
    assert duals == analytic_dual(inst, (0, 1, 2), attack)
    assert all(x == 0.0 for x in duals.drop + duals.scale)
    assert dual_objective(duals, inst, (0, 1, 2), attack) == pytest.approx(0.0)
    assert slave_primal(inst, (0, 1, 2), attack).objective == pytest.approx(0.0)


def test_cut_tight_at_generating_flags():
    rng = np.random.default_rng(51)
    for _ in range(100):
        inst = oracles.random_tree_instance(rng, int(rng.integers(2, 9)), "weighted")
        paths = build_path_table(inst)
        pairs = sorted(paths.pairs())
        pair = pairs[int(rng.integers(0, len(pairs)))]
        path = paths.path(*pair)
        attack = oracles.attack_with_at_most(rng, inst, inst.node_count)
        duals = analytic_dual(inst, path, attack)
        cut = cut_from_duals(duals, inst, path)
        slave = slave_primal(inst, path, attack).objective
        assert cut.evaluate(attack.flags) == pytest.approx(slave, abs=1e-9)


def test_cut_is_a_lower_bound_everywhere():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        inst = oracles.random_tree_instance(rng, n, "weighted")
        paths = build_path_table(inst)
        pair = sorted(paths.pairs())[0]
        path = paths.path(*pair)
        attack = oracles.attack_with_at_most(rng, inst, n)
        cut = cut_from_duals(analytic_dual(inst, path, attack), inst, path)
        for bits in range(2 ** n):
            flags = tuple((bits >> i) & 1 for i in range(n))
            slave = slave_primal(inst, path, AttackVector(flags)).objective
            assert cut.evaluate(flags) <= slave + 1e-9


def test_pair_values_agree_with_slaves():
    rng = np.random.default_rng(53)
    inst = oracles.random_tree_instance(rng, 8, "weighted")
    paths = build_path_table(inst)
    attack = oracles.attack_with_at_most(rng, inst, 4)
    values = pair_values(inst, paths, attack)
    pairs = list(paths.pairs())
    assert values.shape == (len(pairs),)
    for pair, value in zip(pairs, values):
        assert value == pytest.approx(
            slave_primal(inst, paths.path(*pair), attack).objective, abs=1e-12
        )


@pytest.mark.parametrize("scheme", ["unit", "type1", "type2", "type3"])
def test_loop_matches_brute_force(scheme):
    for seed in (60, 61):
        inst = generate_instance(7, scheme, seed)
        res = bd_scnp(inst, eps=1e-6)
        _, expected = oracles.brute_force_optimum(inst)
        assert res.status == STATUS_OPTIMAL
        assert res.upper_bound == pytest.approx(expected, abs=1e-6)
        assert res.attack is not None and res.attack.is_feasible(inst)
        replay = objective_tree(inst, build_path_table(inst), res.attack)
        assert replay == pytest.approx(res.upper_bound, abs=1e-9)
        assert res.relative_gap() <= 1e-6 + 1e-12


def test_zero_budget_closes_in_two_iterations():
    inst = make_instance(
        4, [(0, 1), (1, 2), (1, 3)], [0.3, 0.6, 0.2, 0.8], [1.0] * 4, None, 0.0
    )
    res = bd_scnp(inst, eps=1e-9)
    total = inst.total_connection_cost()
    assert res.status == STATUS_OPTIMAL
    assert res.iterations == 2
    assert res.upper_bound == pytest.approx(total, abs=1e-12)
    assert res.lower_bound == pytest.approx(total, abs=1e-9)
    assert res.attack == AttackVector((0, 0, 0, 0))


def test_bounds_move_monotonically():
    inst = generate_instance(10, "type1", 62)
    res = bd_scnp(inst, eps=1e-6)
    assert res.status == STATUS_OPTIMAL
    lows = [row.lower_bound for row in res.trace]
    highs = [row.upper_bound for row in res.trace]
    assert lows == sorted(lows)
    assert highs == sorted(highs, reverse=True)
    assert all(lo <= hi + 1e-9 for lo, hi in zip(lows, highs))
    running = 0
    for row in res.trace:
        running += row.cuts_added
        assert row.cuts_total == running
    assert res.cuts_total == running
    elapsed = [row.elapsed for row in res.trace]
    assert elapsed == sorted(elapsed)


def test_cut_records_carry_generating_context():
    inst = generate_instance(6, "unit", 63)
    res = bd_scnp(inst, eps=1e-6)
    assert res.cuts, "expected at least one cut on a nontrivial instance"
    for record in res.cuts:
        assert record.slave_value >= record.master_z - 1e-9
        assert record.cut.evaluate(record.master_flags) == pytest.approx(
            record.slave_value, abs=1e-9
        )


def test_the_cut_loop_is_one_search_without_a_warm_start(monkeypatch):
    real_solve = benders.solve_milp
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(benders, "solve_milp", counted)
    res = bd_scnp(generate_instance(10, "type3", 62), eps=1e-6)
    assert res.status == STATUS_OPTIMAL
    assert res.iterations > 2
    assert len(calls) == 1


def test_a_cut_the_lp_counts_as_met_is_not_added_again():
    # pair (0, 1)'s slave value at one attack is 6.75e-8, under HiGHS's
    # 1e-7 feasibility tolerance: its cut is met to the LP solver while
    # z = 0 still undercuts it, so re-adding the cut would loop forever
    base = generate_instance(8, "type3", 1390)
    inst = make_instance(
        base.node_count,
        base.edges,
        (0.05, 0.01, 0.01, 0.03, 0.03, 0.05, 0.0, 0.02),
        base.attack_cost,
        base.connection_cost,
        base.budget,
    )
    res = bd_scnp(inst)
    assert res.status == STATUS_OPTIMAL
    _, optimum = exhaustive_solve(inst)
    assert res.upper_bound == pytest.approx(optimum, rel=1e-12)
    assert res.lower_bound >= optimum - 1e-3
    cuts = [(record.cut.pair, record.master_flags) for record in res.cuts]
    assert len(set(cuts)) == len(cuts)


@pytest.mark.parametrize(
    "n, scheme, seed", [(6, "type1", 3), (7, "type3", 4), (8, "type2", 5), (10, "type3", 62)]
)
def test_the_first_round_is_the_empty_attacks_on_every_backend(n, scheme, seed):
    # the check runs once at v = 0, z = 0 before the search, so round 1
    # does not depend on the vertex the LP leaves the cut-free master at
    inst = generate_instance(n, scheme, seed)
    rounds = []
    for backend in ("highs", "simplex"):
        res = bd_scnp(inst, eps=1e-6, backend=backend)
        first = [record for record in res.cuts if record.iteration == 1]
        assert first
        assert all(record.master_flags == (0,) * n and record.master_z == 0.0 for record in first)
        assert res.trace[0].lower_bound == 0.0
        assert res.trace[0].upper_bound == pytest.approx(inst.total_connection_cost(), abs=1e-9)
        rounds.append([(record.cut, record.slave_value) for record in first])
    assert rounds[0] == rounds[1]


@pytest.mark.parametrize(
    "n, scheme, seed, optimum, ceiling",
    [(30, "type1", 1, 430.2287, 212), (20, "type2", 3, 413.9817, 50)],
)
def test_cut_loop_node_lps_stay_under_their_ceiling(monkeypatch, n, scheme, seed, optimum, ceiling):
    # with the attack block's clique rows and the empty attack's round 212
    # and 50 node LPs (238 and 169 without them)
    lps = []
    real = branchbound.solve_lp

    def counted(*args, **kwargs):
        lps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(branchbound, "solve_lp", counted)
    res = bd_scnp(generate_instance(n, scheme, seed))
    assert res.status == STATUS_OPTIMAL
    assert res.upper_bound == pytest.approx(optimum, abs=1e-4)
    assert len(lps) <= ceiling


def test_time_limit_zero_stops_before_first_master(monkeypatch):
    calls = []
    monkeypatch.setattr(benders, "solve_milp", lambda *args, **kwargs: calls.append(1))
    inst = generate_instance(8, "unit", 64)
    res = bd_scnp(inst, time_limit=0.0)
    assert calls == []
    assert res.status == STATUS_TIME_LIMIT
    assert res.iterations == 0
    assert res.trace == ()
    assert res.attack is None
    assert math.isinf(res.upper_bound)
    assert res.lower_bound == 0.0


def test_time_limit_reports_honest_bounds():
    # The full run takes seconds; 0.05 s stops it after a round or two.
    inst = generate_instance(18, "type3", 2)
    _, optimum = exhaustive_solve(inst)
    res = bd_scnp(inst, time_limit=0.05)
    assert res.status == STATUS_TIME_LIMIT
    assert res.lower_bound <= optimum + 1e-9
    assert optimum <= res.upper_bound + 1e-9


@pytest.mark.parametrize("limit", [0.0, 1e-3, 1e-2, 5e-2])
def test_every_time_limit_keeps_the_trace_whole(limit):
    res = bd_scnp(generate_instance(18, "type3", 2), time_limit=limit)
    assert res.iterations == len(res.trace)
    assert res.cuts_total == len(res.cuts)
    assert res.cuts_total == (res.trace[-1].cuts_total if res.trace else 0)
    if res.trace:
        assert res.trace[-1].cuts_added == 0
        assert res.trace[-1].lower_bound == res.lower_bound


def test_a_master_stopped_by_the_clock_gets_its_trace_row(monkeypatch, tmp_path):
    # the clock stops the search at its sixtieth node LP, after three cut
    # rounds: the end of the search gets a row with no cuts whose LB is the
    # bound the stopped search proved, and that is the result's LB
    real_lp = branchbound.solve_lp
    lps = []

    def sixtieth_lp_times_out(*args, **kwargs):
        lps.append(1)
        if len(lps) == 60:
            return SolveResult(status=STATUS_TIME_LIMIT)
        return real_lp(*args, **kwargs)

    real_solve = benders.solve_milp
    searches = []

    def recorded(*args, **kwargs):
        searches.append(real_solve(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(branchbound, "solve_lp", sixtieth_lp_times_out)
    monkeypatch.setattr(benders, "solve_milp", recorded)
    res = bd_scnp(generate_instance(18, "type3", 2), eps=1e-6)
    assert len(lps) == 60 and len(searches) == 1
    assert searches[0].status == res.status == STATUS_TIME_LIMIT
    assert res.iterations == len(res.trace) == 4
    final, last_round = res.trace[-1], res.trace[-2]
    assert final.cuts_added == 0 < last_round.cuts_added
    assert res.cuts_total == len(res.cuts) == final.cuts_total
    assert final.lower_bound == res.lower_bound > last_round.lower_bound
    assert res.lower_bound == max(last_round.lower_bound, min(searches[0].bound, res.upper_bound))
    assert final.upper_bound == res.upper_bound
    out = tmp_path / "trace.csv"
    write_trace_csv(res, out)
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[-1]["LB"] == f"{res.lower_bound:.9g}"


@pytest.mark.parametrize("scheme", ["unit", "type1", "type2", "type3"])
def test_every_trace_row_brackets_the_optimum(scheme):
    for n in (6, 7, 8):
        for seed in range(10):
            inst = generate_instance(n, scheme, seed)
            _, optimum = exhaustive_solve(inst)
            res = bd_scnp(inst, eps=1e-6)
            assert res.status == STATUS_OPTIMAL
            for row in res.trace:
                assert row.lower_bound <= optimum + 1e-9
                assert optimum <= row.upper_bound + 1e-9
            assert res.lower_bound <= res.upper_bound


@pytest.mark.parametrize("scheme", ["type1", "type2"])
def test_loop_agrees_with_chain_milp_past_exhaustive_search(scheme):
    inst = generate_instance(30, scheme, 1)
    loop = bd_scnp(inst)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    milp = solve_milp(model, gap=1e-6)
    assert loop.status == STATUS_OPTIMAL and milp.status == STATUS_OPTIMAL
    assert loop.upper_bound == pytest.approx(milp.objective, abs=1e-3)
    assert loop.lower_bound <= milp.objective + 1e-9
    assert milp.bound <= loop.upper_bound + 1e-9


def test_valid_inequality_toggle_keeps_value():
    for seed in (66, 67):
        inst = generate_instance(8, "type1", seed)
        on = bd_scnp(inst, eps=1e-6, use_valid_ineq=True)
        off = bd_scnp(inst, eps=1e-6, use_valid_ineq=False)
        assert on.upper_bound == pytest.approx(off.upper_bound, abs=1e-6)


def test_rejects_nonpositive_eps():
    inst = generate_instance(4, "unit", 68)
    with pytest.raises(ValueError):
        bd_scnp(inst, eps=0.0)


def test_relative_gap_zero_when_everything_is_cut():
    # star center that never survives: attacking it removes every pair
    inst = make_instance(
        4, [(0, 1), (0, 2), (0, 3)], [0.0, 0.5, 0.5, 0.5], [1.0] * 4, None, 1.0
    )
    res = bd_scnp(inst, eps=1e-9)
    assert res.status == STATUS_OPTIMAL
    assert res.upper_bound == pytest.approx(0.0, abs=1e-12)
    assert res.relative_gap() == 0.0


def test_trace_csv_layout(tmp_path):
    inst = generate_instance(7, "type1", 69)
    res = bd_scnp(inst, eps=1e-6)
    out = tmp_path / "trace.csv"
    write_trace_csv(res, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,LB,UB,cuts_added,cumulative_cuts,elapsed"
    assert ",".join(TRACE_HEADER) == lines[0]
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(res.trace)
    for row, ref in zip(rows, res.trace):
        assert int(row["iteration"]) == ref.iteration
        assert float(row["LB"]) == pytest.approx(ref.lower_bound, rel=1e-6)
        assert float(row["UB"]) == pytest.approx(ref.upper_bound, rel=1e-6)
        assert int(row["cumulative_cuts"]) == ref.cuts_total
