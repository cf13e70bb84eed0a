"""Objective evaluation routes and the exhaustive solver."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scnptree import evaluator
from scnptree.benders import pair_values
from scnptree.evaluator import (
    InstanceTooLarge,
    TooManyAttackedNodes,
    batch_objective,
    exhaustive_solve,
    feasible_attack_vectors,
    objective_scenarios,
    objective_tree,
    pair_survival,
)
from scnptree.generator import generate_instance
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
    # 7140 pairs at n = 120: the 100 rows form one row block, padded to
    # 104, whose pairs pass in 28 blocks of at most 256, all through one
    # scratch buffer; no result handed out may share it
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


@pytest.mark.parametrize(
    "kernel, flag",
    [(batch_objective, 2), (batch_objective, -1), (batch_objective, 0.5), (pair_survival, 3)],
    ids=["batch-2", "batch-minus-1", "batch-half", "survival-3"],
)
def test_flags_other_than_0_and_1_are_rejected(kernel, flag):
    # unchecked, they read as plausible numbers: 5.84, 12.08 (above the
    # no-attack total of 10), 8.96 and a survival of -0.56
    inst = generate_instance(5, "unit", 1)
    paths = build_path_table(inst)
    with pytest.raises(ValueError, match="0 or 1"):
        kernel(inst, paths, np.array([[flag, 0, 0, 0, 0]]))


@pytest.mark.parametrize("scheme", ["unit", "weighted"])
def test_batch_objective_across_row_and_pair_blocks(scheme):
    # once pairs outnumber _PRODUCT_FLOATS / _WIDE_ROWS, a row block has
    # _WIDE_ROWS rows and a pair block _PRODUCT_FLOATS / _WIDE_ROWS pairs;
    # both loops run two full blocks and a ragged tail
    block = evaluator._WIDE_ROWS
    width = evaluator._PRODUCT_FLOATS // block
    n = next(n for n in itertools.count(2) if n * (n - 1) // 2 > 2 * width and n * (n - 1) // 2 % width)
    rows = 2 * block + block // 3
    rng = np.random.default_rng(11)
    base = oracles.random_tree_instance(rng, n, scheme)
    p = list(base.survival_prob)
    p[::5] = [0.0] * len(p[::5])
    p[2::7] = [1.0] * len(p[2::7])
    inst = make_instance(n, base.edges, p, base.attack_cost, base.connection_cost, base.budget)
    paths = build_path_table(inst)
    assert evaluator._block_shape(paths.levels * n, len(paths.slots[0]), rows) == (block, width)
    flags = (rng.uniform(size=(rows, n)) < 0.3).astype(int)
    values = batch_objective(inst, paths, flags)
    expected = pair_survival(inst, paths, flags) @ inst.pair_cost_array
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)
    boundaries = [0, block - 1, block, 2 * block - 1, 2 * block, rows - 1]
    for index in boundaries + rng.choice(rows, 6, replace=False).tolist():
        assert values[index] == pytest.approx(oracles.expected_pair_connectivity(inst, flags[index]), abs=1e-9)


def test_row_values_do_not_depend_on_their_block():
    # at n = 6 one pair block holds all 15 pairs, and a row block 4368 rows
    # (4369 rounded down to a multiple of 8); BLAS sums the last rows mod 4
    # of a product in another order, so unaligned blocks would give the
    # rows at their ends other last bits
    flags = np.tile(_all_flag_rows(6), (140, 1))
    for seed in range(10):
        inst = generate_instance(6, "type1", seed)
        paths = build_path_table(inst)
        block, width = evaluator._block_shape(paths.levels * 6, 15, len(flags))
        assert (block, width) == (4368, 15)
        values = batch_objective(inst, paths, flags)[: 2 * block]
        assert np.array_equal(values, np.resize(values[:64], len(values)))


def test_batch_objective_allocates_one_scratch_buffer():
    # per-block temporaries would let glibc map, fault and unmap megabytes
    # per call; only the scratch buffer, the pair costs, the 0/1 check's
    # boolean masks and per-row values may be allocated
    inst = generate_instance(200, "unit", 5)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(5).uniform(size=(256, 200)) < 0.1).astype(np.uint8)
    block, width = evaluator._block_shape(paths.levels * 200, len(paths.slots[0]), len(flags))
    scratch = 8 * block * (paths.levels * 200 + 2 * width)
    batch_objective(inst, paths, flags)
    tracemalloc.start()
    try:
        batch_objective(inst, paths, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= scratch + 8 * len(paths.slots[0]) + 3 * flags.size + 64 * len(flags) + 16384


def test_pair_route_allocates_one_scratch_buffer():
    # the weighted twin of the test above: the pair costs are built once,
    # by the first call, so the second allocates only its scratch, the 0/1
    # check's masks and per-row values
    inst = generate_instance(200, "type1", 5)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(5).uniform(size=(256, 200)) < 0.1).astype(np.uint8)
    block, width = evaluator._block_shape(paths.levels * 200, len(paths.slots[0]), len(flags))
    scratch = 8 * block * (paths.levels * 200 + 2 * width)
    batch_objective(inst, paths, flags)
    tracemalloc.start()
    try:
        batch_objective(inst, paths, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= scratch + 3 * flags.size + 64 * len(flags) + 16384


def test_subtree_route_allocates_one_scratch_buffer():
    # the bound of the unit case above comes from the pair route; this one
    # from the subtree route's own scratch, 2n + 5 * widest + 2 floats per
    # row of a block (1 032 rows here, two blocks), so a second buffer or a
    # fresh gather per step exceeds it.  Copying the transposed flags into
    # the scratch takes one numpy cast buffer.
    inst = generate_instance(200, "unit", 5)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(5).uniform(size=(2048, 200)) < 0.1).astype(np.uint8)
    widest = max(high - low for _, low, high, _, _ in paths.bottom_up[1])
    per_row = 2 * 200 + 5 * widest + 2
    block = evaluator._TABLE_FLOATS // per_row // 8 * 8
    assert block < len(flags) <= 2 * block
    batch_objective(inst, paths, flags)
    tracemalloc.start()
    try:
        batch_objective(inst, paths, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(8 * block * per_row + 8 * np.getbufsize(), 3 * flags.size) + 8 * len(flags) + 16384


def test_deep_trees_take_one_row_per_block():
    # an 800-node path: one row's upward table (801 * 800 floats) outgrows
    # _TABLE_FLOATS, so blocks hold one row, unpadded, and the scratch is
    # that table plus two pair blocks, not eight rows' worth.  np.take
    # copies each read-only block of slots it is given: one more pair block.
    n = 800
    inst = make_instance(n, [(v - 1, v) for v in range(1, n)], [0.5] * n, [1.0] * n, {(0, n - 1): 2.0}, 3.0)
    paths = build_path_table(inst)
    pairs = n * (n - 1) // 2
    assert evaluator._block_shape(paths.levels * n, pairs, 3) == (1, evaluator._PRODUCT_FLOATS)
    flags = np.zeros((3, n), np.uint8)
    flags[0, 400] = flags[1, [0, 799]] = 1
    values = batch_objective(inst, paths, flags)
    tracemalloc.start()
    try:
        again = batch_objective(inst, paths, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (paths.levels * n + 3 * evaluator._PRODUCT_FLOATS) + 3 * flags.size + 16384
    assert np.array_equal(again, values)
    assert np.array_equal(np.concatenate([batch_objective(inst, paths, row[None]) for row in flags]), values)
    assert values[2] == pytest.approx(pairs + 1.0, rel=1e-12)


@pytest.mark.parametrize("scheme", ["unit", "type1"])
def test_row_values_do_not_depend_on_the_chunking(scheme):
    # one call on 4859 rows (a ragged last block), then the same rows in
    # calls of 1, 5, 13, 1, 5, 13, ..., 4099 rows: padding every block to
    # a multiple of 8 rows keeps each row's sums in one order
    inst = generate_instance(40, scheme, 3)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(12).uniform(size=(4859, 40)) < 0.2).astype(np.uint8)
    whole = batch_objective(inst, paths, flags)
    bounds = np.cumsum([0] + [1, 5, 13] * 40 + [4099])
    assert bounds[-1] == len(flags)
    pieces = [batch_objective(inst, paths, flags[low:high]) for low, high in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@st.composite
def unit_batches(draw):
    """A unit-cost tree of 1 to 60 nodes (random, path or star, labels
    shuffled so the root falls anywhere), p drawn from {0, 1} and (0, 1),
    and 0 to 20 rows of random flags."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "path", "star")))
    if shape == "random":
        edges = oracles.random_tree_instance(rng, n).edges
    else:
        edges = [(0 if shape == "star" else v - 1, v) for v in range(1, n)]
    label = rng.permutation(n)
    p = np.where(rng.uniform(size=n) < 0.3, rng.integers(0, 2, size=n), rng.uniform(size=n))
    inst = make_instance(n, [(label[u], label[v]) for u, v in edges], p, [1.0] * n, None, float(n))
    rows = (rng.uniform(size=(draw(st.integers(0, 20)), n)) < 0.4).astype(np.uint8)
    return inst, rows


@settings(max_examples=150, deadline=None)
@given(unit_batches())
def test_subtree_sums_match_the_pair_route(batch):
    inst, rows = batch
    paths = build_path_table(inst)
    values = batch_objective(inst, paths, rows)
    assert values.shape == (len(rows),)
    np.testing.assert_allclose(values, pair_survival(inst, paths, rows) @ inst.pair_cost_array, rtol=1e-12, atol=0.0)
    if inst.node_count <= 8:
        for row, value in zip(rows, values):
            assert value == pytest.approx(oracles.expected_pair_connectivity(inst, row), abs=1e-9)


def _assert_pair_route_matches_a_fresh_table(inst, paths, flags):
    fresh = build_path_table(dataclasses.replace(inst))  # a copy has its own table
    assert fresh is not paths
    assert np.array_equal(paths.slots, fresh.slots)
    assert np.array_equal(pair_survival(inst, paths, flags), pair_survival(inst, fresh, flags))
    for row in flags[:4]:
        attack = AttackVector(tuple(row.tolist()))
        assert objective_tree(inst, paths, attack) == objective_tree(inst, fresh, attack)


def test_unit_cost_evaluation_never_builds_the_pair_slots():
    inst = generate_instance(30, "unit", 4)
    flags = (np.random.default_rng(4).uniform(size=(50, 30)) < 0.2).astype(np.uint8)
    paths = build_path_table(inst)
    values = batch_objective(inst, paths, flags)
    assert "slots" not in paths.__dict__
    _assert_pair_route_matches_a_fresh_table(inst, paths, flags)
    expected = pair_survival(inst, paths, flags) @ inst.pair_cost_array
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


def test_exhaustive_search_on_unit_costs_never_builds_the_pair_slots():
    inst = generate_instance(10, "unit", 6)
    attack, value = exhaustive_solve(inst)
    paths = build_path_table(inst)  # the table the search read
    assert "slots" not in paths.__dict__
    _assert_pair_route_matches_a_fresh_table(inst, paths, np.array([attack.flags, [0] * 10]))
    assert value == pytest.approx(objective_tree(inst, paths, attack), rel=1e-12)


def _unit_path(n):
    p = [0.5 + 0.01 * (v % 40) for v in range(n)]
    return make_instance(n, [(v - 1, v) for v in range(1, n)], p, [1.0] * n, None, 3.0)


def test_deep_unit_paths_are_evaluated_without_the_pair_slots():
    # filling a path-shaped tree's slots is O(n^3); the subtree route reads
    # none of them.  On a path, node j joins the nodes before it in
    # r_j = f_j (f_{j-1} + r_{j-1}) expected pairs, r_0 = 0.
    n = 2000
    inst = _unit_path(n)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(8).uniform(size=(64, n)) < 0.05).astype(np.uint8)
    values = batch_objective(inst, paths, flags)
    assert "slots" not in paths.__dict__
    factors = 1.0 - (1.0 - np.array(inst.survival_prob)) * flags
    reached, expected = np.zeros(len(flags)), np.zeros(len(flags))
    for v in range(1, n):
        reached = factors[:, v] * (factors[:, v - 1] + reached)
        expected += reached
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


def test_unit_paths_agree_with_the_pair_route():
    inst = _unit_path(300)
    paths = build_path_table(inst)
    flags = (np.random.default_rng(9).uniform(size=(8, 300)) < 0.05).astype(np.uint8)
    values = batch_objective(inst, paths, flags)
    assert "slots" not in paths.__dict__
    for row, value in zip(flags, values):
        assert value == pytest.approx(objective_tree(inst, paths, AttackVector(tuple(row.tolist()))), rel=1e-12)


def test_pair_costs_are_built_once_per_instance():
    inst, _ = _path_case()
    paths = build_path_table(inst)
    costs = inst.pair_cost_array
    assert costs.tolist() == [inst.connection_cost.get(pair, 1.0) for pair in paths.pairs()]
    assert costs[list(paths.pairs()).index((0, 1))] == 1.0  # unlisted
    assert not costs.flags.writeable
    with pytest.raises(ValueError):
        costs[0] = 5.0
    assert inst.pair_cost_array is costs
    unit = generate_instance(7, "unit", 1)
    assert unit.pair_cost_array.tolist() == [1.0] * 21


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


def test_exhaustive_solve_across_chunks_matches_brute_force():
    # two hubs with eight leaves each; two leaves have p = 1, so 16 nodes
    # are attackable and 7 attacks fit: 26 333 vectors, two chunks of
    # 16 384.  Dyadic p makes every value exact, so ties are real ties.
    edges = [(0, 1)] + [(0, leaf) for leaf in range(2, 10)] + [(1, leaf) for leaf in range(10, 18)]
    leaf_p = [0.5, 0.5, 0.0, 1.0, 0.75, 0.5, 0.0, 0.25]
    inst = make_instance(18, edges, [0.25, 0.25] + leaf_p * 2, [1.0] * 18, None, 7.0)
    vectors = list(feasible_attack_vectors(inst))
    assert len(vectors) == 26333
    paths = build_path_table(inst)
    nodes = [node for node in range(18) if inst.survival_prob[node] < 1.0]
    scored = []
    for size in range(8):
        for attacked in itertools.combinations(nodes, size):
            attack = AttackVector.from_nodes(attacked, 18)
            scored.append((objective_tree(inst, paths, attack), attack.flags))
    best_value, best_flags = min(scored)
    attack, value = exhaustive_solve(inst)
    assert (attack.flags, value) == (best_flags, best_value)
    assert vectors.index(best_flags) >= 16384
    assert sum(found == best_value for found, _ in scored) > 1


@pytest.mark.parametrize("costs", [None, {(0, 3): 2.0, (1, 2): 3.0}], ids=["unit", "weighted"])
def test_exhaustive_solve_ties_mirror_images(costs):
    # {0, 1, 3} and its mirror image {0, 2, 3} are the best affordable
    # attacks on this symmetric path; either route can sum them to values
    # that differ in the last bits (both do with OpenBLAS on x86-64), and
    # the tie still goes to the lexicographically smaller flag tuple
    inst = make_instance(4, [(0, 1), (1, 2), (2, 3)], [0.9, 0.2, 0.2, 0.9], [0.2, 0.5, 0.6, 0.2], costs, 1.0)
    paths = build_path_table(inst)
    mirrored = batch_objective(inst, paths, np.array([(1, 0, 1, 1), (1, 1, 0, 1)]))
    assert mirrored[0] == pytest.approx(mirrored[1], rel=1e-15)
    attack, value = exhaustive_solve(inst)
    assert attack.flags == (1, 0, 1, 1)
    assert value == mirrored[0]


@pytest.mark.parametrize(
    "costs, p, budget, best",
    [(1e-14, 0.5, 1.0, (0, 1, 0)), (1.0, 1e-13, 3.0, (1, 1, 1))],
    ids=["tiny-costs", "tiny-p"],
)
def test_exhaustive_solve_minimises_tiny_objectives(costs, p, budget, best):
    # every value here is far below 1, so a tie margin that is not purely
    # relative to the least value would take the first enumerated attack
    pairs = [(0, 1, costs), (0, 2, costs), (1, 2, costs)]
    inst = make_instance(3, [(0, 1), (1, 2)], [p] * 3, [1.0] * 3, pairs, budget)
    attack, value = exhaustive_solve(inst)
    assert attack.flags == best
    assert value == pytest.approx(objective_tree(inst, build_path_table(inst), attack), rel=1e-12)
    assert oracles.brute_force_optimum(inst)[0] == best


def test_exhaustive_solve_tie_break_is_lexicographic():
    # symmetric star: attacking any single leaf gives the same value, and the
    # first minimizer in flag-tuple order is the one attacking the last leaf
    inst = make_instance(4, [(0, 1), (0, 2), (0, 3)], [1.0, 0.5, 0.5, 0.5], [1.0] * 4, None, 1.0)
    attack, _ = exhaustive_solve(inst)
    assert attack.flags == (0, 0, 0, 1)
    flags, _ = oracles.brute_force_optimum(inst)
    assert attack.flags == flags
