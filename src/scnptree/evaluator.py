"""Ground-truth objective computation and brute-force search.

Path survival products come from one kernel: ``_upward_into`` builds a
table of upward products and ``_products_into`` multiplies two of its rows
per pair.  ``pair_survival`` runs it once on all rows and pairs, and
``pair_values`` (the cut loop's, summed by ``objective_tree``) weights its
products by pair cost.  ``batch_objective`` evaluates many attacks in row
blocks by one of two routes, picked by ``has_unit_connection_costs``.
When every pair costs 1, subtree sums over ``PathTable.bottom_up`` take
O(n) work per row.  Otherwise the kernel runs once per row block, read by
blocks of pairs, O(n^2) work per row.  The kernel is the independent
reference the tests hold the subtree sums to.  ``exhaustive_solve``
minimizes ``batch_objective`` over ``instance.attackable_nodes``.
``objective_scenarios`` shares no code with either: it enumerates the
outcomes of the attacked set on any graph, and the tests hold the kernel
to it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from scnptree.instance import (
    BUDGET_SLACK,
    AttackVector,
    PathTable,
    TreeInstance,
    attackable_nodes,
    build_path_table,
    has_unit_connection_costs,
)


# batch_objective's block sizes, chosen by timing the benchmark's bulk blocks
_TABLE_FLOATS = 1 << 19  # most floats in a row block's upward table or subtree scratch, bar one row's
_PRODUCT_FLOATS = 1 << 16  # floats in one pair block's products
_WIDE_ROWS = 256  # fewest rows per block, where the table allows as many
_TIE = 1e-12  # relative gap within which exhaustive_solve counts values as tied


class TooManyAttackedNodes(ValueError):
    """Scenario enumeration would exceed 2^25 outcomes."""


class InstanceTooLarge(ValueError):
    """Exhaustive search over attackable nodes would exceed 2^20 vectors."""


def pair_survival(instance: TreeInstance, paths: PathTable, flag_rows: np.ndarray) -> np.ndarray:
    """Path survival products of every pair for (batch, n) 0/1 flag rows.

    Returns shape (batch, pairs), columns in ``paths.pairs()`` order.  The
    upward table holds at (k, x) the product of the factors 1 - (1 - p) v
    over x and its k - 1 nearest ancestors, flattened to k * n + x; each
    pair multiplies its two ``paths.slots``.  No division: p = 0 stays exact.
    """
    rows = _flag_rows(instance, flag_rows)
    height, pairs = paths.levels * instance.node_count, paths.slots.shape[1]
    scratch = np.empty((height + 2 * pairs) * len(rows))
    table = _upward_into(instance, paths, rows, scratch[: height * len(rows)])
    first, second = scratch[height * len(rows) :].reshape(2, pairs, len(rows))
    return _products_into(table, paths.slots, first, second).T


def _flag_rows(instance: TreeInstance, flag_rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(flag_rows)
    if rows.ndim != 2 or rows.shape[1] != instance.node_count:
        raise ValueError(f"expected shape (batch, {instance.node_count})")
    if not ((rows == 0) | (rows == 1)).all():
        raise ValueError("attack flags must be 0 or 1")
    return rows


def _upward_into(instance: TreeInstance, paths: PathTable, rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Build the upward table of ``rows`` in ``scratch`` (``paths.levels *
    n`` floats per column: one column per row, then any padding) and return
    it as a (levels * n, columns) view.  Columns last: every gather from it
    copies contiguous runs of the batch.  ``mode="clip"`` lets ``np.take``
    write straight into ``out`` (the default ``mode="raise"`` buffers it);
    every index is in range."""
    columns = len(scratch) // (paths.levels * instance.node_count)
    upward = scratch.reshape(paths.levels, instance.node_count, columns)
    upward[0] = 1.0
    factors = _factors_into(instance, rows, upward[1])
    for k in range(2, paths.levels):
        np.take(upward[k - 1], paths.parent, axis=0, out=upward[k], mode="clip")
        upward[k] *= factors
    return upward.reshape(paths.levels * instance.node_count, columns)


def _factors_into(instance: TreeInstance, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Survival factors 1 - (1 - p) v into ``out``, nodes by columns; the
    columns past the rows are padding and get 1, as if nothing were hit."""
    np.copyto(out[:, : len(rows)], rows.T)
    out[:, : len(rows)] *= np.subtract(instance.survival_prob, 1.0)[:, None]
    out[:, len(rows) :] = 0.0
    out += 1.0
    return out


def _products_into(table: np.ndarray, slots: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Survival products of the pairs whose ``slots`` are given, pairs by
    batch, written into ``first``; ``second`` is overwritten."""
    np.take(table, slots[0], axis=0, out=first, mode="clip")
    np.take(table, slots[1], axis=0, out=second, mode="clip")
    first *= second
    return first


def pair_values(instance: TreeInstance, paths: PathTable, attack: AttackVector) -> np.ndarray:
    """Expected connection cost of every pair in ``paths.pairs()`` order:
    its cost times its path survival product; empty when n = 1."""
    products = pair_survival(instance, paths, np.array([attack.flags]))[0]
    return products * instance.pair_cost_array


def objective_tree(instance: TreeInstance, paths: PathTable, attack: AttackVector) -> float:
    """Expected pairwise connectivity via per-path survival products.

    Each pair (i, j) contributes c_ij * prod over path nodes k of
    (1 - (1 - p_k) v_k), taken from ``pair_values`` and added with
    compensated summation.
    """
    return math.fsum(pair_values(instance, paths, attack).tolist())


def objective_scenarios(instance: TreeInstance, attack: AttackVector) -> float:
    """Expected pairwise connectivity by enumerating attacked-node outcomes.

    Unattacked nodes survive surely, so only the 2^|S| survival patterns of
    the attacked set S carry probability mass.  Components are rebuilt per
    outcome with union-find, so the routine is valid on any graph, not just
    trees.  Outcome contributions are accumulated with compensated
    summation.
    """
    attacked = list(attack.attacked)
    if len(attacked) > 25:
        raise TooManyAttackedNodes(f"{len(attacked)} attacked nodes; limit is 25")
    n = instance.node_count
    p = instance.survival_prob
    costs = instance.connection_cost

    total = 0.0
    compensation = 0.0
    for outcome in range(1 << len(attacked)):
        mass = 1.0
        alive = [True] * n
        for bit, node in enumerate(attacked):
            if outcome >> bit & 1:
                mass *= p[node]
            else:
                mass *= 1.0 - p[node]
                alive[node] = False
        if mass == 0.0:
            continue

        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in instance.edges:
            if alive[u] and alive[v]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv

        if costs is None:
            sizes: dict[int, int] = {}
            for node in range(n):
                if alive[node]:
                    root = find(node)
                    sizes[root] = sizes.get(root, 0) + 1
            connectivity = sum(s * (s - 1) / 2.0 for s in sizes.values())
        else:
            alive_nodes = [node for node in range(n) if alive[node]]
            roots = {node: find(node) for node in alive_nodes}
            connectivity = 0.0
            for a_index, i in enumerate(alive_nodes):
                root_i = roots[i]
                for j in alive_nodes[a_index + 1 :]:
                    if roots[j] == root_i:
                        connectivity += costs.get((i, j), 1.0)

        term = mass * connectivity - compensation
        fresh = total + term
        compensation = (fresh - total) - term
        total = fresh
    return total


def feasible_attack_vectors(instance: TreeInstance) -> Iterator[tuple[int, ...]]:
    """Yield every feasible attack flag tuple in lexicographic order.

    Feasible means within budget and never attacking a node with survival
    probability 1.  Only ``attackable_nodes`` are branched on, so instances
    with more than 20 of them are rejected.
    """
    n = instance.node_count
    attackable = attackable_nodes(instance)
    if len(attackable) > 20:
        raise InstanceTooLarge(f"{len(attackable)} attackable nodes; exhaustive limit is 20")
    kappa = instance.attack_cost
    budget_slack = instance.budget + BUDGET_SLACK
    flags = [0] * n

    def recurse(position: int, spent: float) -> Iterator[tuple[int, ...]]:
        if position == len(attackable):
            yield tuple(flags)
            return
        node = attackable[position]
        yield from recurse(position + 1, spent)
        cost = kappa[node]
        if spent + cost <= budget_slack:
            flags[node] = 1
            yield from recurse(position + 1, spent + cost)
            flags[node] = 0

    return recurse(0, 0.0)


def batch_objective(instance: TreeInstance, paths: PathTable, flag_rows: np.ndarray) -> np.ndarray:
    """Objective of many attack vectors at once (every row is 0 when n = 1,
    which has no pairs).

    ``has_unit_connection_costs`` picks one of two routes.  When every pair
    costs 1, ``_subtree_sums_into`` takes O(n) work per row.  Otherwise
    ``_pair_sums_into`` adds the cost-weighted products of ``pair_survival``,
    O(n^2) per row.  Rows go in blocks of a multiple of 8, the last padded
    with unattacked rows, or one by one where 8 do not fit ``_TABLE_FLOATS``,
    so a row's value does not depend on where it falls in the batch: BLAS's
    matrix-vector product sums the last rows mod 4 of a call in another
    order, and numpy sums a lone column pairwise.

    One scratch allocation per call serves every block.  Fresh temporaries
    per block, or several buffers per call, let glibc's dynamic mmap and
    trim thresholds map, fault and unmap megabytes on call after call."""
    rows = _flag_rows(instance, flag_rows)
    if has_unit_connection_costs(instance):
        order, steps = paths.bottom_up
        widest = max((high - low for _, low, high, _, _ in steps), default=0)
        per_row = 2 * instance.node_count + 5 * widest + 2
        block = _block_rows(_TABLE_FLOATS // per_row, len(rows))
        fill = functools.partial(_subtree_sums_into, instance, order, steps, widest)
    else:
        costs = instance.pair_cost_array
        height = paths.levels * instance.node_count
        block, width = _block_shape(height, len(costs), len(rows))
        per_row = height + 2 * width
        fill = functools.partial(_pair_sums_into, instance, paths, costs, width)
    scratch = np.empty(per_row * block)
    values = np.empty(len(rows))
    step = min(block, 8)  # columns per chunk: a multiple of 8, or one lone row
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        fill(chunk, -(-len(chunk) // step) * step, scratch, values[start : start + len(chunk)])
    return values


def _block_rows(fit: int, rows: int) -> int:
    """Rows per block when ``fit`` rows fit one: ``fit`` rounded down to
    a multiple of 8, but no more than ``rows`` rounded up to one; or 1
    where fewer than 8 fit, as on deep trees, so that no block's scratch
    outgrows ``_TABLE_FLOATS`` floats or one row's."""
    return 1 if fit < 8 else min(fit - fit % 8, max(8, -(-rows // 8) * 8))


def _block_shape(height: int, pairs: int, rows: int) -> tuple[int, int]:
    """(rows per block, pairs per block) of the pair route, given the
    upward table's floats per row.

    A row block is as wide as one pair block holding every pair allows
    (each row then has one sum, as in a single product), but at least
    ``_WIDE_ROWS``, and its table has at most ``_TABLE_FLOATS`` floats;
    ``_block_rows`` then rounds it.  The pairs per block follow from the
    widest block, whatever ``rows`` is, so every row is summed over the
    same pair blocks.
    """
    fit = min(_TABLE_FLOATS // height, max(_PRODUCT_FLOATS // max(1, pairs), _WIDE_ROWS))
    return _block_rows(fit, rows), max(1, min(pairs, _PRODUCT_FLOATS // _block_rows(fit, fit)))


def _pair_sums_into(instance, paths, costs, width, rows, columns, scratch, out) -> None:
    """Cost-weighted row sums of ``pair_survival`` into ``out``.

    One upward table for the block, ``columns`` wide (the rows, then
    padding), is read by blocks of ``width`` pairs, each adding
    ``products.T @ costs`` over its pairs.  With one pair block, a row's
    value is that one product, as an unblocked pass would give it.
    """
    height = paths.levels * instance.node_count
    table = _upward_into(instance, paths, rows, scratch[: height * columns])
    products = scratch[height * columns : (height + 2 * width) * columns].reshape(2, width, columns)
    out[:] = 0.0
    for low in range(0, len(costs), width):
        pick = slice(low, low + width)
        first, second = products[:, : len(costs[pick])]
        out += (_products_into(table, paths.slots[:, pick], first, second).T @ costs[pick])[: len(rows)]


def _subtree_sums_into(instance, order, steps, widest, rows, columns, scratch, out) -> None:
    """Unit-cost objective of ``rows`` into ``out``, by the steps of
    ``PathTable.bottom_up``, on ``columns`` columns (the rows, then padding).

    s(x) = f_x (1 + S_x), S_x the sum of s over x's children, is the
    expected number of nodes joined to x within its subtree.  The pairs
    whose top node is x add f_x (S_x + P_x), P_x the sum of s(c) s(c')
    over pairs of x's children, to a per-node table whose column sums are
    the values.  A step adds its children run by run (every ranked
    parent's first child, then the second ones, ...), each run to a prefix
    of the ranked parents' S and P, then gathers them to the parents with
    a zero row in front for the childless.  No division: p = 0 stays exact.
    """
    if not steps:
        out[:] = 0.0
        return
    n = instance.node_count
    layout = scratch[: (2 * n + 5 * widest + 2) * columns].reshape(-1, columns)
    s, terms, sums, pair_sums, spare, total, pair_total = np.split(
        layout, np.cumsum([n, n, widest + 1, widest + 1, widest, widest])
    )
    np.take(_factors_into(instance, rows, terms), order, axis=0, out=s, mode="clip")
    sums[0] = pair_sums[0] = 0.0
    for below, low, high, ranks, picks in steps:
        np.copyto(sums[1 : ranks[0] + 1], s[below : below + ranks[0]])
        pair_sums[1 : ranks[0] + 1] = 0.0
        start = below + ranks[0]
        for size in ranks[1:]:
            run, head, pairs = s[start : start + size], sums[1 : size + 1], pair_sums[1 : size + 1]
            pairs += np.multiply(head, run, out=spare[:size])
            head += run
            start += size
        child_sum = np.take(sums, picks, axis=0, out=total[: high - low], mode="clip")
        pair_sum = np.take(pair_sums, picks, axis=0, out=pair_total[: high - low], mode="clip")
        factors = s[low:high]
        pair_sum += child_sum
        np.multiply(pair_sum, factors, out=terms[low:high])
        child_sum += 1.0
        factors *= child_sum
    np.add.reduce(terms[steps[0][1] :], axis=0, out=spare[0])
    out[:] = spare[0, : len(rows)]


def exhaustive_solve(instance: TreeInstance) -> tuple[AttackVector, float]:
    """Minimize over every feasible attack vector.

    Enumeration skips nodes no feasible attack can hit, prunes on the
    budget, and evaluates batches of 16 384.  Value ties go to the
    lexicographically smallest flag tuple (the enumeration order), which is
    returned with its own value.  Values within ``_TIE`` of the least,
    relative to it, count as tied (a least value of 0 ties only with 0):
    attacks of equal objective, such as mirror images, can differ in the
    last bits by the order a route sums in.
    """
    paths = build_path_table(instance)
    best = math.inf
    # each vector within the limit and below every earlier one: any other
    # is within the final limit only if an earlier record is too
    records: list[tuple[float, tuple[int, ...]]] = []
    vectors = feasible_attack_vectors(instance)
    while chunk := list(itertools.islice(vectors, 16384)):
        values = batch_objective(instance, paths, np.array(chunk, dtype=float))
        best = min(best, float(values.min()))
        limit = best + _TIE * best
        for index in np.flatnonzero(values <= limit).tolist():
            if not records or values[index] < records[-1][0]:
                records.append((float(values[index]), chunk[index]))
    # the empty attack is always feasible, so some record is within the limit
    value, flags = next(record for record in records if record[0] <= limit)
    return AttackVector(flags), value
