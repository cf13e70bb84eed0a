"""Ground-truth objective computation and brute-force search.

Path survival products come from one kernel: ``_upward_into`` builds a
table of upward products and ``_products_into`` multiplies two of its rows
per pair.  ``pair_survival`` runs it once on all rows and pairs, and
``pair_values`` (the cut loop's, summed by ``objective_tree``) weights its
products by pair cost.  ``batch_objective`` runs it in blocks: one table
per block of rows, read by blocks of pairs, so its scratch stays
cache-sized whatever the batch.  ``exhaustive_solve`` minimizes
``batch_objective`` over ``instance.attackable_nodes``.
``objective_scenarios`` shares no code with it: it enumerates the outcomes
of the attacked set on any graph, and the tests hold the kernel to it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from scnptree.instance import BUDGET_SLACK, AttackVector, PathTable, TreeInstance, attackable_nodes, build_path_table


# batch_objective's block sizes, chosen by timing the benchmark's bulk blocks
_TABLE_FLOATS = 1 << 19  # most floats in the upward table of one row block
_PRODUCT_FLOATS = 1 << 16  # floats in one pair block's products
_WIDE_ROWS = 256  # fewest rows per block, where the table allows as many


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
    n * len(rows)`` floats) and return it as a (levels * n, batch) view.
    Batch last: every gather from it copies contiguous rows of the batch.
    ``mode="clip"`` lets ``np.take`` write straight into ``out`` (the
    default ``mode="raise"`` buffers it); every index is in range."""
    upward = scratch.reshape(paths.levels, instance.node_count, len(rows))
    upward[0] = 1.0
    factors = upward[1]
    np.multiply(rows.T, np.subtract(instance.survival_prob, 1.0)[:, None], out=factors)
    factors += 1.0
    for k in range(2, paths.levels):
        np.take(upward[k - 1], paths.parent, axis=0, out=upward[k], mode="clip")
        upward[k] *= factors
    return upward.reshape(-1, len(rows))


def _products_into(table: np.ndarray, slots: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Survival products of the pairs whose ``slots`` are given, pairs by
    batch, written into ``first``; ``second`` is overwritten."""
    np.take(table, slots[0], axis=0, out=first, mode="clip")
    np.take(table, slots[1], axis=0, out=second, mode="clip")
    first *= second
    return first


def pair_costs(instance: TreeInstance, paths: PathTable) -> np.ndarray:
    """Connection cost of every pair in ``paths.pairs()`` order."""
    if instance.connection_cost is None:
        return np.ones(paths.slots.shape[1])
    return np.array([instance.connection_cost.get(pair, 1.0) for pair in paths.pairs()])


def pair_values(instance: TreeInstance, paths: PathTable, attack: AttackVector) -> np.ndarray:
    """Expected connection cost of every pair in ``paths.pairs()`` order:
    its cost times its path survival product; empty when n = 1."""
    products = pair_survival(instance, paths, np.array([attack.flags]))[0]
    return products * pair_costs(instance, paths)


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
    """Objective of many attack vectors at once: cost-weighted row sums of
    ``pair_survival`` (every row is 0 when n = 1, which has no pairs).

    Rows go in blocks (``_block_shape``), each with one upward table of at
    most ``_TABLE_FLOATS`` floats.  A block's pairs go in blocks of about
    ``_PRODUCT_FLOATS`` products, and each adds ``products.T @ costs`` over
    its pairs to the block's values.  With one pair block, a row's value is
    that one product, as an unblocked pass would give it.

    One scratch allocation per call holds the table and both product
    blocks.  Fresh temporaries per block, or several buffers per call, let
    glibc's dynamic mmap and trim thresholds map, fault and unmap megabytes
    on call after call."""
    rows = _flag_rows(instance, flag_rows)
    costs = pair_costs(instance, paths)
    height, pairs = paths.levels * instance.node_count, len(costs)
    block, width = _block_shape(height, pairs, len(rows))
    scratch = np.empty(block * (height + 2 * width))
    values = np.zeros(len(rows))
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        batch = len(chunk)
        table = _upward_into(instance, paths, chunk, scratch[: height * batch])
        products = scratch[height * batch : (height + 2 * width) * batch].reshape(2, width, batch)
        for low in range(0, pairs, width):
            pick = slice(low, low + width)
            first, second = products[:, : len(costs[pick])]
            values[start : start + batch] += _products_into(table, paths.slots[:, pick], first, second).T @ costs[pick]
    return values


def _block_shape(height: int, pairs: int, rows: int) -> tuple[int, int]:
    """(rows per block, pairs per block) for ``batch_objective``, given the
    upward table's floats per row.

    A row block is as wide as one pair block holding every pair allows
    (each row then has one sum, as in a single product), but at least
    ``_WIDE_ROWS``, and its table has at most ``_TABLE_FLOATS`` floats.
    Where it can, it is a multiple of 8 rows: BLAS sums the last rows mod
    4 of a matrix-vector product in another order, so aligned blocks keep
    a row's value independent of the block it falls in, bar the last.
    """
    fit = min(_TABLE_FLOATS // height, max(_PRODUCT_FLOATS // max(1, pairs), _WIDE_ROWS))
    block = max(1, min(rows, fit - fit % 8 or fit))
    return block, max(1, min(pairs, _PRODUCT_FLOATS // block))


def exhaustive_solve(instance: TreeInstance) -> tuple[AttackVector, float]:
    """Minimize over every feasible attack vector.

    Enumeration skips nodes no feasible attack can hit, prunes on the
    budget, and breaks value ties by the lexicographically smallest flag
    tuple (the enumeration order), evaluating batches of 16 384.
    """
    paths = build_path_table(instance)
    best_value = math.inf
    best_flags: tuple[int, ...] | None = None
    vectors = feasible_attack_vectors(instance)
    while chunk := list(itertools.islice(vectors, 16384)):
        values = batch_objective(instance, paths, np.array(chunk, dtype=float))
        index = int(np.argmin(values))
        if values[index] < best_value:
            best_value = float(values[index])
            best_flags = chunk[index]

    assert best_flags is not None  # the empty attack is always feasible
    return AttackVector(best_flags), best_value
