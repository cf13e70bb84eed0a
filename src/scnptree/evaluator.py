"""Ground-truth objective computation and brute-force search.

``pair_survival`` is the one kernel for per-pair path survival products;
``pair_values`` (the cut loop's, summed by ``objective_tree``) and
``batch_objective`` weight it by pair cost, and ``exhaustive_solve``
minimizes ``batch_objective`` over ``instance.attackable_nodes``.
``objective_scenarios`` shares no code with it: it enumerates the outcomes
of the attacked set on any graph, and the tests hold the kernel to it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from scnptree.instance import BUDGET_SLACK, AttackVector, PathTable, TreeInstance, attackable_nodes, build_path_table


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
    return _survival_into(instance, paths, rows, np.empty(_floats_per_row(instance, paths) * len(rows))).T


def _flag_rows(instance: TreeInstance, flag_rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(flag_rows)
    if rows.ndim != 2 or rows.shape[1] != instance.node_count:
        raise ValueError(f"expected shape (batch, {instance.node_count})")
    return rows


def _floats_per_row(instance: TreeInstance, paths: PathTable) -> int:
    """Scratch ``_survival_into`` needs per row: the upward table and two
    pair-product blocks."""
    return paths.levels * instance.node_count + 2 * paths.slots.shape[1]


def _survival_into(instance: TreeInstance, paths: PathTable, rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``pair_survival``'s kernel on a flat ``scratch`` of at least
    ``_floats_per_row * len(rows)`` floats; returns the products, pairs by
    batch, as a view into it.  ``mode="clip"`` lets ``np.take`` write
    straight into ``out`` (the default ``mode="raise"`` buffers it); every
    index is in range."""
    n, batch, pairs = instance.node_count, len(rows), paths.slots.shape[1]
    cut = paths.levels * n * batch
    # Batch last: every gather below copies contiguous rows of the batch.
    upward = scratch[:cut].reshape(paths.levels, n, batch)
    first, second = (
        scratch[cut + k * pairs * batch : cut + (k + 1) * pairs * batch].reshape(pairs, batch) for k in (0, 1)
    )
    upward[0] = 1.0
    factors = upward[1]
    np.multiply(rows.T, np.subtract(instance.survival_prob, 1.0)[:, None], out=factors)
    factors += 1.0
    for k in range(2, paths.levels):
        np.take(upward[k - 1], paths.parent, axis=0, out=upward[k], mode="clip")
        upward[k] *= factors
    flat = upward.reshape(paths.levels * n, batch)
    np.take(flat, paths.slots[0], axis=0, out=first, mode="clip")
    np.take(flat, paths.slots[1], axis=0, out=second, mode="clip")
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
    ``pair_survival``, fed chunks of about 2^18 pair products so that its
    tables stay in cache (every row is 0 when n = 1, which has no pairs).

    One scratch allocation per call, sized for the largest chunk, holds the
    upward table and both product blocks for every chunk.  Fresh
    temporaries per chunk, or several buffers per call, let glibc's
    dynamic mmap and trim thresholds map, fault and unmap megabytes on
    call after call."""
    rows = _flag_rows(instance, flag_rows)
    costs = pair_costs(instance, paths)
    step = max(1, (1 << 18) // max(1, len(costs)))
    scratch = np.empty(_floats_per_row(instance, paths) * min(step, len(rows)))
    values = np.empty(len(rows))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        values[start : start + len(chunk)] = _survival_into(instance, paths, chunk, scratch).T @ costs
    return values


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
