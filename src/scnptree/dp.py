"""Truncated dynamic program over rooted trees with unit costs.

A subtree's states are (attacks used, whether its root is attacked, c),
where ``c`` is mu times the expected number of connections from the subtree
root into its subtree, and each state's value is mu times the expected
connected pairs inside the subtree.  Children fold in right to left; each of
the four cross-connection terms of a merge is floored at the scale, so the
final value never exceeds the exact objective and undershoots it by at most
n(n-1)/(2 mu).

A table is a set of parallel arrays sorted by (attacks, flag, c): attacks,
flag, c, value, and the child row and rest row each state was merged from
(-1 in a node's base table).  A merge pairs child rows, taken by attacks
descending, with rest rows; rest rows are sorted by attacks, so the rows a
child row's budget leaves are a prefix, and ``searchsorted`` plus
``repeat`` form every feasible pair in O(pairs).  It keeps the least value
per (attacks, flag, c); a tie goes to the first pair formed, in the order
rest key, child row, rest row, which a stable sort puts first in its run.

Two rules drop states that cannot lie on a minimum-value chain.  Within an
(attacks, flag) group a state survives only if its value is strictly below
that of every smaller-c state.  And a state whose root is unattacked
(flag 0) survives only if no state with the same attacks and an attacked
root (flag 1) has c' <= c and value' < value.  Every term of a merge is
nondecreasing in the node's and the child's survival numerators, in both c
and in both values, and an attacked root's numerator p*den is at most the
unattacked one, den; so each merge the flag-0 state takes part in, the
flag-1 state takes part in too and stays strictly ahead.  Both rules need a
strictly lower value, so equal values, and with them the tie rule, are
never decided by a dropped state.

All arithmetic is integer: probabilities are expressed over one common
denominator (100 when every probability has two decimals, otherwise the
exact binary denominators), which keeps the floor operations exact.  A
naive float implementation misrounds cases like 100 * 0.7 * 0.2, whose
float product sits just below 14.  Arrays hold int64 when a bound on every
intermediate, from n, mu and the denominator, fits, else Python ints
(object arrays: exact, several times slower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from scnptree.evaluator import objective_tree
from scnptree.instance import AttackVector, TreeInstance, build_path_table, has_unit_connection_costs, rooted

# Largest state bound n*n*K*mu that dp_solve accepts.
STATE_CAP = 1_000_000_000


class NonUnitCosts(ValueError):
    """The dynamic program requires unit connection and attack costs."""


class StateOverflow(RuntimeError):
    """The state space bound n*n*K*mu exceeds ``STATE_CAP``."""


@dataclass(frozen=True)
class ApproxResult:
    """Truncated optimum plus the exact value of the recovered attack set.

    ``truncated_value <= OPT <= exact_value <= truncated_value + slack_bound``
    with ``slack_bound = n(n-1)/(2 mu)``.
    """

    truncated_value: float
    attack: AttackVector
    exact_value: float
    slack_bound: float
    state_count: int
    transition_count: int


class _Table(NamedTuple):
    """One DP table, rows sorted by (attacks, flag, c)."""

    attacks: np.ndarray
    flag: np.ndarray
    c: np.ndarray
    value: np.ndarray
    child_row: np.ndarray
    rest_row: np.ndarray


def _require_unit_costs(instance: TreeInstance) -> None:
    if any(k != 1.0 for k in instance.attack_cost):
        raise NonUnitCosts("attack costs must all equal 1")
    if not has_unit_connection_costs(instance):
        raise NonUnitCosts("connection costs must all equal 1")


def _scaled_probabilities(instance: TreeInstance) -> tuple[list[int], int]:
    """Exact integer numerators over one common denominator."""
    fracs: list[Fraction] = []
    for p in instance.survival_prob:
        snapped = round(p * 100)
        if abs(p * 100 - snapped) <= 1e-9:
            fracs.append(Fraction(snapped, 100))
        else:
            fracs.append(Fraction(p))
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * den) for f in fracs], den


def _int_dtype(n: int, mu: int, den: int) -> type:
    """``np.int64`` when no DP intermediate can overflow it, else ``object``.

    With numerators at most ``den``, c <= mu*(n-1), values <= mu*n*(n-1)/2
    and at most n attacks per table, the largest intermediates are
    mu*den*den, den*mu*n, c*c < (mu*n)**2 and the sort key
    ((attacks*(max c + 1) + c)*2 + 1 - flag)*(max value + 2) + value.  Its
    first factor is below 2*mu*n*(n+1), the second at most mu*n*n (mu >= 10),
    and adding the value keeps the key below 2*(n+1)*mu**2*n**3.
    """
    bound = max(mu * den * den, den * mu * n, 2 * (n + 1) * mu**2 * n**3)
    return np.int64 if bound < 2**62 else object


def _merge(
    rest: _Table, child: _Table, q: tuple[np.ndarray, np.ndarray], den: int, mu: int, budget: int
) -> tuple[_Table, int]:
    """Fold a child's table into its node's table; also count the pairs formed.

    ``q`` holds the numerators, unattacked and attacked, of the node and
    the child.
    """
    q_node, q_child = q
    # Child rows by attacks descending, table order within; each pairs with
    # the prefix of rest rows its budget leaves, in rest row order.
    down = np.argsort(-child.attacks, kind="stable")
    counts = np.searchsorted(rest.attacks, budget - child.attacks[down], side="right")
    ends = np.cumsum(counts)
    rest_row = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
    child_row = np.repeat(down, counts)
    attacks, qc, c_child, value = (
        np.repeat(column[down], counts)
        for column in (child.attacks, q_child[child.flag], child.c, child.value)
    )
    attacks += rest.attacks[rest_row]
    flag = rest.flag[rest_row]
    qn = q_node[flag]
    c_rest = rest.c[rest_row]
    t3 = qn * c_child // den
    direct = mu * qn * qc // (den * den)
    c = c_rest + direct + t3
    value += rest.value[rest_row] + direct
    value += qc * c_rest // den + t3 + c_child * c_rest // mu
    # One integer orders rows by (attacks, c, flag 1 first, value); the
    # stable sort keeps the first pair formed at the head of each run of
    # equal ones, and the running minimums below drop the rest of the run.
    span = value.max() + 2
    order = np.argsort(((attacks * (c.max() + 1) + c) * 2 + 1 - flag) * span + value, kind="stable")
    # Shifting each attack count down by attacks * span puts it wholly
    # below the counts before it, so running minimums restart at each one.
    # A flag-1 row must beat every earlier flag-1 value; a flag-0 row every
    # earlier flag-0 value and every earlier flag-1 value plus 1.
    shifted = value[order] - attacks[order] * span
    attacked = flag[order]
    best_attacked = np.minimum.accumulate(np.where(attacked, shifted, span))
    best_any = np.minimum.accumulate(shifted + attacked)
    keep = np.ones(len(order), bool)
    np.less(shifted[1:], np.where(attacked[1:], best_attacked[:-1], best_any[:-1]), out=keep[1:])
    kept = order[keep]
    # back to (attacks, flag, c) order: c already ascends within each cell
    kept = kept[np.argsort(2 * attacks[kept] + flag[kept], kind="stable")]
    columns = (attacks, flag, c, value, child_row, rest_row)
    return _Table(*(column[kept] for column in columns)), len(rest_row)


def dp_solve(
    instance: TreeInstance,
    max_attacks: int,
    nu: int,
    root: int = 0,
) -> ApproxResult:
    """Minimize expected connected pairs with at most ``max_attacks`` hits.

    ``nu`` sets the truncation scale mu = 10**nu, and the tree is rooted at
    ``root``.  Every merge advances c by the merged child's own probability.
    K is ``max_attacks`` capped at n; raises ``StateOverflow`` before any
    merge when n*n*K*mu exceeds ``STATE_CAP``.
    """
    _require_unit_costs(instance)
    if max_attacks < 0:
        raise ValueError("max_attacks must be >= 0")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if root not in range(instance.node_count):
        raise ValueError(f"root {root} out of range")
    n = instance.node_count
    budget = min(int(max_attacks), n)  # no tree allows more than n attacks
    mu = 10**nu
    if n * n * budget * mu > STATE_CAP:
        raise StateOverflow(
            f"state bound n*n*K*mu = {n * n * budget * mu} exceeds cap {STATE_CAP}"
        )

    numerators, den = _scaled_probabilities(instance)
    dtype = _int_dtype(n, mu, den)
    q = [np.array([den, numerator], dtype) for numerator in numerators]
    adjacency = instance.adjacency()
    parent, preorder = rooted(instance, root)
    children = [[x for x in reversed(adjacency[node]) if x != parent[node]] for node in range(n)]
    # a node alone: unattacked, and attacked when the budget allows
    lone = np.arange(min(budget, 1) + 1)
    zeros, no_row = np.zeros(len(lone), dtype), np.full(len(lone), -1)
    base = _Table(lone, lone, zeros, zeros, no_row, no_row)

    transition_count = 0
    # levels[node][i]: the table after folding children[node][i:]
    levels: dict[int, list[_Table]] = {}
    for node in reversed(preorder):
        kids = children[node]
        node_levels = [base]
        for child in reversed(kids):
            merged, transitions = _merge(
                node_levels[-1], levels[child][0], (q[node], q[child]), den, mu, budget
            )
            transition_count += transitions
            node_levels.append(merged)
        levels[node] = node_levels[::-1]

    # rows are sorted by (attacks, flag, c), so the first least value is
    # the least (value, attacks, flag, c)
    best_row = int(np.argmin(levels[root][0].value))

    # a merged row keeps its rest row's flag, so a node's level-0 row says
    # whether the node itself is attacked
    attacked: list[int] = []
    stack = [(root, best_row)]
    while stack:
        node, row = stack.pop()
        if levels[node][0].flag[row] == 1:
            attacked.append(node)
        for table, child in zip(levels[node], children[node]):
            stack.append((child, int(table.child_row[row])))
            row = int(table.rest_row[row])

    attack = AttackVector.from_nodes(attacked, n)
    exact = objective_tree(instance, build_path_table(instance), attack)
    return ApproxResult(
        truncated_value=int(levels[root][0].value[best_row]) / mu,
        attack=attack,
        exact_value=exact,
        slack_bound=n * (n - 1) / (2.0 * mu),
        state_count=sum(len(t.attacks) for tables in levels.values() for t in tables),
        transition_count=transition_count,
    )
