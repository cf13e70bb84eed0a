"""Linear formulations of the tree interdiction problem.

Two exact models over binary attack flags v_i:

- build_chain_milp: one survival column per path position bounds the
  product of per-node survival factors along every pair's path from
  below, and nonnegative costs pull each costed level onto it.  All pairs
  starting at the same node reuse one column per reachable node (the
  paths from a fixed start form a tree, so each position is a node).
- build_ilp_p: when every node has the same survival probability p, only
  the number of attacked nodes on a path matters; selector variables pick
  that count per pair.

Both share one attack block (``_add_attack_block``) that states what the
budget implies about binary v, by the attack rule of ``instance``: upper
bound 0 on every node outside ``attackable_nodes`` (p_i = 1 or a cost
above the budget), the budget rounded down to the gcd grid of the
attackable costs when they are all integers, a row capping the number
of attacks at ``max_attacks``, and one row per maximal clique of the
budget's conflict graph (nodes no feasible attack holds together).  The
chain model optionally adds leaf dominance rows.  Both builders return
the model and its attack columns.

``feasible_attack`` is the one read-off of a solver point for these
models and the cut loop's master: it rounds the attack columns and
returns the attack if it is feasible, else cuts it off with a cover row.
The attack block installs it as the model's ``lazy_rows`` check, so
``solve_milp`` on any model with the block, the cut loop's master
included, returns only feasible attacks.

Both record a structural start basis for HiGHS (``LinearModel.start_basis``)
at v = 0: each survival column basic in the row that pins it (``sfirst``
at a path's first node, ``sdrop`` after it), each pair's zero-attack
selector basic in its ``pick`` row, and every other slack basic.  It is
triangular, so nonsingular, and primal feasible because the budget is
nonnegative.
"""

from __future__ import annotations

import math

from scnptree.instance import BUDGET_SLACK, AttackVector, PathTable, TreeInstance, attackable_nodes, max_attacks
from scnptree.milpcore import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearModel


class UnequalProbabilities(ValueError):
    """The uniform-probability model needs identical survival probabilities."""


def valid_inequalities(instance: TreeInstance) -> tuple[tuple[int, int], ...]:
    """Leaf dominance pairs (i, j) meaning v_i <= v_j is safe to add.

    A leaf i with inner neighbor j that is no more likely to survive an
    attack and no more expensive dominates the leaf: any budget spent on i
    does at least as well on j.  At least one optimal solution satisfies
    all returned rows.
    """
    out: list[tuple[int, int]] = []
    leaves = set(instance.leaves())
    adjacency = instance.adjacency()
    for i in sorted(leaves):
        j = adjacency[i][0]
        if j in leaves:
            continue
        if instance.survival_prob[j] <= instance.survival_prob[i] and (
            instance.attack_cost[j] <= instance.attack_cost[i]
        ):
            out.append((i, j))
    return tuple(out)


def _budget_cliques(instance: TreeInstance, attackable: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Maximal cliques of the budget's conflict graph, at most one per
    attackable node; two nodes conflict when no feasible attack holds
    both, that is when kappa_a + kappa_b exceeds K + ``BUDGET_SLACK``.

    In descending cost order (ties by index) the nodes that conflict with
    node j form a prefix of length t_j, because float addition rounds
    monotonically.  While t_j = j, node j joins the head clique; after
    it, 0 < t_j < j gives the clique of that prefix plus j; the head
    clique comes first when it has two nodes or more.  A pair's sum
    is the one ``AttackVector.is_feasible`` forms, and a superset's sum is
    no smaller, so a row over a clique cuts off no feasible attack.
    """
    cost = instance.attack_cost
    limit = instance.budget + BUDGET_SLACK
    order = sorted(attackable, key=lambda u: (-cost[u], u))
    cliques = []
    head = 0
    for j, u in enumerate(order):
        t = 0
        while t < j and cost[order[t]] + cost[u] > limit:
            t += 1
        if t == j:
            head += 1
        elif t:
            cliques.append((*order[:t], u))
    if head > 1:
        cliques.insert(0, tuple(order[:head]))
    return cliques


def _add_attack_block(
    model: LinearModel,
    instance: TreeInstance,
    add_valid_ineq: bool,
) -> tuple[int, ...]:
    """Binary attack columns plus every row the budget implies about them.

    A binary v meets the block exactly when ``AttackVector(v).is_feasible``
    holds; the extra bounds and rows only tighten the LP relaxation.
    Nodes no feasible attack can hit get upper bound 0.  When the
    attackable costs are integers with gcd g, the budget row's right-hand
    side rounds down to g*floor((K + BUDGET_SLACK)/g) (Chvatal-Gomory
    rounding), and the ``count`` row caps the number of attacks at
    ``max_attacks`` when the budget cannot buy every attackable node.
    When the budget buys two or more nodes, each clique of
    ``_budget_cliques`` gets a row ``clique_{u}``, u its last node in
    their order: at most one of its nodes is attacked.  Below two the count row already says as much.
    """
    attackable = attackable_nodes(instance)
    attack = tuple(
        model.add_variable(f"v{i}", lower=0.0, upper=float(i in attackable), integer=True)
        for i in range(instance.node_count)
    )
    budget = instance.budget
    costs = [instance.attack_cost[i] for i in attackable]
    if costs and all(c.is_integer() for c in costs):
        g = math.gcd(*(int(c) for c in costs))
        budget = g * math.floor((budget + BUDGET_SLACK) / g)
    model.add_row("budget", list(attack), list(instance.attack_cost), LESS_EQUAL, budget)
    k = max_attacks(instance)
    if k < len(attackable):
        model.add_row("count", list(attack), [1.0] * len(attack), LESS_EQUAL, float(k))
    if k > 1:
        for clique in _budget_cliques(instance, attackable):
            cols = [attack[u] for u in clique]
            model.add_row(f"clique_{clique[-1]}", cols, [1.0] * len(cols), LESS_EQUAL, 1.0)
    if add_valid_ineq:
        for i, j in valid_inequalities(instance):
            model.add_row(f"dom_{i}_{j}", [attack[i], attack[j]], [1.0, -1.0], LESS_EQUAL, 0.0)
    # the check gets the model as an argument and must not hold it
    model.lazy_rows = lambda m, x, bound: feasible_attack(m, instance, attack, x) is None
    return attack


def _chain_rows(
    model: LinearModel, v: int, s: int, prev_s: int | None, q: float, tag: str
) -> None:
    """Rows bounding a position's survival level s from below; q = 1 - p.

    The row that pins s at v = 0 (its first row) joins the start basis
    with s basic in it.
    """
    if prev_s is None:
        pin = model.add_row(f"sfirst_{tag}", [s, v], [1.0, q], GREATER_EQUAL, 1.0)
    else:
        pin = model.add_row(f"sdrop_{tag}", [s, prev_s, v], [1.0, -1.0, q], GREATER_EQUAL, 0.0)
        model.add_row(f"sscale_{tag}", [s, prev_s], [1.0, q - 1.0], GREATER_EQUAL, 0.0)
    model.start_basis.append((pin, s))


def build_chain_milp(
    instance: TreeInstance,
    paths: PathTable,
    add_valid_ineq: bool = False,
) -> tuple[LinearModel, tuple[int, ...]]:
    """Exact model: minimize total expected pairwise connection cost.

    Each pair's path carries a survival level s.  With q = 1 - p of the
    node, the level is at least 1 - q*v at the path's first node and at
    least max(s_prev - q*v, (1 - q)*s_prev) at every later one.  Both
    bounds are nondecreasing in s_prev and pair costs are nonnegative, so
    a minimum puts every level that carries cost, or feeds one, on its
    bound; at binary v that is the product of per-node survival factors,
    so the optimum matches the exhaustive objective.  Paths from one start
    node i form a tree, so pairs (i, j) share their common prefix:
    position (i, u) gets one column, created the first time a path from i
    meets u, and carries the cost of pair (i, u) when u > i.
    """
    model = LinearModel("chain")
    attack = _add_attack_block(model, instance, add_valid_ineq=add_valid_ineq)
    s_at: dict[tuple[int, int], int] = {}
    for i, j in paths.pairs():
        prev = None
        for u in paths.path(i, j):
            if (i, u) not in s_at:
                cost = instance.pair_cost(i, u) if u > i else 0.0
                s_at[i, u] = model.add_variable(f"s_{i}_{u}", objective=cost)
                q = 1.0 - instance.survival_prob[u]
                _chain_rows(model, attack[u], s_at[i, u], prev, q, f"{i}_{u}")
            prev = s_at[i, u]
    return model, attack


def build_ilp_p(
    instance: TreeInstance,
    paths: PathTable,
) -> tuple[LinearModel, tuple[int, ...]]:
    """Exact model for instances whose nodes share one survival probability.

    A pair that loses exactly t of its path nodes survives with probability
    p**t, so binary selectors y_t per pair pick the attacked count and the
    objective reads the corresponding power of p.  The count is capped by
    the path length and by ``max_attacks``, the most attacks the budget
    can buy.
    """
    probs = set(instance.survival_prob)
    if len(probs) > 1:
        raise UnequalProbabilities(
            f"survival probabilities must all match; found {len(probs)} distinct values"
        )
    p = instance.survival_prob[0]
    most = max_attacks(instance)

    model = LinearModel("uniform_p")
    attack = _add_attack_block(model, instance, add_valid_ineq=False)
    for i, j in paths.pairs():
        path = paths.path(i, j)
        cost = instance.pair_cost(i, j)
        cap = min(most, len(path))
        y_cols = tuple(
            model.add_variable(
                f"y_{i}_{j}_{t}",
                lower=0.0,
                upper=1.0,
                objective=cost * p**t,
                integer=True,
            )
            for t in range(cap + 1)
        )
        pick = model.add_row(f"pick_{i}_{j}", list(y_cols), [1.0] * len(y_cols), EQUAL, 1.0)
        model.start_basis.append((pick, y_cols[0]))
        model.add_row(
            f"count_{i}_{j}",
            list(y_cols) + [attack[u] for u in path],
            [float(t) for t in range(cap + 1)] + [-1.0] * len(path),
            EQUAL,
            0.0,
        )
    return model, attack


def feasible_attack(
    model: LinearModel, instance: TreeInstance, attack_cols: tuple[int, ...], x
) -> AttackVector | None:
    """The attack of a solver point's rounded attack columns if it is
    feasible; otherwise None, after cutting it off in ``model``.

    LP solvers accept a budget row within their tolerance (1e-7), wider
    than the slack ``AttackVector.is_feasible`` allows, so with fractional
    costs an attack S just over the budget can be an integral LP optimum.
    The cover row, the sum of v over S at most |S| - 1, removes S and every
    attack containing it; costs are nonnegative, so all of those are
    infeasible too, and the row removes no feasible attack.  As the
    model's ``lazy_rows`` check this runs inside branch and bound, so a
    point ``solve_milp`` returns always reads off as a feasible attack.
    """
    attack = AttackVector(tuple(1 if round(float(x[c])) >= 1 else 0 for c in attack_cols))
    if attack.is_feasible(instance):
        return attack
    cols = [attack_cols[u] for u in attack.attacked]
    model.add_row(f"cover{model.num_rows}", cols, [1.0] * len(cols), LESS_EQUAL, len(cols) - 1.0)
    return None


def model_size(model: LinearModel) -> dict[str, int]:
    """Small summary used by reports and logs."""
    start, _, _ = model.row_matrix()
    return {
        "variables": model.num_variables,
        "integer_variables": sum(model.is_integer),
        "rows": model.num_rows,
        "nonzeros": int(start[-1]),
    }

