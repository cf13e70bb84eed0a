"""Core data model: tree instances, attack vectors, paths, and file I/O.

Node indices are 0-based contiguous integers.  Connection costs are kept
sparse: ``None`` means "all pairs cost 1", otherwise a mapping from ordered
pairs (i, j) with i < j to nonnegative floats, with unlisted pairs
defaulting to 1.  Instances and path tables are immutable after
construction and safe to share across threads: two threads that first read
a derived value at once build identical values twice.  Derived values are
built once, on first use, and kept for the instance's lifetime: its dense
pair costs (O(n^2)) and its one path table, whose first
``build_path_table`` call does O(n) work (one walk, with parents, depths
and subtree sizes); the table's pair ``slots`` (O(n^2) memory; O(n^2)
time, O(n^3) on path-shaped trees), node sequences (O(n^3) on path-shaped
trees) and bottom-up pass (O(n log n)) wait for their first reader.  A
pickle carries only an instance's fields, never its derived values.

Every method reads one tree walk, ``rooted``, one normaliser of raw
fields, ``make_instance``, one attack rule, ``attackable_nodes`` and
``max_attacks``, and one unit-cost test, ``has_unit_connection_costs``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class InstanceError(ValueError):
    """Base class for instance validation failures.

    ``report`` lists every violated invariant found during validation, not
    only the one the exception class refers to.
    """

    def __init__(self, message: str, report: list[str] | None = None):
        super().__init__(message)
        self.report = report if report is not None else [message]


class NotATree(InstanceError):
    """Edge set is not a spanning tree (wrong count, cycle, or disconnected)."""


class ProbabilityOutOfRange(InstanceError):
    """Some survival probability lies outside [0, 1]."""


class NonpositiveAttackCost(InstanceError):
    """Some attack cost is not positive and finite, or the budget is
    negative or not finite."""


class NegativeConnectionCost(InstanceError):
    """Some pair connection cost is negative or not finite."""


class ParseError(ValueError):
    """Instance file is malformed; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def normalize_pair(i: int, j: int) -> tuple[int, int]:
    """Order an unordered pair as (min, max)."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class TreeInstance:
    """A tree interdiction instance.

    Fields mirror the canonical file format: ``node_count`` (n), ``edges``
    (n-1 unordered pairs), per-node ``survival_prob`` and ``attack_cost``,
    sparse ``connection_cost`` (``None`` = unit), and the attack ``budget``.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    survival_prob: tuple[float, ...]
    attack_cost: tuple[float, ...]
    connection_cost: Mapping[tuple[int, int], float] | None
    budget: float

    def pair_cost(self, i: int, j: int) -> float:
        """Connection cost of the unordered pair (i, j)."""
        if self.connection_cost is None:
            return 1.0
        return self.connection_cost.get(normalize_pair(i, j), 1.0)

    def __getstate__(self) -> dict:
        """Pickle the fields only: the derived values are rebuilt, read-only,
        on first use after unpickling."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def pair_cost_array(self) -> np.ndarray:
        """Read-only connection cost of every pair (i, j), i < j, in
        lexicographic order, the order of ``PathTable.pairs()``."""
        n = self.node_count
        costs = np.ones(n * (n - 1) // 2)
        if self.connection_cost:
            i, j = np.array(list(self.connection_cost), dtype=np.intp).T
            costs[i * (2 * n - i - 1) // 2 + j - i - 1] = list(self.connection_cost.values())
        costs.flags.writeable = False
        return costs

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists (recomputed; instances are immutable)."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        return adj

    def leaves(self) -> list[int]:
        """Nodes of degree exactly 1."""
        return [i for i, neighbors in enumerate(self.adjacency()) if len(neighbors) == 1]

    def total_connection_cost(self) -> float:
        """Sum of c_ij over all pairs: the objective with nothing attacked."""
        n = self.node_count
        total = n * (n - 1) / 2.0
        if self.connection_cost is not None:
            for cost in self.connection_cost.values():
                total += cost - 1.0
        return total


def has_unit_connection_costs(instance: TreeInstance) -> bool:
    """Whether every pair costs 1, listed or not."""
    return instance.connection_cost is None or all(c == 1.0 for c in instance.connection_cost.values())


def rooted(instance: TreeInstance, root: int = 0) -> tuple[list[int], list[int]]:
    """Parent of every node (the root its own, -1 if unreached) and the
    reached nodes in preorder, where each subtree is a contiguous run.
    The walk enters each node once, so it ends on a cycle too."""
    adjacency = instance.adjacency()
    parent = [-1] * instance.node_count
    parent[root] = root
    preorder: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        for nxt in adjacency[node]:
            if parent[nxt] < 0:
                parent[nxt] = node
                stack.append(nxt)
    return parent, preorder


def make_instance(
    node_count: int,
    edges: Iterable[Sequence[int]],
    survival_prob: Iterable[float],
    attack_cost: Iterable[float],
    connection_cost: Mapping[tuple[int, int], float] | Iterable[Sequence[float]] | None,
    budget: float,
) -> TreeInstance:
    """Normalize raw fields into a validated TreeInstance."""
    costs: dict[tuple[int, int], float] | None
    if connection_cost is None:
        costs = None
    elif isinstance(connection_cost, Mapping):
        costs = {normalize_pair(*k): float(v) for k, v in connection_cost.items()}
    else:
        costs = {normalize_pair(int(i), int(j)): float(c) for i, j, c in connection_cost}
    instance = TreeInstance(
        node_count=int(node_count),
        edges=tuple(normalize_pair(int(u), int(v)) for u, v in edges),
        survival_prob=tuple(float(p) for p in survival_prob),
        attack_cost=tuple(float(k) for k in attack_cost),
        connection_cost=costs,
        budget=float(budget),
    )
    return validate(instance)


def validate(instance: TreeInstance) -> TreeInstance:
    """Return the instance iff every invariant holds.

    On failure raises the error class of the first violation; the exception's
    ``report`` attribute carries the full list of violations.
    """
    violations: list[tuple[type[InstanceError], str]] = []
    n = instance.node_count

    if n < 1:
        violations.append((NotATree, f"node_count must be >= 1, got {n}"))
    if len(instance.edges) != max(n - 1, 0):
        violations.append(
            (NotATree, f"expected {max(n - 1, 0)} edges for {n} nodes, got {len(instance.edges)}")
        )
    for u, v in instance.edges:
        if not (0 <= u < n and 0 <= v < n):
            violations.append((NotATree, f"edge ({u},{v}) references a node outside 0..{n - 1}"))
        elif u == v:
            violations.append((NotATree, f"self-loop at node {u}"))
    # Reachability check only makes sense once the edge list itself is sane.
    if not violations:
        missing = [i for i, up in enumerate(rooted(instance)[0]) if up < 0]
        if missing:
            violations.append((NotATree, f"nodes {missing} unreachable from node 0"))

    if len(instance.survival_prob) != n:
        violations.append(
            (ProbabilityOutOfRange, f"survival_prob has {len(instance.survival_prob)} entries, expected {n}")
        )
    for i, p in enumerate(instance.survival_prob):
        if not (0.0 <= p <= 1.0) or math.isnan(p):
            violations.append((ProbabilityOutOfRange, f"p[{i}] = {p} outside [0, 1]"))

    if len(instance.attack_cost) != n:
        violations.append(
            (NonpositiveAttackCost, f"attack_cost has {len(instance.attack_cost)} entries, expected {n}")
        )
    for i, cost in enumerate(instance.attack_cost):
        if not 0.0 < cost < math.inf:
            violations.append((NonpositiveAttackCost, f"kappa[{i}] = {cost} is not positive and finite"))

    if instance.connection_cost is not None:
        for (i, j), cost in instance.connection_cost.items():
            if not (0 <= i < j < n):
                violations.append(
                    (NegativeConnectionCost, f"connection cost pair ({i},{j}) is not an ordered node pair")
                )
            if not 0.0 <= cost < math.inf:
                violations.append((NegativeConnectionCost, f"c[{i},{j}] = {cost} is negative or not finite"))
        total = instance.total_connection_cost()
        if not math.isfinite(total) and all(0.0 <= c < math.inf for c in instance.connection_cost.values()):
            violations.append((NegativeConnectionCost, f"total connection cost {total} is not finite"))

    if not 0.0 <= instance.budget < math.inf:
        violations.append((NonpositiveAttackCost, f"budget K = {instance.budget} is negative or not finite"))

    if violations:
        error_cls, message = violations[0]
        raise error_cls(message, report=[m for _, m in violations])
    return instance


@dataclass(frozen=True, eq=False)
class PathTable:
    """The rooted tree and the index arrays of every pair's path survival
    product.

    The tree is rooted at node 0.  ``parent`` maps each node to its parent
    (the root to itself), ``levels`` is the height plus two, and
    ``preorder``, ``depth`` and ``size`` hold the walk of ``rooted``, each
    node's depth and its subtree's node count.  These O(n) arrays are all
    that ``build_path_table`` builds.

    Pairs (i, j) with i < j are taken in lexicographic order, the column
    order of ``evaluator.pair_survival`` and of every per-pair array, such
    as ``evaluator.pair_values`` and the cut loop's z columns.  A pair's
    path is two upward runs: from i to just below the lowest common
    ancestor, and from j to the ancestor inclusive.  ``slots`` has shape
    (2, pairs) and holds each run as length * n + start, its position in
    ``pair_survival``'s flattened upward table.

    ``slots``, ``paths`` (the node sequence of every pair) and
    ``bottom_up`` are built on first read, so at most once per instance:
    an instance has one table, built by the first ``build_path_table`` call
    and kept for the instance's lifetime (as with ``pair_cost_array``, two
    threads that first read one at once build it twice).  The unit-cost
    route of ``evaluator.batch_objective`` reads only ``bottom_up``, so it
    never pays for the pair arrays.
    """

    node_count: int
    parent: np.ndarray = field(repr=False)
    levels: int = field(repr=False)
    preorder: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    size: np.ndarray = field(repr=False)

    @cached_property
    def slots(self) -> np.ndarray:
        """Read-only (2, pairs) run positions of every pair's path.

        Each subtree is a contiguous run of the preorder, so one slice
        assignment per node, parents first, fills the table of lowest
        common ancestor depths for all pairs at once.
        """
        n = self.node_count
        order, depth, size = self.preorder.tolist(), self.depth.tolist(), self.size.tolist()
        lca_depth = np.empty((n, n), dtype=np.intp)
        for pos, node in enumerate(order):
            stop = pos + size[node]
            lca_depth[pos:stop, pos:stop] = depth[node]
        where = np.empty(n, dtype=np.intp)
        where[order] = np.arange(n)
        # The (i, j) pairs in np.triu_indices(n, 1) order: row i holds
        # j = i+1..n-1 and starts at flat position i*(2n-i-1)/2.
        rows = np.arange(n)
        ends = np.repeat([rows, rows + 1 - rows * (2 * n - rows - 1) // 2], n - 1 - rows, axis=1)
        ends[1] += np.arange(ends.shape[1])
        # Run lengths up from each end; the second run includes the ancestor.
        runs = self.depth[ends] - lca_depth[where[ends[0]], where[ends[1]]] + [[0], [1]]
        slots = runs * n + ends
        slots.flags.writeable = False
        return slots

    @cached_property
    def paths(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Node sequence from i to j inclusive for each pair (i, j), i < j."""
        parent = self.parent.tolist()
        chains = []  # each node's path up to the root
        for node in range(self.node_count):
            chain = [node]
            while parent[chain[-1]] != chain[-1]:
                chain.append(parent[chain[-1]])
            chains.append(chain)
        runs = (self.slots // self.node_count).T.tolist()
        return {
            (i, j): tuple(chains[i][:up] + chains[j][down - 1 :: -1])
            for (i, j), (up, down) in zip(self.pairs(), runs)
        }

    @cached_property
    def bottom_up(self) -> tuple[np.ndarray, tuple[tuple[int, int, int, tuple[int, ...], np.ndarray], ...]]:
        """Node order and steps of a pass from the deepest nodes to the root.

        ``order`` lists the nodes by depth, deepest first.  Step (below,
        low, high, ranks, picks) joins the nodes at ``order[low:high]`` to
        their children at ``order[below:low]``.  The parents with children
        are ranked by child count, most first, ties by position; the
        children come as every ranked parent's first child, then the second
        child of each parent with two or more, and so on, ``ranks`` giving
        each run's length.  ``picks`` holds, per node, 1 + its rank, or 0
        if it has no children.  Steps run deepest first.
        """
        parent = self.parent.tolist()
        children: list[list[int]] = [[] for _ in range(self.node_count)]
        for node, up in enumerate(parent):
            if up != node:
                children[up].append(node)
        levels, steps = [[0]], []  # levels from the root down
        while ranked := sorted((node for node in levels[-1] if children[node]), key=lambda node: -len(children[node])):
            runs = [
                [children[node][r] for node in ranked if len(children[node]) > r]
                for r in range(len(children[ranked[0]]))
            ]
            rank = {node: r for r, node in enumerate(ranked, 1)}
            picks = np.array([rank.get(node, 0) for node in levels[-1]], dtype=np.intp)
            steps.append((tuple(map(len, runs)), picks))
            levels.append([child for run in runs for child in run])
        order = np.array([node for level in reversed(levels) for node in level], dtype=np.intp)
        bounds = np.cumsum([len(level) for level in reversed(levels)]).tolist()
        return order, tuple(
            (below, low, high, ranks, picks)
            for below, low, high, (ranks, picks) in zip([0] + bounds, bounds, bounds[1:], reversed(steps))
        )

    def path(self, i: int, j: int) -> tuple[int, ...]:
        """Node sequence of the unique i-j path, oriented from min(i,j)."""
        return self.paths[normalize_pair(i, j)]

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Every pair (i, j) with i < j, in lexicographic order."""
        return itertools.combinations(range(self.node_count), 2)


def build_path_table(instance: TreeInstance) -> PathTable:
    """The instance's one table: the first call walks ``rooted``'s tree for
    parents, depths and subtree sizes in O(n) and keeps the table in the
    instance, as ``pair_cost_array`` is kept; later calls return it."""
    if "_path_table" in instance.__dict__:
        return instance.__dict__["_path_table"]
    n = instance.node_count
    parent, order = rooted(instance)
    depth = [0] * n
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1
    size = [1] * n
    for node in reversed(order[1:]):
        size[parent[node]] += size[node]
    table = PathTable(n, _read_only(parent), max(depth) + 2, _read_only(order), _read_only(depth), _read_only(size))
    return instance.__dict__.setdefault("_path_table", table)


def _read_only(values: list[int]) -> np.ndarray:
    array = np.array(values, dtype=np.intp)
    array.flags.writeable = False
    return array


BUDGET_SLACK = 1e-9  # attack cost may exceed the budget by this much


@dataclass(frozen=True)
class AttackVector:
    """Binary attack decision per node."""

    flags: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.flags):
            raise ValueError("attack flags must be 0 or 1")

    @classmethod
    def from_nodes(cls, nodes: Iterable[int], node_count: int) -> "AttackVector":
        flags = [0] * node_count
        for i in nodes:
            if not 0 <= i < node_count:
                raise ValueError(f"attack node {i} outside 0..{node_count - 1}")
            flags[i] = 1
        return cls(tuple(flags))

    @classmethod
    def empty(cls, node_count: int) -> "AttackVector":
        return cls((0,) * node_count)

    @property
    def attacked(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.flags) if v)

    def total_cost(self, instance: TreeInstance) -> float:
        return sum(instance.attack_cost[i] for i in self.attacked)

    def is_feasible(self, instance: TreeInstance) -> bool:
        """Budget respected and no attack on a node that survives surely."""
        if any(instance.survival_prob[i] >= 1.0 for i in self.attacked):
            return False
        return self.total_cost(instance) <= instance.budget + BUDGET_SLACK


def attackable_nodes(instance: TreeInstance) -> tuple[int, ...]:
    """Nodes some feasible attack may hit: p < 1 and affordable alone."""
    limit = instance.budget + BUDGET_SLACK
    return tuple(
        i
        for i, (p, cost) in enumerate(zip(instance.survival_prob, instance.attack_cost))
        if p < 1.0 and cost <= limit
    )


def max_attacks(instance: TreeInstance) -> int:
    """Most nodes a feasible attack can hit: how many of the cheapest
    attackable nodes, taken in ascending cost, fit in the budget."""
    limit = instance.budget + BUDGET_SLACK
    costs = sorted(instance.attack_cost[i] for i in attackable_nodes(instance))
    return sum(spent <= limit for spent in itertools.accumulate(costs))


def read_instance(path) -> TreeInstance:
    """Read a canonical instance file and validate it."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return instance_from_payload(raw, path)


def instance_from_payload(raw, source) -> TreeInstance:
    """Validate a decoded instance object; ``source`` prefixes error messages."""
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: must be a JSON object")

    for key in ("n", "edges", "p", "kappa", "c", "K"):
        if key not in raw:
            raise ParseError(f"{source}: missing field '{key}'", field=key)

    cost_field = raw["c"]
    if cost_field == "unit":
        costs = None
    elif isinstance(cost_field, list):
        try:
            costs = {normalize_pair(int(i), int(j)): float(c) for i, j, c in cost_field}
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{source}: entries of 'c' must be [i, j, cost] triples", field="c") from exc
    else:
        raise ParseError(f"{source}: 'c' must be \"unit\" or a list of triples", field="c")

    try:
        return make_instance(raw["n"], raw["edges"], raw["p"], raw["kappa"], costs, raw["K"])
    except InstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{source}: malformed field value: {exc}") from exc


def write_instance(instance: TreeInstance, path) -> None:
    """Write the canonical file format; identical instances yield identical bytes."""
    if instance.connection_cost is None:
        cost_field = "unit"
    else:
        cost_field = [[i, j, c] for (i, j), c in sorted(instance.connection_cost.items())]
    payload = {
        "n": instance.node_count,
        "edges": [list(edge) for edge in instance.edges],
        "p": list(instance.survival_prob),
        "kappa": list(instance.attack_cost),
        "c": cost_field,
        "K": instance.budget,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
