"""Random instance families: uniform random trees plus weight schemes.

Topology, probabilities, and weights draw from three independent,
documented substreams of a single 64-bit seed (spawn keys 0, 1, 2 of a
``numpy.random.SeedSequence``), so the same seed yields the same tree and
survival probabilities across every weight scheme.
"""

from __future__ import annotations

import numpy as np

from scnptree.instance import TreeInstance, make_instance, normalize_pair

SCHEMES = ("unit", "type1", "type2", "type3")

_TOPOLOGY_STREAM = 0
_PROBABILITY_STREAM = 1
_WEIGHT_STREAM = 2


def _substream(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


def broder_tree(n: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Uniform random spanning tree of the complete graph on n nodes.

    Runs a random walk from node 0; the edge by which each node is first
    entered joins the tree.  Over the walk's distribution every labeled
    tree is equally likely.  Returns the n-1 edges sorted as (min, max)
    pairs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return ()
    rng = _substream(seed, _TOPOLOGY_STREAM)
    edges: list[tuple[int, int]] = []
    seen = [False] * n
    seen[0] = True
    remaining = n - 1
    current = 0
    while remaining:
        # Uniform neighbor on K_n: any node except the current one.
        step = int(rng.integers(0, n - 1))
        nxt = step if step < current else step + 1
        if not seen[nxt]:
            seen[nxt] = True
            remaining -= 1
            edges.append(normalize_pair(current, nxt))
        current = nxt
    edges.sort()
    return tuple(edges)


def assign_weights(
    edges: tuple[tuple[int, int], ...],
    scheme: str,
    seed: int,
) -> TreeInstance:
    """Attach probabilities, costs, and the budget rule to a tree.

    Survival probabilities are uniform on [0, 1] rounded to two decimals
    for every scheme.  Weight draws consume the weight substream in a fixed
    order (attack costs first, then pair connection costs in (i, j)
    lexicographic order):

    - unit:  kappa_i = 1, c_ij = 1
    - type1: kappa_i integer uniform [1, 10], c_ij integer uniform [1, 10]
    - type2: kappa_i integer uniform [1, 100], c_ij integer uniform [1, 10]
    - type3: c_ij integer uniform [1, 10], kappa_i = 1 / p_i (100 if p_i = 0)

    The budget is always 10% of the total attack cost.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    n = len(edges) + 1

    prob_rng = _substream(seed, _PROBABILITY_STREAM)
    survival = [float(p) for p in np.round(prob_rng.uniform(0.0, 1.0, size=n), 2)]

    weight_rng = _substream(seed, _WEIGHT_STREAM)

    def pair_costs() -> dict[tuple[int, int], float]:
        pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
        drawn = weight_rng.integers(1, 11, size=len(pair_list))
        return {pair: float(c) for pair, c in zip(pair_list, drawn)}

    costs: dict[tuple[int, int], float] | None
    if scheme == "unit":
        kappa = [1.0] * n
        costs = None
    elif scheme == "type1":
        kappa = [float(k) for k in weight_rng.integers(1, 11, size=n)]
        costs = pair_costs()
    elif scheme == "type2":
        kappa = [float(k) for k in weight_rng.integers(1, 101, size=n)]
        costs = pair_costs()
    else:  # type3
        costs = pair_costs()
        kappa = [100.0 if p == 0.0 else 1.0 / p for p in survival]

    budget = 0.1 * sum(kappa)
    return make_instance(
        node_count=n,
        edges=edges,
        survival_prob=survival,
        attack_cost=kappa,
        connection_cost=costs,
        budget=budget,
    )


def generate_instance(n: int, scheme: str, seed: int) -> TreeInstance:
    """Uniform random tree plus the requested weight scheme."""
    return assign_weights(broder_tree(n, seed), scheme, seed)


def instance_filename(n: int, scheme: str, seed: int) -> str:
    return f"tree_n{n}_{scheme}_{seed}.json"
