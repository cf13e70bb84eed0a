"""Seeded workloads: lists of cases built with the library's own generators.

A case is one instance, the methods the benchmark times on it, whether an
exhaustive reference is computed for it, and an optional block of random
feasible attack vectors for bulk evaluation.  Instance seeds are drawn
from ``numpy.random.SeedSequence([seed, workload index, case index])``, so
the same seed always yields the same inputs and different workloads never
share instances.

Sizes are set so that one pass takes about 20 s on a 2-core x86 machine,
and so that the total of each pass varies little from seed to seed: the
cut loop's solve time is heavy-tailed in n and in the weight scheme, so
the benchmark uses many mid-sized instances rather than a few large ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from scnptree import generator
from scnptree.instance import TreeInstance, make_instance

# Benchmark method name -> (solve_instance method, extra params).
METHODS = {
    "benders": ("benders", {}),
    "milp": ("milp", {"share_prefixes": False}),
    "milp_shared": ("milp", {"share_prefixes": True}),
    "ilp_p": ("ilp-p", {}),
    "dp": ("dp", {}),
}
EQUAL_P_VALUES = (0.0, 0.3, 0.5, 0.9)


@dataclass(frozen=True)
class Case:
    label: str
    instance: TreeInstance
    methods: tuple[str, ...]
    reference: bool
    nu: int = 4
    attacks: np.ndarray | None = None


def _instance_seed(seed: int, workload: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, workload, index]).generate_state(1)[0])


def equal_p(base: TreeInstance, p: float) -> TreeInstance:
    """Same tree, costs and budget with every survival probability set to p."""
    n = base.node_count
    return make_instance(
        n,
        list(base.edges),
        [p] * n,
        list(base.attack_cost),
        [(a, b, base.pair_cost(a, b)) for a in range(n) for b in range(a + 1, n)],
        base.budget,
    )


def random_attacks(instance: TreeInstance, rows: int, seed: int) -> np.ndarray:
    """Budget-feasible 0/1 rows: attackable nodes picked with probability 0.2
    (the budget is 10% of the total attack cost), kept in random order while
    the running cost stays within the budget."""
    rng = np.random.default_rng(seed)
    n = instance.node_count
    cost = np.asarray(instance.attack_cost)
    allowed = np.asarray(instance.survival_prob) < 1.0
    order = np.argsort(rng.random((rows, n)), axis=1)
    picked = (rng.random((rows, n)) < 0.2) & allowed[order]
    spent = np.cumsum(np.where(picked, cost[order], 0.0), axis=1)
    out = np.zeros((rows, n), dtype=np.uint8)
    np.put_along_axis(out, order, (picked & (spent <= instance.budget + 1e-9)).astype(np.uint8), axis=1)
    return out


class _CaseList:
    def __init__(self, seed: int, workload: int) -> None:
        self.seed = seed
        self.workload = workload
        self.cases: list[Case] = []

    def next_seed(self) -> int:
        return _instance_seed(self.seed, self.workload, len(self.cases))

    def add(self, instance, label, methods, reference, nu=4, attack_rows=0):
        attacks = None
        if attack_rows:
            attacks = random_attacks(instance, attack_rows, self.next_seed())
        self.cases.append(Case(f"{label}#{len(self.cases)}", instance, methods, reference, nu, attacks))


def small_exact(seed: int, scale: int) -> list[Case]:
    """Dense-simplex regime: every method against an exhaustive reference."""
    b = _CaseList(seed, 0)
    for _ in range(scale):
        for n in (6, 7):
            for scheme in generator.SCHEMES:
                instance = generator.generate_instance(n, scheme, b.next_seed())
                methods = ("benders", "milp", "milp_shared")
                if scheme == "unit":
                    methods += ("dp",)
                b.add(instance, f"n{n}-{scheme}", methods, True, attack_rows=8192)
            for p in EQUAL_P_VALUES:
                base = generator.generate_instance(n, "type1", b.next_seed())
                b.add(equal_p(base, p), f"n{n}-type1-p{p}", ("ilp_p",), True)
    return b.cases


def mid_weighted(seed: int, scale: int) -> list[Case]:
    """Head-to-head of the cut loop and the chain models on weighted trees."""
    b = _CaseList(seed, 1)
    for _ in range(scale):
        for scheme in ("type1", "type2", "type3"):
            instance = generator.generate_instance(8, scheme, b.next_seed())
            b.add(instance, f"n8-{scheme}", ("benders", "milp", "milp_shared"), True, attack_rows=8192)
    return b.cases


def unit_large(seed: int, scale: int) -> list[Case]:
    """Past the exhaustive horizon: DP against the chain model, bulk evaluation."""
    b = _CaseList(seed, 2)
    for _ in range(scale):
        for _ in range(2):
            instance = generator.generate_instance(21, "unit", b.next_seed())
            b.add(instance, "n21-unit", ("milp_shared", "dp"), False, nu=4)
        for n, nu in ((80, 4), (160, 3), (200, 3)):
            instance = generator.generate_instance(n, "unit", b.next_seed())
            b.add(instance, f"n{n}-unit", ("dp",), False, nu=nu, attack_rows=256)
    return b.cases


WORKLOADS = {
    "small-exact": (small_exact, 8),
    "mid-weighted": (mid_weighted, 20),
    "unit-large": (unit_large, 5),
}


def build(name: str, seed: int, smoke: bool = False) -> list[Case]:
    """Cases of a workload; ``smoke`` builds one round instead of the full list."""
    function, scale = WORKLOADS[name]
    return function(seed, 1 if smoke else scale)


def instance_digest(cases: list[Case]) -> str:
    """SHA-256 over the canonical fields of every instance, in case order."""
    digest = hashlib.sha256()
    for case in cases:
        inst = case.instance
        costs = None if inst.connection_cost is None else sorted(inst.connection_cost.items())
        payload = [inst.node_count, inst.edges, inst.survival_prob, inst.attack_cost, costs, inst.budget]
        digest.update(json.dumps(payload).encode())
        if case.attacks is not None:
            digest.update(case.attacks.tobytes())
    return digest.hexdigest()
