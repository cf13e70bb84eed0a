"""Correctness gate: every answer the benchmark times is checked here.

Each function returns a list of failure reasons; an empty list means the
answer passed.  Tolerances: a returned value must equal the objective of
its returned attack to 1e-6 relative (the LP solvers' accuracy); the
attack's objective must be within the optimality gap 1e-3 of the optimum;
a reported lower bound may exceed neither the optimum nor the returned
attack's value, and the DP's attack stays within its proven slack.
"""

from __future__ import annotations

import math

from scnptree import evaluator
from scnptree.instance import AttackVector, TreeInstance
from scnptree.milpcore import STATUS_OPTIMAL

GAP = 1e-3
SAMPLED_ROWS = 4


def _rel(x: float) -> float:
    return 1e-6 * max(1.0, abs(x))


def check_record(instance: TreeInstance, paths, record: dict) -> tuple[list[str], float | None]:
    """Status, feasibility and value of one solve; returns (failures, true value)."""
    if record.get("status") != STATUS_OPTIMAL:
        return [f"status {record.get('status')}"], None
    if record.get("attack") is None or record.get("value") is None:
        return ["no attack returned"], None
    attack = AttackVector.from_nodes(record["attack"], instance.node_count)
    failures = []
    if not attack.is_feasible(instance):
        failures.append("attack over budget or on a node with p = 1")
    true_value = evaluator.objective_tree(instance, paths, attack)
    if not math.isfinite(record["value"]) or abs(record["value"] - true_value) > _rel(true_value):
        failures.append(f"value {record['value']!r} != objective {true_value!r}")
    bound = record.get("bound")
    if bound is None or bound > true_value + _rel(true_value):
        failures.append(f"bound {bound!r} above the value {true_value!r} of the returned attack")
    elif "slack_bound" in record and true_value > bound + record["slack_bound"] + _rel(true_value):
        failures.append(f"dp value {true_value!r} exceeds {bound!r} + slack {record['slack_bound']!r}")
    return failures, true_value


def check_against_optimum(method: str, record: dict, true_value: float, optimum: float) -> list[str]:
    """Optimality and bound checks against a known optimum."""
    failures = []
    if method == "dp":
        truncated, slack = record["bound"], record["slack_bound"]
        if not truncated <= optimum + _rel(optimum) or not optimum <= truncated + slack + _rel(optimum):
            failures.append(f"dp sandwich {truncated!r} <= {optimum!r} <= {truncated!r} + {slack!r} fails")
        return failures
    if true_value - optimum > GAP:
        failures.append(f"objective {true_value!r} exceeds optimum {optimum!r} by more than {GAP}")
    if record["bound"] is None or record["bound"] > optimum + _rel(optimum):
        failures.append(f"bound {record['bound']!r} above optimum {optimum!r}")
    return failures


def check_agreement(records: dict[str, tuple[dict, float]]) -> list[str]:
    """Cross-checks without a reference: exact methods agree, DP brackets them.

    ``records`` maps method name to (record, true value of its attack).
    """
    exact = {m: rv for m, rv in records.items() if m != "dp"}
    if not exact:
        return []
    best = min(value for _, value in exact.values())
    top_bound = max(record["bound"] for record, _ in exact.values())
    failures = []
    for method, (record, value) in exact.items():
        if value - best > GAP:
            failures.append(f"{method} objective {value!r} is {value - best:.3g} above another method's")
        if record["bound"] > best + _rel(best):
            failures.append(f"{method} bound {record['bound']!r} above a feasible value {best!r}")
    if "dp" in records:
        record, _ = records["dp"]
        truncated, slack = record["bound"], record["slack_bound"]
        if truncated > best + _rel(best) or top_bound > truncated + slack + _rel(best):
            failures.append(f"dp sandwich around the exact methods fails: {truncated!r} + {slack!r}")
    return failures


def check_batch(instance: TreeInstance, paths, rows, values) -> list[str]:
    """Bulk values agree with the path-product objective on sampled rows."""
    failures = []
    picks = sorted({0, len(rows) - 1, *range(0, len(rows), max(1, len(rows) // SAMPLED_ROWS))})
    for r in picks:
        attack = AttackVector(tuple(int(v) for v in rows[r]))
        expected = evaluator.objective_tree(instance, paths, attack)
        if abs(values[r] - expected) > 1e-9 * max(1.0, abs(expected)):
            failures.append(f"batch row {r}: {values[r]!r} != {expected!r}")
    return failures
