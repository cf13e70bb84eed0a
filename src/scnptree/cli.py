"""Command-line front end: generate, evaluate, solve, benchmark, reduce.

Result records are strict JSON objects with method, value (upper bound),
bound (lower bound), each null when no finite value is known, gap =
1 - bound/value (0 when the value is 0, 1 when a side is null), status,
time (the limit itself when a run hits its time limit), elapsed (the
measured seconds), and iteration/cut counts where the method has them.  The bench
subcommand persists one record per (instance, method) keyed by instance
content hash, so interrupted runs resume, and aggregates them into a CSV
with the fixed header::

    n,scheme,method,instances,mean_time_s,mean_gap_pct,closed,mean_iterations,mean_cuts

A bench task that raises becomes an unpersisted record with status
``Error`` and an ``error`` message; the other tasks still run, the CSV is
still written, and the exit code is 1.

``reduce`` parses a nested instance with ``instance_from_payload``, the
parser behind instance files (a missing ``c`` means unit costs), so a
malformed one raises a ``ParseError`` that names the field; a payload or
nested instance that is not a JSON object raises one that names the input.

Exit codes: 0 on success, 1 on solver failure, 2 on usage errors
(including a malformed reduce payload and an ``eval --attack`` node
outside ``0..n-1``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import re
import sys
import time
import traceback
from pathlib import Path

from scnptree import benders as benders_mod
from scnptree import dp as dp_mod
from scnptree import generator, models, reductions
from scnptree.evaluator import (
    exhaustive_solve,
    feasible_attack_vectors,
    objective_scenarios,
    objective_tree,
)
from scnptree.instance import (
    AttackVector,
    InstanceError,
    ParseError,
    TreeInstance,
    build_path_table,
    instance_from_payload,
    make_instance,
    max_attacks,
    read_instance,
    write_instance,
)
from scnptree.milpcore import BACKENDS, STATUS_OPTIMAL, STATUS_TIME_LIMIT, solve_milp

METHODS = ("benders", "milp", "ilp-p", "dp", "exhaustive")
STATUS_ERROR = "Error"
BENCH_CSV_HEADER = "n,scheme,method,instances,mean_time_s,mean_gap_pct,closed,mean_iterations,mean_cuts"
_FILENAME_RE = re.compile(rf"^tree_n(\d+)_({'|'.join(generator.SCHEMES)})_(\d+)\.json$")


def _gap(value: float | None, bound: float | None) -> float:
    if value is None or bound is None:
        return 1.0
    if value == 0.0:
        return 0.0
    return max(0.0, 1.0 - bound / value)


def _finite(value: float | None) -> float | None:
    """Strict JSON has no infinities: a non-finite value becomes null."""
    return value if value is not None and math.isfinite(value) else None


def _write_json_atomic(payload: dict, path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")
    os.replace(tmp, path)


def solve_instance(instance: TreeInstance, method: str, params: dict) -> dict:
    """Run one solver and normalize its outcome into a result record."""
    started = time.perf_counter()
    eps = params.get("eps", 1e-3)
    backend = params.get("backend", "auto")
    time_limit = params.get("time_limit")
    record: dict = {"method": method, "iterations": None, "cuts": None}

    if method == "exhaustive":
        attack, value = exhaustive_solve(instance)
        bound, status = value, STATUS_OPTIMAL
    elif method == "benders":
        result = benders_mod.bd_scnp(
            instance,
            eps=eps,
            time_limit=time_limit,
            use_valid_ineq=params.get("use_valid_ineq", True),
            backend=backend,
        )
        attack, value, bound, status = result.attack, result.upper_bound, result.lower_bound, result.status
        record.update(iterations=result.iterations, cuts=result.cuts_total)
        if params.get("trace_path"):
            benders_mod.write_trace_csv(result, params["trace_path"])
    elif method in ("milp", "ilp-p"):
        paths = build_path_table(instance)
        if method == "milp":
            model, attack_cols = models.build_chain_milp(
                instance, paths, add_valid_ineq=params.get("use_valid_ineq", True)
            )
        else:
            model, attack_cols = models.build_ilp_p(instance, paths)
        res = solve_milp(model, gap=eps, time_limit=time_limit, backend=backend)
        attack = None if res.x is None else models.feasible_attack(model, instance, attack_cols, res.x)
        value = None if attack is None else objective_tree(instance, paths, attack)
        # value is re-summed from the attack, so it can sit below the
        # search's incumbent objective and its bound by a rounding error
        bound = res.bound if value is None else min(res.bound, value)
        status = res.status
        record["iterations"] = res.nodes
    elif method == "dp":
        result = dp_mod.dp_solve(instance, max_attacks(instance), params.get("nu", 4))
        attack, value, bound = result.attack, result.exact_value, result.truncated_value
        status = STATUS_OPTIMAL
        record["slack_bound"] = result.slack_bound
    else:
        raise ValueError(f"unknown method {method!r}")

    elapsed = time.perf_counter() - started
    timed_out = status == STATUS_TIME_LIMIT and time_limit is not None
    record.update(
        value=_finite(value),
        bound=_finite(bound),
        status=status,
        attack=list(attack.attacked) if attack else None,
        time=float(time_limit) if timed_out else elapsed,
        elapsed=elapsed,
    )
    record["gap"] = _gap(record["value"], record["bound"])
    return record


# -- subcommands ------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for offset in range(args.count):
        seed = args.seed + offset
        instance = generator.generate_instance(args.n, args.scheme, seed)
        path = out_dir / generator.instance_filename(args.n, args.scheme, seed)
        write_instance(instance, path)
        print(path)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    nodes = [int(v) for v in args.attack.split(",") if v.strip() != ""] if args.attack else []
    attack = AttackVector.from_nodes(nodes, instance.node_count)
    if args.by_scenarios:
        value = objective_scenarios(instance, attack)
    else:
        value = objective_tree(instance, build_path_table(instance), attack)
    print(
        json.dumps(
            {
                "value": value,
                "attack": list(attack.attacked),
                "attack_cost": attack.total_cost(instance),
                "feasible": attack.is_feasible(instance),
            }
        )
    )
    return 0


def _solver_params(args: argparse.Namespace) -> dict:
    return {
        "eps": args.eps,
        "time_limit": args.time_limit,
        "use_valid_ineq": not args.no_vi,
        "backend": args.backend,
        "nu": args.nu,
    }


def cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    params = dict(_solver_params(args), trace_path=args.trace)
    record = solve_instance(instance, args.method, params)
    text = json.dumps(record, indent=1, sort_keys=True, allow_nan=False)
    if args.out:
        _write_json_atomic(record, Path(args.out))
    print(text)
    return 0


def _bench_task(task: tuple) -> tuple[str, str, dict]:
    """Solve one (instance, method) task and persist its record; a task that
    raises yields an unpersisted error record, so a rerun retries it."""
    instance_path, method, params, record_path = task
    started = time.perf_counter()
    try:
        record = solve_instance(read_instance(instance_path), method, params)
    except Exception as exc:  # one failing task must not abort the bench
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        record = dict(
            method=method, status=STATUS_ERROR, error=error, value=None, bound=None, gap=1.0,
            time=elapsed, elapsed=elapsed,
        )
    record["instance"] = os.path.basename(instance_path)
    if record["status"] != STATUS_ERROR:
        _write_json_atomic(record, Path(record_path))
    return instance_path, method, record


def _instance_label(path: Path) -> tuple[int, str]:
    match = _FILENAME_RE.match(path.name)
    if match:
        return int(match.group(1)), match.group(2)
    try:
        instance = read_instance(path)
        return instance.node_count, "custom"
    except (ParseError, InstanceError):
        return -1, "unreadable"


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            print(f"unknown method {method!r}", file=sys.stderr)
            return 2
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    files = sorted(directory.glob("*.json"))
    tasks = []
    labels: dict[str, tuple[int, str]] = {}
    records: dict[tuple[str, str], dict] = {}
    for path in files:
        n, scheme = _instance_label(path)
        if scheme == "unreadable":
            print(f"warning: skipping unreadable instance {path}", file=sys.stderr)
            continue
        labels[str(path)] = (n, scheme)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        for method in methods:
            record_path = results_dir / f"{digest}_{method}.json"
            if record_path.exists():
                with open(record_path, "r", encoding="utf-8") as handle:
                    records[(str(path), method)] = json.load(handle)
                continue
            tasks.append((str(path), method, _solver_params(args), str(record_path)))

    if args.workers > 1 and tasks:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_bench_task, tasks))
    else:
        results = map(_bench_task, tasks)
    for instance_path, method, record in results:
        records[(instance_path, method)] = record

    groups: dict[tuple[int, str, str], list[dict]] = {}
    for (instance_path, method), record in records.items():
        n, scheme = labels[instance_path]
        groups.setdefault((n, scheme, method), []).append(record)

    def mean(values: list) -> float | None:
        usable = [v for v in values if v is not None]
        return sum(usable) / len(usable) if usable else None

    rows = []
    for (n, scheme, method) in sorted(groups):
        bucket = groups[(n, scheme, method)]
        rows.append(
            {
                "n": n,
                "scheme": scheme,
                "method": method,
                "instances": len(bucket),
                "mean_time_s": mean([r.get("time") for r in bucket]),
                "mean_gap_pct": mean([100.0 * r.get("gap", 1.0) for r in bucket]),
                "closed": sum(1 for r in bucket if r.get("status") == STATUS_OPTIMAL),
                "mean_iterations": mean([r.get("iterations") for r in bucket]),
                "mean_cuts": mean([r.get("cuts") for r in bucket]),
            }
        )

    def fmt(value, digits=4) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.{digits}f}"
        return str(value)

    header = BENCH_CSV_HEADER.split(",")
    csv_lines = [BENCH_CSV_HEADER] + [",".join(fmt(row[key]) for key in header) for row in rows]
    if args.csv:
        Path(args.csv).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    widths = [
        max(len(header[col]), *(len(fmt(row[header[col]])) for row in rows)) if rows else len(header[col])
        for col in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(fmt(row[h]).ljust(w) for h, w in zip(header, widths)))
    errors = [r for r in records.values() if r.get("status") == STATUS_ERROR]
    for r in errors:
        print(f"solver failure: {r['instance']} {r['method']}: {r['error']}", file=sys.stderr)
    return 1 if errors else 0


def _edge_values(rows) -> dict[tuple[int, int], float]:
    return {(int(u), int(v)): float(x) for u, v, x in rows}


def cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ParseError(f"{args.input}: must be a JSON object")

    def field(key: str, parse=lambda value: value):
        if key not in payload:
            raise ParseError(f"{args.input}: missing field '{key}'", field=key)
        try:
            return parse(payload[key])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{args.input}: malformed field '{key}': {exc}", field=key) from exc
    reply = {"instance": args.out}
    if args.kind == "knapsack":
        items = field("items", lambda rows: [(float(p), float(w)) for p, w in rows])
        instance, reply["threshold"] = reductions.knapsack_to_dscnp(
            items, field("capacity", float), field("target", float)
        )
    else:
        nested = field("instance")
        if isinstance(nested, dict):
            # a nested instance may leave out "c" for unit connection costs
            nested = {"c": "unit", **nested}
        base = instance_from_payload(nested, f"{args.input}: instance")
        if args.kind == "cedp":
            edge_p, edge_k = field("edge_p", _edge_values), field("edge_kappa", _edge_values)
            instance = reductions.cedp_to_scnp(base, edge_p, edge_k)
        else:  # edge-uncertainty
            presence = field("edge_presence", _edge_values)
            instance = reductions.edge_uncertainty_to_deterministic(base, presence)
    write_instance(instance, args.out)
    print(json.dumps(reply))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Seeded oracle-equivalence suite; prints one line per check."""
    import numpy as np

    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    rng = np.random.default_rng(args.seed)

    worst = 0.0
    for trial in range(12):
        n = int(rng.integers(4, 9))
        instance = generator.generate_instance(n, "unit", int(rng.integers(10_000)))
        paths = build_path_table(instance)
        vectors = list(feasible_attack_vectors(instance))
        for k in rng.integers(len(vectors), size=8):
            attack = AttackVector(vectors[k])
            worst = max(worst, abs(objective_tree(instance, paths, attack) - objective_scenarios(instance, attack)))
    report("objective path-product vs scenario enumeration", worst <= 1e-9, f"max diff {worst:.2e}")

    worst = 0.0
    for seed in range(4):
        instance = generator.generate_instance(7, "type1", 500 + seed)
        values = [solve_instance(instance, m, {})["value"] for m in ("exhaustive", "benders", "milp")]
        worst = max(worst, *(abs(values[0] - other) for other in values[1:]))
    report("exhaustive vs cut loop vs chain model", worst <= 1e-3, f"max diff {worst:.2e}")

    worst = 0.0
    feasible = True
    for _ in range(200):
        length = int(rng.integers(2, 9))
        instance, path, attack = _random_path_case(rng, length)
        duals = benders_mod.analytic_dual(instance, path, attack)
        primal = benders_mod.slave_primal(instance, path, attack)
        dual_value = benders_mod.dual_objective(duals, instance, path, attack)
        worst = max(worst, abs(dual_value - primal.objective))
        feasible = feasible and benders_mod.dual_feasibility_check(duals, instance, path)
    report("closed-form duals: strong duality + feasibility", worst <= 1e-9 and feasible, f"max diff {worst:.2e}")

    ok = True
    for seed in range(3):
        instance = generator.generate_instance(8, "unit", 900 + seed)
        record = solve_instance(instance, "dp", {"nu": 4})
        opt = solve_instance(instance, "exhaustive", {})["value"]
        ok = ok and record["bound"] <= opt + 1e-12 <= record["value"] + 1e-9
        ok = ok and record["value"] <= record["bound"] + record["slack_bound"] + 1e-9
    report("dynamic program sandwich bound", ok)

    instance, threshold = reductions.knapsack_to_dscnp([(3.0, 2.0), (2.0, 1.0)], 2.0, 3.0)
    _, value = exhaustive_solve(instance)
    report("knapsack gadget yes-instance", value <= threshold + 1e-9, f"value {value:.6f} vs {threshold}")

    return 1 if failures else 0


def _random_path_case(rng, length: int):
    """A path instance, its single source-to-leaf path, and random flags."""
    edges = [(i, i + 1) for i in range(length - 1)]
    p = [round(float(rng.uniform()), 2) for _ in range(length)]
    flags = tuple(int(rng.integers(0, 2)) if p[i] < 1.0 else 0 for i in range(length))
    instance = make_instance(
        node_count=length,
        edges=edges,
        survival_prob=p,
        attack_cost=[1.0] * length,
        connection_cost=None,
        budget=float(length),
    )
    path = tuple(range(length))
    return instance, path, AttackVector(flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scnptree",
        description="Interdiction of probabilistic tree networks: generate, evaluate, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--eps", type=float, default=1e-3, help="absolute optimality gap")
    solver.add_argument("--no-vi", action="store_true", help="drop leaf dominance rows")
    solver.add_argument("--time-limit", type=float, default=None, help="seconds")
    solver.add_argument("--nu", type=int, default=4, help="truncation decimals for --method dp")
    solver.add_argument("--backend", choices=BACKENDS, default="auto", help="LP solver; auto is an alias of highs")

    p_gen = sub.add_parser("gen", help="write random instances")
    p_gen.add_argument("--n", type=int, required=True, help="number of nodes")
    p_gen.add_argument("--scheme", choices=generator.SCHEMES, default="unit")
    p_gen.add_argument("--count", type=int, default=1, help="instances to write")
    p_gen.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    p_gen.add_argument("--out-dir", default=".", help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate one attack vector")
    p_eval.add_argument("instance")
    p_eval.add_argument("--attack", default="", help="comma-separated attacked nodes")
    p_eval.add_argument(
        "--by-scenarios",
        action="store_true",
        help="use the exponential scenario enumeration instead of path products",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_solve = sub.add_parser("solve", parents=[solver], help="solve one instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=METHODS, required=True)
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV (benders)")
    p_solve.add_argument("--out", default=None, help="also write the result record here")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", parents=[solver], help="run methods over an instance directory")
    p_bench.add_argument("directory")
    p_bench.add_argument("--methods", default="benders,milp", help="comma-separated")
    p_bench.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    p_bench.add_argument("--results-dir", default="results")
    p_bench.add_argument("--csv", default=None, help="write the aggregate CSV here")
    p_bench.set_defaults(func=cmd_bench)

    p_reduce = sub.add_parser("reduce", help="apply a problem transformation")
    p_reduce.add_argument("--kind", choices=("knapsack", "cedp", "edge-uncertainty"), required=True)
    p_reduce.add_argument("input", help="JSON payload, see README for shapes")
    p_reduce.add_argument("--out", required=True, help="output instance file")
    p_reduce.set_defaults(func=cmd_reduce)

    p_check = sub.add_parser("check", help="run the seeded oracle-equivalence suite")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InstanceError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-side failures
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
