"""Checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. The metric names and units in BENCHMARK.json match the ones the runner
   prints, for every workload, with and without tracing.
2. The correctness gate flags deliberately perturbed answers.
3. The smoke size of every workload finishes in seconds.
4. The same seed gives the same instances and the same solver counts.
5. Without the library sources the runner fails without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scnptree import cli, generator  # noqa: E402
from scnptree.evaluator import batch_objective  # noqa: E402
from scnptree.instance import build_path_table  # noqa: E402

SMOKE_LIMIT_S = 60.0
REPEATED_COUNTS = ("milpcore.bb_nodes", "milpcore.lp_iterations", "benders.cuts", "dp.transitions")

failures: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""), flush=True)
    if not ok:
        failures.append(name)


def smoke(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    """Runs the smoke size; returns (exit code, result or None, seconds, report file)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    out_file = cwd / "perfbench" / "out" / f"{workload}_seed{seed}_trace{trace}_smoke.json"
    return done.returncode, result, elapsed, out_file


def check_names_and_smoke(spec: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    code_names = {
        0: dict(run.END_TO_END),
        1: dict(tracing.PER_LAYER + run.RUNNER_LAYER),
    }
    for trace in (0, 1):
        report(f"BENCHMARK.json metrics match the runner's tables (trace {trace})", declared[trace] == code_names[trace])
    report("BENCHMARK.json workloads match the runner's", [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, result, elapsed, _ = smoke(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
            report(f"{workload} trace {trace}: printed metrics match BENCHMARK.json", printed == declared[trace])
            report(f"{workload} trace {trace}: smoke run correct", bool(result and result["correct"]) and code == 0)
            report(f"{workload} trace {trace}: smoke run finishes in seconds", elapsed < SMOKE_LIMIT_S, f"{elapsed:.1f} s")


def check_gate() -> None:
    instance = generator.generate_instance(8, "type1", 11)
    paths = build_path_table(instance)
    optimum = cli.solve_instance(instance, "exhaustive", {})["value"]
    record = cli.solve_instance(instance, "benders", {})
    problems, value = gate.check_record(instance, paths, record)
    problems += gate.check_against_optimum("benders", record, value, optimum)
    report("gate accepts a correct answer", not problems, "; ".join(problems))

    perturbed = dict(record, value=record["value"] + 0.01)
    report("gate flags a value that is not the attack's objective", bool(gate.check_record(instance, paths, perturbed)[0]))
    worse = dict(record, attack=[])
    worse_value = gate.check_record(instance, paths, worse)[1]
    report("gate flags a suboptimal attack", bool(gate.check_against_optimum("benders", worse, worse_value, optimum)))
    high = dict(record, bound=optimum + 0.01)
    report("gate flags a bound above the optimum", bool(gate.check_against_optimum("benders", high, value, optimum)))
    report("gate flags a bound above the returned value", bool(gate.check_record(instance, paths, high)[0]))
    report("gate flags a time-limited solve", bool(gate.check_record(instance, paths, dict(record, status="TimeLimit"))[0]))
    report(
        "gate flags disagreeing methods",
        bool(gate.check_agreement({"benders": (record, value), "milp": (worse, worse_value)})),
    )

    unit = generator.generate_instance(10, "unit", 5)
    unit_paths = build_path_table(unit)
    dp_record = cli.solve_instance(unit, "dp", {"nu": 2})
    unit_optimum = cli.solve_instance(unit, "exhaustive", {})["value"]
    dp_value = gate.check_record(unit, unit_paths, dp_record)[1]
    report("gate accepts the dp sandwich", not gate.check_against_optimum("dp", dp_record, dp_value, unit_optimum))
    lifted = dict(dp_record, bound=unit_optimum + 0.01)
    report("gate flags a broken dp sandwich", bool(gate.check_against_optimum("dp", lifted, dp_value, unit_optimum)))
    loose = dict(dp_record, bound=dp_record["bound"] - 1.0, slack_bound=0.5)
    report("gate flags a dp attack outside its slack", bool(gate.check_record(unit, unit_paths, loose)[0]))

    rows = workloads.random_attacks(instance, 16, 1)
    values = batch_objective(instance, paths, rows)
    report("gate accepts bulk values", not gate.check_batch(instance, paths, rows, values))
    values[0] += 1e-6
    report("gate flags a perturbed bulk value", bool(gate.check_batch(instance, paths, rows, values)))


def check_repeatable() -> None:
    for workload in workloads.WORKLOADS:
        firsts = []
        for _ in range(2):
            _, result, _, out_file = smoke(workload, 1)
            firsts.append((json.loads(out_file.read_text())["instances"], result["metrics"] if result else {}))
        (digest_a, metrics_a), (digest_b, metrics_b) = firsts
        same_counts = all(metrics_a.get(k) == metrics_b.get(k) for k in REPEATED_COUNTS)
        detail = ", ".join(f"{k}={metrics_a.get(k, {}).get('value')}" for k in REPEATED_COUNTS)
        report(f"{workload}: same seed gives the same instances", digest_a == digest_b)
        report(f"{workload}: same seed gives the same counts", same_counts and bool(metrics_a), detail)


def check_missing_sources() -> None:
    bare = HERE / "out" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, elapsed, _ = smoke("small-exact", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("without library sources the runner fails and prints no result", code != 0 and result is None, f"exit {code}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_missing_sources()
    check_names_and_smoke(spec)
    check_repeatable()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
