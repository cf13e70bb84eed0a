"""Benchmark runner for scnptree.

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 30 --trace 0

Builds the workload's instances from ``--seed`` and times the set-up
(imports, instance generation, one warm-up pass over small instances).
Then it solves and checks the whole case list ("a pass") until
``--seconds`` would be exceeded, at least once, in this one process.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, so it also reports the tracing
overhead.  Details (environment, instance digest, failures, spans of the
last traced pass) go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_s", "s"),
    ("eval_s", "s"),
    ("closed_frac", "frac"),
)
# Per-method totals of a traced run, read from its untraced passes.
METHOD_TOTALS = {
    "cli.benders_s": "benders",
    "cli.milp_s": "milp",
    "cli.milp_shared_s": "milp_shared",
    "cli.ilp_p_s": "ilp_p",
    "cli.dp_s": "dp",
}
# Per-layer metrics the runner adds to those of tracing.PER_LAYER.
RUNNER_LAYER = tuple((name, "s") for name in METHOD_TOTALS) + (
    ("cli.max_gap_pct", "pct"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "pct"),
)
SETUP_SAMPLES = 3
SOLVE_TIME_LIMIT = 30.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of each workload's cases")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Bench:
    """Imports the library and builds the case list; one per process."""

    def __init__(self, workload: str, seed: int, smoke: bool, tracer_factory=None) -> None:
        import numpy
        import scipy

        import gate
        import workloads
        from scnptree import cli, evaluator, instance

        self.versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        self.gate, self.workloads = gate, workloads
        self.cli, self.evaluator, self.instance = cli, evaluator, instance
        self.tracer = tracer_factory() if tracer_factory else None
        if self.tracer:
            self.tracer.install()
        self.cases = workloads.build(workload, seed, smoke)
        self.digest = workloads.instance_digest(self.cases)
        self.run_pass(self.warmup_cases(seed))
        if self.tracer:
            self.setup_layers = self.tracer.layer_metrics()
            self.tracer.uninstall()

    def warmup_cases(self, seed: int):
        """Small instances that touch every method, check and backend once."""
        from scnptree import generator

        w = self.workloads
        weighted = generator.generate_instance(8, "type1", seed)
        return [
            w.Case("warmup-type1", weighted, ("benders", "milp", "milp_shared"), True, 4, w.random_attacks(weighted, 8, seed)),
            w.Case("warmup-equal-p", w.equal_p(weighted, 0.5), ("ilp_p",), True),
            w.Case("warmup-unit", generator.generate_instance(8, "unit", seed), ("dp",), True),
            w.Case("warmup-highs", generator.generate_instance(12, "type1", seed), ("milp_shared",), False),
        ]

    def solve(self, case, method: str, params: dict):
        if self.tracer:
            self.tracer.solve_id += 1
        try:
            return self.cli.solve_instance(case.instance, method, params), None
        except Exception as exc:  # one failing solve must not end the run
            traceback.print_exc(file=sys.stderr)
            return None, type(exc).__name__

    def run_pass(self, cases) -> dict:
        """Solve and check every case once; returns timings and outcomes."""
        gate, w = self.gate, self.workloads
        times: dict[str, float] = defaultdict(float)
        failed: dict[tuple[str, str], str] = {}
        ops = closed = solves = 0
        max_gap = 0.0
        started = time.perf_counter()
        for case in cases:
            inst = case.instance
            if case.attacks is not None:
                ops += 1
                t0 = time.perf_counter()
                paths = self.instance.build_path_table(inst)
                values = self.evaluator.batch_objective(inst, paths, case.attacks)
                times["eval"] += time.perf_counter() - t0
                for reason in gate.check_batch(inst, paths, case.attacks, values):
                    failed[(case.label, "eval")] = reason
            else:
                paths = self.instance.build_path_table(inst)

            optimum = None
            if case.reference:
                ops += 1
                record, error = self.solve(case, "exhaustive", {})
                problems = [error] if error else gate.check_record(inst, paths, record)[0]
                if problems:
                    failed[(case.label, "exhaustive")] = problems[0]
                else:
                    optimum = record["value"]

            results = {}
            for method in case.methods:
                ops += 1
                solves += 1
                name, extra = w.METHODS[method]
                params = {"time_limit": SOLVE_TIME_LIMIT, "nu": case.nu, **extra}
                t0 = time.perf_counter()
                record, error = self.solve(case, name, params)
                times[method] += time.perf_counter() - t0
                if error:
                    failed[(case.label, method)] = error
                    continue
                closed += record["status"] == "Optimal"
                max_gap = max(max_gap, record["gap"])
                problems, value = gate.check_record(inst, paths, record)
                if not problems and optimum is not None:
                    problems = gate.check_against_optimum(method, record, value, optimum)
                if problems:
                    failed[(case.label, method)] = problems[0]
                else:
                    results[method] = (record, value)
            if not case.reference and len(results) > 1:
                ops += 1
                for reason in gate.check_agreement(results):
                    failed[(case.label, "agreement")] = reason
        wall = time.perf_counter() - started
        return {
            "wall": wall,
            "times": dict(times),
            "ops": ops,
            "failed": failed,
            "closed": closed,
            "solves": solves,
            "max_gap": max_gap,
        }


def setup_sample(args) -> float:
    """Set-up time of a fresh process: imports, instance generation, warm-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def median_of(passes, key) -> float:
    return statistics.median(p["times"].get(key, 0.0) for p in passes)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(plain, setup_times) -> dict:
    solves = sum(p["solves"] for p in plain)
    solve_totals = [sum(v for k, v in p["times"].items() if k != "eval") for p in plain]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(p["wall"] for p in plain), "s"),
        "solve_s": metric(statistics.median(solve_totals), "s"),
        "eval_s": metric(median_of(plain, "eval"), "s"),
        "closed_frac": metric(sum(p["closed"] for p in plain) / solves, "frac"),
    }


def per_layer_metrics(bench, plain, traced, layers) -> dict:
    import tracing

    metrics = {}
    for name, unit in tracing.PER_LAYER:
        # Instances are generated once, during set-up.
        source = [bench.setup_layers] if name == "generator.generate_s" else layers
        metrics[name] = metric(statistics.median(layer[name] for layer in source), unit)
    for name, key in METHOD_TOTALS.items():
        metrics[name] = metric(median_of(plain, key), "s")
    metrics["cli.max_gap_pct"] = metric(100.0 * max(p["max_gap"] for p in plain + traced), "pct")
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_wall - plain_wall) / plain_wall, "pct")
    return metrics


def measure(bench, args):
    """Run passes until the next one would overrun ``--seconds``."""
    plain, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        plain.append(bench.run_pass(bench.cases))
        step = plain[-1]["wall"]
        if args.trace:
            bench.tracer.reset()
            bench.tracer.install()
            try:
                traced.append(bench.run_pass(bench.cases))
            finally:
                bench.tracer.uninstall()
            layers.append(bench.tracer.layer_metrics())
            step += traced[-1]["wall"]
        if time.perf_counter() - begin + step > args.seconds:
            return plain, traced, layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scnptree" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer_factory = None
    if args.trace:
        import tracing

        tracer_factory = tracing.Tracer
    bench = Bench(args.workload, args.seed, args.smoke, tracer_factory)
    setup_first = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    if args.trace:
        setup_times = [setup_first]
    else:
        setup_times = [setup_first] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    plain, traced, layers = measure(bench, args)
    everything = plain + traced
    failures = [[label, op, reason] for p in everything for (label, op), reason in sorted(p["failed"].items())]
    if args.trace:
        metrics = per_layer_metrics(bench, plain, traced, layers)
    else:
        metrics = end_to_end_metrics(plain, setup_times)

    for failure in failures:
        print("FAILED", *failure, file=sys.stderr)
    env = {
        "python": platform.python_version(),
        **bench.versions,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "instances": bench.digest,
        "cases": len(bench.cases),
        "passes": len(everything),
        "setup_samples": setup_times,
        "pass_walls": [p["wall"] for p in plain],
        "pass_method_s": [p["times"] for p in plain],
        "failures": failures,
        "metrics": metrics,
    }
    if args.trace:
        report["span_fields"] = ["name", "start", "end", "parent", "solve"]
        report["spans"] = bench.tracer.spans
    OUT.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    print(f"env {json.dumps(env, sort_keys=True)} instances {bench.digest} cases {len(bench.cases)} passes {report['passes']}")
    attempted = sum(p["ops"] for p in everything)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
