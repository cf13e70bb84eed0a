"""End-to-end command-line behavior through in-process ``main`` calls:
record contracts, benchmark persistence and resume, reductions, and the
documented exit codes."""

import csv
import dataclasses
import json
import time

import pytest

from scnptree import cli, generate_instance, make_instance, read_instance, write_instance
from scnptree.cli import BENCH_CSV_HEADER, main
from scnptree.evaluator import exhaustive_solve, objective_tree
from scnptree.instance import AttackVector, build_path_table
from scnptree.milpcore import NumericalFailure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_custom(tmp_path, name, **kwargs):
    inst = make_instance(
        kwargs.get("n", 6),
        kwargs.get("edges", [(i, i + 1) for i in range(kwargs.get("n", 6) - 1)]),
        kwargs.get("p", [0.5] * kwargs.get("n", 6)),
        kwargs.get("kappa", [1.0] * kwargs.get("n", 6)),
        kwargs.get("c", None),
        kwargs.get("budget", 2.0),
    )
    path = tmp_path / name
    write_instance(inst, path)
    return inst, path


def test_gen_writes_deterministic_files(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gen", "--n", "6", "--scheme", "type1", "--count", "2",
        "--seed", "5", "--out-dir", str(tmp_path),
    )
    assert code == 0
    printed = out.splitlines()
    assert printed == [
        str(tmp_path / "tree_n6_type1_5.json"),
        str(tmp_path / "tree_n6_type1_6.json"),
    ]
    for seed, line in zip((5, 6), printed):
        assert read_instance(line) == generate_instance(6, "type1", seed)


def test_eval_reports_value_cost_and_feasibility(tmp_path, capsys):
    inst, path = write_custom(tmp_path, "inst.json", budget=2.0)
    code, out, _ = run(capsys, "eval", str(path), "--attack", "1,3")
    assert code == 0
    payload = json.loads(out)
    expected = objective_tree(
        inst, build_path_table(inst), AttackVector.from_nodes([1, 3], 6)
    )
    assert payload["value"] == pytest.approx(expected)
    assert payload["attack"] == [1, 3]
    assert payload["attack_cost"] == 2.0
    assert payload["feasible"] is True

    # over budget: still evaluated, flagged infeasible, exit stays 0
    code, out, _ = run(capsys, "eval", str(path), "--attack", "0,1,2")
    assert code == 0
    assert json.loads(out)["feasible"] is False


def test_eval_scenario_route_agrees(tmp_path, capsys):
    _, path = write_custom(tmp_path, "inst.json", n=5)
    _, fast, _ = run(capsys, "eval", str(path), "--attack", "0,2")
    _, slow, _ = run(capsys, "eval", str(path), "--attack", "0,2", "--by-scenarios")
    assert json.loads(fast)["value"] == pytest.approx(json.loads(slow)["value"], abs=1e-9)


def test_eval_empty_attack_gives_total_cost(tmp_path, capsys):
    inst, path = write_custom(tmp_path, "inst.json")
    _, out, _ = run(capsys, "eval", str(path))
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(inst.total_connection_cost())
    assert payload["attack"] == []


@pytest.mark.parametrize("attack", ["7", "-1", "0,-2"])
def test_eval_rejects_attack_nodes_outside_the_instance(tmp_path, capsys, attack):
    run(capsys, "gen", "--n", "5", "--seed", "1", "--out-dir", str(tmp_path))
    path = tmp_path / "tree_n5_unit_1.json"
    code, out, err = run(capsys, "eval", str(path), "--attack", attack)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside 0..4" in err


@pytest.mark.parametrize("method", ["benders", "milp", "exhaustive"])
def test_solve_record_contract(tmp_path, capsys, method):
    inst = generate_instance(7, "type1", 11)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    out_path = tmp_path / "record.json"
    code, out, _ = run(
        capsys,
        "solve", str(path), "--method", method, "--eps", "1e-6",
        "--out", str(out_path),
    )
    assert code == 0
    record = json.loads(out)
    _, opt = exhaustive_solve(inst)
    assert record["method"] == method
    assert record["status"] == "Optimal"
    assert record["value"] == pytest.approx(opt, abs=1e-5)
    assert record["bound"] <= record["value"] + 1e-9
    assert 0.0 <= record["gap"] <= 1e-5
    assert record["time"] >= 0.0
    assert sorted(record["attack"]) == record["attack"]
    assert json.loads(out_path.read_text(encoding="utf-8")) == record


def test_solve_uniform_probability_method(tmp_path, capsys):
    inst, path = write_custom(tmp_path, "inst.json", p=[0.3] * 6, budget=2.0)
    code, out, _ = run(capsys, "solve", str(path), "--method", "ilp-p", "--eps", "1e-6")
    assert code == 0
    record = json.loads(out)
    _, opt = exhaustive_solve(inst)
    assert record["value"] == pytest.approx(opt, abs=1e-5)


@pytest.mark.parametrize("method", ["milp", "ilp-p"])
def test_milp_records_report_the_exact_objective_of_their_attack(method):
    # the LP's own arithmetic is 4.3e-14 off for milp here, and -7.1e-15
    # off for ilp-p on the twin with every p = 0.3
    inst = generate_instance(8, "type1", 0)
    if method == "ilp-p":
        inst = dataclasses.replace(inst, survival_prob=(0.3,) * 8)
    record = cli.solve_instance(inst, method, {})
    attack = AttackVector.from_nodes(record["attack"], 8)
    assert record["value"] == objective_tree(inst, build_path_table(inst), attack)


def test_solve_dp_record_has_slack_bound(tmp_path, capsys):
    inst, path = write_custom(tmp_path, "inst.json", budget=3.0)
    code, out, _ = run(capsys, "solve", str(path), "--method", "dp", "--nu", "6")
    assert code == 0
    record = json.loads(out)
    _, opt = exhaustive_solve(inst)
    assert record["value"] == pytest.approx(opt, abs=1e-4)
    assert record["bound"] <= record["value"] + 1e-12
    assert record["slack_bound"] == pytest.approx(6 * 5 / 2 / 10**6)


def test_solve_dp_allows_only_the_attacks_the_budget_buys(tmp_path, capsys):
    # int(K) attacks would size the DP's level tables past their cap
    inst, path = write_custom(tmp_path, "inst.json", p=[0.5, 0.2, 0.9, 1.0, 0.4, 0.7], budget=1e300)
    code, out, _ = run(capsys, "solve", str(path), "--method", "dp", "--nu", "6")
    assert code == 0
    record = json.loads(out)
    _, opt = exhaustive_solve(inst)
    assert record["value"] == pytest.approx(opt, abs=1e-12)
    assert record["bound"] <= opt <= record["bound"] + record["slack_bound"]


@pytest.mark.parametrize("field", ["kappa", "c", "K"])
def test_solve_rejects_non_finite_numbers(tmp_path, capsys, field):
    payload = {"n": 2, "edges": [[0, 1]], "p": [0.5, 0.5], "kappa": [1.0, 1.0], "c": "unit", "K": 1.0}
    if field == "kappa":
        payload["kappa"] = [float("inf"), 1.0]
    elif field == "c":
        payload["c"] = [[0, 1, float("inf")]]
    else:
        payload["K"] = float("inf")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert "Infinity" in path.read_text(encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path), "--method", "milp")
    assert code == 2 and "error:" in err


def test_solve_rejects_an_infinite_total_connection_cost(tmp_path, capsys):
    costs = [[0, 1, 1e308], [0, 2, 1e308], [1, 2, 1e308]]
    payload = {"n": 3, "edges": [[0, 1], [1, 2]], "p": [0.5] * 3, "kappa": [1.0] * 3, "c": costs, "K": 1.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for method in ("benders", "milp", "exhaustive"):
        code, out, err = run(capsys, "solve", str(path), "--method", method)
        assert code == 2 and out == "" and "total connection cost inf" in err


def test_solve_gap_is_zero_for_zero_value(tmp_path, capsys):
    inst, path = write_custom(
        tmp_path,
        "star.json",
        n=4,
        edges=[(0, 1), (0, 2), (0, 3)],
        p=[0.0, 0.5, 0.5, 0.5],
        kappa=[1.0] * 4,
        budget=1.0,
    )
    code, out, _ = run(capsys, "solve", str(path), "--method", "benders", "--eps", "1e-9")
    record = json.loads(out)
    assert code == 0
    assert record["value"] == pytest.approx(0.0, abs=1e-12)
    assert record["gap"] == 0.0


def test_solve_writes_benders_trace(tmp_path, capsys):
    _, path = write_custom(tmp_path, "inst.json", n=7, budget=2.0)
    trace = tmp_path / "trace.csv"
    code, _, _ = run(
        capsys, "solve", str(path), "--method", "benders", "--trace", str(trace)
    )
    assert code == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,LB,UB,cuts_added,cumulative_cuts,elapsed"
    assert len(lines) >= 2


def test_time_limited_benders_trace_has_a_row_per_round(tmp_path, capsys):
    # n40 type3 runs past 240 s in the cut loop: the limit stops it, and
    # the trace still has one row per round, the last with the record's LB
    path = tmp_path / "inst.json"
    write_instance(generate_instance(40, "type3", 1), path)
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "solve", str(path), "--method", "benders", "--time-limit", "0.3",
        "--trace", str(trace),
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "TimeLimit"
    with open(trace, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == record["iterations"] > 0
    assert rows[-1]["LB"] == f"{record['bound']:.9g}"


def test_no_record_bounds_above_its_value():
    # the chain model's bound and the cut loop's LB are solver sums; each
    # record caps them at its re-summed value, so bound <= value exactly
    for scheme in ("unit", "type1", "type2", "type3"):
        for seed in range(15):
            inst = generate_instance(10, scheme, seed)
            for method in ("milp", "benders"):
                record = cli.solve_instance(inst, method, {"eps": 1e-6})
                assert record["status"] == "Optimal"
                assert record["bound"] <= record["value"], (scheme, seed, method)


def test_solve_time_limit_reports_the_limit(tmp_path, capsys):
    inst = generate_instance(12, "type2", 13)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    code, out, _ = run(
        capsys, "solve", str(path), "--method", "benders", "--time-limit", "0.0"
    )
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "TimeLimit"
    assert record["time"] == 0.0
    assert record["gap"] == 1.0  # no incumbent: value is null


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_time_limited_records_are_strict_json(tmp_path, capsys):
    # stopped before any incumbent or finite bound: value and bound must
    # print as null, never as Infinity or -Infinity
    instances = tmp_path / "instances"
    instances.mkdir()
    path = instances / "tree_n40_type3_1.json"
    write_instance(generate_instance(40, "type3", 1), path)
    for method in ("milp", "benders"):
        code, out, _ = run(
            capsys, "solve", str(path), "--method", method, "--time-limit", "1e-9"
        )
        assert code == 0
        record = strict_json(out)
        assert record["status"] == "TimeLimit"
        assert record["value"] is None
        assert record["gap"] == 1.0

    results = tmp_path / "results"
    code, _, _ = run(
        capsys, "bench", str(instances), "--methods", "milp,benders",
        "--time-limit", "1e-9", "--workers", "1", "--results-dir", str(results),
    )
    assert code == 0
    stored = sorted(results.glob("*.json"))
    assert len(stored) == 2
    for record_path in stored:
        assert strict_json(record_path.read_text(encoding="utf-8"))["status"] == "TimeLimit"


def test_solve_records_elapsed_next_to_the_limit(tmp_path, capsys):
    inst = generate_instance(12, "type2", 13)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    _, out, _ = run(capsys, "solve", str(path), "--method", "milp", "--time-limit", "0.0")
    record = json.loads(out)
    assert record["status"] == "TimeLimit"
    assert record["time"] == 0.0
    assert record["elapsed"] > 0.0  # the model build alone takes time

    _, out, _ = run(capsys, "solve", str(path), "--method", "exhaustive")
    record = json.loads(out)
    assert record["status"] == "Optimal"
    assert record["time"] == record["elapsed"] > 0.0


def test_solve_backend_flag(tmp_path, capsys):
    inst, path = write_custom(tmp_path, "inst.json", n=5, budget=2.0)
    for backend in ("simplex", "highs"):
        code, out, _ = run(
            capsys,
            "solve", str(path), "--method", "milp", "--eps", "1e-6",
            "--backend", backend,
        )
        assert code == 0
        _, opt = exhaustive_solve(inst)
        assert json.loads(out)["value"] == pytest.approx(opt, abs=1e-5)


def test_bench_runs_resumes_and_aggregates(tmp_path, capsys):
    instances = tmp_path / "instances"
    results = tmp_path / "results"
    run(capsys, "gen", "--n", "6", "--scheme", "unit", "--count", "2",
        "--seed", "3", "--out-dir", str(instances))
    (instances / "broken.json").write_text("{not json", encoding="utf-8")
    csv_path = tmp_path / "agg.csv"

    code, out, err = run(
        capsys,
        "bench", str(instances), "--methods", "benders,exhaustive",
        "--eps", "1e-6", "--workers", "1",
        "--results-dir", str(results), "--csv", str(csv_path),
    )
    assert code == 0
    assert "skipping unreadable instance" in err
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3  # one row per method for the (6, unit) group
    benders_row, exhaustive_row = sorted(lines[1:])
    assert benders_row.startswith("6,unit,benders,2,")
    assert exhaustive_row.startswith("6,unit,exhaustive,2,")
    for row in (benders_row, exhaustive_row):
        assert row.split(",")[6] == "2"  # both instances closed
    assert out.splitlines()[0].split() == BENCH_CSV_HEADER.split(",")

    record_files = sorted(results.glob("*.json"))
    assert len(record_files) == 4
    stamps = {f: f.stat().st_mtime_ns for f in record_files}
    values = {}
    for f in record_files:
        record = json.loads(f.read_text(encoding="utf-8"))
        assert record["status"] == "Optimal"
        values.setdefault(record["instance"], {})[record["method"]] = record["value"]
    for per_method in values.values():
        assert per_method["benders"] == pytest.approx(per_method["exhaustive"], abs=1e-5)

    # second run resumes from the stored records without recomputing
    time.sleep(0.01)
    code, _, _ = run(
        capsys,
        "bench", str(instances), "--methods", "benders,exhaustive",
        "--eps", "1e-6", "--workers", "1", "--results-dir", str(results),
    )
    assert code == 0
    assert {f: f.stat().st_mtime_ns for f in record_files} == stamps


def test_bench_parallel_workers(tmp_path, capsys):
    instances = tmp_path / "instances"
    run(capsys, "gen", "--n", "5", "--scheme", "type1", "--count", "2",
        "--seed", "8", "--out-dir", str(instances))
    code, out, _ = run(
        capsys,
        "bench", str(instances), "--methods", "exhaustive", "--workers", "2",
        "--results-dir", str(tmp_path / "results"),
    )
    assert code == 0
    assert "5" in out and "type1" in out


def test_bench_isolates_a_failing_task(tmp_path, capsys, monkeypatch):
    instances = tmp_path / "instances"
    results = tmp_path / "results"
    run(capsys, "gen", "--n", "5", "--scheme", "unit", "--count", "3",
        "--seed", "2", "--out-dir", str(instances))
    solve = cli.solve_instance

    def flaky(instance, method, params):
        if instance == generate_instance(5, "unit", 3):
            raise NumericalFailure("simplex lost feasibility")
        return solve(instance, method, params)

    monkeypatch.setattr(cli, "solve_instance", flaky)
    csv_path = tmp_path / "agg.csv"
    code, _, err = run(
        capsys,
        "bench", str(instances), "--methods", "exhaustive", "--workers", "1",
        "--results-dir", str(results), "--csv", str(csv_path),
    )
    assert code == 1
    assert "tree_n5_unit_3.json exhaustive: NumericalFailure: simplex lost feasibility" in err
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    row = lines[1].split(",")
    assert row[:4] == ["5", "unit", "exhaustive", "3"]
    assert row[5] == f"{100 / 3:.4f}"  # the error record counts as a 100% gap
    assert row[6] == "2"  # only the two solved instances are closed
    # only the solved tasks are persisted, so a rerun retries the failed one
    stored = [json.loads(f.read_text(encoding="utf-8")) for f in results.glob("*.json")]
    assert sorted(r["instance"] for r in stored) == ["tree_n5_unit_2.json", "tree_n5_unit_4.json"]

    monkeypatch.setattr(cli, "solve_instance", solve)
    code, _, _ = run(
        capsys,
        "bench", str(instances), "--methods", "exhaustive", "--workers", "1",
        "--results-dir", str(results),
    )
    assert code == 0
    assert len(list(results.glob("*.json"))) == 3


def test_bench_rejects_unknown_method(tmp_path, capsys):
    code, _, err = run(capsys, "bench", str(tmp_path), "--methods", "magic")
    assert code == 2
    assert "unknown method" in err


def test_reduce_knapsack(tmp_path, capsys):
    payload = {"items": [[3, 2], [5, 4], [2, 1]], "capacity": 5, "target": 6}
    src = tmp_path / "knap.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    out_path = tmp_path / "gadget.json"
    code, out, _ = run(
        capsys, "reduce", "--kind", "knapsack", str(src), "--out", str(out_path)
    )
    assert code == 0
    reply = json.loads(out)
    assert reply["threshold"] == pytest.approx(3 - 6 / 5)
    inst = read_instance(out_path)
    assert inst.node_count == 7
    assert inst.budget == 6.0


def test_reduce_edge_split(tmp_path, capsys):
    payload = {
        "instance": {
            "n": 3,
            "edges": [[0, 1], [1, 2]],
            "p": [0.5, 0.5, 0.5],
            "kappa": [1, 1, 1],
            "c": "unit",
            "K": 2,
        },
        "edge_p": [[0, 1, 0.3], [1, 2, 0.6]],
        "edge_kappa": [[0, 1, 1], [1, 2, 1]],
    }
    src = tmp_path / "cedp.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    out_path = tmp_path / "split.json"
    code, _, _ = run(capsys, "reduce", "--kind", "cedp", str(src), "--out", str(out_path))
    assert code == 0
    inst = read_instance(out_path)
    assert inst.node_count == 5
    assert inst.survival_prob[3:] == (0.3, 0.6)


NESTED = {"n": 2, "edges": [[0, 1]], "p": [0.5, 0.5], "kappa": [1, 1], "K": 1}


def write_cedp(tmp_path, instance):
    payload = {"instance": instance, "edge_p": [[0, 1, 0.3]], "edge_kappa": [[0, 1, 1]]}
    src = tmp_path / "cedp.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    return src


def test_reduce_nested_instance_defaults_to_unit_costs(tmp_path, capsys):
    src = write_cedp(tmp_path, NESTED)  # no "c" field
    out_path = tmp_path / "split.json"
    code, _, _ = run(capsys, "reduce", "--kind", "cedp", str(src), "--out", str(out_path))
    assert code == 0
    inst = read_instance(out_path)
    assert inst.node_count == 3
    assert inst.pair_cost(0, 1) == 1.0  # unit cost between the original nodes


@pytest.mark.parametrize(
    "instance, message",
    [
        ({k: v for k, v in NESTED.items() if k != "edges"}, "missing field 'edges'"),
        ({**NESTED, "c": "bogus"}, "'c' must be"),
    ],
)
def test_reduce_rejects_a_malformed_nested_instance(tmp_path, capsys, instance, message):
    src = write_cedp(tmp_path, instance)
    code, _, err = run(
        capsys, "reduce", "--kind", "cedp", str(src), "--out", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("knapsack", [1, 2], "payload.json: must be a JSON object"),
        ("cedp", {"instance": [1, 2], "edge_p": [], "edge_kappa": []},
         "payload.json: instance: must be a JSON object"),
    ],
)
def test_reduce_rejects_a_payload_that_is_not_an_object(tmp_path, capsys, kind, payload, message):
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(
        capsys, "reduce", "--kind", kind, str(src), "--out", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("knapsack", {"items": 5, "capacity": 5, "target": 6}, "malformed field 'items'"),
        ("knapsack", {"items": [[1, 1]], "capacity": [5], "target": 6},
         "malformed field 'capacity'"),
        ("cedp", {"instance": NESTED, "edge_p": 7, "edge_kappa": [[0, 1, 1]]},
         "malformed field 'edge_p'"),
    ],
)
def test_reduce_names_a_payload_field_of_the_wrong_type(tmp_path, capsys, kind, payload, message):
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(
        capsys, "reduce", "--kind", kind, str(src), "--out", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("cedp", {"instance": NESTED, "edge_p": [[0, 1, 0.3]]},
         "payload.json: missing field 'edge_kappa'"),
        ("cedp", {"edge_p": [[0, 1, 0.3]], "edge_kappa": [[0, 1, 1]]},
         "payload.json: missing field 'instance'"),
    ],
)
def test_reduce_names_a_missing_payload_field(tmp_path, capsys, kind, payload, message):
    src = tmp_path / "payload.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(
        capsys, "reduce", "--kind", kind, str(src), "--out", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.startswith("error:") and message in err


def test_reduce_edge_uncertainty(tmp_path, capsys):
    payload = {
        "instance": {
            "n": 3,
            "edges": [[0, 1], [1, 2]],
            "p": [0.5, 0.5, 0.5],
            "kappa": [1, 1, 1],
            "c": "unit",
            "K": 1,
        },
        "edge_presence": [[0, 1, 0.9], [1, 2, 0.8]],
    }
    src = tmp_path / "edges.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    out_path = tmp_path / "det.json"
    code, _, _ = run(
        capsys, "reduce", "--kind", "edge-uncertainty", str(src), "--out", str(out_path)
    )
    assert code == 0
    inst = read_instance(out_path)
    assert inst.survival_prob == (0.0, 0.0, 0.0)
    assert inst.pair_cost(0, 1) == pytest.approx(0.9)
    assert inst.pair_cost(0, 2) == pytest.approx(0.72)


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--seed", "0")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


def test_exit_code_2_for_usage_errors(tmp_path, capsys):
    # missing file
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"), "--method", "milp")
    assert code == 2 and "error:" in err
    # unparseable instance
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2", encoding="utf-8")
    code, _, _ = run(capsys, "eval", str(bad))
    assert code == 2
    # method/instance mismatch: uniform-probability model on mixed p
    _, mixed = write_custom(tmp_path, "mixed.json", p=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    code, _, _ = run(capsys, "solve", str(mixed), "--method", "ilp-p")
    assert code == 2
    # dp needs unit attack costs
    _, weighted = write_custom(tmp_path, "weighted.json", kappa=[2.0] * 6)
    code, _, _ = run(capsys, "solve", str(weighted), "--method", "dp")
    assert code == 2
    # reduce payload missing a key
    src = tmp_path / "short.json"
    src.write_text(json.dumps({"items": [[1, 1]]}), encoding="utf-8")
    code, _, _ = run(capsys, "reduce", "--kind", "knapsack", str(src), "--out",
                     str(tmp_path / "o.json"))
    assert code == 2


def test_argparse_rejects_unknown_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.json", "--method", "quantum"])
    assert exc.value.code == 2
    capsys.readouterr()
