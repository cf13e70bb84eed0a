"""LP/MILP engine: model container, both LP backends, branch and bound."""

import importlib.machinery
import itertools
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
import scipy

from scnptree.milpcore import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    LinearModel,
    NumericalFailure,
    SolveResult,
    simplex_solve,
    solve_lp,
    solve_milp,
)
from scnptree.milpcore import backends, branchbound

# The built-in simplex, the HiGHS session, and HiGHS through linprog (the
# path taken when scipy lacks the session binding).
LP_PATHS = ("simplex", "highs", "linprog")

needs_session = pytest.mark.skipif(
    backends._binding is None, reason="scipy lacks the private HiGHS binding"
)


@pytest.fixture
def backend(request, monkeypatch):
    """Backend name for an LP path; ``linprog`` hides the session binding."""
    if request.param == "linprog":
        monkeypatch.setattr(backends, "_binding", None)
        return "highs"
    return request.param


def test_model_rejects_duplicate_variable_names():
    m = LinearModel()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_variable("x")


def test_model_rejects_bad_rows():
    m = LinearModel()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_row("r", [0, 0], [1.0, 2.0], LESS_EQUAL, 1.0)  # repeated column
    with pytest.raises(ValueError):
        m.add_row("r", [1], [1.0], LESS_EQUAL, 1.0)  # unknown column
    with pytest.raises(ValueError):
        m.add_row("r", [0], [1.0], "<", 1.0)  # unknown sense


def test_dump_format(tmp_path):
    m = LinearModel("demo")
    m.add_variable("x", 0.0, 4.0, 2.0)
    m.add_variable("y", 0.0, math.inf, -1.0, integer=True)
    m.add_row("cap", [0, 1], [1.0, 3.0], LESS_EQUAL, 6.0)
    target = tmp_path / "model.txt"
    m.dump(target)
    text = target.read_text()
    assert "min: +2 x -1 y ;" in text
    assert "cap: +1 x +3 y <= 6 ;" in text
    assert "bounds: 0 <= x <= 4 ;" in text
    assert "bounds: 0 <= y <= inf ;" in text
    assert "int: y ;" in text


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_lp_dual_sign_convention(backend):
    # min x subject to x >= 3: tightening the row by one unit raises the
    # optimum by one, so the multiplier is +1
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, 1.0)
    m.add_row("r", [0], [1.0], GREATER_EQUAL, 3.0)
    res = solve_lp(m, backend=backend)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(3.0)
    assert res.duals[0] == pytest.approx(1.0)


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_lp_less_equal_duals_nonpositive(backend):
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, -3.0)
    m.add_variable("y", 0.0, math.inf, -5.0)
    m.add_row("c1", [0], [1.0], LESS_EQUAL, 4.0)
    m.add_row("c2", [1], [2.0], LESS_EQUAL, 12.0)
    m.add_row("c3", [0, 1], [3.0, 2.0], LESS_EQUAL, 18.0)
    res = solve_lp(m, backend=backend)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-36.0)
    assert np.all(res.duals <= 1e-9)
    assert res.duals[1] == pytest.approx(-1.5)
    assert res.duals[2] == pytest.approx(-1.0)
    # dual objective certifies the optimum
    assert m.dual_objective(res.duals) == pytest.approx(-36.0)


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_lp_equality_duals(backend):
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, 2.0)
    m.add_variable("y", 0.0, math.inf, 3.0)
    m.add_row("e", [0, 1], [1.0, 1.0], EQUAL, 5.0)
    res = solve_lp(m, backend=backend)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(10.0)
    assert res.duals[0] == pytest.approx(2.0)


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_lp_statuses(backend):
    m = LinearModel()
    m.add_variable("x", 0.0, 1.0, 1.0)
    m.add_row("r", [0], [1.0], GREATER_EQUAL, 2.0)
    assert solve_lp(m, backend=backend).status == STATUS_INFEASIBLE

    m2 = LinearModel()
    m2.add_variable("x", 0.0, math.inf, -1.0)
    assert solve_lp(m2, backend=backend).status == STATUS_UNBOUNDED


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_lp_respects_bound_overrides(backend):
    m = LinearModel()
    m.add_variable("x", 0.0, 10.0, -1.0)
    res = solve_lp(m, backend=backend, lower=np.array([2.0]), upper=np.array([5.0]))
    assert res.objective == pytest.approx(-5.0)
    assert res.x[0] == pytest.approx(5.0)


def test_lp_backends_agree_on_random_problems():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 6))
        m = LinearModel(f"r{trial}")
        for j in range(n):
            m.add_variable(f"x{j}", 0.0, float(rng.integers(1, 6)), float(rng.normal()))
        for r in range(k):
            cols = sorted(rng.choice(n, size=min(n, 2), replace=False).tolist())
            coefs = [float(rng.integers(-3, 4)) or 1.0 for _ in cols]
            m.add_row(f"c{r}", cols, coefs, LESS_EQUAL, float(rng.integers(0, 8)))
        a = solve_lp(m, backend="simplex")
        b = solve_lp(m, backend="highs")
        assert a.status == b.status
        if a.status == STATUS_OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-7)
            assert m.dual_objective(a.duals) == pytest.approx(a.objective, abs=1e-7)
            assert m.dual_objective(b.duals) == pytest.approx(b.objective, abs=1e-7)


def _knapsack_lp(rows: int) -> LinearModel:
    rng = np.random.default_rng(21)
    m = LinearModel("session")
    for j in range(6):
        m.add_variable(f"x{j}", 0.0, 1.0, float(-rng.integers(1, 10)))
    for r in range(rows):
        coefs = [float(v) for v in rng.integers(1, 6, size=6)]
        m.add_row(f"r{r}", list(range(6)), coefs, LESS_EQUAL, float(rng.integers(4, 12)))
    return m


@needs_session
def test_session_appends_rows_like_a_fresh_model():
    extra = [
        ("cut", [0, 1, 2], [1.0, 1.0, 1.0], LESS_EQUAL, 1.0),
        ("floor", [3, 4], [1.0, 1.0], GREATER_EQUAL, 0.5),
        ("pin", [5], [1.0], EQUAL, 0.25),
    ]
    grown = _knapsack_lp(1)
    assert solve_lp(grown).status == STATUS_OPTIMAL
    session = backends._sessions[grown]
    for row in extra:
        grown.add_row(*row)
    res = solve_lp(grown)
    assert backends._sessions[grown] is session  # appended, not rebuilt
    assert session.highs.getNumRow() == grown.num_rows == 4

    fresh = _knapsack_lp(1)
    for row in extra:
        fresh.add_row(*row)
    ref = solve_lp(fresh)
    assert res.status == ref.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(ref.objective, abs=1e-9)
    assert grown.dual_objective(res.duals) == pytest.approx(res.objective, abs=1e-9)
    assert fresh.dual_objective(ref.duals) == pytest.approx(res.objective, abs=1e-9)


@needs_session
def test_session_rebuilds_after_a_new_variable():
    m = _knapsack_lp(2)
    first = solve_lp(m)
    session = backends._sessions[m]
    j = m.add_variable("bonus", 0.0, 1.0, -100.0)
    m.add_row("bonus_cap", [0, j], [1.0, 1.0], LESS_EQUAL, 1.0)
    res = solve_lp(m)
    assert backends._sessions[m] is not session
    assert res.status == STATUS_OPTIMAL
    assert res.x[j] == pytest.approx(1.0)
    assert res.objective < first.objective - 50.0
    assert m.dual_objective(res.duals) == pytest.approx(res.objective, abs=1e-9)


def test_session_solves_a_feasible_node_after_an_infeasible_one():
    m = LinearModel()
    m.add_variable("x", 0.0, 1.0, -1.0)
    m.add_variable("y", 0.0, 1.0, -1.0)
    m.add_row("need", [0, 1], [1.0, 1.0], GREATER_EQUAL, 1.5)
    blocked = solve_lp(m, lower=np.zeros(2), upper=np.array([0.0, 1.0]))
    assert blocked.status == STATUS_INFEASIBLE
    res = solve_lp(m, lower=np.zeros(2), upper=np.array([1.0, 0.75]))
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-1.75)
    assert res.x == pytest.approx([1.0, 0.75])


def _dense_lp() -> LinearModel:
    rng = np.random.default_rng(5)
    m = LinearModel("dense")
    for j in range(400):
        m.add_variable(f"x{j}", 0.0, 1.0, float(-rng.uniform(1.0, 2.0)))
    for r in range(400):
        coefs = [float(v) for v in rng.uniform(0.1, 1.0, size=400)]
        m.add_row(f"r{r}", list(range(400)), coefs, LESS_EQUAL, float(rng.uniform(5.0, 20.0)))
    return m


@pytest.mark.parametrize("backend", ["highs", "linprog"], indirect=True)
def test_highs_paths_report_a_time_limit_stop(backend):
    # a dense 400 x 400 LP takes far longer than the 1 ms limit
    m = _dense_lp()
    assert solve_lp(m, backend=backend, time_limit=1e-3).status == STATUS_TIME_LIMIT
    assert solve_lp(m, backend=backend).status == STATUS_OPTIMAL


@pytest.mark.parametrize("backend", ["highs", "linprog"], indirect=True)
def test_highs_paths_settle_a_run_that_presolve_leaves_open(backend, capfd):
    # HiGHS's presolve ends this unbounded LP with status Unknown and prints
    # a line to stdout that no output option silences; neither HiGHS path
    # runs presolve, so both settle it and stay silent
    m = LinearModel()
    m.add_variable("x0", 0.0, 1.0, -2.0)
    m.add_variable("x1", -1.0, 1.0, 2.0)
    m.add_variable("x2", -1.0, math.inf, -1.0)
    m.add_row("a", [1], [1.0], LESS_EQUAL, -1.0)
    m.add_row("b", [0, 2], [1.0, 1.0], GREATER_EQUAL, 0.0)
    assert solve_lp(m, backend=backend).status == STATUS_UNBOUNDED
    assert capfd.readouterr().out == ""
    assert solve_lp(m, backend="simplex").status == STATUS_UNBOUNDED


def test_simplex_stops_at_its_time_limit():
    # the dense simplex needs about 15 s for this LP on a 2-core host; a
    # 1 ms limit must end it well inside 0.5 s
    m = _dense_lp()
    started = time.perf_counter()
    res = solve_lp(m, backend="simplex", time_limit=1e-3)
    assert res.status == STATUS_TIME_LIMIT
    assert time.perf_counter() - started < 0.5


@needs_session
def test_session_time_limit_counts_from_each_solve():
    # HiGHS's clock runs over the session's whole life; a per-solve limit
    # below the time already spent must still leave the solve its budget
    m = _knapsack_lp(40)
    session = None
    while session is None or session.highs.getRunTime() <= 0.02:
        assert solve_lp(m).status == STATUS_OPTIMAL
        session = backends._sessions[m]
        session.highs.clearSolver()  # next solve starts cold
    res = solve_lp(m, time_limit=0.01)
    assert res.status == STATUS_OPTIMAL
    assert res.iterations > 0
    assert m.dual_objective(res.duals) == pytest.approx(res.objective, abs=1e-9)


def test_simplex_handles_free_variables():
    m = LinearModel()
    m.add_variable("x", -math.inf, math.inf, 1.0)
    m.add_row("r", [0], [1.0], GREATER_EQUAL, -4.0)
    res = simplex_solve(m)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-4.0)


def test_simplex_handles_redundant_rows():
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, 1.0)
    m.add_row("a", [0], [1.0], EQUAL, 2.0)
    m.add_row("b", [0], [2.0], EQUAL, 4.0)  # same constraint scaled
    res = simplex_solve(m)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(2.0)


def test_simplex_degenerate_problem_terminates():
    # many constraints through the same vertex; x + y <= 1 dominates
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, -1.0)
    m.add_variable("y", 0.0, math.inf, -1.0)
    for k in range(1, 12):
        m.add_row(f"r{k}", [0, 1], [1.0, float(k)], LESS_EQUAL, float(k))
    res = simplex_solve(m)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-7)


@needs_session
def test_solve_lp_routes_backend_names():
    # auto and highs run the model's HiGHS session whatever its size; a
    # named simplex never creates one; an unknown name is refused
    def small() -> LinearModel:
        m = LinearModel()
        m.add_variable("x", 0.0, math.inf, -1.0)
        m.add_row("r", [0], [1.0], LESS_EQUAL, 1.0)
        return m

    big = LinearModel()
    for j in range(60):
        big.add_variable(f"x{j}", 0.0, math.inf, -1.0)
    for r in range(200):
        big.add_row(f"r{r}", [r % 60], [1.0], LESS_EQUAL, 1.0)
    for model, backend in ((small(), "auto"), (small(), "highs"), (big, "auto")):
        assert solve_lp(model, backend=backend).status == STATUS_OPTIMAL
        assert model in backends._sessions

    named = small()
    res = solve_lp(named, backend="simplex")
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert named not in backends._sessions
    with pytest.raises(ValueError):
        solve_lp(named, backend="mystery")


def test_cold_path_calls_the_module_level_linprog(monkeypatch):
    # perfbench's tracer counts HiGHS calls by rebinding backends.linprog
    monkeypatch.setattr(backends, "_binding", None)
    calls = []
    lazy = backends.linprog
    monkeypatch.setattr(backends, "linprog", lambda *a, **k: calls.append(a) or lazy(*a, **k))
    m = LinearModel()
    m.add_variable("x", 0.0, math.inf, -1.0)
    m.add_row("r", [0], [1.0], LESS_EQUAL, 1.0)
    res = solve_lp(m)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert len(calls) == 1
    assert m not in backends._sessions


SRC = Path(__file__).resolve().parents[1] / "src"

# One chain MILP through the HiGHS session, in a fresh interpreter.
_CHAIN_MILP = """
import sys
import scnptree, scnptree.cli
from scnptree import build_path_table, generate_instance
from scnptree.milpcore import STATUS_OPTIMAL, backends, solve_milp
from scnptree.models import build_chain_milp

inst = generate_instance(8, "type1", 1)
model, _ = build_chain_milp(inst, build_path_table(inst))
result = solve_milp(model)
assert result.status == STATUS_OPTIMAL and model in backends._sessions
"""


def _run_fresh(code: str) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


@needs_session
def test_startup_loads_the_binding_without_scipy_optimize():
    _run_fresh(_CHAIN_MILP + """
heavy = [name for name in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if name in sys.modules]
assert not heavy, heavy
import scipy.optimize
assert scipy.optimize.linprog([1.0], bounds=[(1.0, 2.0)], method="highs").fun == 1.0
assert sys.modules["scipy.optimize._highspy._core"] is backends._binding
assert solve_milp(build_chain_milp(inst, build_path_table(inst))[0]).objective == result.objective
""")


@needs_session
def test_binding_imported_by_scipy_optimize_first_is_reused():
    _run_fresh("import scipy.optimize\nbinding = scipy.optimize._highspy._core\n" + _CHAIN_MILP + """
assert backends._binding is binding is sys.modules["scipy.optimize._highspy._core"]
""")


def _stand_in():
    return types.SimpleNamespace(_Highs=object, HighsModelStatus=object, HighsStatus=object)


@pytest.fixture
def hidden_binding(monkeypatch, tmp_path):
    """No binding imported, scipy's folder empty, and a stand-in binding
    behind ``from scipy.optimize._highspy import _core``."""
    package = types.ModuleType("scipy.optimize._highspy")
    package._core = _stand_in()
    monkeypatch.delitem(sys.modules, backends._BINDING, raising=False)
    monkeypatch.delitem(sys.modules, "scipy.optimize", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", package)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    return package._core


def test_load_binding_imports_the_package_when_the_file_is_missing(hidden_binding):
    assert backends._load_binding() is hidden_binding


def test_load_binding_imports_the_package_when_the_file_fails(hidden_binding, tmp_path):
    folder = tmp_path / "optimize" / "_highspy"
    folder.mkdir(parents=True)
    (folder / ("_core" + importlib.machinery.EXTENSION_SUFFIXES[0])).write_bytes(b"not a library")
    assert backends._load_binding() is hidden_binding
    assert backends._BINDING not in sys.modules


def test_load_binding_reuses_an_imported_binding(hidden_binding, monkeypatch):
    def no_file():
        raise AssertionError("the file was read")

    monkeypatch.setattr(backends, "_binding_from_file", no_file)
    monkeypatch.setitem(sys.modules, "scipy.optimize", types.ModuleType("scipy.optimize"))
    assert backends._load_binding() is hidden_binding
    loaded = _stand_in()
    monkeypatch.setitem(sys.modules, backends._BINDING, loaded)
    assert backends._load_binding() is loaded


def test_load_binding_gives_none_without_a_usable_binding(hidden_binding, monkeypatch):
    del hidden_binding._Highs
    assert backends._load_binding() is None
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    assert backends._load_binding() is None


def brute_force_binary(model: LinearModel, n: int):
    best = math.inf
    c = np.array(model.objective)
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if model.is_feasible(x):
            best = min(best, float(c @ x))
    return best


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_branch_and_bound_matches_enumeration(backend):
    rng = np.random.default_rng(13)
    for trial in range(25):
        n = int(rng.integers(3, 9))
        m = LinearModel(f"b{trial}")
        for j in range(n):
            m.add_variable(f"x{j}", 0.0, 1.0, float(rng.integers(-9, 10)), integer=True)
        for r in range(int(rng.integers(1, 4))):
            coefs = [float(v) for v in rng.integers(-4, 6, size=n)]
            m.add_row(f"r{r}", list(range(n)), coefs, LESS_EQUAL, float(rng.integers(1, 8)))
        res = solve_milp(m, gap=0.0, backend=backend)
        expected = brute_force_binary(m, n)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == pytest.approx(expected, abs=1e-6)
        assert res.bound <= res.objective + 1e-9


def test_branch_and_bound_gap_contract():
    # with an absolute gap the incumbent must be within gap of the bound
    rng = np.random.default_rng(14)
    for trial in range(10):
        n = 8
        m = LinearModel(f"g{trial}")
        for j in range(n):
            m.add_variable(f"x{j}", 0.0, 1.0, float(rng.normal()), integer=True)
        coefs = [float(rng.integers(1, 5)) for _ in range(n)]
        m.add_row("cap", list(range(n)), coefs, LESS_EQUAL, float(rng.integers(3, 10)))
        res = solve_milp(m, gap=0.5)
        exact = solve_milp(m, gap=0.0)
        assert res.status == STATUS_OPTIMAL
        assert res.objective - res.bound <= 0.5 + 1e-9
        assert res.objective <= exact.objective + 0.5 + 1e-9


def test_branch_and_bound_mixed_integer():
    # min -2x - 3y with y continuous in [0, 1], x binary, x + 2y <= 2
    m = LinearModel()
    m.add_variable("x", 0.0, 1.0, -2.0, integer=True)
    m.add_variable("y", 0.0, 1.0, -3.0)
    m.add_row("cap", [0, 1], [1.0, 2.0], LESS_EQUAL, 2.0)
    res = solve_milp(m, gap=0.0)
    assert res.status == STATUS_OPTIMAL
    # x = 1 forces y = 0.5 (value -3.5), beating x = 0, y = 1 (value -3)
    assert res.objective == pytest.approx(-3.5)
    assert res.x[0] == pytest.approx(1.0, abs=1e-6)
    assert res.x[1] == pytest.approx(0.5, abs=1e-6)


def test_branch_and_bound_infeasible_and_unbounded():
    m = LinearModel()
    m.add_variable("x", 0.0, 1.0, 1.0, integer=True)
    m.add_row("r", [0], [2.0], EQUAL, 1.0)
    assert solve_milp(m, gap=0.0).status == STATUS_INFEASIBLE

    m2 = LinearModel()
    m2.add_variable("x", 0.0, 1.0, 1.0, integer=True)
    m2.add_variable("y", 0.0, math.inf, -1.0)
    assert solve_milp(m2, gap=0.0).status == STATUS_UNBOUNDED


def test_branch_and_bound_warm_start_validation():
    m = LinearModel()
    m.add_variable("x", 0.0, 1.0, -1.0, integer=True)
    m.add_variable("y", 0.0, 1.0, -1.0, integer=True)
    m.add_row("r", [0, 1], [1.0, 1.0], LESS_EQUAL, 1.0)
    res = solve_milp(m, gap=0.0, warm_start=np.array([0.0, 1.0]))
    assert res.objective == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        solve_milp(m, gap=0.0, warm_start=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_milp(m, gap=0.0, warm_start=np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        solve_milp(m, gap=0.0, warm_start=np.array([1.0]))


def _warm_start_by_loops(model: LinearModel, x: np.ndarray) -> bool:
    """The per-variable and per-row check that the array version replaced."""
    for j in range(model.num_variables):
        if model.is_integer[j] and abs(x[j] - round(x[j])) > branchbound._INT_TOL:
            return False
    tol = 1e-7
    if np.any(x < np.asarray(model.lower) - tol) or np.any(x > np.asarray(model.upper) + tol):
        return False
    for cols, coefs, sense, rhs in zip(model.row_cols, model.row_coefs, model.senses, model.rhs):
        act = float(np.dot(x[cols], coefs))
        if sense == LESS_EQUAL and act > rhs + tol:
            return False
        if sense == GREATER_EQUAL and act < rhs - tol:
            return False
        if sense == EQUAL and abs(act - rhs) > tol:
            return False
    return True


def _warm_start_accepted(model: LinearModel, x) -> bool:
    try:
        branchbound._validate_warm_start(model, np.asarray(x, dtype=float))
    except ValueError:
        return False
    return True


def test_warm_start_check_on_edge_points():
    m = LinearModel("edges")
    m.add_variable("a", 0.0, 1.0, 1.0, integer=True)
    m.add_variable("b", 0.0, 3.0, 1.0, integer=True)
    m.add_variable("c", -1.0, 2.0, 1.0)
    m.add_row("le", [0, 1], [1.0, 1.0], LESS_EQUAL, 3.0)
    m.add_row("ge", [1, 2], [1.0, 2.0], GREATER_EQUAL, 1.0)
    m.add_row("eq", [0, 2], [2.0, 1.0], EQUAL, 2.5)
    m.add_row("empty", [], [], LESS_EQUAL, 0.0)
    cases = {
        (1.0, 2.0, 0.5): True,
        (1.0, 2.0, 0.5 + 5e-8): True,  # every row within 1e-7
        (1.0, 2.0, 0.5 + 2e-7): False,  # eq row off by 2e-7
        (1.0, 1.0 + 5e-7, 0.5): True,  # integral within 1e-6
        (1.0, 2.0 + 1e-5, 0.5): False,  # not integral
        (0.0, 1.0, 2.5): False,  # c above its bound, rows met
        (0.0, 1.0, 2.0 + 5e-8): False,  # eq row off by 0.5
        (1.0, 3.0 + 5e-8, 0.5): False,  # le row violated by 1.5
        (0.0, 0.0, -1.0 - 5e-8): False,  # ge row violated
        (1.0, 0.0, 0.5): True,
        (1.0, 4.0, -1.5): False,  # b and c off their bounds
        (1.0, float("nan"), 0.5): False,
        (1.0, 2.0, float("inf")): False,
    }
    for point, accepted in cases.items():
        assert _warm_start_accepted(m, point) is accepted, point
        if not np.isfinite(point).all():
            assert not m.is_feasible(np.array(point)), point
    rng = np.random.default_rng(8)
    grid = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    for _ in range(2000):
        x = rng.choice(grid, size=3) + rng.choice([0.0, 5e-8, -5e-8, 2e-7, 1e-5], size=3)
        assert _warm_start_accepted(m, x) is _warm_start_by_loops(m, x), x
    with pytest.raises(ValueError, match="integral on b"):
        branchbound._validate_warm_start(m, np.array([1.0, 0.5, 0.5]))
    with pytest.raises(ValueError, match="violates"):
        branchbound._validate_warm_start(m, np.array([1.0, 2.0, 0.6]))


def _branch_column_by_loop(x: np.ndarray, int_idx) -> int:
    best_j, best_frac = -1, branchbound._INT_TOL
    for j in int_idx:
        score = min(x[j] - math.floor(x[j]), math.ceil(x[j]) - x[j])
        if score > best_frac:
            best_frac, best_j = score, j
    return best_j


def test_branching_picks_the_first_most_fractional_column():
    rng = np.random.default_rng(31)
    # a coarse grid, so that ties between columns are common
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.5, 3.0, 1e-7, 1.0 - 1e-7, 4e-6])
    ties = 0
    for _ in range(3000):
        n = int(rng.integers(1, 12))
        x = rng.choice(grid, size=n) if rng.random() < 0.7 else rng.uniform(-3.0, 3.0, size=n)
        int_idx = np.flatnonzero(rng.random(n) < 0.7)
        expected = _branch_column_by_loop(x, int_idx)
        assert branchbound._branch_column(x, int_idx) == expected
        fracs = np.minimum(x[int_idx] - np.floor(x[int_idx]), np.ceil(x[int_idx]) - x[int_idx])
        ties += expected >= 0 and np.count_nonzero(fracs == fracs.max()) > 1
    assert ties > 100
    assert branchbound._branch_column(np.array([0.5, 0.5]), np.array([], dtype=int)) == -1


def test_branch_and_bound_time_limit_returns_incumbent():
    rng = np.random.default_rng(15)
    n = 26
    m = LinearModel("slow")
    for j in range(n):
        m.add_variable(f"x{j}", 0.0, 1.0, float(rng.normal()), integer=True)
    for r in range(12):
        coefs = [float(rng.uniform(0.1, 3.0)) for _ in range(n)]
        m.add_row(f"r{r}", list(range(n)), coefs, LESS_EQUAL, float(0.4 * sum(coefs)))
    res = solve_milp(m, gap=0.0, time_limit=0.05)
    if res.status == STATUS_TIME_LIMIT:
        assert res.bound is not None
        if res.objective is not None:
            assert res.bound <= res.objective + 1e-9
    else:
        assert res.status == STATUS_OPTIMAL


def test_branch_and_bound_stops_on_a_node_time_limit(monkeypatch):
    # an LP that runs out of time ends the search as a timeout, with a
    # bound that is still proven
    m = LinearModel("lp_clock")
    for j, (w, v) in enumerate([(3.0, -4.0), (4.0, -5.0), (5.0, -6.0)]):
        m.add_variable(f"x{j}", 0.0, 1.0, v, integer=True)
    m.add_row("cap", [0, 1, 2], [3.0, 4.0, 5.0], LESS_EQUAL, 8.0)
    real = branchbound.solve_lp
    calls = []

    def second_node_times_out(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            return SolveResult(status=STATUS_TIME_LIMIT, iterations=3)
        return real(*args, **kwargs)

    monkeypatch.setattr(branchbound, "solve_lp", second_node_times_out)
    res = solve_milp(m, gap=0.0)
    assert len(calls) == 2
    assert res.status == STATUS_TIME_LIMIT
    assert res.nodes == 2
    assert res.bound is not None
    assert res.bound <= brute_force_binary(m, 3) + 1e-9


def _forbid_x0_and_x1(model: LinearModel, x: np.ndarray, bound: float) -> bool:
    """Lazy-row check: x0 and x1 may not both be 1."""
    if round(x[0]) + round(x[1]) < 2:
        return False
    model.add_row(f"lazy{model.num_rows}", [0, 1], [1.0, 1.0], LESS_EQUAL, 1.0)
    return True


def _lazy_knapsack() -> LinearModel:
    # min -5 x0 - 4 x1 - 3 x2 with 2 (x0 + x1 + x2) <= 5: the root LP is
    # (1, 1, 0.5) and the dive's first integral point (1, 1, 0), which the
    # check cuts off; the best point it keeps is (1, 0, 1) at -8
    m = LinearModel("lazy")
    for j, v in enumerate((-5.0, -4.0, -3.0)):
        m.add_variable(f"x{j}", 0.0, 1.0, v, integer=True)
    m.add_row("cap", [0, 1, 2], [2.0, 2.0, 2.0], LESS_EQUAL, 5.0)
    m.lazy_rows = _forbid_x0_and_x1
    return m


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_branch_and_bound_checks_lazy_rows_at_each_incumbent(backend):
    m = _lazy_knapsack()
    res = solve_milp(m, gap=0.0, backend=backend)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-8.0)
    assert np.round(res.x).tolist() == [1.0, 0.0, 1.0]
    assert res.bound <= res.objective + 1e-9
    assert m.num_rows == 2
    assert brute_force_binary(m, 3) == pytest.approx(-8.0)


def test_a_warm_start_the_lazy_rows_cut_off_is_rejected():
    with pytest.raises(ValueError, match="lazy rows"):
        solve_milp(_lazy_knapsack(), gap=0.0, warm_start=np.array([1.0, 1.0, 0.0]))
    res = solve_milp(_lazy_knapsack(), gap=0.0, warm_start=np.array([0.0, 1.0, 1.0]))
    assert res.objective == pytest.approx(-8.0)


def test_a_search_stopped_after_a_lazy_row_keeps_a_valid_bound(monkeypatch):
    # the LP re-solve of the node whose point the check cut off runs out
    # of time: the search ends as a timeout with a finite, proven bound
    m = _lazy_knapsack()
    real = branchbound.solve_lp
    calls = []

    def re_solve_times_out(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            return SolveResult(status=STATUS_TIME_LIMIT)
        return real(*args, **kwargs)

    monkeypatch.setattr(branchbound, "solve_lp", re_solve_times_out)
    res = solve_milp(m, gap=0.0)
    assert len(calls) == 3
    assert m.num_rows == 2
    assert res.status == STATUS_TIME_LIMIT
    assert res.x is None
    assert math.isfinite(res.bound) and res.bound <= -8.0 + 1e-9


@pytest.mark.parametrize("backend", LP_PATHS, indirect=True)
def test_the_bound_handed_to_lazy_rows_is_valid_and_never_falls(backend):
    # random knapsacks whose neighbours x_j, x_j+1 may not both be 1; the
    # check adds the row of the first pair a point breaks
    rng = np.random.default_rng(29)
    n = 10
    points = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    no_neighbours = (points[:, :-1] + points[:, 1:] <= 1).all(axis=1)
    checks = 0
    for trial in range(10):
        m = LinearModel(f"conflict{trial}")
        for j in range(n):
            m.add_variable(f"x{j}", 0.0, 1.0, -float(rng.integers(1, 10)), integer=True)
        weights = rng.integers(1, 6, size=n).astype(float)
        capacity = float(rng.integers(8, 16))
        m.add_row("cap", list(range(n)), weights.tolist(), LESS_EQUAL, capacity)
        bounds = []

        def forbid_neighbours(model, x, bound):
            bounds.append(bound)
            for j in range(n - 1):
                if round(x[j]) + round(x[j + 1]) == 2:
                    model.add_row(f"lazy{model.num_rows}", [j, j + 1], [1.0, 1.0], LESS_EQUAL, 1.0)
                    return True
            return False

        m.lazy_rows = forbid_neighbours
        res = solve_milp(m, gap=0.0, backend=backend)
        keep = no_neighbours & (points @ weights <= capacity)
        optimum = float((points[keep] @ np.array(m.objective)).min())
        assert res.objective == pytest.approx(optimum)
        assert all(b <= optimum + 1e-9 for b in bounds)
        assert bounds == sorted(bounds)
        checks += len(bounds)
    assert checks > 30


def test_simplex_refuses_oversized_dense_model():
    m = LinearModel()
    for j in range(5000):
        m.add_variable(f"x{j}", 0.0, 1.0, 1.0)
    for r in range(5000):
        m.add_row(f"r{r}", [r], [1.0], LESS_EQUAL, 1.0)
    with pytest.raises(NumericalFailure):
        simplex_solve(m)
