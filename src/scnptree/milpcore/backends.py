"""LP backend routing: HiGHS through scipy, or the built-in dense simplex.

Both backends return the same SolveResult contract, including row duals in
the shared sign convention (<= rows nonpositive, >= rows nonnegative).
``auto`` means HiGHS; the dense simplex runs only when asked for by name.

HiGHS runs as one persistent session per model, through scipy's private
binding ``scipy.optimize._highspy._core._Highs``.  Rows keep their native
bounds, rows added to the model after a solve are appended to the session,
and each solve only resets the column bounds, so dual simplex restarts from
the previous basis.  A new session loads the model's ``start_basis`` when
it has one, so its first LP starts from that structural basis instead of
the slack basis.  When a session dies its HiGHS object goes to a small
spare list; the next session empties a spare with ``clearModel()``, which
keeps the options, instead of creating an object.  Each run reads back
only the iteration count.  A scipy without that binding takes a cold
``linprog`` call per solve instead.

The binding is one extension module, loaded from its file under its own
name, so importing this module does not run ``scipy.optimize``'s package
init (``scipy.linalg``, ``scipy.sparse`` and every optimizer, about half a
second).  A later ``import scipy.optimize`` finds the module registered
and reuses it.  Only the cold fallback imports ``scipy.optimize`` and
``scipy.sparse``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import weakref

import numpy as np

from scnptree.milpcore.model import (
    GREATER_EQUAL,
    LESS_EQUAL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    LinearModel,
    NumericalFailure,
    SolveResult,
)
from scnptree.milpcore.simplex import simplex_solve

_BINDING = "scipy.optimize._highspy._core"


def _binding_from_file():
    """The binding loaded from its file, or None when it is not there."""
    import scipy

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    # Registered under its canonical name, so that scipy.optimize's own
    # import reuses this module instead of initialising the extension twice.
    spec = importlib.util.spec_from_file_location(_BINDING, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_BINDING] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(_BINDING, None)
        return None
    return module


def _load_binding():
    """scipy's HiGHS binding, or None when LPs must take ``linprog``.

    Reuses a binding that is already imported; otherwise loads it from its
    file, and only if that fails imports it through ``scipy.optimize``.
    """
    binding = sys.modules.get(_BINDING)
    try:
        if binding is None and "scipy.optimize" not in sys.modules:
            binding = _binding_from_file()
        if binding is None:
            from scipy.optimize._highspy import _core as binding
        # private API: probe everything the session uses
        binding._Highs, binding.HighsModelStatus, binding.HighsStatus
    except (ImportError, AttributeError):
        return None
    return binding


_binding = _load_binding()

BACKENDS = ("auto", "simplex", "highs")

_ROWWISE = 2  # HiGHS MatrixFormat.kRowwise
_MINIMIZE = 1  # HiGHS ObjSense.kMinimize

# Keyed by the model object itself (weakly, so entries die with the model
# and a recycled address can never be mistaken for a cached model).  A
# model's rows are append-only, so a session with the model's column count
# catches up by appending the new rows; column bounds are sent with every
# solve, and the objective and start basis are read when a session is made.
_sessions: "weakref.WeakKeyDictionary[LinearModel, _Session]" = weakref.WeakKeyDictionary()


# HiGHS objects of dead sessions, kept for the next session.  Creating an
# object costs about 0.1 ms, more than the simplex work of many small LPs;
# clearModel() empties a spare and keeps its options.
_spares: list = []
_SPARE_CAP = 4


def _release(highs) -> None:
    if len(_spares) < _SPARE_CAP:
        _spares.append(highs)


def _acquire():
    """An empty HiGHS object with the session's options: a spare, or new."""
    try:
        highs = _spares.pop()
    except IndexError:
        pass
    else:
        highs.clearModel()
        return highs
    highs = _binding._Highs()
    highs.setOptionValue("output_flag", False)
    # Presolve runs only on a cold start, and when it leaves the status
    # open HiGHS prints a line to stdout that no option silences.
    highs.setOptionValue("presolve", "off")
    return highs


def _row_block(model: LinearModel, first: int) -> tuple:
    """Rows ``first..`` as HiGHS row bounds plus a row-wise CSR matrix."""
    senses = np.array(model.senses[first:], dtype=object)
    rhs = np.array(model.rhs[first:], dtype=float)
    lower = np.where(senses == LESS_EQUAL, -math.inf, rhs)
    upper = np.where(senses == GREATER_EQUAL, math.inf, rhs)
    return (lower, upper, *model.row_matrix(first))


def _set_start_basis(highs, model: LinearModel) -> None:
    """Load ``model.start_basis``: each listed column basic in place of its
    row's slack, every other slack basic, every other column at its lower
    bound.  A basis HiGHS rejects leaves its slack start in place."""
    code = _binding.HighsBasisStatus
    cols = [code.kLower] * model.num_variables
    rows = [code.kBasic] * model.num_rows
    for row, col in model.start_basis:
        cols[col] = code.kBasic
        rows[row] = code.kUpper if model.senses[row] == LESS_EQUAL else code.kLower
    basis = _binding.HighsBasis()
    basis.col_status = cols
    basis.row_status = rows
    basis.valid = True
    # not alien: HiGHS takes the basis as given or rejects it outright
    basis.alien = False
    highs.setBasis(basis)


class _Session:
    """A HiGHS LP that mirrors one model and keeps its basis between solves."""

    def __init__(self, model: LinearModel) -> None:
        highs = _acquire()
        n = model.num_variables
        lower, upper, start, index, value = _row_block(model, 0)
        status = highs.passModel(
            n, model.num_rows, len(index), _ROWWISE, _MINIMIZE, 0.0,
            np.array(model.objective, dtype=float),
            np.array(model.lower, dtype=float),
            np.array(model.upper, dtype=float),
            # all-continuous integrality: the binding misreads an empty array
            lower, upper, start, index, value, np.zeros(n, dtype=np.int32),
        )
        if status == _binding.HighsStatus.kError:
            raise NumericalFailure(f"highs rejected model {model.name!r}")
        if model.start_basis:
            _set_start_basis(highs, model)
        self.highs = highs
        self.columns = np.arange(n, dtype=np.int32)
        self.rows = model.num_rows
        weakref.finalize(self, _release, highs)

    def follows(self, model: LinearModel) -> bool:
        """Catch up with ``model``; False when it changed beyond added rows."""
        added = model.num_rows - self.rows
        if len(self.columns) != model.num_variables:
            return False
        if added:
            lower, upper, start, index, value = _row_block(model, self.rows)
            self.highs.addRows(added, lower, upper, len(index), start[:-1], index, value)
            self.rows = model.num_rows
        return True

    def run(self, time_limit: float | None) -> tuple:
        """Run from the current basis; returns (model status, iterations)."""
        highs = self.highs
        limit = math.inf
        if time_limit is not None:
            # HiGHS's clock counts the object's whole life, not this run
            limit = highs.getRunTime() + max(time_limit, 1e-3)
        highs.setOptionValue("time_limit", limit)
        highs.run()
        ok, iterations = highs.getInfoValue("simplex_iteration_count")
        if ok != _binding.HighsStatus.kOk:
            iterations = 0
        return highs.getModelStatus(), max(iterations, 0)


def _session(model: LinearModel) -> _Session:
    session = _sessions.get(model)
    if session is None or not session.follows(model):
        session = _sessions[model] = _Session(model)
    return session


def _session_solve(
    model: LinearModel,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
    time_limit: float | None,
) -> SolveResult:
    session = _session(model)
    highs = session.highs
    lo = np.asarray(model.lower if lower is None else lower, dtype=float)
    hi = np.asarray(model.upper if upper is None else upper, dtype=float)
    highs.changeColsBounds(len(session.columns), session.columns, lo, hi)
    status, iterations = session.run(time_limit)
    codes = _binding.HighsModelStatus
    if status == codes.kInfeasible:
        return SolveResult(status=STATUS_INFEASIBLE, iterations=iterations)
    if status == codes.kUnbounded:
        return SolveResult(status=STATUS_UNBOUNDED, iterations=iterations)
    if status == codes.kTimeLimit:
        return SolveResult(status=STATUS_TIME_LIMIT, iterations=iterations)
    if status != codes.kOptimal:
        raise NumericalFailure(f"highs backend failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)
    duals = np.array(solution.row_dual, dtype=float)
    objective = float(highs.getObjectiveValue())
    return SolveResult(
        status=STATUS_OPTIMAL,
        objective=objective,
        x=x,
        duals=duals,
        bound=objective,
        iterations=iterations,
    )


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _linprog_solve(
    model: LinearModel,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
    time_limit: float | None,
) -> SolveResult:
    import scipy.sparse as sp

    row_lo, row_hi, start, index, value = _row_block(model, 0)
    # linprog takes = rows and <= rows; >= rows are negated into <= rows
    ge = np.isinf(row_hi)
    sign = np.where(ge, -1.0, 1.0)
    matrix = sp.csr_matrix(
        (value * np.repeat(sign, np.diff(start)), index, start),
        shape=(model.num_rows, model.num_variables),
    )
    rhs = np.where(ge, -row_lo, row_hi)
    eq_rows = np.flatnonzero(row_lo == row_hi)
    ub_rows = np.flatnonzero(row_lo != row_hi)
    lo = np.asarray(model.lower if lower is None else lower, dtype=float)
    hi = np.asarray(model.upper if upper is None else upper, dtype=float)
    bounds = [
        (None if math.isinf(l) else l, None if math.isinf(u) else u)
        for l, u in zip(lo, hi)
    ]
    options = {"presolve": False}  # see _Session: presolve may print to stdout
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 1e-3)
    res = linprog(
        c=np.array(model.objective, dtype=float),
        A_ub=matrix[ub_rows] if len(ub_rows) else None,
        b_ub=rhs[ub_rows] if len(ub_rows) else None,
        A_eq=matrix[eq_rows] if len(eq_rows) else None,
        b_eq=rhs[eq_rows] if len(eq_rows) else None,
        bounds=bounds,
        method="highs",
        options=options,
    )
    if res.status == 2:
        return SolveResult(status=STATUS_INFEASIBLE, iterations=int(res.nit))
    if res.status == 3:
        return SolveResult(status=STATUS_UNBOUNDED, iterations=int(res.nit))
    if res.status == 1 and res.message.startswith("Time limit"):
        # status 1 also covers HiGHS's iteration limit, which is never set
        return SolveResult(status=STATUS_TIME_LIMIT, iterations=int(res.nit))
    if res.status != 0:
        raise NumericalFailure(f"highs backend failed: {res.message}")
    duals = np.zeros(model.num_rows)
    if len(ub_rows):
        duals[ub_rows] = sign[ub_rows] * np.asarray(res.ineqlin.marginals, dtype=float)
    if len(eq_rows):
        duals[eq_rows] = np.asarray(res.eqlin.marginals, dtype=float)
    x = np.asarray(res.x, dtype=float)
    objective = float(res.fun)
    return SolveResult(
        status=STATUS_OPTIMAL,
        objective=objective,
        x=x,
        duals=duals,
        bound=objective,
        iterations=int(res.nit),
    )


def solve_lp(
    model: LinearModel,
    backend: str = "auto",
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    time_limit: float | None = None,
) -> SolveResult:
    """Solve the continuous relaxation; integrality flags are ignored.

    ``backend`` is one of ``BACKENDS``; ``auto`` is an alias of
    ``highs``.  HiGHS reuses the model's session, so repeated solves of one
    model, such as branch-and-bound nodes, start from the last basis;
    ``simplex`` runs the built-in dense simplex.  Both backends map a
    ``time_limit`` stop to TimeLimit; the simplex alone can also end at its
    fixed guard against cycling, with IterationLimit.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "simplex":
        return simplex_solve(model, lower=lower, upper=upper, time_limit=time_limit)
    if _binding is None:
        return _linprog_solve(model, lower, upper, time_limit)
    return _session_solve(model, lower, upper, time_limit)
