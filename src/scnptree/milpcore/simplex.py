"""Bounded-variable two-phase revised primal simplex.

Solves the continuous relaxation of a LinearModel.  Rows become equalities
by adding one slack column each (nonnegative for <=, nonpositive for >=,
fixed at zero for =); phase 1 starts from an artificial basis and minimizes
total artificial mass, phase 2 minimizes the true objective.  The basis
inverse is kept dense with rank-1 updates and periodic refactorization.
Pricing is Dantzig with a Bland fallback after a long degenerate streak.
"""

from __future__ import annotations

import math
import time

import numpy as np

from scnptree.milpcore.model import (
    GREATER_EQUAL,
    LESS_EQUAL,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    LinearModel,
    NumericalFailure,
    SolveResult,
)

_AT_LOWER = 1
_AT_UPPER = 2
_FREE = 3

_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_DEGEN_TOL = 1e-10
_BLAND_AFTER = 40
_REFACTOR_EVERY = 128
_DENSE_CELL_CAP = 40_000_000


def simplex_solve(
    model: LinearModel,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    time_limit: float | None = None,
) -> SolveResult:
    """LP solve of the model's continuous relaxation with row duals.

    ``lower``/``upper`` override the model's variable bounds (used by
    branch and bound); integrality flags are ignored here.  The clock is
    read once per pivot: past ``time_limit`` seconds the solve ends with
    TimeLimit.  After that check, a fixed guard of 50 (m + n) + 1000
    pivots ends a cycling solve with IterationLimit.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    m = model.num_rows
    n = model.num_variables
    var_lower = np.asarray(model.lower if lower is None else lower, dtype=float)
    var_upper = np.asarray(model.upper if upper is None else upper, dtype=float)
    if m * (n + 2 * m) > _DENSE_CELL_CAP:
        raise NumericalFailure(
            f"dense simplex refuses {m} rows x {n} columns; use the highs backend"
        )
    limit = 50 * (m + n) + 1000  # guard against cycling

    total = n + 2 * m  # structurals, slacks, artificials
    a = np.zeros((m, total))
    for r, (cols, coefs) in enumerate(zip(model.row_cols, model.row_coefs)):
        a[r, cols] = coefs
    lb = np.full(total, -math.inf)
    ub = np.full(total, math.inf)
    lb[:n] = var_lower
    ub[:n] = var_upper
    for r, sense in enumerate(model.senses):
        a[r, n + r] = 1.0
        if sense == LESS_EQUAL:
            lb[n + r], ub[n + r] = 0.0, math.inf
        elif sense == GREATER_EQUAL:
            lb[n + r], ub[n + r] = -math.inf, 0.0
        else:
            lb[n + r], ub[n + r] = 0.0, 0.0
    art0 = n + m
    lb[art0:] = 0.0

    # Nonbasic start: finite lower if any, else finite upper, else zero.
    x = np.zeros(total)
    status = np.full(total, _FREE, dtype=np.int8)
    for j in range(n + m):
        if math.isfinite(lb[j]):
            x[j] = lb[j]
            status[j] = _AT_LOWER
        elif math.isfinite(ub[j]):
            x[j] = ub[j]
            status[j] = _AT_UPPER

    b = np.asarray(model.rhs, dtype=float)
    residual = b - a[:, : n + m] @ x[: n + m]
    for r in range(m):
        sign = 1.0 if residual[r] >= 0.0 else -1.0
        a[r, art0 + r] = sign
        x[art0 + r] = abs(residual[r])
    basis = np.array([art0 + r for r in range(m)], dtype=int)
    status[basis] = 0
    b_inv = np.diag(a[np.arange(m), basis].copy()) if m else np.zeros((0, 0))

    phase1_cost = np.zeros(total)
    phase1_cost[art0:] = 1.0
    phase2_cost = np.zeros(total)
    phase2_cost[:n] = model.objective

    fixed = ub - lb <= 1e-12
    iterations = 0

    def refactor() -> None:
        nonlocal b_inv
        if m == 0:
            return
        try:
            b_inv = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        x_nb = x.copy()
        x_nb[basis] = 0.0
        xb = b_inv @ (b - a @ x_nb)
        if not np.all(np.isfinite(xb)):
            raise NumericalFailure("non-finite basic values after refactorization")
        x[basis] = xb

    def pivot(pos: int, enter: int, w: np.ndarray) -> None:
        """Make ``enter`` basic at ``pos``: rank-1 update of b_inv by the
        entering column's image ``w = b_inv @ a[:, enter]``."""
        nonlocal b_inv
        basis[pos] = enter
        status[enter] = 0
        pivot_row = b_inv[pos] / w[pos]
        w_rest = w.copy()
        w_rest[pos] = 0.0
        b_inv -= np.outer(w_rest, pivot_row)
        b_inv[pos] = pivot_row

    def run_phase(cost: np.ndarray, phase1: bool) -> str:
        nonlocal iterations
        degen_streak = 0
        bland = False
        etas = 0
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                return STATUS_TIME_LIMIT
            if iterations >= limit:
                return STATUS_ITERATION_LIMIT
            y = b_inv.T @ cost[basis] if m else np.zeros(0)
            d = cost - a.T @ y
            improving = np.zeros(total, dtype=bool)
            nb = status != 0
            candidate = nb & ~fixed
            improving |= candidate & (status == _AT_LOWER) & (d < -_OPT_TOL)
            improving |= candidate & (status == _AT_UPPER) & (d > _OPT_TOL)
            improving |= candidate & (status == _FREE) & (np.abs(d) > _OPT_TOL)
            idx = np.nonzero(improving)[0]
            if idx.size == 0:
                return STATUS_OPTIMAL
            if bland:
                enter = int(idx[0])
            else:
                enter = int(idx[np.argmax(np.abs(d[idx]))])
            rising = status[enter] == _AT_LOWER or (status[enter] == _FREE and d[enter] < 0)
            delta = 1.0 if rising else -1.0

            w = b_inv @ a[:, enter] if m else np.zeros(0)
            g = delta * w
            lims = np.full(m, math.inf)
            to_lower = g > _PIVOT_TOL
            to_upper = g < -_PIVOT_TOL
            if np.any(to_lower):
                lims[to_lower] = np.maximum(
                    (x[basis[to_lower]] - lb[basis[to_lower]]) / g[to_lower], 0.0
                )
            if np.any(to_upper):
                lims[to_upper] = np.maximum(
                    (ub[basis[to_upper]] - x[basis[to_upper]]) / (-g[to_upper]), 0.0
                )
            t_pivot = float(np.min(lims)) if m else math.inf
            t_bound = ub[enter] - lb[enter]
            t = min(t_bound, t_pivot)
            if math.isinf(t):
                if phase1:
                    raise NumericalFailure("phase-1 objective unbounded below")
                return STATUS_UNBOUNDED

            iterations += 1
            if t <= _DEGEN_TOL:
                degen_streak += 1
                if degen_streak >= _BLAND_AFTER:
                    bland = True
            else:
                degen_streak = 0
                bland = False

            if m:
                x[basis] = x[basis] - t * g
            if t_bound <= t_pivot:
                # Bound flip: the entering variable crosses to its other bound.
                x[enter] = ub[enter] if rising else lb[enter]
                status[enter] = _AT_UPPER if rising else _AT_LOWER
                continue

            near = lims <= t_pivot + 1e-12
            cand = np.nonzero(near)[0]
            pos = int(cand[np.argmax(np.abs(w[cand]))])
            leave = int(basis[pos])
            hit_lower = g[pos] > 0
            x[leave] = lb[leave] if hit_lower else ub[leave]
            status[leave] = _AT_LOWER if hit_lower else _AT_UPPER
            x[enter] = x[enter] + delta * t
            if abs(w[pos]) < _PIVOT_TOL:
                raise NumericalFailure("vanishing pivot element")
            pivot(pos, enter, w)
            etas += 1
            if etas >= _REFACTOR_EVERY:
                refactor()
                etas = 0

    outcome = run_phase(phase1_cost, phase1=True)
    if outcome != STATUS_OPTIMAL:
        return SolveResult(status=outcome, iterations=iterations)
    refactor()
    artificial_mass = float(np.sum(np.abs(x[art0:])))
    if artificial_mass > _FEAS_TOL:
        return SolveResult(status=STATUS_INFEASIBLE, iterations=iterations)

    # Pivot leftover artificials out where a usable column exists; redundant
    # rows keep theirs, pinned to zero.
    for pos in range(m):
        if basis[pos] < art0:
            continue
        usable = (status[: n + m] != 0) & ~fixed[: n + m]
        magnitude = np.where(usable, np.abs(b_inv[pos] @ a[:, : n + m]), 0.0)
        enter = int(np.argmax(magnitude))
        if magnitude[enter] <= _FEAS_TOL:
            continue
        leave = int(basis[pos])
        x[leave] = 0.0
        status[leave] = _AT_LOWER
        pivot(pos, enter, b_inv @ a[:, enter])
    lb[art0:] = 0.0
    ub[art0:] = 0.0
    fixed[art0:] = True
    x[art0:][status[art0:] != 0] = 0.0

    outcome = run_phase(phase2_cost, phase1=False)
    if outcome != STATUS_OPTIMAL:
        return SolveResult(status=outcome, iterations=iterations)
    refactor()
    x_struct = x[:n].copy()
    np.clip(x_struct, var_lower, var_upper, out=x_struct)
    objective = float(np.dot(model.objective, x_struct))
    duals = (b_inv.T @ phase2_cost[basis]).copy() if m else np.zeros(0)
    return SolveResult(
        status=STATUS_OPTIMAL,
        objective=objective,
        x=x_struct,
        duals=duals,
        bound=objective,
        iterations=iterations,
    )
