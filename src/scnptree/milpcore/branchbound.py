"""Branch and bound over LP relaxations.

Branches on the most fractional integer variable, dives toward the child
containing the rounded LP value, and backtracks to the open node with the
best bound.  Terminates at a proven absolute gap: every discarded node had
an LP bound within ``gap`` of the incumbent, so the reported bound is never
more than ``gap`` below the returned objective.

A model's ``lazy_rows`` check runs on every integral LP point that would
become the incumbent, and is handed the search's global bound at that
moment: the least of the node's LP value, the best open estimate, the
pruned bound and the incumbent.  When it appends rows that cut the point
off, the same node is solved again with the same bounds and estimate, so
one search covers rows that only show up at integral points; a row that
cuts off no feasible point of the model leaves every bound valid.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from scnptree.milpcore.backends import solve_lp
from scnptree.milpcore.model import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
    LinearModel,
    NumericalFailure,
    SolveResult,
)

_INT_TOL = 1e-6
_PRUNE_PAD = 1e-9


def _validate_warm_start(model: LinearModel, x: np.ndarray) -> float:
    if x.shape != (model.num_variables,):
        raise ValueError("warm start has wrong length")
    if not np.isfinite(x).all():
        raise ValueError("warm start is not finite")
    off = np.asarray(model.is_integer, dtype=bool) & (np.abs(x - np.round(x)) > _INT_TOL)
    if off.any():
        raise ValueError(f"warm start not integral on {model.var_names[np.argmax(off)]}")
    if not model.is_feasible(x, tol=1e-7):
        raise ValueError("warm start violates bounds or rows")
    if model.lazy_rows is not None and model.lazy_rows(model, x, -math.inf):
        raise ValueError("warm start cut off by the model's lazy rows")
    return model.objective_value(x)


def _branch_column(x: np.ndarray, int_idx: np.ndarray) -> int:
    """The first column of ``int_idx`` with the largest fractionality above
    ``_INT_TOL``, or -1 when the point is integral on all of them."""
    if not len(int_idx):
        return -1
    v = x[int_idx]
    frac = np.minimum(v - np.floor(v), np.ceil(v) - v)
    k = int(np.argmax(frac))
    return int(int_idx[k]) if frac[k] > _INT_TOL else -1


def solve_milp(
    model: LinearModel,
    gap: float = 1e-3,
    time_limit: float | None = None,
    backend: str = "auto",
    warm_start: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the model with its integrality flags enforced.

    ``gap`` is absolute: the search stops once no open node can beat the
    incumbent by more than ``gap``, or with TimeLimit once ``time_limit``
    seconds have passed.  ``warm_start`` must be a feasible integral point
    that the model's ``lazy_rows`` check keeps, and seeds the incumbent.
    Unbounded refers to the root relaxation.
    """
    start = time.perf_counter()
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=float)
        incumbent_obj = _validate_warm_start(model, ws)
        incumbent_x = ws

    int_idx = np.flatnonzero(model.is_integer)
    root_lower = np.asarray(model.lower, dtype=float)
    root_upper = np.asarray(model.upper, dtype=float)

    heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    seq = 0
    pruned_bound = math.inf
    nodes = 0
    total_lp_iter = 0
    dive: tuple[float, np.ndarray, np.ndarray] | None = (-math.inf, root_lower, root_upper)
    # estimate of the node the clock interrupted; None unless timed out
    interrupted_est: float | None = None

    def threshold() -> float:
        return incumbent_obj - gap + _PRUNE_PAD

    while True:
        if dive is not None:
            est, lo, hi = dive
            dive = None
        elif heap:
            est, _, lo, hi = heapq.heappop(heap)
        else:
            break
        if est >= threshold():
            pruned_bound = min(pruned_bound, est)
            continue
        if time_limit is not None and time.perf_counter() - start > time_limit:
            interrupted_est = est
            break

        remaining = None
        if time_limit is not None:
            remaining = max(time_limit - (time.perf_counter() - start), 1e-3)
        res = solve_lp(model, backend=backend, lower=lo, upper=hi, time_limit=remaining)
        nodes += 1
        total_lp_iter += res.iterations
        if res.status == STATUS_INFEASIBLE:
            continue
        if res.status == STATUS_UNBOUNDED:
            if nodes == 1:
                return SolveResult(status=STATUS_UNBOUNDED, nodes=nodes)
            raise NumericalFailure("child relaxation unbounded below a bounded parent")
        if res.status == STATUS_TIME_LIMIT:
            interrupted_est = est
            break
        if res.status != STATUS_OPTIMAL:
            raise NumericalFailure(f"node relaxation ended {res.status}")
        obj = res.objective
        if obj >= threshold():
            pruned_bound = min(pruned_bound, obj)
            continue

        x = res.x
        best_j = _branch_column(x, int_idx)
        if best_j < 0:
            if obj < incumbent_obj - 1e-12:
                bound = min(obj, heap[0][0] if heap else math.inf, pruned_bound, incumbent_obj)
                if model.lazy_rows is not None and model.lazy_rows(model, x, bound):
                    dive = (est, lo, hi)
                    continue
                incumbent_obj = obj
                incumbent_x = x.copy()
            continue

        floor_v = math.floor(x[best_j])
        lo_floor, hi_floor = lo.copy(), hi.copy()
        hi_floor[best_j] = floor_v
        lo_ceil, hi_ceil = lo.copy(), hi.copy()
        lo_ceil[best_j] = floor_v + 1
        near_floor = (x[best_j] - floor_v) <= 0.5
        near = (obj, lo_floor, hi_floor) if near_floor else (obj, lo_ceil, hi_ceil)
        far = (obj, lo_ceil, hi_ceil) if near_floor else (obj, lo_floor, hi_floor)
        seq += 1
        heapq.heappush(heap, (far[0], seq, far[1], far[2]))
        dive = near

    if interrupted_est is None and incumbent_x is None:
        return SolveResult(status=STATUS_INFEASIBLE, nodes=nodes, iterations=total_lp_iter)
    open_bounds = [entry[0] for entry in heap]
    if interrupted_est is not None:
        open_bounds.append(interrupted_est)
    return SolveResult(
        status=STATUS_OPTIMAL if interrupted_est is None else STATUS_TIME_LIMIT,
        objective=None if incumbent_x is None else incumbent_obj,
        x=incumbent_x,
        bound=min([incumbent_obj, pruned_bound, *open_bounds]),
        nodes=nodes,
        iterations=total_lp_iter,
    )
