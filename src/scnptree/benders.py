"""Cut-generation solver: binary master plus closed-form path slaves.

The master chooses attack flags v and one surrogate value z per node pair
under the shared attack block of ``models``; each pair's slave is the
chain LP that ``models._chain_rows`` writes for the pair's path, at fixed
v, solved in closed form.  Dual values for every slave are available
analytically, so optimality cuts cost O(path length) and never touch an
LP.  The cuts are lazy rows of one branch-and-bound search over the
master: at every integral point the search would accept, the check
evaluates the flags for an upper bound and cuts the point off wherever a
surrogate undercuts its slave, and the search's own bound is the lower
bound.  The search stops when they meet within ``eps``.  The attack
block's cover check runs first, so every priced point is a feasible
attack.  The check runs once at the empty attack before the search, so
the first round of cuts does not depend on the vertex at which the LP
solver leaves the cut-free master.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from scnptree.evaluator import pair_values
from scnptree.instance import AttackVector, TreeInstance, build_path_table, normalize_pair
from scnptree.milpcore import (
    STATUS_INFEASIBLE,
    STATUS_TIME_LIMIT,
    GREATER_EQUAL,
    LinearModel,
    solve_milp,
)
from scnptree.models import _add_attack_block, feasible_attack

TRACE_HEADER = ("iteration", "LB", "UB", "cuts_added", "cumulative_cuts", "elapsed")


class MasterInfeasible(RuntimeError):
    """The relaxed master rejected even v = 0; something upstream is broken."""


@dataclass(frozen=True)
class SlaveSolution:
    """Closed-form optimum of one pair's chain slave at fixed attack flags.

    ``survival[k]`` is the product of per-node survival factors over the
    first k+1 path nodes, the slave's survival column at that position.
    """

    survival: tuple[float, ...]
    objective: float


@dataclass(frozen=True)
class PathDuals:
    """Multipliers of one pair's chain slave rows, aligned with path
    positions; every row is a >= row, so all are nonnegative.

    ``drop`` prices the ``sfirst`` row at position 0 and the ``sdrop`` row
    after it; ``scale`` prices the ``sscale`` row and is 0 at position 0,
    which has none.
    """

    drop: tuple[float, ...]
    scale: tuple[float, ...]


@dataclass(frozen=True)
class BendersCut:
    """Affine lower bound z >= constant + sum coefficient_i * v_i."""

    pair: tuple[int, int]
    constant: float
    coefficients: tuple[tuple[int, float], ...]

    def evaluate(self, flags) -> float:
        return self.constant + sum(c * flags[i] for i, c in self.coefficients)


@dataclass(frozen=True)
class CutRecord:
    """A generated cut plus the master point that triggered it."""

    iteration: int
    cut: BendersCut
    master_flags: tuple[int, ...]
    master_z: float
    slave_value: float


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    lower_bound: float
    upper_bound: float
    cuts_added: int
    cuts_total: int
    elapsed: float


@dataclass(frozen=True)
class BendersResult:
    """Outcome of ``bd_scnp``: one trace row per check that added cuts
    plus a final row for the end of the search, and one record per cut,
    so ``iterations == len(trace)`` and ``cuts_total == len(cuts)``."""

    status: str
    attack: AttackVector | None
    upper_bound: float
    lower_bound: float
    elapsed: float
    trace: tuple[TraceRow, ...]
    cuts: tuple[CutRecord, ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def cuts_total(self) -> int:
        return len(self.cuts)

    def relative_gap(self) -> float:
        if self.upper_bound == 0.0:
            return 0.0
        return max(0.0, 1.0 - self.lower_bound / self.upper_bound)


def slave_primal(instance: TreeInstance, path: tuple[int, ...], attack: AttackVector) -> SlaveSolution:
    """Optimal chain levels at fixed flags: survival multiplies per node."""
    survival: list[float] = []
    level = 1.0
    for node in path:
        level -= (1.0 - instance.survival_prob[node]) * attack.flags[node] * level
        survival.append(level)
    return SlaveSolution(tuple(survival), instance.pair_cost(path[0], path[-1]) * level)


def analytic_dual(instance: TreeInstance, path: tuple[int, ...], attack: AttackVector) -> PathDuals:
    """Closed-form optimal slave duals at the given flags.

    If an attacked node on the path survives with probability zero the pair
    is certainly cut and every multiplier is zero.  Otherwise one backward
    pass carries the pair cost from the last position: an unattacked node
    passes it on unchanged through its ``sdrop`` row, an attacked one takes
    it on its ``sscale`` row and passes on its survival share p of it, and
    ``sfirst`` takes what reaches position 0.  Strong duality against
    slave_primal holds exactly.
    """
    p = instance.survival_prob
    v = attack.flags
    drop = [0.0] * len(path)
    scale = [0.0] * len(path)
    if any(v[node] and p[node] == 0.0 for node in path):
        return PathDuals(tuple(drop), tuple(scale))
    level = instance.pair_cost(path[0], path[-1])
    for k in range(len(path) - 1, 0, -1):
        node = path[k]
        if v[node]:
            scale[k] = level
            level -= (1.0 - p[node]) * level
        else:
            drop[k] = level
    drop[0] = level
    return PathDuals(tuple(drop), tuple(scale))


def dual_objective(duals: PathDuals, instance: TreeInstance, path: tuple[int, ...], attack: AttackVector) -> float:
    """Value of the slave dual at these multipliers and attack flags."""
    p = instance.survival_prob
    v = attack.flags
    total = duals.drop[0]
    for node, drop in zip(path, duals.drop):
        total -= (1.0 - p[node]) * v[node] * drop
    return total


def dual_feasibility_check(
    duals: PathDuals,
    instance: TreeInstance,
    path: tuple[int, ...],
    tol: float = 1e-9,
) -> bool:
    """Exact row-by-row check of the slave dual constraints.

    Every multiplier prices a >= row and carries its sign.  The survival
    columns are nonnegative and only the last one carries the pair cost:
    an interior column's rows must not outprice the next position's
    ``drop`` plus p times its ``scale``, and the last column's rows must
    not outprice the pair cost.
    """
    p = instance.survival_prob
    cost = instance.pair_cost(path[0], path[-1])
    drop, scale = duals.drop, duals.scale

    if any(y < -tol for y in drop + scale):
        return False
    for k in range(len(path) - 1):
        if drop[k] + scale[k] - drop[k + 1] - p[path[k + 1]] * scale[k + 1] > tol:
            return False
    return drop[-1] + scale[-1] <= cost + tol


def cut_from_duals(duals: PathDuals, instance: TreeInstance, path: tuple[int, ...]) -> BendersCut:
    """Affine minorant of the pair's slave value over attack flags.

    Grouping the dual objective by v gives the constant ``drop[0]`` and
    the coefficient -(1 - p) * drop for every path node, zeros kept; by
    weak duality the expression under-estimates the slave value at every
    feasible v and is tight at the flags that produced the duals.
    """
    p = instance.survival_prob
    coefficients = tuple((node, -(1.0 - p[node]) * drop) for node, drop in zip(path, duals.drop))
    return BendersCut(pair=normalize_pair(path[0], path[-1]), constant=duals.drop[0], coefficients=coefficients)


def bd_scnp(
    instance: TreeInstance,
    eps: float = 1e-3,
    time_limit: float | None = None,
    use_valid_ineq: bool = True,
    backend: str = "auto",
) -> BendersResult:
    """Exact minimization by one master search with analytic lazy cuts.

    The master's lazy-row check runs the attack block's cover check,
    evaluates every slave at the point's flags for an upper bound, and
    appends one cut per pair whose surrogate undercuts its slave value by
    more than 1e-9; a check that adds cuts writes a trace row whose LB is
    the search's bound at that moment.  The search closes at absolute gap
    ``eps`` or stops at the time limit, and then writes a final row with
    no cuts and the bound it proved; so ``iterations == len(trace)``,
    ``cuts_total == len(cuts)`` and the last row's LB is the result's.
    The check runs once at v = 0, z = 0 with bound 0 before the search
    starts, so the first round of cuts, if any, is the empty attack's on
    every backend.  Per-pair arrays follow ``paths.pairs()`` order.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    start = time.perf_counter()
    paths = build_path_table(instance)
    pairs = list(paths.pairs())
    master = LinearModel("interdiction_master")
    attack_cols = _add_attack_block(master, instance, add_valid_ineq=use_valid_ineq)
    z_cols = np.array(
        [master.add_variable(f"z_{i}_{j}", objective=1.0) for i, j in pairs], dtype=np.intp
    )

    lower = 0.0
    upper = math.inf
    incumbent: AttackVector | None = None
    trace: list[TraceRow] = []
    cut_log: list[CutRecord] = []

    def add_trace_row(bound: float, cuts_added: int) -> None:
        nonlocal lower
        lower = max(lower, min(bound, upper))
        elapsed = time.perf_counter() - start
        trace.append(TraceRow(len(trace) + 1, lower, upper, cuts_added, len(cut_log), elapsed))

    # the check gets the master as an argument and must not hold it
    def cut_off(model: LinearModel, x: np.ndarray, bound: float) -> bool:
        nonlocal upper, incumbent
        flags = feasible_attack(model, instance, attack_cols, x)
        if flags is None:
            return True
        values = pair_values(instance, paths, flags)
        candidate = math.fsum(values)
        if candidate < upper - 1e-12:
            upper = candidate
            incumbent = flags
        z = x[z_cols]
        cuts_before = len(cut_log)
        for k in np.flatnonzero(z < values - 1e-9):
            i, j = pairs[k]
            path = paths.path(i, j)
            cut = cut_from_duals(analytic_dual(instance, path, flags), instance, path)
            model.add_row(
                f"cut{len(cut_log)}_{i}_{j}",
                [int(z_cols[k])] + [attack_cols[node] for node, _ in cut.coefficients],
                [1.0] + [-c for _, c in cut.coefficients],
                GREATER_EQUAL,
                cut.constant,
            )
            cut_log.append(
                CutRecord(
                    iteration=len(trace) + 1,
                    cut=cut,
                    master_flags=flags.flags,
                    master_z=float(z[k]),
                    slave_value=float(values[k]),
                )
            )
        if len(cut_log) == cuts_before:
            return False
        add_trace_row(bound, len(cut_log) - cuts_before)
        return True

    master.lazy_rows = cut_off
    status = STATUS_TIME_LIMIT
    if time_limit is None or time.perf_counter() - start < time_limit:
        cut_off(master, np.zeros(master.num_variables), 0.0)
        remaining = None if time_limit is None else time_limit - (time.perf_counter() - start)
        res = solve_milp(master, gap=eps, time_limit=remaining, backend=backend)
        if res.status == STATUS_INFEASIBLE:
            raise MasterInfeasible("master rejected all attack vectors including v = 0")
        status = res.status
        add_trace_row(res.bound, 0)

    return BendersResult(
        status=status,
        attack=incumbent,
        upper_bound=upper,
        lower_bound=lower,
        elapsed=time.perf_counter() - start,
        trace=tuple(trace),
        cuts=tuple(cut_log),
    )


def write_trace_csv(result: BendersResult, path) -> None:
    """Per-iteration bounds and cut counts in the documented column order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for row in result.trace:
            writer.writerow(
                [
                    row.iteration,
                    f"{row.lower_bound:.9g}",
                    f"{row.upper_bound:.9g}",
                    row.cuts_added,
                    row.cuts_total,
                    f"{row.elapsed:.6f}",
                ]
            )
