"""Linear model container shared by the LP and MILP solvers.

A model is a minimization over named variables with bounds and optional
integrality, plus named rows ``sum_j a_j x_j  (<= | = | >=)  rhs``.  Rows
are stored sparsely; solvers densify as needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

STATUS_OPTIMAL = "Optimal"
STATUS_INFEASIBLE = "Infeasible"
STATUS_UNBOUNDED = "Unbounded"
STATUS_ITERATION_LIMIT = "IterationLimit"
STATUS_TIME_LIMIT = "TimeLimit"


class NumericalFailure(RuntimeError):
    """Solver arithmetic lost too much accuracy to certify a result."""


@dataclass
class SolveResult:
    """Outcome of an LP or MILP solve.

    ``objective`` and ``x`` describe the returned point (None when no
    feasible point is available).  ``duals`` holds one multiplier per row
    for LP solves: <= rows get nonpositive values, >= rows nonnegative,
    equalities are free.  ``bound`` is a proven lower bound on the optimal
    value; for exact LP optima it equals the objective.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    bound: float | None = None
    iterations: int = 0
    nodes: int = 0


class LinearModel:
    """Sparse minimization model with bounded, optionally integer variables.

    Two fields are the builder's to set.  ``start_basis`` seeds a cold LP
    start.  ``lazy_rows``, when set, is a check ``lazy_rows(model, x,
    bound) -> bool`` on an integral point: True means it has appended rows
    that cut ``x`` off, and ``solve_milp`` accepts no incumbent or warm
    start it cuts off.  ``bound`` is the search's proven lower bound at
    that moment, nondecreasing within one search up to LP tolerance, and
    -inf for a warm start.  The check takes the model as an argument, so it must not hold
    the model itself; that would keep the model and its LP session alive.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.var_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.is_integer: list[bool] = []
        self.row_names: list[str] = []
        self.row_cols: list[list[int]] = []
        self.row_coefs: list[list[float]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        # (row, column) pairs of a starting basis for a cold LP start: each
        # column is basic in place of its row's slack, every other slack is
        # basic and every other column sits at its lower bound.  Empty
        # means the solver's own (slack) start.
        self.start_basis: list[tuple[int, int]] = []
        # None, or the lazy-row check described in the class docstring
        self.lazy_rows = None
        self._var_index: dict[str, int] = {}

    # -- construction -----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        objective: float = 0.0,
        integer: bool = False,
    ) -> int:
        if name in self._var_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if lower > upper:
            raise ValueError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        idx = len(self.var_names)
        self.var_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        self.is_integer.append(bool(integer))
        self._var_index[name] = idx
        return idx

    def add_row(
        self,
        name: str,
        cols: list[int],
        coefs: list[float],
        sense: str,
        rhs: float,
    ) -> int:
        if sense not in _SENSES:
            raise ValueError(f"unknown row sense {sense!r}")
        if len(cols) != len(coefs):
            raise ValueError("cols and coefs length mismatch")
        for c in cols:
            if not 0 <= c < len(self.var_names):
                raise ValueError(f"row {name!r} references unknown column {c}")
        if len(set(cols)) != len(cols):
            raise ValueError(f"row {name!r} repeats a column")
        idx = len(self.row_names)
        self.row_names.append(name)
        self.row_cols.append(list(cols))
        self.row_coefs.append([float(v) for v in coefs])
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        return idx

    # -- views ------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def objective_value(self, x: np.ndarray) -> float:
        return float(np.dot(self.objective, x))

    def row_matrix(self, first: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``first..`` as a row-wise CSR matrix (start, index, value)."""
        cols = self.row_cols[first:]
        start = np.zeros(len(cols) + 1, dtype=np.int32)
        np.cumsum([len(c) for c in cols], out=start[1:])
        index = np.fromiter(itertools.chain.from_iterable(cols), dtype=np.int32, count=start[-1])
        value = np.fromiter(
            itertools.chain.from_iterable(self.row_coefs[first:]), dtype=float, count=start[-1]
        )
        return start, index, value

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        start, index, value = self.row_matrix()
        rows = np.repeat(np.arange(self.num_rows), np.diff(start))
        return np.bincount(rows, weights=value * np.asarray(x, dtype=float)[index], minlength=self.num_rows)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return False
        if np.any(x < np.asarray(self.lower) - tol) or np.any(x > np.asarray(self.upper) + tol):
            return False
        act = self.row_activity(x)
        rhs = np.asarray(self.rhs)
        senses = np.array(self.senses)
        violated = np.where(
            senses == LESS_EQUAL,
            act > rhs + tol,
            np.where(senses == GREATER_EQUAL, act < rhs - tol, np.abs(act - rhs) > tol),
        )
        return not violated.any()

    # -- diagnostics --------------------------------------------------------

    def dual_objective(self, duals: np.ndarray, tol: float = 1e-9) -> float:
        """Objective of the bound-aware dual at the given row multipliers.

        Equals ``y . rhs`` plus, for each variable, the reduced cost paid at
        the bound it is pushed toward: positive reduced costs price the lower
        bound, negative ones the upper bound.  A reduced cost pressing
        against an infinite bound means the multipliers are dual infeasible;
        that returns -inf so callers see the certificate fail loudly.
        """
        reduced = np.asarray(self.objective, dtype=float).copy()
        for r, (cols, coefs) in enumerate(zip(self.row_cols, self.row_coefs)):
            y = duals[r]
            if y != 0.0:
                for c, a in zip(cols, coefs):
                    reduced[c] -= y * a
        total = float(np.dot(duals, self.rhs))
        for j in range(self.num_variables):
            d = reduced[j]
            if d > tol:
                if math.isinf(self.lower[j]):
                    return -math.inf
                total += d * self.lower[j]
            elif d < -tol:
                if math.isinf(self.upper[j]):
                    return -math.inf
                total += d * self.upper[j]
        return total

    # -- plain-text dump ----------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the model as plain text (write-only format).

        Grammar, one statement per line, ``#`` starts a comment:

            min: <term> [<term> ...] ;
            <rowname>: <term> [<term> ...] (<=|=|>=) <number> ;
            bounds: <number|-inf> <= <varname> <= <number|inf> ;
            int: <varname> [<varname> ...] ;

        where <term> is ``<sign><number> <varname>``.  The reader side is
        intentionally not implemented; the format exists for inspection.
        """
        def terms(cols: list[int], coefs: list[float]) -> str:
            parts = []
            for c, a in zip(cols, coefs):
                sign = "+" if a >= 0 else "-"
                parts.append(f"{sign}{abs(a):.12g} {self.var_names[c]}")
            return " ".join(parts) if parts else "+0"

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# model {self.name}\n")
            obj_cols = [j for j, v in enumerate(self.objective) if v != 0.0]
            fh.write(f"min: {terms(obj_cols, [self.objective[j] for j in obj_cols])} ;\n")
            for r in range(self.num_rows):
                fh.write(
                    f"{self.row_names[r]}: {terms(self.row_cols[r], self.row_coefs[r])}"
                    f" {self.senses[r]} {self.rhs[r]:.12g} ;\n"
                )
            for j in range(self.num_variables):
                lo = "-inf" if math.isinf(self.lower[j]) else f"{self.lower[j]:.12g}"
                hi = "inf" if math.isinf(self.upper[j]) else f"{self.upper[j]:.12g}"
                fh.write(f"bounds: {lo} <= {self.var_names[j]} <= {hi} ;\n")
            integers = [self.var_names[j] for j in range(self.num_variables) if self.is_integer[j]]
            if integers:
                fh.write(f"int: {' '.join(integers)} ;\n")
