"""Linear model container shared by the LP and MILP solvers.

A model is a minimization over named variables with bounds and optional
integrality, plus named rows ``sum_j a_j x_j  (<= | = | >=)  rhs``.  Only
the model knows how coefficients are stored: one append-only row-wise CSR
store (row starts, column indices, values) that ``add_row`` alone writes
and every solver reads through ``row_matrix``.
"""

from __future__ import annotations

import math
from array import array
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
    that cut ``x`` off, and ``solve_milp`` accepts no incumbent it cuts
    off.  ``bound`` is the search's proven lower bound at that moment,
    nondecreasing within one search up to LP tolerance.  The check takes
    the model as an argument, so it must not hold the model itself; that
    would keep the model and its LP session alive.

    Rows only grow: ``add_row`` appends to the CSR store, and no row is
    edited or removed afterwards.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.var_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.objective: list[float] = []
        self.is_integer: list[bool] = []
        self.row_names: list[str] = []
        # row r holds _index[_start[r]:_start[r + 1]] and the same slice
        # of _value; the dtypes are the int32 / float64 of row_matrix
        self._start = array("i", [0])
        self._index = array("i")
        self._value = array("d")
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
        # converted before anything is stored, so a bad entry leaves no trace
        index, value = array("i", cols), array("d", coefs)
        idx = len(self.row_names)
        self.row_names.append(name)
        self._index.extend(index)
        self._value.extend(value)
        self._start.append(len(self._index))
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

    def row_matrix(self, first: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``first..`` as a row-wise CSR matrix (start, index, value):
        int32 starts from 0, int32 column indices, float64 values.  The
        arrays are copies; the model's own store only ever grows."""
        offset = self._start[first]
        start = np.frombuffer(self._start[first:], dtype=np.int32) - np.int32(offset)
        index = np.frombuffer(self._index[offset:], dtype=np.int32)
        value = np.frombuffer(self._value[offset:], dtype=float)
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
        duals = np.asarray(duals, dtype=float)
        start, index, value = self.row_matrix()
        weights = value * np.repeat(duals, np.diff(start))
        reduced = np.asarray(self.objective, dtype=float) - np.bincount(
            index, weights=weights, minlength=self.num_variables
        )
        up, down = reduced > tol, reduced < -tol
        lower, upper = np.asarray(self.lower)[up], np.asarray(self.upper)[down]
        if np.isinf(lower).any() or np.isinf(upper).any():
            return -math.inf
        return float(np.dot(duals, self.rhs) + np.dot(reduced[up], lower) + np.dot(reduced[down], upper))

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
        def terms(cols, coefs) -> str:
            parts = []
            for c, a in zip(cols, coefs):
                sign = "+" if a >= 0 else "-"
                parts.append(f"{sign}{abs(a):.12g} {self.var_names[c]}")
            return " ".join(parts) if parts else "+0"

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# model {self.name}\n")
            obj_cols = [j for j, v in enumerate(self.objective) if v != 0.0]
            fh.write(f"min: {terms(obj_cols, [self.objective[j] for j in obj_cols])} ;\n")
            start, index, value = self.row_matrix()
            for r in range(self.num_rows):
                row = slice(start[r], start[r + 1])
                fh.write(
                    f"{self.row_names[r]}: {terms(index[row], value[row])}"
                    f" {self.senses[r]} {self.rhs[r]:.12g} ;\n"
                )
            for j in range(self.num_variables):
                lo = "-inf" if math.isinf(self.lower[j]) else f"{self.lower[j]:.12g}"
                hi = "inf" if math.isinf(self.upper[j]) else f"{self.upper[j]:.12g}"
                fh.write(f"bounds: {lo} <= {self.var_names[j]} <= {hi} ;\n")
            integers = [self.var_names[j] for j in range(self.num_variables) if self.is_integer[j]]
            if integers:
                fh.write(f"int: {' '.join(integers)} ;\n")
