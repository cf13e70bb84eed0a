"""Self-contained linear and integer programming toolkit.

Models are built with LinearModel, relaxations solved by solve_lp (HiGHS
via scipy, one warm-started session per model, or the built-in
bounded-variable simplex when named), and integer programs by solve_milp
(branch and bound over either LP backend).
"""

from scnptree.milpcore.backends import BACKENDS, solve_lp
from scnptree.milpcore.branchbound import solve_milp
from scnptree.milpcore.model import (
    EQUAL,
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
from scnptree.milpcore.simplex import simplex_solve

__all__ = [
    "BACKENDS",
    "EQUAL",
    "GREATER_EQUAL",
    "LESS_EQUAL",
    "LinearModel",
    "NumericalFailure",
    "STATUS_INFEASIBLE",
    "STATUS_ITERATION_LIMIT",
    "STATUS_OPTIMAL",
    "STATUS_TIME_LIMIT",
    "STATUS_UNBOUNDED",
    "SolveResult",
    "simplex_solve",
    "solve_lp",
    "solve_milp",
]
