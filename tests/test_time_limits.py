"""Whole-call time limits: a time-limited chain MILP or cut loop returns
soon after its limit, with a proven finite bound."""

import math
import time

from scnptree import bd_scnp, generate_instance
from scnptree.instance import build_path_table
from scnptree.milpcore import STATUS_TIME_LIMIT, solve_milp
from scnptree.models import build_chain_milp

LIMIT = 0.3
OVERRUN = 0.5


def test_whole_calls_stop_near_their_time_limit():
    # n40 type3 needs about 50 s for the MILP and runs past 240 s in the
    # cut loop, so both calls must stop on the clock
    inst = generate_instance(40, "type3", 1)
    model, _ = build_chain_milp(inst, build_path_table(inst), add_valid_ineq=True)
    started = time.perf_counter()
    res = solve_milp(model, gap=1e-6, time_limit=LIMIT)
    assert time.perf_counter() - started < LIMIT + OVERRUN
    assert res.status == STATUS_TIME_LIMIT
    assert math.isfinite(res.bound)
    if res.objective is not None:
        assert res.bound <= res.objective + 1e-9

    started = time.perf_counter()
    result = bd_scnp(inst, time_limit=LIMIT)
    assert time.perf_counter() - started < LIMIT + OVERRUN
    assert result.status == STATUS_TIME_LIMIT
    assert math.isfinite(result.lower_bound)
    assert result.iterations == len(result.trace)
    if result.trace:
        assert result.trace[-1].lower_bound == result.lower_bound
    if math.isfinite(result.upper_bound):
        assert result.lower_bound <= result.upper_bound + 1e-9
