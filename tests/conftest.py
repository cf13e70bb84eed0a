"""Shared fixtures: the 120-instance agreement batch and criteria reporting.

The agreement batch is solved once per session because three acceptance
checks look at it (method agreement, trace/cut properties, and the
inequality-neutrality comparison).
"""

from __future__ import annotations

import faulthandler
import os
import sys
import time
from dataclasses import dataclass

import pytest

from scnptree import build_path_table, exhaustive_solve, generate_instance
from scnptree.benders import BendersResult, bd_scnp
from scnptree.generator import SCHEMES
from scnptree.instance import TreeInstance
from scnptree.milpcore import SolveResult, solve_milp
from scnptree.models import build_chain_milp

_CRITERION_LINES: dict[int, tuple[bool, str]] = {}

# Tier-1 takes about a minute in all, so a single test past this limit is
# hung: the run then ends with every thread's traceback instead of blocking.
WATCHDOG_SECONDS = 600.0
_WATCHDOG_FILE = pytest.StashKey()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output is not captured,
    # so the traceback reaches the terminal from inside a captured test
    config.stash[_WATCHDOG_FILE] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_WATCHDOG_FILE].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm the watchdog over one test's setup, call and teardown."""
    file = item.config.stash[_WATCHDOG_FILE]
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True, file=file)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def _record(number: int, ok: bool, line: str) -> None:
    _CRITERION_LINES[number] = (bool(ok), line)


@pytest.fixture(scope="session")
def criterion_recorder():
    """Callable (number, ok, line) feeding the end-of-run criteria table."""
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        ok, line = _CRITERION_LINES[number]
        terminalreporter.write_line(
            f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {line}"
        )


@dataclass
class AgreementEntry:
    instance: TreeInstance
    benders: BendersResult
    milp: SolveResult
    exhaustive_value: float


@dataclass
class AgreementBatch:
    entries: list[AgreementEntry]
    elapsed: float


@pytest.fixture(scope="session")
def agreement_batch() -> AgreementBatch:
    """120 solved instances, n in 6..12 crossed with the four weight schemes.

    The cut loop runs at its documented default tolerance 0.001; the chain
    model is solved to proven optimality so the pairwise comparisons keep
    their full margins.
    """
    started = time.perf_counter()
    entries: list[AgreementEntry] = []
    for i in range(120):
        n = 6 + i % 7
        scheme = SCHEMES[(i // 7) % 4]
        instance = generate_instance(n, scheme, 2000 + i)
        benders = bd_scnp(instance, eps=1e-3)
        model, _ = build_chain_milp(
            instance, build_path_table(instance), add_valid_ineq=True
        )
        milp = solve_milp(model, gap=0.0)
        _, value = exhaustive_solve(instance)
        entries.append(AgreementEntry(instance, benders, milp, value))
    return AgreementBatch(entries=entries, elapsed=time.perf_counter() - started)
