"""Per-layer spans and counters, recorded from outside the library.

The library binds most collaborators with ``from`` imports, so a call such
as ``benders.solve_milp`` looks the name up in the calling module's
namespace.  ``Tracer.install`` rebinds each such name, in every namespace
that calls it, to a wrapper that records a span (name, start, end, parent,
solve id) and adds counts read from the returned object.  ``uninstall``
puts the original functions back.  Spans stay in memory; the runner writes
them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

from scnptree import benders, cli, dp, evaluator, generator, instance, models
from scnptree.milpcore import backends, branchbound
from scnptree.milpcore.model import STATUS_INFEASIBLE


def _count_milp(counts, result, args):
    counts["bb_nodes"] += result.nodes


def _count_lp(counts, result, args):
    counts["lp_iterations"] += result.iterations
    counts["lp_infeasible"] += result.status == STATUS_INFEASIBLE


def _count_simplex(counts, result, args):
    counts["simplex_iterations"] += result.iterations


def _count_highs(counts, result, args):
    counts["highs_iterations"] += int(result.nit)


def _count_benders(counts, result, args):
    counts["benders_iterations"] += result.iterations
    counts["benders_cuts"] += result.cuts_total


def _count_model(counts, result, args):
    size = models.model_size(result[0])
    counts["model_rows"] += size["rows"]
    counts["model_cols"] += size["variables"]
    counts["model_nnz"] += size["nonzeros"]


def _count_dp(counts, result, args):
    counts["dp_states"] += result.state_count
    counts["dp_transitions"] += result.transition_count


def _count_batch(counts, result, args):
    counts["batch_rows"] += len(args[2])


# (module, attribute, span name, counter).  One function appears once per
# namespace that calls it; every call goes through exactly one binding.
_BINDINGS = (
    (cli, "solve_instance", "cli.solve_instance", None),
    (cli, "solve_milp", "milpcore.solve_milp", _count_milp),
    (cli, "exhaustive_solve", "evaluator.exhaustive_solve", None),
    (cli, "build_path_table", "instance.build_path_table", None),
    (benders, "bd_scnp", "benders.bd_scnp", _count_benders),
    (benders, "solve_milp", "benders.master", _count_milp),
    (benders, "pair_values", "benders.pair_values", None),
    (benders, "analytic_dual", "benders.analytic_dual", None),
    (benders, "cut_from_duals", "benders.cut_from_duals", None),
    (benders, "build_path_table", "instance.build_path_table", None),
    (branchbound, "solve_lp", "milpcore.solve_lp", _count_lp),
    (backends, "simplex_solve", "milpcore.simplex_solve", _count_simplex),
    (backends, "linprog", "milpcore.linprog", _count_highs),
    (models, "build_chain_milp", "models.build", _count_model),
    (models, "build_ilp_p", "models.build", _count_model),
    (dp, "dp_solve", "dp.dp_solve", _count_dp),
    (dp, "objective_tree", "evaluator.objective_tree", None),
    (dp, "build_path_table", "instance.build_path_table", None),
    (evaluator, "objective_tree", "evaluator.objective_tree", None),
    (evaluator, "batch_objective", "evaluator.batch_objective", _count_batch),
    (evaluator, "build_path_table", "instance.build_path_table", None),
    (instance, "build_path_table", "instance.build_path_table", None),
    (generator, "generate_instance", "generator.generate_instance", None),
)

# Metric names and units, in the order the runner prints them.
PER_LAYER = (
    ("milpcore.milp_solves", "count"),
    ("milpcore.milp_s", "s"),
    ("milpcore.bb_nodes", "count"),
    ("milpcore.lp_solves", "count"),
    ("milpcore.lp_s", "s"),
    ("milpcore.lp_iterations", "count"),
    ("milpcore.lp_infeasible", "count"),
    ("milpcore.lp_s_per_node", "s"),
    ("milpcore.simplex_solves", "count"),
    ("milpcore.simplex_s", "s"),
    ("milpcore.simplex_iterations", "count"),
    ("milpcore.highs_solves", "count"),
    ("milpcore.highs_s", "s"),
    ("milpcore.highs_iterations", "count"),
    ("milpcore.lp_overhead_s", "s"),
    ("benders.iterations", "count"),
    ("benders.cuts", "count"),
    ("benders.master_solves", "count"),
    ("benders.master_s", "s"),
    ("benders.slave_s", "s"),
    ("benders.cut_s", "s"),
    ("benders.cut_calls", "count"),
    ("evaluator.objective_tree_s", "s"),
    ("evaluator.objective_tree_calls", "count"),
    ("evaluator.batch_objective_s", "s"),
    ("evaluator.batch_rows", "count"),
    ("evaluator.exhaustive_s", "s"),
    ("models.build_s", "s"),
    ("models.rows", "count"),
    ("models.cols", "count"),
    ("models.nnz", "count"),
    ("dp.solve_s", "s"),
    ("dp.states", "count"),
    ("dp.transitions", "count"),
    ("instance.path_table_s", "s"),
    ("generator.generate_s", "s"),
    ("cli.overhead_s", "s"),
)


class Tracer:
    """Records spans and counts while installed; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, solve id]
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name, counter in _BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, function, name, counter):
        open_stack = self._open

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = open_stack[-1] if open_stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.solve_id]
            spans.append(span)
            open_stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                open_stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                counter(self.counts, result, args)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans and counts recorded since reset."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]

        c = self.counts
        milp_s = total["milpcore.solve_milp"] + total["benders.master"]
        lp_s = total["milpcore.solve_lp"]
        values = {
            "milpcore.milp_solves": calls["milpcore.solve_milp"] + calls["benders.master"],
            "milpcore.milp_s": milp_s,
            "milpcore.bb_nodes": c["bb_nodes"],
            "milpcore.lp_solves": calls["milpcore.solve_lp"],
            "milpcore.lp_s": lp_s,
            "milpcore.lp_iterations": c["lp_iterations"],
            "milpcore.lp_infeasible": c["lp_infeasible"],
            "milpcore.lp_s_per_node": lp_s / c["bb_nodes"] if c["bb_nodes"] else 0.0,
            "milpcore.simplex_solves": calls["milpcore.simplex_solve"],
            "milpcore.simplex_s": total["milpcore.simplex_solve"],
            "milpcore.simplex_iterations": c["simplex_iterations"],
            "milpcore.highs_solves": calls["milpcore.linprog"],
            "milpcore.highs_s": total["milpcore.linprog"],
            "milpcore.highs_iterations": c["highs_iterations"],
            "milpcore.lp_overhead_s": self_time["milpcore.solve_lp"],
            "benders.iterations": c["benders_iterations"],
            "benders.cuts": c["benders_cuts"],
            "benders.master_solves": calls["benders.master"],
            "benders.master_s": total["benders.master"],
            "benders.slave_s": total["benders.pair_values"],
            "benders.cut_s": total["benders.analytic_dual"] + total["benders.cut_from_duals"],
            "benders.cut_calls": calls["benders.analytic_dual"] + calls["benders.cut_from_duals"],
            "evaluator.objective_tree_s": total["evaluator.objective_tree"],
            "evaluator.objective_tree_calls": calls["evaluator.objective_tree"],
            "evaluator.batch_objective_s": total["evaluator.batch_objective"],
            "evaluator.batch_rows": c["batch_rows"],
            "evaluator.exhaustive_s": total["evaluator.exhaustive_solve"],
            "models.build_s": total["models.build"],
            "models.rows": c["model_rows"],
            "models.cols": c["model_cols"],
            "models.nnz": c["model_nnz"],
            "dp.solve_s": total["dp.dp_solve"],
            "dp.states": c["dp_states"],
            "dp.transitions": c["dp_transitions"],
            "instance.path_table_s": total["instance.build_path_table"],
            "generator.generate_s": total["generator.generate_instance"],
            "cli.overhead_s": self_time["cli.solve_instance"],
        }
        return values
