"""Exact branch-and-bound over the LP relaxation.

Practical only for small models (Internet2-scale); the evaluation uses it
to quantify the optimality gap of the production rounding path (the
``bench_ablation_solver`` benchmark).  Takes a
:class:`~repro.solver.lp.LinearProgram`; best-bound node selection,
branching on the most fractional integer variable (the helper rounding
uses, so both pick the same variable).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.solver.lp import LinearProgram, SolverError, solve_lp
from repro.solver.rounding import most_fractional


@dataclass
class BranchBoundResult:
    """Outcome of a branch-and-bound search."""

    status: str  # "optimal", "feasible" (node limit hit), "infeasible"
    objective: float
    solution: Optional[np.ndarray]
    nodes_explored: int
    gap: float  # relative gap between incumbent and best bound


def solve_branch_bound(
    program: LinearProgram,
    max_nodes: int = 2000,
    int_tol: float = 1e-6,
    gap_tol: float = 1e-6,
) -> BranchBoundResult:
    """Minimise ``program`` respecting integrality of its integer variables."""
    integer_indices = program.integer_indices
    n = program.num_variables
    counter = itertools.count()

    try:
        root = solve_lp(program)
    except SolverError:
        return BranchBoundResult("infeasible", math.inf, None, 0, math.inf)

    # Heap of (lp_bound, tiebreak, lower_overrides, upper_overrides)
    nan = np.full(n, np.nan)
    heap = [(root.objective, next(counter), nan.copy(), nan.copy(), root)]
    incumbent_obj = math.inf
    incumbent: Optional[np.ndarray] = None
    nodes = 0

    def try_round_up(lp_result) -> None:
        """Primal heuristic: ceil the integer variables, keep if feasible."""
        nonlocal incumbent_obj, incumbent
        snapped = lp_result.solution.copy()
        snapped[integer_indices] = np.ceil(snapped[integer_indices] - int_tol)
        if not program.is_feasible(snapped, tol=1e-6):
            return
        objective = program.objective_value(snapped)
        if objective < incumbent_obj:
            incumbent_obj = objective
            incumbent = snapped

    try_round_up(root)

    while heap and nodes < max_nodes:
        bound, _, lbs, ubs, lp = heapq.heappop(heap)
        if bound >= incumbent_obj - gap_tol:
            continue
        nodes += 1
        try_round_up(lp)
        branch_var = most_fractional(lp.solution, integer_indices, int_tol)
        if branch_var is None:
            # Integral solution: candidate incumbent.
            if lp.objective < incumbent_obj:
                incumbent_obj = lp.objective
                incumbent = lp.solution.copy()
            continue
        pivot = lp.solution[branch_var]
        for is_down in (True, False):
            new_lbs, new_ubs = lbs.copy(), ubs.copy()
            if is_down:
                new_ubs[branch_var] = math.floor(pivot)
            else:
                new_lbs[branch_var] = math.ceil(pivot)
            try:
                child = solve_lp(
                    program,
                    extra_lower_bounds=new_lbs,
                    extra_upper_bounds=new_ubs,
                )
            except SolverError:
                continue
            if child.objective < incumbent_obj - gap_tol:
                heapq.heappush(
                    heap, (child.objective, next(counter), new_lbs, new_ubs, child)
                )

    if incumbent is None:
        return BranchBoundResult("infeasible", math.inf, None, nodes, math.inf)
    # The incumbent bounds the search too: when every open node's bound is
    # no better, a node limit hit still leaves the incumbent proven optimal.
    best_bound = min([incumbent_obj] + [item[0] for item in heap])
    gap = abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
    status = "optimal" if not heap or gap <= gap_tol else "feasible"
    return BranchBoundResult(status, incumbent_obj, incumbent, nodes, gap)
