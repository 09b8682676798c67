"""LP relaxation with iterative rounding — the placement engine's fallback.

The engine's main path is ceiling rounding of the LP's slot loads with
budget repair (``OptimizationEngine._solve_ceiling``); this loop runs only
when that repair does not converge.

Sec. IV-D: "We apply LP relaxation, an approximation technique, to reduce
the complexity."  The scheme here is iterative *round-up-and-resolve*:

1. solve the LP relaxation of the :class:`~repro.solver.lp.LinearProgram`;
2. if every integer variable is integral, done;
3. otherwise fix the most fractional integer variable to the ceiling of its
   LP value (falling back to the floor if ceiling is infeasible, e.g. when
   a host's resource constraint Eq. 6 would be violated) and re-solve.

For covering-style problems like VNF placement, rounding up preserves
feasibility, so the loop terminates with a feasible integral placement in
at most (#integer variables) LP solves; in practice most variables come out
integral directly and only a handful of iterations run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.solver.lp import LinearProgram, SolverError, solve_lp


@dataclass
class RoundingResult:
    """Outcome of LP relaxation + iterative rounding."""

    status: str  # "integral"
    objective: float
    solution: np.ndarray
    lp_objective: float  # relaxation bound, for gap reporting
    lp_solves: int

def solve_with_rounding(
    program: LinearProgram,
    int_tol: float = 1e-6,
    max_iterations: Optional[int] = None,
) -> RoundingResult:
    """Solve ``program`` by LP relaxation + iterative round-up.

    Raises:
        SolverError: when even the relaxation is infeasible, or when neither
            rounding direction of some variable admits a feasible completion.
    """
    n = program.num_variables
    integer_indices = program.integer_indices
    lower = np.full(n, np.nan)
    upper = np.full(n, np.nan)

    lp = solve_lp(program)
    lp_bound = lp.objective
    solves = 1
    limit = max_iterations if max_iterations is not None else len(integer_indices) + 1

    for _ in range(limit):
        frac_idx = most_fractional(lp.solution, integer_indices, int_tol)
        if frac_idx is None:
            snapped = lp.solution.copy()
            snapped[integer_indices] = np.round(snapped[integer_indices])
            objective = program.objective_value(snapped)
            return RoundingResult("integral", objective, snapped, lp_bound, solves)

        value = lp.solution[frac_idx]
        fixed = False
        for candidate in (math.ceil(value - int_tol), math.floor(value + int_tol)):
            lower[frac_idx] = candidate
            upper[frac_idx] = candidate
            try:
                lp = solve_lp(
                    program, extra_lower_bounds=lower, extra_upper_bounds=upper
                )
                solves += 1
                fixed = True
                break
            except SolverError:
                continue
        if not fixed:
            raise SolverError(
                f"model {program.name!r}: variable "
                f"{program.var_name(frac_idx)!r} admits no feasible rounding"
            )

    raise SolverError(f"model {program.name!r}: rounding did not converge")


def most_fractional(
    solution: np.ndarray, integer_indices: Sequence[int], tol: float
) -> Optional[int]:
    """Index of the most fractional integer variable, or None if integral.

    Ties go to the first of ``integer_indices``; rounding fixes this
    variable.
    """
    best, best_frac = None, tol
    for i in integer_indices:
        frac = abs(solution[i] - round(solution[i]))
        if frac > best_frac:
            best, best_frac = i, frac
    return best
