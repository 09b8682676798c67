"""ILP/LP layer: the CPLEX stand-in used by the Optimization Engine.

Sec. IV-D formulates VNF placement as an ILP (NP-hard via Set Cover) and
solves it with "LP relaxation, an approximation technique ... by CPLEX".
Every solver takes one input form, :class:`LinearProgram` (the CSC arrays
:func:`repro.core.constraints.assemble_placement_lp` writes):

* :mod:`repro.solver.lp` — :class:`LinearProgram` and its LP solve on
  scipy's HiGHS (a resident engine, or public ``linprog`` as fallback);
* :mod:`repro.solver.rounding` — LP relaxation + deterministic rounding and
  repair (the production path, mirroring the paper).

Exact integer optima are a test oracle only: ``tests/lp_reference.py``
solves a :class:`LinearProgram` as a MIP with ``scipy.optimize.milp``.
"""

from repro.solver.lp import LinearProgram, LPResult, solve_lp
from repro.solver.rounding import RoundingResult, solve_with_rounding

__all__ = [
    "LinearProgram",
    "solve_lp",
    "LPResult",
    "solve_with_rounding",
    "RoundingResult",
]
