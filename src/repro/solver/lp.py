"""The solver-native LP form and its solve via scipy's HiGHS backend.

:class:`LinearProgram` is the one input every solver takes; this module
solves its continuous relaxation (integrality is ignored here; see
:mod:`repro.solver.rounding` for integer handling).

Two call paths share one semantic contract:

* The *direct* path keeps one resident HiGHS engine per process (options
  passed once) and hands it each LinearProgram's CSC arrays by buffer,
  skipping ``linprog``'s per-call input validation and matrix stacking and
  the engine set-up (which together cost more than the dual simplex itself
  on the tenant-sized models that dominate the control loop).  Passing a
  model discards the previous basis and solution, so the engine carries no
  history from one solve to the next.  Presolve is off: these models
  re-solve hundreds of times against one compiled structure, and HiGHS
  presolve costs more per call than it saves here.
* The *portable* fallback uses public ``linprog`` with the same options
  when the private wrapper modules are unavailable or do not accept the
  direct path's call (scipy layout drift); a one-variable probe solve at
  import decides, and a :class:`HighsBindingWarning` says so.

Both paths run the same HiGHS dual simplex on the same matrices, so a
process gets identical solutions whichever path it resolves to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class HighsBindingWarning(RuntimeWarning):
    """scipy's private HiGHS binding is unusable; solves go through ``linprog``."""


@dataclass
class LinearProgram:
    """``min c·x`` s.t. ``lhs ≤ A x ≤ rhs``, ``lb ≤ x ≤ ub`` — solver-native.

    The one representation every solver path consumes (direct HiGHS, the
    ``linprog`` fallback, iterative rounding); the
    placement LP is written straight into it by
    :func:`repro.core.constraints.assemble_placement_lp`.  ``A`` is the
    stacked ``[A_ub; A_eq]`` in CSC (``indptr``/``indices`` as ``int32``,
    the width HiGHS takes by buffer, and ``data``; row indices ascending
    inside every column): the first ``n_ub`` rows are
    inequalities (``lhs = -inf``), the rest equalities (``lhs == rhs``).
    ``data``, ``rhs`` and the bounds may be rewritten in place between
    solves; the sparsity pattern may not.
    """

    name: str
    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    n_ub: int
    integer_mask: np.ndarray
    #: Column index → display name, called only when an error is raised.
    var_name: Callable[[int], str] = field(repr=False)

    @property
    def num_variables(self) -> int:
        return self.c.size

    @property
    def integer_indices(self) -> np.ndarray:
        return np.flatnonzero(self.integer_mask)

    def objective_value(self, solution: np.ndarray) -> float:
        return float(self.c @ solution)

    def row_activity(self, solution: np.ndarray) -> np.ndarray:
        """``A x`` straight from the CSC arrays."""
        per_entry = self.data * np.repeat(solution, np.diff(self.indptr))
        return np.bincount(self.indices, weights=per_entry, minlength=self.rhs.size)

    def is_feasible(self, solution: np.ndarray, tol: float = 1e-6) -> bool:
        """Rows within ``[lhs − tol, rhs + tol]`` and columns within bounds."""
        solution = np.asarray(solution, dtype=float)
        act = self.row_activity(solution)
        return bool(
            np.all(act >= self.lhs - tol)
            and np.all(act <= self.rhs + tol)
            and np.all(solution >= self.lb - tol)
            and np.all(solution <= self.ub + tol)
        )


try:  # pragma: no cover - exercised implicitly by every solve
    from scipy.optimize._highspy import _core as _highs_core
    from scipy.optimize._highspy._core import HighsModelStatus

    def _new_engine():
        """A HiGHS engine set up as ``linprog(method="highs", presolve=False)``
        would set it; the one construction site of ``_Highs``."""
        opts = _highs_core.HighsOptions()
        opts.presolve = "off"
        opts.solver = "simplex"
        opts.highs_debug_level = int(
            _highs_core.HighsDebugLevel.kHighsDebugLevelNone
        )
        opts.log_to_console = False
        opts.output_flag = False
        opts.simplex_strategy = int(
            _highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        # Dantzig pricing: on these small, dense-column placement LPs it is
        # as fast as the default (devex/steepest) and, without presolve,
        # lands on markedly less degenerate optimal vertices — the rounding
        # pass turns vertex spread directly into extra instances.
        opts.simplex_dual_edge_weight_strategy = int(
            _highs_core.simplex_constants.kSimplexEdgeWeightStrategyDantzig
        )
        highs = _highs_core._Highs()
        highs.passOptions(opts)
        return highs

    #: The resident engine every direct solve runs on.  It holds one model
    #: at a time and no basis between solves (see :func:`_solve_direct`);
    #: forked workers inherit a private copy.
    _ENGINE = _new_engine()
    _COLWISE = int(_highs_core.MatrixFormat.kColwise)
    _MINIMIZE = int(_highs_core.ObjSense.kMinimize)
    HAVE_DIRECT_HIGHS = True
except Exception as exc:  # ImportError, AttributeError on layout drift
    HAVE_DIRECT_HIGHS = False
    warnings.warn(
        HighsBindingWarning(
            f"scipy's private HiGHS binding did not load ({exc!r}); "
            "solving through scipy.optimize.linprog"
        )
    )


class SolverError(RuntimeError):
    """Raised when the LP backend fails or the model is infeasible."""


@dataclass
class LPResult:
    """Solution of a continuous LP."""

    status: str
    objective: float
    solution: np.ndarray


def solve_lp(
    lp: LinearProgram,
    extra_upper_bounds: Optional[np.ndarray] = None,
    extra_lower_bounds: Optional[np.ndarray] = None,
    b_ub_override: Optional[np.ndarray] = None,
) -> LPResult:
    """Solve the LP relaxation of ``lp``.

    Args:
        extra_upper_bounds / extra_lower_bounds: per-variable bound
            overrides (NaN = keep model bound), used to fix variables.
        b_ub_override: replacement right-hand-side vector for the ≤ rows
            (e.g. tightened resource budgets); matrices are reused.

    Raises:
        SolverError: if the problem is infeasible or unbounded.
    """
    lb, ub = lp.lb, lp.ub
    if extra_lower_bounds is not None or extra_upper_bounds is not None:
        lb, ub = lb.copy(), ub.copy()
        if extra_lower_bounds is not None:
            m = ~np.isnan(extra_lower_bounds)
            lb[m] = np.maximum(lb[m], extra_lower_bounds[m])
        if extra_upper_bounds is not None:
            m = ~np.isnan(extra_upper_bounds)
            ub[m] = np.minimum(ub[m], extra_upper_bounds[m])
    rhs = lp.rhs
    if b_ub_override is not None:
        rhs = rhs.copy()
        rhs[: lp.n_ub] = b_ub_override
    solve = _solve_direct if HAVE_DIRECT_HIGHS else _solve_linprog
    return solve(lp, lb, ub, rhs)


def _solve_direct(
    lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, rhs: np.ndarray
) -> LPResult:
    """Hand the CSC arrays to the resident HiGHS engine by buffer.

    ``passModel``'s array overload copies the numpy buffers as they are
    (``indptr`` / ``indices`` arrive as ``int32``), so a solve pays for no
    per-element conversion and the :class:`LinearProgram` carries no
    solver-side object.  ``passModel`` also discards the engine's basis and
    solution: every solve is a cold dual simplex run, and identical inputs
    give identical (bit-for-bit) solutions regardless of solve history —
    which the warm-start plan-identity guarantee relies on and
    ``tests/test_solver_engine_reuse.py`` pins.  A model HiGHS refuses
    (NaN or infinite data) raises before ``run()``: the engine may still
    hold the previous model.
    """
    n = lp.c.size
    highs = _ENGINE
    status = highs.passModel(
        n, rhs.size, lp.data.size, _COLWISE, _MINIMIZE, 0.0,
        lp.c, lb, ub, lp.lhs, rhs,
        lp.indptr, lp.indices, lp.data,
        np.zeros(n, dtype=np.int32),  # every column continuous
    )
    if status == _highs_core.HighsStatus.kError:
        raise SolverError(f"model {lp.name!r}: solver rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        raise SolverError(f"model {lp.name!r}: infeasible")
    if status in (
        HighsModelStatus.kUnbounded,
        HighsModelStatus.kUnboundedOrInfeasible,
    ):
        raise SolverError(f"model {lp.name!r}: unbounded")
    if status != HighsModelStatus.kOptimal:
        raise SolverError(
            f"model {lp.name!r}: solver failed "
            f"({highs.modelStatusToString(status)})"
        )
    return LPResult(
        status="optimal",
        objective=float(highs.getObjectiveValue()),
        solution=np.fromiter(highs.getSolution().col_value, dtype=float, count=n),
    )


def _solve_linprog(
    lp: LinearProgram, lb: np.ndarray, ub: np.ndarray, rhs: np.ndarray
) -> LPResult:
    """Portable fallback through public ``scipy.optimize.linprog``.

    ``A_ub`` / ``A_eq`` are row slices of the same CSC the direct path
    hands over, re-sliced per solve because ``data`` is rewritten in place.
    """
    n_ub = lp.n_ub
    a = sparse.csc_matrix(
        (lp.data, lp.indices, lp.indptr), shape=(lp.rhs.size, lp.c.size)
    )
    res = linprog(
        lp.c,
        A_ub=a[:n_ub] if n_ub else None,
        b_ub=rhs[:n_ub] if n_ub else None,
        A_eq=a[n_ub:] if rhs.size > n_ub else None,
        b_eq=rhs[n_ub:] if rhs.size > n_ub else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options={
            "presolve": False,
            "simplex_dual_edge_weight_strategy": "dantzig",
        },
    )
    if res.status == 2:
        raise SolverError(f"model {lp.name!r}: infeasible")
    if res.status == 3:
        raise SolverError(f"model {lp.name!r}: unbounded")
    if not res.success:
        raise SolverError(f"model {lp.name!r}: solver failed ({res.message})")
    return LPResult(status="optimal", objective=float(res.fun), solution=res.x)


def _probe_direct() -> None:
    """Solve ``min x`` s.t. ``x = 1`` on the direct path once, at import.

    A scipy whose private binding moved can import cleanly and still refuse
    the 15-argument ``passModel`` call; finding out here turns that into one
    :class:`HighsBindingWarning` and the ``linprog`` path, not an exception
    from the first ``place()``.
    """
    global HAVE_DIRECT_HIGHS
    one = np.ones(1)
    probe = LinearProgram(
        name="highs-probe", c=one, indptr=np.array([0, 1], dtype=np.int32),
        indices=np.zeros(1, dtype=np.int32), data=one, lhs=one, rhs=one,
        lb=np.zeros(1), ub=np.full(1, 2.0), n_ub=0,
        integer_mask=np.zeros(1, dtype=bool), var_name="x[{}]".format,
    )
    try:
        answer = _solve_direct(probe, probe.lb, probe.ub, probe.rhs).objective
        if answer != 1.0:
            raise SolverError(f"probe answered {answer!r}, not 1.0")
    except Exception as exc:
        HAVE_DIRECT_HIGHS = False
        warnings.warn(
            HighsBindingWarning(
                f"scipy's private HiGHS binding failed a probe solve ({exc!r}); "
                "solving through scipy.optimize.linprog"
            ),
            stacklevel=2,
        )


if HAVE_DIRECT_HIGHS:
    _probe_direct()
