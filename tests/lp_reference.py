"""A small LP/ILP builder for tests: rows as ``{column: coefficient}`` dicts.

It is the independent side of the solver tests and of the placement
assembler's oracle (``tests/test_placement_lp.py``): it shares no code with
:func:`repro.core.constraints.assemble_placement_lp` or
:meth:`repro.solver.lp.LinearProgram.is_feasible`.  Rows are kept as
written and only lowered at :meth:`Builder.compile`, through
``scipy.sparse``, to the :class:`~repro.solver.lp.LinearProgram` the solvers
take: ``<=`` rows as they are, ``>=`` rows negated into ``<=`` rows, then
``==`` rows, exact-zero coefficients dropped.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
from scipy import sparse

from repro.solver.lp import LinearProgram

SENSES = ("<=", ">=", "==")


class Builder:
    """Variables with bounds and integrality, rows with a sense, one objective."""

    def __init__(self, name: str = "reference") -> None:
        self.name = name
        self.names: List[str] = []
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.integer: List[bool] = []
        self.cost: Dict[int, float] = {}
        #: ``(coefficients, sense, rhs, name)`` per row, in insertion order.
        self.rows: List[tuple] = []
        #: Insertion index of a row → its row in the compiled program.
        self.row_of: List[int] = []

    def var(
        self, name: str, lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> int:
        """A new column; returns its index."""
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.names.append(name)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.integer.append(integer)
        return len(self.names) - 1

    def row(
        self, coeffs: Dict[int, float], sense: str, rhs: float, name: str = ""
    ) -> int:
        """``Σ coeffs[j]·x_j (sense) rhs``; returns the row's insertion index."""
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        self.rows.append((dict(coeffs), sense, float(rhs), name))
        return len(self.rows) - 1

    def minimize(self, coeffs: Dict[int, float]) -> None:
        self.cost = dict(coeffs)

    # ------------------------------------------------------------------
    def violation(self, k: int, x) -> float:
        """How far row ``k`` is from holding at ``x`` (0 when it holds)."""
        coeffs, sense, rhs, _name = self.rows[k]
        activity = sum(c * float(x[j]) for j, c in coeffs.items())
        if sense == "<=":
            return max(0.0, activity - rhs)
        if sense == ">=":
            return max(0.0, rhs - activity)
        return abs(activity - rhs)

    def violations(self, x, tol: float = 1e-6) -> List[str]:
        """Names of the rows and bounds ``x`` breaks by more than ``tol``."""
        bad = [
            self.rows[k][3] or f"row[{k}]"
            for k in range(len(self.rows))
            if self.violation(k, x) > tol
        ]
        for j, name in enumerate(self.names):
            if x[j] < self.lb[j] - tol or x[j] > self.ub[j] + tol:
                bad.append(f"bounds[{name}]")
        return bad

    # ------------------------------------------------------------------
    def compile(self) -> LinearProgram:
        """The solver-native program; fills :attr:`row_of`."""
        ineq = [k for k, r in enumerate(self.rows) if r[1] != "=="]
        eq = [k for k, r in enumerate(self.rows) if r[1] == "=="]
        self.row_of = [0] * len(self.rows)
        for position, k in enumerate(ineq + eq):
            self.row_of[k] = position
        rows, cols, vals = [], [], []
        lhs, rhs = [], []
        for k in ineq + eq:
            coeffs, sense, bound, _name = self.rows[k]
            sign = -1.0 if sense == ">=" else 1.0
            for j, c in coeffs.items():
                if c != 0.0:
                    rows.append(self.row_of[k])
                    cols.append(j)
                    vals.append(sign * c)
            rhs.append(sign * bound)
            lhs.append(bound if sense == "==" else -math.inf)
        n = len(self.names)
        a = sparse.coo_matrix(
            (np.asarray(vals, dtype=float), (rows, cols)), shape=(len(self.rows), n)
        ).tocsc()
        a.sort_indices()
        c = np.zeros(n)
        for j, coef in self.cost.items():
            c[j] = coef
        return LinearProgram(
            name=self.name,
            c=c,
            indptr=a.indptr.astype(np.int32),
            indices=a.indices.astype(np.int32),
            data=a.data.astype(float),
            lhs=np.asarray(lhs, dtype=float),
            rhs=np.asarray(rhs, dtype=float),
            lb=np.asarray(self.lb, dtype=float),
            ub=np.asarray(self.ub, dtype=float),
            n_ub=len(ineq),
            integer_mask=np.asarray(self.integer, dtype=bool),
            var_name=self.names.__getitem__,
        )
