"""Declarative sparse LP/ILP model builder.

A tiny modeling language in the spirit of PuLP, but compiled to the sparse
matrices :func:`scipy.optimize.linprog` consumes.  Supports continuous and
integer variables, linear expressions, ≤ / ≥ / = constraints, and a
minimisation objective.  Kept deliberately minimal: everything the
Optimization Engine's formulation (Eq. 1–8) needs and nothing more.

Compilation assembles COO triplet buffers with :func:`numpy.repeat` rather
than per-term Python loops.  :meth:`CompiledModel.highs_arrays` lowers the
result to a :class:`LinearProgram`, the solver-native form every solve path
consumes; the Optimization Engine writes that form directly
(:mod:`repro.core.constraints`) and never builds a :class:`Model`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

Number = Union[int, float]


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable (identified by its model index)."""

    index: int
    name: str
    lb: float
    ub: float
    integer: bool

    # Arithmetic builds LinExpr objects -------------------------------
    def __add__(self, other) -> "LinExpr":
        return LinExpr.of(self) + other

    def __radd__(self, other) -> "LinExpr":
        return LinExpr.of(self) + other

    def __sub__(self, other) -> "LinExpr":
        return LinExpr.of(self) - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self) + other

    def __mul__(self, k: Number) -> "LinExpr":
        return LinExpr.of(self) * k

    def __rmul__(self, k: Number) -> "LinExpr":
        return LinExpr.of(self) * k

    def __le__(self, rhs) -> "Constraint":
        return LinExpr.of(self) <= rhs

    def __ge__(self, rhs) -> "Constraint":
        return LinExpr.of(self) >= rhs

    # NOTE: __eq__ is kept as identity (dataclass) so variables can live in
    # dicts; use ``expr.eq(rhs)`` or ``LinExpr.of(v).eq(rhs)`` for equality
    # constraints involving a bare variable.


class LinExpr:
    """A linear expression: ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Optional[Dict[int, float]] = None, constant: float = 0.0):
        self.coeffs: Dict[int, float] = coeffs or {}
        self.constant = float(constant)

    @staticmethod
    def of(term: Union["LinExpr", Variable, Number]) -> "LinExpr":
        """Coerce a variable or number into an expression."""
        if isinstance(term, LinExpr):
            return term
        if isinstance(term, Variable):
            return LinExpr({term.index: 1.0})
        return LinExpr({}, float(term))

    @staticmethod
    def total(terms: Iterable[Union["LinExpr", Variable, Tuple[Number, Variable]]]) -> "LinExpr":
        """Sum of terms; tuples are (coefficient, variable) pairs."""
        out = LinExpr()
        for t in terms:
            if isinstance(t, tuple):
                k, v = t
                out.coeffs[v.index] = out.coeffs.get(v.index, 0.0) + float(k)
            else:
                e = LinExpr.of(t)
                for i, c in e.coeffs.items():
                    out.coeffs[i] = out.coeffs.get(i, 0.0) + c
                out.constant += e.constant
        return out

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    # Arithmetic -------------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        o = LinExpr.of(other)
        out = self.copy()
        for i, c in o.coeffs.items():
            out.coeffs[i] = out.coeffs.get(i, 0.0) + c
        out.constant += o.constant
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self + (LinExpr.of(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, k: Number) -> "LinExpr":
        return LinExpr({i: c * k for i, c in self.coeffs.items()}, self.constant * k)

    __rmul__ = __mul__

    # Constraint builders ------------------------------------------------
    def __le__(self, rhs) -> "Constraint":
        return Constraint(self - rhs, Sense.LE)

    def __ge__(self, rhs) -> "Constraint":
        return Constraint(self - rhs, Sense.GE)

    def eq(self, rhs) -> "Constraint":
        """Equality constraint ``self == rhs``."""
        return Constraint(self - rhs, Sense.EQ)

    def value(self, solution: np.ndarray) -> float:
        """Evaluate under a solution vector (NumPy gather, not a Python sum)."""
        m = len(self.coeffs)
        if m == 0:
            return self.constant
        idx = np.fromiter(self.coeffs.keys(), dtype=np.intp, count=m)
        coef = np.fromiter(self.coeffs.values(), dtype=float, count=m)
        return float(self.constant + np.asarray(solution)[idx] @ coef)


@dataclass
class Constraint:
    """``expr (sense) 0`` — the rhs is folded into the expression constant."""

    expr: LinExpr
    sense: Sense
    name: str = ""

    def violation(self, solution: np.ndarray, tol: float = 1e-6) -> float:
        """Amount by which the constraint is violated (0 when satisfied)."""
        v = self.expr.value(solution)
        if self.sense is Sense.LE:
            return max(0.0, v)
        if self.sense is Sense.GE:
            return max(0.0, -v)
        return abs(v)


@dataclass
class LinearProgram:
    """``min c·x`` s.t. ``lhs ≤ A x ≤ rhs``, ``lb ≤ x ≤ ub`` — solver-native.

    The one representation every solver path consumes (direct HiGHS, the
    ``linprog`` fallback, iterative rounding, branch-and-bound), whether it
    came from :meth:`CompiledModel.highs_arrays` or was written directly by
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


@dataclass
class CompiledModel:
    """Sparse standard form of a :class:`Model` (``A_ub x ≤ b_ub``, ``A_eq x = b_eq``).

    ``ub_row_of`` / ``eq_row_of`` map a constraint's index in
    ``Model.constraints`` to its row in ``a_ub`` / ``a_eq``, letting callers
    retune right-hand sides (e.g. resource budgets) without recompiling.
    ``row_sign`` records the standardisation sign per constraint (−1 for ≥
    rows, which are stored negated).
    """

    c: np.ndarray
    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]
    bounds: List[Tuple[float, float]]
    integer_mask: np.ndarray
    ub_row_of: Dict[int, int] = field(default_factory=dict)
    eq_row_of: Dict[int, int] = field(default_factory=dict)
    row_sign: Dict[int, float] = field(default_factory=dict)
    name: str = "model"
    var_names: Optional[List[str]] = None
    #: Lazy cache of the solver-native form (see :meth:`highs_arrays`).
    _lp: Optional[LinearProgram] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def highs_arrays(self) -> LinearProgram:
        """The :class:`LinearProgram` the solvers consume, built once.

        Stacks ``[A_ub; A_eq]`` into one CSC matrix and derives the row
        activity bounds (``(-inf, b_ub]`` rows then ``[b_eq, b_eq]`` rows)
        and column bound arrays.
        """
        if self._lp is not None:
            return self._lp
        n = len(self.c)
        mats = [m for m in (self.a_ub, self.a_eq) if m is not None]
        if mats:
            csc = sparse.vstack(mats, format="csc")
            csc.sort_indices()
        else:
            csc = sparse.csc_matrix((0, n), dtype=float)
        n_ub = 0 if self.a_ub is None else self.a_ub.shape[0]
        b_ub = np.empty(0) if self.b_ub is None else np.asarray(self.b_ub, dtype=float)
        b_eq = np.empty(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float)
        names = self.var_names
        self._lp = LinearProgram(
            name=self.name,
            c=np.asarray(self.c, dtype=float),
            indptr=csc.indptr.astype(np.int32, copy=False),
            indices=csc.indices.astype(np.int32, copy=False),
            data=csc.data,
            lhs=np.concatenate([np.full(n_ub, -np.inf), b_eq]),
            rhs=np.concatenate([b_ub, b_eq]),
            lb=np.fromiter((b[0] for b in self.bounds), dtype=float, count=n),
            ub=np.fromiter((b[1] for b in self.bounds), dtype=float, count=n),
            n_ub=n_ub,
            integer_mask=np.asarray(self.integer_mask, dtype=bool),
            var_name=names.__getitem__ if names is not None else "x[{}]".format,
        )
        return self._lp


class Model:
    """An LP/ILP model under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self._objective: Optional[LinExpr] = None

    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
    ) -> Variable:
        """Create a variable; returns the handle used in expressions."""
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        var = Variable(len(self.variables), name, float(lb), float(ub), integer)
        self.variables.append(var)
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with <=, >= or .eq()."""
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constraints(
        self,
        constraints: Iterable[Constraint],
        names: Optional[Sequence[str]] = None,
    ) -> List[Constraint]:
        """Bulk-register constraints with one list extend."""
        batch = list(constraints)
        if names is not None:
            if len(names) != len(batch):
                raise ValueError("names and constraints length mismatch")
            for con, name in zip(batch, names):
                if name:
                    con.name = name
        self.constraints.extend(batch)
        return batch

    def minimize(self, expr: Union[LinExpr, Variable]) -> None:
        """Set the minimisation objective."""
        self._objective = LinExpr.of(expr)

    @property
    def objective(self) -> LinExpr:
        if self._objective is None:
            raise ValueError("objective not set")
        return self._objective

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def integer_indices(self) -> List[int]:
        return [v.index for v in self.variables if v.integer]

    # ------------------------------------------------------------------
    def compile(self) -> CompiledModel:
        """Flatten to sparse standard form (vectorized triplet assembly)."""
        n = len(self.variables)
        c = np.zeros(n)
        obj = self.objective.coeffs
        if obj:
            c[np.fromiter(obj.keys(), dtype=np.intp, count=len(obj))] = np.fromiter(
                obj.values(), dtype=float, count=len(obj)
            )

        # Bucket constraints by standard form; coefficients stay as the
        # original dicts, the ≥ negation is applied vectorized below.
        ub_rows: List[Dict[int, float]] = []
        ub_rhs: List[float] = []
        ub_signs: List[float] = []
        eq_rows: List[Dict[int, float]] = []
        eq_rhs: List[float] = []
        ub_row_of: Dict[int, int] = {}
        eq_row_of: Dict[int, int] = {}
        row_sign: Dict[int, float] = {}
        for ci, con in enumerate(self.constraints):
            coeffs, const = con.expr.coeffs, con.expr.constant
            if con.sense is Sense.LE:
                ub_row_of[ci] = len(ub_rows)
                row_sign[ci] = 1.0
                ub_rows.append(coeffs)
                ub_rhs.append(-const)
                ub_signs.append(1.0)
            elif con.sense is Sense.GE:
                ub_row_of[ci] = len(ub_rows)
                row_sign[ci] = -1.0
                ub_rows.append(coeffs)
                ub_rhs.append(const)
                ub_signs.append(-1.0)
            else:
                eq_row_of[ci] = len(eq_rows)
                row_sign[ci] = 1.0
                eq_rows.append(coeffs)
                eq_rhs.append(-const)

        def build(
            rows: List[Dict[int, float]],
            rhs: List[float],
            signs: Optional[List[float]],
        ) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
            if not rows:
                return None, None
            # COO triplet buffers: per-row dict keys/values land via C-speed
            # list extends; row indices come from one np.repeat.
            cols: List[int] = []
            vals: List[float] = []
            counts = np.empty(len(rows), dtype=np.intp)
            for r, coeffs in enumerate(rows):
                counts[r] = len(coeffs)
                cols.extend(coeffs.keys())
                vals.extend(coeffs.values())
            ri = np.repeat(np.arange(len(rows), dtype=np.intp), counts)
            ci_arr = np.asarray(cols, dtype=np.intp)
            data = np.asarray(vals, dtype=float)
            if signs is not None:
                data = data * np.repeat(np.asarray(signs, dtype=float), counts)
            keep = data != 0.0
            if not keep.all():
                ri, ci_arr, data = ri[keep], ci_arr[keep], data[keep]
            mat = sparse.csr_matrix(
                (data, (ri, ci_arr)), shape=(len(rows), n), dtype=float
            )
            return mat, np.asarray(rhs, dtype=float)

        a_ub, b_ub = build(ub_rows, ub_rhs, ub_signs)
        a_eq, b_eq = build(eq_rows, eq_rhs, None)
        bounds = [(v.lb, v.ub) for v in self.variables]
        integer_mask = np.fromiter(
            (v.integer for v in self.variables), dtype=bool, count=n
        )
        return CompiledModel(
            c, a_ub, b_ub, a_eq, b_eq, bounds, integer_mask,
            ub_row_of, eq_row_of, row_sign,
            name=self.name, var_names=[v.name for v in self.variables],
        )

    def check_feasible(self, solution: np.ndarray, tol: float = 1e-6) -> List[str]:
        """Names (or indices) of constraints violated by ``solution``."""
        bad = []
        for k, con in enumerate(self.constraints):
            if con.violation(solution) > tol:
                bad.append(con.name or f"constraint[{k}]")
        for v in self.variables:
            x = solution[v.index]
            if x < v.lb - tol or x > v.ub + tol:
                bad.append(f"bounds[{v.name}]")
        return bad
