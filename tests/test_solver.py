"""Tests for the LP/ILP layer: LP, rounding, the HiGHS probe.

Every program is written with the test-only builder in ``lp_reference``
and handed to the solvers as the one form they take, a ``LinearProgram``.
"""

import warnings

import numpy as np
import pytest

import repro.solver.lp as lp_module
from repro.solver.lp import HighsBindingWarning, SolverError, solve_lp
from repro.solver.rounding import most_fractional, solve_with_rounding
from tests.lp_reference import Builder, solve_milp


# ---------------------------------------------------------------------------
# The reference builder the other tests lean on
# ---------------------------------------------------------------------------
def test_constraint_violation():
    b = Builder()
    x = b.var("x")
    le = b.row({x: 2.0}, "<=", 4.0)
    eq = b.row({x: 1.0}, "==", 2.0)
    assert b.violation(le, np.array([1.0])) == 0.0
    assert b.violation(le, np.array([3.0])) == pytest.approx(2.0)
    assert b.violation(eq, np.array([2.5])) == pytest.approx(0.5)


def test_constraint_senses():
    # ``x + 2y (sense) 3``: the compiled row holds exactly where the
    # builder's own row check says it does.
    for sense in ("<=", ">=", "=="):
        b = Builder()
        x, y = b.var("x", lb=-5), b.var("y", lb=-5)
        b.row({x: 1.0, y: 2.0}, sense, 3.0)
        lp = b.compile()
        for point in ([1.0, 1.0], [0.0, 0.0], [3.0, 1.0], [-1.0, 2.0]):
            assert lp.is_feasible(point) == (not b.violations(point)), (sense, point)
    with pytest.raises(ValueError, match="unknown sense"):
        b.row({x: 1.0}, "<", 1.0)


def test_check_feasible_reports_violations():
    b = Builder()
    x = b.var("x", lb=0, ub=1)
    b.row({x: 1.0}, ">=", 0.5, name="half")
    b.minimize({x: 1.0})
    assert b.violations(np.array([0.7])) == []
    assert "half" in b.violations(np.array([0.2]))
    assert "bounds[x]" in b.violations(np.array([2.0]))


def test_invalid_bounds_rejected():
    b = Builder()
    with pytest.raises(ValueError):
        b.var("x", lb=2, ub=1)


def test_model_compile_shapes():
    b = Builder()
    x = b.var("x", ub=10)
    y = b.var("y", integer=True)
    b.row({x: 1.0, y: 1.0}, "<=", 4.0)
    b.row({x: 1.0, y: 2.0}, "==", 2.0)
    b.row({x: 1.0, y: -1.0}, ">=", 0.0)
    b.minimize({x: 1.0, y: 1.0})
    lp = b.compile()
    # Inequalities first (``>=`` negated), then equalities.
    assert (lp.n_ub, lp.rhs.size) == (2, 3)
    assert b.row_of == [0, 2, 1]
    assert lp.integer_mask.tolist() == [False, True]
    assert lp.lhs.tolist() == [-np.inf, -np.inf, 2.0]
    assert lp.row_activity(np.array([1.0, 2.0])).tolist() == [3.0, 1.0, 5.0]
    assert [lp.var_name(k) for k in range(2)] == ["x", "y"]


# ---------------------------------------------------------------------------
# LP solving
# ---------------------------------------------------------------------------
def _simple_lp():
    # min x + y  s.t. x + y >= 2, x >= 0.5  ->  optimum 2 at (0.5, 1.5) etc.
    b = Builder("simple")
    x = b.var("x")
    y = b.var("y")
    b.row({x: 1.0, y: 1.0}, ">=", 2.0)
    b.row({x: 1.0}, ">=", 0.5)
    b.minimize({x: 1.0, y: 1.0})
    return b.compile(), x, y


def test_lp_known_optimum():
    lp, x, y = _simple_lp()
    res = solve_lp(lp)
    assert res.objective == pytest.approx(2.0)
    assert res.solution[x] + res.solution[y] == pytest.approx(2.0)


def test_lp_infeasible_raises():
    b = Builder("inf")
    x = b.var("x", ub=1)
    b.row({x: 1.0}, ">=", 2.0)
    b.minimize({x: 1.0})
    with pytest.raises(SolverError, match="infeasible"):
        solve_lp(b.compile())


def test_lp_unbounded_raises():
    b = Builder("unb")
    x = b.var("x", lb=float("-inf"))
    b.minimize({x: 1.0})
    with pytest.raises(SolverError, match="unbounded"):
        solve_lp(b.compile())


def test_lp_extra_bounds_branching():
    lp, x, _y = _simple_lp()
    lbs = np.full(2, np.nan)
    lbs[x] = 1.5
    res = solve_lp(lp, extra_lower_bounds=lbs)
    assert res.solution[x] >= 1.5 - 1e-9
    assert res.objective == pytest.approx(2.0)


def test_lp_b_ub_override():
    b = Builder("ov")
    x = b.var("x")
    cap = b.row({x: 1.0}, "<=", 5.0, name="cap")
    b.minimize({x: -1.0})  # maximise x
    lp = b.compile()
    assert solve_lp(lp).solution[x] == pytest.approx(5.0)
    override = lp.rhs[: lp.n_ub].copy()
    override[b.row_of[cap]] = 2.0
    assert solve_lp(lp, b_ub_override=override).solution[x] == pytest.approx(2.0)
    assert lp.rhs[b.row_of[cap]] == 5.0  # the program itself is untouched


# ---------------------------------------------------------------------------
# Integer solving: a covering problem with known optimum
# ---------------------------------------------------------------------------
def _covering_model(demands=(2.5, 1.2), cap=1.0):
    """min sum(q_i) s.t. q_i >= demand_i / cap, q integer → sum of ceils."""
    b = Builder("cover")
    qs = [b.var(f"q{i}", integer=True) for i in range(len(demands))]
    for q, d in zip(qs, demands):
        b.row({q: cap}, ">=", d)
    b.minimize(dict.fromkeys(qs, 1.0))
    return b.compile(), qs


def test_rounding_matches_ceil_cover():
    lp, _qs = _covering_model()
    res = solve_with_rounding(lp)
    assert res.objective == pytest.approx(3 + 2)
    assert res.lp_objective == pytest.approx(2.5 + 1.2)


def test_milp_oracle_matches_ceil_cover():
    lp, _qs = _covering_model()
    objective, solution = solve_milp(lp)
    assert objective == pytest.approx(5.0)
    assert solution.tolist() == [3.0, 2.0]


def test_rounding_is_no_better_than_the_optimum_on_knapsack():
    # min q1 + q2 s.t. 3 q1 + 2 q2 >= 4; LP gives 4/3, ILP optimum is 2
    # (q1=1, q2=1 = 5 >= 4 → obj 2).
    b = Builder()
    q1 = b.var("q1", integer=True)
    q2 = b.var("q2", integer=True)
    b.row({q1: 3.0, q2: 2.0}, ">=", 4.0)
    b.minimize({q1: 1.0, q2: 1.0})
    lp = b.compile()
    optimum, _solution = solve_milp(lp)
    assert optimum == pytest.approx(2.0)
    rnd = solve_with_rounding(lp)
    assert rnd.objective >= optimum - 1e-9


def test_rounding_integral_lp_shortcuts():
    b = Builder()
    q = b.var("q", integer=True)
    b.row({q: 1.0}, ">=", 3.0)
    b.minimize({q: 1.0})
    res = solve_with_rounding(b.compile())
    assert res.objective == pytest.approx(3.0)
    assert res.lp_solves == 1  # already integral


def test_rounding_respects_side_constraints():
    # Two resources: rounding up q1 would violate q1 + q2 <= 3 unless the
    # solver re-balances; final solution must satisfy everything.
    b = Builder()
    q1 = b.var("q1", integer=True)
    q2 = b.var("q2", integer=True)
    b.row({q1: 1.4, q2: 1.4}, ">=", 3.5)
    b.row({q1: 1.0, q2: 1.0}, "<=", 3.0)
    b.minimize({q1: 1.0, q2: 1.0})
    res = solve_with_rounding(b.compile())
    assert not b.violations(res.solution)
    assert res.objective == pytest.approx(3.0)


def test_most_fractional_takes_the_first_of_equals():
    solution = np.array([0.5, 2.0, 1.5, 0.75, 3.0])
    assert most_fractional(solution, [0, 1, 2, 3], 1e-6) == 0
    assert most_fractional(solution, [3, 2, 0], 1e-6) == 2
    assert most_fractional(solution, [1, 4], 1e-6) is None


# ---------------------------------------------------------------------------
# A private HiGHS binding that imports but cannot solve
# ---------------------------------------------------------------------------
class _BrokenEngine:
    """What a scipy whose ``passModel`` overloads changed looks like."""

    def passModel(self, *args):
        raise TypeError("passModel(): incompatible function arguments")


def test_broken_binding_falls_back_to_linprog_with_a_typed_warning(monkeypatch):
    monkeypatch.setattr(lp_module, "HAVE_DIRECT_HIGHS", True)
    monkeypatch.setattr(lp_module, "_ENGINE", _BrokenEngine(), raising=False)
    with pytest.warns(HighsBindingWarning, match="probe solve"):
        lp_module._probe_direct()
    assert lp_module.HAVE_DIRECT_HIGHS is False

    fallback_calls = []
    real = lp_module._solve_linprog

    def spy(*args):
        fallback_calls.append(args[0].name)
        return real(*args)

    monkeypatch.setattr(lp_module, "_solve_linprog", spy)
    lp, _x, _y = _simple_lp()
    assert solve_lp(lp).objective == pytest.approx(2.0)
    assert fallback_calls == ["simple"]


@pytest.mark.skipif(
    not lp_module.HAVE_DIRECT_HIGHS, reason="no direct HiGHS binding to probe"
)
def test_working_binding_passes_the_probe_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp_module._probe_direct()
    assert lp_module.HAVE_DIRECT_HIGHS is True
