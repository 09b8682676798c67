"""The Optimization Engine: traffic-aware VNF placement (Sec. IV).

Builds the ILP of Eq. 1–8 over traffic classes and solves it by LP
relaxation + iterative rounding (the paper's CPLEX-with-LP-relaxation
production path) or exactly by branch-and-bound for small instances.

Formulation notes:

* The derived variable σ_{h,j}^i (cumulative portion processed up to path
  position i) is substituted away: σ_{h,j}^i = Σ_{i'≤i} d_{h,j}^{i'}, which
  removes a third of the variables without changing the polytope.
* d variables exist only at path positions whose switch has an APPLE host —
  elsewhere the portion is identically zero.
* q variables exist only for (switch, NF) pairs some class can actually
  use, keeping the model sparse.

Warm-start architecture (the re-solve hot path):

Between traffic snapshots only the *data* of the instance changes — the
class rates T_h and, when an arbiter's grant follows the rates, the
available resources A_v — while topology, paths, chains and the host set
are identical.  ``place()`` therefore splits into a *structure phase* that
writes the LP's solver-native arrays
(:func:`repro.core.constraints.assemble_placement_lp`, cached in a
:class:`PlacementTemplate` keyed by the class structure, the set of hosts
and the catalog) and a *per-solve phase* that only rewrites the rate
coefficients of the Eq. 5 capacity rows and the right-hand sides of the
Eq. 6 budget rows in place (:meth:`PlacementTemplate.set_rates`,
:meth:`PlacementTemplate.set_budgets`) before re-solving.  Warm re-solves
are bit-identical to cold solves because both run the same solve code over
the same arrays.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.constraints import PlacementTemplate, assemble_placement_lp
from repro.core.placement import PlacementPlan
from repro.solver.branch_bound import solve_branch_bound
from repro.solver.lp import solve_lp, SolverError
from repro.solver.rounding import solve_with_rounding
from repro.traffic.classes import TrafficClass
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog


class PlacementError(RuntimeError):
    """Raised when no feasible placement exists (e.g. no host on a path)."""


#: A single-instance slot is "dust" when its load is below this fraction
#: of one instance's capacity; the consolidation pass tries to empty it.
DUST_THRESHOLD = 0.6


@dataclass
class EngineConfig:
    """Tunables of the Optimization Engine.

    ``place()`` is the one way to a plan: LP relaxation + ceiling rounding
    (or branch-and-bound), then the dust-consolidation pass, re-solving a
    cached template when the class structure and host set repeat
    (``OptimizationEngine.clear_templates()`` forces cold solves).

    Attributes:
        solver: ``"rounding"`` (LP relaxation + round-up, the paper's path)
            or ``"exact"`` (branch-and-bound, small instances only).
        min_class_rate_mbps: classes below this rate are clamped up to it,
            so even near-idle classes receive (shared) instances — APPLE
            provisions proactively for potential flows (Sec. I).
        max_bb_nodes: node limit for the exact solver.
        capacity_headroom: fraction of each instance's capacity the engine
            may plan onto (Eq. 5 uses headroom x Cap_n), in (0, 1].  Below
            1.0 the placement keeps slack for traffic dynamics, mirroring
            the paper's practice of setting the overload threshold below
            the measured loss knee.
    """

    solver: str = "rounding"
    min_class_rate_mbps: float = 1e-3
    max_bb_nodes: int = 2000
    capacity_headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.solver not in ("rounding", "exact"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if not 0 < self.capacity_headroom <= 1:
            raise ValueError(
                f"capacity_headroom must be in (0, 1], got {self.capacity_headroom!r}"
            )


class OptimizationEngine:
    """Computes VNF placement plans from classes + available resources.

    Args:
        catalog: NF datasheets (capacities Cap_n, resource vectors R_n).
            Treated as immutable: templates cache coefficients derived from
            it.
        config: solver configuration.
    """

    def __init__(
        self,
        catalog: NFTypeCatalog = DEFAULT_CATALOG,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or EngineConfig()
        #: LRU of reusable templates keyed by structure.
        self._templates: "OrderedDict[tuple, PlacementTemplate]" = OrderedDict()
        #: Telemetry: structure builds vs warm template reuses.
        self.cold_builds = 0
        self.warm_solves = 0

    # ------------------------------------------------------------------
    def clear_templates(self) -> None:
        """Drop all cached templates (force cold solves)."""
        self._templates.clear()

    # ------------------------------------------------------------------
    def place(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]] = None,
    ) -> PlacementPlan:
        """Solve the placement problem for ``classes``.

        Args:
            classes: traffic classes (path, chain, rate).
            available_cores: A_v (core dimension) — free cores per switch
                with an APPLE host; switches absent cannot host instances.
            available_memory_gb: optional second dimension of A_v; when
                given, Eq. 6 is enforced per resource type (R_n is the
                (cores, memory) vector of each NF).

        A cached template of the same class structure and host set is
        re-solved with this call's rates and budgets instead of being
        rebuilt.

        Raises:
            PlacementError: a class's path has no APPLE host, or the model
                is infeasible (insufficient capacity anywhere).
        """
        started = time.perf_counter()
        classes = [self._clamped(c) for c in classes]
        self._check_paths(classes, available_cores)
        if not any(c.chain_length for c in classes):
            # No chain step anywhere: no variables, nothing to solve.
            return PlacementPlan(
                quantities={},
                distribution={},
                classes=classes,
                catalog=self.catalog,
                objective=0.0,
                solve_seconds=time.perf_counter() - started,
            )
        key = self._structure_key(classes, available_cores, available_memory_gb)

        # Never filled with a single-shot template; an LRU of four structures.
        template = self._templates.get(key)
        warm = template is not None
        if warm:
            self._templates.move_to_end(key)
            self.warm_solves += 1
        else:
            with obs.span(
                "engine.template_build",
                cat="solver",
                histogram="solver_lp_assembly_seconds",
            ):
                template = assemble_placement_lp(
                    classes,
                    available_cores,
                    available_memory_gb,
                    cap=self._cap,
                    catalog=self.catalog,
                    key=key,
                )
            if template.reusable:
                self._templates[key] = template
                if len(self._templates) > 4:
                    self._templates.popitem(last=False)
            self.cold_builds += 1
        with obs.span(
            "engine.rate_update",
            cat="solver",
            histogram="solver_rate_update_seconds",
        ):
            template.set_rates(classes)
            template.set_budgets(available_cores, available_memory_gb)

        span_name = "engine.warm_solve" if warm else "engine.cold_solve"
        try:
            with obs.span(span_name, cat="solver"):
                if self.config.solver == "exact":
                    bb = solve_branch_bound(
                        template.lp, max_nodes=self.config.max_bb_nodes
                    )
                    if bb.solution is None:
                        raise PlacementError(
                            "exact solver found no feasible placement"
                        )
                    solution, lp_bound = bb.solution, bb.objective
                    quantities = template.quantities(solution)
                else:
                    solution, quantities, _, lp_bound = (
                        self._solve_ceiling(template)
                    )
        except SolverError as exc:
            raise PlacementError(f"placement infeasible: {exc}") from exc
        distribution = self._extract_distribution(classes, template, solution)
        with obs.span("engine.consolidate", cat="solver"):
            self._consolidate_dust(classes, distribution, quantities)
        objective = sum(quantities.values())
        if obs.REGISTRY.enabled:
            mode = "warm" if warm else "cold"
            obs.metric("solver_solves_total").labels(mode=mode).inc()
            obs.metric("solver_solve_seconds").labels(mode=mode).observe(
                time.perf_counter() - started
            )
            obs.metric("solver_classes").set(len(classes))
            obs.metric("solver_instances_planned").set(objective)
            obs.metric("solver_warm_hit_ratio").set(
                self.warm_solves / (self.warm_solves + self.cold_builds)
            )
        return PlacementPlan(
            quantities=quantities,
            distribution=distribution,
            classes=list(classes),
            catalog=self.catalog,
            objective=float(objective),
            lp_bound=float(lp_bound),
            solve_seconds=time.perf_counter() - started,
            warm_start=warm,
        )

    # ------------------------------------------------------------------
    def _structure_key(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> tuple:
        """What the model's structure depends on: the classes, the *set* of
        hosts (switches with free cores) and whether memory is modelled.

        The rates T_c and the budgets A_v are data of one instance — Eq. 5
        coefficients and Eq. 6 right-hand sides — and stay out of the key;
        a budget that reaches 0 removes a host and so changes it.
        """
        class_part = tuple(
            (c.class_id, c.path, tuple(c.chain)) for c in classes
        )
        hosts_part = tuple(sorted(
            s for s, free in available_cores.items() if free > 0
        ))
        return (
            class_part,
            hosts_part,
            available_memory_gb is not None,
            self.config.capacity_headroom,
            id(self.catalog),
        )

    # ------------------------------------------------------------------
    def _solve_ceiling(self, template: PlacementTemplate):
        """LP relaxation + ceiling rounding with budget-tightening repair.

        One LP solve gives the spatial distribution d; the integer counts
        are then q_n^v = ceil(L_vn / Cap_n) from the *actual* loads L_vn the
        LP assigned (tighter than ceiling the fractional q).  Because the
        LP enforces L_vn ≤ Cap_n · q_lp, the d values remain feasible under
        these counts; only the per-switch core budget (Eq. 6) can be broken
        by the round-up.  When a switch overshoots, its budget in the LP is
        tightened by the overshoot and the LP re-solved — this converges in
        a couple of iterations in practice.  If repair fails, fall back to
        generic iterative rounding.
        """
        program = template.lp
        n_switches = len(template._switch_names)
        # This call's A_v, as ``place`` wrote it (fancy indexing copies).
        avail_cores_arr = program.rhs[template._core_rows]
        budgets = avail_cores_arr.copy()
        banned: List[int] = []  # slot indices whose d vars are forced to zero
        prev_violations: Dict[int, int] = {}
        lp_bound: Optional[float] = None
        for _ in range(8):
            b_ub = program.rhs[: program.n_ub].copy()
            b_ub[template._core_rows] = budgets
            extra_ub = None
            if banned:
                extra_ub = np.full(program.num_variables, np.nan)
                extra_ub[
                    template._member_var_idx[
                        np.isin(template._member_slot_idx, banned)
                    ]
                ] = 0.0
            lp = solve_lp(
                program, b_ub_override=b_ub, extra_upper_bounds=extra_ub
            )
            if lp_bound is None:
                lp_bound = lp.objective

            loads = template.slot_loads(lp.solution)
            # Vectorized ceiling: q = max(1, ceil(L / Cap)) on active slots,
            # then per-switch resource sums via one bincount each.
            active = loads > 1e-12
            counts = np.zeros(len(template.slots), dtype=np.int64)
            counts[active] = np.maximum(
                np.ceil(
                    loads[active] / template._slot_cap[active] - 1e-9
                ).astype(np.int64),
                1,
            )
            cores_used = np.bincount(
                template._slot_switch,
                weights=template._slot_cores * counts,
                minlength=n_switches,
            )
            over = cores_used - avail_cores_arr
            violations = {
                int(k): int(over[k]) for k in np.flatnonzero(over > 0)
            }
            if template._mem_rows is not None and not violations:
                # Memory overshoot cannot be repaired by tightening core
                # budgets; defer to the generic rounding fallback.
                mem_used = np.bincount(
                    template._slot_switch,
                    weights=template._slot_mem * counts,
                    minlength=n_switches,
                )
                avail_mem_arr = program.rhs[template._mem_rows]
                if bool(np.any(mem_used > avail_mem_arr + 1e-9)):
                    break
            if not violations:
                solution = lp.solution.copy()
                solution[template._q_idx] = counts
                quantities = {
                    template.slots[k]: int(counts[k])
                    for k in np.flatnonzero(active)
                }
                objective = float(counts.sum())
                return solution, quantities, objective, lp_bound
            for sw, overshoot in violations.items():
                if prev_violations.get(sw, 0) == overshoot:
                    # Budget tightening had no effect: the overshoot comes
                    # from dust slots whose fractional core use is ~0.
                    # Evacuate the lightest slot at this switch instead.
                    lightest = min(
                        (
                            (float(loads[k]), int(k))
                            for k in np.flatnonzero(
                                (template._slot_switch == sw) & active
                            )
                            if k not in banned
                        ),
                        default=None,
                    )
                    if lightest is not None:
                        banned.append(lightest[1])
                budgets[sw] = max(0.0, budgets[sw] - float(overshoot))
            prev_violations = violations

        res = solve_with_rounding(program)
        quantities = template.quantities(res.solution)
        return res.solution, quantities, res.objective, res.lp_objective

    def _consolidate_dust(
        self,
        classes: Sequence[TrafficClass],
        distribution: Dict[Tuple[str, int, int], float],
        quantities: Dict[Tuple[str, str], int],
    ) -> None:
        """Evacuate lightly loaded instances into other instances' spare.

        LP degeneracy spreads small portions across many slots; after
        ceiling those slivers each pin a whole instance.  This pass takes
        every single-instance slot whose load is below ``DUST_THRESHOLD``
        and tries to move *all* of its portions onto other slots of the
        same NF on each class's path, checking spare capacity and the
        ordering constraint (Eq. 3) before committing.  Mutates
        ``distribution`` and ``quantities`` in place.

        Evacuating one slot frees spare that may unlock the next, so the
        pass cascades until a fixed point.  The load/portion indices are
        built once and maintained incrementally across rounds, and a slot
        whose evacuation failed is skipped until some commit has changed
        the global state (an attempt is a pure function of that state, so
        retrying it unchanged would fail identically).
        """
        class_by_id = {c.class_id: c for c in classes}
        loads: Dict[Tuple[str, str], float] = {}
        portions: Dict[Tuple[str, str], List[Tuple[str, int, int]]] = {}
        for (cid, i, j), frac in distribution.items():
            cls = class_by_id[cid]
            slot = (cls.path[i], cls.chain[j])
            loads[slot] = loads.get(slot, 0.0) + frac * cls.rate_mbps
            portions.setdefault(slot, []).append((cid, i, j))

        def spare(slot: Tuple[str, str]) -> float:
            return self._cap(slot[1]) * quantities.get(slot, 0) - loads.get(slot, 0.0)

        version = 0
        failed_at: Dict[Tuple[str, str], int] = {}
        for _round in range(4):
            dust = sorted(
                (
                    slot
                    for slot, q in quantities.items()
                    if q == 1
                    and loads.get(slot, 0.0)
                    < DUST_THRESHOLD * self._cap(slot[1])
                ),
                key=lambda s: loads.get(s, 0.0),
            )
            start_version = version
            for slot in dust:
                if failed_at.get(slot) == version:
                    continue
                moves: List[Tuple[Tuple[str, int, int], Tuple[str, int, int]]] = []
                pending: Dict[Tuple[str, str], float] = {}
                ok = True
                for (cid, i, j) in portions.get(slot, []):
                    cls = class_by_id[cid]
                    frac = distribution.get((cid, i, j), 0.0)
                    if frac <= 0:
                        continue
                    mass = frac * cls.rate_mbps
                    target = self._find_target(
                        cls, i, j, slot, mass, quantities, spare, pending, distribution
                    )
                    if target is None:
                        ok = False
                        break
                    moves.append(((cid, i, j), (cid, target, j)))
                    tslot = (cls.path[target], cls.chain[j])
                    pending[tslot] = pending.get(tslot, 0.0) + mass
                if not ok or not moves:
                    failed_at[slot] = version
                    continue
                # Commit: shift fractions, update loads, drop the instance.
                for (cid, i, j), (_, ti, _) in moves:
                    cls = class_by_id[cid]
                    frac = distribution.pop((cid, i, j))
                    tslot = (cls.path[ti], cls.chain[j])
                    if (cid, ti, j) not in distribution:
                        # A portion the slot already holds is listed once:
                        # listed twice, a later evacuation stages it twice.
                        portions.setdefault(tslot, []).append((cid, ti, j))
                    distribution[(cid, ti, j)] = (
                        distribution.get((cid, ti, j), 0.0) + frac
                    )
                    loads[tslot] = loads.get(tslot, 0.0) + frac * cls.rate_mbps
                loads.pop(slot, None)
                portions.pop(slot, None)
                del quantities[slot]
                version += 1
            if version == start_version:
                break

    def _find_target(
        self,
        cls: TrafficClass,
        i: int,
        j: int,
        slot: Tuple[str, str],
        mass: float,
        quantities: Dict[Tuple[str, str], int],
        spare,
        pending: Dict[Tuple[str, str], float],
        distribution: Dict[Tuple[str, int, int], float],
    ) -> Optional[int]:
        """A path position that can absorb (cls, step j)'s portion at ``i``.

        The candidate must host instances of the same NF with enough spare
        capacity (accounting for moves staged in ``pending``) and moving
        the portion there must keep Eq. 3's ordering valid for the class.
        """
        nf = cls.chain[j]
        for ti in range(cls.path_length):
            if ti == i:
                continue
            tslot = (cls.path[ti], nf)
            if tslot == slot or quantities.get(tslot, 0) <= 0:
                continue
            if spare(tslot) - pending.get(tslot, 0.0) < mass - 1e-9:
                continue
            if self._order_ok_after_move(cls, distribution, i, ti, j):
                return ti
        return None

    @staticmethod
    def _order_ok_after_move(
        cls: TrafficClass,
        distribution: Dict[Tuple[str, int, int], float],
        i: int,
        ti: int,
        j: int,
        tol: float = 1e-9,
    ) -> bool:
        """Would moving d[cls, i, j] to position ti keep Eq. 3 valid?"""
        frac = distribution.get((cls.class_id, i, j), 0.0)

        def portion(jj: int, ii: int) -> float:
            v = distribution.get((cls.class_id, ii, jj), 0.0)
            if jj == j:
                if ii == i:
                    v = 0.0
                if ii == ti:
                    v += frac
            return v

        for jj in (j, j + 1):
            if jj < 1 or jj >= cls.chain_length:
                continue
            cum_prev = cum_cur = 0.0
            for ii in range(cls.path_length):
                cum_prev += portion(jj - 1, ii)
                cum_cur += portion(jj, ii)
                if cum_cur > cum_prev + tol:
                    return False
        return True

    def _cap(self, nf_name: str) -> float:
        """Plannable capacity of one instance (headroom-derated Cap_n)."""
        return self.catalog.get(nf_name).capacity_mbps * self.config.capacity_headroom

    def _clamped(self, cls: TrafficClass) -> TrafficClass:
        floor = self.config.min_class_rate_mbps
        if cls.rate_mbps < floor:
            return cls.with_rate(floor)
        return cls

    @staticmethod
    def _check_paths(
        classes: Sequence[TrafficClass], available_cores: Mapping[str, int]
    ) -> None:
        seen = set()
        for cls in classes:
            if cls.class_id in seen:
                raise PlacementError(f"duplicate class id {cls.class_id!r}")
            seen.add(cls.class_id)
            if not any(available_cores.get(sw, 0) > 0 for sw in cls.path):
                raise PlacementError(
                    f"class {cls.class_id!r}: no APPLE host on its path {cls.path}"
                )

    @staticmethod
    def _extract_distribution(
        classes: Sequence[TrafficClass],
        template: PlacementTemplate,
        solution,
        eps: float = 1e-9,
    ) -> Dict[Tuple[str, int, int], float]:
        """Read d values, drop numeric dust, renormalise each chain step.

        Fully vectorized: per-(class, step) sums come from one ``bincount``
        over the precomputed renormalisation groups, and only surviving
        (> ``eps``) entries are materialised into the result dict.
        """
        values = np.asarray(solution)[: len(template._d_keys)]
        keep = values > eps
        vals = np.where(keep, values, 0.0)
        totals = np.bincount(
            template._d_group, weights=vals, minlength=template._n_groups
        )
        group_total = totals[template._d_group]
        norm = np.divide(
            vals, group_total, out=vals, where=group_total > 0
        )
        d_keys = template._d_keys
        return {d_keys[k]: float(norm[k]) for k in np.flatnonzero(keep)}
