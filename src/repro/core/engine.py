"""The Optimization Engine: traffic-aware VNF placement (Sec. IV).

Builds the ILP of Eq. 1–8 over traffic classes and solves it through its
LP relaxation (the paper's CPLEX-with-LP-relaxation production path):
ceiling rounding of the LP's slot loads with budget repair re-solves
(``_solve_ceiling``), iterative rounding only as the fallback when repair
does not converge.  A dust-consolidation pass then empties lightly loaded
single instances.

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
class rates T_h and, when hosts lose capacity, the available resources
A_v — while topology, paths, chains and the host set are identical.  ``place()`` therefore splits into a *structure phase* that
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

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, itemgetter, le
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.core.constraints import PlacementTemplate, assemble_placement_lp
from repro.core.placement import PlacementPlan
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

    ``place()`` is the one way to a plan: LP relaxation + ceiling rounding,
    then the dust-consolidation pass, re-solving a cached template when the
    class structure and host set repeat
    (``OptimizationEngine.clear_templates()`` forces cold solves).

    Attributes:
        min_class_rate_mbps: classes below this rate are clamped up to it,
            so even near-idle classes receive (shared) instances — APPLE
            provisions proactively for potential flows (Sec. I).  Finite
            and non-negative.
        capacity_headroom: fraction of each instance's capacity the engine
            may plan onto (Eq. 5 uses headroom x Cap_n), in (0, 1].  Below
            1.0 the placement keeps slack for traffic dynamics, mirroring
            the paper's practice of setting the overload threshold below
            the measured loss knee.
    """

    min_class_rate_mbps: float = 1e-3
    capacity_headroom: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.capacity_headroom <= 1:
            raise ValueError(
                f"capacity_headroom must be in (0, 1], got {self.capacity_headroom!r}"
            )
        if not 0 <= self.min_class_rate_mbps < math.inf:
            raise ValueError(
                "min_class_rate_mbps must be finite and non-negative, "
                f"got {self.min_class_rate_mbps!r}"
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
        incumbent: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> PlacementPlan:
        """Solve the placement problem for ``classes``.

        Args:
            classes: traffic classes (path, chain, rate).
            available_cores: A_v (core dimension) — free cores per switch
                with an APPLE host; switches absent cannot host instances.
            available_memory_gb: optional second dimension of A_v; when
                given, Eq. 6 is enforced per resource type (R_n is the
                (cores, memory) vector of each NF).
            incumbent: q_old, the installed plan's instances per slot:
                make-before-break rows and a tie-break toward them
                (:mod:`repro.core.constraints`); None or empty: day 0.

        A cached template of the same class structure and host set is
        re-solved with this call's rates and budgets instead of being
        rebuilt.

        Raises:
            ValueError: a core or memory budget is NaN or negative.
            PlacementError: a class's path has no APPLE host, the LP
                relaxation is infeasible, or rounding found no integer plan
                (the message names which).
        """
        started = time.perf_counter()
        classes, template, warm = self._template(
            classes, available_cores, available_memory_gb, incumbent
        )
        if template is None:
            # No chain step anywhere: no variables, nothing to solve.
            return PlacementPlan(
                quantities={},
                distribution={},
                classes=classes,
                catalog=self.catalog,
                objective=0.0,
                solve_seconds=time.perf_counter() - started,
            )

        span_name = "engine.warm_solve" if warm else "engine.cold_solve"
        try:
            with obs.span(span_name, cat="solver"):
                solution, quantities, _, lp_bound = self._solve_ceiling(template)
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
            classes=classes,
            catalog=self.catalog,
            objective=float(objective),
            lp_bound=float(lp_bound),
            solve_seconds=time.perf_counter() - started,
            warm_start=warm,
        )

    def relaxation_feasible(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]] = None,
        incumbent: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> bool:
        """Whether the LP relaxation of the model :meth:`place` would solve
        has a feasible point: one LP solve on ``place()``'s own template, no
        rounding.  False proves that ``place`` refuses; True does not prove
        that it places."""
        template = self._template(
            classes, available_cores, available_memory_gb, incumbent
        )[1]
        if template is None:
            return True
        try:
            solve_lp(template.lp)
        except SolverError:
            return False
        return True

    def _template(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
        incumbent: Optional[Mapping[Tuple[str, str], int]],
    ) -> Tuple[List[TrafficClass], Optional[PlacementTemplate], bool]:
        """``(clamped classes, template, warm)``: the model of one call with
        its data written in, reused from the cache (warm) or built; None
        when no class has a chain step."""
        hosts = self._hosts(available_cores, available_memory_gb)
        classes = self._clamped(classes)
        structure = tuple(map(_STRUCTURE, classes))
        self._check_paths(structure, hosts)
        if not any(map(_CHAIN_NAMES, structure)):
            return classes, None, False
        key = self._structure_key(structure, hosts, available_memory_gb, incumbent)

        # Never filled with a single-shot template; an LRU of four structures.
        template = self._templates.get(key)
        warm = template is not None
        if warm:
            self._templates.move_to_end(key)
            self.warm_solves += 1
            with obs.span(
                "engine.rate_update",
                cat="solver",
                histogram="solver_rate_update_seconds",
            ):
                template.set_rates(classes)
                template.set_budgets(available_cores, available_memory_gb)
                if incumbent:
                    template.set_incumbent(incumbent, self.catalog)
        else:
            # Built with this call's rates and budgets.
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
                    incumbent=incumbent,
                )
            if template.reusable:
                self._templates[key] = template
                if len(self._templates) > 4:
                    self._templates.popitem(last=False)
            self.cold_builds += 1
        return classes, template, warm

    # ------------------------------------------------------------------
    @staticmethod
    def _hosts(
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> Set[str]:
        """The switches with free cores; a NaN or negative budget is refused
        (``free > 0`` would quietly read a NaN as "no host here")."""
        if not all(map(le, repeat(0), available_cores.values())) or (
            available_memory_gb is not None
            and not all(map(le, repeat(0), available_memory_gb.values()))
        ):
            for dimension, budgets in (
                ("cores", available_cores),
                ("memory_gb", available_memory_gb or {}),
            ):
                for switch, free in budgets.items():
                    if not free >= 0:
                        raise ValueError(
                            f"available {dimension} of switch {switch!r} must "
                            f"be a non-negative number, got {free!r}"
                        )
        return {switch for switch, free in available_cores.items() if free > 0}

    def _structure_key(
        self,
        structure: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...],
        hosts: Set[str],
        available_memory_gb: Optional[Mapping[str, float]],
        incumbent: Optional[Mapping[Tuple[str, str], int]],
    ) -> tuple:
        """What the model's structure depends on: each class's
        ``(class_id, path, chain names)``, the *set* of hosts (switches
        with free cores), whether memory is modelled and whether there is
        an incumbent (the u block).

        The rates T_c, the budgets A_v and q_old are data of one instance —
        Eq. 5 coefficients, Eq. 6 right-hand sides, u's lower bounds — and
        stay out of the key; a budget that reaches 0 removes a host and so
        changes it.
        """
        return (
            structure,
            tuple(sorted(hosts)),
            available_memory_gb is not None,
            self.config.capacity_headroom,
            id(self.catalog),
            bool(incumbent),
        )

    # ------------------------------------------------------------------
    def _solve_ceiling(self, template: PlacementTemplate):
        """LP relaxation + ceiling rounding with budget-tightening repair.

        One LP solve gives the spatial distribution d; the integer counts
        are then q_n^v = ceil(L_vn / Cap_n) from the *actual* loads L_vn the
        LP assigned (tighter than ceiling the fractional q).  Because the
        LP enforces L_vn ≤ Cap_n · q_lp, the d values remain feasible under
        these counts; only the per-switch core budget (Eq. 6) can be broken
        by the round-up (with an incumbent, on max(ceil, q_old)).  When a
        switch overshoots, its budget in the LP is
        tightened by the overshoot and the LP re-solved — this converges in
        a couple of iterations in practice.  If repair runs out of
        iterations or meets a memory overshoot, fall back to generic
        iterative rounding.  The caller reads the d part of the returned
        solution (``_extract_distribution``).  An LP without a feasible
        point is a "relaxation infeasible" or "rounding repair gave up"
        ``PlacementError``.
        """
        program = template.lp
        # This call's A_v, as ``place`` wrote it: what each Eq. 6 row's use
        # may reach (memory within 1e-9 GB).
        limit = program.rhs[template._budget_rows] + template._use_slack
        n_switches = len(template._switch_names)
        budgets = limit[:n_switches].copy()
        # The ≤ right-hand sides once a budget is tightened; until then the
        # LP's own.
        b_ub: Optional[np.ndarray] = None
        banned: List[int] = []  # slot indices whose d vars are forced to zero
        prev_violations: Dict[int, int] = {}
        lp_bound: Optional[float] = None
        for _ in range(8):
            extra_ub = None
            if banned:
                extra_ub = np.full(program.num_variables, np.nan)
                extra_ub[
                    template._member_var_idx[
                        np.isin(template._member_slot_idx, banned)
                    ]
                ] = 0.0
            try:
                lp = solve_lp(
                    program, b_ub_override=b_ub, extra_upper_bounds=extra_ub
                )
            except SolverError as exc:
                repair = lp_bound is not None  # the relaxation was feasible
                cause = "rounding repair gave up" if repair else "relaxation infeasible"
                raise PlacementError(f"{cause}: {exc}") from exc
            if lp_bound is None:
                lp_bound = lp.objective
                if template._held is not None:  # Eq. 1 alone, less the ε term
                    u = template._u_idx
                    lp_bound -= float(program.c[u] @ lp.solution[u])

            loads = template.slot_loads(lp.solution)
            # Vectorized ceiling: q = max(1, ceil(L / Cap)) on active slots,
            # then the cores (and memory) each switch uses, one bincount.
            active = loads > _ACTIVE_LOAD
            ceiled = loads / template._slot_cap
            ceiled -= _CEIL_SLACK
            np.ceil(ceiled, out=ceiled)
            np.maximum(ceiled, _ONE, out=ceiled)
            ceiled = ceiled * active  # 0 on an inactive slot
            weights = template._use * ceiled
            if template._held is not None:
                # Make-before-break: a host holds max(q, q_old) instances.
                weights[0] = template._use[0] * np.maximum(ceiled, template._held)
            used = np.bincount(
                template._use_bins, weights=weights.ravel(), minlength=limit.size
            )
            over_rows = (used > limit).nonzero()[0].tolist()
            if not over_rows:
                held = ceiled.astype(np.int64).tolist()
                quantities = dict(compress(zip(template.slots, held), held))
                return lp.solution, quantities, float(sum(held)), lp_bound
            if over_rows[0] >= n_switches:
                # Memory overshoot cannot be repaired by tightening core
                # budgets; defer to the generic rounding fallback.
                break
            over = used - limit
            violations = {
                k: int(over[k]) for k in over_rows if k < n_switches
            }
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
            if b_ub is None:
                b_ub = program.rhs[: program.n_ub].copy()
            b_ub[template._core_rows] = budgets
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
        pass cascades, lightest slot first, for up to four rounds until a
        round commits nothing.  A slot whose evacuation failed is retried
        only once a commit has changed something that could make it
        succeed (below); retried unchanged, it would fail identically.
        """
        by_id = {c.class_id: c for c in classes}
        #: class id -> (rate, path, chain names, the class's keys so far)
        facts: Dict[str, tuple] = {}
        #: slot -> [load, the portions it holds], portions in
        #: ``distribution`` order
        held: Dict[Tuple[str, str], list] = {}
        current = None
        for key, frac in distribution.items():
            cid, i, j = key
            if cid != current:  # the distribution comes class by class
                current = cid
                known = facts.get(cid)
                if known is None:
                    cls = by_id[cid]
                    known = facts[cid] = (
                        cls.rate_mbps, cls.path, cls.chain.names, []
                    )
                rate, path, names, class_keys = known
            class_keys.append(key)
            slot = (path[i], names[j])
            entry = held.get(slot)
            if entry is None:
                held[slot] = [0.0 + frac * rate, [key]]
            else:
                entry[0] = entry[0] + frac * rate
                entry[1].append(key)
        cap = {nf: self._cap(nf) for nf in {nf for _, nf in quantities}}

        def load(slot: Tuple[str, str]) -> float:
            entry = held.get(slot)
            return 0.0 if entry is None else entry[0]

        #: Per class, built on first use and kept in step with
        #: ``distribution``: ``grids[cid][j][i]`` is d[cid, i, j] (0.0 when
        #: absent).
        grids: Dict[str, List[List[float]]] = {}

        def grid(cid: str) -> List[List[float]]:
            rows = grids.get(cid)
            if rows is None:
                _, path, names, class_keys = facts[cid]
                rows = grids[cid] = [[0.0] * len(path) for _ in names]
                for key in class_keys:
                    rows[key[2]][key[1]] = distribution.get(key, 0.0)
            return rows

        def target(slot, cid, i, j, mass, pending):
            """A path position whose slot of the same NF can take
            d[cid, i, j]'s ``mass`` (with the moves staged in ``pending``)
            and keep Eq. 3's order valid, with that slot; else None."""
            _, path, names, _ = facts[cid]
            nf = names[j]
            per_instance = cap[nf]
            rows = None
            for ti, sw in enumerate(path):
                if ti == i:
                    continue
                tslot = (sw, nf)
                if tslot == slot:
                    continue
                q = quantities.get(tslot, 0)
                if q <= 0:
                    continue
                spare = per_instance * q - load(tslot)
                if spare - pending.get(tslot, 0.0) < mass - 1e-9:
                    continue
                if rows is None:
                    rows = grid(cid)
                if _order_ok_after_move(rows, i, ti, j):
                    return ti, tslot
            return None

        # A failed slot stays failed until a commit changes what could
        # turn its attempt: the slot itself (its portions), a slot its
        # staged moves took, or a class whose portion it examined (the
        # order check).  Nothing else can: counts only fall and loads
        # only rise, so a slot too full or gone stays so, and with the
        # same staged moves the same portion fails again.
        failed: Set[Tuple[str, str]] = set()
        slot_watchers: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        class_watchers: Dict[str, List[Tuple[str, str]]] = {}
        for _round in range(4):
            dust = sorted(
                (
                    slot
                    for slot, q in quantities.items()
                    if q == 1 and load(slot) < DUST_THRESHOLD * cap[slot[1]]
                ),
                key=load,
            )
            committed = False
            for slot in dust:
                if slot in failed:
                    continue
                moves: List[tuple] = []
                examined: List[str] = []
                pending: Dict[Tuple[str, str], float] = {}
                ok = True
                for key in held[slot][1] if slot in held else ():
                    frac = distribution.get(key, 0.0)
                    if frac <= 0:
                        continue
                    cid, i, j = key
                    examined.append(cid)
                    mass = frac * facts[cid][0]
                    found = target(slot, cid, i, j, mass, pending)
                    if found is None:
                        ok = False
                        break
                    moves.append((key, *found))
                    pending[found[1]] = pending.get(found[1], 0.0) + mass
                if not ok or not moves:
                    failed.add(slot)
                    for watched in (slot, *pending):
                        slot_watchers.setdefault(watched, []).append(slot)
                    for cid in examined:
                        class_watchers.setdefault(cid, []).append(slot)
                    continue
                # Commit: shift fractions, update loads, drop the instance.
                for (cid, i, j), ti, tslot in moves:
                    frac = distribution.pop((cid, i, j))
                    moved = (cid, ti, j)
                    entry = held.get(tslot)
                    if entry is None:
                        entry = held[tslot] = [0.0, []]
                    if moved not in distribution:
                        # A portion the slot already holds is listed once:
                        # listed twice, a later evacuation stages it twice.
                        entry[1].append(moved)
                        facts[cid][3].append(moved)
                    total = distribution[moved] = distribution.get(moved, 0.0) + frac
                    entry[0] = entry[0] + frac * facts[cid][0]
                    rows = grids.get(cid)
                    if rows is not None:
                        rows[j][i] = 0.0
                        rows[j][ti] = total
                held.pop(slot, None)
                del quantities[slot]
                committed = True
                for changed in (slot, *(tslot for _, _, tslot in moves)):
                    failed.difference_update(slot_watchers.pop(changed, ()))
                for (cid, _i, _j), _ti, _tslot in moves:
                    failed.difference_update(class_watchers.pop(cid, ()))
            if not committed:
                break

    def _cap(self, nf_name: str) -> float:
        """Plannable capacity of one instance (headroom-derated Cap_n)."""
        return self.catalog.get(nf_name).capacity_mbps * self.config.capacity_headroom

    def _clamped(self, classes: Sequence[TrafficClass]) -> List[TrafficClass]:
        """``classes`` with every rate below the configured floor raised to it."""
        floor = self.config.min_class_rate_mbps
        return [c if c.rate_mbps >= floor else c.with_rate(floor) for c in classes]

    @staticmethod
    def _check_paths(
        structure: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...],
        hosts: Set[str],
    ) -> None:
        """Class ids are unique and every path crosses a host; the first
        offender in class order is the one reported."""
        ids = set(map(itemgetter(0), structure))
        paths = map(itemgetter(1), structure)
        if len(ids) == len(structure) and not any(map(hosts.isdisjoint, paths)):
            return
        seen = set()
        for class_id, path, _ in structure:
            if class_id in seen:
                raise PlacementError(f"duplicate class id {class_id!r}")
            seen.add(class_id)
            if hosts.isdisjoint(path):
                raise PlacementError(
                    f"class {class_id!r}: no APPLE host on its path {path}"
                )

    @staticmethod
    def _extract_distribution(
        classes: Sequence[TrafficClass],
        template: PlacementTemplate,
        solution,
        eps: float = 1e-9,
    ) -> Dict[Tuple[str, int, int], float]:
        """Read d values, drop numeric dust, renormalise each chain step.

        Fully vectorized over the surviving (> ``eps``) entries: their
        per-(class, step) sums come from one ``bincount`` over the
        renormalisation groups (the dropped entries would add only zeros),
        and only they get a key and a place in the result dict.
        """
        group = template._d_group
        values = solution[: group.size]
        kept = (values > eps).nonzero()[0]
        kept_values = values[kept]
        kept_group = group[kept]
        totals = np.bincount(
            kept_group, weights=kept_values, minlength=template._n_groups
        )
        norm = kept_values / totals[kept_group]
        return dict(zip(template.d_keys(kept), norm.tolist()))


#: The ceiling rounding's constants as numpy scalars (a Python float costs
#: numpy a conversion on every call): a slot is active above
#: ``_ACTIVE_LOAD`` Mbps, and q = max(1, ceil(L / Cap - ``_CEIL_SLACK``)).
_ACTIVE_LOAD, _CEIL_SLACK = np.float64(1e-12), np.float64(1e-9)
_ONE = np.float64(1.0)

#: A class's structure as the template key holds it, and its chain.
_STRUCTURE = attrgetter("class_id", "path", "chain.names")
_CHAIN_NAMES = itemgetter(2)


def _order_ok_after_move(
    rows: List[List[float]], i: int, ti: int, j: int, tol: float = 1e-9
) -> bool:
    """Would moving step ``j``'s portion at path position ``i`` to ``ti``
    keep Eq. 3 valid?  ``rows[j][i]`` is the class's d[i, j]."""
    moved = rows[j][:]
    moved[ti] += moved[i]
    moved[i] = 0.0
    if j >= 1 and not _dominated(rows[j - 1], moved, tol):
        return False
    return j + 1 >= len(rows) or _dominated(moved, rows[j + 1], tol)


def _dominated(prev: List[float], cur: List[float], tol: float) -> bool:
    """Every prefix sum of ``cur`` is at most ``prev``'s, within ``tol``."""
    cum_prev = cum_cur = 0.0
    for a, b in zip(prev, cur):
        cum_prev += a
        cum_cur += b
        if cum_cur > cum_prev + tol:
            return False
    return True
