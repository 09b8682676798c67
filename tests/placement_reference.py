"""Placement's post-solve passes as first written: the rewrite's oracle.

:class:`ReferenceEngine` is an :class:`~repro.core.engine.OptimizationEngine`
whose distribution extraction and dust consolidation are the ones the
engine ran before they were rewritten for speed — ``_extract_distribution``
and ``_consolidate_dust`` with its two helpers, ``_find_target`` and
``_order_ok_after_move`` — kept verbatim: the consolidation re-reads every
portion through ``TrafficClass.path`` / ``PolicyChain.__getitem__`` and
retries every failed slot after any commit.  The one change: extraction
counts the d columns by ``_d_group`` and reads their keys through
:meth:`PlacementTemplate.d_keys`, because the template no longer stores
the keys as a list.

``tests/test_placement_differential.py`` runs both engines on the same
inputs and requires the same plans bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import PlacementTemplate
from repro.core.engine import DUST_THRESHOLD, OptimizationEngine
from repro.traffic.classes import TrafficClass


class ReferenceEngine(OptimizationEngine):
    """The engine with its post-solve passes as first written."""

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
        values = np.asarray(solution)[: template._d_group.size]
        keep = values > eps
        vals = np.where(keep, values, 0.0)
        totals = np.bincount(
            template._d_group, weights=vals, minlength=template._n_groups
        )
        group_total = totals[template._d_group]
        norm = np.divide(
            vals, group_total, out=vals, where=group_total > 0
        )
        d_keys = list(template.d_keys(np.arange(values.size)))
        return {d_keys[k]: float(norm[k]) for k in np.flatnonzero(keep)}
