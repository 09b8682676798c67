"""The placement LP (Eq. 1–6), written straight into solver-native arrays.

The shape of the Optimization Engine's model is a closed-form function of
each class's host count ``H`` and chain length ``J``, so nothing builds an
expression tree: one walk over the classes collects host positions and
chains, and everything else is ``repeat`` / ``cumsum`` / ``unique`` over
per-class ``(H, J)``, emitting the CSC matrix of a
:class:`~repro.solver.lp.LinearProgram` together with the index arrays a
:class:`PlacementTemplate` needs to rewrite rates and read solutions back.

Ordering contract — **do not reorder**: warm-started templates rewrite
coefficients by position (:meth:`PlacementTemplate.set_rates`) and the
repo's warm==cold and pinned-signature tests fix every solve bit for bit.

* Columns: d variables class-major, then chain step, then host position
  (d exists only at path positions whose switch has an APPLE host),
  followed by the integer q variables in ``sorted((switch, nf))`` slot
  order (only slots some class can use).
* Rows: Eq. 3 order rows, stored negated as ``≤`` with σ substituted away
  (class-major, step ``1..J-1``, stop ``0..H-2``: the cumulative portion of
  step ``j-1`` dominates step ``j`` at every prefix of the hosts; none
  when ``H = 1`` or ``J = 1``); Eq. 5 capacity rows in slot order; Eq. 6
  core rows in sorted order of the switches that own a slot; Eq. 6 memory
  rows likewise when memory is modelled; then the Eq. 4 completeness
  equalities (class-major, step).
* Entries: row indices ascending inside every column — a d column
  ``(c, j, k)`` holds ``+1`` in the order rows of step ``j`` for stops
  ``k..H-2``, ``−1`` in those of step ``j+1``, its class rate in its slot's
  Eq. 5 row and ``1`` in its Eq. 4 row; a q column holds ``−Cap_n``,
  ``cores_n`` and (when modelled) ``mem_n``.  Exact-zero coefficients are
  dropped; a dropped rate makes the template single-shot.

A class with an empty chain contributes no columns and no rows.  Every
class is assumed to have at least one host on its path (the engine's
``_check_paths`` rejects the others first).  ``tests/test_placement_lp.py``
checks all of this against an independent expression-tree reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.solver.lp import LinearProgram
from repro.traffic.classes import TrafficClass
from repro.vnf.types import NFTypeCatalog

#: (switch, NF) pair — one potential instance slot.
Slot = Tuple[str, str]


@dataclass
class PlacementTemplate:
    """The structure phase of one placement instance, ready to re-solve.

    Holds the LP and the index arrays for a fixed (class structure, host
    set, catalog, config) key.  The data of one instance — the class rates
    T_c (coefficients of Eq. 5) and the available resources A_v (right-hand
    side of Eq. 6) — are per-solve inputs: :meth:`set_rates` scatters the
    rates into the LP's matrix values and :meth:`set_budgets` writes the
    budgets into its right-hand side, so every solver path (LP ceiling,
    rounding fallback, branch-and-bound) sees the new snapshot without a
    rebuild.
    """

    key: tuple
    lp: LinearProgram
    #: Sorted (switch, nf) slots; q variable ``k`` is column ``_q_idx[k]``.
    slots: List[Slot]
    #: False when a rate was exactly zero at build time and so fell out of
    #: the sparsity pattern; such templates are single-shot.
    reusable: bool
    #: d variable keys ``(class_id, path position, chain step)``; d variable
    #: ``k`` is column ``k``.
    _d_keys: List[Tuple[str, int, int]] = field(repr=False)
    #: Renormalisation group (one per class × chain step) of each d var.
    _d_group: np.ndarray = field(repr=False)
    _n_groups: int = field(repr=False)
    # Slot loads: one member per d variable, grouped by slot.
    _member_slot_idx: np.ndarray = field(repr=False)
    _member_var_idx: np.ndarray = field(repr=False)
    _member_class_idx: np.ndarray = field(repr=False)
    #: Position in ``lp.data`` of each stored Eq. 5 rate, and its class.
    _rate_positions: np.ndarray = field(repr=False)
    _rate_class_idx: np.ndarray = field(repr=False)
    # Per-slot datasheet arrays (aligned with ``slots``) and the switches
    # owning a slot; switch ``k``'s Eq. 6 core row is ``_core_rows[k]``.
    _slot_cap: np.ndarray = field(repr=False)
    _slot_cores: np.ndarray = field(repr=False)
    _slot_mem: np.ndarray = field(repr=False)
    _slot_switch: np.ndarray = field(repr=False)
    _switch_names: List[str] = field(repr=False)
    _core_rows: np.ndarray = field(repr=False)
    #: Eq. 6 memory rows in the same switch order; None when not modelled.
    _mem_rows: Optional[np.ndarray] = field(repr=False)
    _q_idx: np.ndarray = field(repr=False)
    _rates: Optional[np.ndarray] = field(default=None, repr=False)

    def set_rates(self, classes: Sequence[TrafficClass]) -> None:
        """Rewrite the Eq. 5 rate coefficients for a new snapshot."""
        rates = np.fromiter(
            (c.rate_mbps for c in classes), dtype=float, count=len(classes)
        )
        self._rates = rates
        if self.reusable:
            self.lp.data[self._rate_positions] = rates[self._rate_class_idx]
        # Otherwise the rates were embedded at build time and the template
        # is only valid for them.

    def set_budgets(
        self,
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> None:
        """Rewrite the Eq. 6 right-hand sides (A_v) for this solve."""
        rhs, names = self.lp.rhs, self._switch_names
        rhs[self._core_rows] = [float(available_cores.get(sw, 0)) for sw in names]
        if self._mem_rows is not None:
            rhs[self._mem_rows] = [
                float(available_memory_gb.get(sw, 0.0)) for sw in names
            ]

    def slot_loads(self, solution: np.ndarray) -> np.ndarray:
        """L_vn per slot under an LP solution (vectorized Eq. 5 left side)."""
        weights = (
            self._rates[self._member_class_idx] * solution[self._member_var_idx]
        )
        return np.bincount(
            self._member_slot_idx, weights=weights, minlength=len(self.slots)
        )

    def quantities(self, solution: np.ndarray) -> Dict[Slot, int]:
        """Positive integer q values of ``solution``, keyed by slot."""
        counts = np.round(solution[self._q_idx]).astype(np.int64)
        return {self.slots[k]: int(counts[k]) for k in np.flatnonzero(counts > 0)}


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each owner's run of items begins."""
    return np.cumsum(counts) - counts


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of each item when owner ``k`` holds ``counts[k]``."""
    owner = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(owner.size) - np.repeat(_starts(counts), counts)
    return owner, offset


def assemble_placement_lp(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    available_memory_gb: Optional[Mapping[str, float]],
    cap: Callable[[str], float],
    catalog: NFTypeCatalog,
    key: tuple = (),
) -> PlacementTemplate:
    """Assemble Eq. 1–6 for ``classes`` in the order the module pins."""
    hosts = sorted(sw for sw, free in available_cores.items() if free > 0)
    host_rank = {sw: r for r, sw in enumerate(hosts)}
    nf_names = sorted({nf for cls in classes for nf in cls.chain})
    nf_rank = {nf: r for r, nf in enumerate(nf_names)}

    # The one walk over the classes: host positions and chains, interned.
    class_ids, n_hosts, n_steps = [], [], []
    host_pos: List[int] = []
    host_sw: List[int] = []
    step_nf: List[int] = []
    for cls in classes:
        chain = [nf_rank[nf] for nf in cls.chain]
        path = cls.path
        here = [i for i, sw in enumerate(path) if sw in host_rank] if chain else []
        class_ids.append(cls.class_id)
        n_hosts.append(len(here))
        n_steps.append(len(chain))
        host_pos.extend(here)
        host_sw.extend([host_rank[path[i]] for i in here])
        step_nf.extend(chain)
    H = np.asarray(n_hosts, dtype=np.intp)
    J = np.asarray(n_steps, dtype=np.intp)
    host_pos_arr = np.asarray(host_pos, dtype=np.intp)
    host_sw_arr = np.asarray(host_sw, dtype=np.intp)
    step_nf_arr = np.asarray(step_nf, dtype=np.intp)
    rates = np.fromiter((c.rate_mbps for c in classes), dtype=float, count=len(classes))

    # d columns: class c, step j, host position k (path position i).
    d_cls, within = _ragged(H * J)
    n_d = d_cls.size
    d_H = H[d_cls]
    d_j, d_k = np.divmod(within, d_H)
    d_host = _starts(H)[d_cls] + d_k
    d_group = _starts(J)[d_cls] + d_j
    d_keys = list(
        zip(
            np.asarray(class_ids, dtype=object)[d_cls].tolist(),
            host_pos_arr[d_host].tolist(),
            d_j.tolist(),
        )
    )

    # q columns: the sorted slots some d variable loads.
    n_nf = max(len(nf_names), 1)
    slot_codes, d_slot = np.unique(
        host_sw_arr[d_host] * n_nf + step_nf_arr[d_group], return_inverse=True
    )
    slot_sw_rank, slot_nf = np.divmod(slot_codes, n_nf)
    n_slots = slot_codes.size
    slots = [
        (hosts[s], nf_names[n]) for s, n in zip(slot_sw_rank.tolist(), slot_nf.tolist())
    ]
    owning, slot_switch = np.unique(slot_sw_rank, return_inverse=True)
    switch_names = [hosts[s] for s in owning.tolist()]
    n_sw = len(switch_names)
    nf_types = [catalog.get(nf) for nf in nf_names]
    slot_cap = np.asarray([cap(nf) for nf in nf_names], dtype=float)[slot_nf]
    slot_cores = np.asarray([float(t.cores) for t in nf_types])[slot_nf]
    slot_mem = np.asarray([float(t.memory_gb) for t in nf_types])[slot_nf]
    with_memory = available_memory_gb is not None

    # Row layout.
    order_per_class = np.maximum(J - 1, 0) * np.maximum(H - 1, 0)
    n_order = int(order_per_class.sum())
    cap_row0 = n_order
    core_row0 = cap_row0 + n_slots
    mem_row0 = core_row0 + n_sw
    n_ub = mem_row0 + (n_sw if with_memory else 0)
    n_rows = n_ub + int(J.sum())

    # Entries of each d column, rows ascending: order rows of its own step
    # (+1), order rows of the next step (−1), its Eq. 5 row, its Eq. 4 row.
    stops = d_H - 1 - d_k
    n_own = np.where(d_j >= 1, stops, 0)
    n_next = np.where(d_j + 1 < J[d_cls], stops, 0)
    d_count = n_own + n_next + 2
    q_count = np.full(n_slots, 3 if with_memory else 2, dtype=np.intp)
    col_count = np.concatenate([d_count, q_count])
    indptr = np.zeros(col_count.size + 1, dtype=np.intp)
    np.cumsum(col_count, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)  # the width HiGHS takes
    data = np.empty(indptr[-1], dtype=float)

    d_start = indptr[:n_d]
    own_row0 = _starts(order_per_class)[d_cls] + (d_j - 1) * (d_H - 1) + d_k
    col, off = _ragged(n_own)
    at = d_start[col] + off
    indices[at] = own_row0[col] + off
    data[at] = 1.0
    col, off = _ragged(n_next)
    at = d_start[col] + n_own[col] + off
    indices[at] = own_row0[col] + (d_H[col] - 1) + off
    data[at] = -1.0
    rate_at = d_start + n_own + n_next
    indices[rate_at] = cap_row0 + d_slot
    data[rate_at] = rates[d_cls]
    indices[rate_at + 1] = n_ub + d_group
    data[rate_at + 1] = 1.0

    q_start = indptr[n_d:-1]
    indices[q_start] = cap_row0 + np.arange(n_slots)
    data[q_start] = -slot_cap
    indices[q_start + 1] = core_row0 + slot_switch
    data[q_start + 1] = slot_cores
    if with_memory:
        indices[q_start + 2] = mem_row0 + slot_switch
        data[q_start + 2] = slot_mem

    # Slot members in (slot, column) order, and where their rates sit.
    members = np.argsort(d_slot, kind="stable")
    member_cls = d_cls[members]
    stored = rates[member_cls] != 0.0
    rate_positions = rate_at[members][stored]

    keep = data != 0.0
    if not keep.all():
        entry_col = np.repeat(np.arange(col_count.size), col_count)
        rate_positions = np.cumsum(keep)[rate_positions] - 1
        indices, data = indices[keep], data[keep]
        np.cumsum(
            np.bincount(entry_col[keep], minlength=col_count.size), out=indptr[1:]
        )

    rhs = np.zeros(n_rows)  # Eq. 6 rows: see set_budgets below
    rhs[n_ub:] = 1.0
    lhs = rhs.copy()
    lhs[:n_ub] = -np.inf
    n = n_d + n_slots
    is_q = np.arange(n) >= n_d

    def var_name(col: int) -> str:
        if col < n_d:
            return "d[{},{},{}]".format(*d_keys[col])
        return "q[{},{}]".format(*slots[col - n_d])

    template = PlacementTemplate(
        key=key,
        lp=LinearProgram(
            name="apple-placement",
            c=is_q.astype(float),
            indptr=indptr.astype(np.int32),
            indices=indices,
            data=data,
            lhs=lhs,
            rhs=rhs,
            lb=np.zeros(n),
            ub=np.where(is_q, np.inf, 1.0),
            n_ub=n_ub,
            integer_mask=is_q,
            var_name=var_name,
        ),
        slots=slots,
        reusable=bool(stored.all()),
        _d_keys=d_keys,
        _d_group=d_group,
        _n_groups=int(J.sum()),
        _member_slot_idx=d_slot[members],
        _member_var_idx=members,
        _member_class_idx=member_cls,
        _rate_positions=rate_positions,
        _rate_class_idx=member_cls[stored],
        _slot_cap=slot_cap,
        _slot_cores=slot_cores,
        _slot_mem=slot_mem,
        _slot_switch=slot_switch,
        _switch_names=switch_names,
        _core_rows=core_row0 + np.arange(n_sw),
        _mem_rows=mem_row0 + np.arange(n_sw) if with_memory else None,
        _q_idx=n_d + np.arange(n_slots),
    )
    template.set_budgets(available_cores, available_memory_gb)
    return template
