"""The placement LP (Eq. 1–6), written straight into solver-native arrays.

The shape of the Optimization Engine's model is a closed-form function of
each class's host count ``H`` and chain length ``J``, so nothing builds an
expression tree and nothing loops over classes in Python: the paths, laid
end to end, give the host positions, each distinct chain is ranked once,
and everything else is ``repeat`` / ``cumsum`` / ``bincount`` over per-class
``(H, J)``, emitting the CSC matrix of a
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
from itertools import chain, repeat
from operator import attrgetter
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
)

import numpy as np

from repro.solver.lp import LinearProgram
from repro.traffic.classes import TrafficClass
from repro.vnf.types import NFTypeCatalog

#: (switch, NF) pair — one potential instance slot.
Slot = Tuple[str, str]

_CLASS_ID = attrgetter("class_id")
_PATH = attrgetter("path")
_CHAIN = attrgetter("chain.names")
_RATE = attrgetter("rate_mbps")


@dataclass
class PlacementTemplate:
    """The structure phase of one placement instance, ready to re-solve.

    Holds the LP and the index arrays for a fixed (class structure, host
    set, catalog, config) key.  The data of one instance — the class rates
    T_c (coefficients of Eq. 5) and the available resources A_v (right-hand
    side of Eq. 6) — are per-solve inputs: :meth:`set_rates` scatters the
    rates into the LP's matrix values and :meth:`set_budgets` writes the
    budgets into its right-hand side, so both solver paths (LP ceiling,
    rounding fallback) see the new snapshot without a rebuild.
    """

    key: tuple
    lp: LinearProgram
    #: Sorted (switch, nf) slots; q variable ``k`` is column ``_q_idx[k]``.
    slots: List[Slot]
    #: False when a rate was exactly zero at build time and so fell out of
    #: the sparsity pattern; such templates are single-shot.
    reusable: bool
    #: Class ids in class order, and each d variable's class (an index into
    #: them), path position and chain step: d variable ``k`` (column ``k``)
    #: is keyed ``(class_id, path position, chain step)``; see :meth:`d_keys`.
    _class_ids: np.ndarray = field(repr=False)
    _d_cls: np.ndarray = field(repr=False)
    _d_pos: np.ndarray = field(repr=False)
    _d_step: np.ndarray = field(repr=False)
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
    #: This solve's rate of each slot member's class (set by set_rates).
    _member_rates: Optional[np.ndarray] = field(default=None, repr=False)

    def d_keys(self, columns: np.ndarray) -> Iterator[Tuple[str, int, int]]:
        """The ``(class_id, path position, chain step)`` keys of d columns."""
        return zip(
            self._class_ids[self._d_cls[columns]].tolist(),
            self._d_pos[columns].tolist(),
            self._d_step[columns].tolist(),
        )

    def set_rates(self, classes: Sequence[TrafficClass]) -> None:
        """Rewrite the Eq. 5 rate coefficients for a new snapshot."""
        rates = np.array(list(map(_RATE, classes)), dtype=float)
        self._member_rates = rates[self._member_class_idx]
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
        weights = self._member_rates * solution[self._member_var_idx]
        return np.bincount(
            self._member_slot_idx, weights=weights, minlength=len(self.slots)
        )

    def quantities(self, solution: np.ndarray) -> Dict[Slot, int]:
        """Positive integer q values of ``solution``, keyed by slot."""
        counts = np.round(solution[self._q_idx]).astype(np.int64)
        return {self.slots[k]: int(counts[k]) for k in np.flatnonzero(counts > 0)}


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each owner's run of items begins."""
    return counts.cumsum() - counts


def _unique_inverse(codes: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in ``[0, bound)``,
    without the sort."""
    present = np.zeros(bound, dtype=bool)
    present[codes] = True
    return present.nonzero()[0], (present.cumsum() - 1)[codes]


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, offset)`` of each item when owner ``k`` holds ``counts[k]``."""
    owner = np.arange(counts.size).repeat(counts)
    offset = np.arange(owner.size) - _starts(counts)[owner]
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
    class_ids = list(map(_CLASS_ID, classes))
    paths = list(map(_PATH, classes))
    chains = list(map(_CHAIN, classes))
    # Each distinct chain once: where its NF ranks start in ``chain_nf``.
    chain_at = {names: 0 for names in chains}
    nf_names = sorted({nf for names in chain_at for nf in names})
    nf_rank = {nf: r for r, nf in enumerate(nf_names)}
    chain_nf: List[int] = []
    for names in chain_at:
        chain_at[names] = len(chain_nf)
        chain_nf.extend(nf_rank[nf] for nf in names)

    # Host positions, from every path laid end to end: a path position is a
    # host position when its switch is a host and its class has a chain.
    n_classes = len(classes)
    J = np.fromiter(map(len, chains), dtype=np.intp, count=n_classes)
    path_cls, path_off = _ragged(
        np.fromiter(map(len, paths), dtype=np.intp, count=n_classes)
    )
    rank = np.fromiter(
        map(host_rank.get, chain.from_iterable(paths), repeat(-1)),
        dtype=np.intp,
        count=path_cls.size,
    )
    at_host = (rank >= 0) & (J > 0)[path_cls]
    H = np.bincount(path_cls[at_host], minlength=n_classes)
    host_pos_arr = path_off[at_host]
    host_sw_arr = rank[at_host]
    chain0 = np.fromiter(map(chain_at.__getitem__, chains), np.intp, n_classes)
    rates = np.array(list(map(_RATE, classes)), dtype=float)

    # d columns: class c, step j, host position k (path position i).
    d_cls, within = _ragged(H * J)
    n_d = d_cls.size
    d_H = H[d_cls]
    d_j, d_k = np.divmod(within, d_H)
    d_host = _starts(H)[d_cls] + d_k
    d_group = _starts(J)[d_cls] + d_j

    # q columns: the sorted slots some d variable loads.
    n_nf = max(len(nf_names), 1)
    d_nf = np.asarray(chain_nf, dtype=np.intp)[chain0[d_cls] + d_j]
    slot_codes, d_slot = _unique_inverse(
        host_sw_arr[d_host] * n_nf + d_nf, len(hosts) * n_nf
    )
    slot_sw_rank, slot_nf = np.divmod(slot_codes, n_nf)
    n_slots = slot_codes.size
    slots = [
        (hosts[s], nf_names[n]) for s, n in zip(slot_sw_rank.tolist(), slot_nf.tolist())
    ]
    owning, slot_switch = _unique_inverse(slot_sw_rank, len(hosts))
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
    # (A stable sort of keys this small is a radix sort.)
    members = np.argsort(
        d_slot.astype(np.min_scalar_type(n_slots)), kind="stable"
    )
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
    d_pos = host_pos_arr[d_host]

    def var_name(col: int) -> str:
        # Reads the arrays, not the template: the template holds the LP,
        # which holds this function, and a cycle would outlive the cache.
        if col < n_d:
            return f"d[{class_ids[d_cls[col]]},{d_pos[col]},{d_j[col]}]"
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
        _class_ids=np.asarray(class_ids, dtype=object),
        _d_cls=d_cls,
        _d_pos=d_pos,
        _d_step=d_j,
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
