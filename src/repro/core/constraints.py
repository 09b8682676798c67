"""The placement LP (Eq. 1–6), written straight into solver-native arrays.

The shape of the Optimization Engine's model is a closed-form function of
each class's host count ``H`` and chain length ``J``, so nothing builds an
expression tree and nothing loops over classes in Python: the paths, laid
end to end, give the host positions, each distinct chain is ranked once,
and everything else is a few numpy passes over the (class, chain step)
groups — one expansion of the groups into d columns, one of the columns'
runs of order rows (each run written twice: ``+1`` in its column, ``−1``
in the column of the step before), every other entry scattered to its
place — emitting the CSC matrix of a
:class:`~repro.solver.lp.LinearProgram` together with the index arrays a
:class:`PlacementTemplate` needs to rewrite rates and read solutions back.
The fixed cost of a call is its number of numpy calls, so tenant-sized
models (a few dozen columns) pay for few of them; no step loops over
columns or entries in Python, so GEANT-sized ones (4.5k columns) pay for
none.

Ordering contract — **do not reorder**: warm-started templates rewrite
coefficients by position (:meth:`PlacementTemplate.set_rates`) and the
repo's warm==cold and pinned-signature tests fix every solve bit for bit.

* Columns: d variables class-major, then chain step, then host position
  (d exists only at path positions whose switch has an APPLE host),
  followed by the integer q variables in ``sorted((switch, nf))`` slot
  order (only slots some class can use), then, when the model has an
  incumbent, one u variable per slot in the same order.
* Rows: Eq. 3 order rows, stored negated as ``≤`` with σ substituted away
  (class-major, step ``1..J-1``, stop ``0..H-2``: the cumulative portion of
  step ``j-1`` dominates step ``j`` at every prefix of the hosts; none
  when ``H = 1`` or ``J = 1``); Eq. 5 capacity rows in slot order; Eq. 6
  core rows in sorted order of the switches that own a slot; Eq. 6 memory
  rows likewise when memory is modelled; with an incumbent, one
  make-before-break link row ``q − u ≤ 0`` per slot; then the Eq. 4
  completeness equalities (class-major, step).
* Entries: row indices ascending inside every column — a d column
  ``(c, j, k)`` holds ``+1`` in the order rows of step ``j`` for stops
  ``k..H-2``, ``−1`` in those of step ``j+1``, its class rate in its slot's
  Eq. 5 row and ``1`` in its Eq. 4 row; a q column holds ``−Cap_n``,
  ``cores_n`` and (when modelled) ``mem_n``; with an incumbent its
  ``cores_n`` moves to its u column, which also holds ``−1`` in the link
  row where q holds ``+1``.  Exact-zero coefficients are dropped; a
  dropped rate makes the template single-shot.

Make-before-break: the incumbent's instances (q_old, the installed plan's)
keep their cores until the new epoch converges, so u = max(q, q_old) (the
link row, u's lower bound q_old) replaces q in the Eq. 6 core rows; an
incumbent slot outside the model is taken off its switch's right-hand
side.  ε · Σ cores_n · u with ε = 1 / (1 + Σ_v A_v) (below one instance)
breaks ties in Σ q toward the running instances.

A class with an empty chain contributes no columns and no rows.  Every
class is assumed to have at least one host on its path (the engine's
``_check_paths`` rejects the others first).  ``tests/test_placement_lp.py``
checks all of this against an independent expression-tree reference.
"""

from __future__ import annotations

from collections import defaultdict
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


@dataclass(slots=True)
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
    # Per slot (aligned with ``slots``): Cap_n, and the switch owning it in
    # the order of the switches' Eq. 6 rows.
    _slot_cap: np.ndarray = field(repr=False)
    _slot_switch: np.ndarray = field(repr=False)
    _switch_names: List[str] = field(repr=False)
    #: This solve's rate of each slot member's class (the build's, then
    #: set_rates').
    _member_rates: np.ndarray = field(repr=False)
    #: The Eq. 6 rows (cores, then memory when modelled): their slice of
    #: the rows, the bin of each slot's use in them, the use per instance
    #: (``_use[0]`` cores_n, ``_use[1]`` memory_n, slot by slot) and the
    #: slack a row's use may exceed its budget by (0 for cores, 1e-9 GB for
    #: memory).
    _budget_rows: slice = field(repr=False)
    _use_bins: np.ndarray = field(repr=False)
    _use: np.ndarray = field(repr=False)
    _use_slack: np.ndarray = field(repr=False)
    #: q_old per slot (this solve's incumbent), or None: no u columns.
    _held: Optional[np.ndarray] = field(repr=False)

    @property
    def _core_rows(self) -> np.ndarray:
        """Switch ``k``'s Eq. 6 core row is ``_core_rows[k]`` (its memory
        row, when modelled, comes ``len(_switch_names)`` rows later)."""
        first = self._budget_rows.start
        return np.arange(first, first + len(self._switch_names))

    @property
    def _q_idx(self) -> np.ndarray:
        """q variable ``k`` is column ``_q_idx[k]``."""
        return np.arange(self._d_group.size, self._d_group.size + len(self.slots))

    @property
    def _u_idx(self) -> np.ndarray:
        """u variable ``k`` (with an incumbent) is column ``_u_idx[k]``."""
        return np.arange(self._d_group.size + len(self.slots), self.lp.num_variables)

    def d_keys(self, columns: np.ndarray) -> Iterator[Tuple[str, int, int]]:
        """The ``(class_id, path position, chain step)`` keys of d columns."""
        return zip(
            self._class_ids[self._d_cls[columns]].tolist(),
            self._d_pos[columns].tolist(),
            self._d_step[columns].tolist(),
        )

    def set_rates(self, classes: Sequence[TrafficClass]) -> None:
        """Rewrite the Eq. 5 rate coefficients for a new snapshot."""
        rates = np.fromiter(map(_RATE, classes), float, len(classes))
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
        names = self._switch_names
        budgets = list(map(available_cores.get, names, repeat(0)))
        if len(self._use) == 2:  # memory is modelled
            budgets += map(available_memory_gb.get, names, repeat(0.0))
        self.lp.rhs[self._budget_rows] = budgets

    def set_incumbent(
        self, incumbent: Mapping[Slot, int], catalog: NFTypeCatalog
    ) -> None:
        """Write q_old (u's lower bounds), ε (u's costs) and the held cores
        of incumbent slots outside the model (off the Eq. 6 core rows'
        right-hand sides) for this solve; after :meth:`set_budgets`."""
        held = np.fromiter(map(incumbent.get, self.slots, repeat(0)), float)
        self._held = held
        rows = self._core_rows
        at = dict(zip(self._switch_names, rows.tolist()))
        modelled = set(self.slots)
        rhs = self.lp.rhs
        for slot, count in incumbent.items():
            row = at.get(slot[0])
            if row is not None and slot not in modelled:
                rhs[row] -= count * catalog.get(slot[1]).cores
        u = self._u_idx
        self.lp.lb[u] = held
        self.lp.c[u] = self._use[0] / (1.0 + rhs[rows].sum())

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


#: A q column's objective coefficient, lower and upper bound.
_Q_COLUMN = np.array([[1.0], [0.0], [np.inf]])
#: Integer operands as numpy scalars: a Python int costs numpy a
#: conversion on every call.
_ZERO, _ONE = np.intp(0), np.intp(1)


def _cumsum(counts: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum of an ``intp`` array (the ufunc directly: the
    ``cumsum`` method's dispatch costs more than the sum on tiny arrays)."""
    return np.add.accumulate(counts)


def _unique_inverse(codes: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in ``[0, bound)``,
    without the sort."""
    present = np.zeros(bound, dtype=np.intp)
    present[codes] = 1
    return present.nonzero()[0], (_cumsum(present) - _ONE)[codes]


def assemble_placement_lp(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    available_memory_gb: Optional[Mapping[str, float]],
    cap: Callable[[str], float],
    catalog: NFTypeCatalog,
    key: tuple = (),
    incumbent: Optional[Mapping[Slot, int]] = None,
) -> PlacementTemplate:
    """Assemble Eq. 1–6 for ``classes`` in the order the module pins, with
    the make-before-break block when ``incumbent`` (q_old) is non-empty."""
    hosts = sorted([sw for sw, free in available_cores.items() if free > 0])
    class_ids = list(map(_CLASS_ID, classes))
    paths = list(map(_PATH, classes))
    chains = list(map(_CHAIN, classes))
    # Each distinct chain once: where its NF ranks (less one) start in
    # ``chain_nf``.
    chain_at = dict.fromkeys(chains, 0)
    nf_names = sorted({nf for names in chain_at for nf in names})
    nf_rank = dict(zip(nf_names, range(-1, len(nf_names) - 1)))
    chain_nf: List[int] = []
    for names in chain_at:
        chain_at[names] = len(chain_nf)
        chain_nf.extend(map(nf_rank.__getitem__, names))
    n_classes, n_hosts, n_nf = len(classes), len(hosts), max(len(nf_names), 1)
    # A slot's code is ``host rank * n_nf + NF rank``: a host switch maps to
    # its first code + 1 (so the NF rank - 1 completes it), any other to 0.
    host_code = defaultdict(int, zip(hosts, range(1, n_hosts * n_nf + 1, n_nf)))

    # Host positions, from every path laid end to end: the path positions
    # whose switch is a host.  (A class without a chain owns no d column,
    # so its host positions are never read.)
    path_len = np.fromiter(map(len, paths), np.intp, n_classes)
    path_end = _cumsum(path_len)
    code = np.fromiter(
        map(host_code.__getitem__, chain.from_iterable(paths)),
        dtype=np.intp,
        count=path_end[-1] if n_classes else 0,
    )
    at_host = code.nonzero()[0]
    h_cls = path_end.searchsorted(at_host, "right")
    H = np.bincount(h_cls, minlength=n_classes)
    h_pos = at_host - (path_end - path_len)[h_cls]
    h_code = code[at_host]

    # Groups, one per (class, chain step), class-major: group g's Eq. 4 row
    # is row ``n_ub + g``, and past its class's first step it owns the
    # H - 1 order rows of its step, from row ``g_row0[g]`` on.
    J = np.fromiter(map(len, chains), np.intp, n_classes)
    g_cls = np.arange(n_classes).repeat(J)
    n_groups = g_cls.size
    g_j = np.arange(n_groups) - (_cumsum(J) - J)[g_cls]
    chain0 = np.fromiter(map(chain_at.__getitem__, chains), np.intp, n_classes)
    g_nf = np.array(chain_nf, dtype=np.intp)[chain0[g_cls] + g_j]
    g_H = H[g_cls]
    # A step's d columns hold a run of its own step's order rows past the
    # first step, and one of the next step's before the last.
    g_own = np.minimum(g_j, _ONE)
    g_runs = g_own.copy()
    g_runs[:-1] += g_own[1:]
    g_last = np.maximum(g_H - _ONE, _ZERO)  # the last stop, H - 2, plus one
    g_rows = g_last * g_own
    g_end = _cumsum(g_rows)
    g_row0 = g_end - g_rows
    n_order = g_end[-1] if n_groups else _ZERO

    # d columns: group g (class c, step j), then host position k.
    d_group = np.arange(n_groups).repeat(g_H)
    n_d = d_group.size
    col = np.arange(n_d)
    d_k = col - (_cumsum(g_H) - g_H)[d_group]
    d_host = d_k + (_cumsum(H) - H)[g_cls][d_group]
    d_cls = g_cls[d_group]

    # q columns: the sorted slots some d variable loads.
    slot_codes, d_slot = _unique_inverse(
        h_code[d_host] + g_nf[d_group], n_hosts * n_nf
    )
    slot_sw_rank, slot_nf = np.divmod(slot_codes, n_nf)
    n_slots = slot_codes.size
    slot_sw_list = slot_sw_rank.tolist()
    slots = list(
        zip(
            map(hosts.__getitem__, slot_sw_list),
            map(nf_names.__getitem__, slot_nf.tolist()),
        )
    )
    # The switches owning a slot, in order; switch ``k``'s Eq. 6 rows are
    # ``core_row0 + k`` and ``mem_row0 + k``.
    owning = dict.fromkeys(slot_sw_list)
    switch_names = list(map(hosts.__getitem__, owning))
    n_sw = len(switch_names)
    owning.update(zip(owning, range(n_sw)))
    slot_switch = np.fromiter(map(owning.__getitem__, slot_sw_list), np.intp, n_slots)
    # Per slot: −Cap_n, cores_n, memory_n (a q column's coefficients).
    sheet = np.fromiter(
        chain.from_iterable(
            (-cap(nf), nf_type.cores, nf_type.memory_gb)
            for nf, nf_type in zip(nf_names, map(catalog.get, nf_names))
        ),
        dtype=float,
        count=3 * len(nf_names),
    ).reshape(-1, 3)[slot_nf]
    with_memory = available_memory_gb is not None

    n_u = n_slots if incumbent else 0

    # Row layout.
    cap_row0 = n_order
    core_row0 = cap_row0 + n_slots
    mem_row0 = core_row0 + n_sw
    link_row0 = mem_row0 + (n_sw if with_memory else 0)
    n_ub = link_row0 + n_u
    n_rows = int(n_ub) + n_groups

    # Entries of each d column, rows ascending: +1 in its step's order rows
    # for stops k..H-2 (``n_own`` of them; none at step 0), −1 in the same
    # stops of the next step (the rows column (c, j+1, k), H columns on,
    # holds +1 in), its Eq. 5 row, its Eq. 4 row.  A q column holds its
    # Eq. 5 row, its Eq. 6 core row and, when modelled, its memory row (with
    # an incumbent, its link row in place of the core row, which u holds).
    n_cols = n_d + n_slots + n_u
    width = 3 if with_memory else 2
    stops = g_last[d_group] - d_k
    n_own = stops * g_own[d_group]
    counts = np.empty(n_cols, dtype=np.intp)
    counts[:n_d] = 2
    counts[n_d:] = width
    counts[n_d + n_slots :] = 2
    counts[:n_d] += stops * g_runs[d_group]
    indptr = np.zeros(n_cols + 1, dtype=np.int32)  # the width HiGHS takes
    indptr[1:] = _cumsum(counts)
    n_entries = int(indptr[-1])
    indices = np.empty(n_entries, dtype=np.int32)
    data = np.ones(n_entries)  # the +1 order and Eq. 4 coefficients

    # The order entries: one run of rows per column past its class's first
    # step, written twice (+1 in the column, −1 in the one H before it).
    owner = col.repeat(n_own)
    entry = np.arange(owner.size)
    shift = _cumsum(n_own) - n_own
    start = indptr[:n_d]
    prev = col - g_H[d_group]
    rows = (g_row0[d_group] + d_k - shift)[owner] + entry
    indices[(start - shift)[owner] + entry] = rows
    at = (start[prev] + n_own[prev] - shift)[owner] + entry
    indices[at] = rows
    data[at] = -1.0
    eq_at = indptr[1 : n_d + 1] - _ONE
    indices[eq_at] = d_group + n_ub
    rate_at = eq_at - _ONE
    indices[rate_at] = d_slot + cap_row0
    rates = np.fromiter(map(_RATE, classes), float, n_classes)
    data[rate_at] = rates[d_cls]
    q_rows = [np.arange(cap_row0, core_row0), slot_switch + core_row0]
    q_data = list(sheet[:, :width].T)
    if with_memory:
        q_rows.append(slot_switch + mem_row0)
    if incumbent:
        links = np.arange(link_row0, n_ub)
        ones = np.ones(n_slots)
        u_rows, u_data = [q_rows.pop(1), links], [q_data.pop(1), -ones]
        q_rows.append(links)
        q_data.append(ones)
        u_at = slice(indptr[n_d + n_slots], None)
        indices[u_at].reshape(n_slots, 2)[:] = np.array(u_rows).T
        data[u_at].reshape(n_slots, 2)[:] = np.array(u_data).T
    q_at = slice(indptr[n_d], indptr[n_d + n_slots])
    indices[q_at].reshape(n_slots, width)[:] = np.array(q_rows).T
    data[q_at].reshape(n_slots, width)[:] = np.array(q_data).T

    # Slot members in (slot, column) order, and where their rates sit.
    # (A stable sort of keys this small is a radix sort.)
    members = d_slot.astype(np.min_scalar_type(n_slots)).argsort(kind="stable")
    member_cls = d_cls[members]
    member_rates = rates[member_cls]
    stored = member_rates != 0.0
    rate_positions = rate_at[members][stored]

    # Exact-zero coefficients (a zero rate, a zero datasheet entry) are
    # dropped from the pattern; every other entry is ±1.
    reusable = bool(stored.all())
    if not (reusable and sheet[:, :width].all()):
        keep = data != 0.0
        entry_col = np.arange(n_cols).repeat(counts)
        rate_positions = keep.cumsum()[rate_positions] - 1
        indices, data = indices[keep], data[keep]
        indptr[1:] = np.bincount(entry_col[keep], minlength=n_cols).cumsum()

    # Per column: objective, bounds; per row: sides (the Eq. 6 right-hand
    # sides are the budgets, see set_budgets below; u's ε costs and lower
    # bounds are set_incumbent's, so the integer mask is the q columns).
    columns = np.zeros((3, n_cols))
    columns[:, n_d : n_d + n_slots] = _Q_COLUMN
    columns[2, :n_d] = 1.0
    columns[2, n_d + n_slots :] = np.inf
    sides = np.zeros((2, n_rows))
    sides[:, n_ub:] = 1.0
    sides[0, :n_ub] = -np.inf
    d_pos = h_pos[d_host]
    d_step = g_j[d_group]

    def var_name(col: int) -> str:
        # Reads the arrays, not the template: the template holds the LP,
        # which holds this function, and a cycle would outlive the cache.
        if col < n_d:
            return f"d[{class_ids[d_cls[col]]},{d_pos[col]},{d_step[col]}]"
        kind = "q" if col < n_d + n_slots else "u"
        return "{}[{},{}]".format(kind, *slots[(col - n_d) % n_slots])

    use_slack = np.zeros(link_row0 - core_row0)
    use_slack[n_sw:] = 1e-9
    template = PlacementTemplate(
        key=key,
        lp=LinearProgram(
            name="apple-placement",
            c=columns[0],
            indptr=indptr,
            indices=indices,
            data=data,
            lhs=sides[0],
            rhs=sides[1],
            lb=columns[1],
            ub=columns[2],
            n_ub=int(n_ub),
            integer_mask=columns[0] != 0.0,
            var_name=var_name,
        ),
        slots=slots,
        reusable=reusable,
        _class_ids=np.array(class_ids, dtype=object),
        _d_cls=d_cls,
        _d_pos=d_pos,
        _d_step=d_step,
        _d_group=d_group,
        _n_groups=n_groups,
        _member_slot_idx=d_slot[members],
        _member_var_idx=members,
        _member_class_idx=member_cls,
        _rate_positions=rate_positions,
        _rate_class_idx=member_cls[stored],
        _slot_cap=-sheet[:, 0],
        _slot_switch=slot_switch,
        _switch_names=switch_names,
        _member_rates=member_rates,
        _budget_rows=slice(int(core_row0), int(link_row0)),
        _use_bins=np.concatenate((slot_switch, slot_switch + n_sw))[: (width - 1) * n_slots],
        _use=sheet[:, 1:width].T.copy(),
        _use_slack=use_slack,
        _held=None,
    )
    template.set_budgets(available_cores, available_memory_gb)
    if incumbent:
        template.set_incumbent(incumbent, catalog)
    return template
