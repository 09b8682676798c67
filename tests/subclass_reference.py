"""The sub-class construction as first written: the oracle of the rewrite.

:func:`repro.core.subclasses.assign_subclasses` groups the plan's portions
per class in one pass and overlays the chain steps' partitions only when a
step has more than one piece.  This module keeps the construction it
replaced — one ``plan.portion`` lookup per (path position, chain step),
the cut-set overlay run for every class — shares no code with it, and is
compared against it bit for bit (``tests/test_subclass_differential.py``).

Two changes from the original, matching the program: a portion of zero
mass (a zero-rate class) gets its full width on the slot's first instance,
where the original allocator handed back no piece and the class failed
with "chain step has no portions"; and a sliver (0 < mass ≤ ``EPS``) keeps
its full width on the slot's current instance, where the original dropped
it and the step's last piece took its width.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.core.placement import InstanceRef, PlacementPlan
from repro.core.subclasses import Subclass, SubclassAssignmentError, SubclassPlan
from repro.traffic.classes import TrafficClass

EPS = 1e-9

#: How often each of the allocator's special rules has fired, so a test can
#: show its inputs reach them.
RULES: Counter = Counter()


class SlotAllocator:
    """Fills a (switch, NF) slot's q instances in order, each up to its
    fair-share target; hands out (mass, instance) pieces."""

    def __init__(self, refs: List[InstanceRef], total_load: float) -> None:
        self.refs = refs
        target = total_load / len(refs) if refs else 0.0
        self.remaining = [target] * len(refs)
        self._cursor = 0

    def take(self, mass: float) -> List[Tuple[float, InstanceRef]]:
        if mass == 0.0:
            RULES["zero mass"] += 1
            return [(0.0, self.refs[0])]
        pieces: List[Tuple[float, InstanceRef]] = []
        left = mass
        while left > EPS:
            if self._cursor >= len(self.refs):
                # Numerical slack: dump the residue on the last instance.
                RULES["residue"] += 1
                pieces.append((left, self.refs[-1]))
                break
            avail = self.remaining[self._cursor]
            if avail <= EPS:
                RULES["skip a full instance"] += 1
                self._cursor += 1
                continue
            bite = min(left, avail)
            if bite < left:
                RULES["split across instances"] += 1
            self.remaining[self._cursor] -= bite
            pieces.append((bite, self.refs[self._cursor]))
            left -= bite
        return pieces


def reference_assign(plan: PlacementPlan) -> SubclassPlan:
    """The original ``assign_subclasses``."""
    refs_by_slot: Dict[Tuple[str, str], List[InstanceRef]] = {}
    for ref in plan.instance_refs():
        refs_by_slot.setdefault((ref.switch, ref.nf), []).append(ref)
    allocators: Dict[Tuple[str, str], SlotAllocator] = {
        slot: SlotAllocator(refs, load)
        for slot, load in plan.load_by_slot().items()
        for refs in [refs_by_slot.get(slot, [])]
        if refs
    }

    by_class: Dict[str, List[Subclass]] = {}
    instance_load: Dict[InstanceRef, float] = {}

    for cls in sorted(plan.classes, key=lambda c: c.class_id):
        pieces_per_step = pieces_for_class(cls, plan, allocators)
        subs = merge_steps(cls, pieces_per_step)
        by_class[cls.class_id] = subs
        for sub in subs:
            for ref in sub.instance_seq:
                instance_load[ref] = (
                    instance_load.get(ref, 0.0) + sub.weight * cls.rate_mbps
                )
        check_order(cls, subs)

    return SubclassPlan(by_class=by_class, instance_load=instance_load)


def pieces_for_class(
    cls: TrafficClass,
    plan: PlacementPlan,
    allocators: Dict[Tuple[str, str], SlotAllocator],
) -> List[List[Tuple[float, float, InstanceRef]]]:
    """Per chain step: (hash_lo, hash_hi, instance) pieces covering [0, 1)."""
    steps: List[List[Tuple[float, float, InstanceRef]]] = []
    for j, nf in enumerate(cls.chain):
        pieces: List[Tuple[float, float, InstanceRef]] = []
        cursor = 0.0
        for i in range(cls.path_length):
            frac = plan.portion(cls.class_id, i, j)
            if frac <= EPS:
                continue
            slot = (cls.path[i], nf)
            allocator = allocators.get(slot)
            if allocator is None:
                raise SubclassAssignmentError(
                    f"class {cls.class_id!r}: distribution uses slot {slot} "
                    "but no instance is placed there"
                )
            mass = frac * cls.rate_mbps
            if 0.0 < mass <= EPS:
                RULES["sliver"] += 1
                ref = allocator.refs[min(allocator._cursor, len(allocator.refs) - 1)]
                pieces.append((cursor, min(cursor + frac, 1.0), ref))
                cursor += frac
                continue
            for bite, ref in allocator.take(mass):
                width = (bite / mass) * frac if mass > 0 else frac
                pieces.append((cursor, min(cursor + width, 1.0), ref))
                cursor += width
        if not pieces:
            raise SubclassAssignmentError(
                f"class {cls.class_id!r}: chain step {j} has no portions"
            )
        # Snap the tail to exactly 1.0 (floating-point dust).
        lo, _, ref = pieces[-1]
        pieces[-1] = (lo, 1.0, ref)
        steps.append(pieces)
    return steps


def merge_steps(
    cls: TrafficClass,
    steps: List[List[Tuple[float, float, InstanceRef]]],
) -> List[Subclass]:
    """Overlay every step's partition of [0, 1) into final sub-classes."""
    bounds = {0.0, 1.0}
    for pieces in steps:
        for lo, hi, _ in pieces:
            bounds.add(lo)
            bounds.add(hi)
    ordered = sorted(bounds)
    subs: List[Subclass] = []
    for lo, hi in zip(ordered, ordered[1:]):
        if hi - lo <= EPS:
            continue
        mid = (lo + hi) / 2.0
        seq = tuple(piece_at(pieces, mid) for pieces in steps)
        subs.append(
            Subclass(
                class_id=cls.class_id,
                sub_id=len(subs),
                hash_range=(lo, hi),
                instance_seq=seq,
            )
        )
    return subs


def piece_at(
    pieces: List[Tuple[float, float, InstanceRef]], point: float
) -> InstanceRef:
    for lo, hi, ref in pieces:
        if lo <= point < hi:
            return ref
    # point sits in floating-point dust between pieces; take the nearest.
    best = min(pieces, key=lambda p: min(abs(p[0] - point), abs(p[1] - point)))
    return best[2]


def check_order(cls: TrafficClass, subs: List[Subclass]) -> None:
    """Every sub-class's switches must be non-decreasing along the path."""
    pos = {sw: i for i, sw in enumerate(cls.path)}
    for sub in subs:
        indices = [pos[sw] for sw in sub.switches()]
        if any(b < a for a, b in zip(indices, indices[1:])):
            raise SubclassAssignmentError(
                f"class {cls.class_id!r} sub-class {sub.sub_id}: instance "
                f"sequence {sub.switches()} violates path order"
            )
