"""Sub-class assignment: from spatial distribution d to instance sequences.

Sec. V: "Policy enforcement is on per-flow basis, even though the
Optimization Engine operates on classes ... we define the aggregation of
flows within a class that traverse the same VNF instances as a sub-class."

Construction (monotone coupling): treat the class's hash domain [0, 1) as
the quantile axis.  For each chain step j, the plan's marginals d_{h,j}^i
partition [0, 1) into intervals served at successive path positions; the
ordering constraint Eq. 3 guarantees that stacking all steps' partitions
yields instance sequences whose switch positions are non-decreasing along
the chain — i.e. every sub-class's instance sequence respects the path
order requirement of Sec. IV-D.

Within a (switch, NF) slot that has q > 1 instances, hash intervals are
further split so each instance carries at most its fair share
L_vn / q ≤ Cap_n (feasible by Eq. 5), balancing "the responsibility of
each VNF instance" (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Tuple

from repro.core.placement import InstanceRef, PlacementPlan
from repro.traffic.classes import TrafficClass

_EPS = 1e-9


@dataclass(frozen=True)
class Subclass:
    """One sub-class: a hash interval mapped to a fixed instance sequence.

    Attributes:
        class_id: owning class.
        sub_id: sub-class ID (local to the class; multiplexable tag value).
        hash_range: the [lo, hi) slice of the class's hash domain.
        instance_seq: the instances traversed, one per chain position.
    """

    class_id: str
    sub_id: int
    hash_range: Tuple[float, float]
    instance_seq: Tuple[InstanceRef, ...]

    @property
    def weight(self) -> float:
        """Fraction of the class's traffic this sub-class carries."""
        return self.hash_range[1] - self.hash_range[0]

    def covers(self, flow_hash: float) -> bool:
        return self.hash_range[0] <= flow_hash < self.hash_range[1]

    def switches(self) -> Tuple[str, ...]:
        """Processing switches in chain order."""
        return tuple(ref.switch for ref in self.instance_seq)


class SubclassAssignmentError(RuntimeError):
    """Raised when the plan's distribution cannot be realised."""


@dataclass
class SubclassPlan:
    """All sub-classes of all classes, plus instance-load bookkeeping."""

    by_class: Dict[str, List[Subclass]]
    instance_load: Dict[InstanceRef, float]

    def subclasses(self, class_id: str) -> List[Subclass]:
        try:
            return self.by_class[class_id]
        except KeyError:
            raise KeyError(f"unknown class {class_id!r}") from None

    def subclass_for_hash(self, class_id: str, flow_hash: float) -> Subclass:
        """The sub-class a flow hashing to ``flow_hash`` belongs to."""
        for sub in self.subclasses(class_id):
            if sub.covers(flow_hash):
                return sub
        raise KeyError(f"hash {flow_hash} uncovered in class {class_id!r}")

    def max_subclasses_per_class(self) -> int:
        """Sizing input for the sub-class tag field (IDs are multiplexed)."""
        return max((len(v) for v in self.by_class.values()), default=0)

    def total_subclasses(self) -> int:
        return sum(len(v) for v in self.by_class.values())


class _SlotAllocator:
    """Splits a (switch, NF) slot's load across its q instances.

    Instances are filled in order, each up to its fair-share target; the
    caller receives (mass, instance) pieces.  A portion of zero mass (a
    zero-rate class) is one piece on the first instance and consumes
    nothing.  ``_step_pieces`` takes a mass the current instance has room
    for itself, without calling :meth:`take`.
    """

    __slots__ = ("refs", "remaining", "cursor")

    def __init__(self, refs: List[InstanceRef], total_load: float) -> None:
        self.refs = refs
        target = total_load / len(refs) if refs else 0.0
        self.remaining = [target] * len(refs)
        self.cursor = 0

    def take(self, mass: float) -> List[Tuple[float, InstanceRef]]:
        if mass == 0.0:
            return [(0.0, self.refs[0])]
        pieces: List[Tuple[float, InstanceRef]] = []
        left = mass
        remaining = self.remaining
        while left > _EPS:
            if self.cursor >= len(self.refs):
                # Numerical slack: dump the residue on the last instance.
                pieces.append((left, self.refs[-1]))
                break
            avail = remaining[self.cursor]
            if avail <= _EPS:
                self.cursor += 1
                continue
            bite = min(left, avail)
            remaining[self.cursor] -= bite
            pieces.append((bite, self.refs[self.cursor]))
            left -= bite
        return pieces


def assign_subclasses(plan: PlacementPlan) -> SubclassPlan:
    """Realise a placement plan as concrete sub-classes.

    The plan's portions above the dust threshold are grouped per (class,
    chain step) in one pass over ``plan.distribution``; each class then
    takes its pieces from the slot allocators in (class id, chain step,
    path position) order, so the allocators see the same sequence of takes
    whatever order the distribution is stored in.

    Raises:
        SubclassAssignmentError: the distribution references a (switch, NF)
            pair with no placed instance, or produces a sequence violating
            path order (would indicate an engine bug).
    """
    refs_by_slot: Dict[Tuple[str, str], List[InstanceRef]] = {}
    for ref in plan.instance_refs():
        refs_by_slot.setdefault((ref.switch, ref.nf), []).append(ref)
    allocators: Dict[Tuple[str, str], _SlotAllocator] = {
        slot: _SlotAllocator(refs, load)
        for slot, load in plan.load_by_slot().items()
        for refs in [refs_by_slot.get(slot, [])]
        if refs
    }
    # d_{h,j}^i above the dust threshold, per (class, chain step).
    portions: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
    for (class_id, i, j), frac in plan.distribution.items():
        if frac <= _EPS:
            continue
        found = portions.get((class_id, j))
        if found is None:
            portions[class_id, j] = [(i, frac)]
        else:
            found.append((i, frac))

    by_class: Dict[str, List[Subclass]] = {}
    instance_load: Dict[InstanceRef, float] = {}
    load_get = instance_load.get

    for cls in sorted(plan.classes, key=attrgetter("class_id")):
        class_id = cls.class_id
        subs = _overlay(class_id, _step_pieces(cls, portions, allocators))
        by_class[class_id] = subs
        rate = cls.rate_mbps
        path = cls.path
        pos = dict(zip(path, range(len(path))))
        for sub in subs:
            lo, hi = sub.hash_range
            load = (hi - lo) * rate
            last = -1
            for ref in sub.instance_seq:
                instance_load[ref] = load_get(ref, 0.0) + load
                # Switches must be non-decreasing along the path.
                at = pos[ref.switch]
                if at < last:
                    raise SubclassAssignmentError(
                        f"class {class_id!r} sub-class {sub.sub_id}: instance "
                        f"sequence {sub.switches()} violates path order"
                    )
                last = at

    return SubclassPlan(by_class=by_class, instance_load=instance_load)


def _step_pieces(
    cls: TrafficClass,
    portions: Dict[Tuple[str, int], List[Tuple[int, float]]],
    allocators: Dict[Tuple[str, str], _SlotAllocator],
) -> List[List[Tuple[float, float, InstanceRef]]]:
    """Per chain step: (hash_lo, hash_hi, instance) pieces covering [0, 1).

    Each step takes its portions in path order from the slot allocators.
    A step whose every portion is too small for an allocator to cut (mass
    at most ``_EPS``: a class placed at a near-zero rate) keeps each
    portion's width on its slot's current instance, consuming nothing.
    """
    class_id = cls.class_id
    path = cls.path
    path_length = len(path)
    rate = cls.rate_mbps
    steps: List[List[Tuple[float, float, InstanceRef]]] = []
    for j, nf in enumerate(cls.chain.names):
        found = portions.get((class_id, j), ())
        if len(found) > 1:
            found.sort()
        pieces: List[Tuple[float, float, InstanceRef]] = []
        cursor = 0.0
        for i, frac in found:
            if not 0 <= i < path_length:
                continue
            slot = (path[i], nf)
            allocator = allocators.get(slot)
            if allocator is None:
                raise SubclassAssignmentError(
                    f"class {class_id!r}: distribution uses slot {slot} "
                    "but no instance is placed there"
                )
            mass = frac * rate
            remaining = allocator.remaining
            at = allocator.cursor
            if at < len(remaining) and _EPS < mass <= remaining[at]:
                # The current instance has room for all of it: one bite
                # (``take``'s first bite, its width as the loop below has it).
                remaining[at] -= mass
                width = (mass / mass) * frac
                pieces.append((cursor, min(cursor + width, 1.0), allocator.refs[at]))
                cursor += width
                continue
            for bite, ref in allocator.take(mass):
                width = (bite / mass) * frac if mass > 0 else frac
                pieces.append((cursor, min(cursor + width, 1.0), ref))
                cursor += width
        if not pieces:
            for i, frac in found:
                if 0 <= i < path_length:
                    allocator = allocators[path[i], nf]
                    ref = allocator.refs[min(allocator.cursor, len(allocator.refs) - 1)]
                    pieces.append((cursor, min(cursor + frac, 1.0), ref))
                    cursor += frac
        if not pieces:
            raise SubclassAssignmentError(
                f"class {class_id!r}: chain step {j} has no portions"
            )
        # Snap the tail to exactly 1.0 (floating-point dust).
        lo, _, ref = pieces[-1]
        pieces[-1] = (lo, 1.0, ref)
        steps.append(pieces)
    return steps


def _overlay(
    class_id: str,
    steps: List[List[Tuple[float, float, InstanceRef]]],
) -> List[Subclass]:
    """Overlay every step's partition of [0, 1) into final sub-classes.

    The cuts are every piece's bounds; each cell between consecutive cuts
    wider than the dust threshold is a sub-class, served at each step by
    the piece holding the cell's midpoint.  A step of one piece spans
    ``[0, 1)`` and adds no cut, so a class whose every step is one piece
    is one sub-class.
    """
    if sum(map(len, steps)) == len(steps):  # every step is one piece
        seq = tuple([pieces[0][2] for pieces in steps])
        return [Subclass(class_id, 0, (0.0, 1.0), seq)]
    bounds = {0.0, 1.0}
    for pieces in steps:
        for lo, hi, _ in pieces:
            bounds.add(lo)
            bounds.add(hi)
    ordered = sorted(bounds)
    subs: List[Subclass] = []
    for lo, hi in zip(ordered, ordered[1:]):
        if hi - lo <= _EPS:
            continue
        mid = (lo + hi) / 2.0
        seq = tuple(_piece_at(pieces, mid) for pieces in steps)
        subs.append(Subclass(class_id, len(subs), (lo, hi), seq))
    return subs


def _piece_at(
    pieces: List[Tuple[float, float, InstanceRef]], point: float
) -> InstanceRef:
    for lo, hi, ref in pieces:
        if lo <= point < hi:
            return ref
    # point sits in floating-point dust between pieces; take the nearest.
    best = min(pieces, key=lambda p: min(abs(p[0] - point), abs(p[1] - point)))
    return best[2]
