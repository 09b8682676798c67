"""Header-space predicates as unions of disjoint multi-field cubes.

The AP Verifier [44] represents packet sets as BDDs.  Here a packet set is
a :class:`Predicate`: a union of pairwise-disjoint :class:`Cube` objects,
each cube constraining every field to one integer interval.  Disjointness
is an invariant maintained by construction, which makes emptiness, volume,
and subset tests exact — everything atomic-predicate computation needs —
without a BDD library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.classify.fields import FieldSpace, HeaderField

Interval = Tuple[int, int]  # inclusive (lo, hi)


def _interval_intersect(a: Interval, b: Interval) -> Optional[Interval]:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def _interval_subtract(a: Interval, b: Interval) -> List[Interval]:
    """Parts of ``a`` not covered by ``b`` (0, 1 or 2 intervals)."""
    inter = _interval_intersect(a, b)
    if inter is None:
        return [a]
    out = []
    if a[0] < inter[0]:
        out.append((a[0], inter[0] - 1))
    if inter[1] < a[1]:
        out.append((inter[1] + 1, a[1]))
    return out


@dataclass(frozen=True)
class Cube:
    """One rectangular region: each field constrained to one interval.

    ``intervals`` maps field name → inclusive (lo, hi).  Fields absent from
    the map are unconstrained (full domain).
    """

    space: FieldSpace
    intervals: Tuple[Tuple[str, Interval], ...]

    @staticmethod
    def make(space: FieldSpace, constraints: Optional[Dict[str, Interval]] = None) -> "Cube":
        """Build a cube from a {field: (lo, hi)} dict, validating bounds."""
        items: List[Tuple[str, Interval]] = []
        for name, (lo, hi) in sorted((constraints or {}).items()):
            fld = space.field(name)
            if not 0 <= lo <= hi <= fld.max_value:
                raise ValueError(
                    f"interval ({lo}, {hi}) out of range for field {name!r}"
                )
            if (lo, hi) != (0, fld.max_value):  # drop trivial constraints
                items.append((name, (lo, hi)))
        return Cube(space, tuple(items))

    # ------------------------------------------------------------------
    def interval_of(self, field: HeaderField) -> Interval:
        """The (possibly full-domain) interval constraining ``field``."""
        for name, iv in self.intervals:
            if name == field.name:
                return iv
        return (0, field.max_value)

    def volume(self) -> int:
        """Number of headers in the cube."""
        vol = 1
        for f in self.space.fields:
            lo, hi = self.interval_of(f)
            vol *= hi - lo + 1
        return vol

    def contains(self, header: Dict[str, int]) -> bool:
        """Membership test for a concrete header (missing fields = 0)."""
        for f in self.space.fields:
            lo, hi = self.interval_of(f)
            v = header.get(f.name, 0)
            if not lo <= v <= hi:
                return False
        return True

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """Cube intersection, or None when empty."""
        constraints: Dict[str, Interval] = {}
        for f in self.space.fields:
            iv = _interval_intersect(self.interval_of(f), other.interval_of(f))
            if iv is None:
                return None
            constraints[f.name] = iv
        return Cube.make(self.space, constraints)

    def subtract(self, other: "Cube") -> List["Cube"]:
        """``self − other`` as pairwise-disjoint cubes.

        Standard per-field carving: for each field, split off the part of
        ``self`` outside ``other``'s interval, shrinking the remainder.
        """
        inter = self.intersect(other)
        if inter is None:
            return [self]
        pieces: List[Cube] = []
        remainder: Dict[str, Interval] = {
            f.name: self.interval_of(f) for f in self.space.fields
        }
        for f in self.space.fields:
            mine = remainder[f.name]
            theirs = other.interval_of(f)
            for part in _interval_subtract(mine, theirs):
                constraints = dict(remainder)
                constraints[f.name] = part
                pieces.append(Cube.make(self.space, constraints))
            clipped = _interval_intersect(mine, theirs)
            assert clipped is not None
            remainder[f.name] = clipped
        return pieces


class Predicate:
    """A packet set: a union of pairwise-disjoint cubes over one space."""

    def __init__(self, space: FieldSpace, cubes: Iterable[Cube] = ()) -> None:
        self.space = space
        self.cubes: Tuple[Cube, ...] = tuple(c for c in cubes if c.volume() > 0)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def everything(space: FieldSpace) -> "Predicate":
        return Predicate(space, [Cube.make(space)])

    @staticmethod
    def nothing(space: FieldSpace) -> "Predicate":
        return Predicate(space, [])

    @staticmethod
    def of_cube(cube: Cube) -> "Predicate":
        return Predicate(cube.space, [cube])

    # ------------------------------------------------------------------
    # Algebra (results keep the disjointness invariant)
    # ------------------------------------------------------------------
    def intersect(self, other: "Predicate") -> "Predicate":
        out: List[Cube] = []
        for a in self.cubes:
            for b in other.cubes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return Predicate(self.space, out)

    def subtract(self, other: "Predicate") -> "Predicate":
        remaining = list(self.cubes)
        for b in other.cubes:
            nxt: List[Cube] = []
            for a in remaining:
                nxt.extend(a.subtract(b))
            remaining = nxt
        return Predicate(self.space, remaining)

    def complement(self) -> "Predicate":
        return Predicate.everything(self.space).subtract(self)

    def union(self, other: "Predicate") -> "Predicate":
        """Disjoint union: ``self ∪ (other − self)``."""
        return Predicate(
            self.space, list(self.cubes) + list(other.subtract(self).cubes)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.cubes

    def volume(self) -> int:
        """Exact header count (cubes are disjoint)."""
        return sum(c.volume() for c in self.cubes)

    def contains(self, header: Dict[str, int]) -> bool:
        return any(c.contains(header) for c in self.cubes)

    def equals(self, other: "Predicate") -> bool:
        """Semantic equality via symmetric difference emptiness."""
        return self.subtract(other).is_empty() and other.subtract(self).is_empty()

    def overlaps(self, other: "Predicate") -> bool:
        return not self.intersect(other).is_empty()

    def __repr__(self) -> str:
        return f"Predicate(cubes={len(self.cubes)}, volume={self.volume()})"
