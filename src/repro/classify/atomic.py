"""Atomic-predicate computation (Yang–Lam [44], cube-based).

Given the set of predicates appearing in the network's rules/policies, the
*atomic predicates* are the coarsest partition of header space such that
every input predicate is exactly a union of atoms.  APPLE uses them to
aggregate flows into equivalence classes (Sec. IV-A): two flows are in the
same class iff they fall in the same atom (and share a path).

Algorithm: start from the single atom "everything"; refine by each input
predicate P, replacing every atom A by the non-empty parts of A∩P and A−P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.classify.fields import FieldSpace
from repro.classify.predicates import Predicate


@dataclass
class AtomicPredicates:
    """The result of atomic-predicate computation.

    Attributes:
        space: the header space partitioned.
        atoms: the disjoint atomic predicates covering the space.
        labels: for each input predicate index, the set of atom indices
            whose union equals that predicate.
    """

    space: FieldSpace
    atoms: List[Predicate]
    labels: List[FrozenSet[int]]

    def atom_of_header(self, header: Dict[str, int]) -> int:
        """Index of the (unique) atom containing a concrete header."""
        for i, atom in enumerate(self.atoms):
            if atom.contains(header):
                return i
        raise ValueError(f"header {header} not in any atom (partition broken)")

    def equivalence_key(self, header: Dict[str, int]) -> FrozenSet[int]:
        """The set of input predicates matching this header's atom.

        Two headers with equal keys are indistinguishable by every input
        predicate — the equivalence-class relation of Sec. IV-A.
        """
        atom = self.atom_of_header(header)
        return frozenset(
            p for p, atom_set in enumerate(self.labels) if atom in atom_set
        )

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def verify_partition(self) -> bool:
        """Check atoms are pairwise disjoint and cover the space (test hook)."""
        total = sum(a.volume() for a in self.atoms)
        if total != self.space.total_volume():
            return False
        for i in range(len(self.atoms)):
            for j in range(i + 1, len(self.atoms)):
                if self.atoms[i].overlaps(self.atoms[j]):
                    return False
        return True


def compute_atomic_predicates(
    space: FieldSpace, predicates: Sequence[Predicate]
) -> AtomicPredicates:
    """Compute atomic predicates for the given inputs.

    Complexity is output-sensitive: each refinement at most doubles the atom
    count, and empty intersections are discarded immediately.
    """
    for p in predicates:
        if p.space is not space and p.space.fields != space.fields:
            raise ValueError("all predicates must share the field space")

    atoms: List[Predicate] = [Predicate.everything(space)]
    # memberships[k] = set of input-predicate indices fully containing atom k
    memberships: List[Set[int]] = [set()]

    for p_idx, pred in enumerate(predicates):
        new_atoms: List[Predicate] = []
        new_memberships: List[Set[int]] = []
        for atom, members in zip(atoms, memberships):
            inside = atom.intersect(pred)
            outside = atom.subtract(pred)
            if not inside.is_empty():
                new_atoms.append(inside)
                new_memberships.append(members | {p_idx})
            if not outside.is_empty():
                new_atoms.append(outside)
                new_memberships.append(set(members))
        atoms = new_atoms
        memberships = new_memberships

    labels: List[FrozenSet[int]] = []
    for p_idx in range(len(predicates)):
        labels.append(
            frozenset(k for k, members in enumerate(memberships) if p_idx in members)
        )
    return AtomicPredicates(space=space, atoms=atoms, labels=labels)
