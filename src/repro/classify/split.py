"""Sub-class realisation: hash ranges and their prefix-set equivalents.

Sec. V-A defines a sub-class as the flows of a class that traverse the same
VNF-instance sequence, and proposes two realisations:

1. *Consistent hashing* — ``<10.1.1.0/24, h ∈ [0, 0.5)>`` — ideal but not
   supported by hardware switches.
2. *Prefix splitting* — ``<10.1.1.128/25>`` — implementable with wildcard
   TCAM rules, at the cost of possibly several rules per sub-class.

This module converts a target fraction interval into the minimal CIDR set
covering the corresponding address sub-range, and reports the rule count —
the TCAM cost that motivates the tagging scheme (Sec. V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


def range_to_cidrs(lo: int, hi: int, bits: int = 32) -> List[Tuple[int, int]]:
    """Minimal CIDR cover of the inclusive integer range ``[lo, hi]``.

    Returns (base, prefix_len) pairs.  Standard greedy algorithm: repeatedly
    take the largest aligned block starting at ``lo`` that fits.
    """
    if lo > hi:
        raise ValueError(f"empty range ({lo}, {hi})")
    if lo < 0 or hi >= (1 << bits):
        raise ValueError(f"range ({lo}, {hi}) outside {bits}-bit space")
    cidrs: List[Tuple[int, int]] = []
    while lo <= hi:
        # Largest block aligned at lo: limited by lo's trailing zeros...
        max_align = lo & -lo if lo else 1 << bits
        # ...and by the remaining span.
        span = hi - lo + 1
        block = max_align
        while block > span:
            block >>= 1
        plen = bits - block.bit_length() + 1
        cidrs.append((lo, plen))
        lo += block
    return cidrs


def range_to_cidr_count(lo: int, hi: int, bits: int = 32) -> int:
    """Number of CIDR blocks needed for ``[lo, hi]`` (TCAM entries)."""
    return len(range_to_cidrs(lo, hi, bits=bits))


def fraction_to_prefixes(
    class_prefix: str, frac_lo: float, frac_hi: float
) -> List[str]:
    """Prefixes realising the fraction interval ``[frac_lo, frac_hi)`` of a class.

    The class's address block is treated as the hash domain: the fraction
    interval maps to an address sub-range, which is covered by a minimal
    CIDR set.  ``fraction_to_prefixes("10.1.1.0/24", 0.5, 1.0)`` returns
    ``["10.1.1.128/25"]`` — the paper's worked example.

    Boundaries are rounded identically for adjacent intervals, so the
    prefix sets of a split's consecutive sub-classes tile the block with
    no overlap.  An interval narrower than one address after rounding gets
    no prefixes (its share is below the hardware's resolution).
    """
    from repro.classify.rules import format_prefix, parse_prefix

    if not 0.0 <= frac_lo < frac_hi <= 1.0:
        raise ValueError(f"need 0 <= frac_lo < frac_hi <= 1, got ({frac_lo}, {frac_hi})")
    base_lo, base_hi = parse_prefix(class_prefix)
    size = base_hi - base_lo + 1
    start = base_lo + int(round(frac_lo * size))
    stop = base_lo + int(round(frac_hi * size)) - 1
    if stop < start:
        return []  # narrower than one address at this block size
    return [format_prefix(lo, plen) for lo, plen in range_to_cidrs(start, stop)]


@dataclass(frozen=True)
class SubclassSplit:
    """A class split into weighted sub-class hash ranges.

    Attributes:
        class_prefix: the class's wildcard block (hash domain).
        boundaries: the cumulative split points; sub-class ``i`` owns the
            hash interval ``[boundaries[i], boundaries[i+1])``.
    """

    class_prefix: str
    boundaries: Tuple[float, ...]

    @staticmethod
    def from_weights(class_prefix: str, weights: List[float]) -> "SubclassSplit":
        """Split by normalised weights (one hash range per sub-class)."""
        if not weights or any(w < 0 for w in weights):
            raise ValueError("weights must be non-empty and non-negative")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        bounds = [0.0]
        acc = 0.0
        for w in weights:
            acc += w / total
            bounds.append(min(acc, 1.0))
        bounds[-1] = 1.0
        return SubclassSplit(class_prefix, tuple(bounds))

    @property
    def num_subclasses(self) -> int:
        return len(self.boundaries) - 1

    def hash_range(self, i: int) -> Tuple[float, float]:
        """Sub-class ``i``'s hash interval ``[lo, hi)``."""
        return (self.boundaries[i], self.boundaries[i + 1])

    def weight(self, i: int) -> float:
        lo, hi = self.hash_range(i)
        return hi - lo

    def prefixes(self, i: int) -> List[str]:
        """Prefix realisation of sub-class ``i`` (the hardware method)."""
        lo, hi = self.hash_range(i)
        if hi <= lo:
            return []
        return fraction_to_prefixes(self.class_prefix, lo, hi)

    def total_prefix_rules(self) -> int:
        """TCAM entries for the whole split under the prefix method."""
        return sum(len(self.prefixes(i)) for i in range(self.num_subclasses) if self.weight(i) > 0)

    def subclass_of_hash(self, h: float) -> int:
        """Which sub-class a flow with hash value ``h`` ∈ [0,1) belongs to."""
        if not 0.0 <= h < 1.0:
            raise ValueError(f"hash value must be in [0, 1), got {h}")
        for i in range(self.num_subclasses):
            lo, hi = self.hash_range(i)
            if lo <= h < hi:
                return i
        # h falls in a zero-width trailing range; return the last non-empty.
        for i in reversed(range(self.num_subclasses)):
            if self.weight(i) > 0:
                return i
        raise ValueError("split has no non-empty sub-class")
