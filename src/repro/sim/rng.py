"""Seeded randomness for reproducible experiments.

Every stochastic component takes a :class:`SeededRNG` (or derives a child
stream from one) so each experiment is exactly reproducible given a seed.
Child streams are derived by hashing the parent seed with a label, which
decouples component randomness from the order components are created in.
"""

from __future__ import annotations

import math
import numbers
import zlib
from typing import Optional, Sequence, Tuple

import numpy as np


def derive(seed: int, label: str) -> int:
    """Derive the seed of an independent named substream.

    Every stochastic component of a run (traffic synthesis, chaos fault
    schedules, ...) seeds its generator with ``derive(run_seed, label)``
    instead of sharing (or offsetting) the run seed directly.  Streams are
    decoupled by construction: enabling one component never perturbs the
    draws of another, and the same ``(seed, label)`` pair always yields the
    same stream regardless of creation order.
    """
    mix = zlib.crc32(label.encode("utf-8"))
    return (int(seed) * 1_000_003 + mix) & 0x7FFFFFFF


def check_count(name: str, value: int) -> None:
    """Reject a draw count that is not a non-negative integer.

    The ``ValueError`` names the field, so a hostile config fails where it
    is built instead of being silently ignored by the generator.
    """
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def check_span(name: str, span: Tuple[float, float]) -> None:
    """Reject a ``(low, high)`` range a generator draws uniformly from.

    Both ends must be finite and non-negative, and ``low <= high``; the
    ``ValueError`` names the field (numpy would otherwise raise an
    ``OverflowError`` or ``high - low < 0`` from inside the draw).
    """
    lo, hi = span
    if not (0.0 <= lo < math.inf and 0.0 <= hi < math.inf):
        raise ValueError(f"{name} must be finite and non-negative, got {span!r}")
    if hi < lo:
        raise ValueError(f"{name} end precedes its start: {span!r}")


class SeededRNG:
    """Thin wrapper around :class:`numpy.random.Generator` with child streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def child(self, label: str) -> "SeededRNG":
        """Derive an independent stream keyed by ``label``.

        Seed derivation is :func:`derive`; see there for the guarantees.
        """
        return SeededRNG(derive(self.seed, label))

    # ------------------------------------------------------------------
    # Distribution helpers (delegate to numpy)
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if low == 0.0 and high == 1.0:
            # numpy's uniform(0, 1) is 0.0 + 1.0 * random(): the same double
            # from the same draw, without the argument broadcasting.
            return self._gen.random()
        return float(self._gen.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, items: Sequence, size: Optional[int] = None, replace: bool = True):
        """Uniform choice from a sequence (scalar when ``size`` is None)."""
        idx = self._gen.choice(len(items), size=size, replace=replace)
        if size is None:
            return items[int(idx)]
        return [items[int(i)] for i in idx]
