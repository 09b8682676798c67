"""Consistent flow hashing: map concrete 5-tuples onto the hash domain.

Sec. V-A's first sub-class realisation assumes "flows are uniformly hashed
to [0, 1)".  This module provides that hash for concrete packet headers, so
experiments can drive the data plane with realistic 5-tuples instead of
synthetic ``flow_hash`` values, and tests can check that the hash-range and
prefix realisations of a sub-class agree.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

#: Header fields participating in the flow hash, in canonical order.
FLOW_KEY_FIELDS: Tuple[str, ...] = (
    "src_ip",
    "dst_ip",
    "proto",
    "src_port",
    "dst_port",
)

_DOMAIN = 1 << 64


def flow_hash(header: Dict[str, int]) -> float:
    """Uniform hash of a header's flow key into [0, 1).

    Deterministic across processes (blake2b-based, not the salted
    :func:`hash`), stable under missing fields (treated as 0) and
    insensitive to dict order; well-mixed even for sequential keys.
    """
    key = "|".join(str(int(header.get(f, 0))) for f in FLOW_KEY_FIELDS)
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / _DOMAIN


def suffix_hash(header: Dict[str, int], class_prefix_len: int = 24) -> float:
    """Hash based only on the source-address host bits within a class.

    This mirrors the *prefix* realisation of sub-classes: a class covering
    ``10.1.1.0/24`` splits its flows by the last ``32 - prefix_len`` bits
    of the source address, so ``<10.1.1.128/25>`` captures exactly the
    flows whose suffix hash is in [0.5, 1).
    """
    if not 0 <= class_prefix_len <= 32:
        raise ValueError("class_prefix_len must be in 0..32")
    host_bits = 32 - class_prefix_len
    if host_bits == 0:
        return 0.0
    suffix = int(header.get("src_ip", 0)) & ((1 << host_bits) - 1)
    return suffix / (1 << host_bits)


#: Step of the replay workloads' cycling flow-hash sequence; coprime-ish
#: with 1.0 so consecutive packets spread across the hash domain (and all
#: sub-class hash ranges see traffic proportional to their width).
CYCLE_STEP = 0.137


def cycling_hashes(count: int, start: int = 1, step: float = CYCLE_STEP):
    """Vectorized ``(k * step) % 1.0`` for ``k = start .. start+count-1``.

    The replay experiments derive per-packet flow hashes from a per-class
    packet counter via exactly that scalar expression; the columnar
    walker needs the same sequence as a float64 array.  For the
    non-negative products involved, ``numpy.mod`` and Python's ``%``
    both reduce to C ``fmod``, so the array is bit-identical to the
    scalar loop (asserted in tests).
    """
    import numpy as np

    k = np.arange(start, start + count, dtype=np.float64)
    return np.mod(k * step, 1.0)


def hash_spread(headers: Iterable[Dict[str, int]], buckets: int = 10) -> list:
    """Histogram of flow hashes (uniformity check used in tests)."""
    counts = [0] * buckets
    for h in headers:
        counts[min(int(flow_hash(h) * buckets), buckets - 1)] += 1
    return counts
