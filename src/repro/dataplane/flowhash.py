"""Flow hashes on the hash domain [0, 1).

Sec. V-A's first sub-class realisation assumes "flows are uniformly hashed
to [0, 1)".  The replay workloads drive the data plane with a cycling
per-class hash sequence (:func:`cycling_hashes`); :func:`suffix_hash` is
the source-suffix hash of the prefix realisation, so tests can check that
the hash-range and prefix realisations of a sub-class agree.
"""

from __future__ import annotations

from typing import Dict


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
