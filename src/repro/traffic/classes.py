"""Traffic equivalence classes — the Optimization Engine's unit of work.

Sec. IV-A: "The flows having the same path and policy chain are aggregated
into a class."  A :class:`TrafficClass` is exactly that aggregation: a
(path, policy chain) pair with an aggregate rate.  The
:class:`ClassBuilder` derives classes from a traffic matrix, a router
(giving paths), and a policy assignment (giving chains), optionally
splitting a switch pair's demand across several applications with different
chains.
"""

from __future__ import annotations

import math
import zlib

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.topology.routing import Router
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.chains import PolicyChain


@dataclass(frozen=True)
class TrafficClass:
    """An equivalence class of flows: same path, same policy chain.

    Attributes:
        class_id: unique identifier (stable across snapshots).
        src: ingress switch.
        dst: egress switch.
        path: the switch sequence P_h (includes src and dst).
        chain: the policy chain C_h.
        rate_mbps: aggregate traffic rate T_h.
        share: fraction of the (src, dst) demand this class carries (1.0
            when the pair has a single chain).
    """

    class_id: str
    src: str
    dst: str
    path: Tuple[str, ...]
    chain: PolicyChain
    rate_mbps: float
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.path or self.path[0] != self.src or self.path[-1] != self.dst:
            raise ValueError(f"path of class {self.class_id} must run src → dst")
        if not 0 <= self.rate_mbps < math.inf:
            raise ValueError(
                f"rate_mbps of class {self.class_id} must be finite and "
                f"non-negative, got {self.rate_mbps!r}"
            )
        if not 0 < self.share <= 1:
            raise ValueError("share must be in (0, 1]")

    @property
    def path_length(self) -> int:
        """|P_h|: the number of switches on the path."""
        return len(self.path)

    @property
    def chain_length(self) -> int:
        """|C_h|: the number of NFs on the policy chain."""
        return len(self.chain)

    def with_rate(self, rate_mbps: float) -> "TrafficClass":
        """A copy of this class with a different rate (snapshot replay)."""
        return TrafficClass(
            self.class_id, self.src, self.dst, self.path, self.chain, rate_mbps, self.share
        )


#: Maps a (src, dst) pair to the chains its traffic is split across,
#: as (chain, share) pairs whose shares sum to 1.
PolicyAssignment = Callable[[str, str], Sequence[Tuple[PolicyChain, float]]]


class ClassBuilder:
    """Build :class:`TrafficClass` lists from matrices + routing + policies.

    Args:
        router: provides the forwarding path per (src, dst) — the input
            APPLE must not disturb (interference freedom).
        assignment: maps a pair to its (chain, share) list.
        min_rate_mbps: demands at or below this are dropped (noise floor).
    """

    def __init__(
        self,
        router: Router,
        assignment: PolicyAssignment,
        min_rate_mbps: float = 0.0,
    ) -> None:
        self.router = router
        self.assignment = assignment
        self.min_rate_mbps = min_rate_mbps

    def build(self, matrix: TrafficMatrix) -> List[TrafficClass]:
        """Classes for one traffic matrix, deterministically ordered."""
        classes: List[TrafficClass] = []
        for src, dst, rate in matrix.pairs(min_rate=self.min_rate_mbps):
            path = self.router.path(src, dst)
            chain_shares = list(self.assignment(src, dst))
            if not chain_shares:
                continue
            total_share = sum(share for _, share in chain_shares)
            if abs(total_share - 1.0) > 1e-9:
                raise ValueError(
                    f"policy shares for ({src}, {dst}) sum to {total_share}, not 1"
                )
            for k, (chain, share) in enumerate(chain_shares):
                if not chain:
                    continue  # chainless traffic needs no VNF placement
                classes.append(
                    TrafficClass(
                        class_id=f"{src}->{dst}#{k}",
                        src=src,
                        dst=dst,
                        path=path,
                        chain=chain,
                        rate_mbps=rate * share,
                        share=share,
                    )
                )
        return classes


def hashed_assignment(
    chains: Sequence[PolicyChain],
) -> PolicyAssignment:
    """Each pair deterministically gets one chain (hash of the pair).

    Mimics operator policies that differ per prefix pair without splitting
    any single pair's traffic.
    """
    if not chains:
        raise ValueError("need at least one chain")

    def assign(src: str, dst: str) -> Sequence[Tuple[PolicyChain, float]]:
        # zlib.crc32, not hash(): string hashing is salted per process and
        # would make policy assignment (and thus every experiment)
        # non-reproducible across runs.
        idx = zlib.crc32(f"{src}|{dst}".encode("utf-8")) % len(chains)
        return [(chains[idx], 1.0)]

    return assign
