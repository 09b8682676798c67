"""Match rules and IPv4-prefix handling.

Bridges operator-facing rule syntax (``10.1.1.0/24``, port ranges, protocol
names) and the predicate algebra.  Classes "can usually be expressed by
wildcard rules" (Sec. IV-A); this module produces those wildcard/prefix
predicates and counts the TCAM entries they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.classify.fields import DEFAULT_FIELDS, FieldSpace
from repro.classify.predicates import Cube, Predicate

PROTO_NUMBERS: Dict[str, int] = {"icmp": 1, "tcp": 6, "udp": 17}


def parse_prefix(prefix: str) -> Tuple[int, int]:
    """Parse ``a.b.c.d/len`` into the inclusive address interval (lo, hi)."""
    try:
        addr_str, _, len_str = prefix.partition("/")
        plen = int(len_str) if len_str else 32
        octets = [int(o) for o in addr_str.split(".")]
    except ValueError as exc:
        raise ValueError(f"bad prefix {prefix!r}") from exc
    if len(octets) != 4 or any(not 0 <= o <= 255 for o in octets):
        raise ValueError(f"bad address in prefix {prefix!r}")
    if not 0 <= plen <= 32:
        raise ValueError(f"bad prefix length in {prefix!r}")
    addr = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
    mask_bits = 32 - plen
    lo = (addr >> mask_bits) << mask_bits
    hi = lo | ((1 << mask_bits) - 1)
    return lo, hi


def format_prefix(lo: int, plen: int) -> str:
    """Render an address + prefix length back to dotted/CIDR text."""
    octets = [(lo >> s) & 0xFF for s in (24, 16, 8, 0)]
    return ".".join(str(o) for o in octets) + f"/{plen}"


def prefix_cube(
    space: FieldSpace,
    src: Optional[str] = None,
    dst: Optional[str] = None,
    proto: Optional[str] = None,
    dst_port: Optional[Tuple[int, int]] = None,
) -> Cube:
    """A cube matching the given prefixes / protocol / port range."""
    constraints: Dict[str, Tuple[int, int]] = {}
    if src is not None:
        constraints["src_ip"] = parse_prefix(src)
    if dst is not None:
        constraints["dst_ip"] = parse_prefix(dst)
    if proto is not None:
        num = PROTO_NUMBERS.get(proto.lower())
        if num is None:
            raise ValueError(f"unknown protocol {proto!r}")
        constraints["proto"] = (num, num)
    if dst_port is not None:
        constraints["dst_port"] = dst_port
    return Cube.make(space, constraints)


@dataclass(frozen=True)
class MatchRule:
    """An operator-facing match rule over the 5-tuple.

    Attributes mirror common ACL syntax; ``None`` means wildcard.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    proto: Optional[str] = None
    dst_port: Optional[Tuple[int, int]] = None
    space: FieldSpace = field(default=DEFAULT_FIELDS, compare=False)

    def to_predicate(self) -> Predicate:
        """The packet set this rule matches."""
        return Predicate.of_cube(
            prefix_cube(
                self.space,
                src=self.src,
                dst=self.dst,
                proto=self.proto,
                dst_port=self.dst_port,
            )
        )
