"""Policy chains (service chains) and the standard chain set.

A policy chain C_h is an ordered NF sequence every flow of a class must
traverse (e.g. firewall → IDS → proxy for http traffic).  Sec. IX-A: "Due
to the lack of publicly available information on NF related policies, we
synthesize network function policies based on real-network study by [37]
and case studies [12]. The policy chains are the sequences of 4 different
NFs: firewall, proxy, NAT and IDS."
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.vnf.types import DEFAULT_CATALOG, NFType, NFTypeCatalog


class PolicyChain:
    """An immutable, ordered sequence of NF names.

    Duplicate NFs are rejected: the data plane assumes "a packet does not
    traverse a same instance twice" (Sec. V-B), and none of the paper's
    chains repeat an NF.
    """

    def __init__(self, nf_names: Sequence[str], catalog: NFTypeCatalog = DEFAULT_CATALOG):
        names = tuple(nf_names)
        for name in names:
            if name not in catalog:
                raise KeyError(f"chain references unknown NF {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"chain {names} repeats an NF")
        self._names = names
        self._catalog = catalog

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __getitem__(self, j: int) -> str:
        """c_h^j: the j-th NF name (0-based here; the paper is 1-based)."""
        return self._names[j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolicyChain) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return "PolicyChain(" + " -> ".join(self._names) + ")"

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def nf_types(self) -> List[NFType]:
        """The datasheet objects in chain order."""
        return [self._catalog.get(n) for n in self._names]



#: Representative chains from the SFC data-center use cases [12] and the
#: middlebox study [37]: perimeter security, web access, address translation.
STANDARD_CHAINS: Tuple[PolicyChain, ...] = (
    PolicyChain(["firewall", "ids"]),
    PolicyChain(["firewall", "proxy"]),
    PolicyChain(["nat", "firewall"]),
    PolicyChain(["firewall", "ids", "proxy"]),
    PolicyChain(["nat", "firewall", "ids"]),
)
