"""Tests for VNF types, chains, instances, and ClickOS models."""

import pytest

from repro.sim.kernel import Simulator
from repro.vnf.chains import PolicyChain, STANDARD_CHAINS
from repro.vnf.clickos import (
    CLICKOS_RECONFIGURE_SECONDS,
    ClickOSImage,
    PASSIVE_MONITOR,
)
from repro.vnf.instance import VNFInstance
from repro.vnf.types import (
    DEFAULT_CATALOG,
    FIREWALL,
    IDS,
    NAT,
    NFType,
    NFTypeCatalog,
    PROXY,
)


# ---------------------------------------------------------------------------
# Types (Table IV)
# ---------------------------------------------------------------------------
def test_table_iv_datasheets():
    assert (FIREWALL.cores, FIREWALL.capacity_mbps, FIREWALL.clickos) == (4, 900.0, True)
    assert (PROXY.cores, PROXY.capacity_mbps, PROXY.clickos) == (4, 900.0, False)
    assert (NAT.cores, NAT.capacity_mbps, NAT.clickos) == (2, 900.0, True)
    assert (IDS.cores, IDS.capacity_mbps, IDS.clickos) == (8, 600.0, False)


def test_catalog_lookup_and_clickos_subset():
    assert DEFAULT_CATALOG.get("nat") is NAT
    assert "proxy" in DEFAULT_CATALOG
    assert len(DEFAULT_CATALOG) == 4
    with pytest.raises(KeyError):
        DEFAULT_CATALOG.get("dpi")


def test_catalog_rejects_duplicates():
    with pytest.raises(ValueError):
        NFTypeCatalog([FIREWALL, FIREWALL])


def test_instances_for_ceil():
    assert FIREWALL.instances_for(0.0) == 0
    assert FIREWALL.instances_for(900.0) == 1
    assert FIREWALL.instances_for(900.1) == 2
    assert IDS.instances_for(1800.0) == 3


def test_nf_type_validation():
    with pytest.raises(ValueError):
        NFType("bad", cores=0, capacity_mbps=100.0, clickos=False)
    with pytest.raises(ValueError):
        NFType("bad", cores=1, capacity_mbps=0.0, clickos=False)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------
def test_chain_order_and_lookup():
    chain = PolicyChain(["nat", "firewall", "ids"])
    assert len(chain) == 3
    assert chain[0] == "nat"


def test_chain_rejects_unknown_and_duplicate():
    with pytest.raises(KeyError):
        PolicyChain(["firewall", "dpi"])
    with pytest.raises(ValueError):
        PolicyChain(["firewall", "firewall"])


def test_chain_equality_hash():
    assert PolicyChain(["firewall", "ids"]) == PolicyChain(["firewall", "ids"])
    assert PolicyChain(["firewall", "ids"]) != PolicyChain(["ids", "firewall"])
    assert len({PolicyChain(["nat"]), PolicyChain(["nat"])}) == 1


def test_standard_chains_use_four_nfs():
    names = set()
    for chain in STANDARD_CHAINS:
        names.update(chain.names)
    assert names == {"firewall", "proxy", "nat", "ids"}


# ---------------------------------------------------------------------------
# Instances: fluid + packet-level loss models
# ---------------------------------------------------------------------------
def test_packet_level_admission_below_capacity():
    sim = Simulator()
    fast = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=1000.0)
    inst = VNFInstance("i0", fast, "s1", sim=sim, window=0.1)
    # 50 packets over 1 second = 50 pps << 1000 pps: all admitted.
    for k in range(50):
        assert inst.consume(1500, now=k * 0.02)
    assert inst.stats.packets_dropped == 0


def test_packet_level_drops_over_capacity():
    fast = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=100.0)
    inst = VNFInstance("i0", fast, "s1", window=0.1)
    # 50 packets in 10 ms = 5000 pps >> 100 pps.
    admitted = sum(inst.consume(1500, now=k * 0.0002) for k in range(50))
    assert inst.stats.packets_dropped > 0
    assert admitted + inst.stats.packets_dropped == 50
    assert inst.stats.loss_ratio > 0


def test_packet_size_does_not_affect_admission():
    """The Fig. 6 claim: loss depends on rate, not size."""
    results = {}
    for size in (64, 1500):
        fast = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=100.0)
        inst = VNFInstance("i0", fast, "s1", window=0.1)
        for k in range(50):
            inst.consume(size, now=k * 0.0002)
        results[size] = inst.stats.packets_dropped
    assert results[64] == results[1500]


def test_shutdown_drops_everything():
    inst = VNFInstance("i0", FIREWALL, "s1")
    inst.shutdown()
    assert not inst.consume(100, now=0.0)


def test_consume_without_clock_raises():
    inst = VNFInstance("i0", FIREWALL, "s1")  # no sim
    with pytest.raises(ValueError):
        inst.consume(100)


# ---------------------------------------------------------------------------
# ClickOS
# ---------------------------------------------------------------------------
def test_clickos_image_reconfigure():
    img = ClickOSImage("img0")
    assert img.config is None
    cost = img.reconfigure(PASSIVE_MONITOR)
    assert cost == CLICKOS_RECONFIGURE_SECONDS
    assert img.config is PASSIVE_MONITOR
    assert img.reconfigure_count == 1
    assert "passive-monitor" in repr(img)
