"""Tests for match rules, prefix handling, and sub-class splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.rules import (
    format_prefix,
    MatchRule,
    parse_prefix,
    prefix_cube,
)
from repro.classify.fields import DEFAULT_FIELDS
from repro.classify.split import (
    fraction_to_prefixes,
    range_to_cidr_count,
    range_to_cidrs,
    SubclassSplit,
)


# ---------------------------------------------------------------------------
# Prefix parsing
# ---------------------------------------------------------------------------
def test_parse_prefix_basics():
    lo, hi = parse_prefix("10.1.1.0/24")
    assert hi - lo + 1 == 256
    assert format_prefix(lo, 24) == "10.1.1.0/24"
    lo32, hi32 = parse_prefix("1.2.3.4")
    assert lo32 == hi32


def test_parse_prefix_masks_host_bits():
    lo, hi = parse_prefix("10.1.1.77/24")
    assert format_prefix(lo, 24) == "10.1.1.0/24"


@pytest.mark.parametrize(
    "bad", ["10.1.1/24", "10.1.1.256/24", "10.1.1.0/33", "abc", "1.2.3.4.5/8"]
)
def test_parse_prefix_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_prefix(bad)


def test_prefix_cube_fields():
    c = prefix_cube(DEFAULT_FIELDS, src="10.0.0.0/8", proto="tcp", dst_port=(80, 80))
    assert c.contains({"src_ip": parse_prefix("10.1.2.3")[0], "proto": 6, "dst_port": 80})
    assert not c.contains({"src_ip": parse_prefix("11.0.0.1")[0], "proto": 6, "dst_port": 80})
    with pytest.raises(ValueError):
        prefix_cube(DEFAULT_FIELDS, proto="quic")


def test_match_rule_predicate_and_entries():
    rule = MatchRule(src="10.1.0.0/16", proto="udp")
    assert rule.to_predicate().volume() > 0


# ---------------------------------------------------------------------------
# Range -> CIDR
# ---------------------------------------------------------------------------
def test_range_to_cidrs_aligned_single_block():
    assert range_to_cidrs(0, 255, bits=32) == [(0, 24)]
    assert range_to_cidrs(128, 255, bits=8) == [(128, 1)]


def test_range_to_cidrs_worst_case():
    # [1, 2^32-2] is the classic worst case: 62 blocks.
    assert range_to_cidr_count(1, (1 << 32) - 2, bits=32) == 62


def test_range_to_cidrs_rejects_bad_ranges():
    with pytest.raises(ValueError):
        range_to_cidrs(5, 4)
    with pytest.raises(ValueError):
        range_to_cidrs(0, 256, bits=8)


@given(st.integers(0, 1023), st.integers(0, 1023))
@settings(max_examples=100, deadline=None)
def test_range_to_cidrs_exact_cover(a, b):
    """Property: blocks tile the range exactly, in order, no overlap."""
    lo, hi = min(a, b), max(a, b)
    blocks = range_to_cidrs(lo, hi, bits=10)
    cursor = lo
    for base, plen in blocks:
        size = 1 << (10 - plen)
        assert base == cursor  # contiguous
        assert base % size == 0  # aligned
        cursor += size
    assert cursor == hi + 1


# ---------------------------------------------------------------------------
# fraction_to_prefixes (the paper's Sec. V-A example)
# ---------------------------------------------------------------------------
def test_paper_example():
    assert fraction_to_prefixes("10.1.1.0/24", 0.5, 1.0) == ["10.1.1.128/25"]


def test_quarters():
    assert fraction_to_prefixes("10.1.1.0/24", 0.0, 0.25) == ["10.1.1.0/26"]
    assert fraction_to_prefixes("10.1.1.0/24", 0.25, 0.5) == ["10.1.1.64/26"]


def test_unaligned_fraction_needs_multiple_prefixes():
    prefixes = fraction_to_prefixes("10.1.1.0/24", 0.0, 0.3)
    assert len(prefixes) > 1


def test_fraction_bounds_validated():
    with pytest.raises(ValueError):
        fraction_to_prefixes("10.1.1.0/24", 0.5, 0.5)
    with pytest.raises(ValueError):
        fraction_to_prefixes("10.1.1.0/24", -0.1, 0.5)


# ---------------------------------------------------------------------------
# SubclassSplit
# ---------------------------------------------------------------------------
def test_split_from_weights():
    split = SubclassSplit.from_weights("10.0.0.0/16", [1.0, 1.0, 2.0])
    assert split.num_subclasses == 3
    assert split.weight(0) == pytest.approx(0.25)
    assert split.weight(2) == pytest.approx(0.5)
    assert split.boundaries[-1] == 1.0


def test_split_hash_lookup():
    split = SubclassSplit.from_weights("10.0.0.0/16", [0.5, 0.5])
    assert split.subclass_of_hash(0.1) == 0
    assert split.subclass_of_hash(0.75) == 1
    with pytest.raises(ValueError):
        split.subclass_of_hash(1.0)


def test_split_prefix_realisation_counts():
    split = SubclassSplit.from_weights("10.0.0.0/16", [0.25, 0.25, 0.5])
    assert split.total_prefix_rules() == 3  # aligned: one prefix each
    uneven = SubclassSplit.from_weights("10.0.0.0/16", [0.3, 0.7])
    assert uneven.total_prefix_rules() > 2


def test_split_invalid_weights():
    with pytest.raises(ValueError):
        SubclassSplit.from_weights("10.0.0.0/16", [])
    with pytest.raises(ValueError):
        SubclassSplit.from_weights("10.0.0.0/16", [-1.0, 2.0])
    with pytest.raises(ValueError):
        SubclassSplit.from_weights("10.0.0.0/16", [0.0, 0.0])


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_split_weights_partition_hash_domain(weights):
    """Property: hash ranges tile [0,1) and weights renormalise exactly."""
    split = SubclassSplit.from_weights("10.0.0.0/8", weights)
    total = sum(split.weight(i) for i in range(split.num_subclasses))
    assert total == pytest.approx(1.0)
    for i in range(split.num_subclasses - 1):
        assert split.hash_range(i)[1] == pytest.approx(split.hash_range(i + 1)[0])


@given(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_split_prefixes_cover_class_block(weights):
    """Property: the union of all sub-class prefixes covers the class."""
    split = SubclassSplit.from_weights("10.2.0.0/16", weights)
    from repro.classify.rules import parse_prefix

    covered = 0
    for i in range(split.num_subclasses):
        for p in split.prefixes(i):
            lo, hi = parse_prefix(p)
            covered += hi - lo + 1
    lo, hi = parse_prefix("10.2.0.0/16")
    assert covered == hi - lo + 1
