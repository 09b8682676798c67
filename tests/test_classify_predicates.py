"""Unit tests for the cube/predicate algebra."""

import pytest

from repro.classify.fields import DEFAULT_FIELDS, FieldSpace, HeaderField
from repro.classify.predicates import Cube, Predicate

SMALL = FieldSpace([HeaderField("x", 4), HeaderField("y", 4)])


def cube(**kw):
    return Cube.make(SMALL, kw)


def pred(**kw):
    return Predicate.of_cube(cube(**kw))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------
def test_field_domain():
    f = HeaderField("x", 4)
    assert f.max_value == 15
    assert f.size == 16
    with pytest.raises(ValueError):
        HeaderField("bad", 0)


def test_field_space_lookup():
    assert SMALL.field("x").bits == 4
    assert "y" in SMALL
    assert SMALL.total_volume() == 256
    with pytest.raises(KeyError):
        SMALL.field("z")
    with pytest.raises(ValueError):
        FieldSpace([HeaderField("x", 4), HeaderField("x", 8)])
    with pytest.raises(ValueError):
        FieldSpace([])


# ---------------------------------------------------------------------------
# Cubes
# ---------------------------------------------------------------------------
def test_cube_volume_and_contains():
    c = cube(x=(0, 7), y=(4, 4))
    assert c.volume() == 8
    assert c.contains({"x": 3, "y": 4})
    assert not c.contains({"x": 3, "y": 5})
    assert not c.contains({"x": 8, "y": 4})


def test_unconstrained_cube_is_everything():
    c = cube()
    assert c.volume() == 256
    assert c.contains({"x": 15, "y": 0})


def test_cube_out_of_range_rejected():
    with pytest.raises(ValueError):
        cube(x=(0, 16))
    with pytest.raises(ValueError):
        cube(x=(5, 3))


def test_cube_intersection():
    a = cube(x=(0, 7))
    b = cube(x=(4, 15), y=(0, 3))
    ab = a.intersect(b)
    assert ab is not None
    assert ab.volume() == 4 * 4  # x in 4..7, y in 0..3
    disjoint = cube(x=(0, 3)).intersect(cube(x=(8, 15)))
    assert disjoint is None


def test_cube_subtract_partitions():
    a = cube()
    b = cube(x=(4, 7), y=(4, 7))
    pieces = a.subtract(b)
    total = sum(p.volume() for p in pieces)
    assert total == 256 - 16
    # Pieces are disjoint from b and from each other.
    for p in pieces:
        assert p.intersect(b) is None
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert pieces[i].intersect(pieces[j]) is None


def test_cube_subtract_no_overlap_returns_self():
    a = cube(x=(0, 3))
    b = cube(x=(8, 15))
    assert a.subtract(b) == [a]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
def test_everything_nothing():
    assert Predicate.everything(SMALL).volume() == 256
    assert Predicate.nothing(SMALL).is_empty()


def test_union_volume_exact_with_overlap():
    a = pred(x=(0, 7))  # 8 * 16 = 128
    b = pred(x=(4, 11))  # 128, overlap 64
    u = a.union(b)
    assert u.volume() == 128 + 128 - 64


def test_complement_partitions_space():
    p = pred(x=(0, 7), y=(0, 7))
    comp = p.complement()
    assert p.volume() + comp.volume() == 256
    assert not p.overlaps(comp)
    assert p.union(comp).volume() == 256


def test_subtract_and_subset():
    big = pred(x=(0, 11))
    small = pred(x=(4, 7))
    assert small.subtract(big).is_empty()
    assert not big.subtract(small).is_empty()
    assert big.subtract(small).volume() == big.volume() - small.volume()


def test_equals_semantic():
    a = pred(x=(0, 7)).union(pred(x=(8, 15)))
    b = Predicate.everything(SMALL)
    assert a.equals(b)
    assert not a.equals(pred(x=(0, 7)))


def test_contains_header():
    p = pred(x=(2, 5))
    assert p.contains({"x": 3})
    assert not p.contains({"x": 9})


def test_intersect_empty():
    a = pred(x=(0, 3))
    b = pred(x=(8, 15))
    assert a.intersect(b).is_empty()
    assert not a.overlaps(b)


def test_default_fields_five_tuple():
    assert len(DEFAULT_FIELDS) == 5
    assert DEFAULT_FIELDS.field("src_ip").bits == 32
    assert DEFAULT_FIELDS.field("proto").bits == 8
