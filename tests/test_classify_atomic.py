"""Tests for atomic-predicate computation (the Sec. IV-A class machinery)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.atomic import compute_atomic_predicates
from repro.classify.fields import FieldSpace, HeaderField
from repro.classify.predicates import Cube, Predicate

SPACE = FieldSpace([HeaderField("x", 4), HeaderField("y", 4)])


def pred(**kw):
    return Predicate.of_cube(Cube.make(SPACE, kw))


def test_no_predicates_single_atom():
    ap = compute_atomic_predicates(SPACE, [])
    assert ap.num_atoms == 1
    assert ap.atoms[0].volume() == SPACE.total_volume()


def test_single_predicate_two_atoms():
    ap = compute_atomic_predicates(SPACE, [pred(x=(0, 7))])
    assert ap.num_atoms == 2
    assert ap.verify_partition()


def test_trivial_predicate_everything():
    ap = compute_atomic_predicates(SPACE, [Predicate.everything(SPACE)])
    assert ap.num_atoms == 1
    assert ap.labels[0] == frozenset({0})


def test_disjoint_predicates_three_atoms():
    ap = compute_atomic_predicates(SPACE, [pred(x=(0, 3)), pred(x=(8, 11))])
    assert ap.num_atoms == 3
    assert ap.verify_partition()


def test_overlapping_predicates_four_atoms():
    ap = compute_atomic_predicates(SPACE, [pred(x=(0, 7)), pred(x=(4, 11))])
    assert ap.num_atoms == 4  # only-A, A∩B, only-B, neither
    assert ap.verify_partition()


def test_labels_reconstruct_inputs():
    """Each input predicate equals the union of its labelled atoms."""
    inputs = [pred(x=(0, 7)), pred(y=(0, 7)), pred(x=(4, 11), y=(4, 11))]
    ap = compute_atomic_predicates(SPACE, inputs)
    for idx, original in enumerate(inputs):
        rebuilt = Predicate.nothing(SPACE)
        for atom in (ap.atoms[i] for i in sorted(ap.labels[idx])):
            rebuilt = rebuilt.union(atom)
        assert rebuilt.equals(original)


def test_atom_of_header_and_equivalence_key():
    inputs = [pred(x=(0, 7)), pred(y=(0, 7))]
    ap = compute_atomic_predicates(SPACE, inputs)
    key_a = ap.equivalence_key({"x": 1, "y": 1})  # matches both
    key_b = ap.equivalence_key({"x": 1, "y": 9})  # matches only first
    key_c = ap.equivalence_key({"x": 2, "y": 2})  # same as key_a
    assert key_a == frozenset({0, 1})
    assert key_b == frozenset({0})
    assert key_a == key_c


def test_mismatched_space_rejected():
    other = FieldSpace([HeaderField("z", 4)])
    p = Predicate.of_cube(Cube.make(other, {"z": (0, 3)}))
    with pytest.raises(ValueError):
        compute_atomic_predicates(SPACE, [p])


@st.composite
def preds(draw):
    constraints = {}
    for name in ("x", "y"):
        if draw(st.booleans()):
            lo = draw(st.integers(0, 15))
            hi = draw(st.integers(lo, 15))
            constraints[name] = (lo, hi)
    return Predicate.of_cube(Cube.make(SPACE, constraints))


@given(st.lists(preds(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_atomic_predicates_always_partition(inputs):
    """Property: atoms are disjoint, cover the space, reconstruct inputs."""
    ap = compute_atomic_predicates(SPACE, inputs)
    assert ap.verify_partition()
    for idx, original in enumerate(inputs):
        rebuilt = Predicate.nothing(SPACE)
        for atom in (ap.atoms[i] for i in sorted(ap.labels[idx])):
            rebuilt = rebuilt.union(atom)
        assert rebuilt.equals(original)


@given(st.lists(preds(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_atom_count_bounded(inputs):
    """At most 2^k atoms for k input predicates."""
    ap = compute_atomic_predicates(SPACE, inputs)
    assert ap.num_atoms <= 2 ** len(inputs)
