"""Property-based tests (hypothesis) for the TCAM lookup path.

``TcamTable.match`` scans a per-class index that is rebuilt lazily when
the generation moves; it must be indistinguishable from the plain linear
scan (``_scan_all``, kept as the reference): for any rule set and any
lookup the indexed answer equals the linear one, and no mutation
(install / remove_where / clear) may ever let a stale entry be served.
(The file keeps its name from the exact-match flow cache that used to sit
in front of the index; resolved walks now live one level up, in
``DataPlaneNetwork`` — see ``tests/test_dataplane_programs.py``.)
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.packet import Packet
from repro.dataplane.tcam import Action, ActionKind, TcamEntry, TcamTable

CLASS_IDS = ["c1", "c2", "c3", None]
HOST_TAGS = ["EMPTY", "h1", "h2", None]
ACTIONS = [
    Action(ActionKind.GOTO_NEXT_TABLE),
    Action(ActionKind.DROP),
    Action(ActionKind.FORWARD_TO_HOST),
]

#: Hash boundaries drawn from a mix of prefix-aligned values (multiples of
#: 2**-16) and arbitrary floats.
_ALIGNED = st.integers(0, 1 << 16).map(lambda k: k / (1 << 16))
_BOUNDARY = st.one_of(_ALIGNED, st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def entries(draw):
    hash_range = None
    if draw(st.booleans()):
        lo = draw(_BOUNDARY)
        hi = draw(_BOUNDARY)
        if hi < lo:
            lo, hi = hi, lo
        if hi == lo:
            hi = min(1.0, lo + 1.0 / (1 << 16))
        hash_range = (lo, hi)
    return TcamEntry(
        priority=draw(st.integers(0, 5)),
        action=draw(st.sampled_from(ACTIONS)),
        host_tag_is=draw(st.sampled_from(HOST_TAGS)),
        class_id=draw(st.sampled_from(CLASS_IDS)),
        hash_range=hash_range,
    )


@st.composite
def lookups(draw):
    class_id = draw(st.sampled_from([c for c in CLASS_IDS if c] + ["c9"]))
    host_tag = draw(st.sampled_from(["h1", "h2", None]))
    h = draw(st.floats(0.0, 1.0, exclude_max=True, allow_nan=False))
    return class_id, host_tag, h


def _uncached(table, class_id, host_tag, h):
    tag = host_tag if host_tag is not None else "EMPTY"
    return table._scan_all(class_id, tag, h)


@given(st.lists(entries(), max_size=12), st.lists(lookups(), max_size=30))
@settings(max_examples=120, deadline=None)
def test_cached_lookup_equals_uncached(rule_set, queries):
    table = TcamTable()
    for e in rule_set:
        table.install(e)
    for class_id, host_tag, h in queries:
        expected = _uncached(table, class_id, host_tag, h)
        # Repeat: a lookup must not change what the next one answers.
        assert table.match(class_id, host_tag, h) is expected
        assert table.match(class_id, host_tag, h) is expected


@given(
    st.lists(entries(), min_size=1, max_size=10),
    st.lists(entries(), max_size=6),
    st.lists(lookups(), min_size=1, max_size=15),
    st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_mutations_never_serve_stale_entries(initial, later, queries, drop_prio):
    table = TcamTable()
    for e in initial:
        table.install(e)
    # Build the index, then mutate underneath it.
    for class_id, host_tag, h in queries:
        table.match(class_id, host_tag, h)

    for e in later:
        table.install(e)
        for class_id, host_tag, h in queries:
            assert table.match(class_id, host_tag, h) is _uncached(
                table, class_id, host_tag, h
            )

    table.remove_where(lambda e: e.priority == drop_prio)
    for class_id, host_tag, h in queries:
        assert table.match(class_id, host_tag, h) is _uncached(
            table, class_id, host_tag, h
        )

    table.clear()
    for class_id, host_tag, h in queries:
        assert table.match(class_id, host_tag, h) is None


@given(st.lists(entries(), max_size=12))
@settings(max_examples=60, deadline=None)
def test_incremental_entry_count_matches_recompute(rule_set):
    table = TcamTable()
    for e in rule_set:
        table.install(e)
        assert table.entry_count() == sum(
            x.hardware_entries for x in table.entries()
        )
    table.remove_where(lambda e: e.priority % 2 == 0)
    assert table.entry_count() == sum(
        x.hardware_entries for x in table.entries()
    )
    table.clear()
    assert table.entry_count() == 0


def test_boundary_inside_a_prefix_bucket_splits_lookups():
    # 0.3 * 2**16 is not an integer, so the range boundary falls inside one
    # 2**-16 bucket: lookups on either side of it must differ, and 0.3 is
    # the one interval edge the network cuts this class's hash domain at.
    table = TcamTable()
    table.install(
        TcamEntry(
            priority=5,
            action=Action(ActionKind.DROP),
            class_id="c1",
            hash_range=(0.0, 0.3),
            name="low-half",
        )
    )
    table.install(
        TcamEntry(
            priority=4,
            action=Action(ActionKind.GOTO_NEXT_TABLE),
            class_id="c1",
            hash_range=(0.3, 1.0),
            name="high-half",
        )
    )
    bucket = int(0.3 * (1 << 16))
    just_below = (bucket + 0.1) / (1 << 16)
    just_above = (bucket + 0.9) / (1 << 16)
    assert just_below < 0.3 < just_above
    assert table.hash_boundaries("c1") == [0.3]
    for _ in range(3):  # repeats must not change the sibling's answer
        assert table.match("c1", None, just_below).name == "low-half"
        assert table.match("c1", None, just_above).name == "high-half"


def test_priority_ties_keep_install_order():
    table = TcamTable()
    for i in range(4):
        table.install(
            TcamEntry(
                priority=7,
                action=Action(ActionKind.GOTO_NEXT_TABLE),
                name=f"e{i}",
            )
        )
    table.install(
        TcamEntry(priority=9, action=Action(ActionKind.DROP), name="top")
    )
    names = [e.name for e in table.entries()]
    assert names == ["top", "e0", "e1", "e2", "e3"]
    hit = table.lookup(
        Packet(class_id="c1", flow_hash=0.5, src="s1", dst="s2")
    )
    assert hit.name == "top"
