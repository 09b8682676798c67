"""A packet in flight is one small object, and the hot value types carry no
instance ``__dict__``.

Sec. V-B's packet carries a class ID, a flow hash and two tag fields.  Ours
is one slotted :class:`Packet` with no container of its own: no header
dict, and a trace that is an immutable tuple.  ``inject`` hands a packet
the resolved walk's own trace tuple (``_WalkPlan.trace``, or the prefix a
drop ends at), so every packet of one hash interval and outcome holds the
same object.  The checks are structural, not byte counts: object sizes
differ between Python versions.
"""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from bisect import bisect_right
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.core.placement import InstanceRef
from repro.core.subclasses import Subclass
from repro.dataplane.network import DeliveryRecord
from repro.dataplane.packet import Packet
from repro.dataplane.tcam import Action, TcamEntry
from repro.southbound.state import SwitchDiff

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import column_stages  # noqa: E402

#: Sim-seconds of ``tools/column_stages.py``'s seed-0 window, and the load
#: (timestamps divided) at which instances refuse packets.
WINDOW_SIM_S = 1.0
OVERLOAD = 1.6


@lru_cache(maxsize=1)
def _injected():
    """``(network, packets)``: the window at the planned rates, then at
    ``OVERLOAD`` times them, through ``inject`` one packet at a time."""
    network, (classes, cls_idx, hashes, ts) = column_stages.build_window(0, WINDOW_SIM_S)
    ends = {c: (network.class_paths[c][0], network.class_paths[c][-1]) for c in classes}
    packets = []
    for load in (1.0, OVERLOAD):
        for ci, h, now in zip(cls_idx.tolist(), hashes.tolist(), (ts / load).tolist()):
            src, dst = ends[classes[ci]]
            packet = Packet(classes[ci], h, src, dst)
            record = network.inject(packet, now=now)
            packets.append((packet, record))
    return network, packets


def test_a_packet_has_no_dict_and_no_header():
    packet = Packet("c1", 0.3, "s1", "s3")
    assert not hasattr(packet, "__dict__")
    assert not hasattr(packet, "header")
    assert "header" not in {f.name for f in dataclasses.fields(Packet)}
    with pytest.raises(AttributeError):
        packet.header = {}
    assert packet.trace == ()
    packet.visit("switch", "s1")
    packet.visit("vnf", "fw[0]@s1")
    assert packet.trace == (("switch", "s1"), ("vnf", "fw[0]@s1"))
    assert packet.switches_visited() == ["s1"]


def test_a_packet_carries_no_serial_number():
    """No per-packet counter: a packet is its fields, so the first packet of
    one process and a packet built after 300 others in another print the
    same."""
    assert "packet_id" not in {f.name for f in dataclasses.fields(Packet)}
    assert "packet_id" not in Packet.__slots__
    script = (
        "from repro.dataplane.packet import Packet\n"
        "[Packet('c0', 0.5, 's0', 's2') for _ in range({before})]\n"
        "print(repr(Packet('c1', 0.25, 's1', 's3')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    printed = [
        subprocess.run(
            [sys.executable, "-c", script.format(before=before)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        for before in (0, 300)
    ]
    assert printed[0] == printed[1]
    assert printed[0].startswith("Packet(class_id='c1'")


def test_packets_of_one_interval_share_the_plans_trace_object():
    network, packets = _injected()
    groups = {}
    for packet, record in packets:
        cp = network.class_intervals(packet.class_id)
        g = bisect_right(cp.cuts, packet.flow_hash)
        plan = cp.plans[g]
        if record.delivered:
            assert packet.trace is plan.trace
        else:
            prefixes = [p for _, _, visit_prefixes in plan.drop_ends for p in visit_prefixes]
            assert any(packet.trace is p for p in prefixes)
        key = (packet.class_id, g, record.delivered, record.dropped_at, len(packet.trace))
        groups.setdefault(key, []).append(packet)
    shared = [group for group in groups.values() if len(group) > 1]
    assert any(key[2] for key in groups) and not all(key[2] for key in groups)
    assert len(shared) > 100
    for group in shared:
        first = group[0].trace
        assert all(p.trace is first for p in group)


def test_inject_leaves_no_container_on_a_packet():
    _network, packets = _injected()
    for packet, _record in packets:
        held = gc.get_referents(packet)
        assert not any(isinstance(o, (list, dict)) for o in held)
        assert type(packet.trace) is tuple


def test_hot_value_types_are_slotted_and_pickle():
    network, packets = _injected()
    packet, record = packets[-1]
    entry = next(e for sw in network.switches.values() for e in sw.table.entries())
    read_back = TcamEntry.from_spec(entry.spec)
    ref = InstanceRef("s1", "fw", 0)
    subclass = Subclass("c1", 1, (0.0, 0.5), (ref,))
    diff = SwitchDiff("s1", adds=[("tcam_put", entry.spec)])
    values = [packet, record, entry, read_back, entry.action, ref, subclass, diff]
    for cls in (Packet, DeliveryRecord, TcamEntry, Action, InstanceRef, Subclass, SwitchDiff):
        assert "__slots__" in vars(cls), cls.__name__
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value, type(value).__name__
    assert read_back.spec is entry.spec  # the very tuple it was built from
    clone = pickle.loads(pickle.dumps(read_back))
    assert clone.spec == entry.spec
    assert pickle.loads(pickle.dumps(ref)).key == ref.key
    assert hash(pickle.loads(pickle.dumps(ref))) == hash(ref)

