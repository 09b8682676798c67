"""Property tests: the reconciler converges, whatever we do to the wire,
and the fabric's cached installed-state view never disagrees with a
from-scratch read-back and diff.

Hypothesis drives the anti-entropy loop with randomized drift injection
(which rules get ripped out from under the fabric) and randomized
control-plane weather (loss rate, extra delay, channel substream seed),
and asserts the one property the whole southbound layer exists for:
after quiescence, every switch's installed state is *exactly* the
desired state — ``drift_count() == 0`` is literally the diff engine
reporting ``installed == desired`` field by field.

The placement blueprint (plan + rules) is computed once and cached; each
example rebuilds only the cheap parts — a fresh network, a fresh install,
a fresh fabric — so examples are independent yet fast.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.controller import AppleController
from repro.core.subclasses import assign_subclasses
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import quarantine_entry
from repro.dataplane.vswitch import UPLINK
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundChaosConfig, SouthboundFabric
from repro.southbound.state import read_installed
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS
from tests.southbound_reference import entry_spec

#: Ample quiescence.  A message that exhausts all 8 attempts burns
#: ~15 s of backoff, its phase rolls back (drift deliberately regresses),
#: and the next reconcile tick starts over — at the harshest generated
#: loss rate a repair can take several such rounds, so the horizon
#: leaves room for many.
HORIZON = 150.0


@lru_cache(maxsize=None)
def _blueprint(matrix_seed=0):
    """One placement, solved once: (controller, plan, subclass_plan, rules)."""
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, 8000.0, seed=matrix_seed)
    plan = controller.compute_placement(matrix)
    subclass_plan = assign_subclasses(plan)
    rules = controller.rule_generator.generate(plan.classes, subclass_plan)
    return controller, plan, subclass_plan, rules


def _fresh_fabric(seed, chaos):
    controller, plan, _subclass_plan, rules = _blueprint()
    sim = Simulator()
    network = DataPlaneNetwork(controller.topo)
    instances = controller.rule_generator.install(
        rules, network, plan.classes, sim=sim
    )
    fabric = SouthboundFabric(
        sim, network, seed, controller.rule_generator, chaos=chaos
    )
    fabric.adopt(rules, plan.classes, instances)
    return sim, network, fabric, plan, rules


@given(
    seed=st.integers(0, 2**16),
    loss=st.floats(0.0, 0.35),
    extra_delay=st.sampled_from([0.0, 0.005, 0.02]),
    vsw_mask=st.integers(0, 2**12 - 1),
    classify_mask=st.integers(0, 2**12 - 1),
)
@settings(max_examples=10, deadline=None)
def test_reconciler_always_converges_to_desired(
    seed, loss, extra_delay, vsw_mask, classify_mask
):
    chaos = SouthboundChaosConfig(loss_rate=loss, extra_delay_mean=extra_delay)
    sim, network, fabric, plan, rules = _fresh_fabric(seed, chaos)
    assert fabric.drift_count() == 0  # adoption starts converged

    # Randomized drift: bitmasks select which hosts shed their vSwitch
    # rules and which switches lose their classification tables.
    for i, victim in enumerate(sorted(rules.vswitch_rules)):
        if not (vsw_mask >> i) & 1:
            continue
        vsw = network.vswitch_at(victim)
        for class_id, sub_id, _rule in rules.vswitch_rules[victim]:
            vsw.remove_rule(class_id, sub_id)
    for i, victim in enumerate(sorted(rules.switch_rule_sets)):
        if not (classify_mask >> i) & 1:
            continue
        network.switches[victim].table.remove_where(
            lambda e, v=victim: e.name.startswith(f"{v}/classify/")
        )
    injected = fabric.drift_count()

    fabric.start()
    sim.run(until=HORIZON)
    fabric.stop()

    # THE property: anti-entropy converged every switch exactly.
    assert fabric.drift_count() == 0
    installed = read_installed(network)
    assert installed.signature_payload() == fabric.desired.signature_payload()
    if injected:
        assert fabric.metrics.reconcile_repairs >= 1
        assert fabric.metrics.max_observed_drift >= injected
    else:
        # Nothing drifted, so the reconciler must not have touched the
        # wire at all (anti-entropy is read-only at zero drift).
        assert fabric.metrics.messages_sent == 0


# ----------------------------------------------------------------------
# The cached view against a from-scratch reference
# ----------------------------------------------------------------------
def _reference_read(network):
    """(tcam, vsw, origin) of the live network, read with no cache."""
    tcam = {
        s: {e.name: entry_spec(e) for e in sw.table.entries()}
        for s, sw in network.switches.items()
    }
    vsw = {
        s: {
            (cid, sub): (tuple(rule.instance_ids), rule.exit_host_tag)
            for (port, cid, sub), rule in v.installed_rules().items()
            if port == UPLINK and sub is not None
        }
        for s, v in network.vswitches.items()
    }
    origin = {
        s: tuple(
            (c, tuple(hr), sub, fh) for c, hr, sub, fh in v.installed_origin_rules()
        )
        for s, v in network.vswitches.items()
    }
    return tcam, vsw, origin


def _split(table, marker):
    """(static entries, classification entries) of one TCAM read-back."""
    classify = {n: spec for n, spec in table.items() if n.startswith(marker)}
    return {n: table[n] for n in table if n not in classify}, classify


def _reference_diff(installed, desired):
    """switch -> (adds, swap, dels), written apart from ``diff_switch``."""
    tcam, vsw, origin = installed
    out = {}
    for s in sorted(tcam):
        have, have_classify = _split(tcam[s], f"{s}/classify/")
        want, want_classify = _split(desired.tcam.get(s, {}), f"{s}/classify/")
        have_v, want_v = vsw.get(s, {}), desired.vsw.get(s, {})
        paths = tuple(
            (cid, path) for cid, path in sorted(desired.paths.items()) if path[0] == s
        )
        adds = [("tcam_put", want[n]) for n in sorted(set(want) - set(have))]
        adds += [("vsw_put", *k, *want_v[k]) for k in sorted(set(want_v) - set(have_v))]
        swap = [
            ("tcam_put", want[n])
            for n in sorted(set(want) & set(have))
            if want[n] != have[n]
        ]
        if have_classify != want_classify:
            specs = tuple(want_classify[n] for n in sorted(want_classify))
            swap.append(("classify_sync", specs, paths))
        swap += [
            ("vsw_put", *k, *want_v[k])
            for k in sorted(set(want_v) & set(have_v))
            if want_v[k] != have_v[k]
        ]
        if origin.get(s, ()) != desired.origin.get(s, ()):
            swap.append(("origin_sync", desired.origin.get(s, ()), paths))
        dels = [("tcam_del", n) for n in sorted(set(have) - set(want))]
        dels += [("vsw_del", *k) for k in sorted(set(have_v) - set(want_v))]
        if adds or swap or dels:
            out[s] = (adds, swap, dels)
    return out


def _assert_view_matches_reference(fabric, network):
    installed = _reference_read(network)
    desired = fabric.desired
    got = {d.switch: (d.adds, d.swap, d.dels) for d in fabric._diffs()}
    assert got == _reference_diff(installed, desired)
    same = installed == (desired.tcam, desired.vsw, desired.origin)
    assert (fabric.drift_count() == 0) == same


_STEPS = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 2)),
    st.tuples(st.just("tick"), st.sampled_from([0.03, 0.5, 1.7, 9.0])),
    st.tuples(st.just("disconnect"), st.integers(0, 11)),
    st.tuples(st.just("reconnect"), st.integers(0, 11)),
    st.tuples(st.just("vnf_crash"), st.integers(0, 63)),
    st.tuples(st.just("tcam_strip"), st.integers(0, 11)),
    st.tuples(st.just("tcam_stray"), st.integers(0, 11)),
    st.tuples(st.just("restart"), st.just(0)),
)


@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    steps=st.lists(_STEPS, min_size=4, max_size=14),
)
@settings(max_examples=25, deadline=None)
def test_view_equals_from_scratch_diff_under_interleaved_faults(seed, loss, steps):
    chaos = SouthboundChaosConfig(loss_rate=loss)
    sim, network, fabric, plan, rules = _fresh_fabric(seed, chaos)
    controller = _blueprint()[0]
    fabric.start()
    switches = sorted(network.switches)
    pushed = (rules, plan.classes)
    _assert_view_matches_reference(fabric, network)
    for kind, arg in steps:
        if kind == "push":
            _, next_plan, _, next_rules = _blueprint(arg)
            pushed = (next_rules, next_plan.classes)
            fabric.push_desired(*pushed)
        elif kind == "tick":
            sim.run(until=sim.now + arg)
        elif kind == "disconnect":
            fabric.disconnect(switches[arg])
        elif kind == "reconnect":
            fabric.reconnect(switches[arg])
        elif kind == "vnf_crash":
            # A dying VM: its vSwitch sheds the instance and its rules.
            key = sorted(fabric.instances)[arg % len(fabric.instances)]
            network.vswitch_at(key.rsplit("@", 1)[1]).deregister_instance(key)
        elif kind == "tcam_strip":
            victim = switches[arg]
            network.switches[victim].table.remove_where(
                lambda e: e.name.startswith(f"{victim}/classify/")
            )
        elif kind == "tcam_stray":
            network.switches[switches[arg]].table.install(
                quarantine_entry(switches[arg], "no-such-class")
            )
        else:
            # Controller crash: a new fabric re-adopts the surviving wire
            # state through a cold view.
            old = fabric
            old.kill()
            fabric = SouthboundFabric(
                sim, network, seed + 1, controller.rule_generator, chaos=chaos
            )
            fabric.restore(
                *pushed, old.instances, old.versions, old.epoch, old.converged_epoch
            )
            fabric.start()
        _assert_view_matches_reference(fabric, network)
