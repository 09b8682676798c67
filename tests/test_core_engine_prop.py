"""Property-based tests: random placement instances always satisfy Eq. 2-8."""

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, OptimizationEngine, PlacementError
from repro.core.subclasses import assign_subclasses
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG

SWITCHES = ["s0", "s1", "s2", "s3", "s4"]
NFS = [t.name for t in DEFAULT_CATALOG]


@st.composite
def instances(draw):
    """A random small placement instance: classes over a 5-switch line."""
    num_classes = draw(st.integers(1, 5))
    classes = []
    for k in range(num_classes):
        start = draw(st.integers(0, 2))
        end = draw(st.integers(start + 1, 4))
        path = tuple(SWITCHES[start : end + 1])
        chain_len = draw(st.integers(1, 3))
        chain = draw(
            st.permutations(NFS).map(lambda p: list(p[:chain_len]))
        )
        rate = draw(st.floats(min_value=1.0, max_value=2500.0))
        classes.append(
            TrafficClass(f"c{k}", path[0], path[-1], path, PolicyChain(chain), rate)
        )
    cores = {s: draw(st.sampled_from([0, 32, 64, 128])) for s in SWITCHES}
    return classes, cores


@given(instances())
@settings(max_examples=30, deadline=None)
def test_placement_always_valid_or_explicitly_infeasible(instance):
    classes, cores = instance
    engine = OptimizationEngine(config=EngineConfig())
    try:
        plan = engine.place(classes, cores)
    except PlacementError:
        return  # explicit infeasibility is an acceptable outcome
    problems = plan.validate(cores)
    assert problems == [], problems


@given(instances())
@settings(max_examples=30, deadline=None)
def test_objective_at_least_lp_bound(instance):
    classes, cores = instance
    engine = OptimizationEngine()
    try:
        plan = engine.place(classes, cores)
    except PlacementError:
        return
    assert plan.total_instances() >= plan.lp_bound - 1e-6


@given(instances())
@settings(max_examples=25, deadline=None)
def test_subclass_realisation_always_sound(instance):
    """Sub-classes partition each class and respect path order."""
    classes, cores = instance
    engine = OptimizationEngine()
    try:
        plan = engine.place(classes, cores)
    except PlacementError:
        return
    sub_plan = assign_subclasses(plan)
    for cls in plan.classes:
        subs = sub_plan.subclasses(cls.class_id)
        total = sum(s.weight for s in subs)
        assert abs(total - 1.0) < 1e-6
        pos = {sw: i for i, sw in enumerate(cls.path)}
        for sub in subs:
            assert len(sub.instance_seq) == cls.chain_length
            indices = [pos[ref.switch] for ref in sub.instance_seq]
            assert indices == sorted(indices)
            for ref, nf in zip(sub.instance_seq, cls.chain):
                assert ref.nf == nf


@given(instances())
@settings(max_examples=25, deadline=None)
def test_instance_loads_within_capacity(instance):
    """No instance is assigned more than its capacity by the realisation."""
    classes, cores = instance
    engine = OptimizationEngine()
    try:
        plan = engine.place(classes, cores)
    except PlacementError:
        return
    sub_plan = assign_subclasses(plan)
    for ref, load in sub_plan.instance_load.items():
        cap = DEFAULT_CATALOG.get(ref.nf).capacity_mbps
        assert load <= cap + 1e-3
