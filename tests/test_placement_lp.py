"""The placement LP assembler against an independent expression-tree reference.

:func:`repro.core.constraints.assemble_placement_lp` writes Eq. 1–6 straight
into CSC arrays.  The reference below builds the same model the way it was
first written — one column per d/q, one ``{column: coefficient}`` row per
constraint, on the test-only builder in ``tests/lp_reference.py`` — and
shares no code with it.  Every array the solver or the template reads must
come out equal, because warm re-solves, pinned objectives and
``state_signature()`` ride on them.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.solver.lp as lp_module
from repro.core.constraints import assemble_placement_lp
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.experiments.harness import standard_setup
from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG
from tests.lp_reference import Builder


# ---------------------------------------------------------------------------
# Reference: the six equation builders, in their pinned order.
# ---------------------------------------------------------------------------


@dataclass
class Bundle:
    d_vars: dict = field(default_factory=dict)
    q_vars: dict = field(default_factory=dict)
    slots: list = field(default_factory=list)
    load_members: dict = field(default_factory=dict)
    cap_rows: dict = field(default_factory=dict)


def add_flow_rows(model, bundle, classes, available_cores):
    """d variables plus Eq. 4 completeness and Eq. 3 ordering rows."""
    d_vars = bundle.d_vars
    for cls_idx, cls in enumerate(classes):
        host_positions = [
            i for i, sw in enumerate(cls.path) if available_cores.get(sw, 0) > 0
        ]
        for j, nf in enumerate(cls.chain):
            for i in host_positions:
                var = model.var(f"d[{cls.class_id},{i},{j}]", lb=0.0, ub=1.0)
                d_vars[(cls.class_id, i, j)] = var
                bundle.load_members.setdefault((cls.path[i], nf), []).append(
                    (cls_idx, var)
                )
        for j in range(cls.chain_length):
            step_vars = [d_vars[(cls.class_id, i, j)] for i in host_positions]
            model.row(dict.fromkeys(step_vars, 1.0), "==", 1.0)
        # Eq. 3 with σ substituted: the cumulative portion of step j-1
        # dominates step j at every prefix of the path.
        for j in range(1, cls.chain_length):
            for stop in range(len(host_positions) - 1):
                prefix = host_positions[: stop + 1]
                row = {d_vars[(cls.class_id, i, j - 1)]: 1.0 for i in prefix}
                row.update({d_vars[(cls.class_id, i, j)]: -1.0 for i in prefix})
                model.row(row, ">=", 0.0)


def add_instance_vars(model, bundle):
    bundle.slots = sorted(bundle.load_members)
    for switch, nf in bundle.slots:
        bundle.q_vars[(switch, nf)] = model.var(
            f"q[{switch},{nf}]", lb=0.0, integer=True
        )


def add_capacity_rows(model, bundle, classes, cap):
    """Eq. 5: per-slot load ≤ instances × derated capacity."""
    for switch, nf in bundle.slots:
        row = {
            var: classes[ci].rate_mbps
            for ci, var in bundle.load_members[(switch, nf)]
        }
        row[bundle.q_vars[(switch, nf)]] = -cap(nf)
        bundle.cap_rows[(switch, nf)] = model.row(row, "<=", 0.0)


def add_budget_rows(model, bundle, budget_of, amount_of):
    """Eq. 6, one dimension: Σ amount_n · q ≤ budget_v per switch."""
    by_switch: Dict[str, dict] = {}
    for (switch, nf), q in bundle.q_vars.items():
        by_switch.setdefault(switch, {})[q] = float(amount_of(nf))
    for switch, row in sorted(by_switch.items()):
        model.row(row, "<=", float(budget_of(switch)))


def assemble_placement_model(model, classes, cores, memory, cap, catalog):
    bundle = Bundle()
    add_flow_rows(model, bundle, classes, cores)
    add_instance_vars(model, bundle)
    add_capacity_rows(model, bundle, classes, cap)
    add_budget_rows(
        model, bundle, lambda sw: cores.get(sw, 0), lambda nf: catalog.get(nf).cores
    )
    if memory is not None:
        add_budget_rows(
            model,
            bundle,
            lambda sw: memory.get(sw, 0.0),
            lambda nf: catalog.get(nf).memory_gb,
        )
    model.minimize(dict.fromkeys(bundle.q_vars.values(), 1.0))
    return bundle


def reference(classes, cores, memory, cap, catalog):
    """The reference LP and the template indices derived from its bundle."""
    model = Builder("apple-placement")
    bundle = assemble_placement_model(model, classes, cores, memory, cap, catalog)
    lp = model.compile()

    def data_position(row, col):
        rows = lp.indices[lp.indptr[col]:lp.indptr[col + 1]]
        hits = np.flatnonzero(rows == row)
        return None if hits.size == 0 else int(lp.indptr[col] + hits[0])

    member_slot, member_var, member_cls = [], [], []
    rate_positions, rate_cls = [], []
    reusable = True
    for slot_i, slot in enumerate(bundle.slots):
        row = model.row_of[bundle.cap_rows[slot]]
        for cls_i, var in bundle.load_members[slot]:
            member_slot.append(slot_i)
            member_var.append(var)
            member_cls.append(cls_i)
            pos = data_position(row, var)
            if pos is None:
                reusable = False
            else:
                rate_positions.append(pos)
                rate_cls.append(cls_i)
    d_keys = list(bundle.d_vars)
    groups, gid, prev = [], -1, None
    for cid, _i, j in d_keys:
        if (cid, j) != prev:
            gid, prev = gid + 1, (cid, j)
        groups.append(gid)
    switch_names = list(dict.fromkeys(sw for sw, _ in bundle.slots))
    return SimpleNamespace(
        model=model,
        lp=lp,
        slots=bundle.slots,
        reusable=reusable,
        d_keys=d_keys,
        d_group=groups,
        n_groups=gid + 1,
        member_slot=member_slot,
        member_var=member_var,
        member_cls=member_cls,
        rate_positions=rate_positions,
        rate_cls=rate_cls,
        slot_cap=[cap(nf) for _, nf in bundle.slots],
        slot_cores=[float(catalog.get(nf).cores) for _, nf in bundle.slots],
        slot_mem=[float(catalog.get(nf).memory_gb) for _, nf in bundle.slots],
        slot_switch=[switch_names.index(sw) for sw, _ in bundle.slots],
        switch_names=switch_names,
        q_idx=[bundle.q_vars[slot] for slot in bundle.slots],
    )


def assert_same_as_reference(classes, cores, memory, cap, catalog):
    got = assemble_placement_lp(classes, cores, memory, cap, catalog)
    ref = reference(classes, cores, memory, cap, catalog)
    for name in ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub",
                 "integer_mask"):
        np.testing.assert_array_equal(
            getattr(got.lp, name), getattr(ref.lp, name), err_msg=name
        )
    assert got.lp.n_ub == ref.lp.n_ub
    assert got.lp.name == ref.lp.name
    assert [
        got.lp.var_name(k) for k in range(got.lp.num_variables)
    ] == ref.model.names
    assert got.slots == ref.slots
    assert got.reusable == ref.reusable
    assert list(got.d_keys(np.arange(len(ref.d_keys)))) == ref.d_keys
    assert got._n_groups == ref.n_groups
    assert got._switch_names == ref.switch_names
    for name, want in (
        ("_d_group", ref.d_group),
        ("_member_slot_idx", ref.member_slot),
        ("_member_var_idx", ref.member_var),
        ("_member_class_idx", ref.member_cls),
        ("_rate_positions", ref.rate_positions),
        ("_rate_class_idx", ref.rate_cls),
        ("_slot_cap", ref.slot_cap),
        ("_use", [ref.slot_cores, ref.slot_mem][: 1 if memory is None else 2]),
        ("_slot_switch", ref.slot_switch),
        ("_q_idx", ref.q_idx),
    ):
        np.testing.assert_array_equal(getattr(got, name), want, err_msg=name)
    # The core-budget rows the ceiling repair retunes carry the budgets.
    np.testing.assert_array_equal(
        got.lp.rhs[got._core_rows],
        [float(cores.get(sw, 0)) for sw in got._switch_names],
    )
    return got, ref


def _default_cap(nf):
    return DEFAULT_CATALOG.get(nf).capacity_mbps


# ---------------------------------------------------------------------------
# (a) The evaluation topologies, with and without memory rows.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", ["internet2", "geant"])
@pytest.mark.parametrize("with_memory", [False, True])
def test_assembler_matches_reference_on_topology(topology, with_memory):
    _topo, controller, series = standard_setup(topology, snapshots=2)
    cores = controller.available_cores()
    memory = controller.available_memory_gb() if with_memory else None
    for matrix in series.snapshots:
        classes = controller.build_classes(matrix)
        assert_same_as_reference(classes, cores, memory, _default_cap, DEFAULT_CATALOG)


# ---------------------------------------------------------------------------
# (b) Random instances: partial hosts, revisited switches, shared slots,
#     empty chains, a memoryless NF, zero rates.
# ---------------------------------------------------------------------------

SWITCHES = ["s0", "s1", "s2", "s3", "s4"]
NFS = ["firewall", "ids", "nat", "proxy"]
#: Datasheets the strategy assembles against: ``nat`` needs no memory, so
#: its q columns carry no memory-row entry.
STUB_CATALOG = SimpleNamespace(
    get={
        "firewall": SimpleNamespace(cores=4, memory_gb=2.0),
        "ids": SimpleNamespace(cores=8, memory_gb=8.0),
        "nat": SimpleNamespace(cores=2, memory_gb=0.0),
        "proxy": SimpleNamespace(cores=4, memory_gb=4.0),
    }.__getitem__
)


@st.composite
def instances(draw):
    hosts = draw(st.lists(st.sampled_from(SWITCHES), min_size=1, unique=True))
    cores = {sw: draw(st.integers(1, 64)) for sw in hosts}
    cores.setdefault(draw(st.sampled_from(SWITCHES)), 0)  # listed, maybe not a host
    classes = []
    for k in range(draw(st.integers(1, 5))):
        # Paths may revisit a switch; every path crosses at least one host.
        path = draw(st.lists(st.sampled_from(SWITCHES), min_size=1, max_size=5))
        if not any(cores.get(sw, 0) > 0 for sw in path):
            path.insert(draw(st.integers(0, len(path))), hosts[0])
        chain = draw(st.lists(st.sampled_from(NFS), max_size=4, unique=True))
        rate = draw(st.sampled_from([0.0, 1.0, 37.5, 900.0]))
        classes.append(
            TrafficClass(f"c{k}", path[0], path[-1], tuple(path), PolicyChain(chain), rate)
        )
    memory = None
    if draw(st.booleans()):
        memory = {sw: float(draw(st.integers(0, 64))) for sw in hosts[:-1] or hosts}
    headroom = draw(st.sampled_from([1.0, 0.8]))
    return classes, cores, memory, headroom


@given(instances())
@settings(max_examples=150, deadline=None)
def test_assembler_matches_reference_on_random_instances(instance):
    classes, cores, memory, headroom = instance

    def cap(nf):
        return DEFAULT_CATALOG.get(nf).capacity_mbps * headroom

    got, _ref = assert_same_as_reference(classes, cores, memory, cap, STUB_CATALOG)
    loaded = [c for c in classes if c.chain_length]
    assert got.reusable == all(c.rate_mbps != 0.0 for c in loaded)


# ---------------------------------------------------------------------------
# (c) Tenant-sized models on Internet2: one to three classes, single-host
#     paths and single-NF chains, chains sharing NFs and classes sharing
#     slots, memory rows or none, zero rates.
# ---------------------------------------------------------------------------

_INTERNET2 = internet2()
_ROUTER = Router(_INTERNET2)
#: Chains a tenant draws from: one-NF chains, and chains sharing NFs.
TENANT_CHAINS = (
    ("firewall",),
    ("ids",),
    ("firewall", "ids"),
    ("nat", "firewall"),
    ("firewall", "ids", "proxy"),
)


@st.composite
def tenant_instances(draw):
    switches = sorted(_INTERNET2.switches)
    classes = []
    for k in range(draw(st.integers(1, 3))):
        src = draw(st.sampled_from(switches))
        dst = draw(st.sampled_from([s for s in switches if s != src]))
        chain = draw(st.sampled_from(TENANT_CHAINS))
        rate = draw(st.sampled_from([0.0, 1.0, 37.5, 900.0]))
        path = tuple(_ROUTER.path(src, dst))
        classes.append(
            TrafficClass(f"t/{k}", src, dst, path, PolicyChain(chain), rate)
        )
    # Hosts on the classes' paths: often one per path (H = 1), and paths
    # that cross a common host share its slots.
    on_paths = sorted({s for cls in classes for s in cls.path})
    hosts = set(draw(st.lists(st.sampled_from(on_paths), min_size=1, max_size=3)))
    for cls in classes:
        if hosts.isdisjoint(cls.path):
            hosts.add(draw(st.sampled_from(cls.path)))
    cores = {s: draw(st.integers(1, 64)) if s in hosts else 0 for s in switches}
    memory = None
    if draw(st.booleans()):
        memory = {s: float(draw(st.integers(0, 64))) for s in sorted(hosts)}
    return classes, cores, memory


@given(tenant_instances())
@settings(max_examples=120, deadline=None)
def test_assembler_matches_reference_on_tenant_models(instance):
    classes, cores, memory = instance
    got, _ref = assert_same_as_reference(
        classes, cores, memory, _default_cap, DEFAULT_CATALOG
    )
    # A zero rate drops its Eq. 5 entries: the template is single-shot.
    assert got.reusable == all(c.rate_mbps != 0.0 for c in classes)


def _template(engine, classes, cores):
    """The structure phase ``engine.place`` runs on a cache miss."""
    classes = engine._clamped(classes)
    return assemble_placement_lp(classes, cores, None, engine._cap, engine.catalog)


def test_zero_rate_class_makes_the_template_single_shot():
    engine = OptimizationEngine(config=EngineConfig(min_class_rate_mbps=0.0))
    classes = [
        TrafficClass("idle", "a", "b", ("a", "b"), PolicyChain(["firewall"]), 0.0),
        TrafficClass("busy", "a", "b", ("a", "b"), PolicyChain(["firewall"]), 50.0),
    ]
    cores = {"a": 8, "b": 8}
    assert _template(engine, classes, cores).reusable is False
    first = engine.place(classes, cores)
    assert first.total_instances() == 1
    assert not engine._templates  # single-shot templates are never cached
    # ... so the next call of the same structure builds again, never re-solves.
    busier = [classes[0], classes[1].with_rate(900.0)]
    second = engine.place(busier, cores)
    assert not first.warm_start and not second.warm_start
    assert (engine.cold_builds, engine.warm_solves) == (2, 0)
    assert second.quantities == OptimizationEngine(
        config=EngineConfig(min_class_rate_mbps=0.0)
    ).place(busier, cores).quantities


# ---------------------------------------------------------------------------
# set_rates + solve == fresh build + solve, bit for bit.
# ---------------------------------------------------------------------------


def test_rate_rewrite_equals_fresh_build_bit_for_bit():
    _topo, controller, series = standard_setup("internet2", snapshots=3)
    cores = controller.available_cores()
    class_sets = [controller.build_classes(m) for m in series.snapshots]
    assert len({tuple(c.class_id for c in cs) for cs in class_sets}) == 1
    engine = OptimizationEngine()
    template = _template(engine, class_sets[0], cores)
    for k, classes in enumerate(class_sets):
        clamped = engine._clamped(classes)
        template.set_rates(clamped)
        fresh = _template(engine, classes, cores)
        np.testing.assert_array_equal(template.lp.data, fresh.lp.data)
        rewritten = lp_module.solve_lp(template.lp)
        rebuilt = lp_module.solve_lp(fresh.lp)
        assert rewritten.objective == rebuilt.objective
        np.testing.assert_array_equal(rewritten.solution, rebuilt.solution)
        # The engine's own cache: built on the first snapshot, then rewritten.
        warm = engine.place(classes, cores)
        assert warm.warm_start == (k > 0)
        cold = OptimizationEngine().place(classes, cores)
        assert warm.quantities == cold.quantities
        assert warm.distribution == cold.distribution
        assert (warm.objective, warm.lp_bound) == (cold.objective, cold.lp_bound)


# ---------------------------------------------------------------------------
# Array feasibility check == the reference's row-by-row check.
# ---------------------------------------------------------------------------

_FEASIBILITY_CLASSES = [
    TrafficClass("c0", "s0", "s2", ("s0", "s1", "s2"), PolicyChain(["firewall", "ids"]), 400.0),
    TrafficClass("c1", "s1", "s2", ("s1", "s2"), PolicyChain(["ids"]), 300.0),
]
_FEASIBILITY_CORES = {"s0": 8, "s1": 16, "s2": 8}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_array_feasibility_agrees_with_model_check(data):
    memory = {"s0": 8.0, "s1": 16.0, "s2": 8.0}
    ref = reference(
        _FEASIBILITY_CLASSES, _FEASIBILITY_CORES, memory, _default_cap, DEFAULT_CATALOG
    )
    lp = assemble_placement_lp(
        _FEASIBILITY_CLASSES, _FEASIBILITY_CORES, memory, _default_cap, DEFAULT_CATALOG
    ).lp
    # Quarter-grid points: exactly representable, so the two summation
    # orders cannot disagree at a boundary; some land feasible, most not.
    point = np.array(
        [
            data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, -0.25]))
            if not lp.integer_mask[k]
            else float(data.draw(st.integers(-1, 3)))
            for k in range(lp.num_variables)
        ]
    )
    assert lp.is_feasible(point) == (not ref.model.violations(point))


def test_array_feasibility_accepts_solved_points_and_rejects_perturbed_ones():
    template = _template(OptimizationEngine(), _FEASIBILITY_CLASSES, _FEASIBILITY_CORES)
    template.set_rates(_FEASIBILITY_CLASSES)
    solved = lp_module.solve_lp(template.lp).solution
    assert template.lp.is_feasible(solved)
    broken = solved.copy()
    broken[0] += 0.5  # breaks c0's Eq. 4 row (and possibly its bound)
    assert not template.lp.is_feasible(broken)
    assert template.lp.objective_value(solved) == pytest.approx(
        solved[template._q_idx].sum()
    )


# ---------------------------------------------------------------------------
# The scipy fallback is fed from the same arrays and agrees with the
# direct HiGHS path.
# ---------------------------------------------------------------------------


def _place_both_ways(monkeypatch, classes, cores, memory=None):
    direct = OptimizationEngine().place(classes, cores, memory)
    monkeypatch.setattr(lp_module, "HAVE_DIRECT_HIGHS", False)
    fallback = OptimizationEngine().place(classes, cores, memory)
    return direct, fallback


@pytest.mark.skipif(
    not lp_module.HAVE_DIRECT_HIGHS, reason="no direct HiGHS binding to compare with"
)
def test_linprog_fallback_matches_direct_path_on_geant(monkeypatch):
    _topo, controller, series = standard_setup("geant", snapshots=1)
    classes = controller.build_classes(series.snapshots[0])
    direct, fallback = _place_both_ways(
        monkeypatch, classes, controller.available_cores()
    )
    assert fallback.quantities == direct.quantities
    assert fallback.distribution == direct.distribution
    assert fallback.objective == direct.objective


@pytest.mark.skipif(
    not lp_module.HAVE_DIRECT_HIGHS, reason="no direct HiGHS binding to compare with"
)
def test_linprog_fallback_matches_direct_path_through_rounding(monkeypatch):
    # 700 Mbps of IDS is 1.17 instances of 8 GB; the LP parks it all on one
    # 12 GB switch, the ceiling (2 instances, 16 GB) overshoots memory, and
    # the engine defers to iterative rounding.
    cls = TrafficClass("c1", "a", "c", ("a", "b", "c"), PolicyChain(["ids"]), 700.0)
    cores = {"a": 64, "b": 64, "c": 64}
    memory = {"a": 12.0, "b": 12.0, "c": 12.0}
    calls = []
    real = lp_module.solve_lp

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.solver.rounding.solve_lp", counting)
    direct, fallback = _place_both_ways(monkeypatch, [cls], cores, memory)
    assert calls, "the instance no longer reaches the rounding fallback"
    assert fallback.quantities == direct.quantities
    assert fallback.distribution == direct.distribution
    assert fallback.objective == direct.objective
    assert not direct.validate(cores, available_memory_gb=memory)
