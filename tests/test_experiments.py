"""Experiment plumbing: result formatting, the standard setup, pinned
signatures and ``--jobs`` fan-out.  The paper's claims, one test per
figure or table, are in ``tests/test_paper_claims.py``."""

from collections import Counter

import pytest

from repro.experiments import fig12
from repro.experiments.harness import ExperimentResult, standard_setup


def test_result_formatting():
    result = ExperimentResult(
        experiment="X",
        description="desc",
        paper_expectation="expect",
        columns=["a", "b"],
        rows=[[1, 2.34567], ["x", "y"]],
        notes="n",
    )
    text = result.format()
    assert "X: desc" in text and "paper: expect" in text and "note: n" in text
    assert "2.346" in text  # float formatting


def test_standard_setup_shapes():
    topo, controller, series = standard_setup("internet2", snapshots=3)
    assert topo.name == "internet2"
    assert len(series) == 3
    classes = controller.build_classes(series.mean())
    assert classes


def test_standard_setup_univ1_edge_only():
    topo, controller, series = standard_setup("univ1", snapshots=2)
    for src, dst, _ in series.mean().pairs(min_rate=1e-6):
        assert src.startswith("edge") and dst.startswith("edge")
    assert controller.router.ecmp  # data center uses multipath


def test_pinned_quick_seed1_signatures():
    """The ``--quick --seed 1`` state signatures every change to the
    control plane has been compared against by hand since the southbound
    fabric became the only writer.  A plan, an epoch or a ledger entry
    that moves changes them; a deliberate change updates them here (last:
    re-plans solved against the installed plan, make-before-break in the
    placement model)."""
    from repro.experiments import controller_crash, multi_tenant

    tenants = multi_tenant.run(seed=1, quick=True)
    assert [(row[0], row[-1]) for row in tenants.rows] == [
        (8, "e899374b49a1e8f2"),
        (16, "ca946429135e91bb"),
    ]
    crash = controller_crash.run(seed=1, quick=True)
    signature = crash.columns.index("Signature")
    assert [(row[0], row[signature]) for row in crash.rows] == [
        (name, "ac0ed349dfeade13")
        for name in ("baseline", "crash#1", "crash#2", "all-crashes")
    ]


def _transactions(committed):
    return {
        "committed": committed, "committed_partial": 0, "failed": 0,
        "rolled_back": 0, "superseded": 0,
    }


#: ``result.metrics["southbound"]`` of each chaos run the test below makes,
#: in run order.  No table column reads ``max_observed_drift`` or the
#: convergence instants; a tick on the wrong side of a same-instant push
#: moves them.  Since make-before-break became a row of the placement
#: model, the first re-plan after day 0 is solved against the day-0 plan
#: and consolidates it (failure-recovery: 61 → 54 instances at 9.0 s,
#: then 52), so epoch 1 is a real push where it was a no-op: 108
#: messages, not 72; in the southbound-chaos runs that push meets the
#: disconnected switch (lost messages, a circuit open at 0 % loss too).
_CHAOS_SOUTHBOUND = [
    # failure-recovery
    {
        "acks": {"applied": 108, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 108, "reconcile_repairs": 0,
        "reconcile_ticks": 44, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=3),
        "convergences": [
            {"converged_at": 9.21, "epoch": 1, "latency": 0.21, "pushed_at": 9.0},
            {"converged_at": 10.71, "epoch": 2, "latency": 0.21, "pushed_at": 10.5},
            {"converged_at": 16.21, "epoch": 3, "latency": 0.21, "pushed_at": 16.0},
        ],
    },
    # southbound-chaos 0%
    {
        "acks": {"applied": 108, "duplicate": 0, "stale": 0}, "circuit_opens": 1,
        "degraded_seconds": 1.073406489, "give_ups": 0, "max_observed_drift": 259,
        "messages_lost": 5, "messages_sent": 108, "reconcile_repairs": 0,
        "reconcile_ticks": 48, "retries": 5, "rollback_ops": 0, "timeouts": 5,
        "transactions": _transactions(committed=3),
        "convergences": [
            {"converged_at": 12.183425596, "epoch": 1, "latency": 3.183425596, "pushed_at": 9.0},
            {"converged_at": 12.508303073, "epoch": 2, "latency": 0.324877477, "pushed_at": 12.183425596},
            {"converged_at": 16.41074787, "epoch": 3, "latency": 0.41074787, "pushed_at": 16.0},
        ],
    },
    # southbound-chaos 10%
    {
        "acks": {"applied": 95, "duplicate": 13, "stale": 0}, "circuit_opens": 1,
        "degraded_seconds": 1.073406489, "give_ups": 0, "max_observed_drift": 259,
        "messages_lost": 25, "messages_sent": 108, "reconcile_repairs": 0,
        "reconcile_ticks": 48, "retries": 25, "rollback_ops": 0, "timeouts": 25,
        "transactions": _transactions(committed=3),
        "convergences": [
            {"converged_at": 12.695002712, "epoch": 1, "latency": 3.695002712, "pushed_at": 9.0},
            {"converged_at": 13.536870014, "epoch": 2, "latency": 0.841867302, "pushed_at": 12.695002712},
            {"converged_at": 17.584787927, "epoch": 3, "latency": 1.584787927, "pushed_at": 16.0},
        ],
    },
    # flash-crowd 2x
    {
        "acks": {"applied": 36, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 36, "reconcile_repairs": 0,
        "reconcile_ticks": 40, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=1),
        "convergences": [
            {"converged_at": 7.21, "epoch": 1, "latency": 0.21, "pushed_at": 7.0},
        ],
    },
    # flash-crowd 8x
    {
        "acks": {"applied": 108, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 108, "reconcile_repairs": 0,
        "reconcile_ticks": 40, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=3),
        "convergences": [
            {"converged_at": 6.71, "epoch": 1, "latency": 0.21, "pushed_at": 6.5},
            {"converged_at": 8.21, "epoch": 2, "latency": 0.21, "pushed_at": 8.0},
            {"converged_at": 14.21, "epoch": 3, "latency": 0.21, "pushed_at": 14.0},
        ],
    },
]

#: Per ``flash-crowd --quick --seed 1`` amplitude (2x, 8x), the elastic
#: admission chain: verdicts the elastic loop submitted (``_act`` calls),
#: verdicts the worker refused, ``OptimizationEngine.place()`` calls the
#: worker made, and per overload (an op whose admit-all state ``place()``
#: refused) the LP relaxation probes of the bisection, the ``place()``
#: calls (admit-all, the first confirm, then one per refused confirm) and
#: the confirms refused although their relaxation is feasible (each one a
#: "rounding repair gave up" refusal).  The chain was 52 / 49 / 52 at 8x
#: while each refusal came back as a new verdict with one more class shed;
#: the worker now asks the model's relaxation inside one op.
_FLASH_CHAIN = [
    {"verdicts": 1, "refused": 0, "place() calls": 1, "overloads": []},
    {
        "verdicts": 3, "refused": 0, "place() calls": 45,
        "overloads": [
            {"probes": 8, "place() calls": 36, "repair refusals": 34},
            {"probes": 8, "place() calls": 8, "repair refusals": 6},
        ],
    },
]


def test_pinned_quick_seed1_single_controller_tables(monkeypatch):
    """The chaos stack's ``--quick --seed 1`` tables: chaos recovery
    (``failure-recovery``, ``southbound-chaos``) and the elastic loop
    (``flash-crowd`` signatures), each re-planning through the tenant
    worker that adopted the controller's day-0 deployment; every run's
    southbound metrics dict, read from the same runs; and per flash-crowd
    amplitude the elastic admission chain (see ``_FLASH_CHAIN``).  A
    deliberate change updates them here."""
    from repro.core.engine import OptimizationEngine, PlacementError
    from repro.elastic.loop import ElasticController
    from repro.experiments import failure_recovery, flash_crowd, southbound_chaos
    from repro.experiments.scenario import World
    from repro.tenancy.worker import TenantWorker

    chain = Counter()
    act, finished = ElasticController._act, ElasticController.finished
    admit, place = TenantWorker._admit, OptimizationEngine.place
    relaxed = OptimizationEngine.relaxation_feasible
    ops = []  # per worker op: [probes, place() calls, refusal reasons]
    in_op = []  # the op being admitted, if any

    def counting_act(elastic, *args, **kwargs):
        chain["verdicts"] += 1
        return act(elastic, *args, **kwargs)

    def counting_finished(elastic, record, outcome):
        chain["refused"] += outcome is None
        return finished(elastic, record, outcome)

    def counting_admit(worker, *args, **kwargs):
        ops.append([0, 0, []])
        in_op.append(ops[-1])
        try:
            return admit(worker, *args, **kwargs)
        finally:
            in_op.pop()

    def counting_place(engine, *args, **kwargs):
        for op in in_op:
            op[1] += 1
        try:
            return place(engine, *args, **kwargs)
        except PlacementError as exc:
            for op in in_op:
                op[2].append(str(exc))
            raise

    def counting_relaxed(engine, *args, **kwargs):
        in_op[-1][0] += 1
        return relaxed(engine, *args, **kwargs)

    monkeypatch.setattr(ElasticController, "_act", counting_act)
    monkeypatch.setattr(ElasticController, "finished", counting_finished)
    monkeypatch.setattr(TenantWorker, "_admit", counting_admit)
    monkeypatch.setattr(OptimizationEngine, "place", counting_place)
    monkeypatch.setattr(OptimizationEngine, "relaxation_feasible", counting_relaxed)

    def admission_chain():
        overloads = []
        for probes, calls, reasons in ops:
            if not probes:
                continue
            # The admit-all state's refusal is not a confirm.
            confirms = reasons[1:]
            assert all(r.startswith("rounding repair gave up") for r in confirms)
            overloads.append(
                {"probes": probes, "place() calls": calls,
                 "repair refusals": len(confirms)}
            )
        return dict(
            chain,
            **{"place() calls": sum(op[1] for op in ops),
               "overloads": overloads},
        )

    southbound = []
    finish = World.finish

    def recording_finish(world):
        result = finish(world)
        southbound.append(result.metrics["southbound"])
        # The one-tenant orchestrator's isolation audit ran all along.
        assert result.summary["cross_tenant_violation_seconds"] == 0
        return result

    monkeypatch.setattr(World, "finish", recording_finish)

    assert failure_recovery.run(seed=1, quick=True).rows == [
        ["internet2", 2, 2, 0.646015, 0.856016, 0.891515, 1.5, 27, 0.0, 3, 1283,
         1, 0, 0, "OK"]
    ]
    assert southbound_chaos.run(seed=1, quick=True).rows == [
        ["0%", 108, 5, 5, 5, 1, 3, 0, 0, 3, 1.30635, 3.25, 0.0, 0, "OK"],
        ["10%", 108, 25, 25, 25, 1, 3, 0, 0, 3, 2.040553, 3.75, 0.0, 0, "OK"],
    ]
    signatures, chains = [], []
    for amplitude in (2.0, 8.0):
        chain.clear()
        ops.clear()
        signatures.append(flash_crowd._flash_row(amplitude, seed=1, quick=True)[1])
        chains.append(admission_chain())
    # 8x: placement_failures 49 -> 0 (one verdict per overload).
    assert signatures == ["2cb9a5447d49d5b1", "57719d8e9389b021"]
    assert chains == _FLASH_CHAIN
    assert southbound == _CHAOS_SOUTHBOUND


@pytest.mark.parametrize("name", ["failure_recovery", "southbound_chaos", "failure_sweep"])
def test_jobs_auto_rows_equal_serial_rows(name):
    """``--jobs auto`` (the CLI help documents it) lets the tuner decide;
    it must run, and give the serial rows."""
    import importlib

    run = importlib.import_module(f"repro.experiments.{name}").run
    kwargs = {} if name == "failure_sweep" else {"seed": 1}
    assert run(quick=True, jobs="auto", **kwargs).rows == run(
        quick=True, jobs=1, **kwargs
    ).rows


def test_fig12_jobs_auto_rows_equal_serial_rows():
    """Full-scale Fig. 12 (three topologies, 120 snapshots): the tuner's
    fan-out gives the serial rows in the serial order."""
    assert fig12.run(jobs="auto").rows == fig12.run(jobs=1).rows
