"""Sanity tests for every experiment module (quick-scale)."""

import pytest

from repro.experiments import (
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
    table4,
    table5,
)
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


def test_table1_rows():
    result = table1.run()
    assert len(result.rows) == 8


def test_table4_matches_catalog():
    result = table4.run()
    assert len(result.rows) == 4


def test_table5_quick():
    result = table5.run(quick=True)
    assert {r[0] for r in result.rows} == {"internet2", "geant", "univ1"}
    for row in result.rows:
        assert row[4] > 0  # measured time
        assert row[6] > 0  # instances


def test_fig6_knee_and_size_independence():
    result = fig6.run(quick=True)
    below = [r for r in result.rows if r[0] <= 8.0]
    above = [r for r in result.rows if r[0] >= 10.0]
    assert all(r[1] == 0 for r in below)
    assert all(r[1] > 0 for r in above)
    for r in result.rows:
        assert abs(r[1] - r[2]) < 0.02  # 64B vs 1500B


def test_fig7_boot_band():
    result = fig7.run(quick=True)
    per_run = [r for r in result.rows if isinstance(r[0], int)]
    assert all(3.7 <= r[1] <= 4.8 for r in per_run)


def test_fig8_scenarios():
    result = fig8.run(quick=True)
    assert {r[0] for r in result.rows} == {
        "no-failover", "wait-5s", "reconfigure", "naive",
    }


def test_fig9_zero_loss():
    result = fig9.run()
    loss = next(r[2] for r in result.rows if r[1] == "total packet loss")
    assert loss == 0


def test_fig10_quick():
    result = fig10.run(topologies=("internet2",), quick=True)
    assert result.rows[0][3] > 2.0  # median reduction well above 1


def test_fig11_quick():
    result = fig11.run(topologies=("internet2",), quick=True)
    assert result.rows[0][3] > 1.5


def test_fig12_quick():
    result = fig12.run(topologies=("internet2",), quick=True)
    row = result.rows[0]
    assert row[3] <= row[1]  # failover mean loss <= baseline


def test_fig5_breakdown_quick():
    from repro.experiments import fig5

    result = fig5.run(quick=True)
    rows = {r[0]: r[1] for r in result.rows}
    assert 3.8 <= rows["end-to-end boot (mean)"] <= 4.7
    assert rows["fast path (reconfigure spare), measured"] <= 0.05


def test_packet_replay_quick():
    from repro.experiments import packet_replay

    result = packet_replay.run(quick=True)
    rows = {r[0]: r[1] for r in result.rows}
    assert rows["policy violations"] == 0
    assert rows["delivered"] > 0
    assert rows["measured loss"] < 0.1


def test_pinned_quick_seed1_signatures():
    """The ``--quick --seed 1`` state signatures every change to the
    control plane has been compared against by hand since the southbound
    fabric became the only writer.  A plan, an epoch or a ledger entry
    that moves changes them; a deliberate change updates them here."""
    from repro.experiments import controller_crash, multi_tenant

    tenants = multi_tenant.run(seed=1, quick=True)
    assert [(row[0], row[-1]) for row in tenants.rows] == [
        (8, "572252533493d43d"),
        (16, "7a0cba55ab055dab"),
    ]
    crash = controller_crash.run(seed=1, quick=True)
    signature = crash.columns.index("Signature")
    assert [(row[0], row[signature]) for row in crash.rows] == [
        (name, "7fcdfe243983c31b")
        for name in ("baseline", "crash#1", "crash#2", "all-crashes")
    ]


def test_pinned_quick_seed1_single_controller_tables():
    """The single-controller stack's ``--quick --seed 1`` tables: chaos
    recovery (``failure-recovery``, ``southbound-chaos``) and the elastic
    loop (``flash-crowd`` signatures), each re-planning through the
    controller's one step.  A deliberate change updates them here."""
    from repro.experiments import failure_recovery, flash_crowd, southbound_chaos

    assert failure_recovery.run(seed=1, quick=True).rows == [
        ["internet2", 2, 2, 0.646015, 0.751016, 0.891515, 1.25, 22, 0.0, 3, 866,
         2, 0, 0, "OK"]
    ]
    assert southbound_chaos.run(seed=1, quick=True).rows == [
        ["0%", 72, 0, 0, 0, 0, 2, 0, 0, 3, 0.222228, 1.25, 0.0, 0, "OK"],
        ["10%", 72, 12, 12, 12, 0, 2, 0, 0, 3, 0.772704, 2.0, 0.0, 0, "OK"],
    ]
    assert [
        flash_crowd._flash_row(amplitude, seed=1, quick=True)[1]
        for amplitude in (2.0, 8.0)
    ] == ["a92afcca64e047f4", "d79d77c025ed1829"]


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
