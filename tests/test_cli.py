"""Tests for the experiments command-line interface."""

import pytest

from repro.experiments.cli import _QUICKABLE, EXPERIMENTS, main
from repro.experiments.harness import display_name, normalize_name


def test_all_experiments_registered():
    expected = {
        "table1", "table4", "table5",
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        "packet_replay", "failure_recovery", "failure_sweep",
        "southbound_chaos", "multi_tenant", "flash_crowd",
        "controller_crash",
    }
    assert set(EXPERIMENTS) == expected
    assert _QUICKABLE <= set(EXPERIMENTS)


def test_name_normalization_single_source():
    """harness.normalize_name is THE hyphen/underscore folding point."""
    assert normalize_name("failure-recovery") == "failure_recovery"
    assert normalize_name("failure_recovery") == "failure_recovery"
    assert normalize_name("  Packet-Replay ") == "packet_replay"
    assert normalize_name("southbound-chaos") == "southbound_chaos"
    assert display_name("failure_recovery") == "failure-recovery"
    assert display_name("southbound_chaos") == "southbound-chaos"
    assert display_name("fig12") == "fig12"
    # Every registry key round-trips through both spellings.
    for key in EXPERIMENTS:
        assert normalize_name(display_name(key)) == key


def test_help_text_uses_hyphenated_names(capsys):
    """The CLI help and EXPERIMENTS.md agree: hyphenated display names
    everywhere, with normalize_name as the single folding point."""
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    # Every multi-word experiment appears in hyphenated form...
    for key in EXPERIMENTS:
        assert display_name(key) in out
    # ...and no underscored registry key leaks into the help text.
    for key in EXPERIMENTS:
        if "_" in key:
            assert key not in out, f"underscored name {key!r} leaked into --help"
    assert "normalize_name" in out  # the documented folding point


def test_cli_accepts_hyphenated_names(capsys):
    # failure-recovery and failure_recovery are the same experiment.
    assert main(["failure-recovery", "--quick", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "failure-recovery" in out
    assert "seed 2" in out


def test_cli_runs_subset(capsys):
    assert main(["table1", "table4"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table IV" in out
    assert "Fig. 6" not in out


def test_cli_quick_flag(capsys):
    assert main(["fig9", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "overload-detected" in out


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["table4", "--output", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("# APPLE reproduction")
    assert "VNF data sheets" in text


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_module_entry_point():
    import repro.__main__  # importable without running

    from repro.experiments import cli

    assert repro.__main__.main is cli.main
