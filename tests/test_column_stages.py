"""tools/column_stages.py: the counts repeat, and its wrappers come off."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import column_stages  # noqa: E402
import repro.dataplane.sharded as sharded  # noqa: E402


def test_cli_check_passes_and_leaves_nothing_installed(capsys):
    walker = sharded._ColumnWalker
    before = (sharded._merge_runs, walker._group, walker._check_bulk, walker._bulk_apply)
    args = ["--sim-seconds", "2", "--repeats", "2", "--check"]
    assert column_stages.main(args) == 0
    first = capsys.readouterr().out
    assert column_stages.main(args) == 0
    again = capsys.readouterr().out
    after = (sharded._merge_runs, walker._group, walker._check_bulk, walker._bulk_apply)
    assert after == before

    def counts(out):
        rows = dict(line.split(None, 1) for line in out.splitlines() if line[0] != " ")
        return [rows[key] for key in ("window", "groups", "instances", "arrivals", "ledger")]

    assert counts(first) == counts(again)
    for stage in column_stages.STAGES + ("walk", "other"):
        assert any(line.split()[0] == stage for line in first.splitlines())
    assert ", 0, 0], sequential_packets 0" in first
