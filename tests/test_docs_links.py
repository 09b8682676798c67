"""The repo's Markdown cross-references stay unbroken (tools/check_links.py)."""

import re
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_links  # noqa: E402


def test_github_slug():
    assert check_links.github_slug("Quick start") == "quick-start"
    assert check_links.github_slug("Run manifests (`run.json`, schema `apple-run/v1`)") == (
        "run-manifests-runjson-schema-apple-runv1"
    )
    assert check_links.github_slug("Fig. 12 — loss") == "fig-12--loss"


def test_checker_flags_broken_links(tmp_path, monkeypatch):
    (tmp_path / "a.md").write_text("# A\n[ok](b.md)\n[bad](missing.md)\n")
    (tmp_path / "b.md").write_text("# B heading\n[anchor](a.md#a)\n[bad](a.md#nope)\n")
    monkeypatch.setattr(check_links, "ROOT", tmp_path)
    assert check_links.main([]) == 1
    problems = check_links.check_file(tmp_path / "a.md")
    assert [p[0] for p in problems] == ["missing.md"]
    problems = check_links.check_file(tmp_path / "b.md")
    assert [p[0] for p in problems] == ["a.md#nope"]


def test_code_fences_are_skipped(tmp_path):
    md = tmp_path / "c.md"
    md.write_text("# C\n```\n[not a link](nowhere.md)\n```\n")
    assert check_links.check_file(md) == []


def test_repo_docs_have_no_broken_links(capsys):
    """The real check CI runs — every *.md and docs/ link resolves."""
    rc = check_links.main([])
    out = capsys.readouterr().out
    assert rc == 0, f"broken markdown links:\n{out}"


@pytest.mark.parametrize("doc", ["ARCHITECTURE.md", "OBSERVABILITY.md"])
def test_docs_linked_from_readme(doc):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert f"docs/{doc}" in readme, f"README.md must link docs/{doc}"


def _layout_modules(design: str) -> set:
    """Module paths named in DESIGN.md's ``src/repro/`` layout tree.

    A line indented six spaces starts an entry: ``pkg/  a, b (note), c``
    names ``pkg/a.py`` ...; a bare ``name`` is a top-level ``name.py``.
    Deeper-indented lines continue the last package's list.
    """
    lines = design.split("## Repository layout", 1)[1].splitlines()
    start = lines.index("    src/repro/") + 1
    found, package = set(), None
    for line in lines[start:]:
        if not line.startswith("      "):
            break
        body = line.strip()
        if not line.startswith("       "):
            head, _, body = body.partition(" ")
            if not head.endswith("/"):
                found.add(f"{head}.py")
                package = None
                continue
            package = head
        body = re.sub(r"\([^)]*\)", "", body)
        found.update(f"{package}{n.strip()}.py" for n in body.split(",") if n.strip())
    return found


def test_design_layout_tree_matches_src():
    """DESIGN.md's layout names exactly the modules under src/repro/."""
    root = Path(__file__).parent.parent
    listed = _layout_modules((root / "DESIGN.md").read_text())
    src = root / "src" / "repro"
    actual = {
        p.relative_to(src).as_posix()
        for p in src.rglob("*.py")
        if p.name != "__init__.py"
    }
    assert sorted(listed - actual) == [], "DESIGN.md names modules that do not exist"
    assert sorted(actual - listed) == [], "modules missing from DESIGN.md's tree"
