"""Docs-coverage: the metric catalog in the docs matches the code.

Every metric registered via the central catalog must appear in
``docs/OBSERVABILITY.md``'s catalog table with the right type and
labels — and the doc must not list metrics that no longer exist.
"""

import re
from pathlib import Path

from repro.obs.catalog import CATALOG, register_all
from repro.obs.metrics import MetricsRegistry

DOC = Path(__file__).parent.parent / "docs" / "OBSERVABILITY.md"

ROW_RE = re.compile(
    r"^\| `(?P<name>[a-z][a-z0-9_]*)` \| (?P<type>counter|gauge|histogram)"
    r"(?: \([a-z ]+\))? \| (?P<labels>[^|]+) \|"
)


def _catalog_names():
    return sorted(d.name for d in CATALOG)


def _documented_rows():
    rows = {}
    for line in DOC.read_text().splitlines():
        m = ROW_RE.match(line)
        if m:
            labels = re.findall(r"`([a-z0-9_]+)`", m.group("labels"))
            rows[m.group("name")] = (m.group("type"), tuple(labels))
    return rows


def test_doc_exists_and_has_rows():
    assert DOC.exists(), "docs/OBSERVABILITY.md missing"
    assert len(_documented_rows()) >= 30


def test_every_catalog_metric_is_documented():
    documented = _documented_rows()
    missing = [n for n in _catalog_names() if n not in documented]
    assert not missing, (
        f"metrics registered in repro/obs/catalog.py but absent from "
        f"docs/OBSERVABILITY.md: {missing}"
    )


def test_no_stale_documented_metrics():
    documented = _documented_rows()
    stale = [n for n in documented if n not in _catalog_names()]
    assert not stale, (
        f"metrics documented in docs/OBSERVABILITY.md but no longer in "
        f"repro/obs/catalog.py: {stale}"
    )


def test_documented_types_and_labels_match():
    documented = _documented_rows()
    for d in CATALOG:
        doc_type, doc_labels = documented[d.name]
        assert doc_type == d.kind, f"{d.name}: doc says {doc_type}, code {d.kind}"
        assert doc_labels == d.labels, (
            f"{d.name}: doc labels {doc_labels}, code labels {d.labels}"
        )


def test_registry_contents_equal_catalog():
    """enable() registers exactly the catalog — nothing ad hoc."""
    reg = MetricsRegistry()
    register_all(reg)
    assert reg.names() == list(_catalog_names())
