"""Config-field census: every ``*Config`` field is a setting someone sets.

A field of a ``*Config`` dataclass that no ``src/`` call site sets by
keyword has one value in use: it is a constant dressed as a knob, and
every such knob doubles the configurations nobody tests.  This census
parses ``src/repro``, collects the fields of every dataclass whose name
ends in ``Config`` and every keyword (or positional) argument given to a
call of that class, and fails on a field no call site sets, unless
:data:`ALLOWED` says why it stays settable.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_HYSTERESIS = "the pure input of decide(); property tests sweep it"

#: (config, field) -> why the field stays settable with no src/ setter.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("EngineConfig", "min_class_rate_mbps"): "tests move the class-rate floor",
    ("FailoverConfig", "detection_delay"): "tests/test_core_dynamic.py::"
    "test_detection_delay_scales_loss compares a fast and a slow reaction",
    ("ControllerCrashConfig", "window"): "tests pack crashes to check spacing",
    ("ClickOSConfig", "parameters"): "per-deployment role parameters",
    ("HysteresisConfig", "high_watermark"): _HYSTERESIS,
    ("HysteresisConfig", "low_watermark"): _HYSTERESIS,
    ("HysteresisConfig", "target_utilization"): _HYSTERESIS,
    ("HysteresisConfig", "up_dwell"): _HYSTERESIS,
    ("HysteresisConfig", "down_dwell"): _HYSTERESIS,
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _census() -> Tuple[Dict[str, List[str]], Dict[str, Set[str]]]:
    """``({config: fields}, {config: fields set at some src/ call})``."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    fields: Dict[str, List[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                fields[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
    set_at: Dict[str, Set[str]] = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name not in fields:
                continue
            set_at[name].update(kw.arg for kw in node.keywords if kw.arg)
            set_at[name].update(fields[name][: len(node.args)])
    return fields, set_at


def test_every_config_field_is_set_at_a_src_call_site():
    fields, set_at = _census()
    assert fields, "found no *Config dataclass under src/repro"
    unset = [
        f"{config}.{field}"
        for config, names in sorted(fields.items())
        for field in names
        if field not in set_at[config] and (config, field) not in ALLOWED
    ]
    assert not unset, (
        "config fields no src/ call site sets (make them module constants, "
        f"or allow them with a reason): {unset}"
    )


def test_allowlist_names_only_live_unset_fields():
    fields, set_at = _census()
    stale = [
        f"{config}.{field}"
        for config, field in sorted(ALLOWED)
        if field not in fields.get(config, ()) or field in set_at[config]
    ]
    assert not stale, f"allowlist entries that no longer apply: {stale}"
