"""Static checks of the driver census allow-list (``tools/driver_census.py``).

The census itself runs every driver under a profiler, which takes
minutes, so CI runs it in its own job.  Here only the allow-list is
checked: every entry names a function that exists under ``src/repro``,
says why it stays, and is not a dunder protocol method (those are exempt
by rule, so an entry for one would never be checked; ``__init__`` is
judged like any other method).
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "driver_census.py"


def _census():
    spec = importlib.util.spec_from_file_location("driver_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


CENSUS = _census()


def test_every_allowed_key_names_a_function():
    keys = {fn.key for fn in CENSUS.functions().values()}
    missing = [key for key in CENSUS.ALLOWED if key not in keys]
    assert not missing, f"allow-listed but no such function: {missing}"


def test_every_allowed_key_has_a_reason():
    empty = [key for key, reason in CENSUS.ALLOWED.items() if not reason.strip()]
    assert not empty, f"allow-listed without a reason: {empty}"


def test_no_allowed_key_names_a_dunder():
    dunders = [key for key in CENSUS.ALLOWED if CENSUS.exempt(key.split(":", 1)[1])]
    assert not dunders, f"dunders are exempt by rule: {dunders}"
