"""Every entry point the benchmark's layer trace wraps still exists.

``perfbench/layers.py`` wraps loopcert functions by (module, attribute)
name; a renamed or deleted one only shows up as a crash of
``perfbench/run.py --trace 1``, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for _, module, attr in layers.SPANS]


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("module,attr", ENTRY_POINTS,
                         ids=[f"{m}.{a}" for m, a in ENTRY_POINTS])
def test_span_entry_point_resolves(module, attr):
    owner = importlib.import_module(f"loopcert.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
