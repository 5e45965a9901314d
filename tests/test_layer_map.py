"""The benchmark's layer map names only functions that exist.

`perfbench/layers.py` lists the nmcode functions a traced benchmark run
wraps, by module and qualified name. A rename in `src/` that it does not
follow breaks `perfbench/run.py --trace 1` only when that mode runs, so
this test resolves every entry on each tier-1 run. The file is loaded
from its path and nothing in it is changed.
"""

import importlib
import runpy
from pathlib import Path

import pytest

MAP = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"))


@pytest.mark.parametrize("layer", MAP["LAYERS"], ids=lambda layer: layer.name)
def test_layer_resolves_to_an_nmcode_callable(layer):
    target = importlib.import_module(f"nmcode.{layer.module}")
    for part in layer.qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_argument_counters_name_mapped_layers():
    names = {layer.name for layer in MAP["LAYERS"]}
    assert set(MAP["ARG_COUNTERS"]) <= names
