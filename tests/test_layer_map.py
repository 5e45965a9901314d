"""The benchmark's layer map names only functions that exist.

`perfbench/layers.py` lists the nmcode functions a traced benchmark run
wraps, by module and qualified name. A rename in `src/` that it does not
follow breaks `perfbench/run.py --trace 1` only when that mode runs, so
this test resolves every entry on each tier-1 run. Likewise a removed
parameter that a workload still passes breaks only a benchmark run, so
every workload's first round runs here at its tiny size, and so does the
per-op table that `--trace 1` times, and nmext-reduce's first 100
verdicts at full size must give the exact results in `pins.json`. The
files are loaded from their paths and nothing in them is changed.
"""

import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MAP = runpy.run_path(str(PERFBENCH / "layers.py"))


@pytest.mark.parametrize("layer", MAP["LAYERS"], ids=lambda layer: layer.name)
def test_layer_resolves_to_an_nmcode_callable(layer):
    target = importlib.import_module(f"nmcode.{layer.module}")
    for part in layer.qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_argument_counters_name_mapped_layers():
    names = {layer.name for layer in MAP["LAYERS"]}
    assert set(MAP["ARG_COUNTERS"]) <= names


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", MAP["WORKLOADS"])
def test_tiny_workload_round_runs_and_checks(workloads, name):
    verdicts = workloads.build(name, 1, "tiny").round(0)
    assert verdicts
    for verdict in verdicts:
        verdict.check(verdict.run())


def test_nmext_reduce_reproduces_its_pins(workloads):
    """The first 100 verdicts of nmext-reduce at seed 1 and full size give
    the exact results pinned in pins.json, as every benchmark run checks."""
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    assert (pins["seed"], pins["size"]) == (1, "full")
    want = pins["nmext-reduce"]
    assert len(want) == 100
    workload = workloads.NmextReduce(1, "full")
    got = []
    r = 0
    while len(got) < len(want):
        got += [verdict.check(verdict.run()) for verdict in workload.round(r)]
        r += 1
    assert got[: len(want)] == want


def test_op_table_times_every_op():
    """`op_table` runs perm_for, apply_int, invert_int, encode_int(rng=)
    and decode_int of each layer; five calls per op reach every one."""
    table = runpy.run_path(str(PERFBENCH / "run.py"))["op_table"](1, 5)
    ops = ["tamper.apply", "perm.apply", "perm.invert", "inner.encode", "inner.decode",
           "lecss.encode", "lecss.decode", "concat.encode", "concat.decode"]
    assert set(table) == {f"op.{op}.{m}" for op in ops for m in ("us", "loops")}
    for op in ops:
        assert table[f"op.{op}.loops"] == (5, "count")
        assert table[f"op.{op}.us"][0] > 0
