"""Self-test of the benchmark: every workload at its tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_end_to_end_metrics_and_no_failures(name):
    result, info = run.end_to_end(name, SEED, 0, size="tiny", probes=1, min_verdicts=1)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0
    assert result["correct"] and result["attempted"] == info["verdicts"] > 0


def test_wrong_pin_counts_as_failure():
    wl = workloads.build(layers.EXHAUSTIVE, SEED, "tiny")
    results = run.run_batch(wl, 1).results
    failed, exact = run.check_batch(results)
    assert failed == 0 and all(e is not None for e in exact)
    assert run.check_batch(results, list(exact))[0] == 0
    wrong = list(exact)
    wrong[3] = "bottom=1/2"
    assert run.check_batch(results, wrong)[0] == 1


def test_broken_invariant_counts_as_failure():
    wl = workloads.build(layers.NMEXT, SEED, "tiny")
    results = run.run_batch(wl, 1).results
    verdict, report, _ = results[0]
    report.rows[0].code_error = report.rows[0].bound + 1
    assert run.check_batch(results)[0] == 1


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_traced_run_reports_every_layer(name):
    result, _ = run.per_layer(name, SEED, size="tiny", verdicts=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0
    for layer in layers.LAYERS:
        called = metrics[f"{layer.name}.calls"] > 0
        assert called == (name in layer.active), layer.name
        assert metrics[f"{layer.name}.self_s"] >= 0
    self_total = sum(metrics[f"{layer.name}.self_s"] for layer in layers.LAYERS)
    assert self_total <= metrics["trace.traced_wall_s"]
    assert metrics["trace.untraced_wall_s"] > 0
    expected_nonzero = {
        layers.ATTACK: ["lecss.decode_per_concat_decode", "schemes.samples"],
        layers.EXHAUSTIVE: ["concat.ConcatCode.iter_encodings_int.yields",
                            "concat.decode_per_encoding.case1",
                            "concat.decode_per_encoding.keep_heavy"],
        layers.NMEXT: ["lp.solve_lp.tableau_cells", "nmext.relaxed_error_sweep.support_pairs"],
    }[name]
    for metric in expected_nonzero:
        assert metrics[metric] > 0, metric
    assert all(metrics[k] > 0 for k in metrics if k.startswith("op."))


def test_tracer_restores_the_originals():
    import nmcode
    from nmcode import concat, lp, nmext
    from tracer import Tracer

    before = (nmext.min_copy_distance_m1, concat.sample_inner_code,
              concat.ConcatCode.__dict__["decode_int"],
              nmcode.core.FiniteDist.__dict__["from_samples"])
    trace = Tracer(layers.LAYERS)
    trace.install()
    try:
        assert nmext.min_copy_distance_m1 is lp.min_copy_distance_m1
        assert nmext.min_copy_distance_m1 is not before[0]
        assert concat.ConcatCode.__dict__["decode_int"] is not before[2]
    finally:
        trace.uninstall()
    after = (nmext.min_copy_distance_m1, concat.sample_inner_code,
             concat.ConcatCode.__dict__["decode_int"],
             nmcode.core.FiniteDist.__dict__["from_samples"])
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(layers.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
