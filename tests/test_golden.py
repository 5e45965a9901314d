"""Every CLI operation against its committed golden report.

Each `tests/golden/<operation>.json` file holds one config with its report
(less `wall_time_s`) and one bad config with its exit-2 message; see
`update_golden.py`, which rewrites them. A failure names the first field
that differs.
"""

import json
from fractions import Fraction

import pytest

from nmcode.cli import OPERATIONS
from update_golden import CASES, GOLDEN, exit_2_message, first_difference, report


def _golden(operation: str) -> dict:
    return json.loads((GOLDEN / f"{operation}.json").read_text())


def test_one_golden_file_per_operation():
    assert sorted(CASES) == sorted(OPERATIONS)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(OPERATIONS)


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_report_matches_golden(operation):
    golden = _golden(operation)
    assert golden["config"]["operation"] == operation
    got = report(golden["config"])
    diff = first_difference(golden["report"], got)
    assert diff is None, f"{operation}: first difference at {diff}"


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_bad_config_exits_2_with_golden_message(operation):
    golden = _golden(operation)
    assert golden["bad_config"]["operation"] == operation
    assert exit_2_message(golden["bad_config"]) == golden["exit_2_message"]


def _keys(obj) -> set:
    """Every key of every object nested in a JSON value."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_only_the_verdicts_decide(operation):
    """No result holds a decision of its own: a report passes exactly when
    all its verdicts pass, each verdict's float is its exact value's, and a
    sampled verdict reports its radius."""
    report = _golden(operation)["report"]
    assert "pass" not in _keys(report["results"])
    assert report["pass"] is all(v["passed"] for v in report["verdicts"])
    for verdict in report["verdicts"]:
        assert float(Fraction(verdict["worst_value"])) == verdict["worst_value_float"]
        assert not (verdict["radius"] == 0 and verdict["details"].get("mode") == "sampled"), verdict["name"]


def test_golden_exit_codes():
    failing = {op for op in OPERATIONS if not _golden(op)["report"]["pass"]}
    assert failing == {"inner-verify", "perm-test"}


def test_first_difference_names_the_path():
    want = {"a": [1, {"b": 2.0}], "c": True}
    assert first_difference(want, json.loads(json.dumps(want))) is None
    assert first_difference(want, {"a": [1, {"b": 2.5}], "c": True}) == "$.a[1].b"
    assert first_difference(want, {"a": [1, {"b": 2}], "c": True}) == "$.a[1].b"
    assert first_difference(want, {"a": [1], "c": True}) == "$.a[1]"
    assert first_difference(want, {"a": [1, {"b": 2.0}], "c": 1}) == "$.c"
    assert first_difference(want, {"a": [1, {"b": 2.0}]}) == "$.c"
