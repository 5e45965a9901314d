"""Golden CLI reports: one small config and one bad config per operation.

`tests/golden/<operation>.json` holds, for each `cli.OPERATIONS` entry, a
config, the report `run_config` gives for it without `wall_time_s` (the
configs write no outputs, so no report holds a path), a config that the
CLI rejects and the message it exits 2 with. `tests/test_golden.py` runs
every file and names the first field that differs.

Rewrite the files after a change that alters a report on purpose, and say
in CHANGES.md which operation changed and why:

    PYTHONPATH=src python tests/update_golden.py [operation ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from nmcode import cli
from nmcode.core import dumps_report

GOLDEN = Path(__file__).resolve().parent / "golden"


def _config(operation: str, params: Optional[dict] = None, **top) -> dict:
    config = {"operation": operation, "seed": 4, "jobs": 1} | top
    return config | ({"params": params} if params is not None else {})


#: operation -> (config, bad config). Every config runs in well under a second.
CASES = {
    "inner-sample": (_config("inner-sample", {"n": 8, "k": 2, "t": 4}),
                     _config("inner-sample", {"n": 8, "k": 2})),
    "inner-verify": (_config("inner-verify", {"n": 6, "k": 2, "t": 4}, seeds=2),
                     _config("inner-verify", {"n": 6, "k": 2, "t": 4}, checks=["parity"])),
    "lecss-build": (_config("lecss-build", {"n": 8, "alpha": 0.5}),
                    _config("lecss-build", {"n": 8, "alpha": 1.5})),
    "lecss-encode": (_config("lecss-encode", {"n": 4, "alpha": 0.5, "message": "5"}),
                     _config("lecss-encode", {"n": 4, "alpha": 0.5, "message": "fffff"})),
    "lecss-decode": (_config("lecss-decode", {"n": 4, "alpha": 0.5, "word": "05"}),
                     _config("lecss-decode", {"n": 4, "alpha": 0.5, "word": "1ff"})),
    "lecss-verify": (_config("lecss-verify", {"n": 8, "alpha": 0.5}),
                     _config("lecss-verify", {"n": 8, "alpha": 1.5})),
    "perm-derive": (_config("perm-derive", {"n": 8, "z": 5}),
                    _config("perm-derive", {"n": 8, "backend": "sort"})),
    "perm-test": (_config("perm-test", {"n": 8, "ell": 2}, samples=500),
                  _config("perm-test", {"n": 8, "ell": 9}, samples=500)),
    "concat-plan": (_config("concat-plan", {"total_bits": 2048, "gamma0": 0.5}),
                    _config("concat-plan", {"total_bits": 2048})),
    "concat-encode": (_config("concat-encode", {"message": "2a"}),
                      _config("concat-encode", {"message": "1ff"})),
    "concat-decode": (_config("concat-decode", {"word": "bd64f52832"}),
                      _config("concat-decode", {"word": "1ffffffffff"})),
    "concat-roundtrip": (_config("concat-roundtrip", {"t_block": 2, "t_seed": 4}, samples=20),
                         _config("concat-roundtrip", {"t_block": 2}, samples=0)),
    "concat-attack": (_config("concat-attack", {"adversaries": 8, "messages": 4}, samples=200),
                      _config("concat-attack", {"messages": 300}, samples=200)),
    "nmext-sample": (_config("nmext-sample", {"n": 3, "m": 1}),
                     _config("nmext-sample", {"n": 3, "m": 7})),
    "nmext-check": (_config("nmext-check", {"n": 3, "m": 2}),
                    _config("nmext-check", {"n": 0, "m": 1})),
    "nmext-reduce": (_config("nmext-reduce", {"n": 3, "m": 1, "adversaries": 6}),
                     _config("nmext-reduce", {"n": 3, "m": 1, "adversaries": 0})),
}


def report(config: dict) -> dict:
    """The report of a config as JSON reads it back, without wall time."""
    got = json.loads(dumps_report(cli.run_config(config)))
    del got["wall_time_s"]
    return got


def exit_2_message(config: dict) -> str:
    """What `nmcode --config` prints to stderr for a config it must reject
    with exit code 2; raises AssertionError on any other exit code."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fp:
            json.dump(config, fp)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", path])
    assert code == 2, f"exit code {code}, not 2, for {config}"
    return err.getvalue()


def first_difference(want, got, path: str = "$") -> Optional[str]:
    """The path of the first field where got differs from want, in sorted
    key order; None when they are equal. 1, 1.0 and True differ."""
    if type(want) is not type(got):
        return path
    if isinstance(want, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return f"{path}.{key}"
            diff = first_difference(want[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        for i, (w, g) in enumerate(zip(want, got)):
            diff = first_difference(w, g, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(want) == len(got) else f"{path}[{min(len(want), len(got))}]"
    return None if want == got else path


def write(operation: str) -> None:
    config, bad = CASES[operation]
    golden = {"config": config, "report": report(config),
              "bad_config": bad, "exit_2_message": exit_2_message(bad)}
    (GOLDEN / f"{operation}.json").write_text(dumps_report(golden) + "\n")


def main(argv: list) -> int:
    unknown = set(argv) - set(CASES)
    if unknown:
        print(f"unknown operation(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for operation in argv or CASES:
        write(operation)
        print(f"wrote {GOLDEN / operation}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
