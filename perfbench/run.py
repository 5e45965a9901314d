"""Verdict benchmark for nmcode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload attack-fuzz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--trace 0` runs a fixed batch of whole rounds of verdicts, sized from
`--seconds` (see batch_rounds) and at least MIN_VERDICTS verdicts, and prints
the end-to-end metrics, with times scaled to a reference machine speed (see
run_batch). `--trace 1` runs a fixed number of verdicts once untraced and
once traced, and prints the per-layer metrics, the tracing overhead and the
untraced per-op table. `--workload all` runs each workload in its own
process, one after another.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the manifest and
each metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1  # the seed the pinned values were computed at
HELD_OUT_SEED = 1309  # a second seed on which claimed gains must also hold
MIN_VERDICTS = 100  # so that verdict_s.p90 has at least ten verdicts beyond it
# Reference speed: the median seconds of calibration_pass() between the
# verdicts of full runs on a 2-core Intel Xeon under Python 3.11 (README,
# "Timings").
CAL_REF_S = 0.004
# Seconds of one full-size round at the reference speed; sizes the batch.
ROUND_S = {"attack-fuzz": 1.9, "exhaustive-verify": 1.9, "nmext-reduce": 2.3}
SETUP_PROBES = 7
TRACE_VERDICTS = {"attack-fuzz": 60, "exhaustive-verify": 60, "nmext-reduce": 40}
OP_LOOPS = {"full": 20_000, "tiny": 200}
PINS_PATH = HERE / "pins.json"

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)

def _import_program():
    """Import nmcode from this checkout's src/, never from anywhere else."""
    if not (SRC / "nmcode" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nmcode sources at {SRC}; run from a full checkout")
    # The verdicts are single-threaded Python; keep numpy's native pools at
    # one thread so that nothing else runs beside them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    global nmcode, numpy, workloads, layers, tracer
    import nmcode
    import numpy
    import layers
    import tracer
    import workloads


# ---------------------------------------------------------------------------
# Timed verdicts and their checks
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mix(self, x):
        return (self.v * x) & 0xFFFF


def calibration_pass():
    """Seconds taken by a fixed mix of pure-Python work: dict and integer
    operations, method calls, Fraction arithmetic, and hashing, seeding
    and shuffling as perm derivation does. The speed a shared machine
    gives one process can drift by half over tens of seconds; this mix
    slows down with it, so it serves as a speed reference."""
    t0 = perf_counter()
    table, acc, cell = {}, 0, _Cell(3)
    for i in range(1700):
        k = (i * 7919) & 1023
        acc += table.get(k, 0) ^ cell.mix(i)
        table[k] = acc & 0xFFFF
    frac = Fraction(0)
    for i in range(1, 130):
        frac = abs(frac + Fraction(i % 97, i) - Fraction(1, 3))
    for i in range(100):
        rng = random.Random(int.from_bytes(hashlib.sha256(b"%d" % i).digest(), "big"))
        rng.shuffle(list(range(32)))
    return perf_counter() - t0


class Batch:
    """The results of a batch of verdicts, the seconds of each verdict as
    measured, and each verdict's factor to the reference speed (1.0
    without calibration, see run_batch)."""

    def __init__(self):
        self.results, self.times, self.scales, self.passes = [], [], [], []

    def durations(self, scaled=True):
        if not scaled:
            return list(self.times)
        return [t * s for t, s in zip(self.times, self.scales)]


def batch_rounds(name, wl, seconds, min_verdicts):
    """The fixed number of rounds a run makes: enough for `min_verdicts`
    verdicts, and enough to fill about `seconds` at the reference speed.
    It depends on the arguments only, never on how fast the program is, so
    two runs with the same arguments time the same verdicts."""
    per_round = len(wl.round(0))
    return max(-(-min_verdicts // per_round), round(seconds / ROUND_S[name]))


def run_batch(wl, rounds, trace=None, calibrate=False):
    """Run rounds 0 .. rounds-1 of the workload's verdicts.

    With `calibrate`, a calibration pass runs before the first verdict and
    after each verdict, and each verdict's scale is CAL_REF_S over the mean
    of the two passes around it: scaled times then read as seconds at the
    reference speed, whatever speed the machine gave the run at that moment.
    """
    batch = Batch()
    if calibrate:
        batch.passes.append(calibration_pass())
    for r in range(rounds):
        for verdict in wl.round(r):
            if trace is not None:
                trace.label = verdict.kind
            t0 = perf_counter()
            try:
                out, err = verdict.run(), None
            except Exception as exc:  # a failed verdict is counted, not fatal
                traceback.print_exc()
                out, err = None, exc
            batch.times.append(perf_counter() - t0)
            batch.results.append((verdict, out, err))
            scale = 1.0
            if calibrate:
                batch.passes.append(calibration_pass())
                scale = CAL_REF_S / statistics.fmean(batch.passes[-2:])
            batch.scales.append(scale)
    if trace is not None:
        trace.label = None
    return batch


def check_batch(results, pins=None):
    """Returns (failed count, exact result string of each verdict)."""
    failed = 0
    exact = []
    for i, (verdict, out, err) in enumerate(results):
        got = None
        if err is None:
            try:
                got = verdict.check(out)
            except workloads.CheckFailed as exc:
                print(f"check failed: verdict {i} ({verdict.kind}): {exc}", file=sys.stderr)
                err = exc
        if err is None and pins is not None and i < len(pins) and got != pins[i]:
            print(f"pin mismatch: verdict {i} ({verdict.kind}): {got!r} != {pins[i]!r}",
                  file=sys.stderr)
            err = ValueError("pin mismatch")
        failed += err is not None
        exact.append(got)
    return failed, exact


def load_pins(name, seed, size):
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(PINS_PATH) as fp:
        return json.load(fp).get(name)


def measure_setup(name, seed, size, probes):
    """Seconds from process start to ready-to-verdict, in fresh processes,
    as measured and at the reference speed (see run_batch)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--setup-probe"]
    times, scaled = [], []
    cal = calibration_pass()
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe for {name} failed")
        after = calibration_pass()
        times.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / ((cal + after) / 2))
        cal = after
    return times, scaled


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(name, seed, seconds, size="full", pins=None, probes=SETUP_PROBES,
               min_verdicts=MIN_VERDICTS):
    setup_raw, setup = measure_setup(name, seed, size, probes)
    wl = workloads.build(name, seed, size)
    rounds = batch_rounds(name, wl, seconds, min_verdicts)
    batch = run_batch(wl, rounds, calibrate=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = check_batch(batch.results, pins)[0]
    completed = sum(err is None for _, _, err in batch.results)

    def times(scaled):
        durations = batch.durations(scaled)
        return {
            "verdicts_per_s": completed / sum(durations),
            "verdict_s.p50": statistics.median(durations),
            "verdict_s.p90": _p90(durations),
        }

    metrics = {"setup_s": statistics.median(setup), **times(True), "peak_rss_mb": rss}
    units = dict(END_TO_END)
    raw = {"setup_s": statistics.median(setup_raw), **times(False)}
    info = {
        "manifest": manifest(seed, size, wl),
        "verdicts": len(batch.results),
        "rounds": rounds,
        "raw": {k: (v, units[k]) for k, v in raw.items()},
        "calibration_s": batch.passes,
    }
    return _result(len(batch.results), failed,
                   {k: (v, units[k]) for k, v in metrics.items()}), info


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(name, seed, size="full", pins=None, verdicts=None):
    verdicts = TRACE_VERDICTS[name] if verdicts is None else verdicts
    ops = op_table(seed, OP_LOOPS[size])

    t0 = perf_counter()
    wl = workloads.build(name, seed, size)
    rounds = batch_rounds(name, wl, 0, verdicts)
    plain = run_batch(wl, rounds).results
    untraced = perf_counter() - t0

    trace = tracer.Tracer(layers.LAYERS)
    trace.install()
    try:
        t0 = perf_counter()
        wl = workloads.build(name, seed, size)
        traced_results = run_batch(wl, rounds, trace=trace).results
        traced = perf_counter() - t0
    finally:
        trace.uninstall()

    failed = check_batch(plain, pins)[0] + check_batch(traced_results, pins)[0]
    self_times = trace.self_times()
    if sum(self_times.values()) > traced:
        print("trace: self times exceed the traced wall time", file=sys.stderr)
        failed += 1

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer.name}.calls"] = (trace.calls(layer.name), "count")
        metrics[f"{layer.name}.self_s"] = (self_times[layer.name], "s")
    iter_enc = "concat.ConcatCode.iter_encodings_int"
    decode = "concat.ConcatCode.decode_int"
    metrics[f"{iter_enc}.yields"] = (trace.yields(iter_enc), "count")
    metrics["lecss.decode_per_concat_decode"] = (_ratio(
        trace.calls("lecss.LecssCode.decode_int", parent=decode), trace.calls(decode)), "ratio")
    for half in ("case1", "keep_heavy"):
        label = f"exact.{half}"
        metrics[f"concat.decode_per_encoding.{half}"] = (_ratio(
            trace.calls(decode, parent="concat.ConcatCode.exact_outcome_dist", label=label),
            trace.yields(iter_enc, label=label)), "ratio")
    for counter in ("schemes.samples", "lp.solve_lp.tableau_cells",
                    "nmext.relaxed_error_sweep.support_pairs"):
        metrics[counter] = (trace.counters.get(counter, 0), "count")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics.update(ops)
    info = {"manifest": manifest(seed, size, wl), "verdicts": len(plain)}
    return _result(len(plain) + len(traced_results), failed, metrics), info


def _ratio(num, den):
    return num / den if den else 0.0


def op_table(seed, loops):
    """Untraced µs per call of the nine per-op functions, best of three
    loops of `loops` calls, on inputs drawn from the attack-fuzz code."""
    from nmcode import concat, tamper
    from nmcode.core import RngSeed

    root = RngSeed.from_int(seed)
    plan = concat.toy_concat_plan()
    code = concat.build_concat(plan, root.child(0))
    rng = root.stream("perfbench.ops")

    def draw(bits):
        return [rng.getrandbits(bits) for _ in range(loops)]

    f = tamper.random_tamper(code.block_bits, (0.6, 0.2, 0.2), rng)
    p = code.perm_for(rng.getrandbits(plan.seed_message_bits))
    block, lecss = code.block_code, code.lecss
    blocks = draw(plan.block_in)
    lecss_msgs = draw(lecss.message_bits)
    msgs = draw(code.message_bits)
    payloads = draw(plan.payload_bits)
    ops = {
        "tamper.apply": (f.apply_int, draw(code.block_bits)),
        "perm.apply": (p.apply_int, payloads),
        "perm.invert": (p.invert_int, payloads),
        "inner.encode": (partial(block.encode_int, rng=rng), blocks),
        "inner.decode": (block.decode_int, [block.encode_int(b, rng) for b in blocks]),
        "lecss.encode": (partial(lecss.encode_int, rng=rng), lecss_msgs),
        "lecss.decode": (lecss.decode_int, [lecss.encode_int(s, rng) for s in lecss_msgs]),
        "concat.encode": (partial(code.encode_int, rng=rng), msgs),
        "concat.decode": (code.decode_int, [code.encode_int(s, rng) for s in msgs]),
    }
    out = {}
    for op, (fn, inputs) in ops.items():
        best = None
        for _ in range(3):
            t0 = perf_counter()
            for x in inputs:
                fn(x)
            elapsed = perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        out[f"op.{op}.us"] = (best / loops * 1e6, "us")
        out[f"op.{op}.loops"] = (loops, "count")
    return out


def _result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def manifest(seed, size, wl):
    return {
        "package": nmcode.__version__,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": size,
        "inputs": wl.sizes,
    }


def _git_revision():
    """The commit of this checkout; "unknown" when it is not a git repository
    or git is missing. Git does not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _print_result(name, result, info):
    print("manifest " + json.dumps(info["manifest"], sort_keys=True))
    n = info["verdicts"]
    for metric, entry in result["metrics"].items():
        note = f"  (n={n})" if metric.startswith("verdict_s.") else ""
        print(f"{name}  {metric}  {entry['value']:.6g} {entry['unit']}{note}")
    if "raw" in info:
        print(f"{name}  rounds  {info['rounds']}")
        for metric, (value, unit) in info["raw"].items():
            print(f"{name}  raw.{metric}  {value:.6g} {unit}  (as measured, not scaled)")
        passes = info["calibration_s"]
        print(f"{name}  calibration_pass  {len(passes)} passes, ms min/median/max "
              f"{min(passes) * 1e3:.3f}/{statistics.median(passes) * 1e3:.3f}/"
              f"{max(passes) * 1e3:.3f}  (reference {CAL_REF_S * 1e3:g})")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{name}  failed_frac  {failed_frac:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))


def _run_all(args):
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in layers.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))


def _write_pins():
    pins = {"seed": DEFAULT_SEED, "size": "full"}
    for name in layers.WORKLOADS:
        wl = workloads.build(name, DEFAULT_SEED)
        results = run_batch(wl, batch_rounds(name, wl, 0, MIN_VERDICTS)).results
        failed, exact = check_batch(results)
        if failed:
            sys.exit(f"perfbench: {failed} verdicts of {name} failed; pins not written")
        if any(e is not None for e in exact):
            pins[name] = exact[:MIN_VERDICTS]
    with open(PINS_PATH, "w") as fp:
        json.dump(pins, fp, indent=1)
        fp.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["attack-fuzz", "exhaustive-verify", "nmext-reduce", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print 'ready' and exit")
    parser.add_argument("--write-pins", action="store_true",
                        help=f"recompute pins.json at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    _import_program()

    if args.write_pins:
        _write_pins()
        return 0
    if args.workload == "all":
        _run_all(args)
        return 0
    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0
    pins = load_pins(args.workload, args.seed, args.size)
    if args.trace:
        result, info = per_layer(args.workload, args.seed, args.size, pins)
    else:
        result, info = end_to_end(args.workload, args.seed, args.seconds, args.size, pins)
    _print_result(args.workload, result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
