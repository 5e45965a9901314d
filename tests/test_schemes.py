"""The count kernel `schemes._counts` and the verdicts that read its rows,
against the per-message Fraction-dict path of `bit_tamper_oracle`.

Sampled verdicts must equal the oracle on the same seeds: the kernel seeds
two generators per call from the caller's stream, as the oracle does, and
reads them in run order over rows laid end to end, where the oracle draws
a whole row at a time.
"""

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bit_tamper_oracle as oracle
from nmcode import core, schemes
from nmcode.concat import attack_experiment, build_concat, toy_concat_plan
from nmcode.core import BitWord, FiniteDist, RngSeed, push_copy, statistical_distance
from nmcode.inner import InnerParams, sample_inner_code
from nmcode.lecss import LecssCode
from nmcode.nmext import sample_random_extractor
from nmcode.tamper import BitTamperFn, random_tamper
from split_state_oracle import ExtractorCode, random_split_tamper

PROFILES = ((0.92, 0.0, 0.08), (0.5, 0.25, 0.25), (0.0, 0.5, 0.5))


def _codes():
    yield "inner-8-3", sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4300))
    yield "inner-6-2", sample_inner_code(InnerParams(n=6, k=2, t=4, delta=0.17), RngSeed.from_int(4301))
    yield "lecss-4", LecssCode(m=4, n=4, k=3, k0=1)
    yield "lecss-3", LecssCode(m=3, n=6, k=4, k0=2)
    yield "concat", build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4302))
    for n in (3, 4):
        for m in (1, 2):
            table = sample_random_extractor(n, m, RngSeed.from_int(4310 + 10 * n + m))
            yield f"extractor-{n}-{m}", ExtractorCode(table)


CODES = dict(_codes())


def _adversaries(code, rng):
    if isinstance(code, ExtractorCode):
        return [random_split_tamper(code.block_bits, fpf, rng) for fpf in (False, True)]
    return [BitTamperFn.identity(code.block_bits)] + [
        random_tamper(code.block_bits, p, rng) for p in PROFILES
    ]


def _messages(code, rng):
    nmsg = 1 << code.message_bits
    return list(range(nmsg)) if nmsg <= 16 else rng.sample(range(nmsg), 12)


def _same_report(report, expected):
    value, radius, per = expected
    assert (report.value, report.radius, report.per_message) == (value, radius, per)


@pytest.mark.parametrize("name", list(CODES))
def test_exact_verdicts_equal_oracle(name):
    code = CODES[name]
    rng = random.Random(4320)
    for f in _adversaries(code, rng):
        ref = schemes.reference_dist(code, f)
        assert ref == oracle.reference_dist(code, f), f
        messages = _messages(code, rng)
        for s in messages[:4]:
            assert schemes.tampered_output_dist(code, f, s) == oracle.tampered_output_dist(code, f, s)
        report = schemes.nm_error(code, f, ref, messages=messages)
        _same_report(report, oracle.nm_error(code, f, ref, messages=messages))


@pytest.mark.parametrize("name", list(CODES))
def test_sampled_verdicts_equal_oracle_on_the_same_seeds(name):
    code = CODES[name]
    rng = random.Random(4330)
    for i, f in enumerate(_adversaries(code, rng)):
        messages = _messages(code, rng)[:5]
        ours, theirs = RngSeed.from_int(4340 + i).stream(), RngSeed.from_int(4340 + i).stream()
        ref = schemes.reference_dist(code, f, samples=3000, rng=ours)
        assert ref == oracle.reference_dist(code, f, samples=3000, rng=theirs)
        assert ref.samples == 3000
        report = schemes.nm_error(code, f, ref, messages=messages, samples=700, rng=ours)
        _same_report(report, oracle.nm_error(code, f, ref, messages=messages, samples=700, rng=theirs))
        dist = schemes.tampered_output_dist(code, f, messages[0], samples=500, rng=ours)
        assert dist == oracle.tampered_output_dist(code, f, messages[0], samples=500, rng=theirs)
        # An exact reference against sampled rows, and the reverse.
        exact = schemes.reference_dist(code, f)
        report = schemes.nm_error(code, f, exact, messages=messages, samples=300, rng=ours)
        _same_report(report, oracle.nm_error(code, f, exact, messages=messages, samples=300, rng=theirs))
        _same_report(schemes.nm_error(code, f, ref, messages=messages),
                     oracle.nm_error(code, f, ref, messages=messages))
        assert ours.getstate() == theirs.getstate()


# SHA-256 of `_sampled_rows` for every code but concat (whose sampled stream
# `test_cli.py` pins): references and per-message errors stay identical as
# long as no sampled stream changes. Re-pinned when `_counts` went from one
# generator per row to two per call.
SAMPLED_PINS = {
    "inner-8-3": "517de5d59483fa12f1d32af3d63303a4269293f79bec9b640750845a3c597087",
    "inner-6-2": "7fde8048218d90048dea73f3c43122d8de5ea842fb6162b47f67a55072a27224",
    "lecss-4": "ae469c638b791432300c03aa35a326d844818ceb354aa8dfc679b4a178b7353d",
    "lecss-3": "659f5d5f3c6a3205e9aef9ad07eb4f3c5557aff95c5423f5c010a10ab271fb0b",
    "extractor-3-1": "918ec6abc63a93072a527496d8fa2149a733e32946e6429548f7a2cf8a053269",
    "extractor-3-2": "72501ed45e1311bf7fb93a7ae90a518f68c24e0914a215fcf47dcb838c4b58c9",
    "extractor-4-1": "7fc73f52f2227b42bc79abb9770561f6af9654dd865859795fa2ae543082cdb4",
    "extractor-4-2": "2373e437b06ae631471e1f582dc8cf405e44e67c75985f1d7e63a7fd8d70e61b",
}


def _sampled_rows(code):
    """Sampled references and per-message errors of every adversary of the
    code, as JSON."""
    rng, stream = random.Random(4395), RngSeed.from_int(4396).stream()
    rows = []
    for f in _adversaries(code, rng):
        ref = schemes.reference_dist(code, f, samples=2000, rng=stream)
        report = schemes.nm_error(code, f, ref, messages=_messages(code, rng)[:6], samples=700, rng=stream)
        rows.append([ref.to_json(), {str(s): str(v) for s, v in report.per_message.items()}])
    return json.dumps(rows)


@pytest.mark.parametrize("name", list(SAMPLED_PINS))
def test_sampled_rows_pinned(name):
    digest = hashlib.sha256(_sampled_rows(CODES[name]).encode()).hexdigest()
    assert digest == SAMPLED_PINS[name]


@pytest.mark.parametrize("pass_rows, samples", [
    pytest.param(64, 1000, id="64"),
    pytest.param(300, 1000, id="300"),
    pytest.param(2500, 1000, id="2500"),
    pytest.param(128, 300, id="300-128"),
    pytest.param(1000, 2500, id="2500-1000"),
])
@pytest.mark.parametrize("name", ["concat", "extractor-4-2"])
def test_stacked_passes_equal_oracle_across_pass_boundaries(name, pass_rows, samples, monkeypatch):
    """Rows of 1,000 runs in passes of 64 or 300 runs, which do not divide
    them, and in passes of 2,500 runs, which hold two and a half rows; then
    rows of 300 runs in passes of 128 and rows of 2,500 in passes of 1,000
    (the ids name rows-passes). The extractor code draws through an array
    `high`. Rows, reference, report and the final stream state equal the
    oracle's whole-row draws on the same seeds."""
    monkeypatch.setattr(schemes, "PASS_ROWS", pass_rows)
    code = CODES[name]
    k = code.message_bits
    nmsg = 1 << k
    f = _adversaries(code, random.Random(4380))[-1]
    ours, theirs = RngSeed.from_int(4381).stream(), RngSeed.from_int(4381).stream()
    entries = [1, None, nmsg - 1, 0, None]
    rows = schemes._counts(code, f, entries, samples=samples, rng=ours)
    assert rows.sum(axis=1).tolist() == [samples] * 5
    assert [schemes._dist(row, k) for row in rows] == oracle.sampled_dists(code, f, samples, theirs, entries)
    ref = schemes.reference_dist(code, f, samples=samples, rng=ours)
    assert ref == oracle.reference_dist(code, f, samples=samples, rng=theirs)
    messages = [(3 * i + 2) % nmsg for i in range(5)]
    report = schemes.nm_error(code, f, ref, messages=messages, samples=samples, rng=ours)
    _same_report(report, oracle.nm_error(code, f, ref, messages=messages, samples=samples, rng=theirs))
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("name", list(CODES))
def test_rows_do_not_depend_on_the_pass_size(name, monkeypatch):
    """Rows of uniform and of fixed messages come out identical at passes of
    7, 128, 1,000 and PASS_ROWS runs, whether a pass cuts a row or holds
    several. The adversary freezes the first and last bits, so a row's
    counts depend on the encodings drawn."""
    code = CODES[name]
    nmsg = 1 << code.message_bits
    if isinstance(code, ExtractorCode):
        f = _adversaries(code, random.Random(4385))[-1]
    else:
        f = BitTamperFn.from_str("0" + "K" * (code.block_bits - 2) + "1")
    entries = [0, None, nmsg - 1, 1, None, 0]
    default = schemes._counts(code, f, entries, samples=500, rng=random.Random(4386))
    assert ((default > 0).sum(axis=1) > 1).all()
    for pass_rows in (7, 128, 1000):
        monkeypatch.setattr(schemes, "PASS_ROWS", pass_rows)
        rows = schemes._counts(code, f, entries, samples=500, rng=random.Random(4386))
        assert (rows == default).all(), pass_rows


def test_two_generators_per_call_and_passes_of_pass_rows(monkeypatch):
    """A sampled `_counts` call seeds two numpy generators however many rows
    it counts, and runs them in passes of PASS_ROWS runs; exact rows run in
    passes of PASS_ROWS encodings."""
    assert schemes.PASS_ROWS == 1 << 13
    code = build_concat(toy_concat_plan(), RngSeed.from_int(1))
    f = random_tamper(code.block_bits, PROFILES[1], random.Random(4393))
    seeded, lengths = [], []  # one entry per default_rng call; runs of each pass

    def default_rng(seed):
        seeded.append(seed)
        return default_rng.real(seed)

    def fold(g):
        run = type(code).fold(code, g)
        return lambda msgs, index: lengths.append(len(msgs)) or run(msgs, index)

    def decode_many(words):
        lengths.append(len(words))
        return type(code).decode_many(code, words)

    default_rng.real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(code, "fold", fold)
    monkeypatch.setattr(code, "decode_many", decode_many)
    rng = random.Random(4394)
    for entries, samples, passes in (([None] + list(range(16)), 1000, [8192, 8192, 616]),
                                     ([None, 3], 20000, [8192] * 4 + [7232]),
                                     ([5], 10, [10])):
        seeded.clear()
        lengths.clear()
        schemes._counts(code, f, entries, samples=samples, rng=rng)
        assert len(seeded) == 2
        assert lengths == passes
    lengths.clear()
    assert code.encoding_count(0) == 32768
    assert schemes._counts(code, f, [0])[0].sum() == 32768
    assert lengths == [8192] * 4


# Twenty attack verdicts after five warm-up ones, in a fresh interpreter: the
# minor page faults they take, from `ru_minflt`.
_FAULT_PROBE = """
import random, resource
from nmcode.concat import attack_experiment, build_concat, toy_concat_plan
from nmcode.core import RngSeed
from nmcode.tamper import random_tamper
code = build_concat(toy_concat_plan(), RngSeed.from_int(1))
rng = random.Random(4397)
advs = [random_tamper(code.block_bits, (0.5, 0.25, 0.25), rng) for _ in range(25)]
for i, f in enumerate(advs):
    if i == 5:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    attack_experiment(code, f, messages=list(range(16)), samples=1000, seed=RngSeed.from_int(i))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the fault count is a property of glibc's allocator")
def test_attack_verdicts_take_few_page_faults():
    """Passes of at most 2^13 runs keep every int64 temporary under
    glibc's 128 KiB mmap threshold, so a verdict reuses heap pages rather
    than mapping and faulting in fresh ones. Passes of 2^14 runs took
    hundreds of faults per verdict; the allocator's settings come from the
    defaults, not from the environment."""
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 30 * 20


def test_repeated_messages_count_once():
    """[s, s, t] gives the report of [s, t], from the same two generator seeds."""
    code = CODES["concat"]
    f = _adversaries(code, random.Random(4387))[-1]
    ref = schemes.reference_dist(code, f, samples=300, rng=random.Random(4388))
    ours, two_seeds = random.Random(4389), random.Random(4389)
    report = schemes.nm_error(code, f, ref, messages=[5, 5, 9], samples=300, rng=ours)
    _same_report(report, oracle.nm_error(code, f, ref, messages=[5, 9], samples=300,
                                         rng=random.Random(4389)))
    assert list(report.per_message) == [5, 9]
    two_seeds.getrandbits(128)
    two_seeds.getrandbits(128)
    assert ours.getstate() == two_seeds.getstate()
    exact = schemes.nm_error(code, f, ref, messages=[9, 5, 9])
    assert exact.per_message == schemes.nm_error(code, f, ref, messages=[9, 5]).per_message


@pytest.mark.parametrize("pass_rows", [None, 64])
def test_reference_counted_with_the_message_rows(pass_rows, monkeypatch):
    """nm_error without a reference counts, in sampled mode, the reference
    row first in its one `_counts` call, so the reference equals
    reference_dist on the same seed, also when passes of 64 runs mix it
    with the message rows; the message rows equal the oracle's from one
    call, and the fold is built once. All 256 messages of the concat code
    fit one block of `core.TABLE_CELLS` cells, so they build one fold too.
    Exact mode needs a reference."""
    code = CODES["concat"]
    f = _adversaries(code, random.Random(4391))[-1]
    if pass_rows:
        monkeypatch.setattr(schemes, "PASS_ROWS", pass_rows)
    ref = schemes.reference_dist(code, f, samples=300, rng=random.Random(4392))
    folds = []
    monkeypatch.setattr(code, "fold", lambda g: folds.append(g) or type(code).fold(code, g))
    report = schemes.nm_error(code, f, None, messages=[7, 2, 7, 40], samples=300, rng=random.Random(4392))
    assert len(folds) == 1
    assert report.reference == ref
    ref_dist, *dists = oracle.sampled_dists(code, f, 300, random.Random(4392), [None, 7, 2, 40])
    assert ref_dist == ref
    assert report.per_message == {s: statistical_distance(d, push_copy(ref, BitWord(s, code.message_bits)))
                                  for s, d in zip([7, 2, 40], dists)}
    schemes.nm_error(code, f, ref, samples=20, rng=random.Random(4393))
    assert len(folds) == 2
    with pytest.raises(ValueError, match="needs a reference"):
        schemes.nm_error(code, f, None, messages=[3, 9])


def test_bad_messages_raise_before_any_draw(monkeypatch):
    code = build_concat(toy_concat_plan(), RngSeed.from_int(1))
    f = BitTamperFn.identity(code.block_bits)
    for s in (-1, 256):
        with pytest.raises(ValueError, match=rf"message {s} is not in \[0, 256\)"):
            attack_experiment(code, f, messages=[s], samples=50)
    rng = random.Random(4390)
    state = rng.getstate()
    for s in (-1, 256, 2.0, True):
        with pytest.raises(ValueError, match="is not in"):
            schemes.tampered_output_dist(code, f, s, samples=20, rng=rng)
        with pytest.raises(ValueError, match="is not in"):
            schemes.tampered_output_dist(code, f, s)
    with pytest.raises(ValueError, match="is not in"):
        schemes._counts(code, f, [None])  # exact rows need a message
    with pytest.raises(ValueError, match="is not in"):
        schemes._counts(code, f, [None, 3, -1], samples=20, rng=rng)
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="at least one message"):
        attack_experiment(code, f, messages=[], samples=50)
    ref = schemes.reference_dist(code, f, samples=20, rng=rng)
    state = rng.getstate()
    with pytest.raises(ValueError, match="at least one message"):
        schemes.nm_error(code, f, ref, messages=[], samples=20, rng=rng)
    monkeypatch.setattr(core, "TABLE_CELLS", 258)  # one message per _counts call
    with pytest.raises(ValueError, match="message 256 is not in"):
        schemes.nm_error(code, f, ref, messages=[0, 256], samples=20, rng=rng)
    assert rng.getstate() == state


def test_extractor_code_with_an_lcm_past_int64():
    code = ExtractorCode(sample_random_extractor(8, 3, RngSeed.from_int(4350)))
    assert math.lcm(*code.sizes.tolist()) > 1 << 63
    rng = random.Random(4351)
    f = random_split_tamper(code.block_bits, False, rng)
    ref = schemes.reference_dist(code, f)
    assert ref == oracle.reference_dist(code, f)
    assert sum(p for _, p in ref.items()) == 1
    messages = [0, 3, 7]
    _same_report(schemes.nm_error(code, f, ref, messages=messages),
                 oracle.nm_error(code, f, ref, messages=messages))


@pytest.mark.parametrize("name", ["inner-8-3", "inner-6-2", "extractor-3-1", "extractor-3-2",
                                  "extractor-4-2"])
def test_optimal_nm_error_equals_oracle(name):
    """Equal optimal values; the minimizer need not be unique, so each
    side's reference is checked to attain the value instead."""
    code = CODES[name]
    rng = random.Random(4360)
    for f in _adversaries(code, rng)[:3]:
        for messages in (None, [1, 0]):
            value, ref = schemes.optimal_nm_error(code, f, messages=messages)
            want, want_ref = oracle.optimal_nm_error(code, f, messages=messages)
            assert value == want
            assert schemes.nm_error(code, f, ref, messages=messages).value == value
            assert oracle.nm_error(code, f, want_ref, messages=messages)[0] == value


def test_optimal_nm_error_needs_a_message():
    code = CODES["inner-6-2"]
    with pytest.raises(ValueError, match="optimal_nm_error needs at least one message"):
        schemes.optimal_nm_error(code, BitTamperFn.identity(code.block_bits), messages=[])


def test_minimax_oracle_refuses_past_16_messages():
    """The oracle's dense LP on 256 messages would take gigabytes; it raises
    before computing a single message's distribution."""
    code = CODES["lecss-4"]
    assert code.message_bits == 8
    with pytest.raises(ValueError, match="256 groups exceed"):
        oracle.optimal_nm_error(code, BitTamperFn.identity(code.block_bits))


def test_reference_of_the_wrong_message_length_raises():
    code = CODES["inner-8-3"]
    f = BitTamperFn.identity(code.block_bits)
    wrong = FiniteDist({BitWord(0, code.message_bits + 1): 1})
    with pytest.raises(ValueError, match="length"):
        schemes.nm_error(code, f, wrong)
    with pytest.raises(ValueError, match="length"):
        schemes.nm_error(code, f, wrong, samples=10, rng=random.Random(0))


def test_count_rows_hold_every_run_in_the_cell_layout():
    code = CODES["inner-6-2"]
    f = random_tamper(code.block_bits, PROFILES[1], random.Random(4370))
    k = code.message_bits
    rows = schemes._counts(code, f, [0, 3])
    assert rows.shape == (2, (1 << k) + 2)
    assert rows.sum(axis=1).tolist() == [code.encoding_count(0), code.encoding_count(3)]
    assert rows[:, -1].tolist() == [0, 0]  # exact rows mark nothing
    for s, row in zip((0, 3), rows):
        expected = oracle.tampered_output_dist(code, f, s)
        assert {schemes._symbol(i, k): int(c) for i, c in enumerate(row) if c} == {
            sym: int(p * code.encoding_count(s)) for sym, p in expected.items()
        }
    sampled = schemes._counts(code, f, [None, 2], samples=400, rng=random.Random(4371))
    assert sampled.sum(axis=1).tolist() == [400, 400]
    assert sampled[1, -1] == 0


@pytest.mark.parametrize("name", ["inner-6-2", "lecss-4", "concat", "extractor-3-2"])
def test_one_count_call_per_verdict(name, monkeypatch):
    """The exact reference, both round trips and the optimal error each
    count every message in one `_counts` call and read its rows as they
    are; the exact reference of an ExtractorCode, whose row sums differ,
    still equals the oracle."""
    code = CODES[name]
    calls = []
    counts = schemes._counts
    monkeypatch.setattr(schemes, "_counts", lambda *a, **kw: calls.append(a[2]) or counts(*a, **kw))
    f = _adversaries(code, random.Random(4395))[-1]
    nmsg = 1 << code.message_bits

    def once(run):
        calls.clear()
        result = run()
        assert [len(messages) for messages in calls] == [nmsg]
        return result

    assert once(lambda: schemes.reference_dist(code, f)) == oracle.reference_dist(code, f)
    assert once(lambda: schemes.roundtrip_failures(code)) == 0
    assert once(lambda: schemes.roundtrip_exhaustive(code))
    rng = random.Random(4396)
    assert once(lambda: schemes.roundtrip_failures(code, samples=30, rng=rng)) == 0
    value, ref = once(lambda: schemes.optimal_nm_error(code, f))
    assert schemes.nm_error(code, f, ref).value == value
    if nmsg <= 16:  # the oracle's dense LP does not fit 256 messages
        assert value == oracle.optimal_nm_error(code, f)[0]
    if name.startswith("extractor"):
        assert len({code.encoding_count(s) for s in range(nmsg)}) > 1


def test_verdicts_count_in_blocks_of_table_cells(monkeypatch):
    """A verdict over every message makes one `_counts` call per block of
    TABLE_CELLS // (2^k + 2) rows, so it holds about TABLE_CELLS count
    cells whatever k, and its exact result does not depend on the blocks.
    A direct call over more rows, the optimal error's, raises
    GuardExceeded before it allocates or draws."""
    code = CODES["lecss-4"]  # 256 messages, rows of 258 cells
    f = _adversaries(code, random.Random(4397))[-1]
    ref = schemes.reference_dist(code, f)
    report = schemes.nm_error(code, f, None, samples=40, rng=random.Random(4398))
    exact = schemes.nm_error(code, f, ref)
    calls = []
    counts = schemes._counts
    monkeypatch.setattr(schemes, "_counts", lambda *a, **kw: calls.append(len(a[2])) or counts(*a, **kw))
    monkeypatch.setattr(core, "TABLE_CELLS", 258 * 300)  # all 256 messages and the reference
    assert schemes.nm_error(code, f, None, samples=40, rng=random.Random(4398)) == report
    assert calls == [257]
    monkeypatch.setattr(core, "TABLE_CELLS", 258 * 50 + 257)
    calls.clear()
    assert schemes.reference_dist(code, f) == ref
    assert schemes.roundtrip_failures(code) == 0
    assert schemes.roundtrip_failures(code, samples=3, rng=random.Random(4399)) == 0
    assert calls == [50] * 5 + [6] + [50] * 5 + [6] + [50] * 5 + [6]
    calls.clear()
    assert schemes.nm_error(code, f, ref) == exact
    assert calls == [50] * 5 + [6]
    rng = random.Random(4400)
    state = rng.getstate()
    with pytest.raises(core.GuardExceeded, match="51 rows of 258 count cells"):
        schemes._counts(code, f, range(51), samples=3, rng=rng)
    with pytest.raises(core.GuardExceeded, match="256 rows"):
        schemes.optimal_nm_error(code, f)
    assert rng.getstate() == state


def test_sampled_round_trip_runs_the_encoder_not_the_fold(monkeypatch):
    """The concat code's fold never forms a codeword, so a round trip
    through it would pass a broken `encode_many`; `roundtrip_failures`
    runs the encoder and the decoder instead."""
    code = CODES["concat"]
    identity = BitTamperFn.identity(code.block_bits)
    good = type(code).encode_many
    payload_bit = np.uint64(1 << code.plan.seed_bits)  # one flipped payload bit
    monkeypatch.setattr(code, "encode_many", lambda msgs, index: good(code, msgs, index) ^ payload_bit)
    assert schemes.roundtrip_failures(code, samples=20, rng=random.Random(4401)) > 0
    folded = schemes._counts(code, identity, range(256), samples=20, rng=random.Random(4401))
    assert np.trace(folded, offset=1) == 256 * 20  # the fold alone misses the broken encoder
