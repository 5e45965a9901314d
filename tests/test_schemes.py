"""The count kernel `schemes._counts` and the verdicts that read its rows,
against the per-message Fraction-dict path of `bit_tamper_oracle`.

Sampled verdicts must equal the oracle on the same seeds: the kernel seeds
one generator per row from the caller's stream in the oracle's order, and
each piece of a row draws its messages (a None row only) and then one
encoding index per run, as the oracle's pieces do.
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

import pytest

import bit_tamper_oracle as oracle
from nmcode import schemes
from nmcode.concat import attack_experiment, build_concat, toy_concat_plan
from nmcode.core import BitWord, FiniteDist, RngSeed
from nmcode.inner import InnerParams, sample_inner_code
from nmcode.lecss import LecssCode
from nmcode.nmext import ExtractorCode, sample_random_extractor
from nmcode.tamper import BitTamperFn, random_split_tamper, random_tamper

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


# SHA-256 of `_sampled_rows` for every code but concat, taken while the batch
# encoders still drew their own randomness: these codes draw one integer in
# [0, encoding_count(s)) per run either way, so their streams must not move.
SAMPLED_PINS = {
    "inner-8-3": "8a0bb89e92a5496f1d7294c5b85b166c10e3523658ca38dfb5cb2ee4d91177ba",
    "inner-6-2": "4c2468668956e60d6686e5542b587f890da1ee88958e20e4b741fc371331a577",
    "lecss-4": "bff435c9e97d0a9962140e174284c7f005b00747d4124e2e5f2195bb7eaa5627",
    "lecss-3": "c34e4bbc7a8d98bf4f5e5b7e877445172074ae60c4d70230175f618abad5e187",
    "extractor-3-1": "5e930413b6ae9e0713624f79458180de98318ff4dd6c677ad02e55003e9063f8",
    "extractor-3-2": "f6430d49ede839a97892c8b4690b7e33aad43bb4ac2be8fec64ad925b5c9a4c7",
    "extractor-4-1": "76f8aaf96231735010268235076c4d921961a9bb7f9769d1e42c3c66099a3988",
    "extractor-4-2": "e6b0acfc3866ae8edee5e6d11e68300b07d0cb3cdade8438cd71992c45086c92",
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


@pytest.mark.parametrize("batch_rows, pass_rows, samples", [
    pytest.param(64, 64, 1000, id="64"),
    pytest.param(300, 300, 1000, id="300"),
    pytest.param(2500, 2500, 1000, id="2500"),
    pytest.param(300, 128, 1000, id="300-128"),
    pytest.param(2500, 1000, 3000, id="2500-1000"),
])
@pytest.mark.parametrize("name", ["concat", "extractor-4-2"])
def test_stacked_passes_equal_oracle_across_pass_boundaries(name, batch_rows, pass_rows, samples,
                                                            monkeypatch):
    """Rows of 1,000 runs cut into pieces of 64 or 300 runs, whose last
    piece does not fill a pass, and rows packed two to a pass of 2,500 runs;
    then passes shorter than the pieces, which do not divide them: pieces of
    300 runs in passes of 128, and rows of 3,000 runs cut into pieces of
    2,500 and 500 in passes of 1,000. The extractor code draws through an
    array `high`. Rows, reference, report and the final stream state equal
    the oracle's one-row-at-a-time draws on the same seeds."""
    monkeypatch.setattr(schemes, "BATCH_ROWS", batch_rows)
    monkeypatch.setattr(schemes, "_PASS_ROWS", pass_rows)
    code = CODES[name]
    k = code.message_bits
    nmsg = 1 << k
    f = _adversaries(code, random.Random(4380))[-1]
    ours, theirs = RngSeed.from_int(4381).stream(), RngSeed.from_int(4381).stream()
    entries = [1, None, nmsg - 1, 0, None]
    rows = schemes._counts(code, f, entries, samples=samples, rng=ours)
    assert rows.sum(axis=1).tolist() == [samples] * 5
    assert [schemes._dist(row, k) for row in rows] == [
        oracle.sampled_dist(code, f, samples, theirs, s) for s in entries
    ]
    ref = schemes.reference_dist(code, f, samples=samples, rng=ours)
    assert ref == oracle.reference_dist(code, f, samples=samples, rng=theirs)
    messages = [(3 * i + 2) % nmsg for i in range(5)]
    report = schemes.nm_error(code, f, ref, messages=messages, samples=samples, rng=ours)
    _same_report(report, oracle.nm_error(code, f, ref, messages=messages, samples=samples, rng=theirs))
    assert ours.getstate() == theirs.getstate()


def test_passes_pack_whole_pieces_up_to_the_pass_size(monkeypatch):
    """The pieces of BATCH_ROWS runs fix the streams; passes pack whole
    pieces up to _PASS_ROWS runs, a longer piece runs alone, and exact rows
    run in passes of _PASS_ROWS encodings."""
    assert (schemes.BATCH_ROWS, schemes._PASS_ROWS) == (1 << 14, 1 << 13)
    code = build_concat(toy_concat_plan(), RngSeed.from_int(1))
    f = random_tamper(code.block_bits, PROFILES[1], random.Random(4393))
    lengths = []  # runs of each fold call, and words of each decode_many call

    def fold(g):
        run = type(code).fold(code, g)
        return lambda msgs, index: lengths.append(len(msgs)) or run(msgs, index)

    def decode_many(words):
        lengths.append(len(words))
        return type(code).decode_many(code, words)

    monkeypatch.setattr(code, "fold", fold)
    monkeypatch.setattr(code, "decode_many", decode_many)
    rng = random.Random(4394)
    schemes._counts(code, f, [None] + list(range(16)), samples=1000, rng=rng)
    assert lengths == [8000, 8000, 1000]
    lengths.clear()
    schemes._counts(code, f, [None, 3, 7], samples=10000, rng=rng)
    assert lengths == [10000] * 3
    lengths.clear()
    schemes._counts(code, f, [None, 3], samples=20000, rng=rng)
    assert lengths == [16384, 3616] * 2
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


@pytest.mark.parametrize("name", list(CODES))
def test_fixed_message_rows_do_not_depend_on_the_piece_size(name, monkeypatch):
    """A fixed-message row draws one encoding index per run from its own
    generator, so cutting it into pieces of 7 runs draws the same stream.
    The adversary freezes the first and last bits, so a row's counts
    depend on the encodings drawn."""
    code = CODES[name]
    nmsg = 1 << code.message_bits
    if isinstance(code, ExtractorCode):
        f = _adversaries(code, random.Random(4385))[-1]
    else:
        f = BitTamperFn.from_str("0" + "K" * (code.block_bits - 2) + "1")
    entries = [0, nmsg - 1, 1, 0]
    default = schemes._counts(code, f, entries, samples=200, rng=random.Random(4386))
    assert ((default > 0).sum(axis=1) > 1).all()
    monkeypatch.setattr(schemes, "BATCH_ROWS", 7)
    assert (schemes._counts(code, f, entries, samples=200, rng=random.Random(4386)) == default).all()


def test_repeated_messages_count_once():
    """[s, s, t] gives the report of [s, t], from the same two row seeds."""
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


@pytest.mark.parametrize("block_rows", [None, 64])
def test_reference_counted_with_the_message_rows(block_rows, monkeypatch):
    """nm_error without a reference draws, in sampled mode, the stream of
    reference_dist followed by nm_error, and builds the fold once; at
    BATCH_ROWS 64 (one message per block) the reference row rides with the
    first block. Exact mode needs a reference."""
    code = CODES["concat"]
    f = _adversaries(code, random.Random(4391))[-1]
    if block_rows:
        monkeypatch.setattr(schemes, "BATCH_ROWS", block_rows)
    apart, together = random.Random(4392), random.Random(4392)
    ref = schemes.reference_dist(code, f, samples=300, rng=apart)
    expected = schemes.nm_error(code, f, ref, messages=[7, 2, 7, 40], samples=300, rng=apart)
    folds = []
    monkeypatch.setattr(code, "fold", lambda g: folds.append(g) or type(code).fold(code, g))
    report = schemes.nm_error(code, f, None, messages=[7, 2, 7, 40], samples=300, rng=together)
    assert len(folds) == (3 if block_rows else 1)
    assert report.reference == ref
    assert report.per_message == expected.per_message and report.value == expected.value
    assert together.getstate() == apart.getstate()
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
    monkeypatch.setattr(schemes, "BATCH_ROWS", 64)  # one message per _counts call
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

