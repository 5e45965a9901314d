"""Batch kernels of the sampled and exact experiments against the per-word path.

Every `encode_many`/`decode_many`/`apply_many`/`encodings_many` must agree
exactly with `encode_int`/`decode_int`/`apply_int`/`iter_encodings_int`;
exact distributions must equal the scalar loop `oracle_exact_dist`, and the
sampled distributions must sit within a Hoeffding union bound of the exact
ones.
"""

import random
from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest

from nmcode import core, schemes
from nmcode.concat import attack_experiment, build_concat, toy_concat_plan
from nmcode.core import BOTTOM, SAME, BitWord, FiniteDist, GuardExceeded, RngSeed
from nmcode.inner import InnerCode, InnerParams, sample_inner_code
from nmcode.lecss import LecssCode
from nmcode.nmext import sample_random_extractor
from nmcode.tamper import BitTamperFn, case1_family, random_tamper
from split_state_oracle import ExtractorCode, random_split_tamper

KEEP_HEAVY = (0.92, 0.0, 0.08)


def _as_ints(decoded):
    return [-1 if d is None else d for d in decoded]


def oracle_exact_dist(scheme, f, message=None):
    """The scalar exact loop: every encoding of every message through
    iter_encodings_int, apply_int and decode_int. With message=None it is
    the reference (uniform message, a decode to it counts as SAME);
    otherwise the distribution of decode(f(encode(message)))."""
    k = scheme.message_bits
    messages = range(1 << k) if message is None else [message]
    weights = {}
    for s in messages:
        counts = {}
        words = list(scheme.iter_encodings_int(s))
        for w in words:
            d = scheme.decode_int(f.apply_int(w))
            if d is None:
                sym = BOTTOM
            elif d == s and message is None:
                sym = SAME
            else:
                sym = BitWord(d, k)
            counts[sym] = counts.get(sym, 0) + 1
        for sym, c in counts.items():
            weights[sym] = weights.get(sym, 0) + Fraction(c, len(messages) * len(words))
    return FiniteDist(weights)


class _Memo:
    """A scheme's per-word calls memoized: each encoding list and each
    decode is computed once per test module."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.message_bits = scheme.message_bits
        self._encodings = {}
        self._decoded = {}

    def iter_encodings_int(self, s):
        if s not in self._encodings:
            self._encodings[s] = list(self.scheme.iter_encodings_int(s))
        return self._encodings[s]

    def decode_int(self, w):
        if w not in self._decoded:
            self._decoded[w] = self.scheme.decode_int(w)
        return self._decoded[w]


def _check_codec(code, messages, words):
    """decode_many == decode_int on `words`; encode_many at drawn encoding
    indices lies in iter_encodings_int and decodes back."""
    words = np.asarray(words, dtype=np.uint64)
    assert code.decode_many(words).tolist() == _as_ints(code.decode_int(int(w)) for w in words)
    gen = np.random.default_rng(7)
    msgs = np.asarray(messages, dtype=np.int64)
    drawn = code.encode_many(msgs, gen.integers(0, code.encoding_count(msgs), size=len(msgs)))
    assert drawn.dtype == np.uint64
    assert (code.decode_many(drawn) == msgs).all()
    support = {s: set(code.iter_encodings_int(s)) for s in set(messages)}
    assert all(int(w) in support[int(s)] for w, s in zip(drawn, msgs))


@pytest.fixture(scope="module")
def concat_code():
    return build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4100))


@pytest.fixture(scope="module")
def concat_memo(concat_code):
    return _Memo(concat_code)


@pytest.fixture(scope="module")
def concat_encodings(concat_code, concat_memo):
    """Every encoding of every message, as one uint64 array per message."""
    return [
        np.array(concat_memo.iter_encodings_int(s), dtype=np.uint64)
        for s in range(1 << concat_code.message_bits)
    ]


@pytest.fixture(scope="module")
def adversaries(concat_code):
    rng = random.Random(4101)
    case1 = [f for _, f in case1_family(concat_code, 4, rng)]
    keep = [random_tamper(concat_code.block_bits, KEEP_HEAVY, rng) for _ in range(4)]
    return case1 + keep


class TestConcatKernels:
    def test_decode_many_matches_decode_int_on_encodings_and_images(
        self, concat_code, concat_memo, concat_encodings, adversaries
    ):
        words = np.concatenate(concat_encodings)

        def reference(ws):
            return _as_ints(concat_memo.decode_int(w) for w in ws.tolist())

        assert concat_code.decode_many(words).tolist() == reference(words)
        for f in adversaries:
            images = np.unique(f.apply_many(words))
            assert concat_code.decode_many(images).tolist() == reference(images), f

    def test_decode_many_matches_decode_int_on_uniform_words(self, concat_code):
        gen = np.random.default_rng(4102)
        words = gen.integers(0, 1 << concat_code.block_bits, size=100_000, dtype=np.uint64)
        expected = _as_ints(concat_code.decode_int(int(w)) for w in words)
        assert concat_code.decode_many(words).tolist() == expected

    def test_bincount_of_encodings_equals_exact_outcome_dist(
        self, concat_code, concat_memo, concat_encodings, adversaries
    ):
        k = concat_code.message_bits
        for f in adversaries:
            for s in (0, 91, 200):
                words = concat_encodings[s]
                decoded = _as_ints(concat_memo.decode_int(f.apply_int(w)) for w in words.tolist())
                counts = np.bincount(np.array(decoded) + 1, minlength=(1 << k) + 1)
                exact = concat_code.exact_outcome_dist(f, s)
                for cell in range((1 << k) + 1):
                    sym = BOTTOM if cell == 0 else BitWord(cell - 1, k)
                    assert exact.prob(sym) * len(words) == counts[cell], (f, s, cell)

    def test_encode_many_draws_encodings_of_the_message(self, concat_code, concat_encodings):
        gen = np.random.default_rng(4103)
        msgs = gen.integers(0, 1 << concat_code.message_bits, size=5000)
        index = gen.integers(0, concat_code.encoding_count(0), size=len(msgs))
        drawn = concat_code.encode_many(msgs, index)
        assert (concat_code.decode_many(drawn) == msgs).all()
        assert drawn.tolist() == [int(concat_encodings[s][i]) for s, i in zip(msgs, index)]


class TestComponentKernels:
    def test_inner_code(self):
        code = sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4110))
        _check_codec(code, list(range(8)) * 50, range(1 << 8))

    def test_lecss_code(self):
        code = LecssCode(m=4, n=4, k=3, k0=1)
        rng = random.Random(4111)
        _check_codec(code, [rng.getrandbits(8) for _ in range(2000)], range(1 << 16))
        sharing = [code.encode_int(rng.getrandbits(8), rng) for _ in range(1000)]
        _check_codec(code, [0], sharing)

    def test_extractor_code(self):
        code = ExtractorCode(sample_random_extractor(4, 2, RngSeed.from_int(4112)))
        _check_codec(code, list(range(4)) * 100, range(1 << 8))

    @pytest.mark.parametrize("code", [
        sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4115)),
        LecssCode(m=4, n=4, k=3, k0=1),
        LecssCode(m=3, n=6, k=4, k0=2),
        build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4116)),
        ExtractorCode(sample_random_extractor(4, 2, RngSeed.from_int(4117))),
    ], ids=["inner", "lecss-k0-1", "lecss-k0-2", "concat", "extractor"])
    def test_encoding_index_i_is_entry_i_of_encodings_many(self, code):
        """Sampled and exact mode share one order of the encoder choices."""
        for s in (0, 1, (1 << code.message_bits) - 1):
            c = code.encoding_count(s)
            got = code.encode_many(np.full(c, s, dtype=np.int64), np.arange(c))
            assert got.tolist() == code.encodings_many(s).tolist()
            assert got.tolist() == list(code.iter_encodings_int(s))

    def test_bit_tamper_apply_many(self):
        rng = random.Random(4113)
        words = [rng.getrandbits(40) for _ in range(2000)]
        for profile in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.4, 0.3, 0.3)):
            f = random_tamper(40, profile, rng)
            got = f.apply_many(np.array(words, dtype=np.uint64)).tolist()
            assert got == [f.apply_int(w) for w in words]
        f = random_tamper(64, (0.4, 0.3, 0.3), rng)
        wide = [rng.getrandbits(64) for _ in range(2000)]
        assert f.apply_many(np.array(wide, dtype=np.uint64)).tolist() == [f.apply_int(w) for w in wide]

    def test_split_tamper_apply_many(self):
        """Every word at half=4 and 10^4 random words at half=8, as uint64."""
        rng = random.Random(4114)
        for fpf in (False, True):
            f = random_split_tamper(8, fpf, rng)
            got = f.apply_many(np.arange(1 << 8, dtype=np.uint64))
            assert got.dtype == np.uint64
            assert got.tolist() == [f.apply_int(w) for w in range(1 << 8)]
        f = random_split_tamper(16, False, rng)
        words = [rng.getrandbits(16) for _ in range(10_000)]
        got = f.apply_many(np.array(words, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [f.apply_int(w) for w in words]


def _stray_bit_case(name):
    """A per-word call, its batch twin, the width of their words and words
    with a bit at or past it, for one codec or adversary."""
    if name == "inner":
        code = sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4118))
        w = code.codebook[5][0]
        return code.decode_int, code.decode_many, 8, [w | 1 << 8, w | 1 << 63, 1 << 8]
    if name == "lecss":
        code = LecssCode(m=4, n=4, k=3, k0=1)
        w = code.encode_int(5, random.Random(4119))
        return code.decode_int, code.decode_many, 16, [w | 1 << 16, w | 1 << 63]
    if name == "concat":
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4116))
        w = code.encode_int(3, random.Random(4120))
        return code.decode_int, code.decode_many, code.block_bits, [w | 1 << code.block_bits]
    f = {"constant": BitTamperFn.constant(5, 4), "identity": BitTamperFn.identity(8),
         "mixed": BitTamperFn.from_str("KF01KF01")}[name]
    return f.apply_int, f.apply_many, f.n, [0b10010, 1 << 8 | 7, 1 << 63 | 3]


class TestStrayBits:
    @pytest.mark.parametrize("name", ["inner", "lecss", "concat", "constant", "identity", "mixed"])
    def test_per_word_and_batch_paths_agree_on_a_stray_high_bit(self, name):
        """Both decoders fail a word with a bit at or past their width, both
        adversary paths give the same in-width output, and the concatenated
        code's paths both raise ValueError."""
        one, many, width, words = _stray_bit_case(name)
        batch = np.array(words, dtype=np.uint64)
        if name == "concat":
            for w in words:
                with pytest.raises(ValueError):
                    one(w)
            with pytest.raises(ValueError):
                many(batch)
            return
        got = [one(w) for w in words]
        assert many(batch).tolist() == _as_ints(got)
        if name in ("inner", "lecss"):
            assert got == [None] * len(words)
        else:
            assert all(0 <= g < 1 << width for g in got)

    def test_bit_tamper_apply_many_refuses_words_over_64_bits(self):
        with pytest.raises(GuardExceeded, match="64-bit"):
            BitTamperFn.identity(80).apply_many(np.zeros(1, dtype=np.uint64))


class TestSampledMode:
    def test_sampled_reference_within_hoeffding_union_bound(self, concat_code, adversaries):
        samples, eta = 20_000, 1e-6
        k = concat_code.message_bits
        cells = [BOTTOM, SAME] + [BitWord(m, k) for m in range(1 << k)]
        # Each cell's frequency is within this of its probability except
        # with chance eta / len(cells); a union over the cells gives 1 - eta.
        bound = sqrt(log(2 * len(cells) / eta) / (2 * samples))
        for i, f in enumerate((adversaries[0], adversaries[4], adversaries[5])):
            exact = schemes.reference_dist(concat_code, f)
            sampled = schemes.reference_dist(
                concat_code, f, samples=samples, rng=RngSeed.from_int(4120 + i).stream()
            )
            assert sampled.samples == samples
            worst = max(abs(float(sampled.prob(c) - exact.prob(c))) for c in cells)
            assert worst <= bound, (f, worst, bound)

    def test_same_seed_same_report_and_id_selects_stream(self, concat_code, adversaries):
        f = adversaries[5]

        def run(adversary_id):
            return attack_experiment(
                concat_code, f, messages=[3, 77], samples=500,
                seed=RngSeed.from_int(4130), adversary_id=adversary_id,
            )

        assert run("a") == run("a")
        assert run("a").reference != run("b").reference

    def test_words_over_64_bits_raise_before_sampling(self):
        code = InnerCode(InnerParams(n=65, k=1, t=1), [[0], [1]])
        rng = RngSeed.from_int(4140).stream()
        state = rng.getstate()
        with pytest.raises(GuardExceeded, match="65-bit"):
            schemes.reference_dist(code, BitTamperFn.identity(65), samples=10, rng=rng)
        with pytest.raises(GuardExceeded, match="65-bit"):
            schemes.tampered_output_dist(code, BitTamperFn.identity(65), 0, samples=10, rng=rng)
        assert rng.getstate() == state

    def test_oversized_tables_raise(self):
        wide_inner = InnerCode(InnerParams(n=21, k=1, t=1), [[0], [1]])
        with pytest.raises(GuardExceeded):
            wide_inner.decode_many(np.zeros(1, dtype=np.uint64))
        big_lecss = LecssCode(m=5, n=6, k=5, k0=1)  # 32^5 = 2^25 codewords
        with pytest.raises(GuardExceeded):
            big_lecss.decode_many(np.zeros(1, dtype=np.uint64))

    def test_lecss_batch_kernels_refuse_words_over_64_bits(self):
        wide = LecssCode(m=8, n=16, k=2, k0=1)  # 128-bit words, 2^16 codewords
        with pytest.raises(GuardExceeded, match="64-bit"):
            wide.decode_many(np.zeros(1, dtype=np.uint64))
        with pytest.raises(GuardExceeded, match="64-bit"):
            wide.encode_many(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
        assert wide._tables is None

    def test_samples_beyond_one_pass_are_chunked(self, monkeypatch):
        code = sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4150))
        f = BitTamperFn.from_str("KKF0KKK1")
        monkeypatch.setattr(schemes, "PASS_ROWS", 64)
        dist = schemes.reference_dist(code, f, samples=1000, rng=RngSeed.from_int(4151).stream())
        assert dist.samples == 1000
        assert sum(p for _, p in dist.items()) == 1


@pytest.fixture(scope="module")
def oracle_adversaries(concat_code, adversaries):
    """8 case1 and 8 keep-heavy adversaries: the 4 + 4 above and 4 + 4 more."""
    rng = random.Random(4160)
    case1 = adversaries[:4] + [f for _, f in case1_family(concat_code, 4, rng)]
    keep = adversaries[4:] + [
        random_tamper(concat_code.block_bits, KEEP_HEAVY, rng) for _ in range(4)
    ]
    return case1 + keep


def _split_codes():
    for n in (3, 4):
        for m in (1, 2):
            yield ExtractorCode(sample_random_extractor(n, m, RngSeed.from_int(4170 + 10 * n + m)))


class TestExactOracle:
    def test_encodings_many_equals_iter_encodings_int(self, concat_code, concat_encodings):
        codes = [
            sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4161)),
            LecssCode(m=4, n=4, k=3, k0=1),
            LecssCode(m=3, n=6, k=4, k0=2),
            build_concat(toy_concat_plan(t_block=1), RngSeed.from_int(4162)),
            *_split_codes(),
        ]
        for code in codes:
            for s in range(1 << code.message_bits):
                words = code.encodings_many(s)
                assert words.dtype == np.uint64
                assert words.tolist() == list(code.iter_encodings_int(s)), (code, s)
        for s, words in enumerate(concat_encodings):
            assert concat_code.encodings_many(s).tolist() == words.tolist(), s

    def test_concat_reference_and_per_message_equal_oracle(
        self, concat_code, concat_memo, oracle_adversaries
    ):
        for f in oracle_adversaries:
            assert schemes.reference_dist(concat_code, f) == oracle_exact_dist(concat_memo, f), f
            for s in (0, 91, 200, 255):
                oracle = oracle_exact_dist(concat_memo, f, s)
                assert schemes.tampered_output_dist(concat_code, f, s) == oracle, (f, s)
                assert concat_code.exact_outcome_dist(f, s) == oracle, (f, s)

    def test_inner_and_lecss_under_bit_tampering(self):
        rng = random.Random(4163)
        codes = [
            sample_inner_code(InnerParams(n=8, k=3, t=4, delta=0.13), RngSeed.from_int(4164)),
            sample_inner_code(InnerParams(n=6, k=2, t=4, delta=0.17), RngSeed.from_int(4165)),
            LecssCode(m=4, n=4, k=3, k0=1),
            LecssCode(m=3, n=6, k=4, k0=2),
        ]
        profiles = ((0.92, 0.0, 0.08), (0.5, 0.25, 0.25), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        for code in codes:
            fs = [BitTamperFn.identity(code.block_bits)]
            fs += [random_tamper(code.block_bits, p, rng) for p in profiles for _ in range(2)]
            for f in fs:
                assert schemes.reference_dist(code, f) == oracle_exact_dist(code, f), (code, f)
                for s in range(0, 1 << code.message_bits, 5):
                    assert schemes.tampered_output_dist(code, f, s) == oracle_exact_dist(code, f, s)

    def test_extractor_code_under_split_state_tampering(self):
        rng = random.Random(4166)
        for code in _split_codes():
            sizes = {code.encoding_count(s) for s in range(1 << code.message_bits)}
            assert len(sizes) > 1  # unequal buckets: the lcm combination runs
            for fpf in (False, True, False):
                f = random_split_tamper(code.block_bits, fpf, rng)
                assert schemes.reference_dist(code, f) == oracle_exact_dist(code, f), code
                for s in range(1 << code.message_bits):
                    assert schemes.tampered_output_dist(code, f, s) == oracle_exact_dist(code, f, s)

    def test_roundtrip_exhaustive_catches_a_wrong_decode(self):
        code = sample_inner_code(InnerParams(n=6, k=2, t=4), RngSeed.from_int(4167))
        assert schemes.roundtrip_exhaustive(code)
        book = [list(ws) for ws in code.codebook]
        book[1][3], book[2][0] = book[2][0], book[1][3]
        swapped = InnerCode(code.params, book)
        # Encode with the swapped codebook, decode with the original table.
        swapped._tables = (np.array(book, dtype=np.uint64), code._batch_tables()[1])
        assert not schemes.roundtrip_exhaustive(swapped)
        # Exactly the two swapped encodings miss; a sampled round trip of 200
        # runs per message misses too, and the unswapped code never does.
        assert schemes.roundtrip_failures(swapped) == 2
        assert schemes.roundtrip_failures(swapped, samples=200, rng=random.Random(4169)) > 0
        assert schemes.roundtrip_failures(code, samples=200, rng=random.Random(4169)) == 0

    def test_guards_raise_before_any_table_is_built(self, monkeypatch):
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4168))
        f = BitTamperFn.identity(code.block_bits)
        monkeypatch.setattr(core, "TABLE_CELLS", code.encoding_count(0) - 1)
        for run in (
            lambda: schemes.reference_dist(code, f),
            lambda: schemes.tampered_output_dist(code, f, 3),
            lambda: code.exact_outcome_dist(f, 3),
            lambda: schemes.roundtrip_exhaustive(code),
        ):
            with pytest.raises(GuardExceeded, match="encodings of one message"):
                run()
        assert code._scatter is None
        assert code.block_code._tables is None and code.seed_code._tables is None
        assert code.lecss._tables is None
        wide = InnerCode(InnerParams(n=65, k=1, t=1), [[0], [1]])
        for run in (
            lambda: schemes.reference_dist(wide, BitTamperFn.identity(65)),
            lambda: schemes.tampered_output_dist(wide, BitTamperFn.identity(65), 0),
            lambda: schemes.roundtrip_exhaustive(wide),
        ):
            with pytest.raises(GuardExceeded, match="65-bit"):
                run()
        assert wide._tables is None
