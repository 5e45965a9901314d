import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from nmcode.core import BOTTOM, SAME, BitWord, GuardExceeded, InfeasibleParams, RngSeed
from nmcode.concat import (
    ConcatPlan,
    attack_experiment,
    build_concat,
    classify_adversary,
    plan_concat,
    toy_concat_plan,
)
from nmcode.inner import InnerParams
from nmcode.lecss import LecssCode, LecssParams
from nmcode.perm import Permutation, derive_permutation
from nmcode.tamper import BitTamperFn, canonical_adversaries, case1_family, random_tamper
from nmcode import core, perm, schemes

from test_batch import oracle_exact_dist
from test_perm import permute_bits


class TestPlanArithmetic:
    def test_toy_layout(self):
        plan = toy_concat_plan()
        assert plan.block_out == 8 and plan.block_in == 4
        assert plan.sharing_bits == 16 and plan.block_count == 4
        assert plan.payload_bits == 32 and plan.seed_bits == 8
        assert plan.total_bits == 40
        assert plan.message_bits == 8
        assert plan.gamma1 == Fraction(1, 4)

    def test_rate_identity(self):
        # K/N factors exactly through the three layer rates.
        for plan in (toy_concat_plan(), plan_concat(5200, 0.5)):
            block_rate = Fraction(plan.block_in, plan.block_out)
            outer_rate = 1 - plan.gamma2
            seed_stretch = 1 + plan.gamma1
            assert plan.rate == block_rate * outer_rate / seed_stretch

    def test_toy_thresholds(self):
        plan = toy_concat_plan()
        assert plan.independent_payload_bits == 1
        assert plan.distance_bits == 1
        assert plan.case1_freeze_bits == 32
        assert plan.case21_keep_bits == 32

    def test_toy_records_scale_violations(self):
        plan = toy_concat_plan()
        names = {c.name for c in plan.violated()}
        assert "payload-dominates-block" in names
        # Structural identities still hold.
        ok = {c.name for c in plan.constraints() if c.status == "ok"}
        assert {"block-divides-sharing", "length-split", "seed-slack-range"} <= ok

    def test_block_must_divide_sharing(self):
        with pytest.raises(InfeasibleParams):
            ConcatPlan(
                gamma0=0.5,
                inner=InnerParams(n=6, k=3, t=2),
                c1=InnerParams(n=8, k=2, t=2),
                lecss=LecssParams(m=4, n=4, k=3, k0=1),
                ell=0,
            )

    def test_degenerate_slack_rejected(self):
        for gamma0 in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError, match="gamma0 must lie in"):
                plan_concat(4096, gamma0)

    def test_full_ledger_satisfiable_at_scale(self):
        plan = plan_concat(5200, 0.5)
        assert plan.violated() == []
        assert plan.payload_bits >= 32 * plan.block_out**2
        assert plan.ell >= 1
        statuses = {c.name: c.status for c in plan.constraints()}
        assert statuses["perm-closeness"] == "assumed"

    def test_infeasible_total_names_a_constraint(self):
        # The first layout scanned comes back with its violations on record.
        plan = plan_concat(100, 0.5)
        assert [c.name for c in plan.violated()] == ["payload-dominates-block"]
        assert (plan.total_bits, plan.payload_bits) == (100, 80)

    def test_no_layout_raises(self):
        with pytest.raises(InfeasibleParams, match="no layout realizes 16 bits"):
            plan_concat(16, 0.5)

    def test_predicted_error_fields(self):
        pred = plan_concat(5200, 0.5).predicted_error(eps1=0.01)
        assert set(pred) >= {
            "seed_code_error",
            "same-permutation_term",
            "independent-permutation_term",
            "total_upper_bound",
        }

    @pytest.mark.parametrize("args, lecss, digest", [
        (None, (16, 4, 3, 1), "1fe9203bb6ce9b7dc0619d7634f1e77a4e66889bc245aa38dc7b3a8d97acd997"),
        ((1024, 0.5), (256, 51, 39, 12), "f15db0f33fec4d71547d34968de3f7b8f4b3669f2670fa01a0cf967356794cef"),
        ((2048, 0.25), (512, 151, 133, 18), "b72b9e844c29904184afb9f21b66c34f75b18ac3c5f4f56f8985559d3dd8e083"),
        ((4096, 0.5), (512, 182, 137, 45), "d859bbf8519e4a89eca54c8b3b79721adac35245625092e7526f1e6d4a85a7ad"),
        ((5200, 0.5), (1024, 208, 156, 52), "2754413a0beb9985ec23b46899b8342ee21882f4132721d38716c343dc060a08"),
    ])
    def test_plan_json_pinned(self, args, lecss, digest):
        """The toy plan and four planned layouts, pinned by the SHA-256 of
        their sorted-key JSON."""
        obj = (toy_concat_plan() if args is None else plan_concat(*args)).to_json()
        assert tuple(obj["lecss"][key] for key in ("q", "n", "k", "k0")) == lecss
        assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest

    def test_planning_builds_no_lecss_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("planning built a LecssCode")

        monkeypatch.setattr(LecssCode, "__init__", refuse)
        toy_concat_plan()
        for args in ((1024, 0.5), (5200, 0.5)):
            plan_concat(*args)

    def test_plan_json_embeds_components(self):
        obj = toy_concat_plan().to_json()
        assert obj["layout"]["N"] == 40
        assert {"inner", "seed_code", "lecss", "constraints"} <= set(obj)


class TestCodec:
    @staticmethod
    def code(t_block=4, seed=0):
        return build_concat(toy_concat_plan(t_block=t_block), RngSeed.from_int(seed))

    def test_codeword_length(self):
        code = self.code()
        rng = random.Random(0)
        assert code.block_bits == 40
        assert code.encode_int(0x5A, rng) >> 40 == 0

    def test_roundtrip_sampled(self):
        code = self.code()
        rng = random.Random(1)
        for s in range(256):
            for _ in range(10):
                assert code.decode_int(code.encode_int(s, rng)) == s

    def test_identity_permutation_hook_exposes_block_structure(self):
        code = self.code()
        ident = Permutation(list(range(32)))
        for z in range(4):
            code._perms[z] = ident
        rng = random.Random(2)
        s = 0xC3
        w = code.encode_int(s, rng)
        payload = w >> 8
        sharing = 0
        for i in range(4):
            block = (payload >> (8 * i)) & 0xFF
            d = code.block_code.decode_int(block)
            assert d is not None  # block i is a direct block-code word
            sharing |= d << (4 * i)
        assert code.lecss.decode_int(sharing) == s

    def test_permutations_cached_only_within_the_table_guard(self):
        code = self.code()
        code.decode_int(code.encode_int(0x3C, random.Random(3)))
        assert len(code._perms) == 1
        # 2^10 seeds of 816-bit permutations exceed the table guard.
        big = build_concat(plan_concat(1024, 0.5, seed_code_rate=0.05), RngSeed.from_int(4))
        assert big._perms is None
        rng = random.Random(5)
        for _ in range(3):
            s = rng.getrandbits(big.message_bits)
            assert big.decode_int(big.encode_int(s, rng)) == s
        with pytest.raises(GuardExceeded):
            big._scatter_tables()

    def test_batch_tables_hold_each_seeds_permutation(self):
        code = self.code()
        fwd, _ = code._scatter_tables()
        spec = code.plan.perm_spec()
        x = 0x9E3779B9
        for z in range(1 << code.plan.seed_message_bits):
            want = derive_permutation(spec, z)
            assert code.perm_for(z) == want
            got = perm.permute_many(fwd, np.array([z]), np.array([x], dtype=np.uint64), code.plan.payload_bits)
            assert int(got[0]) == want.apply_int(x)

    @pytest.mark.parametrize("block_n", [8, 5])
    def test_scatter_tables_permute_like_the_bit_oracle(self, block_n):
        # 5-bit blocks give a 20-bit payload, whose last byte table
        # leaves the bytes that set a bit past the word at 0.
        plan = ConcatPlan(gamma0=0.5, inner=InnerParams(n=block_n, k=4, t=2, delta=0.0),
                          c1=InnerParams(n=8, k=2, t=2, delta=0.0),
                          lecss=LecssParams(m=4, n=4, k=3, k0=1), ell=0)
        code = build_concat(plan, RngSeed.from_int(4415))
        n = plan.payload_bits
        fwd, inv = code._scatter_tables()
        if n % 8:
            assert not np.concatenate([fwd[-1], inv[-1]]).reshape(-1, 256)[:, 1 << (n % 8) :].any()
        words = np.random.default_rng(4416).integers(0, 1 << n, size=64, dtype=np.uint64)
        for z, row in enumerate(perm.seed_table(code._spec).tolist()):
            seeds = np.full(len(words), z)
            back = sorted(range(n), key=row.__getitem__)
            for tables, mapping in ((fwd, row), (inv, back)):
                got = perm.permute_many(tables, seeds, words, n).tolist()
                assert got == [permute_bits(mapping, int(x)) for x in words]

    def test_batch_tables_read_the_memoised_seed_table(self):
        self.code()._scatter_tables()
        self.code(seed=99)._scatter_tables()
        info = perm.seed_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_batch_kernels_refuse_words_over_64_bits(self):
        big = build_concat(plan_concat(1024, 0.5, seed_code_rate=0.05), RngSeed.from_int(4))
        with pytest.raises(GuardExceeded, match="64-bit"):
            big.encode_many(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(GuardExceeded, match="64-bit"):
            schemes._counts(big, BitTamperFn.identity(big.block_bits), [0], samples=1, rng=rng)
        assert rng.getstate() == state  # nothing was drawn
        with pytest.raises(GuardExceeded, match="64-bit"):
            big.decode_many(np.zeros(1, dtype=np.uint64))
        with pytest.raises(GuardExceeded, match="64-bit"):
            big.encodings_many(0)
        with pytest.raises(GuardExceeded, match="64-bit"):
            big.fold(BitTamperFn.identity(big.block_bits))

    def test_decode_many_refuses_a_bit_past_the_word(self):
        # Bit 40 of a 40-bit word is bit 32 of its 32-bit payload.
        code = self.code()
        assert code.block_bits == 40
        word = code.encode_many(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
        assert code.decode_many(word).tolist() == [0]
        with pytest.raises(ValueError, match="past bit 32"):
            code.decode_many(word | np.uint64(1 << 40))

    def test_tampered_block_fails(self):
        code = self.code()
        rng = random.Random(3)
        w = code.encode_int(7, rng)
        # Replace one permuted payload bit pattern with a non-codeword block:
        # easiest via decoding path: flip bits until a block misses.
        z = code.seed_code.decode_int(w & 0xFF)
        payload = code.perm_for(z).invert_int(w >> 8)
        bad_block = 0
        while code.block_code.decode_int(bad_block) is not None:
            bad_block += 1
        payload = (payload & ~0xFF) | bad_block
        w_bad = (w & 0xFF) | (code.perm_for(z).apply_int(payload) << 8)
        assert code.decode_int(w_bad) is None

    def test_valid_blocks_off_the_sharing_fail(self):
        code = self.code()
        rng = random.Random(4)
        w = code.encode_int(9, rng)
        z = code.seed_code.decode_int(w & 0xFF)
        payload = code.perm_for(z).invert_int(w >> 8)
        block0 = payload & 0xFF
        val = code.block_code.decode_int(block0)
        other = code.block_code.codebook[(val + 1) % 16][0]
        payload = (payload & ~0xFF) | other
        w_bad = (w & 0xFF) | (code.perm_for(z).apply_int(payload) << 8)
        assert code.decode_int(w_bad) is None

    def test_seed_segment_failure_identified_with_zero_seed(self):
        code = self.code()
        bad_seed = 0
        while code.seed_code.decode_int(bad_seed) is not None:
            bad_seed += 1
        rng = random.Random(5)
        w = code.encode_int(3, rng)
        w_bad = (w & ~0xFF) | bad_seed
        # Manual pipeline with the zero seed must agree.
        payload = code.perm_for(0).invert_int(w_bad >> 8)
        sharing = 0
        expect = None
        for i in range(4):
            d = code.block_code.decode_int((payload >> (8 * i)) & 0xFF)
            if d is None:
                expect = None
                break
            sharing |= d << (4 * i)
        else:
            expect = code.lecss.decode_int(sharing)
        assert code.decode_int(w_bad) == expect

    def test_segment_masks_are_positional(self):
        code = self.code()
        rng = random.Random(6)
        w = code.encode_int(1, rng)
        seed_only = BitTamperFn.from_str("F" * 8 + "K" * 32)
        payload_only = BitTamperFn.from_str("K" * 8 + "F" * 32)
        assert seed_only.apply_int(w) >> 8 == w >> 8
        assert payload_only.apply_int(w) & 0xFF == w & 0xFF

    def test_exact_enumeration_matches_direct_path(self):
        code = self.code(t_block=2, seed=7)
        assert code.encoding_count(0) == 4 * 2 * 16 * 16
        for pattern in ("K" * 40, "K" * 8 + "F" + "K" * 31, "0" * 40):
            f = BitTamperFn.from_str(pattern)
            for s in (0, 77):
                a = code.exact_outcome_dist(f, s)
                b = oracle_exact_dist(code, f, s)
                assert a == b

    def test_exhaustive_roundtrip_small(self):
        code = self.code(t_block=2, seed=8)
        for s in (0, 1, 130, 255):
            for w in code.iter_encodings_int(s):
                assert code.decode_int(w) == s


FOLD_PLANS = {
    "toy-t2": toy_concat_plan(t_block=2),
    "toy-t4": toy_concat_plan(t_block=4),
    # Not byte-aligned: 8 blocks of 6 bits under a 7-bit seed segment (55
    # bits), and 4 blocks of 10 bits under a 5-bit one (45 bits).
    "unaligned-55": ConcatPlan(0.5, InnerParams(n=6, k=2, t=3), InnerParams(n=7, k=2, t=3),
                               LecssParams(m=4, n=4, k=3, k0=1), ell=0),
    "unaligned-45": ConcatPlan(0.5, InnerParams(n=10, k=4, t=5), InnerParams(n=5, k=1, t=2),
                               LecssParams(m=4, n=4, k=3, k0=1), ell=0),
}


def _fold_adversaries(code, rng):
    """The canonical adversaries, identity, complement, a constant, the
    seed segment frozen and the seed segment kept under a random payload
    action, and 100 random profiles."""
    n1, total = code.plan.seed_bits, code.block_bits
    advs = [f for _, f in canonical_adversaries(code, rng)]
    advs += [BitTamperFn.identity(total), BitTamperFn.complement(total),
             BitTamperFn.constant(rng.getrandbits(total), total)]
    for seed_part in (BitTamperFn.constant(rng.getrandbits(n1), n1), BitTamperFn.identity(n1)):
        payload = random_tamper(total - n1, (0.5, 0.3, 0.2), rng)
        advs.append(BitTamperFn(seed_part.actions + payload.actions))
    for _ in range(100):
        profile = rng.random(), rng.random(), rng.random()
        advs.append(random_tamper(total, tuple(x / sum(profile) for x in profile), rng))
    return advs


class TestFold:
    @pytest.mark.parametrize("name", list(FOLD_PLANS))
    def test_fold_equals_decode_of_tampered_encodings(self, name):
        code = build_concat(FOLD_PLANS[name], RngSeed.from_int(4410))
        gen = np.random.default_rng(4411)
        msgs = gen.integers(0, 1 << code.message_bits, size=3000)
        index = gen.integers(0, code.encoding_count(0), size=3000)
        for f in _fold_adversaries(code, random.Random(4412)):
            want = code.decode_many(f.apply_many(code.encode_many(msgs, index)))
            got = code.fold(f)(msgs, index)
            wrong = np.flatnonzero(got != want)
            assert not wrong.size, (f, int(msgs[wrong[0]]), int(index[wrong[0]]))

    def test_fold_over_the_table_guard_raises_before_any_draw(self, monkeypatch):
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(4413))
        f = BitTamperFn.complement(code.block_bits)
        # Payload tables: 4 seeds x 4 blocks x 32 block codewords of images
        # and 4 x 256 block-decode entries; the fold adds 8 seed segments x
        # 4 x 32 entries, 2,560 in all.
        assert code._payload_entries() == 1536
        # The exact rows below read LECSS's 4,096-entry table and the
        # 4,096 byte-scatter entries, which the lowered limit would refuse.
        code.lecss._codeword_tables()
        code._scatter_tables()
        monkeypatch.setattr(core, "TABLE_CELLS", 2559)
        rng = random.Random(4414)
        state = rng.getstate()
        with pytest.raises(GuardExceeded, match="fold-table entries"):
            schemes._counts(code, f, [None, 3], samples=10, rng=rng)
        with pytest.raises(GuardExceeded, match="fold-table entries"):
            attack_experiment(code, f, messages=[3], samples=10)
        assert rng.getstate() == state
        assert code._payload is None
        # Exact rows do not take the fold.
        assert schemes._counts(code, f, [3]).sum() == code.encoding_count(3)


class TestClassification:
    def test_taxonomy(self):
        plan = toy_concat_plan()
        n1, n = 8, 32
        assert classify_adversary(plan, BitTamperFn.from_str("K" * 8 + "0" * 32)) == "case1"
        assert classify_adversary(plan, BitTamperFn.identity(40)) == "case2.1"
        assert (
            classify_adversary(plan, BitTamperFn.from_str("K" * 8 + "F" + "K" * 31))
            == "case2.2"
        )
        assert classify_adversary(plan, BitTamperFn.from_str("0" * 8 + "K" * 32)) == "case3"
        assert classify_adversary(plan, BitTamperFn.complement(40)) == "general"

    def test_canonical_list_contract(self):
        code = build_concat(toy_concat_plan(), RngSeed.from_int(9))
        advs = canonical_adversaries(code, random.Random(10))
        assert len(advs) >= 6
        by_name = dict(advs)
        case1 = by_name["case1-freeze-boundary"]
        frozen_payload = sum(
            1 for a in case1.actions[8:] if a in (2, 3)
        )
        assert frozen_payload >= code.plan.case1_freeze_bits
        case3 = by_name["case3-freeze-seed-keep-payload"]
        outs = {case3.apply_int(random.Random(11).getrandbits(40)) & 0xFF for _ in range(20)}
        assert len(outs) == 1  # seed segment frozen to one value
        assert code.seed_code.decode_int(outs.pop()) is not None

    def test_case1_family_classifies_case1(self):
        code = build_concat(toy_concat_plan(), RngSeed.from_int(12))
        for name, f in case1_family(code, 10, random.Random(13)):
            assert classify_adversary(code.plan, f) == "case1", name


class TestAttackExperiments:
    def test_identity_adversary_scores_zero(self):
        code = build_concat(toy_concat_plan(), RngSeed.from_int(14))
        rep = attack_experiment(
            code,
            BitTamperFn.identity(40),
            messages=[0, 1, 2, 3],
            samples=1500,
            seed=RngSeed.from_int(15),
            adversary_id="identity",
        )
        assert rep.eps_hat == 0.0
        assert rep.case_class == "case2.1"
        assert rep.csv_row().startswith("identity,case2.1,")

    def test_freeze_to_valid_codeword_reference(self):
        code = build_concat(toy_concat_plan(), RngSeed.from_int(16))
        target = code.fixed_full_codeword()
        s0 = code.decode_int(target)
        f = BitTamperFn.constant(target, 40)
        ref = schemes.reference_dist(code, f, samples=4000, rng=RngSeed.from_int(17).stream())
        # Almost all mass on the frozen message; SAME appears when the
        # uniform message already equals it (chance 2^-8).
        assert float(ref.prob(BitWord(s0, 8))) > 0.95
        assert float(ref.prob(SAME)) < 0.05
        rep = attack_experiment(
            code, f, messages=[1, 2], samples=4000, seed=RngSeed.from_int(18)
        )
        assert rep.eps_hat <= 2 * rep.radius
        assert rep.case_class == "case1"

    def test_case1_outcome_distributions_message_independent(self):
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(19))
        for name, f in case1_family(code, 2, random.Random(20)):
            dists = [code.exact_outcome_dist(f, s) for s in range(1 << code.message_bits)]
            assert all(d == dists[0] for d in dists[1:]), name


class TestFewErrorsDichotomy:
    def test_outcomes_are_truth_or_failure(self):
        # Wider-distance outer code: freezing one payload bit while the
        # seed segment is untouched stays in the few-errors case, where
        # every decode lands on the true message or on failure.
        plan = ConcatPlan(
            gamma0=0.5,
            inner=InnerParams(n=6, k=3, t=2),
            c1=InnerParams(n=8, k=2, t=2),
            lecss=LecssParams(m=3, n=8, k=3, k0=1),
            ell=0,
        )
        assert plan.case21_keep_bits == 47
        code = build_concat(plan, RngSeed.from_int(21))
        f = BitTamperFn.from_str("K" * 8 + "0" + "K" * 47)
        assert classify_adversary(plan, f) == "case2.1"
        for s in (0, 17, 63):
            dist = code.exact_outcome_dist(f, s)
            allowed = {BOTTOM, BitWord(s, 6)}
            assert set(dist.support()) <= allowed


class TestSingleFlipAttack:
    def test_single_payload_flip_error_within_noise(self):
        # Flipping one payload bit leaves the outcome distribution nearly
        # message-independent; the measured error stays at sampling noise.
        code = build_concat(toy_concat_plan(), RngSeed.from_int(30))
        f = BitTamperFn.from_str("K" * 8 + "F" + "K" * 31)
        rep = attack_experiment(
            code, f, messages=[0, 1, 77, 255], samples=4000,
            seed=RngSeed.from_int(31), adversary_id="flip-one",
        )
        assert rep.case_class == "case2.2"
        assert rep.eps_hat <= 3 * rep.radius

    def test_single_flip_exact_reference_mass_on_failure_and_same(self):
        code = build_concat(toy_concat_plan(t_block=2), RngSeed.from_int(32))
        f = BitTamperFn.from_str("K" * 8 + "F" + "K" * 31)
        ref = schemes.reference_dist(code, f)
        # The flipped block either misses the table (failure) or lands on
        # a same-message codeword (SAME); crossing to another message is
        # caught by the outer code distance.
        assert set(ref.support()) <= {BOTTOM, SAME}
