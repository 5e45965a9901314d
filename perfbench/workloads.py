"""The benchmark's three workloads.

Each workload is built from a workload seed and a size ("full" for the
benchmark, "tiny" for its self-test). Building it is the set-up: it builds
the codes and tables and draws every input. `round(r)` then returns the
r-th group of verdicts; rounds are deterministic in (seed, size, r), so the
i-th verdict of a run is the same whatever the run's length.

A verdict is one call into a public nmcode verdict function. Its `check`
runs after the timed region: it raises CheckFailed when an invariant that
holds for every seed is broken, and returns the exact result as a string
(or None for sampled verdicts) to compare with the pinned values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional

from nmcode import concat, inner, nmext, perm, schemes, tamper
from nmcode.core import BOTTOM, RngSeed, confidence_radius
from nmcode.inner import InnerParams

from layers import ATTACK, EXHAUSTIVE, NMEXT


class CheckFailed(Exception):
    """A verdict's output broke an invariant of its verdict function."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Verdict:
    kind: str  # label for the tracer and for per-kind ratios
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _dist_string(dist) -> str:
    def key(item):
        sym = item[0]
        return (-1, 0) if sym is BOTTOM else (0, sym.value)

    return " ".join(
        ("bottom" if sym is BOTTOM else sym.to_hex()) + f"={p}"
        for sym, p in sorted(dist.items(), key=key)
    )


def _report_string(report) -> str:
    return f"{report.passed} {report.worst_value}"


# ---------------------------------------------------------------------------
# attack-fuzz: sampled tamper fuzzing, criterion 8's shape
# ---------------------------------------------------------------------------


class AttackFuzz:
    """One toy-plan code; adversaries drawn as the CLI concat-attack op
    draws them (the canonical ones, then random keep/flip/freeze
    profiles); one verdict = one attack_experiment call."""

    SIZES = {
        "full": dict(adversaries=512, messages=16, samples=1000, round=10),
        "tiny": dict(adversaries=12, messages=2, samples=16, round=12),
    }

    def __init__(self, seed: int, size: str):
        p = self.SIZES[size]
        self.samples = p["samples"]
        self.round_size = p["round"]
        root = RngSeed.from_int(seed)
        self.plan = concat.toy_concat_plan()
        self.code = concat.build_concat(self.plan, root.child(0))
        gen = root.stream("cli.attack.generate")
        advs = list(tamper.canonical_adversaries(self.code, gen))
        while len(advs) < p["adversaries"]:
            profile = gen.random(), gen.random(), gen.random()
            total = sum(profile)
            f = tamper.random_tamper(
                self.code.block_bits, tuple(x / total for x in profile), gen
            )
            advs.append((f"random-{len(advs)}", f))
        self.adversaries = []
        for j, (name, f) in enumerate(advs[: p["adversaries"]]):
            child = root.child(1000 + j)
            pick = child.stream(f"cli.attack.pick.{name}")
            msgs = [pick.getrandbits(self.code.message_bits) for _ in range(p["messages"])]
            self.adversaries.append((name, f, child, msgs))
        self.sizes = {
            "adversaries": len(self.adversaries),
            "messages_per_adversary": p["messages"],
            "samples_per_distribution": self.samples,
            "distributions_per_verdict": p["messages"] + 1,
            "code_bits": self.code.block_bits,
            "message_bits": self.code.message_bits,
        }

    def round(self, r: int) -> List[Verdict]:
        n = len(self.adversaries)
        return [self._verdict(self.adversaries[(r * self.round_size + i) % n])
                for i in range(self.round_size)]

    def _verdict(self, adversary) -> Verdict:
        name, f, child, msgs = adversary
        samples = self.samples

        def run():
            return concat.attack_experiment(
                self.code, f, messages=msgs, samples=samples, seed=child, adversary_id=name
            )

        def check(report) -> None:
            _require(report.radius == confidence_radius(samples), "radius")
            _require(report.case_class == concat.classify_adversary(self.plan, f), "case class")
            _require(set(report.per_message) == set(msgs), "messages")
            _require(report.eps_hat == max(report.per_message.values()), "eps_hat is the max")
            _require(0.0 <= report.eps_hat <= 1.0, "eps_hat range")
            if f.is_identity():
                _require(report.eps_hat == 0.0, "identity adversary has eps_hat 0")
            ref = report.reference
            _require(ref["kind"] == "empirical" and ref["samples"] == samples, "reference kind")
            counts = [e["p"] * samples for e in ref["support"]]
            _require(all(abs(c - round(c)) < 1e-6 for c in counts), "integral counts")
            _require(sum(round(c) for c in counts) == samples, "counts sum to samples")
            return None

        return Verdict("attack", run, check)


# ---------------------------------------------------------------------------
# exhaustive-verify: exact enumeration
# ---------------------------------------------------------------------------


class ExhaustiveVerify:
    """(a) exact outcome distributions of the criterion-7 plan, half for
    case1 (frozen-payload) adversaries and half for keep-heavy ones; (b) the
    CLI inner-verify check set on sampled inner codes; (c) the permutation
    l-wise test in its exhaustive mode.

    A round holds 12 (a), 4 (b) and 4 (c) verdicts: the perm verdicts are
    the slowest fifth, so verdict_s.p90 falls inside them and p50 inside
    the (a) verdicts. Adversaries are interleaved and each visits the
    messages in one seeded order, so every adversary reaches all 256
    messages in a long enough run.
    """

    # Keep or freeze, never flip: a flip almost always leaves an invalid
    # block, while a frozen bit keeps the word valid whenever it already had
    # that value, so the exact distributions keep mass on the message.
    KEEP_PROFILE = (0.92, 0.0, 0.08)
    SIZES = {
        "full": dict(adversaries=16, inner_codes=2, big=(10, 3, 64), small=(6, 2, 4),
                     perm=(32, 2, 10)),
        "tiny": dict(adversaries=1, inner_codes=1, big=(6, 2, 4), small=(6, 2, 4),
                     perm=(8, 2, 6)),
    }

    def __init__(self, seed: int, size: str):
        p = self.SIZES[size]
        root = RngSeed.from_int(seed)
        self.plan = concat.toy_concat_plan(t_block=2)
        self.code = concat.build_concat(self.plan, root.child(0))
        rng = root.stream("perfbench.exhaustive")
        a = p["adversaries"]
        self.case1 = [f for _, f in tamper.case1_family(self.code, a, rng)]
        self.keep = [tamper.random_tamper(self.code.block_bits, self.KEEP_PROFILE, rng)
                     for _ in range(a)]
        nmsg = 1 << self.code.message_bits
        self.messages = rng.sample(range(nmsg), nmsg)
        self.encodings = self.code.encoding_count(0)
        self.checks = []
        for i in range(p["inner_codes"]):
            big = inner.sample_inner_code(InnerParams(*p["big"]), root.child(200 + i))
            small = inner.sample_inner_code(InnerParams(*p["small"]), root.child(300 + i))
            self.checks += [("roundtrip", big), ("cube", big),
                            ("independence", big), ("detection", small)]
        n, ell, seed_bits = p["perm"]
        self.perm_spec = perm.PermSpec(n=n, ell=ell, seed_bits=seed_bits)
        self.root = root
        self._first: Dict[int, object] = {}
        self.sizes = {
            "adversaries_case1": a,
            "adversaries_keep_heavy": a,
            "messages": nmsg,
            "encodings_per_message": self.encodings,
            "inner_code_big": dict(zip("nkt", p["big"])),
            "inner_code_small": dict(zip("nkt", p["small"])),
            "inner_checks": len(self.checks),
            "detection_adversaries": 4 ** p["small"][0],
            "perm": {"n": n, "ell": ell, "seeds": self.perm_spec.seed_space(), "index_sets": 8},
        }

    def round(self, r: int) -> List[Verdict]:
        out = []
        a = len(self.case1)
        for i in range(6):
            j = r * 6 + i
            s = self.messages[(j // a) % len(self.messages)]
            out.append(self._exact("exact.case1", self.case1[j % a], j % a, s))
            out.append(self._exact("exact.keep_heavy", self.keep[j % a], None, s))
        for i in range(4):
            out.append(self._inner_check(self.checks[(r * 4 + i) % len(self.checks)]))
        for i in range(4):
            out.append(self._perm(self.root.child(400 + r * 4 + i)))
        return out

    def _exact(self, kind: str, f, case1_index: Optional[int], s: int) -> Verdict:
        def run():
            return self.code.exact_outcome_dist(f, s)

        def check(dist) -> str:
            _require(all((p * self.encodings).denominator == 1 for _, p in dist.items()),
                     "probabilities are counts over the encodings")
            if case1_index is not None:
                first = self._first.setdefault(case1_index, dist)
                _require(dist == first, "case1 outcome distribution depends on the message")
            return _dist_string(dist)

        return Verdict(kind, run, check)

    def _inner_check(self, item) -> Verdict:
        name, code = item
        if name == "roundtrip":
            def check(ok) -> str:
                _require(ok is True, "inner round trip")
                return "True"

            return Verdict("inner.roundtrip", lambda: schemes.roundtrip_exhaustive(code), check)
        run = {
            "cube": lambda: inner.verify_cube_property(code),
            "independence": lambda: inner.verify_bounded_independence(code, 2, 0.15),
            "detection": lambda: inner.verify_error_detection(code),
        }[name]

        def check(report) -> str:
            _require(0 <= report.worst_value <= 1, "worst value is a probability")
            return _report_string(report)

        return Verdict(f"inner.{name}", run, check)

    def _perm(self, seed: RngSeed) -> Verdict:
        spec = self.perm_spec

        def run():
            return perm.test_lwise_dependence(spec, trials=spec.seed_space(), seed=seed)

        def check(report) -> str:
            _require(report.details["mode"] == "exhaustive", "exhaustive mode")
            _require(0 <= report.worst_value <= 1, "distance range")
            return _report_string(report)

        return Verdict("perm", run, check)


# ---------------------------------------------------------------------------
# nmext-reduce: split-state tampering
# ---------------------------------------------------------------------------


class NmextReduce:
    """verify_reduction on random n=4 tables, one adversary per verdict,
    mostly at m=1 and one verdict in twenty at m=2; relaxed_error_sweep on
    n=3 tables with fixed-point-free tamperings.

    A round holds 16 m=1, 3 sweep and 1 m=2 verdicts: verdict_s.p50 falls
    inside the m=1 verdicts and p90 inside the sweeps.
    """

    SIZES = {
        "full": dict(n_reduce=4, n_sweep=3, min_support=6, m1_tables=8, m2_tables=16,
                     sweep_inputs=48, m1_per_round=16, sweeps_per_round=3),
        "tiny": dict(n_reduce=3, n_sweep=3, min_support=7, m1_tables=2, m2_tables=2,
                     sweep_inputs=2, m1_per_round=2, sweeps_per_round=1),
    }

    def __init__(self, seed: int, size: str):
        p = self.SIZES[size]
        root = RngSeed.from_int(seed)
        self.root = root
        self.m1_per_round = p["m1_per_round"]
        self.sweeps_per_round = p["sweeps_per_round"]
        self.min_support = p["min_support"]
        n = p["n_reduce"]
        self.m1 = [nmext.sample_random_extractor(n, 1, root.child(500 + i))
                   for i in range(p["m1_tables"])]
        self.m2 = [nmext.sample_random_extractor(n, 2, root.child(600 + i))
                   for i in range(p["m2_tables"])]
        rng = root.stream("perfbench.nmext")
        space = 1 << p["n_sweep"]
        self.sweeps = []
        for i in range(p["sweep_inputs"]):
            table = nmext.sample_random_extractor(p["n_sweep"], 1, root.child(700 + i))
            f1 = nmext.repair_fixed_points([rng.randrange(space) for _ in range(space)], space)
            f2 = nmext.repair_fixed_points([rng.randrange(space) for _ in range(space)], space)
            self.sweeps.append((table, f1, f2))
        supports = sum(comb(space, k) for k in range(self.min_support, space + 1))
        self.sizes = {
            "m1_tables": {"count": len(self.m1), "n": n, "m": 1},
            "m2_tables": {"count": len(self.m2), "n": n, "m": 2},
            "adversaries_per_reduction": 1,
            "sweep_tables": {"count": len(self.sweeps), "n": p["n_sweep"], "m": 1,
                             "min_support": self.min_support},
            "support_pairs_per_sweep": supports * supports,
            "lp_optimal_nm_error": {m: _nm_lp_size(m) for m in (1, 2)},
        }

    def round(self, r: int) -> List[Verdict]:
        out = []
        for i in range(self.m1_per_round):
            j = r * self.m1_per_round + i
            out.append(self._reduce("reduce.m1", self.m1[j % len(self.m1)], 10_000 + j))
        for i in range(self.sweeps_per_round):
            j = r * self.sweeps_per_round + i
            out.append(self._sweep(self.sweeps[j % len(self.sweeps)]))
        out.append(self._reduce("reduce.m2", self.m2[r % len(self.m2)], 20_000 + r))
        return out

    def _reduce(self, kind: str, table, stream: int) -> Verdict:
        seed = self.root.child(stream)

        def run():
            return nmext.verify_reduction(table, adversaries=1, seed=seed)

        def check(report) -> str:
            _require(len(report.rows) == 1, "one row per adversary")
            _require(all(row.code_error <= row.bound for row in report.rows),
                     "code error within the reduction bound")
            rows = ";".join(f"{row.code_error}<={row.bound}" for row in report.rows)
            return f"{report.extraction_distance} {rows}"

        return Verdict(kind, run, check)

    def _sweep(self, item) -> Verdict:
        table, f1, f2 = item
        min_support = self.min_support

        def run():
            return nmext.relaxed_error_sweep(table, f1, f2, min_support=min_support)

        def check(result) -> str:
            worst, _ = result
            _require(isinstance(worst, Fraction) and 0 <= worst <= 1, "error range")
            return str(worst)

        return Verdict("sweep", run, check)


def _nm_lp_size(m: int) -> dict:
    """Size of the LP that schemes.optimal_nm_error solves for m output bits."""
    msgs = 1 << m
    outcomes = msgs + 1  # messages plus decoder failure
    return {
        "variables": outcomes + 2 + msgs * outcomes,
        "inequalities": msgs * (1 + 2 * outcomes),
        "equalities": 1,
    }


WORKLOAD_CLASSES = {ATTACK: AttackFuzz, EXHAUSTIVE: ExhaustiveVerify, NMEXT: NmextReduce}


def build(name: str, seed: int, size: str = "full"):
    return WORKLOAD_CLASSES[name](seed, size)
