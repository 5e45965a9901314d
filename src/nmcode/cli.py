"""Batch front door: seeded, config-driven experiments with JSON reports.

One table, OPERATIONS, builds the subcommands and their flags, validates
configs and gives `run_config`, the only executor, its handlers. A
handler returns its results and its verdicts (`core.Verdict`) and decides
nothing: `run_config` writes each verdict once, and a report passes
exactly when all its verdicts pass, so an operation with none passes.
Every run is deterministic given (config, seed): reports from two runs of
the same config differ only in wall time. Exit codes: 0 every verdict
passed, 1 a verdict failed (its witness in the report, as for a planned
layout that violates an inequality), 2 invalid configuration or usage,
or values that admit no object at all (no layout, a guard exceeded).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .core import BitWord, GuardExceeded, NmcodeError, RngSeed, Verdict, dumps_report
from .inner import (
    InnerParams,
    plan_inner_params,
    sample_inner_code,
    verify_bounded_independence,
    verify_cube_property,
    verify_error_detection,
)
from .lecss import build_lecss, verify_lecss
from .perm import PermSpec, derive_permutation, test_lwise_dependence
from .concat import (
    AttackReport,
    ConcatCode,
    attack_experiment,
    build_concat,
    plan_concat,
    toy_concat_plan,
)
from .nmext import FlatSourcePair, check_extraction, sample_random_extractor, verify_reduction
from .tamper import BitTamperFn, canonical_adversaries, random_tamper
from . import schemes

DEFAULT_SEED = "1"
DEFAULT_JOBS = 1

#: The checks `inner verify` knows, and those that take a sweep guard.
INNER_CHECKS = ("roundtrip", "cube", "independence", "detection")
GUARDED_CHECKS = ("independence", "detection")

#: Criterion 8's gate on the worst attack error ε̂ of `concat attack`.
ATTACK_GATE = Fraction(1, 4)


class ConfigError(NmcodeError):
    pass


#: What a handler returns: its results and its verdicts.
Outcome = Tuple[dict, List[Verdict]]


#: Default of a param that every run must give.
REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class Param:
    """One input of an operation.

    `key` is its place in a config: "params.n" lives in the "params"
    object, "samples" at the top level. A default of None leaves the key
    out unless it is given. `flag` is None for config-only params; `parse`
    reads the flag text when it differs from the JSON type. A count that
    sizes a check has minimum 1, so a PASS always rests on checked cases.
    """

    key: str
    type: type
    default: object = None
    flag: Optional[str] = None
    parse: Optional[Callable[[str], object]] = None
    help: Optional[str] = None
    minimum: Optional[int] = None

    @property
    def name(self) -> str:
        return self.key.rpartition(".")[2]


@dataclasses.dataclass(frozen=True)
class Operation:
    command: str
    verb: str
    handler: Callable[[dict, RngSeed, int, Optional[str]], Outcome]
    params: Tuple[Param, ...]

    @property
    def name(self) -> str:
        return f"{self.command}-{self.verb}"


def parse_seed(raw) -> RngSeed:
    """A seed from an int or a string: decimal digits are an int, any other
    string is hex, with or without a 0x prefix."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return RngSeed.from_int(raw)
    s = raw.strip() if isinstance(raw, str) else ""
    digits = s.removeprefix("0x")
    if not digits:
        raise ConfigError(f"seed must be an int or a nonempty hex string, not {raw!r}")
    if s.isdecimal():
        return RngSeed.from_int(int(s))
    try:
        return RngSeed.from_hex("0" * (len(digits) % 2) + digits)
    except ValueError as e:
        raise ConfigError(f"bad seed {raw!r}: {e}") from None


def _is(kind: type, value) -> bool:
    """Whether a JSON value has a param's type: ints count as floats, bools
    only as bools and lists hold strings."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, kind)


def _given(config: dict) -> dict:
    """The operation inputs of a config, by param key."""
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    top = {k: v for k, v in config.items() if k not in ("operation", "seed", "jobs", "params")}
    return top | {f"params.{k}": v for k, v in params.items()}


def validate_config(config: dict) -> dict:
    """Check a config against its operation's table entry.

    Raises ConfigError on a missing, mistyped or unknown key and returns
    the config with jobs capped at the machine's CPU count.
    """
    if not isinstance(config, dict):
        raise ConfigError("a config must be a JSON object")
    name = config.get("operation")
    if not isinstance(name, str) or name not in OPERATIONS:
        raise ConfigError(f"unknown operation {name!r}; known: {', '.join(OPERATIONS)}")
    if "seed" not in config:
        raise ConfigError("missing required key 'seed'")
    parse_seed(config["seed"])
    given = _given(config)
    params = OPERATIONS[name].params
    unknown = sorted(set(given) - {p.key for p in params})
    if unknown:
        raise ConfigError(f"unknown key(s) for {name}: {', '.join(unknown)}")
    for p in params:
        if p.key not in given:
            if p.default is REQUIRED:
                raise ConfigError(f"missing required key {p.key!r}")
        elif not _is(p.type, given[p.key]):
            raise ConfigError(f"key {p.key!r} must be of type {p.type.__name__}")
        elif p.minimum is not None and given[p.key] < p.minimum:
            raise ConfigError(f"key {p.key!r} must be at least {p.minimum}")
    jobs = config.get("jobs", DEFAULT_JOBS)
    if not _is(int, jobs) or jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        config = config | {"jobs": cpus}
    return config


def _map(fn, work: list, jobs: int) -> list:
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(fn, work)
    return [fn(w) for w in work]


def _save_artifact(obj, outdir: str, name: str) -> dict:
    path = os.path.join(outdir, name)
    with open(path, "wb") as fp:
        obj.save(fp)
    with open(path, "rb") as fp:
        return {"path": path, "sha256": hashlib.sha256(fp.read()).hexdigest()}


def _encode(code, message: str, rng) -> Outcome:
    """The hex word of a hex message; BitWord raises ValueError, as in
    `_decode`, when the input is wider than the code's."""
    s = BitWord(int(message, 16), code.message_bits).value
    word = BitWord(code.encode_int(s, rng), code.block_bits)
    return {"word": word.to_hex()}, []


def _decode(code, word: str) -> Outcome:
    d = code.decode_int(BitWord(int(word, 16), code.block_bits).value)
    return {"decoded": "bottom" if d is None else BitWord(d, code.message_bits).to_hex()}, []


# -- handlers: (params by name, seed, jobs, outdir) -> (results, verdicts) ---


def _inner_sample(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Sample a block code from n, k, t (and delta), or plan it from alpha."""
    if p["alpha"] is not None:
        if p["k"] is not None or p["delta"] is not None:
            raise ConfigError("alpha plans k and delta itself; give only n, alpha and t")
        plan = plan_inner_params(p["alpha"], p["n"], p["t"])
        code = sample_inner_code(plan.params, seed)
        planning = {k: getattr(plan, k) for k in ("epsilon", "delta", "delta_effective", "t_cap")}
    elif p["k"] is None or p["t"] is None:
        raise ConfigError("inner-sample needs k and t, or alpha")
    else:
        delta = {} if p["delta"] is None else {"delta": p["delta"]}
        code = sample_inner_code(InnerParams(p["n"], p["k"], p["t"], **delta), seed)
        planning = None
    result = {"params": dataclasses.asdict(code.params), "planning": planning}
    if outdir:
        result["artifact"] = _save_artifact(code, outdir, "inner_code.bin")
    return result, []


def _verify_one_inner(args) -> List[Verdict]:
    """The verdicts of one seed's code, each named with the seed's stream id."""
    inner, seed, checks, ell, eps, guard = args
    code = sample_inner_code(InnerParams(*inner), seed)
    kw = {} if guard is None else {"guard": guard}
    sweeps = {
        "roundtrip": lambda: Verdict(
            "roundtrip", Fraction(schemes.roundtrip_failures(code), code.params.codeword_count), 0),
        "cube": lambda: verify_cube_property(code),
        "independence": lambda: verify_bounded_independence(code, ell, eps, **kw),
        "detection": lambda: verify_error_detection(code, **kw),
    }
    verdicts = []
    for name in [c for c in sweeps if c in checks]:
        try:
            verdict = sweeps[name]()
        except GuardExceeded as e:
            hint = "raise --guard or " if name in GUARDED_CHECKS else ""
            raise GuardExceeded(f"{name}: {e}; {hint}leave {name} out of --checks") from None
        verdicts.append(dataclasses.replace(verdict, name=f"{verdict.name}.{seed.stream_id}"))
    return verdicts


def _inner_verify(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Verify sampled block codes exhaustively, one code per seed."""
    checks = p["checks"]
    if not checks or not set(checks) <= set(INNER_CHECKS):
        raise ConfigError(f"checks must be a nonempty subset of {', '.join(INNER_CHECKS)}")
    inner = (p["n"], p["k"], p["t"], p["delta"])
    work = [
        (inner, seed.child(i), checks, p["ell"], p["eps"], p["guard"])
        for i in range(p["seeds"])
    ]
    return {"seeds": p["seeds"]}, [v for row in _map(_verify_one_inner, work, jobs) for v in row]


def _lecss_build(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Instantiate the secret-sharing code for n symbols and rate slack alpha."""
    code = build_lecss(p["n"], p["alpha"])
    result = {"descriptor": code.descriptor(), "message_bits": code.message_bits,
              "block_bits": code.block_bits}
    if outdir:
        path = os.path.join(outdir, "lecss.json")
        with open(path, "w") as fp:
            json.dump(code.descriptor(), fp, indent=2)
        result["artifact"] = {"path": path}
    return result, []


def _lecss_encode(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Encode a hex message."""
    code = build_lecss(p["n"], p["alpha"])
    return _encode(code, p["message"], seed.stream("cli.lecss.encode"))


def _lecss_decode(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Decode a hex word."""
    return _decode(build_lecss(p["n"], p["alpha"]), p["word"])


def _lecss_verify(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Check distance, secrecy and linearity of the secret-sharing code."""
    return {}, verify_lecss(build_lecss(p["n"], p["alpha"]))


def _perm_spec(p: dict, **ell) -> PermSpec:
    return PermSpec(n=p["n"], seed_bits=p["seed_bits"], backend=p["backend"], **ell)


def _perm_derive(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Derive the permutation of seed value z."""
    perm = derive_permutation(_perm_spec(p), p["z"])
    return {"forward": list(perm.forward)}, []


def _perm_test(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Test ell-wise independence of the derived permutations."""
    return {}, [test_lwise_dependence(_perm_spec(p, ell=p["ell"]), trials=p["samples"], seed=seed)]


def _concat_plan(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Plan the scheme for total_bits and gamma0, or give the toy plan."""
    toy = p["total_bits"] is None
    if toy != (p["gamma0"] is None):
        raise ConfigError("give total_bits and gamma0 for a planned layout, or neither (toy)")
    given = {k: p[k] for k in ("t_block", "t_seed") if p[k] is not None}
    if toy:  # its ledger records the inequalities the toy sizes violate
        return {"plan": toy_concat_plan(**given).to_json()}, []
    if given:
        raise ConfigError(f"key(s) {', '.join(given)} apply only to the toy plan")
    plan = plan_concat(p["total_bits"], p["gamma0"])
    violated = [c.name for c in plan.violated()]
    return {"plan": plan.to_json()}, [
        Verdict("plan-inequalities", len(violated), 0, witness={"violated": violated} if violated else None)]


def _concat_encode(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Encode a hex message under the toy-plan code of the seed."""
    code = build_concat(toy_concat_plan(), seed)
    return _encode(code, p["message"], seed.stream("cli.concat.encode"))


def _concat_decode(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Decode a hex word under the toy-plan code of the seed."""
    return _decode(build_concat(toy_concat_plan(), seed), p["word"])


def _concat_roundtrip(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Encode and decode every message `samples` times."""
    code = build_concat(toy_concat_plan(t_block=p["t_block"], t_seed=p["t_seed"]), seed)
    failures = schemes.roundtrip_failures(code, p["samples"], seed.stream("cli.concat.roundtrip"))
    return {"messages": 1 << code.message_bits, "draws_per_message": p["samples"]}, [
        Verdict("roundtrip", failures, 0)]


@lru_cache(maxsize=1)
def _attack_code(seed: RngSeed) -> ConcatCode:
    """The attacked toy-plan code; every adversary of one run attacks the
    same code, so each process builds it (and its batch tables) once."""
    return build_concat(toy_concat_plan(), seed)


def _attack_one(args) -> AttackReport:
    actions, samples, seed, adv_id, messages = args
    code = _attack_code(seed.child(0))
    f = BitTamperFn.from_str(actions)
    rng = seed.stream(f"cli.attack.pick.{adv_id}")
    msgs = rng.sample(range(1 << code.message_bits), messages) if messages else None
    return attack_experiment(code, f, messages=msgs, samples=samples, seed=seed, adversary_id=adv_id)


def _concat_attack(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Fuzz the toy-plan code with canonical and random bit adversaries."""
    samples, count = p["samples"], p["adversaries"]
    code = _attack_code(seed.child(0))
    if p["messages"] > 1 << code.message_bits:
        raise ConfigError(f"messages must be at most {1 << code.message_bits}, the code's message count")
    gen_rng = seed.stream("cli.attack.generate")
    advs = list(canonical_adversaries(code, gen_rng))
    i = 0
    while len(advs) < count:
        profile = gen_rng.random(), gen_rng.random(), gen_rng.random()
        total = sum(profile)
        f = random_tamper(code.block_bits, tuple(x / total for x in profile), gen_rng)
        advs.append((f"random-{i}", f))
        i += 1
    advs = advs[:count]
    work = [
        (f.to_str(), samples, seed.child(1000 + j), name, p["messages"])
        for j, (name, f) in enumerate(advs)
    ]
    reports = _map(_attack_one, work, jobs)
    worst = max(reports, key=lambda r: r.eps_hat)
    verdict = Verdict("attack", worst.eps_hat, ATTACK_GATE, radius=worst.radius,
                      witness={"adversary_id": worst.adversary_id})
    rows = [r.to_json() | {"csv": r.csv_row()} for r in reports]
    result = {"adversaries": len(rows), "samples": samples, "rows": rows}
    if outdir:
        path = os.path.join(outdir, "attack.csv")
        with open(path, "w") as fp:
            fp.write(AttackReport.CSV_HEADER + "\n")
            for r in rows:
                fp.write(r["csv"] + "\n")
        result["csv_path"] = path
    return result, [verdict]


def _nmext_sample(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Sample a random two-source extractor table."""
    table = sample_random_extractor(p["n"], p["m"], seed)
    result = {"n": table.n, "m": table.m}
    if outdir:
        result["artifact"] = _save_artifact(table, outdir, "extractor.bin")
    return result, []


def _nmext_check(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Exact extraction distance of a sampled table on the full sources."""
    table = sample_random_extractor(p["n"], p["m"], seed)
    return {"extraction_distance": str(check_extraction(table, FlatSourcePair.full(p["n"])))}, []


def _nmext_reduce(p: dict, seed: RngSeed, jobs: int, outdir: Optional[str]) -> Outcome:
    """Check the extractor-to-code reduction against split-state adversaries."""
    table = sample_random_extractor(p["n"], p["m"], seed.child(1))
    report = verify_reduction(table, adversaries=p["adversaries"], seed=seed.child(2))
    return {"extraction_distance": str(report.extraction_distance), "adversaries": len(report.rows)}, [
        report.verdict]


# -- the table ----------------------------------------------------------------


def _flagged(key: str, kind: type, default, flag: Optional[str] = None, **kw) -> Param:
    """A param whose flag is --<name> unless named otherwise."""
    return Param(key, kind, default, flag or "--" + key.rpartition(".")[2], **kw)


_LECSS = (_flagged("params.n", int, 8), _flagged("params.alpha", float, 0.5))
_PERM = (
    _flagged("params.n", int, 8),
    _flagged("params.seed_bits", int, 128, "--seed-bits"),
    _flagged("params.backend", str, "prf-shuffle"),
)
_NMEXT = (_flagged("params.n", int, 4), _flagged("params.m", int, 1))
_TOY = (Param("params.t_block", int, 4), Param("params.t_seed", int, 2))
_MESSAGE = _flagged("params.message", str, REQUIRED, help="hex message")
_WORD = _flagged("params.word", str, REQUIRED, help="hex word")

COMMANDS = {
    "inner": "lookup-table block codes",
    "lecss": "secret-sharing outer code",
    "perm": "seed-derived permutations",
    "concat": "concatenated scheme",
    "nmext": "two-source extractor experiments",
}

OPERATIONS: Dict[str, Operation] = {
    op.name: op
    for op in (
        Operation("inner", "sample", _inner_sample, (
            _flagged("params.n", int, 10),
            _flagged("params.k", int, None),
            _flagged("params.t", int, None),
            _flagged("params.delta", float, None),
            _flagged("params.alpha", float, None),
        )),
        Operation("inner", "verify", _inner_verify, (
            _flagged("params.n", int, 8),
            _flagged("params.k", int, 4),
            _flagged("params.t", int, 8),
            _flagged("params.delta", float, 0.0),
            _flagged("checks", list, list(INNER_CHECKS), parse=lambda s: s.split(",")),
            _flagged("ell", int, 2),
            _flagged("eps", float, 0.15),
            _flagged("seeds", int, 1, minimum=1),
            _flagged("guard", int, None, minimum=1,
                     help="sweep size limit for the independence and detection checks"),
        )),
        Operation("lecss", "build", _lecss_build, _LECSS),
        Operation("lecss", "encode", _lecss_encode, _LECSS + (_MESSAGE,)),
        Operation("lecss", "decode", _lecss_decode, _LECSS + (_WORD,)),
        Operation("lecss", "verify", _lecss_verify, _LECSS),
        Operation("perm", "derive", _perm_derive, _PERM + (_flagged("params.z", int, 0),)),
        Operation("perm", "test", _perm_test, _PERM + (
            _flagged("params.ell", int, 1),
            _flagged("samples", int, 10000, "--trials", minimum=1),
        )),
        Operation("concat", "plan", _concat_plan, (
            _flagged("params.total_bits", int, None, "--bits"),
            _flagged("params.gamma0", float, None),
            # Config-only keys of the toy plan; absent unless given, so
            # that a planned layout rejects them.
            Param("params.t_block", int),
            Param("params.t_seed", int),
        )),
        Operation("concat", "encode", _concat_encode, (_MESSAGE,)),
        Operation("concat", "decode", _concat_decode, (_WORD,)),
        Operation("concat", "roundtrip", _concat_roundtrip,
                  _TOY + (_flagged("samples", int, 100, minimum=1),)),
        Operation("concat", "attack", _concat_attack, (
            _flagged("params.adversaries", int, 20, minimum=1),
            _flagged("params.messages", int, 16, minimum=0,
                     help="distinct messages attacked per adversary, at most 256; 0 for all"),
            _flagged("samples", int, 10000, minimum=1),
        )),
        Operation("nmext", "sample", _nmext_sample, _NMEXT),
        Operation("nmext", "check", _nmext_check, _NMEXT),
        Operation("nmext", "reduce", _nmext_reduce,
                  _NMEXT + (_flagged("params.adversaries", int, 100, minimum=1),)),
    )
}


def run_config(config: dict, outdir: Optional[str] = None) -> dict:
    """Execute one experiment config; returns the full report object."""
    config = validate_config(config)
    seed = parse_seed(config["seed"])
    op = OPERATIONS[config["operation"]]
    given = _given(config)
    values = {p.name: given.get(p.key, p.default) for p in op.params}
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    start = time.monotonic()
    try:
        result, verdicts = op.handler(values, seed, config.get("jobs", DEFAULT_JOBS), outdir)
    except ValueError as e:
        # The library's constructors reject out-of-range inputs this way.
        raise ConfigError(str(e)) from e
    wall = time.monotonic() - start
    report = {
        "config": config,
        "operation": op.name,
        "results": result,
        "verdicts": [v.to_json() for v in verdicts],
        "pass": all(v.passed for v in verdicts),
        "wall_time_s": round(wall, 3),
    }
    if outdir:
        with open(os.path.join(outdir, "report.json"), "w") as fp:
            fp.write(dumps_report(report))
    return report


def _common_flags(suppress: bool) -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand.

    After it they default to SUPPRESS, so a subparser leaves a value given
    before the subcommand in place instead of overwriting it.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default=default(None),
                        help=f"seed (int or hex), overrides config; default {DEFAULT_SEED}")
    common.add_argument("--jobs", type=int, default=default(None),
                        help=f"worker pool size, overrides config; default {DEFAULT_JOBS}")
    common.add_argument("--out", default=default(None), help="report output directory")
    return common


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command and one sub-subcommand per verb, with the
    flags of the verb's operation."""
    common = _common_flags(suppress=True)
    parser = argparse.ArgumentParser(
        prog="nmcode",
        description="Tamper-resilient coding toolkit: sample, verify, attack.",
        parents=[_common_flags(suppress=False)],
    )
    parser.add_argument("--config", help="experiment config JSON, instead of a subcommand")
    parser.set_defaults(op=None)
    commands = parser.add_subparsers(dest="command")
    verbs = {
        name: commands.add_parser(name, help=text, parents=[common]).add_subparsers(
            dest="verb", required=True
        )
        for name, text in COMMANDS.items()
    }
    for op in OPERATIONS.values():
        sub = verbs[op.command].add_parser(
            op.verb,
            help=op.handler.__doc__,
            parents=[common],
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        sub.set_defaults(op=op)
        for p in op.params:
            if p.flag is None:
                continue
            sub.add_argument(
                p.flag,
                dest=p.name,
                type=p.parse or p.type,
                default=None if p.default is REQUIRED else p.default,
                required=p.default is REQUIRED,
                help=f"{p.help}; key {p.key}" if p.help else f"key {p.key}",
            )
    return parser


def read_config(args: argparse.Namespace) -> dict:
    """The config a parsed command line asks for: a --config file or the
    flags of a subcommand, with --seed and --jobs applied."""
    if args.config and args.op:
        raise ConfigError("give --config or a subcommand, not both")
    if args.config:
        with open(args.config) as fp:
            config = json.load(fp)
        if not isinstance(config, dict):
            raise ConfigError("a config file must hold one JSON object")
    elif args.op:
        config = {"operation": args.op.name, "seed": DEFAULT_SEED}
        for p in args.op.params:
            value = getattr(args, p.name) if p.flag else None
            if value is None:
                continue
            if p.key.startswith("params."):
                config.setdefault("params", {})[p.name] = value
            else:
                config[p.key] = value
    else:
        raise ConfigError("no operation selected; pass --config or a subcommand (see --help)")
    overrides = {"seed": args.seed, "jobs": args.jobs}
    return {"jobs": DEFAULT_JOBS} | config | {k: v for k, v in overrides.items() if v is not None}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run_config(read_config(args), outdir=args.out)
    except (ConfigError, json.JSONDecodeError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NmcodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        print(dumps_report(report), flush=True)
    except BrokenPipeError:
        # The reader closed standard output early: point it at devnull so
        # the flush at exit does not raise again (the Python docs' recipe
        # for SIGPIPE), and exit 1 as the interpreter does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
