"""Batch front door: seeded, config-driven experiments with JSON reports.

Every run is deterministic given (config, seed): reports from two runs of
the same config differ only in wall time. Exit codes: 0 all asserted
properties hold, 1 a property failed (witness in the report), 2 invalid
configuration or usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from functools import lru_cache
from typing import Dict, List, Optional

from .core import BitWord, NmcodeError, RngSeed, dumps_report
from .inner import (
    InnerCode,
    InnerParams,
    plan_inner_params,
    sample_inner_code,
    verify_bounded_independence,
    verify_cube_property,
    verify_error_detection,
)
from .lecss import LecssCode, build_lecss, verify_lecss
from .perm import PermSpec, derive_permutation, test_lwise_dependence
from .concat import (
    AttackReport,
    ConcatCode,
    attack_experiment,
    build_concat,
    plan_concat,
    toy_concat_plan,
)
from .nmext import sample_random_extractor, verify_reduction
from .tamper import BitTamperFn, canonical_adversaries, random_tamper
from . import schemes

OPERATIONS = (
    "inner-sample",
    "inner-verify",
    "lecss-build",
    "lecss-verify",
    "perm-derive",
    "perm-test",
    "concat-plan",
    "concat-roundtrip",
    "concat-attack",
    "nmext-sample",
    "nmext-reduce",
)


DEFAULT_SEED = "1"
DEFAULT_JOBS = 1


class ConfigError(NmcodeError):
    pass


def _require(config: dict, key: str, types) -> object:
    if key not in config:
        raise ConfigError(f"missing required key {key!r}")
    if not isinstance(config[key], types):
        raise ConfigError(f"key {key!r} has type {type(config[key]).__name__}")
    return config[key]


def parse_seed(raw) -> RngSeed:
    if isinstance(raw, int):
        return RngSeed.from_int(raw)
    if isinstance(raw, str):
        s = raw.strip().removeprefix("0x")
        if s.isdigit():
            return RngSeed.from_int(int(s))
        if len(s) % 2:
            s = "0" + s
        try:
            return RngSeed.from_hex(s)
        except ValueError as e:
            raise ConfigError(f"bad seed {raw!r}: {e}") from None
    raise ConfigError("seed must be an int or a hex string")


def validate_config(config: dict) -> dict:
    op = _require(config, "operation", str)
    if op not in OPERATIONS:
        raise ConfigError(f"unknown operation {op!r}; known: {', '.join(OPERATIONS)}")
    _require(config, "seed", (int, str))
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    jobs = config.get("jobs", 1)
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        config = config | {"jobs": cpus}
    guards = config.get("guards", {})
    if not isinstance(guards, dict) or not all(
        isinstance(v, int) for v in guards.values()
    ):
        raise ConfigError("guards must map check names to integer limits")
    return config


def _hash_artifact(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inner_from_params(params: dict, seed: RngSeed) -> InnerCode:
    p = InnerParams(
        n=params["n"],
        k=params["k"],
        t=params["t"],
        delta=params.get("delta", 0.0),
    )
    return sample_inner_code(p, seed)


def _op_inner_sample(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    if "alpha" in params:
        plan = plan_inner_params(params["alpha"], params["n"], params.get("t"))
        code = sample_inner_code(plan.params, seed)
        planning = {
            "epsilon": plan.epsilon,
            "delta": plan.delta,
            "delta_effective": plan.delta_effective,
            "t_cap": plan.t_cap,
        }
    else:
        code = _inner_from_params(params, seed)
        planning = None
    result = {
        "params": {
            "n": code.params.n,
            "k": code.params.k,
            "t": code.params.t,
            "delta": code.params.delta,
        },
        "planning": planning,
        "pass": True,
    }
    if outdir:
        path = os.path.join(outdir, "inner_code.bin")
        with open(path, "wb") as fp:
            code.save(fp)
        with open(path, "rb") as fp:
            result["artifact"] = {"path": path, "sha256": _hash_artifact(fp.read())}
    return result


def _verify_one_inner(args) -> dict:
    params, seed_json, checks, ell, eps, guards = args
    seed = RngSeed.from_json(seed_json)
    code = _inner_from_params(params, seed)
    reports: Dict[str, dict] = {}
    if "cube" in checks:
        kw = {"guard": guards["cube"]} if "cube" in guards else {}
        reports["cube"] = verify_cube_property(code, **kw).to_json()
    if "independence" in checks:
        kw = {"guard": guards["independence"]} if "independence" in guards else {}
        reports["independence"] = verify_bounded_independence(code, ell, eps, **kw).to_json()
    if "detection" in checks:
        kw = {"guard": guards["detection"]} if "detection" in guards else {}
        reports["detection"] = verify_error_detection(code, **kw).to_json()
    if "roundtrip" in checks:
        ok = schemes.roundtrip_exhaustive(code)
        reports["roundtrip"] = {"name": "roundtrip", "passed": ok, "worst_case": "exhaustive", "worst_value": 0.0}
        if not ok:
            reports["roundtrip"]["counterexample"] = {"note": "decode(encode(s)) != s"}
    return {"stream_id": seed.stream_id, "reports": reports}


def _op_inner_verify(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    checks = config.get("checks", ["roundtrip", "cube", "independence", "detection"])
    ell = config.get("ell", 2)
    eps = config.get("eps", 0.15)
    nseeds = config.get("seeds", 1)
    jobs = config.get("jobs", 1)
    guards = config.get("guards", {})
    work = [
        (params, seed.child(i).to_json(), checks, ell, eps, guards)
        for i in range(nseeds)
    ]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_verify_one_inner, work)
    else:
        rows = [_verify_one_inner(w) for w in work]
    per_check_pass: Dict[str, int] = {}
    for row in rows:
        for name, rep in row["reports"].items():
            per_check_pass[name] = per_check_pass.get(name, 0) + bool(rep["passed"])
    overall = all(
        rep["passed"] for row in rows for rep in row["reports"].values()
    )
    return {
        "seeds": nseeds,
        "per_check_pass_counts": per_check_pass,
        "rows": rows,
        "pass": overall,
    }


def _op_lecss_build(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    code = build_lecss(params["n"], params["alpha"])
    result = {"descriptor": code.descriptor(), "message_bits": code.message_bits,
              "block_bits": code.block_bits, "pass": True}
    if outdir:
        path = os.path.join(outdir, "lecss.json")
        with open(path, "w") as fp:
            json.dump(code.descriptor(), fp, indent=2)
        result["artifact"] = {"path": path}
    return result


def _op_lecss_verify(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    code = LecssCode(params["m"], params["n"], params["k"], params["k0"])
    report = verify_lecss(code, trials=config.get("samples", 1000), seed=seed)
    return {"report": report.to_json(), "pass": report.passed}


def _op_perm_derive(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    spec = PermSpec(
        n=params["n"],
        ell=params.get("ell", 1),
        seed_bits=params.get("seed_bits", 128),
        backend=params.get("backend", "prf-shuffle"),
    )
    perm = derive_permutation(spec, params.get("z", 0))
    return {"forward": list(perm.forward), "pass": True}


def _op_perm_test(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    spec = PermSpec(
        n=params["n"],
        ell=params.get("ell", 1),
        seed_bits=params.get("seed_bits", 128),
        backend=params.get("backend", "prf-shuffle"),
    )
    report = test_lwise_dependence(
        spec, trials=config.get("samples", 10000), seed=seed
    )
    return {"report": report.to_json(), "pass": report.passed}


def _op_concat_plan(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    if params.get("toy"):
        plan = toy_concat_plan(
            t_block=params.get("t_block", 4), t_seed=params.get("t_seed", 2)
        )
    else:
        plan = plan_concat(
            params["total_bits"],
            params["gamma0"],
            strict=params.get("strict", True),
        )
    violated = [c.name for c in plan.violated()]
    return {"plan": plan.to_json(), "violated": violated, "pass": not violated or bool(params.get("toy"))}


def _op_concat_roundtrip(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    plan = toy_concat_plan(
        t_block=params.get("t_block", 4), t_seed=params.get("t_seed", 2)
    )
    code = build_concat(plan, seed)
    draws = config.get("samples", 100)
    rng = seed.stream("cli.concat.roundtrip")
    failures = 0
    for s in range(1 << code.message_bits):
        for _ in range(draws):
            if code.decode_int(code.encode_int(s, rng)) != s:
                failures += 1
    return {
        "messages": 1 << code.message_bits,
        "draws_per_message": draws,
        "failures": failures,
        "pass": failures == 0,
    }


@lru_cache(maxsize=1)
def _attack_code(seed: RngSeed) -> ConcatCode:
    """The attacked toy-plan code; every adversary of one run attacks the
    same code, so each process builds it (and its batch tables) once."""
    return build_concat(toy_concat_plan(), seed)


def _attack_one(args) -> dict:
    adv_json, samples, seed_json, adv_id, messages = args
    seed = RngSeed.from_json(seed_json)
    code = _attack_code(seed.child(0))
    f = BitTamperFn.from_str(adv_json["actions"])
    rng = seed.stream(f"cli.attack.pick.{adv_id}")
    msgs = [rng.getrandbits(code.message_bits) for _ in range(messages)] if messages else None
    report = attack_experiment(
        code, f, messages=msgs, samples=samples, seed=seed, adversary_id=adv_id
    )
    return report.to_json() | {"csv": report.csv_row()}


def _op_concat_attack(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    samples = config.get("samples", 10000)
    count = params.get("adversaries", 20)
    messages = params.get("messages", 16)
    threshold = params.get("eps_threshold", 0.25)
    jobs = config.get("jobs", 1)
    code = _attack_code(seed.child(0))
    gen_rng = seed.stream("cli.attack.generate")
    advs: List[tuple] = []
    for name, f in canonical_adversaries(code, gen_rng):
        advs.append((name, f))
    i = 0
    while len(advs) < count:
        profile = gen_rng.random(), gen_rng.random(), gen_rng.random()
        total = sum(profile)
        f = random_tamper(code.block_bits, tuple(p / total for p in profile), gen_rng)
        advs.append((f"random-{i}", f))
        i += 1
    advs = advs[:count]
    work = [
        (f.to_json(), samples, seed.child(1000 + j).to_json(), name, messages)
        for j, (name, f) in enumerate(advs)
    ]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_attack_one, work)
    else:
        rows = [_attack_one(w) for w in work]
    radius = rows[0]["radius"] if rows else 0.0
    worst = max((r["eps_hat"] for r in rows), default=0.0)
    result = {
        "adversaries": len(rows),
        "samples": samples,
        "worst_eps_hat": worst,
        "threshold": threshold,
        "radius": radius,
        "rows": rows,
        "pass": worst <= threshold + radius,
    }
    if outdir:
        path = os.path.join(outdir, "attack.csv")
        with open(path, "w") as fp:
            fp.write(AttackReport.CSV_HEADER + "\n")
            for r in rows:
                fp.write(r["csv"] + "\n")
        result["csv_path"] = path
    return result


def _op_nmext_sample(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    table = sample_random_extractor(params["n"], params["m"], seed)
    result = {"n": table.n, "m": table.m, "pass": True}
    if outdir:
        path = os.path.join(outdir, "extractor.bin")
        with open(path, "wb") as fp:
            table.save(fp)
        with open(path, "rb") as fp:
            result["artifact"] = {"path": path, "sha256": _hash_artifact(fp.read())}
    return result


def _op_nmext_reduce(config: dict, seed: RngSeed, outdir: Optional[str]) -> dict:
    params = config["params"]
    table = sample_random_extractor(params["n"], params["m"], seed.child(1))
    report = verify_reduction(
        table, adversaries=params.get("adversaries", 100), seed=seed.child(2)
    )
    worst = report.worst
    return {
        "extraction_distance": float(report.extraction_distance),
        "adversaries": len(report.rows),
        "worst": None
        if worst is None
        else {
            "adversary_id": worst.adversary_id,
            "code_error": float(worst.code_error),
            "bound": float(worst.bound),
        },
        "pass": report.passed,
    }


_HANDLERS = {
    "inner-sample": _op_inner_sample,
    "inner-verify": _op_inner_verify,
    "lecss-build": _op_lecss_build,
    "lecss-verify": _op_lecss_verify,
    "perm-derive": _op_perm_derive,
    "perm-test": _op_perm_test,
    "concat-plan": _op_concat_plan,
    "concat-roundtrip": _op_concat_roundtrip,
    "concat-attack": _op_concat_attack,
    "nmext-sample": _op_nmext_sample,
    "nmext-reduce": _op_nmext_reduce,
}


def run_config(config: dict, outdir: Optional[str] = None) -> dict:
    """Execute one experiment config; returns the full report object."""
    config = validate_config(config)
    seed = parse_seed(config["seed"])
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    start = time.monotonic()
    result = _HANDLERS[config["operation"]](config, seed, outdir)
    wall = time.monotonic() - start
    echo = {k: v for k, v in config.items()}
    report = {
        "config": echo,
        "operation": config["operation"],
        "results": result,
        "pass": bool(result.get("pass", True)),
        "wall_time_s": round(wall, 3),
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
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
    common.add_argument("--config", default=default(None),
                        help="experiment config JSON (file-first mode)")
    common.add_argument("--seed", default=default(None),
                        help=f"seed (int or hex), overrides config; default {DEFAULT_SEED}")
    common.add_argument("--jobs", type=int, default=default(None),
                        help=f"worker pool size, overrides config; default {DEFAULT_JOBS}")
    common.add_argument("--out", default=default(None), help="report output directory")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags(suppress=True)
    parser = argparse.ArgumentParser(
        prog="nmcode",
        description="Tamper-resilient coding toolkit: sample, verify, attack.",
        parents=[_common_flags(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("inner", help="lookup-table block codes", parents=[common])
    p.add_argument("verb", choices=["sample", "verify"])
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--checks", default="roundtrip,cube,independence,detection")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.15)
    p.add_argument("--guard", type=int, default=None, help="sweep size limit for all checks")

    p = sub.add_parser("lecss", help="secret-sharing outer code", parents=[common])
    p.add_argument("verb", choices=["build", "encode", "decode", "verify"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--message", default=None, help="hex message (encode)")
    p.add_argument("--word", default=None, help="hex word (decode)")
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("perm", help="seed-derived permutations", parents=[common])
    p.add_argument("verb", choices=["derive", "test"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--seed-bits", type=int, default=16, dest="seed_bits")
    p.add_argument("--backend", default="prf-shuffle")
    p.add_argument("--z", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("concat", help="concatenated scheme", parents=[common])
    p.add_argument("verb", choices=["plan", "encode", "decode", "attack"])
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--gamma0", type=float, default=0.5)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--message", default=None)
    p.add_argument("--word", default=None)
    p.add_argument("--adversaries", type=int, default=20)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--messages", type=int, default=16)

    p = sub.add_parser("nmext", help="two-source extractor experiments", parents=[common])
    p.add_argument("verb", choices=["sample", "check", "reduce"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--adversaries", type=int, default=100)
    return parser


def _config_from_args(args) -> dict:
    cmd, verb = args.command, args.verb
    base = {"seed": args.seed, "jobs": args.jobs}
    if cmd == "inner":
        params = {"n": args.n, "k": args.k, "t": args.t, "delta": args.delta}
        if args.alpha is not None:
            params["alpha"] = args.alpha
        if verb == "sample":
            return base | {"operation": "inner-sample", "params": params}
        config = base | {
            "operation": "inner-verify",
            "params": params,
            "checks": args.checks.split(","),
            "ell": args.ell,
            "eps": args.eps,
            "seeds": args.seeds,
        }
        if args.guard is not None:
            config["guards"] = {
                name: args.guard for name in ("cube", "independence", "detection")
            }
        return config
    if cmd == "lecss":
        if verb == "build":
            return base | {
                "operation": "lecss-build",
                "params": {"n": args.n, "alpha": args.alpha},
            }
        if verb == "verify":
            code = build_lecss(args.n, args.alpha)
            return base | {
                "operation": "lecss-verify",
                "params": {"m": code.m, "n": code.n, "k": code.k, "k0": code.k0},
                "samples": args.trials,
            }
        raise ConfigError("lecss encode/decode are direct commands; see --help")
    if cmd == "perm":
        op = "perm-derive" if verb == "derive" else "perm-test"
        return base | {
            "operation": op,
            "params": {
                "n": args.n,
                "ell": args.ell,
                "seed_bits": args.seed_bits,
                "backend": args.backend,
                "z": args.z,
            },
            "samples": args.trials,
        }
    if cmd == "concat":
        if verb == "plan":
            params = (
                {"toy": True}
                if args.toy or args.bits is None
                else {"total_bits": args.bits, "gamma0": args.gamma0}
            )
            return base | {"operation": "concat-plan", "params": params}
        if verb == "attack":
            return base | {
                "operation": "concat-attack",
                "params": {"adversaries": args.adversaries, "messages": args.messages},
                "samples": args.samples,
            }
        raise ConfigError("concat encode/decode are direct commands; see --help")
    if cmd == "nmext":
        if verb == "sample":
            return base | {"operation": "nmext-sample", "params": {"n": args.n, "m": args.m}}
        if verb == "reduce":
            return base | {
                "operation": "nmext-reduce",
                "params": {"n": args.n, "m": args.m, "adversaries": args.adversaries},
            }
        raise ConfigError("nmext check is a direct command; see --help")
    raise ConfigError("no operation selected; pass --config or a subcommand")


def _direct_command(args) -> Optional[int]:
    """Small stateless verbs that print a value instead of a report."""
    if args.command == "lecss" and args.verb in ("encode", "decode"):
        code = build_lecss(args.n, args.alpha)
        if args.verb == "encode":
            if args.message is None:
                raise ConfigError("--message required")
            rng = parse_seed(args.seed).stream("cli.lecss.encode")
            word = code.encode(
                BitWord(int(args.message, 16), code.message_bits), rng
            )
            print(word.to_hex())
            return 0
        if args.word is None:
            raise ConfigError("--word required")
        sym = code.decode(BitWord(int(args.word, 16), code.block_bits))
        print("bottom" if not isinstance(sym, BitWord) else sym.to_hex())
        return 0
    if args.command == "concat" and args.verb in ("encode", "decode"):
        plan = toy_concat_plan()
        code = build_concat(plan, parse_seed(args.seed))
        if args.verb == "encode":
            if args.message is None:
                raise ConfigError("--message required")
            rng = parse_seed(args.seed).stream("cli.concat.encode")
            word = code.encode(BitWord(int(args.message, 16), code.message_bits), rng)
            print(word.to_hex())
            return 0
        if args.word is None:
            raise ConfigError("--word required")
        sym = code.decode(BitWord(int(args.word, 16), code.block_bits))
        print("bottom" if not isinstance(sym, BitWord) else sym.to_hex())
        return 0
    if args.command == "nmext" and args.verb == "check":
        from .nmext import FlatSourcePair, check_extraction

        table = sample_random_extractor(args.n, args.m, parse_seed(args.seed))
        print(float(check_extraction(table, FlatSourcePair.full(args.n))))
        return 0
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fp:
                config = json.load(fp)
            if args.seed is not None:
                config["seed"] = args.seed
            if args.jobs is not None:
                config["jobs"] = args.jobs
            config.setdefault("jobs", DEFAULT_JOBS)
        else:
            if not args.command:
                parser.print_help()
                return 2
            if args.seed is None:
                args.seed = DEFAULT_SEED
            if args.jobs is None:
                args.jobs = DEFAULT_JOBS
            direct = _direct_command(args)
            if direct is not None:
                return direct
            config = _config_from_args(args)
        report = run_config(config, outdir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NmcodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(dumps_report(report))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
