import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nmcode.cli import (
    OPERATIONS,
    ConfigError,
    build_parser,
    main,
    parse_seed,
    read_config,
    run_config,
    validate_config,
)
from nmcode.concat import build_concat
from nmcode.core import GuardExceeded, RngSeed
from nmcode.inner import plan_inner_params
from nmcode.nmext import sample_random_extractor, verify_reduction

README = Path(__file__).resolve().parent.parent / "README.md"


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects usage errors itself
        return e.code


class TestConfigValidation:
    def test_unknown_operation(self):
        with pytest.raises(ConfigError):
            validate_config({"operation": "frobnicate", "seed": 1})

    def test_missing_seed(self):
        with pytest.raises(ConfigError):
            validate_config({"operation": "concat-roundtrip"})

    def test_bad_jobs(self):
        with pytest.raises(ConfigError):
            validate_config({"operation": "concat-roundtrip", "seed": 1, "jobs": 0})

    def test_jobs_capped_at_cpu_count(self):
        config = {"operation": "concat-roundtrip", "seed": 1, "jobs": 10**6}
        assert validate_config(config)["jobs"] == (os.cpu_count() or 1)
        assert config["jobs"] == 10**6
        assert validate_config({"operation": "concat-roundtrip", "seed": 1, "jobs": 1})["jobs"] == 1

    def test_seed_forms(self):
        assert parse_seed(7) == RngSeed.from_int(7)
        assert parse_seed("7") == RngSeed.from_int(7)
        assert parse_seed("0xabc") == parse_seed("abc")
        with pytest.raises(ConfigError):
            parse_seed("not hex!")


class TestRunConfig:
    def test_roundtrip_report_schema(self, tmp_path):
        config = {
            "operation": "concat-roundtrip",
            "seed": 11,
            "params": {"t_block": 2},
            "samples": 5,
        }
        report = run_config(config, outdir=str(tmp_path))
        assert set(report) == {"config", "operation", "results", "pass", "wall_time_s"}
        assert report["pass"] is True
        assert report["results"]["failures"] == 0
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["results"] == report["results"]

    def test_determinism_modulo_wall_time(self):
        config = {
            "operation": "inner-verify",
            "seed": 3,
            "params": {"n": 8, "k": 3, "t": 4, "delta": 0.13},
            "checks": ["roundtrip", "cube"],
            "seeds": 2,
        }
        a = run_config(dict(config))
        b = run_config(dict(config))
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_property_failure_reported(self):
        # An impossible independence threshold must fail, not error.
        config = {
            "operation": "inner-verify",
            "seed": 4,
            "params": {"n": 8, "k": 3, "t": 4, "delta": 0.0},
            "checks": ["independence"],
            "ell": 2,
            "eps": 0.0,
        }
        report = run_config(config)
        assert report["pass"] is False

    def test_attack_csv_side_table(self, tmp_path):
        config = {
            "operation": "concat-attack",
            "seed": 5,
            "params": {"adversaries": 2, "messages": 2},
            "samples": 300,
        }
        report = run_config(config, outdir=str(tmp_path))
        csv = (tmp_path / "attack.csv").read_text().strip().splitlines()
        assert csv[0] == "adversary_id,case_class,eps_hat,radius,samples"
        assert len(csv) == 3
        assert report["results"]["rows"][0]["samples"] == 300

    def test_attack_builds_the_code_once(self, monkeypatch):
        from nmcode import cli

        built = []

        def counting_build(plan, seed):
            built.append(seed)
            return build_concat(plan, seed)

        monkeypatch.setattr(cli, "build_concat", counting_build)
        cli._attack_code.cache_clear()
        config = {
            "operation": "concat-attack",
            "seed": 5,
            "params": {"adversaries": 4, "messages": 2},
            "samples": 200,
        }
        first = run_config(config)
        assert built == [RngSeed.from_int(5).child(0)]
        cli._attack_code.cache_clear()
        assert run_config(config)["results"] == first["results"]

    def test_attack_rows_pinned(self):
        """The rows of a sampled concat-attack report, pinned by the SHA-256
        of their JSON: every adversary's reference, per-message estimates and
        radius stay identical as long as no RNG stream changes. Re-pinned
        when concat encoding became one encoding index per run and the
        attacked messages became distinct."""
        argv = ["concat", "attack", "--adversaries", "12", "--messages", "4",
                "--samples", "1000", "--seed", "3", "--jobs", "1"]
        rows = run_config(read_config(build_parser().parse_args(argv)))["results"]["rows"]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == "3cab6ed50eccaf2a7548fafba9c38b2b4f14013a68541d3d74ec959c813f9cf3"

    def test_reduce_rows_pinned(self):
        """An m = 2 reduction report, pinned by SHA-256: the `results` that
        `nmext reduce` prints, and the exact rows of the `verify_reduction`
        call behind them (the report keeps only the worst), so every
        adversary's extractor error, code error and bound stays identical."""
        argv = ["nmext", "reduce", "--n", "4", "--m", "2", "--adversaries", "20", "--seed", "5"]
        results = run_config(read_config(build_parser().parse_args(argv)))["results"]
        digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert digest == "547e7b3d28c473bf17d2246bea25185f63442f704e27ba34a2d7890ffa98639f"
        seed = RngSeed.from_int(5)
        table = sample_random_extractor(4, 2, seed.child(1))
        rows = [[r.adversary_id, str(r.extractor_error), str(r.code_error), str(r.bound)]
                for r in verify_reduction(table, adversaries=20, seed=seed.child(2)).rows]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "8aa208c804ecba592d80e1c89bb5d429abf004c00ab78a17e044e4a1cb96dc2d"

    @pytest.mark.parametrize("line, digest", [
        ("lecss encode --n 8 --alpha 0.5 --message abc --seed 9",
         "acd97e6696720b75f9503f77ff7a207fc347140c9b0b2a7904b621194bec930a"),
        ("lecss decode --n 8 --alpha 0.5 --word b798a4",
         "3e976fc8732a00f4e6fd7c0abacee26c92669a8e1315baf9970ef87c405813de"),
        ("concat encode --message 5a --seed 4",
         "8369bf78dc5cb67a26f2857914c81576ec30b7104bfe3e84fc18891051550196"),
        ("concat decode --word ffcde345fc --seed 4",
         "3326175f54f91ce15efe31dbb74ff0692066050519f0ff820a8d4afb2ccb416c"),
        ("inner verify --n 6 --k 2 --t 8 --seeds 3 --checks detection",
         "b3154c2d7a9a48b900265a44ed4697367be251e30cd96d9446de84de1950edb6"),
        ("perm derive --n 8 --z 3",
         "fd1696f637f0d171364c0294b6ed63c2819861d68f0d6926be1a311354c96643"),
        ("perm derive --n 5 --z 100 --backend exact-tiny --seed-bits 7",
         "59ec4833ce24d2377170081cf2c00ba2a317fe53c07bf5c343aab786fddc9341"),
        ("perm test --n 32 --ell 2 --seed-bits 10 --trials 1024",
         "1857d52f225a361805474e66e5249a99446b33fb657ae7c9e780da86aabfe248"),
        ("perm test --n 8 --ell 2 --trials 3000",
         "bcf9c17078e12df75fb598f6fa62e863b51325bb430089fb2bcde439530f2775"),
    ])
    def test_results_pinned(self, line, digest):
        """The `results` of the README encode/decode commands, of a failing
        detection sweep (its witnesses included) and of the `perm` derive
        and test operations (one exhaustive, one sampled l-wise test),
        pinned by the SHA-256 of their JSON."""
        results = run_config(read_config(build_parser().parse_args(shlex.split(line))))["results"]
        assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest

    def test_parallel_jobs_agree_with_serial(self):
        config = {
            "operation": "inner-verify",
            "seed": 6,
            "params": {"n": 8, "k": 3, "t": 4, "delta": 0.13},
            "checks": ["cube"],
            "seeds": 2,
        }
        serial = run_config(dict(config))
        parallel = run_config(dict(config) | {"jobs": 2})
        assert serial["results"]["rows"] == parallel["results"]["rows"]


class TestMainEntry:
    def test_python_m_nmcode_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = os.environ | {"PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "nmcode", "perm", "derive", "--n", "8", "--z", "3"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["operation"] == "perm-derive" and report["pass"] is True

    def test_closed_stdout_exits_1_without_a_traceback(self):
        """The reader is gone before the report is written, as when `head`
        exits early: the write fails with EPIPE every time, and the CLI
        exits 1 with nothing on stderr."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = os.environ | {"PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "nmcode", "perm", "derive", "--n", "8", "--z", "3"],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 1

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2

    def test_unknown_operation_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operation": "nope", "seed": 1}))
        assert main(["--config", str(cfg)]) == 2

    def test_config_file_run_exits_0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "operation": "concat-roundtrip",
                    "seed": 12,
                    "params": {"t_block": 2},
                    "samples": 3,
                }
            )
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert (tmp_path / "out" / "report.json").exists()

    def test_shared_flags_before_subcommand_are_kept(self):
        args = build_parser().parse_args(["--seed", "5", "--jobs", "3", "concat", "plan"])
        assert (args.seed, args.jobs) == ("5", 3)
        args = build_parser().parse_args(["concat", "plan", "--seed", "7", "--jobs", "2"])
        assert (args.seed, args.jobs) == ("7", 2)
        args = build_parser().parse_args(["concat", "plan"])
        assert (args.seed, args.jobs, args.config, args.out) == (None, None, None, None)

    def test_explicit_seed_one_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operation": "concat-plan", "seed": 12, "params": {"toy": True}}))
        assert main(["--config", str(cfg), "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == "1"
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 12

    def test_explicit_jobs_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operation": "concat-plan", "seed": 12, "jobs": 2,
                                   "params": {"toy": True}}))
        assert main(["--config", str(cfg), "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["jobs"] == 1
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["jobs"] == min(2, os.cpu_count() or 1)
        cfg.write_text(json.dumps({"operation": "concat-plan", "seed": 12, "params": {"toy": True}}))
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["jobs"] == 1

    def test_guard_override_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--guard-override", "concat", "plan", "--toy"])
        assert exc.value.code == 2

    def test_subcommand_plan(self, capsys):
        assert main(["concat", "plan", "--toy"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["plan"]["layout"]["N"] == 40

    def test_direct_encode_decode_round_trip(self, capsys):
        assert main(["lecss", "encode", "--n", "8", "--alpha", "0.5", "--message", "abc", "--seed", "9"]) == 0
        word = json.loads(capsys.readouterr().out)["results"]["word"]
        assert main(["lecss", "decode", "--n", "8", "--alpha", "0.5", "--word", word]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["decoded"] == "abc"

    def test_failing_property_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "operation": "inner-verify",
                    "seed": 4,
                    "params": {"n": 8, "k": 3, "t": 4, "delta": 0.0},
                    "checks": ["independence"],
                    "ell": 2,
                    "eps": 0.0,
                }
            )
        )
        assert main(["--config", str(cfg)]) == 1


class TestGuardsConfig:
    def test_guard_values_forwarded(self):
        config = {
            "operation": "inner-verify",
            "seed": 8,
            "params": {"n": 8, "k": 3, "t": 4, "delta": 0.13},
            "checks": ["detection"],
            "guards": {"detection": 10},
        }
        with pytest.raises(GuardExceeded, match="raise --guard"):
            run_config(config)

    def test_cube_past_the_decode_table_names_no_guard(self):
        config = {
            "operation": "inner-verify",
            "seed": 8,
            "params": {"n": 21, "k": 1, "t": 1, "delta": 0.0},
            "checks": ["cube"],
        }
        with pytest.raises(GuardExceeded, match="leave cube out of --checks") as info:
            run_config(config)
        assert "--guard" not in str(info.value)

    def test_guards_must_be_integer_map(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"operation": "concat-roundtrip", "seed": 1, "guards": {"cube": "x"}}
            )


# A flag run for every operation in the table, at small sizes.
FLAG_RUNS = {
    "inner-sample": ["inner", "sample", "--n", "8", "--k", "3", "--t", "4"],
    "inner-verify": ["inner", "verify", "--n", "6", "--k", "2", "--t", "2", "--seeds", "2",
                     "--checks", "roundtrip,cube", "--guard", "100000"],
    "lecss-build": ["lecss", "build"],
    "lecss-encode": ["lecss", "encode", "--message", "abc", "--seed", "9"],
    "lecss-decode": ["lecss", "decode", "--word", "b798a4"],
    "lecss-verify": ["lecss", "verify", "--trials", "50"],
    "perm-derive": ["perm", "derive", "--z", "3"],
    "perm-test": ["perm", "test", "--n", "5", "--trials", "200"],
    "concat-plan": ["concat", "plan", "--toy"],
    "concat-encode": ["concat", "encode", "--message", "5a", "--seed", "4"],
    "concat-decode": ["concat", "decode", "--word", "ffcde345fc", "--seed", "4"],
    "concat-roundtrip": ["concat", "roundtrip", "--samples", "2"],
    "concat-attack": ["concat", "attack", "--adversaries", "2", "--messages", "2", "--samples", "200"],
    "nmext-sample": ["nmext", "sample", "--n", "3"],
    "nmext-check": ["nmext", "check", "--n", "3"],
    "nmext-reduce": ["nmext", "reduce", "--n", "3", "--adversaries", "3"],
}


class TestOperationTable:
    def test_every_operation_has_a_flag_run(self):
        assert set(FLAG_RUNS) == set(OPERATIONS)

    @pytest.mark.parametrize("name", sorted(FLAG_RUNS))
    def test_flag_run_equals_config_run_of_its_echo(self, name, tmp_path, capsys):
        code = main(FLAG_RUNS[name])
        by_flags = json.loads(capsys.readouterr().out)
        assert by_flags["operation"] == name
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(by_flags["config"]))
        assert main(["--config", str(cfg)]) == code
        by_config = json.loads(capsys.readouterr().out)
        by_flags.pop("wall_time_s")
        by_config.pop("wall_time_s")
        assert by_flags == by_config

    def test_alpha_mode_samples_the_planned_params(self, capsys):
        assert main(["inner", "sample", "--n", "16", "--alpha", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        planned = dataclasses.asdict(plan_inner_params(0.5, 16).params)
        assert report["results"]["params"] == planned
        assert report["config"]["params"] == {"n": 16, "alpha": 0.5}

    def test_readme_commands_parse_and_validate(self, tmp_path, monkeypatch):
        text = README.read_text()
        cli = text[text.index("## CLI"):text.index("## Library quick start")]
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", cli, flags=re.M)
        listed = {(command, verb) for command, verbs in rows for verb in re.findall(r"`(\w+)`", verbs)}
        assert listed == {(op.command, op.verb) for op in OPERATIONS.values()}
        example = re.search(r"```json\n(.*?)```", cli, flags=re.S).group(1)
        (tmp_path / "experiment.json").write_text(example)
        monkeypatch.chdir(tmp_path)
        lines = [ln for ln in cli.splitlines() if ln.startswith("nmcode ")]
        assert len(lines) >= len(rows)
        for line in lines:
            config = read_config(build_parser().parse_args(shlex.split(line)[1:]))
            validate_config(config)

    def test_readme_single_experiments_run(self, tmp_path, monkeypatch, capsys):
        # Running them catches what validation cannot: a default check set
        # whose sweep exceeds a guard exits 2.
        text = README.read_text()
        start = text.index("Single experiments:")
        block = re.search(r"```sh\n(.*?)```", text[start:], flags=re.S).group(1)
        lines = [ln for ln in block.splitlines() if ln.startswith("nmcode ")]
        assert len(lines) >= len(OPERATIONS) - 1
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code = _exit_code(shlex.split(line)[1:])
            assert code in (0, 1), (line, code, capsys.readouterr().err)


BAD_CONFIGS = {
    "params-missing": {"operation": "inner-sample", "seed": 1},
    "seeds-mistyped": {"operation": "inner-verify", "seed": 1, "seeds": "2"},
    "top-level-array": [{"operation": "concat-plan", "seed": 1}],
    "unknown-key": {"operation": "concat-roundtrip", "seed": 1, "sample": 5},
    "guards-mistyped": {"operation": "inner-verify", "seed": 1, "guards": {"detection": "x"}},
    "unknown-guard": {"operation": "inner-verify", "seed": 1, "guards": {"cubes": 10}},
    "cube-guard": {"operation": "inner-verify", "seed": 1, "guards": {"cube": 10}},
    "required-word-missing": {"operation": "lecss-decode", "seed": 1},
    "strict-on-toy-plan": {"operation": "concat-plan", "seed": 1, "params": {"strict": False}},
    "t-block-on-planned-layout": {
        "operation": "concat-plan", "seed": 1,
        "params": {"total_bits": 1024, "gamma0": 0.5, "t_block": 2},
    },
    "t-seed-on-planned-layout": {
        "operation": "concat-plan", "seed": 1,
        "params": {"total_bits": 1024, "gamma0": 0.5, "t_seed": 2},
    },
}


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lecss", "encode", "--message", "zz"],
            ["concat", "encode", "--message", "1ff"],
            ["inner", "sample", "--n", "0", "--k", "3", "--t", "4"],
            # The range check needs a narrow seed: 2^128 admits this z.
            ["perm", "derive", "--n", "8", "--seed-bits", "16", "--z", "99999999"],
            # 2^3 seeds, of which the exact-tiny backend accepts 3! = 6.
            ["perm", "derive", "--backend", "exact-tiny", "--n", "3", "--seed-bits", "3", "--z", "7"],
            ["inner", "verify", "--checks", "bogus"],
            ["inner", "verify", "--checks", ""],
            ["inner", "verify", "--seeds", "0"],
            ["inner", "verify", "--n", "6", "--k", "2", "--t", "2", "--checks", "independence",
             "--eps", "-1"],
            ["nmext", "reduce", "--n", "3", "--adversaries", "0"],
            # m > 2n: rejected before a 2^m-cell array is built.
            ["nmext", "check", "--n", "4", "--m", "30"],
            ["nmext", "check", "--n", "2", "--m", "64"],
            ["concat", "attack", "--messages", "-1"],
            # The toy code has 256 messages; more distinct ones do not exist.
            ["concat", "attack", "--messages", "300"],
            ["perm", "test", "--trials", "0"],
            ["inner", "sample", "--n", "16", "--alpha", "0.5", "--k", "3"],
            ["inner", "sample", "--n", "16"],
            ["concat", "plan", "--bits", "64"],
            ["concat", "plan", "--gamma0", "0.3"],
            ["concat", "plan", "--toy", "--bits", "64", "--gamma0", "0.5"],
            ["lecss", "verify", "--n", "16", "--alpha", "0.5"],
            ["perm", "test", "--z", "3"],
            ["lecss", "encode"],
            ["inner"],
            [],
            ["--config", "experiment.json", "concat", "plan"],
            *(["--config", name] for name in BAD_CONFIGS),
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_exits_2_without_a_report(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "experiment.json").write_text(json.dumps({"operation": "concat-plan", "seed": 1}))
        for name, config in BAD_CONFIGS.items():
            (tmp_path / name).write_text(json.dumps(config))
        assert _exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("checks", [["bogus"], [""], []])
    def test_unknown_or_empty_checks_rejected(self, checks):
        with pytest.raises(ConfigError):
            run_config({"operation": "inner-verify", "seed": 1, "checks": checks})
