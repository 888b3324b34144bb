import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from topdowndt import boolfn, cli, grower, oracle
from topdowndt import tree as treemod
from topdowndt.cli import ExperimentConfig, _sweep_budget, main, run
from topdowndt.tree import random_monotone_tree

from reference import parity


def read_json(path: Path):
    return json.loads(path.read_text())


def bundle_files(out: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


class TestSubcommands:
    def test_grow(self, tmp_path, capsys):
        out = tmp_path / "grow"
        rc = main(
            ["grow", "--arity", "5", "--budget", "6", "--impurity", "gini",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "config.json").is_file()
        assert (out / "trace.csv").is_file()
        summary = read_json(out / "summary.json")
        assert summary["kind"] == "grow"
        assert summary["checks"]["distance-nonincreasing"] is True
        assert "[grow] wrote" in capsys.readouterr().out

    def test_grow_with_monitor(self, tmp_path):
        out = tmp_path / "grow-mon"
        rc = main(
            ["grow", "--arity", "5", "--budget", "8", "--impurity", "entropy",
             "--monitor-size", "2", "--epsilon", "0.1", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["checks"]["split-inequalities"] is True

    def test_grow_influence_rule(self, tmp_path):
        out = tmp_path / "grow-inf"
        rc = main(
            ["grow", "--arity", "4", "--budget", "4", "--impurity", "influence",
             "--out", str(out)]
        )
        assert rc == 0

    def test_grow_real(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(
            "x1,x2,label\n0.1,0.9,0\n0.2,0.8,0\n0.8,0.3,1\n0.9,0.1,1\n"
        )
        out = tmp_path / "gr"
        rc = main(["grow-real", "--data", str(data), "--budget", "4", "--out", str(out)])
        assert rc == 0
        assert (out / "tree.json").is_file()
        summary = read_json(out / "summary.json")
        assert summary["summary"]["threshold_policy"] == "midpoints"

    def test_grow_real_deeper_than_the_recursion_limit(self, tmp_path):
        # alternating labels on one column: a chain 1499 queries deep, past
        # Python's recursion limit; tree.json is read as text, since
        # json.load recurses too
        data = tmp_path / "alternating.csv"
        data.write_text("x1,label\n" + "".join(f"{i / 1500},{i % 2}\n" for i in range(1500)))
        out = tmp_path / "deep"
        rc = main(["grow-real", "--data", str(data), "--budget", "1500", "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").read_text().splitlines()[-1].endswith(",0")
        lines = (out / "tree.json").read_text().splitlines()
        assert sum('"q"' in line for line in lines) == 1499
        assert sum('"label"' in line for line in lines) == 1500

    def test_grow_real_refuses_influence_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["grow-real", "--impurity", "influence", "--data", str(tmp_path / "missing.csv"),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "impurity rule" in err and "not found" not in err
        assert not out.exists()

    def test_grow_real_with_dist_spec(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.5,0\n1.0,0\n2.0,1\n3.0,1\n")
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([{"kind": "empirical", "column": "x1"}]))
        out = tmp_path / "grd"
        rc = main(
            ["grow-real", "--data", str(data), "--dist", str(dist),
             "--thresholds", "grid:3", "--budget", "4", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["summary"]["threshold_policy"] == "grid:3"

    def test_opt_prints_dyadic_error(self, tmp_path, capsys):
        fn = tmp_path / "and2.json"
        fn.write_text(json.dumps({"kind": "dnf", "n": 2, "terms": [[1, 2]]}))
        out = tmp_path / "opt"
        rc = main(["opt", "--fn", str(fn), "--size", "3", "--out", str(out)])
        assert rc == 0
        assert "opt_3 = 0/1" in capsys.readouterr().out
        witness = read_json(out / "witness.json")
        assert witness["size_budget"] == 3
        summary = read_json(out / "summary.json")
        assert summary["checks"]["witness-distance-matches"] is True
        assert summary["checks"]["witness-within-budget"] is True

    def test_opt_at_the_size_cap(self, tmp_path):
        fn = tmp_path / "mono10.json"
        fn.write_text(json.dumps(boolfn.to_spec(boolfn.random_monotone(10, seed=3))))
        out = tmp_path / "opt"
        rc = main(["opt", "--fn", str(fn), "--size", str(oracle.OPT_MAX_SIZE), "--out", str(out)])
        assert rc == 0
        checks = read_json(out / "summary.json")["checks"]
        assert checks["witness-distance-matches"] is True
        assert checks["witness-within-budget"] is True

    def test_jz_sweep(self, tmp_path):
        out = tmp_path / "jz"
        rc = main(
            ["jz-sweep", "--arity", "4", "--trials", "5", "--leaves", "6",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["checks"]["jz-zero-violations"] is True
        rows = (out / "rows.csv").read_text().splitlines()
        assert len(rows) == 6  # header + one row per trial

    def test_agnostic_sweep(self, tmp_path):
        out = tmp_path / "ag"
        rc = main(
            ["agnostic-sweep", "--arity", "4", "--trials", "2", "--sizes", "2,4",
             "--epsilon", "0.1", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        for name in ("error-within-eps", "split-inequalities", "distance-nonincreasing"):
            assert summary["checks"][name] is True
        assert (out / "plotdata" / "agnostic.csv").is_file()

    def test_hard(self, tmp_path):
        out = tmp_path / "hard"
        rc = main(
            ["hard", "--l", "4", "--k", "3", "--budget", "8", "--samples", "400",
             "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["checks"]["curve-nonincreasing"] is True
        assert (out / "rows.csv").is_file()
        assert (out / "exact_curve.csv").is_file()

    def test_realizable(self, tmp_path):
        out = tmp_path / "rlz"
        rc = main(
            ["realizable", "--arity", "4", "--trials", "2", "--teacher-leaves", "4",
             "--target", "0.05", "--budget", "16", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["checks"]["realizable-reaches-target"] is True
        assert summary["checks"]["rule-agreement"] is True

    def test_round_check(self, tmp_path):
        out = tmp_path / "rc"
        rc = main(
            ["round-check", "--arity", "3", "--trials", "2", "--leaves", "8",
             "--epsilon", "0.1", "--out", str(out)]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["checks"]["round-dist-within-eps"] is True
        assert summary["checks"]["s-construction-agreement"] is True

    def test_verify_impurity(self, tmp_path):
        out = tmp_path / "vi"
        rc = main(["verify-impurity", "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert all(summary["checks"].values())


class TestDeterminism:
    def test_identical_runs_reproduce_bytes(self, tmp_path):
        args = ["grow", "--arity", "5", "--budget", "6", "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        files_a, files_b = bundle_files(out_a), bundle_files(out_b)
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            if name == "config.json":
                ca, cb = json.loads(files_a[name]), json.loads(files_b[name])
                ca.pop("out"), cb.pop("out")
                assert ca == cb
            else:
                assert files_a[name] == files_b[name], name


class TestExitContract:
    def test_injected_failure_returns_one_and_writes_bundle(self, tmp_path, capsys, monkeypatch):
        # the grow runner with one always-failing check added
        grow = cli.SUBCOMMANDS["grow"]

        def failing(config, out):
            summary, checks, files = grow.runner(config, out)
            return summary, {**checks, "injected-failure": False}, files

        monkeypatch.setitem(cli.SUBCOMMANDS, "grow", dataclasses.replace(grow, runner=failing))
        out = tmp_path / "inj"
        rc = main(["grow", "--arity", "4", "--budget", "4", "--out", str(out)])
        assert rc == 1
        summary = read_json(out / "summary.json")
        assert summary["checks"]["injected-failure"] is False
        assert "injected-failure=FAIL" in capsys.readouterr().out

    def test_missing_fn_for_opt(self, tmp_path, capsys):
        rc = main(["opt", "--size", "2", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_impurity(self, tmp_path, capsys):
        rc = main(
            ["grow", "--arity", "4", "--impurity", "misclass", "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "impurity" in capsys.readouterr().err

    def test_even_k_rejected(self, tmp_path, capsys):
        rc = main(["hard", "--l", "4", "--k", "2", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "odd" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arity": 4, "bogus": 1}))
        rc = main(["grow", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["grow-real", "--thresholds", "bogus"],
            ["grow-real", "--thresholds", "grid:x"],
            ["grow-real", "--thresholds", "grid:99"],
            ["grow", "--arity", "4", "--monitor-size", "1"],
            ["agnostic-sweep", "--arity", "4", "--trials", "1", "--sizes", "1,2"],
            ["agnostic-sweep", "--arity", "4", "--trials", "1", "--sizes", "0"],
            ["agnostic-sweep", "--arity", "4", "--trials", "1", "--sizes", ","],
            ["agnostic-sweep", "--arity", "4", "--trials", "1", "--impurities", ","],
            ["realizable", "--arity", "4", "--trials", "1", "--impurities", ","],
            ["hard", "--l", "20000", "--k", "3", "--budget", "4", "--samples", "10"],
            ["hard", "--l", "60000", "--k", "3"],
            ["hard", "--l", "8", "--k", "20001", "--budget", "4"],
            ["hard", "--l", "8", "--k", "63", "--budget", "1000000000", "--samples", "1"],
            ["round-check", "--arity", "8", "--trials", "1", "--leaves", "1000000000"],
            ["round-check", "--arity", "100000000", "--trials", "1", "--leaves", "2"],
            ["hard", "--l", "8", "--k", "63", "--budget", "2", "--samples", "1000000000"],
            ["verify-impurity", "--impurity", "influence"],
            ["grow", "--arity", "4", "--impurity", "km"],
            ["jz-sweep", "--trials", "1000000000"],
            ["agnostic-sweep", "--arity", "4", "--trials", "1000000000"],
            ["realizable", "--arity", "4", "--trials", "1000000000"],
            ["round-check", "--trials", "1000000000"],
        ],
        ids=["thresholds-bogus", "thresholds-grid-x", "thresholds-grid-99",
             "monitor-size-1", "sizes-1-2", "sizes-0", "sizes-empty",
             "agnostic-impurities-empty", "realizable-impurities-empty",
             "hard-wide-ell", "hard-wider-ell", "hard-wide-k",
             "hard-budget-past-cap", "round-check-leaves-past-cap",
             "round-check-arity-past-cap", "hard-samples-past-cap",
             "verify-impurity-influence", "impurity-km",
             "jz-sweep-trials-past-cap", "agnostic-sweep-trials-past-cap",
             "realizable-trials-past-cap", "round-check-trials-past-cap"],
    )
    def test_bad_value_exits_two(self, tmp_path, capsys, argv):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.2,0\n0.8,1\n")
        if argv[0] == "grow-real":
            argv = argv + ["--data", str(data)]
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_monitor_refuses_a_non_monotone_target(self, tmp_path, capsys, monkeypatch):
        def refuse(f):
            raise AssertionError("built the oracle for a non-monotone target")

        monkeypatch.setattr(cli.oracle, "OptTable", refuse)
        fn = tmp_path / "parity4.json"
        fn.write_text(json.dumps(boolfn.to_spec(parity(4))))
        rc = main(["grow", "--fn", str(fn), "--monitor-size", "4", "--budget", "8",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "monotone" in err

    def test_config_key_threads_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        rc = main(["grow", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["grow", "--arity", "25"], ["realizable", "--arity", "25", "--trials", "1"]],
        ids=["grow", "realizable"],
    )
    def test_arity_above_table_cap_refused_up_front(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("built a truth table before checking the arity")

        monkeypatch.setattr(cli, "random_monotone", refuse)
        monkeypatch.setattr(cli, "random_monotone_tree", refuse)
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 2
        assert "arity 25" in capsys.readouterr().err

    def test_dnf_spec_above_table_cap_refused(self, tmp_path, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built a 2^{n}-bit mask before checking the arity")

        monkeypatch.setattr(cli.boolfn, "_full_mask", refuse)
        fn = tmp_path / "wide.json"
        fn.write_text(json.dumps({"kind": "dnf", "n": 25, "terms": [[1, 2]]}))
        rc = main(["grow", "--fn", str(fn), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "got 25" in err

    def test_bad_csv_diagnoses_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x1,label\n0.5,0\nnot-a-number,1\n")
        rc = main(["grow-real", "--data", str(data), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_refused(self, tmp_path, capsys, value):
        data = tmp_path / "bad.csv"
        data.write_text(f"x1,x2,label\n0.5,0.1,0\n0.7,{value},1\n")
        out = tmp_path / "x"
        rc = main(["grow-real", "--data", str(data), "--out", str(out)])
        assert rc == 2
        assert f"{data}:3: feature values must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestConfigMerge:
    def test_file_sets_then_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arity": 5, "trials": 4, "seed": 9}))
        out = tmp_path / "m"
        rc = main(
            ["jz-sweep", "--config", str(cfg), "--trials", "3", "--out", str(out)]
        )
        assert rc == 0
        stored = read_json(out / "config.json")
        assert stored["arity"] == 5  # from the file
        assert stored["trials"] == 3  # flag wins
        assert stored["seed"] == 9

    def test_json_lists_fill_tuple_fields(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [2, 4], "impurities": ["gini"], "epsilon": 1}))
        args = cli.build_parser().parse_args(["agnostic-sweep", "--config", str(cfg)])
        resolved = cli._resolve_config(args)
        assert (resolved.sizes, resolved.impurities, resolved.epsilon) == ((2, 4), ("gini",), 1)


class TestConfigValidation:
    def test_direct_construction_checks_ranges(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="grow", epsilon=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="grow", budget=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="grow", impurity="nope")

    def test_run_accepts_config_object(self, tmp_path):
        cfg = ExperimentConfig(
            kind="opt", fn="", arity=3, size=2, out=str(tmp_path / "o"), seed=0
        )
        with pytest.raises(Exception):
            run(cfg)  # opt requires an explicit --fn


class TestSweepBudget:
    def test_anchors(self):
        assert _sweep_budget(2, 8) == 2
        assert _sweep_budget(4, 8) == 16
        assert _sweep_budget(8, 8) == 256  # 8^3 = 512 capped at 2^8


class TestParser:
    # every flag each subcommand has taken, besides --seed, --out and --config
    FLAGS = {
        "grow": ("--fn", "--arity", "--impurity", "--budget", "--monitor-size", "--epsilon"),
        "grow-real": ("--data", "--dist", "--impurity", "--budget", "--thresholds"),
        "opt": ("--fn", "--size"),
        "jz-sweep": ("--arity", "--trials", "--leaves"),
        "agnostic-sweep": ("--arity", "--trials", "--sizes", "--epsilon", "--impurities"),
        "hard": ("--l", "--k", "--impurity", "--budget", "--samples", "--threshold"),
        "realizable": (
            "--arity", "--trials", "--teacher-leaves", "--target", "--budget", "--impurities"
        ),
        "round-check": ("--arity", "--trials", "--leaves", "--epsilon"),
        "verify-impurity": ("--impurity",),
    }
    # (flag text, parsed value) by ExperimentConfig annotation
    VALUES = {
        "int": ("7", 7),
        "float": ("0.25", 0.25),
        "str": ("abc", "abc"),
        "tuple[int, ...]": ("2,4", (2, 4)),
        "tuple[str, ...]": ("gini,entropy", ("gini", "entropy")),
    }
    TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}

    @staticmethod
    def field_of(flag: str) -> str:
        return "ell" if flag == "--l" else flag[2:].replace("-", "_")

    @pytest.mark.parametrize("kind", sorted(FLAGS))
    def test_each_flag_parses_into_its_field(self, kind):
        parser = cli.build_parser()
        for flag in (*self.FLAGS[kind], "--seed", "--out"):
            name = self.field_of(flag)
            text, value = self.VALUES[self.TYPES[name]]
            args = parser.parse_args([kind, flag, text])
            parsed = getattr(args, name)
            assert parsed == value and type(parsed) is type(value), (kind, flag)
        assert parser.parse_args([kind, "--config", "c.json"]).config == "c.json"
        # no other field is a flag, and unset flags stay None, so they leave
        # a config file's values alone
        args = vars(parser.parse_args([kind]))
        taken = {self.field_of(flag) for flag in self.FLAGS[kind]}
        assert args.keys() == taken | {"kind", "seed", "out", "config"}
        assert all(v is None for key, v in args.items() if key != "kind")

    @pytest.mark.parametrize("argv", (["jz-sweep", "--l", "7"], ["hard", "--thr", "0.3"]))
    def test_abbreviated_flags_are_refused(self, argv, capsys):
        # argparse would read --l as --leaves and --thr as --threshold
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_round_check_refuses_samples(self, capsys):
        # its rounding distance is exact, so there is no sample count to set
        with pytest.raises(SystemExit) as exc:
            main(["round-check", "--samples", "10"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --samples 10" in capsys.readouterr().err

    def test_parser_has_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        listed = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert sorted(listed.split(",")) == sorted(self.FLAGS)

    def test_verify_impurity_defaults_to_all(self, tmp_path):
        parser = cli.build_parser()
        assert cli._resolve_config(parser.parse_args(["verify-impurity"])).impurity == "all"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"impurity": "gini"}))
        args = parser.parse_args(["verify-impurity", "--config", str(cfg)])
        assert cli._resolve_config(args).impurity == "gini"
        assert cli._resolve_config(parser.parse_args(["grow"])).impurity == "gini"


def _past_cap(kind: str, name: str) -> str:
    return str(cli.SUBCOMMANDS[kind].caps[name] + 1)


def _bound_cases():
    """(argv, the whole stderr) one past each bound of every subcommand's flags."""
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for kind, command in sorted(cli.SUBCOMMANDS.items()):
        for name in command.flags:
            if name not in cli.LOWEST:
                continue
            low, flag = cli.LOWEST[name], cli._flag(name)
            cases = [(low - 1, f"is below the minimum {low}")]
            if name in command.caps:
                cases.append((command.caps[name] + 1, f"exceeds the cap {command.caps[name]}"))
            for bad, bound in cases:
                # a list's entries are checked one by one: the bad one comes second
                text = f"{low},{bad}" if types[name].startswith("tuple") else str(bad)
                yield pytest.param(
                    [kind, flag, text], f"error: {flag} {bad} {bound}\n", id=f"{kind}{flag}={bad}"
                )


class TestBadInputsExitTwo:
    def test_every_cap_is_a_bounded_flag(self):
        for kind, command in cli.SUBCOMMANDS.items():
            assert set(command.caps) <= set(command.flags) & set(cli.LOWEST), kind

    @pytest.mark.parametrize("argv, message", list(_bound_cases()))
    def test_size_bound_refused_before_the_runner(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def refuse(config, out):
            raise AssertionError("the runner started")

        command = cli.SUBCOMMANDS[argv[0]]
        monkeypatch.setitem(cli.SUBCOMMANDS, argv[0], dataclasses.replace(command, runner=refuse))
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_label_named_twice_exits_two(self, tmp_path, capsys):
        # the second label column used to be kept as a feature
        data = tmp_path / "data.csv"
        data.write_text("x,label,label\n0.2,0,1\n0.8,1,0\n")
        out = tmp_path / "x"
        rc = main(["grow-real", "--data", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {data}: column 'label' appears more than once in the header\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("kind", ["grow", "grow-real", "hard"])
    def test_impurity_all_only_for_verify_impurity(self, tmp_path, capsys, kind):
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.2,0\n0.8,1\n")
        extra = ["--data", str(data)] if kind == "grow-real" else []
        rc = main([kind, "--impurity", "all", *extra, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'all'" in err

    def test_teacher_leaves_below_two(self, tmp_path, capsys, monkeypatch):
        # every chain tree has at least 2 leaves: a budget of 1 used to loop for ever
        def refuse(*args, **kwargs):
            raise AssertionError("drew a teacher before checking its leaf bound")

        monkeypatch.setattr(cli, "random_monotone_tree", refuse)
        rc = main(["realizable", "--teacher-leaves", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--teacher-leaves 1 is below the minimum 2" in capsys.readouterr().err
        with pytest.raises(ValueError, match="at least 2 leaves"):
            random_monotone_tree(4, 1, seed=0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--epsilon", "1e-300"],
            ["--epsilon", "1e-320"],
            ["--epsilon", "1000", "--leaves", "4"],
            ["--epsilon", "inf"],
            ["--epsilon", "nan"],
        ],
        ids=["tiny", "ratio-overflows", "huge", "inf", "nan"],
    )
    def test_round_check_grid_width_out_of_range(self, tmp_path, capsys, argv):
        rc = main(["round-check", "--trials", "1", *argv, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epsilon" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, option, text, problem",
        [
            ("grow", "--fn", "[1, 2]", "expected a JSON object"),
            ("grow", "--fn", '{"kind":"dnf","n":3,"terms":[[1,"a"]]}', "'terms'"),
            ("opt", "--fn", '{"kind":"dnf","n":3,"terms":[[1,"a"]]}', "'terms'"),
            ("grow", "--fn", "not json", "is not valid JSON"),
            ("grow", "--fn", '{"kind":"table","n":2}', "missing field 'hex'"),
            ("grow-real", "--dist", "not json", "is not valid JSON"),
            ("grow-real", "--dist", "[5]", "entry 1: expected a JSON object"),
            ("grow-real", "--dist", '[{"kind":"cdf_table"}]', "missing field 'points'"),
            ("grow-real", "--dist", '[{"kind":"cdf_table","points":[[0,0],[1,"x"]]}]', "'points'"),
            ("grow-real", "--dist", '[{"kind":"cdf_table","points":[[0,0.5],[1,1]]}]', "F=0"),
            ("grow", "--config", '{"budget": "5"}', "field 'budget' must be int"),
            ("grow", "--config", '{"epsilon": "0.1"}', "field 'epsilon' must be float"),
            ("agnostic-sweep", "--config", '{"sizes": 5}', "field 'sizes' must be list[int]"),
            ("agnostic-sweep", "--config", '{"impurities": "gini"}', "field 'impurities' must be list[str]"),
        ],
        ids=["fn-list", "fn-dnf-literal", "opt-fn-dnf-literal", "fn-not-json", "fn-table-no-hex",
             "dist-not-json", "dist-entry-not-object", "dist-no-points", "dist-point-not-number",
             "dist-not-from-zero", "config-budget-string", "config-epsilon-string",
             "config-sizes-scalar", "config-impurities-string"],
    )
    def test_malformed_file_exits_two(self, tmp_path, capsys, kind, option, text, problem):
        path = tmp_path / "input.json"
        path.write_text(text)
        data = tmp_path / "data.csv"
        data.write_text("x1,label\n0.2,0\n0.8,1\n")
        extra = ["--data", str(data)] if kind == "grow-real" else []
        out = tmp_path / "x"
        rc = main([kind, *extra, option, str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and problem in err, err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda p: p.mkdir(), "Is a directory"),
            (lambda p: p.write_bytes(b"x1,label\n\xff\xfe,1\n"), "can't decode byte 0xff"),
            (lambda p: p.write_text("\n\n"), "blank header"),
            (lambda p: p.write_text("label\n1\n0\n"), "no feature column"),
        ],
        ids=["directory", "not-utf8", "blank-header", "label-only"],
    )
    def test_unreadable_dataset_exits_two(self, tmp_path, capsys, make, problem):
        data = tmp_path / "data.csv"
        make(data)
        out = tmp_path / "x"
        rc = main(["grow-real", "--data", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(data) in err and problem in err, err
        assert not (out / "summary.json").exists()

    def test_label_only_dataset_with_empty_dist_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("label\n1\n0\n")
        dist = tmp_path / "dist.json"
        dist.write_text("[]")
        rc = main(["grow-real", "--data", str(data), "--dist", str(dist),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no feature column" in err, err

    def test_empirical_column_named_twice_exits_two(self, tmp_path, capsys):
        # with the header a,a,label, coordinate 1's CDF was built from column 2
        data = tmp_path / "data.csv"
        data.write_text("a,a,label\n0.2,5,0\n0.8,7,1\n")
        dist = tmp_path / "dist.json"
        dist.write_text('[{"kind":"empirical","column":"a"},{"kind":"uniform01"}]')
        out = tmp_path / "x"
        rc = main(["grow-real", "--data", str(data), "--dist", str(dist), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'a' appears more than once" in err, err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_threshold_must_be_finite(self, tmp_path, capsys, value):
        out = tmp_path / "x"
        argv = ["hard", "--l", "4", "--k", "3", "--budget", "4", "--samples", "100"]
        rc = main(argv + ["--threshold", value, "--out", str(out)])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["grow", "--arity", "4", "--monitor-size", "2", "--epsilon", "1e-300"],
            ["agnostic-sweep", "--arity", "4", "--trials", "1", "--sizes", "2", "--epsilon", "1e-12"],
        ],
        ids=["grow", "agnostic-sweep"],
    )
    def test_epsilon_below_monitor_resolution(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1e-9" in err


def test_cli_import_loads_no_numpy():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, topdowndt.cli; print(sorted(m for m in sys.modules if 'numpy' in m))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# the grown-tree builders, under every name a module imported them by
TREE_BUILDERS = (
    (treemod, "from_splits"),
    (grower, "from_splits"),
    (grower, "tree_at"),
    (cli, "tree_at"),
)


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["grow", "--arity", "5", "--budget", "12", "--monitor-size", "2"], 0),
        (["agnostic-sweep", "--arity", "4", "--trials", "2", "--sizes", "2,4"], 0),
        (["realizable", "--arity", "4", "--trials", "2", "--teacher-leaves", "4",
          "--budget", "16"], 0),
        (["hard", "--l", "4", "--k", "3", "--budget", "12", "--samples", "100"], 0),
        (["grow-real", "--data", "@data", "--budget", "6"], 1),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_runs_build_no_tree_they_drop(tmp_path, monkeypatch, argv, builds):
    """Growth returns its trace alone: only grow-real, which writes tree.json,
    builds a tree, once, through tree_at."""
    calls = []
    for module, name in TREE_BUILDERS:

        def counted(*args, _real=getattr(module, name), _name=f"{module.__name__}.{name}"):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,label\n0.1,0.9,0\n0.2,0.8,0\n0.8,0.3,1\n0.9,0.1,1\n0.5,0.5,0\n")
    argv = [str(data) if a == "@data" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == ["topdowndt.cli.tree_at", "topdowndt.grower.from_splits"][: 2 * builds]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the one ```python block of the README's "Library example", run as written
    text = README.read_text().split("## Library example", 1)[1]
    (block,) = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    exec(compile(block, "README library example", "exec"), {})
    size, distance, opt4 = capsys.readouterr().out.split()
    assert int(size) > 1 and 0 <= float(distance) and 0 <= float(opt4)


def test_readme_commands_resolve_to_valid_configs():
    # every documented command line parses and validates, without running
    lines = [ln for ln in README.read_text().splitlines() if ln.startswith("topdowndt ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert isinstance(cli._resolve_config(args), ExperimentConfig), line


# CLI fuzz: an argv per draw, from one subcommand's declared flags (every
# one given, so no heavy default runs) plus --seed and maybe --config.  At
# most two of them take an adversarial value, the rest a small valid one.
# Small ranges: arity <= 4, budget <= 8, trials <= 2, samples <= 50,
# ell <= 6, k <= 5, sizes and leaves <= 4.  Adversarial by annotation: 0,
# -1, nan, +-inf, 1e308, the empty list, an unknown name.  File flags name
# one of FUZZ_FILES (the first of each list is valid), written into a fresh
# directory per run; "@missing" is never written.
FUZZ_FILES = {
    "@fn": '{"kind": "dnf", "n": 3, "terms": [[1, 2], [3]]}',
    "@fn-not-json": "not json",
    "@fn-list": "[1, 2]",
    "@fn-bad-literal": '{"kind": "dnf", "n": 3, "terms": [[1, "a"]]}',
    "@data": "x1,x2,label\n0.1,0.9,0\n0.2,0.8,0\n0.8,0.3,1\n0.9,0.1,1\n",
    "@data-not-utf8": b"x1,label\n\xff\xfe,1\n",
    "@data-dir": None,  # made a directory
    "@data-blank": "\n\n",
    "@data-bad-label": "x1,x2,label\n0.1,0.2,7\n",
    "@data-short-row": "x1,x2,label\n0.1,1\n",
    "@dist": '[{"kind": "empirical", "column": "x1"}, {"kind": "empirical", "column": "x2"}]',
    "@dist-not-json": "not json",
    "@dist-short": '[{"kind": "empirical", "column": "x1"}]',
    "@dist-no-points": '[{"kind": "cdf_table"}, {"kind": "cdf_table"}]',
    "@config": '{"seed": 1}',
    "@config-not-json": "{",
    "@config-list": "[]",
    "@config-bad-type": '{"budget": "5"}',
    "@config-unknown-key": '{"threads": 4}',
}
FUZZ_FILE_FLAGS = {
    "fn": ("@fn", "@fn-not-json", "@fn-list", "@fn-bad-literal", "@missing"),
    "data": ("@data", "@data-not-utf8", "@data-dir", "@data-blank", "@data-bad-label",
             "@data-short-row", "@missing"),
    "dist": ("@dist", "@dist-not-json", "@dist-short", "@dist-no-points", "@missing"),
}
FUZZ_CONFIGS = ("@config", "@config-not-json", "@config-list", "@config-bad-type",
                "@config-unknown-key", "@missing")
NAMES = cli.DEFAULT_IMPURITIES
FUZZ_SMALL = {
    "seed": st.integers(0, 3),
    "arity": st.integers(1, 4),
    "budget": st.integers(1, 8),
    "size": st.integers(1, 4),
    "sizes": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "epsilon": st.sampled_from((0.05, 0.1, 0.5, 1.0)),
    "trials": st.integers(1, 2),
    "samples": st.integers(1, 50),
    "threshold": st.sampled_from((0.0, 0.2, 0.35, 1.0)),
    "ell": st.integers(2, 6),
    "k": st.sampled_from((1, 3, 5)),
    "leaves": st.integers(1, 4),
    "teacher_leaves": st.integers(2, 4),
    "target": st.sampled_from((0.05, 0.2, 0.5)),
    "monitor_size": st.integers(0, 3),
    "impurity": st.sampled_from((*NAMES, "influence", "all")),
    "impurities": st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    "thresholds": st.sampled_from(("midpoints", "grid:2", "grid:4")),
}
FUZZ_ADVERSARIAL = {
    "int": ("0", "-1", "nan", "inf", "1e308", ""),
    "float": ("0", "-1", "nan", "inf", "-inf", "1e308"),
    "str": ("nosuch", ""),
    "tuple[int, ...]": ("", "0", "-1", "nan"),
    "tuple[str, ...]": ("", "nosuch", "gini,nosuch"),
}
# one past each size cap, from every subcommand's caps: refused before any
# work, so never slow
FUZZ_PAST_CAP = {
    name: tuple({str(c.caps[name] + 1): None for c in cli.SUBCOMMANDS.values() if name in c.caps})
    for name in cli.LOWEST
}


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


@st.composite
def fuzz_argvs(draw):
    kind = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    names = (*cli.SUBCOMMANDS[kind].flags, "seed", "config")
    bad = draw(st.sets(st.sampled_from(names), max_size=2))
    argv = [kind]
    for name in names:
        if name == "config":
            if name in bad:
                argv += ["--config", draw(st.sampled_from(FUZZ_CONFIGS[1:]))]
            elif draw(st.booleans()):
                argv += ["--config", FUZZ_CONFIGS[0]]
            continue
        if name in FUZZ_FILE_FLAGS:
            choices = FUZZ_FILE_FLAGS[name]
            value = draw(st.sampled_from(choices[1:])) if name in bad else choices[0]
        elif name in bad:
            values = FUZZ_ADVERSARIAL[TestParser.TYPES[name]] + FUZZ_PAST_CAP.get(name, ())
            value = draw(st.sampled_from(values))
        else:
            value = _flag_text(draw(FUZZ_SMALL[name]))
        argv += ["--l" if name == "ell" else "--" + name.replace("_", "-"), value]
    return argv


def _materialize(root: Path, token: str) -> str:
    if token not in FUZZ_FILES:
        return str(root / token[1:]) if token == "@missing" else token
    path = root / token[1:]
    content = FUZZ_FILES[token]
    if content is None:
        path.mkdir(exist_ok=True)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


@settings(max_examples=60, deadline=None)
@example(argv=["grow-real", "--data", "@data-dir", "--budget", "2"])
@example(argv=["grow-real", "--data", "@data-not-utf8", "--budget", "2"])
@example(argv=["hard", "--budget", _past_cap("hard", "budget")])
@example(argv=["round-check", "--leaves", _past_cap("round-check", "leaves")])
@example(argv=["round-check", "--arity", _past_cap("round-check", "arity")])
@example(argv=["hard", "--samples", _past_cap("hard", "samples")])
@example(argv=["round-check", "--trials", _past_cap("round-check", "trials")])
@example(argv=["agnostic-sweep", "--sizes", _past_cap("agnostic-sweep", "sizes")])
@given(argv=fuzz_argvs())
def test_fuzzed_argv_exits_zero_one_or_two(argv):
    with contextlib.ExitStack() as stack:
        root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        full = [_materialize(root, tok) for tok in argv] + ["--out", str(root / "out")]
        err = io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            rc = main(full)
        except SystemExit as e:  # argparse refusing a value
            rc = e.code
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2:
        assert "error:" in err.getvalue(), (argv, err.getvalue())
