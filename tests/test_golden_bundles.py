"""Golden digests of every CLI subcommand's result bundle.

Each case runs one subcommand at small settings and hashes every file of
its bundle except config.json (which echoes the output directory).  The
digests were recorded from the CLI as it stood before its subcommands were
declared in one table, except round-check's, re-recorded when its rows
came to carry the exact rounding distance; any change to a CSV, a plot
file, tree.json, witness.json or summary.json (including its `files` list)
changes them.

Inputs are written into the working directory and named by relative
paths, so the provenance strings that summary.json records do not depend
on where the test runs.
"""

import hashlib
import json

import pytest

from topdowndt.boolfn import derived_rng
from topdowndt.cli import main


def _write_inputs(work):
    rng = derived_rng(2024, "golden-bundles")
    rows = ["x1,x2,label"]
    for _ in range(40):
        x1, x2 = rng.random(), rng.random()
        label = int(x1 > 0.6 or x2 < 0.25)
        if rng.random() < 0.1:
            label = 1 - label
        rows.append(f"{x1!r},{x2!r},{label}")
    (work / "data.csv").write_text("\n".join(rows) + "\n")
    (work / "dist.json").write_text(
        json.dumps([{"kind": "empirical", "column": "x1"}, {"kind": "uniform01"}])
    )
    (work / "fn.json").write_text(
        json.dumps({"kind": "dnf", "n": 4, "terms": [[1, 2], [3, 4]]})
    )


CASES = {
    "grow": (
        ["grow", "--arity", "5", "--budget", "6", "--impurity", "gini", "--seed", "3"],
        {
            "plotdata/error_vs_size.csv":
                "709d5b0d3b488088a32abf07f0163f9b1acacc4301a70be60f28a53d2ff6efa9",
            "plotdata/potential_vs_iteration.csv":
                "1388ba35648ec5c05deca73c763b4ff91ccdbcf5466f6d437134cd880419cccf",
            "summary.json":
                "0a383010b752e4ad045e2f65497edb4cfd5e394b22ee46bb727ed517748fbb53",
            "trace.csv":
                "6cbec2889d89a9c3543af86ef57968a829434caf81a73a4ab500b8a065da1b9f",
        },
    ),
    "grow-monitor": (
        ["grow", "--arity", "5", "--budget", "8", "--impurity", "entropy",
         "--monitor-size", "2", "--epsilon", "0.1", "--seed", "1"],
        {
            "plotdata/error_vs_size.csv":
                "ca6ad3a13b839e3e56fc94d562327a660f2e20860d32334c9f14424ec9e36593",
            "plotdata/gain_vs_bound.csv":
                "862d453cba03c28674d3f301e763180501f0ae74989d1cd9969cb7d2a8551bca",
            "plotdata/potential_vs_iteration.csv":
                "d7a397292d00676c5f2fb262f502b41226f6a434df5f16cab14a5596dd804ef0",
            "summary.json":
                "428eba3ad025b189afcec7295aeb5aa45cfc1a5d2a5a78a748a84c43ed49ede0",
            "trace.csv":
                "7464bcfc74276a48194e8f59dd4c2337465d5fa0031abd9f1cf76a493df08db8",
        },
    ),
    "grow-influence": (
        ["grow", "--arity", "4", "--budget", "5", "--impurity", "influence", "--seed", "2"],
        {
            "plotdata/error_vs_size.csv":
                "b0c568a2b08c11753ef52e00d901463c5ceac63edb17efcc6dbf8da62cffc670",
            "plotdata/potential_vs_iteration.csv":
                "5aaff5d80baf6d51a65417f81f858134ea81f2760015184cbddff4645fc7859f",
            "summary.json":
                "c26fb753896c24c7172dafab28c645e0757a7f0edeb308623a27b686622dfb24",
            "trace.csv":
                "fa6b6e66f0e3f9c9f28963523c842fb8b156873f03fbc0990059fff29134283f",
        },
    ),
    "grow-real-midpoints": (
        ["grow-real", "--data", "data.csv", "--budget", "6", "--impurity", "entropy"],
        {
            "plotdata/error_vs_size.csv":
                "e9d061850de68c16970987a36d0c6db92755a3dbb9ea2ba5cdb54abff4fcb021",
            "plotdata/potential_vs_iteration.csv":
                "92858b5546e15db38ecfb902f4fcc1f4f1d4f006ef426c0e9ebc4d8d97f5bb7b",
            "summary.json":
                "9ed109db27e634e2ac0181cb18db844dd74aa6b2a9ef63b84d4c5fac7384ceb4",
            "trace.csv":
                "7c3be1ebb9824532438984d8ce1ba45056c0317008c240e4bbee2777e42eea3a",
            "tree.json":
                "fa555e88f85e76af1cae55b29d044e48799f81c6fc1f15e164b341b6886063d1",
        },
    ),
    "grow-real-grid": (
        ["grow-real", "--data", "data.csv", "--dist", "dist.json", "--thresholds", "grid:3",
         "--budget", "6"],
        {
            "plotdata/error_vs_size.csv":
                "4684b280d3a922433c2c6108383e984b2c359d2afcf00d4389cd3914575ab3fe",
            "plotdata/potential_vs_iteration.csv":
                "6f9a7f0f7a03db91f2b52bafaaa265303494e1b25f7f58c76b3591722f7f2949",
            "summary.json":
                "93e86f9ab479cfba90e51e6c3a5d248b41dd9acad60154a8291b9b63665211fe",
            "trace.csv":
                "fdb01a8ca133f3eca32e4ffbb93f8b2cb297c31969de97500539244ae520cf77",
            "tree.json":
                "cd92e135ad1d1b1d89282f621c9c6528aa80b0f9973450199940b70f653c3f4e",
        },
    ),
    "opt": (
        ["opt", "--fn", "fn.json", "--size", "3"],
        {
            "summary.json":
                "74c690347203fcf1db8163b33ec6d66310d3eb6f32a25cbca918cfec9ceb7a2a",
            "witness.json":
                "7eaa470834a4757a10d0a93db9e632f88b2671d89625a2a30aacaae9743eb80a",
        },
    ),
    "jz-sweep": (
        ["jz-sweep", "--arity", "4", "--trials", "3", "--leaves", "6", "--seed", "1"],
        {
            "rows.csv":
                "1175b341037b675360bffa6090e617305358eea46bd5afee182cb5d759c91ef8",
            "summary.json":
                "6e6cfa9b9d13deaa4eaea4d8f2173d2fcc118740d112d6a0d289e7921710645b",
        },
    ),
    "agnostic-sweep": (
        ["agnostic-sweep", "--arity", "4", "--trials", "2", "--sizes", "2,4",
         "--epsilon", "0.1", "--impurities", "gini,entropy", "--seed", "5"],
        {
            "plotdata/agnostic.csv":
                "e3c527b75e2e7d8932a3d3a45b26a6969c410a38bc0a621fc9f06f7ed00b50f3",
            "rows.csv":
                "0aa2316a94b393e3020fed4fc2bbe4e47b4b3e5f0e06143dfaed870c91e923d6",
            "summary.json":
                "e633951d7535cdbab1197e5e21c72d0ce8adbe7ffbf0584f439415b4373d6f0e",
        },
    ),
    "hard": (
        ["hard", "--l", "4", "--k", "3", "--budget", "8", "--samples", "300",
         "--threshold", "0.3", "--seed", "2"],
        {
            "exact_curve.csv":
                "6957d065310c6a1291f1c84b9c4af90514b2d40a38d785f30e65b09dab22ea78",
            "plotdata/error_vs_size.csv":
                "19fd5e9af94fad04eb9cf7130ae59f221b53db46d776c594d7fea947dfb6a4e9",
            "rows.csv":
                "e8047e0c40647347cc0b97be666cbaab5f3475a00861176a370f0dd008a5f963",
            "summary.json":
                "a9b6ad5de4b262446612f41f85283c90ee92de9909fba976f50d3a50b3a6d466",
        },
    ),
    "realizable": (
        ["realizable", "--arity", "4", "--trials", "2", "--teacher-leaves", "4",
         "--target", "0.05", "--budget", "16", "--impurities", "gini,kearns-mansour"],
        {
            "rows.csv":
                "3c3e37980d0621868760b5da05a949ffb806dadcfaa7107afca083a7e76dae53",
            "summary.json":
                "f38c4c08f1501b1a8bb902893bb423b7e1de3dade9bba7e5c7c1b322c2f9cdfc",
        },
    ),
    "round-check": (
        ["round-check", "--arity", "3", "--trials", "2", "--leaves", "8",
         "--epsilon", "0.1"],
        {
            "rows.csv":
                "b76520b6d96b0ecd7d5499b3122bc40b328ef09d5cb982cc386a80eccefaca71",
            "summary.json":
                "44055f4dbb49bcf0749530881a6eee6e7b6af3b24f42cfec08286ad9826e3f80",
        },
    ),
    "verify-impurity": (
        ["verify-impurity"],
        {
            "summary.json":
                "6164b2cefcaf8e9ee7b7bb504791b7b4498af9063c52b99414462aa36c947bc4",
        },
    ),
}


def bundle_digests(out) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_bundle_matches_golden_digests(case, tmp_path, monkeypatch):
    argv, expected = CASES[case]
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main(argv + ["--out", "out"]) == 0
    assert bundle_digests(tmp_path / "out") == expected
