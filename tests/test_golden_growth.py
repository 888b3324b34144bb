"""Golden digests of growth outputs on a fixed grid of cases.

Each case grows one tree and hashes the two files the CLI writes from it,
through the CLI's own writers: trace.csv (cli._write_trace) and tree.json
(cli._write_json over tree.to_json, as grow-real writes it).  The digests
were recorded from the growth code as it stood before its loops were
merged; any change to a split choice, a gain, a potential, a distance or a
leaf label changes them.
"""

import hashlib

import pytest

from topdowndt import hardinstance
from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc, derived_rng
from topdowndt import cli
from topdowndt.grower import GrowthConfig, grow
from topdowndt.impurity import builtin
from topdowndt.realvalued import (
    ProductDistribution,
    RealSample,
    balanced_random_tree,
    grow_real,
    sample_teacher,
)



def _table() -> BoolFunc:
    """(x1 and x2) or (x3 xor x4), with random bits where x6 = x7 = +1.

    The xor makes zero-gain leaves, so stop_on_zero_gain changes the run.
    """
    noise = derived_rng(2024, "golden-table").getrandbits(1 << 7)
    table = 0
    for p in range(1 << 7):
        b = [(p >> i) & 1 for i in range(7)]
        v = (b[0] & b[1]) | (b[2] ^ b[3])
        if b[5] and b[6]:
            v = (noise >> p) & 1
        table |= v << p
    return BoolFunc(7, table)


TABLE = _table()


def _cfg(rule, budget, stop=False):
    spec = None if rule == "influence" else builtin(rule)
    return GrowthConfig(budget=budget, impurity=spec, stop_on_zero_gain=stop)


def _conflicted_sample() -> RealSample:
    """Teacher points plus relabelled copies of a few of them.

    A leaf holding only copies of one point with both labels is impure but
    has no split with a positive gain; under a grid policy its first
    candidate sends every point to one side, so the split leaves an empty
    child.  The first three points get a second unchanged copy, so such a
    leaf can have majority 0 (all three are labeled 0).
    """
    teacher = balanced_random_tree(3, 6, 2)
    base = sample_teacher(teacher, ProductDistribution.uniform(3), 40, 2).points
    flipped = tuple((x, 1 - y) for x, y in base[:6])
    return RealSample(base + flipped + base[:3], provenance="golden")


SAMPLE = _conflicted_sample()

CASES = {
    **{
        f"table-{rule}-{'stop' if stop else 'budget'}": (
            lambda rule=rule, stop=stop: grow(TABLE, _cfg(rule, 40, stop))
        )
        for rule in ("gini", "entropy", "kearns-mansour", "influence")
        for stop in (False, True)
    },
    "hard-gini": lambda: grow(hardinstance.choose_params(8, 7), _cfg("gini", 48)),
    "sample-midpoints": lambda: grow_real(SAMPLE, _cfg("gini", 64), "midpoints"),
    "sample-grid3": lambda: grow_real(SAMPLE, _cfg("gini", 64), "grid:3"),
}

GOLDEN = {
    "hard-gini": (
        "d7b3e5be61604ca3ed3a7f603aba8e5b98e7bef3256a6ce53c429fa24552a7ee",
        "490f5db717d80b79bfbd14be86ed963bd2ee48ba8080414fdc43cfb89bf91ec0",
    ),
    "sample-grid3": (
        "a232b0f3bd4d6ba5fc084b1b5eace866e377a94648a2b2eed8ee234d04fc4853",
        "f69a5395499193d268997950d605fd0dafc9e1e092cbf9a24259e4ee76dc2230",
    ),
    "sample-midpoints": (
        "6907deec457ed52bd5e6fe3e8c0946c823a88043c2d9a672f6db7aa07128df50",
        "5c51666cf1bfc12b38199d131d117bd6b57f42ca3be4bf5e4d8d47cab72bbb3e",
    ),
    "table-entropy-budget": (
        "4517af166aa68782224000db14af770bcab210b50b8f757da2160034ea30de23",
        "5630f0da23764cf22be2791dc860d2bfd4292620fe236e347993f0099b212045",
    ),
    "table-entropy-stop": (
        "90c349be40d91963c54e8afb950ccc879e03a84e9de026c55af3290c38ac5333",
        "1a95a1898734e7bbf99e572aa7e7c8e8530a685c91328f45a03e25c4457101e3",
    ),
    "table-gini-budget": (
        "de5851d3db015be84082a2492708bfdd7e0b72af35b27b2daaa622888e5e8af5",
        "5630f0da23764cf22be2791dc860d2bfd4292620fe236e347993f0099b212045",
    ),
    "table-gini-stop": (
        "f136e5fe950b473259cf7dd422e749cd66374b60d3b144be86d60911eebea65c",
        "1a95a1898734e7bbf99e572aa7e7c8e8530a685c91328f45a03e25c4457101e3",
    ),
    "table-influence-budget": (
        "8518ab86b02f411ec4fd27a030c9e3817a45175a801c39619738c6bab6bf4317",
        "956d6d405c760174a8fc81d087ca0661e3dfc281702ab58e1f4516fd8aa0d79c",
    ),
    "table-influence-stop": (
        "8518ab86b02f411ec4fd27a030c9e3817a45175a801c39619738c6bab6bf4317",
        "956d6d405c760174a8fc81d087ca0661e3dfc281702ab58e1f4516fd8aa0d79c",
    ),
    "table-kearns-mansour-budget": (
        "7bbd2b82facbf76199226577107f26a2c14d34c4df3eed0ddad92beb554f8160",
        "5630f0da23764cf22be2791dc860d2bfd4292620fe236e347993f0099b212045",
    ),
    "table-kearns-mansour-stop": (
        "02eff68c84f78817c6071d61cb3ff465b1fc5fe2b4c5998e72e9d263c93f838b",
        "1a95a1898734e7bbf99e572aa7e7c8e8530a685c91328f45a03e25c4457101e3",
    ),
}


def _digests(name, tmp_path):
    t, trace = CASES[name]()
    cli._write_trace(tmp_path, trace)
    cli._write_json(tmp_path / "tree.json", treemod.to_json(t))
    return tuple(
        hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for file in ("trace.csv", "tree.json")
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_growth_outputs_match_golden_digests(name, tmp_path):
    assert _digests(name, tmp_path) == GOLDEN[name]


def test_grid_case_leaves_empty_children():
    t, _ = CASES["sample-grid3"]()
    reached = {treemod.path_of(t, x).leaf_id for x, _ in SAMPLE.points}
    empty = [info.node.label for info in treemod.leaves(t) if info.leaf_id not in reached]
    # they carry their parent's majority, 0 here; an empty count would round to 1
    assert empty and set(empty) == {0}


# A random 14-bit table grown to 2048 leaves, so the leader is picked among
# up to ~2000 open leaves; recorded before the loop picked its leader from a
# sorted score index.
DEEP_TABLE = BoolFunc(14, derived_rng(2024, "golden-deep").getrandbits(1 << 14))
DEEP_GOLDEN = {
    "entropy": "b5b5e350b6dd9ae415ce623bc1b66a0052b27543a2223df1ddeeb0e4aa55f2f2",
    "gini": "ab51c0aa8cc028862b5d7e4f7a288df20bb404301860758b3958e84879287763",
}


@pytest.mark.parametrize("rule", sorted(DEEP_GOLDEN))
def test_deep_table_trace_matches_golden_digest(rule, tmp_path):
    _, trace = grow(DEEP_TABLE, _cfg(rule, 2048))
    cli._write_trace(tmp_path, trace)
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == DEEP_GOLDEN[rule]
