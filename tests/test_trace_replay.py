"""Differential tests: what the growth trace's replay reads back against the
trees tree_at rebuilds from the same trace."""

from fractions import Fraction

from hypothesis import given, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import random_monotone
from topdowndt.grower import (
    GrowthConfig,
    _split_paths,
    grow,
    rule_agreement,
    tree_at,
)
from topdowndt.hardinstance import choose_params
from topdowndt.impurity import BUILTIN_NAMES, builtin
from topdowndt.realvalued import RealSample, grow_real

from reference import hard_table

RULES = st.sampled_from((*BUILTIN_NAMES, "influence"))


def _spec(rule):
    return None if rule == "influence" else builtin(rule)


def _reference_paths(trace) -> list[tuple]:
    """The (coord, side) path of each step's leaf, walked in the tree before the step."""
    paths = []
    for step in trace.steps:
        info = treemod.leaves(tree_at(trace, step.iteration))[step.leaf_id]
        paths.append(tuple((p.coord, p.side) for p in info.path))
    return paths


def _check_replay(trace) -> None:
    replay = list(_split_paths(trace))
    assert [step for step, _ in replay] == trace.steps
    paths = _reference_paths(trace)
    assert [path for _, path in replay] == paths
    # the node ids: the node a step splits is open and has the path of its leaf
    node_paths = {0: ()}  # the open leaves' nodes, with their paths
    for step, path in zip(trace.steps, paths):
        assert node_paths.pop(step.node) == path
        hi = 2 * step.iteration - 1
        node_paths[hi], node_paths[hi + 1] = path + ((step.coord, 1),), path + ((step.coord, -1),)


def _check_table_distances(trace, f) -> None:
    sizes = range(1, trace.final_size + 1)
    assert trace.distances() == [treemod.distance(tree_at(trace, s), f) for s in sizes]


def _reference_agreement(trace_a, trace_b) -> tuple[int, set]:
    a, b = (
        {frozenset(path): step.coord for step, path in zip(t.steps, _reference_paths(t))}
        for t in (trace_a, trace_b)
    )
    common = a.keys() & b.keys()
    return len(common), {(key, a[key], b[key]) for key in common if a[key] != b[key]}


@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    rule=RULES,
    other=RULES,
    budget=st.integers(1, 24),
)
def test_replay_on_monotone_tables(n, seed, rule, other, budget):
    f = random_monotone(n, seed=seed)
    _, trace = grow(f, GrowthConfig(budget=budget, impurity=_spec(rule)))
    _, trace_other = grow(f, GrowthConfig(budget=budget, impurity=_spec(other)))
    _check_replay(trace)
    _check_table_distances(trace, f)
    common, mismatches = rule_agreement(trace, trace_other)
    assert len(set(mismatches)) == len(mismatches)
    assert (common, set(mismatches)) == _reference_agreement(trace, trace_other)


@given(
    ell=st.integers(2, 6),
    k=st.sampled_from((1, 3, 5)),
    rule=RULES,
    budget=st.integers(1, 24),
)
def test_replay_on_small_hard_instances(ell, k, rule, budget):
    h = choose_params(ell, k)
    _, trace = grow(h, GrowthConfig(budget=budget, impurity=_spec(rule)))
    _check_replay(trace)
    _check_table_distances(trace, hard_table(h))


@given(
    points=st.lists(
        st.tuples(st.lists(st.integers(0, 8), min_size=2, max_size=2), st.integers(0, 1)),
        min_size=1,
        max_size=30,
    ),
    policy=st.sampled_from(("midpoints", "grid:3")),
    budget=st.integers(1, 16),
)
def test_replay_on_samples(points, policy, budget):
    sample = RealSample(tuple((tuple(v / 8 for v in x), label) for x, label in points))
    _, trace = grow_real(sample, GrowthConfig(budget=budget, impurity=builtin("gini")), policy)
    _check_replay(trace)
    for s, d in enumerate(trace.distances(), start=1):
        t = tree_at(trace, s)
        errors = sum(treemod.evaluate(t, x) != label for x, label in sample.points)
        assert d == Fraction(errors, len(sample))
