"""Differential tests: grower.node_table, the one decoder of a trace's node
ids, and rule_agreement, which reads it, against the trees tree_at rebuilds
from the same trace, and against every cut of the trace."""

import dataclasses
from fractions import Fraction

from hypothesis import given, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import random_monotone
from topdowndt.grower import (
    GrowthConfig,
    grow,
    node_table,
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


def _open_nodes(trace):
    """The open leaves' node ids in preorder, at sizes 1..final_size: the
    numbering (step i makes hi 2i - 1 and lo 2i) spliced at each leaf_id."""
    nodes = [0]
    yield nodes[:]
    for step in trace.steps:
        assert nodes[step.leaf_id] == step.node
        nodes[step.leaf_id : step.leaf_id + 1] = [2 * step.iteration - 1, 2 * step.iteration]
        yield nodes[:]


def _check_node_table(trace) -> None:
    table = node_table(trace)
    assert all(len(column) == 2 * trace.final_size - 1 for column in table)
    # at every size: each leaf's node has the leaf's depth and label and is
    # split at that size or later, every other node made so far before it
    for s, open_ids in enumerate(_open_nodes(trace), start=1):
        leaves = treemod.leaves(tree_at(trace, s))
        assert len(leaves) == len(open_ids)
        for v, info in zip(open_ids, leaves):
            assert (table.depth[v], table.label[v]) == (len(info.path), info.node.label)
            assert table.split[v] >= s
        assert all(table.split[v] < s for v in set(range(2 * s - 1)) - set(open_ids))
    # each step's node: its split, and the depth of the leaf it split
    for step, path in zip(trace.steps, _reference_paths(trace)):
        i, v = step.iteration, step.node
        assert (table.split[v], table.coord[v], table.hi[v]) == (i, step.coord, 2 * i - 1)
        assert table.depth[v] == len(path)
    # a trace cut as the agnostic sweep cuts it reads the same on its nodes
    for b in range(1, trace.final_size + 1):
        cut_trace = dataclasses.replace(trace, steps=trace.steps[: b - 1])
        cut, m = node_table(cut_trace), 2 * b - 1
        assert (cut.label, cut.depth) == (table.label[:m], table.depth[:m])
        assert cut.split == [min(t, b) for t in table.split[:m]]
        kept = [t < b for t in table.split[:m]]
        assert cut.coord == [c if k else 0 for c, k in zip(table.coord, kept)]
        assert cut.hi == [c if k else 0 for c, k in zip(table.hi, kept)]
        assert tree_at(cut_trace, b) == tree_at(trace, b)


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
    trace = grow(f, GrowthConfig(budget=budget, impurity=_spec(rule)))
    trace_other = grow(f, GrowthConfig(budget=budget, impurity=_spec(other)))
    _check_node_table(trace)
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
    trace = grow(h, GrowthConfig(budget=budget, impurity=_spec(rule)))
    _check_node_table(trace)
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
    trace = grow_real(sample, GrowthConfig(budget=budget, impurity=builtin("gini")), policy)
    _check_node_table(trace)
    for s, d in enumerate(trace.distances(), start=1):
        t = tree_at(trace, s)
        errors = sum(treemod.evaluate(t, x) != label for x, label in sample.points)
        assert d == Fraction(errors, len(sample))
