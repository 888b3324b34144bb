"""Growth against the slow reference it replaced.

Every grower runs one greedy loop, which records its splits in the trace,
each by the id of the node it splits, and grower.tree_at builds the tree
from that record, through tree.from_splits.  The reference is the old
algorithm: every split goes through tree.split, which re-walks and
re-validates the whole PartialTree, finding its leaf by the step's
leaf_id, and label_leaves labels the result with the children's labels
spliced in preorder.  Each case replays the trace's (leaf_id, coord,
theta) this way from PartialTree(Leaf()) and asserts that tree_at gives
the same tree at every size.

The hard CLI's checkpoint trees, once rebuilt by replaying cursor splits,
now come from tree_at; they are checked against that replay.
"""

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import hardinstance
from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc, derived_rng, random_monotone
from topdowndt.cli import _hard_checkpoints, main
from topdowndt.grower import GrowthConfig, grow, tree_at
from topdowndt.impurity import BUILTIN_NAMES, builtin
from topdowndt.realvalued import (
    ProductDistribution,
    balanced_random_tree,
    grow_real,
    sample_teacher,
)
from topdowndt.tree import Leaf, PartialTree

from reference import complete, hard_table, label_leaves

RULES = BUILTIN_NAMES + ("influence",)


def _replay(trace) -> PartialTree:
    t = PartialTree(Leaf())
    for step in trace.steps:
        t = treemod.split(t, step.leaf_id, step.coord, step.theta)
    return t


def _labeled_replays(trace):
    """The reference tree at sizes 1, 2, ..., final_size: the trace's
    splits through tree.split, its labels spliced at each step's leaf_id."""
    t, labels = PartialTree(Leaf()), [trace.labels[0]]
    yield label_leaves(t, labels)
    for step in trace.steps:
        t = treemod.split(t, step.leaf_id, step.coord, step.theta)
        hi = 2 * step.iteration - 1  # the ids of the children the step makes
        labels[step.leaf_id : step.leaf_id + 1] = trace.labels[hi : hi + 2]
        yield label_leaves(t, labels)


def _check(run):
    """Assert tree_at matches the reference at every size; return the final
    tree and its trace."""
    trace = run()
    sizes = range(1, trace.final_size + 1)
    assert [tree_at(trace, s) for s in sizes] == list(_labeled_replays(trace))
    return tree_at(trace, trace.final_size), trace


def _config(budget, rule):
    return GrowthConfig(budget=budget, impurity=None if rule == "influence" else builtin(rule))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    monotone=st.booleans(),
    budget=st.integers(1, 40),
    rule=st.sampled_from(RULES),
)
def test_table_growth_matches_reference(n, seed, monotone, budget, rule):
    if monotone:
        f = random_monotone(n, seed=seed)
    else:
        f = BoolFunc(n, derived_rng(seed, "table").getrandbits(1 << n))
    t, trace = _check(lambda: grow(f, _config(budget, rule)))
    # the f-completion, computed from the truth table, labels the replay the same way
    assert complete(_replay(trace), f) == t


@settings(max_examples=25, deadline=None)
@given(
    ell=st.integers(2, 8),
    k=st.sampled_from((1, 3, 5, 7)),
    budget=st.integers(1, 48),
    rule=st.sampled_from(RULES),
)
def test_hard_instance_growth_matches_reference(ell, k, budget, rule):
    h = hardinstance.choose_params(ell, k)
    t, trace = _check(lambda: grow(h, _config(budget, rule)))
    assert complete(_replay(trace), hard_table(h)) == t


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    teacher_leaves=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    count=st.integers(1, 60),
    budget=st.integers(1, 16),
    policy=st.sampled_from(("midpoints", "grid:2", "grid:3")),
)
def test_sample_growth_matches_reference(n, teacher_leaves, seed, count, budget, policy):
    teacher = balanced_random_tree(n, teacher_leaves, seed)
    sample = sample_teacher(teacher, ProductDistribution.uniform(n), count, seed)
    _check(lambda: grow_real(sample, _config(budget, "gini"), policy))


def test_growth_never_edits_through_tree_split(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("growth called tree.split")

    monkeypatch.setattr(treemod, "split", refuse)
    f = BoolFunc(8, derived_rng(4, "guard").getrandbits(1 << 8))
    trace = grow(f, _config(24, "gini"))
    assert trace.final_size == 24
    teacher = balanced_random_tree(2, 5, 3)
    sample = sample_teacher(teacher, ProductDistribution.uniform(2), 80, 3)
    trace = grow_real(sample, _config(8, "gini"))
    assert trace.steps
    out = tmp_path / "hard"
    rc = main(["hard", "--l", "6", "--k", "5", "--budget", "24", "--samples", "200",
               "--out", str(out)])
    assert rc == 0
    assert (out / "rows.csv").read_text().count("\n") > 2



def _cursor_replay(h, trace, sizes):
    """The old checkpoint trees: replay cursor splits, label by rounded expectation."""
    want = set(sizes)
    cursors = [h.root_cursor()]
    t = PartialTree(Leaf())

    def labeled():
        return label_leaves(t, [1 if 2 * c.ones >= c.size else 0 for c in cursors])

    out = {1: labeled()} if 1 in want else {}
    for step in trace.steps:
        cursors[step.leaf_id : step.leaf_id + 1] = cursors[step.leaf_id].split(step.coord)
        t = treemod.split(t, step.leaf_id, step.coord)
        if len(cursors) in want:
            out[len(cursors)] = labeled()
    return out


@settings(max_examples=20, deadline=None)
@given(
    ell=st.integers(2, 10),
    k=st.sampled_from((1, 3, 5, 7, 9)),
    budget=st.integers(1, 64),
    rule=st.sampled_from(RULES),
)
def test_tree_at_checkpoints_match_cursor_replay(ell, k, budget, rule):
    h = hardinstance.choose_params(ell, k)
    trace = grow(h, _config(budget, rule))
    sizes = _hard_checkpoints(trace.final_size)
    expected = _cursor_replay(h, trace, sizes)
    assert sorted(expected) == sizes
    for size in sizes:
        assert tree_at(trace, size) == expected[size]


def test_tree_at_checkpoints_on_benchmark_instance():
    h = hardinstance.choose_params(8, 63)
    trace = grow(h, _config(64, "gini"))
    sizes = _hard_checkpoints(trace.final_size)
    expected = _cursor_replay(h, trace, sizes)
    assert [tree_at(trace, size) for size in sizes] == [expected[size] for size in sizes]


def test_tree_at_every_size_is_the_table_completion():
    f = BoolFunc(6, derived_rng(9, "tree-at").getrandbits(1 << 6))
    trace = grow(f, _config(30, "entropy"))
    t = PartialTree(Leaf())
    assert tree_at(trace, 1) == complete(t, f)
    for size, step in enumerate(trace.steps, start=2):
        t = treemod.split(t, step.leaf_id, step.coord)
        assert tree_at(trace, size) == complete(t, f)
    with pytest.raises(ValueError):
        tree_at(trace, trace.final_size + 1)
