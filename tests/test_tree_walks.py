"""Readers of a finished tree against the slow references they replaced.

distance, and the reference readers complete, g_impurity and
influence_potential, read f on every leaf's subcube through one
tree.leaf_views walk.  Their reference takes each leaf from tree.leaves()
and re-splits f from the root along the leaf's path (reference.view_at),
or evaluates the tree at all 2^n points; complete's majority labeling is
also checked against every labeling of the same shape.  to_boolfunc is
checked pointwise, and booleanized_evaluate against tree.evaluate of the
rounded real-mode tree on every grid cell.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc
from topdowndt.impurity import BUILTIN_NAMES, builtin, evaluate
from topdowndt.realvalued import booleanized_evaluate, round_thresholds
from topdowndt.tree import Leaf, PartialTree, leaves, size, split

from reference import (
    complete,
    encode_point,
    g_impurity,
    influence_potential,
    label_leaves,
    path_assignment,
    point_of,
    total_influence,
    view_at,
)

MAX_LEAVES = 12


@st.composite
def shapes(draw, n: int, max_leaves: int = MAX_LEAVES, real: bool = False):
    """A random tree shape on coordinates 1..n, grown by random splits."""
    t = PartialTree(Leaf())
    for _ in range(draw(st.integers(0, max_leaves - 1))):
        if real:
            leaf_id = draw(st.integers(0, size(t) - 1))
            coord = draw(st.integers(1, n))
            t = split(t, leaf_id, coord, draw(st.floats(0.0, 1.0)))
            continue
        free = [
            (info.leaf_id, c)
            for info in leaves(t)
            for c in range(1, n + 1)
            if c not in {s.coord for s in info.path}
        ]
        if not free:
            break
        t = split(t, *draw(st.sampled_from(free)))
    return t


@st.composite
def cases(draw, max_leaves: int = MAX_LEAVES):
    """(f, t): a random truth table on n <= 6 and a labeled or unlabeled tree."""
    n = draw(st.integers(1, 6))
    f = BoolFunc(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    t = draw(shapes(n, max_leaves))
    if draw(st.booleans()):
        t = label_leaves(t, draw(st.lists(st.integers(0, 1), min_size=size(t), max_size=size(t))))
    return f, t


def restricted_views(t, f):
    """The old per-leaf loop: every leaf's view re-split from the root."""
    return [(info, view_at(f, path_assignment(info))) for info in leaves(t)]


def pointwise_errors(t, f) -> int:
    """Points where the (labeled) tree and f disagree, by evaluation."""
    return sum(
        treemod.evaluate(t, point_of(idx, f.n)) != (f.table >> idx) & 1 for idx in range(1 << f.n)
    )


@settings(deadline=None)
@given(cases())
def test_complete_labels_each_leaf_by_majority(case):
    f, t = case
    done = complete(t, f)
    want = [int(2 * view.ones >= view.size) for _, view in restricted_views(t, f)]
    assert [info.node.label for info in leaves(done)] == want
    assert [info.path for info in leaves(done)] == [info.path for info in leaves(t)]


@settings(deadline=None)
@given(cases())
def test_distance_matches_pointwise_and_per_leaf(case):
    f, t = case
    if isinstance(t, PartialTree):
        want = sum(view.error_count() for _, view in restricted_views(t, f))
        assert pointwise_errors(complete(t, f), f) == want
    else:
        want = pointwise_errors(t, f)
    assert treemod.distance(t, f) == Fraction(want, 1 << f.n)


@settings(deadline=None)
@given(cases())
def test_potentials_match_per_leaf_loop(case):
    f, t = case
    views = restricted_views(t, f)
    for spec in map(builtin, BUILTIN_NAMES):
        want = 0.0
        for info, view in views:
            want += math.ldexp(evaluate(spec, Fraction(view.ones, view.size)), -info.depth)
        assert g_impurity(t, f, spec) == want  # same preorder sum, bit for bit
    want = sum(
        (Fraction(1, 1 << info.depth) * total_influence(f, path_assignment(info)) for info, _ in views),
        Fraction(0),
    )
    assert influence_potential(t, f) == want


@settings(deadline=None)
@given(cases(max_leaves=8))
def test_majority_completion_is_the_best_labeling(case):
    f, t = case
    denom = 1 << f.n
    leaf_of = [treemod.path_of(t, point_of(idx, f.n)).leaf_id for idx in range(denom)]
    best = min(
        sum(labeling[leaf_of[idx]] != (f.table >> idx) & 1 for idx in range(denom))
        for labeling in itertools.product((0, 1), repeat=size(t))
    )
    completion = pointwise_errors(complete(t, f), f)
    assert completion == best


@settings(deadline=None)
@given(cases())
def test_to_boolfunc_matches_pointwise(case):
    f, t = case
    if isinstance(t, PartialTree):
        t = complete(t, f)
    g = treemod.to_boolfunc(t, f.n)
    assert g.n == f.n
    for idx in range(1 << f.n):
        assert (g.table >> idx) & 1 == treemod.evaluate(t, point_of(idx, f.n))


@settings(deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 4))
def test_booleanized_evaluate_matches_rounded_tree_on_every_cell(data, n, w):
    shape = data.draw(shapes(n, real=True))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=size(shape), max_size=size(shape)))
    t = round_thresholds(label_leaves(shape, labels), w)
    cells = 1 << w
    for cell in itertools.product(range(cells), repeat=n):
        x = tuple(c / cells for c in cell)  # x_i >= theta iff cell_i >= theta * 2^w
        bits = encode_point(x, w)
        want = treemod.evaluate(t, x)
        assert booleanized_evaluate(t, w, bits) == want
