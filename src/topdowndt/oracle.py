"""Ground truth by exhaustion: optimal size-budgeted trees and related checks.

opt(f, s) computes the minimum error over ALL binary-feature decision trees
with at most s leaves, by dynamic programming over subcubes:

    opt(f_rho, s) = min( bias(f_rho),
                         min over free i, s1+s2=s of
                           1/2 opt(f_{rho, x_i=+1}, s1) + 1/2 opt(f_{rho, x_i=-1}, s2) )

Everything is integer arithmetic on misclassification counts (the error is
count / 2^n), memoized on the subcube identity, so results are exact.  The
budget is clamped to the subcube size, where the error hits 0.  Capped at
arity 12; beyond that this brute force does not finish in reasonable time.

Tie-breaking for the witness tree: a lone leaf beats any split of equal
error; among splits, smallest coordinate first, then the most balanced
size split, then smaller hi-side budget.

verify_jz checks the max-influence lower bound

    max_i Inf_i(f)  >=  (bias(f) - dist(f, g)) / log2(size(g))

for any decision tree g of size >= 2.  The left side is an exact rational;
only the division by log2(size) is floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolfn import BoolFunc, SubcubeView
from .tree import DecisionTree, Internal, Leaf, PartialTree, distance, label_leaves, leaf_views, size

OPT_MAX_ARITY = 12
LABELING_CHECK_MAX_LEAVES = 8


class OptTable:
    """Memoized optimal-error table for one function, shared across budgets."""

    def __init__(self, f: BoolFunc):
        if f.n > OPT_MAX_ARITY:
            raise ValueError(
                f"opt is exhaustive and capped at arity {OPT_MAX_ARITY} "
                f"(got {f.n}); larger instances are out of scope here"
            )
        self.f = f
        self._memo: dict[tuple[int, int, int], tuple[int, tuple | None]] = {}
        self._root = SubcubeView.of_function(f)

    def error(self, s: int) -> Fraction:
        if s < 1:
            raise ValueError("size budget must be >= 1")
        count = self._solve(self._root, 0, 0, s)
        return Fraction(count, 1 << self.f.n)

    def witness(self, s: int) -> DecisionTree:
        self.error(s)  # ensure the memo is populated
        return DecisionTree(self._build(self._root, 0, 0, s))

    # -- internals ---------------------------------------------------------

    def _solve(self, view: SubcubeView, mask: int, vals: int, s: int) -> int:
        bias_count = view.error_count()
        s = min(s, view.size)
        if s <= 1 or bias_count == 0:
            return bias_count
        key = (mask, vals, s)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[0]
        best = bias_count
        action: tuple | None = None
        # balanced splits first so equal-error witnesses stay shallow
        budgets = sorted(range(1, s), key=lambda v: (abs(2 * v - s), v))
        for coord in sorted(view.free):
            hi, lo = view.split(coord)
            bit = 1 << (coord - 1)
            for s1 in budgets:
                err = self._solve(hi, mask | bit, vals | bit, s1)
                if err >= best:
                    continue  # the lo side can only add to it
                err += self._solve(lo, mask | bit, vals, s - s1)
                if err < best:
                    best = err
                    action = (coord, s1)
                if best == 0:
                    break
            if best == 0:
                break
        self._memo[key] = (best, action)
        return best

    def _build(self, view: SubcubeView, mask: int, vals: int, s: int):
        bias_count = view.error_count()
        s = min(s, view.size)
        if s <= 1 or bias_count == 0:
            return Leaf(1 if 2 * view.ones >= view.size else 0)
        _, action = self._memo[(mask, vals, s)]
        if action is None:
            return Leaf(1 if 2 * view.ones >= view.size else 0)
        coord, s1 = action
        hi, lo = view.split(coord)
        bit = 1 << (coord - 1)
        return Internal(
            coord,
            None,
            self._build(hi, mask | bit, vals | bit, s1),
            self._build(lo, mask | bit, vals, s - s1),
        )


def opt(f: BoolFunc, s: int) -> tuple[Fraction, DecisionTree]:
    """Minimum error of any size-s tree for f, with a witness attaining it."""
    table = OptTable(f)
    return table.error(s), table.witness(s)


# ---------------------------------------------------------------------------
# exhaustive tree enumeration (small n only)
# ---------------------------------------------------------------------------


def _structures(avail: tuple[int, ...], exact_leaves: int):
    if exact_leaves == 1:
        yield Leaf()
        return
    for idx, coord in enumerate(avail):
        rest = avail[:idx] + avail[idx + 1 :]
        for hi_leaves in range(1, exact_leaves):
            lo_leaves = exact_leaves - hi_leaves
            for hi in _structures(rest, hi_leaves):
                for lo in _structures(rest, lo_leaves):
                    yield Internal(coord, None, hi, lo)


def enumerate_partial_trees(n: int, max_leaves: int):
    """Every binary-mode tree shape on coordinates 1..n with <= max_leaves leaves."""
    avail = tuple(range(1, n + 1))
    for L in range(1, max_leaves + 1):
        if L > (1 << n):
            break
        for root in _structures(avail, L):
            yield PartialTree(root)


def enumerate_decision_trees(n: int, max_leaves: int):
    """Every labeled tree: each shape crossed with all 2^leaves labelings."""
    for shape in enumerate_partial_trees(n, max_leaves):
        L = size(shape)
        for labeling in itertools.product((0, 1), repeat=L):
            yield label_leaves(shape, labeling)


# ---------------------------------------------------------------------------
# max-influence lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JZReport:
    lhs: Fraction  # max_i Inf_i(f)
    numerator: Fraction  # bias(f) - dist(f, g)
    tree_size: int
    rhs: float  # numerator / log2(size)
    passed: bool


def verify_jz(f: BoolFunc, g: DecisionTree) -> JZReport:
    """Check max-influence >= (bias - dist)/log2(size); size >= 2 required."""
    s = size(g)
    if s < 2:
        raise ValueError("the bound needs a tree of size >= 2")
    view = SubcubeView.of_function(f)
    lhs = max(view.influence(i) for i in range(1, f.n + 1))
    numerator = view.bias() - distance(g, f)
    rhs = float(numerator) / math.log2(s)
    passed = numerator <= 0 or float(lhs) >= rhs - 1e-12
    return JZReport(lhs=lhs, numerator=numerator, tree_size=s, rhs=rhs, passed=passed)


# ---------------------------------------------------------------------------
# completion optimality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelingReport:
    leaf_count: int
    completion_distance: Fraction
    best_distance: Fraction
    passed: bool


def optimal_labeling_check(t: PartialTree, f: BoolFunc) -> LabelingReport:
    """Confirm the f-completion labeling beats all 2^L alternatives."""
    if size(t) > LABELING_CHECK_MAX_LEAVES:
        raise ValueError(
            f"labeling check enumerates 2^L labelings; capped at "
            f"{LABELING_CHECK_MAX_LEAVES} leaves, tree has {size(t)}"
        )
    per_leaf = [(view.ones, view.size) for _, _, view in leaf_views(t, f)]
    denom = 1 << f.n
    # distance of a labeling: each leaf contributes its misclassified count
    best = None
    for labeling in itertools.product((0, 1), repeat=len(per_leaf)):
        count = sum(
            (sz - ones) if lab == 1 else ones for lab, (ones, sz) in zip(labeling, per_leaf)
        )
        if best is None or count < best:
            best = count
    completion = sum(min(ones, sz - ones) for ones, sz in per_leaf)
    return LabelingReport(
        leaf_count=len(per_leaf),
        completion_distance=Fraction(completion, denom),
        best_distance=Fraction(best, denom),
        passed=completion == best,
    )
