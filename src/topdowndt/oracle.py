"""Ground truth by exhaustion: optimal size-budgeted trees and related checks.

opt(f, s) computes the minimum error over ALL binary-feature decision trees
with at most s leaves, by dynamic programming over subcubes:

    opt(f_rho, s) = min( bias(f_rho),
                         min over free i, s1+s2=s of
                           1/2 opt(f_{rho, x_i=+1}, s1) + 1/2 opt(f_{rho, x_i=-1}, s2) )

A subcube, named by its fixed coordinates' bits `mask` and their +1 bits
`vals`, is f's full-width table with the points outside it cleared; its
children on x_i are one AND and one XOR with the mask of x_i = +1.  The memo
holds integer misclassification counts only, (mask, vals, s) -> count (the
error is count / 2^n), so results are exact.  The budget is clamped to the
subcube size, where the error hits 0.  Coordinates irrelevant on a subcube
are skipped: a split on one costs at least twice the optimum of either half
at the full budget, which a leaf or another split already attains.  Capped
at arity 12; beyond that this brute force does not finish in reasonable time.

The witness tree is rebuilt from the memo: a leaf when the optimum equals the
bias count, else the first split, in coordinate then balanced-budget order
(most balanced size split, then smaller hi-side budget), that attains it.

verify_jz checks the max-influence lower bound

    max_i Inf_i(f)  >=  (bias(f) - dist(f, g)) / log2(size(g))

for any decision tree g of size >= 2.  The left side is an exact rational;
only the division by log2(size) is floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolfn import BoolFunc, SubcubeView, coordinate_mask
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
        self._memo: dict[tuple[int, int, int], int] = {}
        # (coordinate, its bit in mask/vals, its full-width +1 mask)
        self._coords = [(i, 1 << (i - 1), coordinate_mask(f.n, i)) for i in range(1, f.n + 1)]

    def error(self, s: int) -> Fraction:
        if s < 1:
            raise ValueError("size budget must be >= 1")
        count = self._solve(self.f.table, 0, 0, s)
        return Fraction(count, 1 << self.f.n)

    def witness(self, s: int) -> DecisionTree:
        self.error(s)  # ensure the memo is populated
        return DecisionTree(self._build(self.f.table, 0, 0, s))

    # -- internals ---------------------------------------------------------

    def _solve(self, sub: int, mask: int, vals: int, s: int) -> int:
        size = 1 << (self.f.n - mask.bit_count())
        ones = sub.bit_count()
        best = ones if 2 * ones <= size else size - ones
        s = s if s < size else size
        if s <= 1 or best == 0:
            return best
        key = (mask, vals, s)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        for _, bit, m in self._coords:
            if mask & bit:
                continue
            hi = sub & m
            lo = sub ^ hi
            if hi >> bit == lo:
                continue  # irrelevant here: a leaf or another split does as well
            for s1 in _budgets(s):
                err = self._solve(hi, mask | bit, vals | bit, s1)
                if err >= best:
                    continue  # the lo side can only add to it
                err += self._solve(lo, mask | bit, vals, s - s1)
                if err < best:
                    best = err
                if best == 0:
                    break
            if best == 0:
                break
        self._memo[key] = best
        return best

    def _build(self, sub: int, mask: int, vals: int, s: int):
        size = 1 << (self.f.n - mask.bit_count())
        ones = sub.bit_count()
        best = self._solve(sub, mask, vals, s)
        s = min(s, size)
        if best < min(ones, size - ones):  # so s > 1: some split attains best
            for coord, bit, m in self._coords:
                hi = sub & m
                for s1 in () if mask & bit else _budgets(s):
                    kids = ((hi, mask | bit, vals | bit, s1), (sub ^ hi, mask | bit, vals, s - s1))
                    if sum(self._solve(*kid) for kid in kids) == best:
                        return Internal(coord, None, *(self._build(*kid) for kid in kids))
        return Leaf(1 if 2 * ones >= size else 0)


@functools.lru_cache(maxsize=None)
def _budgets(s: int) -> tuple[int, ...]:
    """Hi-side budgets 1..s-1, most balanced split first, then smaller."""
    return tuple(sorted(range(1, s), key=lambda v: (abs(2 * v - s), v)))


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
