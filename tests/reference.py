"""Slow references that fast paths in the package are tested against.

RefOptTable is the memoized recursive search that oracle.OptTable's
all-subcube dynamic program replaced.  A subcube, named by its fixed
coordinates' bits `mask` and their +1 bits `vals`, is f's full-width table
with the points outside it cleared; its children on x_i are one AND and one
XOR with the mask of x_i = +1.  The memo holds integer misclassification
counts, (mask, vals, s) -> count.  A child whose budget is 1 or whose bias
count is 0 is a leaf, answered from its popcount; coordinates irrelevant on
a subcube are skipped.  The witness is the first split, in coordinate then
balanced-budget order, that attains the optimum.

enumerate_partial_trees and enumerate_decision_trees list every tree shape
and every labeled tree up to a leaf count, for brute-force checks at small n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from topdowndt.boolfn import BoolFunc, coordinate_mask
from topdowndt.oracle import _budgets
from topdowndt.tree import DecisionTree, Internal, Leaf, PartialTree, label_leaves, size


class RefOptTable:
    """Memoized optimal-error search for one function, shared across budgets."""

    def __init__(self, f: BoolFunc):
        self.f = f
        self._memo: dict[tuple[int, int, int], int] = {}
        # (coordinate, its bit in mask/vals, its full-width +1 mask)
        self._coords = [(i, 1 << (i - 1), coordinate_mask(f.n, i)) for i in range(1, f.n + 1)]

    def error(self, s: int) -> Fraction:
        return Fraction(self._solve(self.f.table, 0, 0, s), 1 << self.f.n)

    def witness(self, s: int) -> DecisionTree:
        return DecisionTree(self._build(self.f.table, 0, 0, s))

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
        half = size >> 1
        for _, bit, m in self._coords:
            if mask & bit:
                continue
            hi = sub & m
            lo = sub ^ hi
            if hi >> bit == lo:
                continue  # irrelevant here: a leaf or another split does as well
            hi_ones = hi.bit_count()
            lo_ones = ones - hi_ones
            hi_leaf = hi_ones if 2 * hi_ones <= half else half - hi_ones
            lo_leaf = lo_ones if 2 * lo_ones <= half else half - lo_ones
            for s1 in _budgets(s):
                if s1 == 1 or hi_leaf == 0:
                    err = hi_leaf
                else:
                    err = self._solve(hi, mask | bit, vals | bit, s1)
                if err >= best:
                    continue  # the lo side can only add to it
                if s1 == s - 1 or lo_leaf == 0:
                    err += lo_leaf
                else:
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
