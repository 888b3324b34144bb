"""Ground truth by exhaustion: optimal size-budgeted trees and related checks.

opt(f, s) is the minimum error over ALL binary-feature decision trees with at
most s leaves.  In misclassification counts (error = count / 2^n):

    opt(rho, t) = min( min(ones(rho), zeros(rho)),
                       min over free i, s1 in 1..t-1 of
                         opt(rho with x_i=+1, s1) + opt(rho with x_i=-1, t-s1) )

OptTable solves it bottom-up for all 3^n subcubes rho at once.  rho's index
is sum_k d_k 3^k, with digit d_k 0, 1 or 2 when x_{k+1} is fixed to -1, fixed
to +1 or free; the all-free cube is the last index.  Row t of `_tables`, a
numpy uint16 array of one row per budget, holds every subcube's optimal error
count at budget t.  Viewed as (3^(n-k-1), 3, 3^k), a row's [:, 2, :] are the
cubes free on x_{k+1} and [:, 1, :], [:, 0, :] their hi and lo children, in
the same order, so each numpy step below works on every subcube at once:
- leaf counts: the truth table unpacked to shape (2,)*n, each axis extended
  by the sum of its two halves (lo, hi, lo + hi), for the ones and the zeros;
- budget t, split on x_{k+1}: hi at s1 plus lo at t - s1 is one add of two
  ranges of rows, s1 over 1..t-1; the least over s1 is one min along them,
  and the free cubes keep it where it beats their count so far.
A count is at most 2^n <= 2^12 (OPT_MAX_ARITY), and a split's two child
errors sum to at most 2^(n-1), so uint16 holds every value exactly.
Budgets are clamped to 2^n, where the error is 0; a larger error(s) extends
the rows from the budgets already stored.  numpy is imported when a table is
built, so importing this module loads none.

The witness reads the stored counts: a leaf when the optimum equals the leaf
count, else the first split, in coordinate then balanced-budget order (most
balanced size split, then smaller hi-side budget), that attains it.

verify_jz checks the max-influence lower bound, exactly:

    max_i Inf_i(f)  >=  (bias(f) - dist(f, g)) / log2(size(g))

for any decision tree g of size >= 2.  Floats decide when the margin is wide;
near it, with numerator / lhs = a / b in lowest terms, the integer test
size^b >= 2^a does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolfn import BoolFunc, SubcubeView, coordinate_mask
from .tree import DecisionTree, Internal, Leaf, distance, size

OPT_MAX_ARITY = 12
OPT_MAX_SIZE = 32  # the largest budget the CLI asks of the oracle


class OptTable:
    """Every subcube's optimal error count at every budget, for one function."""

    def __init__(self, f: BoolFunc):
        if f.n > OPT_MAX_ARITY:
            raise ValueError(
                f"opt is exhaustive and capped at arity {OPT_MAX_ARITY} "
                f"(got {f.n}); larger instances are out of scope here"
            )
        import numpy as np

        self.f = f
        n = f.n
        raw = np.frombuffer(f.table.to_bytes((1 << n) + 7 >> 3, "little"), np.uint8)
        # point p at index p: axis j of the (2,)*n view is bit n-1-j of p
        points = np.unpackbits(raw, bitorder="little")[: 1 << n].reshape((2,) * n)
        counts = np.stack([points, 1 - points]).astype(np.uint16)  # ones, zeros
        for axis in range(1, n + 1):
            half_sum = counts.sum(axis, np.uint16, keepdims=True)
            counts = np.concatenate([counts, half_sum], axis)  # lo, hi, lo + hi
        self._tables = np.zeros((2, 3**n), np.uint16)  # row 0 is never read
        self._tables[1] = counts.min(0).ravel()  # a leaf's error

    def error(self, s: int) -> Fraction:
        s = self._extend(s)
        return Fraction(self._count(s, 3**self.f.n - 1), 1 << self.f.n)

    def witness(self, s: int) -> DecisionTree:
        n = self.f.n
        return DecisionTree(self._build(self.f.table, 3**n - 1, self._extend(s), 1 << n))

    # -- internals ---------------------------------------------------------

    def _extend(self, s: int) -> int:
        """Fill the tables up to budget s, clamped to the cube size; return it."""
        if s < 1:
            raise ValueError("size budget must be >= 1")
        n = self.f.n
        s = min(s, 1 << n)
        stored = len(self._tables)
        if stored > s:
            return s
        import numpy as np

        tables = np.empty((s + 1, 3**n), np.uint16)
        tables[:stored] = self._tables
        for t in range(stored, s + 1):
            tables[t] = tables[1]  # a leaf
            for k in range(n):
                rows = tables.reshape(-1, 3 ** (n - k - 1), 3, 3**k)
                # each cube free on x_{k+1}: its hi child at s1 plus its lo
                # child at t - s1, least over s1
                pair = np.add(rows[1:t, :, 1], rows[t - 1 : 0 : -1, :, 0]).min(0)
                np.minimum(rows[t, :, 2], pair, out=rows[t, :, 2])
        self._tables = tables
        return s

    def _count(self, t: int, lane: int) -> int:
        return int(self._tables[t, lane])

    def _build(self, sub: int, lane: int, s: int, size: int):
        s = min(s, size)
        ones = sub.bit_count()
        best = self._count(s, lane)
        if best < min(ones, size - ones):  # so s > 1: some split attains best
            for k in range(self.f.n):
                p = 3**k
                hi = sub & coordinate_mask(self.f.n, k + 1)
                for s1 in _budgets(s) if lane // p % 3 == 2 else ():  # x_{k+1} free
                    kids = ((hi, lane - p, s1), (sub ^ hi, lane - 2 * p, s - s1))
                    if sum(self._count(t, at) for _, at, t in kids) == best:
                        return Internal(k + 1, None, *(self._build(*kid, size >> 1) for kid in kids))
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
    lhs = Fraction(max(view.coord_counts()[2::3]), view.size >> 1)
    numerator = view.bias() - distance(g, f)
    rhs = float(numerator) / math.log2(s)
    return JZReport(lhs, numerator, s, rhs, _jz_holds(lhs, numerator, s))


def _jz_holds(lhs: Fraction, numerator: Fraction, s: int) -> bool:
    """Exactly whether lhs * log2(s) >= numerator, for lhs >= 0 and s >= 2."""
    if numerator.numerator <= 0:
        return True
    x, y = float(lhs) * math.log2(s), float(numerator)
    if abs(x - y) > 1e-9 * (x + y):  # far beyond the floats' few-ulp error
        return x > y
    ratio = numerator / lhs  # lhs > 0 here: the margin is narrow
    a, b, m = ratio.numerator, ratio.denominator, s.bit_length() - 1
    return m * b >= a if s == 1 << m else s**b >= 1 << a  # log2(s) >= a/b
