"""Ground truth by exhaustion: optimal size-budgeted trees and related checks.

opt(f, s) is the minimum error over ALL binary-feature decision trees with at
most s leaves.  In misclassification counts (error = count / 2^n):

    opt(rho, t) = min( min(ones(rho), zeros(rho)),
                       min over free i, s1 in 1..t-1 of
                         opt(rho with x_i=+1, s1) + opt(rho with x_i=-1, t-s1) )

OptTable solves it bottom-up for all 3^n subcubes rho at once.  Budget t is
one int, `_tables[t]`, with every subcube's count in its own lane of
w = n + 2 bits (a count needs n + 1 bits; the top one is a guard).  rho's
lane is sum_k d_k 3^k, with digit d_k 0, 1 or 2 when x_{k+1} is fixed to -1,
fixed to +1 or free; the all-free cube is the top lane, and a cube's
children on a free x_{k+1} lie 3^k (hi) and 2 * 3^k (lo) lanes below it.
So each big-int operation below works on every subcube at once, in C:
- leaf counts: place the truth table's bits in the lanes of the points (every
  digit 0 or 1), then for each digit k fill the lanes where it is 2 with the
  sum of their two halves;
- a split on x_{k+1}: one table shifted up 3^k lanes plus another shifted up
  2 * 3^k lanes is, at each lane with digit k = 2, a hi count plus a lo count;
- the lane-wise min of a and b (SWAR): with G the guard bits and every lane
  below 2^(w-1), lane L of (a | G) - b is 2^(w-1) + a_L - b_L, so no borrow
  crosses lanes and the guard survives where a_L >= b_L; subtracting those
  lanes' low bits from a leaves min(a_L, b_L).
Budgets are clamped to 2^n, where the error is 0; a larger error(s) extends
the list from the budgets already stored.  An arity's digit masks are built
by tripling, and the last arity's are kept (11 MB at the cap, arity 12).

The witness reads the stored lanes: a leaf when the optimum equals the leaf
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


class OptTable:
    """Every subcube's optimal error count at every budget, for one function."""

    def __init__(self, f: BoolFunc):
        if f.n > OPT_MAX_ARITY:
            raise ValueError(
                f"opt is exhaustive and capped at arity {OPT_MAX_ARITY} "
                f"(got {f.n}); larger instances are out of scope here"
            )
        self.f = f
        guard, _ = _lanes(f.n)
        full = (1 << (1 << f.n)) - 1
        ones, zeros = _counts(f.n, f.table), _counts(f.n, f.table ^ full)
        self._tables = [0, _min(ones, zeros, f.n + 2, guard, guard)]

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
        n, tables = self.f.n, self._tables
        s = min(s, 1 << n)
        w = n + 2
        guard, free = _lanes(n)
        for t in range(len(tables), s + 1):
            best = tables[1]  # a leaf
            for k, m in enumerate(free):
                shift = 3**k * w
                # at each lane whose digit k is 1 (a hi child): its count at s1
                # plus its lo sibling's (digit 0) at t - s1, least over s1
                pair = tables[1] + (tables[t - 1] << shift)
                for s1 in range(2, t):
                    pair = _min(pair, tables[s1] + (tables[t - s1] << shift), w, guard, guard)
                best = _min(best, (pair << shift) & m, w, guard, guard & m)
            tables.append(best)
        return s

    def _count(self, t: int, lane: int) -> int:
        w = self.f.n + 2
        return (self._tables[t] >> lane * w) & ((1 << w) - 1)

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


@functools.lru_cache(maxsize=1)
def _lanes(n: int) -> tuple[int, tuple[int, ...]]:
    """Arity n's guard bits and, per digit k, the mask of the lanes whose digit
    k is 2, built by tripling the lane range one digit at a time."""
    w = n + 2
    every, guard, free = (1 << w) - 1, 1 << (w - 1), ()
    for k in range(n):
        shift = 3**k * w
        free = tuple(m | m << shift | m << 2 * shift for m in free) + (every << 2 * shift,)
        every |= every << shift | every << 2 * shift
        guard |= guard << shift | guard << 2 * shift
    return guard, free


def _counts(n: int, bits: int) -> int:
    """Each subcube's number of points in `bits`, a 2^n-bit table, one lane each."""
    w = n + 2
    # point p lands in the lane whose digit k is bit k of p
    lanes = [(bits >> p) & 1 for p in range(1 << n)]
    for k in range(n):
        shift = 3**k * w
        lanes = [lo | hi << shift for lo, hi in zip(lanes[::2], lanes[1::2])]
    count = lanes[0]
    for k, m in enumerate(_lanes(n)[1]):
        # digit k = 2 lanes are empty so far: fill them with their halves' sum
        shift = 3**k * w
        count += ((count & m >> 2 * shift) << 2 * shift) + ((count & m >> shift) << shift)
    return count


def _min(a: int, b: int, w: int, guard: int, pick: int) -> int:
    """Lane-wise min of a and b in the lanes whose guard bit is in `pick`;
    a elsewhere.  Every lane of a and b is below 2^(w-1)."""
    d = (a | guard) - b  # per lane 2^(w-1) + a - b: no borrow crosses a lane
    g = d & pick  # guard set where a >= b
    return a - (d & (g - (g >> (w - 1))))


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
