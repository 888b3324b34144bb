"""Structured OR-of-ANDs targets with a majority attached: greedy stress tests.

The target family lives on ell + k coordinates.  The first ell are x's,
grouped into m terms of width w (trailing x's beyond m*w are unused); the
last k (k odd) are y's feeding a majority.  With

    T'(x) = OR of the first m' terms,   T(x) = OR of all m terms,

the target is

    f(x, y) = T'(x)  or  ( T(x) and Maj_k(y) ).

All coordinates enter positively, so f is monotone.  Probabilities under
the uniform distribution factor over terms (their coordinate sets are
disjoint), which gives a closed form for the expectation under any
restriction, an integer count over a power of two (a term with j free
coordinates misses 2^j - 1 of its 2^j settings).  Since f is monotone,
every influence is a difference of two of them:
Inf_i = E[f | x_i = +1] - E[f | x_i = -1].  That closed form backs a
grower cursor, so greedy growth runs on instances far beyond truth-table
size; the root cursor's count gives the instance's expectation.

The cursor holds each term's free count (None once the term is dead),
the free y count u with the fixed y's sum sigma, and the free
coordinates as one bitmask (bit c set when coordinate c is free).
Fixing a coordinate clears one bit and changes one term's count or
(u, sigma), so a split or a scored candidate costs O(m), with no rescan
of the restriction.  The free coordinates fall into orbits whose members
give equal children: the free x's of each live term, the inert x's
(those of dead terms and the slack x's beyond m*w, whose children equal
the parent), and the free y's.  Members of an orbit share one influence,
and the cursor lists one candidate per orbit, on its smallest member,
with the orbit's size (candidates): the lowest set bit of the free mask
under the orbit's mask, each instance's term and y masks built once.  So
a leaf costs O(m) candidates rather than O(ell + k).  The miss counts of
a state's live counts are cached for the process (_misses), as the
majority counts are (_maj_count).

Parameter choice: w is picked so Pr[T] is as close to 1/2 as possible
subject to m = ell//w >= 2, and m' < m so Pr[T'] is nearest 499/1000
(from either side).  The y-block decides f exactly where T holds and T'
does not, so its share of the function's mass is
p_rest = Pr[T and not T'], and dist(f, T) = p_rest / 2 exactly.  That
share is small when m is large: at ell = 8 (m = 4, m' = 2) p_rest is
0.246, but at ell = 44 (m = 11, m' = 10) it is 0.033.

lower_bound_experiment() grows a budgeted tree on an instance, Monte-Carlo
checks the final tree, and measures how often it queries an x coordinate
before its path has seen many y's; the trace carries the exact error
curve.  mc_check() is that Monte-Carlo loop, over any stream of (x, f(x))
pairs such as labeled_points(), for the trace's tree at any list of
sizes: each point walks the final tree once and settles every size on the
way down; the hard CLI runs it again on its checkpoint sizes, in one lazy
pass.  labeled_points() draws the stream of one rng.random() < 1/2 per
coordinate, bit for bit, in batches of one getrandbits call.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

from .boolfn import derived_rng
from .grower import GrowthConfig, GrowthTrace, grow
from .impurity import ImpuritySpec
from .tree import DecisionTree

# the largest ell + k choose_params accepts: tribes_params takes O(ell^2)
# exact Fraction steps, and the run's exact counts have ell + k bits
MAX_HARD_ARITY = 1024

_HALF_TARGET = Fraction(1, 2)
_PRIME_TARGET = Fraction(499, 1000)
C1 = 1.0  # the constant of shape_satisfied's regime condition


@dataclass(frozen=True)
class TribesParams:
    """Term layout of the OR-of-ANDs block on ell coordinates."""

    ell: int
    w: int
    m: int
    m_prime: int
    p_full: Fraction  # Pr[T]
    p_prime: Fraction  # Pr[T']

    @property
    def p_rest(self) -> Fraction:
        """Pr[T and not T']."""
        return self.p_full - self.p_prime

    def term_coords(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.m:
            raise ValueError(f"term index {j} out of range 1..{self.m}")
        base = (j - 1) * self.w
        return tuple(range(base + 1, base + self.w + 1))


def _or_prob(w: int, terms: int) -> Fraction:
    miss = 1 - Fraction(1, 1 << w)
    return 1 - miss**terms


def tribes_params(ell: int) -> TribesParams:
    """Term layout on ell x's.

    Width w: Pr[T] nearest 1/2 with at least two terms; then m' < m with
    Pr[T'] nearest 499/1000.
    """
    if ell < 2:
        raise ValueError("need ell >= 2 to fit two terms")
    best = None
    for w in range(1, ell // 2 + 1):
        m = ell // w
        gap = abs(_or_prob(w, m) - _HALF_TARGET)
        if best is None or gap < best[0]:
            best = (gap, w, m)
    _, w, m = best
    best_prime = None
    for mp in range(1, m):
        gap = abs(_or_prob(w, mp) - _PRIME_TARGET)
        if best_prime is None or gap < best_prime[0]:
            best_prime = (gap, mp)
    m_prime = best_prime[1]
    return TribesParams(
        ell=ell,
        w=w,
        m=m,
        m_prime=m_prime,
        p_full=_or_prob(w, m),
        p_prime=_or_prob(w, m_prime),
    )


# ---------------------------------------------------------------------------
# majority counts (exact, cached)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)  # growth visits few u at a time; a row holds u + 2 ints of <= u + 1 bits
def _tail_row(u: int) -> tuple[int, ...]:
    """row[t] = C(u, t) + C(u, t + 1) + ... + C(u, u) for t in 0..u + 1."""
    row = [0] * (u + 2)
    c = 1  # C(u, t), from t = u down
    for t in range(u, -1, -1):
        row[t] = row[t + 1] + c
        c = c * t // (u - t + 1)  # C(u, t - 1), exactly
    return tuple(row)


@lru_cache(maxsize=None)
def _maj_count(u: int, sigma: int) -> int:
    """2^u * Pr[sigma + (sum of u fresh signs) > 0]: the sign vectors with
    more than (u - sigma) / 2 plus signs."""
    return _tail_row(u)[min(u + 1, max(0, (u - sigma) // 2 + 1))]


# ---------------------------------------------------------------------------
# the instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardInstance:
    params: TribesParams
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("majority arity k must be odd and positive")

    @property
    def arity(self) -> int:
        return self.params.ell + self.k

    @property
    def shape_satisfied(self) -> bool:
        """Whether k is small enough for the intended regime: log2(ell)/ell <= C1/sqrt(k)."""
        ell = self.params.ell
        return math.log2(ell) / ell <= C1 / math.sqrt(self.k)

    @property
    def expectation(self) -> Fraction:
        c = self.root_cursor()
        return Fraction(c.ones, c.size)

    @property
    def distance_to_terms(self) -> Fraction:
        """dist(f, T): they differ exactly on (T and not T') times Maj = 0."""
        return self.params.p_rest / 2

    def y_coords(self) -> range:
        return range(self.params.ell + 1, self.arity + 1)

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], int]:
        """(term masks, y mask): bit c of term_masks[j] set for each
        coordinate c of term j + 1, of the y mask for each y."""
        p = self.params
        terms = tuple(sum(1 << c for c in p.term_coords(j)) for j in range(1, p.m + 1))
        return terms, sum(1 << c for c in self.y_coords())

    def root_cursor(self) -> "_HardCursor":
        p = self.params
        return _HardCursor(self, (2 << self.arity) - 2, (p.w,) * p.m, self.k, 0)


def choose_params(ell: int, k: int) -> HardInstance:
    """Pick tribes parameters for ell and pair them with a k-bit majority block."""
    if ell + k > MAX_HARD_ARITY:
        raise ValueError(
            f"instance arity ell + k = {ell + k} exceeds the cap {MAX_HARD_ARITY}"
        )
    return HardInstance(tribes_params(ell), k)


@lru_cache(maxsize=None)  # few distinct live: 552 in criterion 8's growth to 16384 leaves
def _misses(m_prime: int, live: tuple) -> tuple[int, int, int, int]:
    """(a, A, c, C) with Pr[not T'] = a / 2^A and Pr[not T] = c / 2^C for the
    cursor state's live counts: a term with `free` free coordinates misses
    2^free - 1 of its 2^free settings, a dead term (None) all of them."""
    num, bits = 1, 0
    for j, free in enumerate(live):
        if j == m_prime:
            prime = num, bits
        if free is not None:
            num *= (1 << free) - 1
            bits += free
    return (*prime, num, bits)


def evaluate(h: HardInstance, x) -> int:
    if len(x) != h.arity:
        raise ValueError(f"expected {h.arity} coordinates, got {len(x)}")
    if any(v not in (-1, 1) for v in x):
        raise ValueError("coordinates must be -1 or +1")
    return _label(h.params, x)


def _label(p: TribesParams, x) -> int:
    """f(x) for a point x of {-1, +1}^arity, unchecked (evaluate checks)."""
    t_full = False
    for j in range(p.m):
        if -1 not in x[j * p.w : (j + 1) * p.w]:
            if j < p.m_prime:
                return 1  # T' holds
            t_full = True
    if not t_full:
        return 0
    return 1 if sum(x[p.ell :]) > 0 else 0


class _HardCursor:
    """Grower cursor over the closed form: the state of one restriction.

    free has bit c set when coordinate c is free; live[j] is the number of
    free coordinates of term j + 1, or None once one of them is fixed to
    -1 (the term is dead); u is the number of free y's and sigma the sum
    of the fixed ones.

    size = 2^nfree, and ones = 2^nfree * E[f] is an integer count: with
    _misses' (a, A, c, C), rest = a * 2^(C - A) - c = 2^C * Pr[T and not T']
    and maj = 2^u * Pr[Maj],
    ones = 2^nfree - a * 2^(nfree - A) + rest * maj * 2^(nfree - C - u).
    The live x's and free y's are free coordinates, so C + u <= nfree and no
    shift is negative.  candidates() gives one row per orbit (see the
    module docstring), whose hi and lo ones are the same count on the
    children; f is monotone, so the row's pairs is hi - lo.
    """

    __slots__ = ("inst", "free", "live", "u", "sigma", "nfree", "size")

    def __init__(self, inst: HardInstance, free: int, live: tuple, u: int, sigma: int):
        self.inst = inst
        self.free = free
        self.live = live
        self.u = u
        self.sigma = sigma
        self.nfree = free.bit_count()
        self.size = 1 << self.nfree

    def _step(self, coord: int, v: int) -> tuple[tuple, int, int]:
        """(live, u, sigma) once the free coordinate coord is fixed to v."""
        p = self.inst.params
        if coord > p.ell:
            return self.live, self.u - 1, self.sigma + v
        live = self.live
        j = (coord - 1) // p.w
        if j < p.m and live[j] is not None:  # not a slack coordinate, term not dead
            live = live[:j] + (live[j] - 1 if v == 1 else None,) + live[j + 1 :]
        return live, self.u, self.sigma

    def _ones(self, live: tuple, u: int, sigma: int, nfree: int) -> int:
        """2^nfree * E[f] on a restriction with cursor state (live, u, sigma)."""
        a, A, c, C = _misses(self.inst.params.m_prime, live)
        rest = (a << (C - A)) - c
        return (1 << nfree) - (a << (nfree - A)) + (rest * _maj_count(u, sigma) << (nfree - C - u))

    @property
    def ones(self) -> int:
        return self._ones(self.live, self.u, self.sigma, self.nfree)

    def candidates(self) -> list[tuple[int, int, int, int, int]]:
        """(coord, members, hi ones, lo ones, pairs) of each orbit, on its
        smallest free coordinate, ascending: one per live term with a free
        x, one for the inert x's, one for the y's."""
        terms, ys = self.inst._masks
        free = self.free
        orbits = []  # (smallest member, members)
        inert = free & ~ys  # the free x's, less each live term's below
        for mask, count in zip(terms, self.live):
            if count is not None:
                inert &= ~mask
                if count:
                    own = free & mask
                    orbits.append(((own & -own).bit_length() - 1, count))
        if inert:
            orbits.append(((inert & -inert).bit_length() - 1, inert.bit_count()))
            orbits.sort()
        if self.u:
            own = free & ys
            orbits.append(((own & -own).bit_length() - 1, self.u))
        nfree = self.nfree - 1
        rows = []
        for coord, members in orbits:
            hi = self._ones(*self._step(coord, 1), nfree)
            lo = self._ones(*self._step(coord, -1), nfree)
            rows.append((coord, members, hi, lo, hi - lo))
        return rows

    def split(self, coord: int) -> tuple["_HardCursor", "_HardCursor"]:
        if not 1 <= coord <= self.inst.arity:  # first: a negative shift raises its own error
            raise ValueError(f"coordinate {coord} out of range 1..{self.inst.arity}")
        if not self.free >> coord & 1:
            raise ValueError(f"coordinate {coord} is fixed by the restriction")
        free = self.free ^ (1 << coord)
        return (
            _HardCursor(self.inst, free, *self._step(coord, 1)),
            _HardCursor(self.inst, free, *self._step(coord, -1)),
        )


# ---------------------------------------------------------------------------
# growth experiment
# ---------------------------------------------------------------------------


def xi_cutoff(k: int) -> int:
    """How many y queries a path may see before an x query counts as early:
    int(k / (2 log2 k))."""
    if k < 2:
        return 0
    return int(0.5 * k / math.log2(k))


def mc_check(h: HardInstance, trace: GrowthTrace, sizes: Sequence[int], labeled, cutoff: int) -> list:
    """Monte-Carlo error and xi fraction of tree_at(trace, s) for each s in sizes.

    labeled is an iterable of (x, f(x)) pairs, at least one, read once;
    sizes ascend strictly within 1..trace.final_size.  Returns, per size,
    the fraction of points the tree gets wrong, the distribution-free 99%
    half-width for that many samples, and the fraction whose path in it
    queries an x coordinate before it has queried more than `cutoff` y's.

    The trace fills flat node arrays, by its node ids.  A node is internal
    in tree_at(trace, s) exactly when the iteration that split it is below
    s, and iterations grow along every path, so each point walks the final
    tree once, a pointer j marking the first size whose tree it has not
    left yet.  Each node settles the sizes whose tree has it as a leaf,
    scoring the label it was created with; the xi rule, decided at most
    once per point, holds for the sizes still open where it is decided.
    """
    n = len(sizes)
    if not (n and 1 <= sizes[0] and sizes[-1] <= trace.final_size) or any(
        a >= b for a, b in zip(sizes, sizes[1:])
    ):
        raise ValueError(f"sizes must ascend strictly within 1..{trace.final_size}, got {sizes}")
    # the final tree as flat node arrays, indexed by the trace's node ids
    # (root 0, step i makes 2i - 1 and 2i): split_at[v] is the iteration
    # that split v (final_size for a leaf of the final tree), label[v] the
    # label v was created with
    m = 2 * trace.final_size - 1
    coord, hi, lo = [0] * m, [0] * m, [0] * m
    label, split_at = [trace.initial_label] * m, [trace.final_size] * m
    for st in trace.steps:
        v, new = st.node, 2 * st.iteration - 1
        coord[v], hi[v], lo[v], split_at[v] = st.coord, new, new + 1, st.iteration
        label[new], label[new + 1] = st.hi_label, st.lo_label
    # the sizes s <= split_at[v], whose trees have v as a leaf or lack it,
    # are settled once a walk reaches v
    settled = [bisect_right(sizes, t) for t in split_at]
    ell = h.params.ell
    # +1 at the first size a point counts for, -1 past the last: summed at the end
    count, wrong, early_x = 0, [0] * (n + 1), [0] * (n + 1)
    for x, fx in labeled:
        count += 1
        node, j, y_seen, deciding = 0, 0, 0, True
        while True:
            k = settled[node]
            if k > j:
                if label[node] != fx:
                    wrong[j] += 1
                    wrong[k] -= 1
                j = k
                if j == n:
                    break
            c = coord[node]
            if deciding:  # the xi rule, for the sizes j.. still open
                if c <= ell:
                    early_x[j] += 1
                    deciding = False
                else:
                    y_seen += 1
                    deciding = y_seen <= cutoff
            node = hi[node] if x[c - 1] == 1 else lo[node]
    if count == 0:
        raise ValueError("mc_check needs at least one sample")
    halfwidth = math.sqrt(math.log(2 / 0.01) / (2 * count))
    errors, early = list(accumulate(wrong[:n])), list(accumulate(early_x[:n]))
    return [(e / count, halfwidth, x / count) for e, x in zip(errors, early)]


# points per getrandbits call in labeled_points: 512 KiB of words at MAX_HARD_ARITY
SAMPLE_BATCH = 64
# byte -> signed byte of +1 when its top bit is clear (random() < 0.5), else -1
_SIGN = bytes(1 if b < 0x80 else 0xFF for b in range(256))


def labeled_points(h: HardInstance, count: int, rng):
    """count uniform points x of {-1, +1}^arity as (x, f(x)), drawn lazily from rng.

    The stream is the one that sets x_i = +1 iff rng.random() < 0.5, one
    call per coordinate in order, point after point; the rng ends in the
    same state too.  CPython's random() reads two 32-bit Mersenne Twister
    words and is below 1/2 exactly when the first word's top bit is 0, and
    getrandbits(64 * c) returns the next 2c words little-endian, so a batch
    of SAMPLE_BATCH points is one getrandbits call whose every other word's
    top bit (byte 8i + 3) gives a coordinate.  x is a tuple of +-1 ints.
    """
    p, arity = h.params, h.arity
    unpack = struct.Struct(f"{arity}b").iter_unpack
    for start in range(0, count, SAMPLE_BATCH):
        nbytes = 8 * arity * min(SAMPLE_BATCH, count - start)
        words = rng.getrandbits(8 * nbytes).to_bytes(nbytes, "little")
        for x in unpack(words[3::8].translate(_SIGN)):
            yield x, _label(p, x)


def lower_bound_experiment(
    h: HardInstance,
    spec: ImpuritySpec | None,
    budget: int,
    mc_samples: int = 20000,
    seed: int = 0,
) -> tuple[DecisionTree, GrowthTrace, tuple[float, float, float]]:
    """Grow on the instance, then measure how far the result stays from f.

    Returns the tree, its trace and mc_check()'s (error estimate, 99%
    half-width, xi fraction) for the tree at xi_cutoff(k).
    """
    if mc_samples < 1:
        raise ValueError(f"the Monte-Carlo check needs at least one sample, got {mc_samples}")
    dtree, trace = grow(h, GrowthConfig(budget=budget, impurity=spec))
    points = labeled_points(h, mc_samples, derived_rng(seed, "hard", "mc"))
    return dtree, trace, mc_check(h, trace, [trace.final_size], points, xi_cutoff(h.k))[0]
