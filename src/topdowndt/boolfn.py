"""Boolean functions on the hypercube {-1,+1}^n as exact truth tables.

A function f: {-1,+1}^n -> {0,1} is stored as a single Python int holding
2^n bits.  The input x is identified with the index

    index(x) = sum(2^(i-1) for i with x_i = +1)

so coordinate i (1-indexed) corresponds to bit i-1 of the index.  All
probabilistic quantities (expectation, bias, influence, correlation) are
exact dyadic rationals and are returned as Fraction values whose
denominators are powers of two.

The heavy lifting happens on SubcubeView, a compacted truth table over the
free coordinates of a restriction.  Cofactoring is done with delta-swap bit
permutations so that extracting one coordinate costs O(1) big-int
operations regardless of which coordinate is extracted.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

MAX_ARITY = 24

NON_DECREASING = "non-decreasing"
NON_INCREASING = "non-increasing"
BOTH = "both"  # coordinate is irrelevant: both orientations hold vacuously
NEITHER = "neither"


# ---------------------------------------------------------------------------
# bit-level helpers on packed truth tables
# ---------------------------------------------------------------------------

_MASK_CACHE: dict[tuple[int, int], int] = {}
_SWAP_MASK_CACHE: dict[tuple[int, int, int], int] = {}


def _full_mask(nbits_log: int) -> int:
    return (1 << (1 << nbits_log)) - 1


def _mask_set(f: int, a: int) -> int:
    """Mask of index positions p in [0, 2^f) whose bit a (< f) is 1."""
    key = (f, a)
    m = _MASK_CACHE.get(key)
    if m is None:
        stride = 1 << a
        # one period: `stride` zeros then `stride` ones; double it up to 2^f bits
        m = ((1 << stride) - 1) << stride
        period = stride << 1
        while period < 1 << f:
            m |= m << period
            period <<= 1
        _MASK_CACHE[key] = m
    return m


def _swap_mask(f: int, a: int, b: int) -> int:
    """Mask of positions with bit a set and bit b clear (a != b)."""
    key = (f, a, b)
    m = _SWAP_MASK_CACHE.get(key)
    if m is None:
        m = _mask_set(f, a) & ~_mask_set(f, b) & _full_mask(f)
        _SWAP_MASK_CACHE[key] = m
    return m


def _swap_positions(table: int, f: int, a: int, b: int) -> int:
    """Exchange the roles of index bits a and b in a 2^f-bit table."""
    if a == b:
        return table
    if a > b:
        a, b = b, a
    d = (1 << b) - (1 << a)
    m = _swap_mask(f, a, b)
    u = (table ^ (table >> d)) & m
    return table ^ u ^ (u << d)


def _extract_top(table: int, f: int) -> tuple[int, int]:
    """Split a 2^f-bit table on its top index bit: (hi half, lo half)."""
    half = 1 << (f - 1)
    return table >> half, table & ((1 << half) - 1)


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Restriction:
    """A partial assignment of coordinates to {-1,+1}.

    Stored as a sorted tuple of (coordinate, value) pairs so restrictions
    hash and compare by the subcube they denote.
    """

    fixed: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for coord, value in self.fixed:
            if coord < 1:
                raise ValueError(f"coordinate {coord} out of range (1-indexed)")
            if value not in (-1, 1):
                raise ValueError(f"restriction value must be -1 or +1, got {value}")
            if coord in seen:
                raise ValueError(f"coordinate {coord} fixed twice")
            seen.add(coord)
        ordered = tuple(sorted(self.fixed))
        if ordered != self.fixed:
            object.__setattr__(self, "fixed", ordered)

    @classmethod
    def of(cls, assignment: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Restriction":
        if isinstance(assignment, Mapping):
            return cls(tuple(assignment.items()))
        return cls(tuple(assignment))

    def coords(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.fixed)

    def get(self, coord: int) -> int | None:
        for c, v in self.fixed:
            if c == coord:
                return v
        return None

    def extend(self, coord: int, value: int) -> "Restriction":
        return Restriction(self.fixed + ((coord, value),))

    def __len__(self) -> int:
        return len(self.fixed)


EMPTY = Restriction()


# ---------------------------------------------------------------------------
# the function type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoolFunc:
    """Truth table of f: {-1,+1}^n -> {0,1}, packed into an int."""

    n: int
    table: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {self.n}")
        if not 0 <= self.table < (1 << (1 << self.n)):
            raise ValueError("truth table has bits beyond 2^n")

    def value(self, x: Sequence[int]) -> int:
        if len(x) != self.n:
            raise ValueError(f"point has {len(x)} coordinates, function has {self.n}")
        return (self.table >> index_of(x)) & 1

    def __call__(self, x: Sequence[int]) -> int:
        return self.value(x)


def index_of(x: Sequence[int]) -> int:
    """Truth-table index of a point: bit i-1 set iff x_i = +1."""
    idx = 0
    for i, v in enumerate(x):
        if v == 1:
            idx |= 1 << i
        elif v != -1:
            raise ValueError(f"coordinate value must be -1 or +1, got {v}")
    return idx


def point_of(idx: int, n: int) -> tuple[int, ...]:
    """Inverse of index_of."""
    return tuple(1 if (idx >> i) & 1 else -1 for i in range(n))


def coordinate_mask(n: int, i: int) -> int:
    """Mask of the 2^n truth-table positions where x_i = +1 (i is 1-indexed)."""
    return _mask_set(n, i - 1)


# ---------------------------------------------------------------------------
# subcube views: compacted truth tables over the free coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubcubeView:
    """Truth table of a restricted function, over its free coordinates only.

    `free[j]` is the global coordinate occupying local index bit j.  The
    local order is an implementation detail that callers must not rely on;
    it gets scrambled by extraction.
    """

    table: int
    free: tuple[int, ...]
    ones: int  # cached popcount of table

    @classmethod
    def of_function(cls, f: BoolFunc) -> "SubcubeView":
        return cls(f.table, tuple(range(1, f.n + 1)), f.table.bit_count())

    @property
    def size(self) -> int:
        return 1 << len(self.free)

    def expectation(self) -> Fraction:
        return Fraction(self.ones, self.size)

    def bias(self) -> Fraction:
        e = self.expectation()
        return min(e, 1 - e)

    def error_count(self) -> int:
        """Points misclassified by the majority label on this subcube."""
        return min(self.ones, self.size - self.ones)

    def is_constant(self) -> bool:
        return self.ones == 0 or self.ones == self.size

    def _halves(self, coord: int) -> tuple[int, int]:
        f = len(self.free)
        if f == 0:
            raise ValueError("cannot split a fully restricted function")
        j = self.free.index(coord)
        t = _swap_positions(self.table, f, j, f - 1)
        return _extract_top(t, f)

    def split(self, coord: int) -> tuple["SubcubeView", "SubcubeView"]:
        """Views of the two subfunctions with coord fixed to +1 / -1."""
        f = len(self.free)
        j = self.free.index(coord)
        hi, lo = self._halves(coord)
        if j == f - 1:
            new_free = self.free[: f - 1]
        else:
            new_free = self.free[:j] + (self.free[f - 1],) + self.free[j + 1 : f - 1]
        return (
            SubcubeView(hi, new_free, hi.bit_count()),
            SubcubeView(lo, new_free, lo.bit_count()),
        )

    def child_ones(self, coord: int) -> tuple[int, int]:
        hi, lo = self._halves(coord)
        return hi.bit_count(), lo.bit_count()

    def influence_numerator(self, coord: int) -> int:
        """popcount(f_hi XOR f_lo); influence = this / 2^(free-1)."""
        hi, lo = self._halves(coord)
        return (hi ^ lo).bit_count()

    def influence(self, coord: int) -> Fraction:
        return Fraction(self.influence_numerator(coord), self.size >> 1)

    def correlation(self, coord: int) -> Fraction:
        hi, lo = self._halves(coord)
        return Fraction(hi.bit_count() - lo.bit_count(), self.size)

    def total_influence(self) -> Fraction:
        num = sum(self.influence_numerator(c) for c in self.free)
        return Fraction(num, self.size >> 1) if self.free else Fraction(0)

    def restrict(self, r: Restriction) -> "SubcubeView":
        view = self
        for coord, value in r.fixed:
            hi, lo = view.split(coord)
            view = hi if value == 1 else lo
        return view


def _view(f: BoolFunc, r: Restriction | None) -> SubcubeView:
    view = SubcubeView.of_function(f)
    if r is None or not r.fixed:
        return view
    for coord, _ in r.fixed:
        if coord > f.n:
            raise ValueError(f"restriction fixes coordinate {coord} > arity {f.n}")
    return view.restrict(r)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------


def expectation(f: BoolFunc, r: Restriction | None = None) -> Fraction:
    """E[f_r(x)] over the uniform distribution on the free coordinates."""
    return _view(f, r).expectation()


def bias(f: BoolFunc, r: Restriction | None = None) -> Fraction:
    """min(E[f_r], 1 - E[f_r]): the error of the best constant."""
    return _view(f, r).bias()


def influence(f: BoolFunc, r: Restriction | None, i: int) -> Fraction:
    """Pr[f_r(x) != f_r(x with coordinate i flipped)], x uniform."""
    view = _view(f, r)
    if i not in view.free:
        if not 1 <= i <= f.n:
            raise ValueError(f"coordinate {i} out of range")
        raise ValueError(f"coordinate {i} is fixed by the restriction")
    return view.influence(i)


def correlation(f: BoolFunc, r: Restriction | None, i: int) -> Fraction:
    """E[f_r(x) * x_i], signed."""
    view = _view(f, r)
    if i not in view.free:
        if not 1 <= i <= f.n:
            raise ValueError(f"coordinate {i} out of range")
        raise ValueError(f"coordinate {i} is fixed by the restriction")
    return view.correlation(i)


def total_influence(f: BoolFunc, r: Restriction | None = None) -> Fraction:
    return _view(f, r).total_influence()


def monotone_orientation(f: BoolFunc) -> tuple[str, ...]:
    """Classify every coordinate as non-decreasing / non-increasing / both / neither.

    "both" means the coordinate is irrelevant.  A function is monotone
    (unate) iff no coordinate comes back "neither".
    """
    out = []
    full = _full_mask(f.n)
    for i in range(f.n):
        stride = 1 << i
        mset = _mask_set(f.n, i)
        hi = (f.table & mset) >> stride  # f at x_i=+1, aligned onto lo positions
        lo = f.table & ~mset & full
        nondec = (lo & ~hi) == 0
        noninc = (hi & ~lo) == 0
        if nondec and noninc:
            out.append(BOTH)
        elif nondec:
            out.append(NON_DECREASING)
        elif noninc:
            out.append(NON_INCREASING)
        else:
            out.append(NEITHER)
    return tuple(out)


def is_monotone(f: BoolFunc) -> bool:
    """True iff every coordinate is oriented (no 'neither')."""
    return NEITHER not in monotone_orientation(f)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant(n: int, value: int) -> BoolFunc:
    if value not in (0, 1):
        raise ValueError("constant value must be 0 or 1")
    return BoolFunc(n, _full_mask(n) if value else 0)


def dictator(n: int, i: int, positive: bool = True) -> BoolFunc:
    """1[x_i = +1] (or 1[x_i = -1] when positive=False)."""
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} out of range")
    m = _mask_set(n, i - 1)
    return BoolFunc(n, m if positive else _full_mask(n) & ~m)


def conjunction(n: int) -> BoolFunc:
    """AND of all n coordinates: 1 iff every x_i = +1."""
    return BoolFunc(n, 1 << ((1 << n) - 1))


def parity(n: int) -> BoolFunc:
    """1 iff an odd number of coordinates are +1."""
    t = 0
    for idx in range(1 << n):
        if idx.bit_count() & 1:
            t |= 1 << idx
    return BoolFunc(n, t)


def majority(n: int) -> BoolFunc:
    """1 iff sum(x) >= 0.  Unbiased when n is odd."""
    t = 0
    for idx in range(1 << n):
        if 2 * idx.bit_count() >= n:
            t |= 1 << idx
    return BoolFunc(n, t)


def from_dnf(n: int, terms: Sequence[Sequence[int]]) -> BoolFunc:
    """OR of conjunctions.  A term is a list of signed literals: +i requires
    x_i = +1, -i requires x_i = -1.  An empty term is the always-true term."""
    full = _full_mask(n)
    table = 0
    for term in terms:
        tm = full
        for lit in term:
            i = abs(lit)
            if not 1 <= i <= n:
                raise ValueError(f"literal {lit} out of range for arity {n}")
            m = _mask_set(n, i - 1)
            tm &= m if lit > 0 else (full & ~m)
        table |= tm
    return BoolFunc(n, table)


def from_points(n: int, ones: Iterable[Sequence[int]]) -> BoolFunc:
    t = 0
    for x in ones:
        t |= 1 << index_of(x)
    return BoolFunc(n, t)


# ---------------------------------------------------------------------------
# random monotone functions
# ---------------------------------------------------------------------------


def derived_rng(seed: int, *names) -> random.Random:
    """Deterministic sub-stream: hash the seed and a path of names."""
    label = "/".join([str(seed), *map(str, names)])
    digest = hashlib.sha256(label.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _reflect_coordinate(table: int, n: int, i: int) -> int:
    stride = 1 << i
    mset = _mask_set(n, i)
    full = _full_mask(n)
    return ((table & mset) >> stride) | ((table & ~mset & full) << stride)


def random_monotone(n: int, seed: int, orient: bool = True) -> BoolFunc:
    """Random monotone (unate) function.

    Draws a random monotone DNF whose term count is tuned so the acceptance
    probability is roughly 1/2.  With orient=True each coordinate's polarity
    is then flipped with probability 1/2, so the result is unate rather than
    coordinate-wise non-decreasing.
    """
    rng = derived_rng(seed, "random-monotone", n, "dnf")
    w = max(1, min(n, (n + 1) // 2))
    term_p = 2.0 ** (-w)
    m = max(1, round(math.log1p(-0.5) / math.log1p(-term_p)))
    t = 0
    for _ in range(m):
        width = max(1, min(n, w + rng.choice((-1, 0, 0, 1))))
        coords = rng.sample(range(n), width)
        tm = _full_mask(n)
        for c in coords:
            tm &= _mask_set(n, c)
        t |= tm
    if orient:
        for i in range(n):
            if rng.random() < 0.5:
                t = _reflect_coordinate(t, n, i)
    return BoolFunc(n, t)


# ---------------------------------------------------------------------------
# function-spec serialization
# ---------------------------------------------------------------------------


def to_spec(f: BoolFunc) -> dict:
    nbytes = ((1 << f.n) + 7) // 8
    return {"kind": "table", "n": f.n, "hex": f.table.to_bytes(nbytes, "little").hex()}


def from_spec(spec: Mapping) -> BoolFunc:
    kind = spec.get("kind")
    if kind == "table":
        n = int(spec["n"])
        if not 1 <= n <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {n}")
        raw = bytes.fromhex(spec["hex"])
        expected = ((1 << n) + 7) // 8
        if len(raw) != expected:
            raise ValueError(f"table kind n={n} needs {expected} bytes, got {len(raw)}")
        table = int.from_bytes(raw, "little")
        if table >= (1 << (1 << n)):
            raise ValueError("truth table has bits beyond 2^n")
        return BoolFunc(n, table)
    if kind == "dnf":
        return from_dnf(int(spec["n"]), spec["terms"])
    raise ValueError(f"unknown function spec kind {kind!r}")
