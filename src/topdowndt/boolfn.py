"""Boolean functions on the hypercube {-1,+1}^n as exact truth tables.

A function f: {-1,+1}^n -> {0,1} is stored as a single Python int holding
2^n bits.  The input x is identified with the index

    index(x) = sum(2^(i-1) for i with x_i = +1)

so coordinate i (1-indexed) corresponds to bit i-1 of the index.

Every run reads a table through SubcubeView, a compacted truth table over
the free coordinates of a subcube: split(coord) gives the two children
and coord_counts() each free coordinate's hi ones, lo ones and influence
numerator, all exact integer counts over the view's size.  A cofactor
swaps the coordinate's index bit with the top index bit over one cached
coordinate mask and takes the two halves, so extracting any coordinate
costs O(1) big-int operations.  Tables come from from_dnf,
random_monotone or a serialized spec (from_spec, to_spec).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

MAX_ARITY = 24


# ---------------------------------------------------------------------------
# bit-level helpers on packed truth tables
# ---------------------------------------------------------------------------

_MASK_CACHE: dict[tuple[int, int], int] = {}


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


# ---------------------------------------------------------------------------
# the function type
# ---------------------------------------------------------------------------


def _check_arity(n: int) -> None:
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {n}")


@dataclass(frozen=True)
class BoolFunc:
    """Truth table of f: {-1,+1}^n -> {0,1}, packed into an int."""

    n: int
    table: int

    def __post_init__(self):
        _check_arity(self.n)
        if not 0 <= self.table < (1 << (1 << self.n)):
            raise ValueError("truth table has bits beyond 2^n")


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
    local order is an implementation detail that callers must not rely on:
    a split moves the top coordinate into the split coordinate's slot.
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

    def _local(self, coord: int) -> int:
        """Local index bit of a free coordinate."""
        if not self.free:
            raise ValueError("cannot split a fully restricted function")
        try:
            return self.free.index(coord)
        except ValueError:
            raise ValueError(f"coordinate {coord} is not free in this view") from None

    def _halves(self, j: int) -> tuple[int, int]:
        """The table split on local bit j: (hi half, lo half).  Bit j first
        trades places with the top bit, so in both halves the top
        coordinate occupies slot j."""
        top = len(self.free) - 1
        half = 1 << top
        t = self.table
        if j < top:  # delta swap over the positions with bit j set, top bit clear
            d = half - (1 << j)
            u = (t ^ (t >> d)) & _mask_set(top, j)
            t ^= u ^ (u << d)
        return t >> half, t & ((1 << half) - 1)

    def split(self, coord: int) -> tuple["SubcubeView", "SubcubeView"]:
        """Views of the two subfunctions with coord fixed to +1 / -1."""
        j = self._local(coord)
        hi, lo = self._halves(j)
        new_free = (self.free[:j] + self.free[-1:] + self.free[j + 1 :])[:-1]
        return (
            SubcubeView(hi, new_free, hi.bit_count()),
            SubcubeView(lo, new_free, lo.bit_count()),
        )

    def coord_counts(self) -> tuple[int, ...]:
        """(hi ones, lo ones, influence numerator) of each free coordinate,
        flattened in local order, from one pair of halves each."""
        counts = []
        for j in range(len(self.free)):
            hi, lo = self._halves(j)
            counts += (hi.bit_count(), lo.bit_count(), (hi ^ lo).bit_count())
        return tuple(counts)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def is_monotone(f: BoolFunc) -> bool:
    """True iff f is unate: every coordinate is non-decreasing or non-increasing."""
    full = _full_mask(f.n)
    for i in range(f.n):
        mset = _mask_set(f.n, i)
        hi = (f.table & mset) >> (1 << i)  # f at x_i=+1, aligned onto lo positions
        lo = f.table & ~mset & full
        if lo & ~hi and hi & ~lo:  # rises somewhere and falls somewhere
            return False
    return True


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_dnf(n: int, terms: Sequence[Sequence[int]]) -> BoolFunc:
    """OR of conjunctions.  A term is a list of signed literals: +i requires
    x_i = +1, -i requires x_i = -1.  An empty term is the always-true term."""
    _check_arity(n)  # before building a 2^n-bit mask
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


def random_monotone(n: int, seed: int) -> BoolFunc:
    """Random monotone (unate) function.

    Draws a random monotone DNF whose term count is tuned so the acceptance
    probability is roughly 1/2.  Each coordinate's polarity is then flipped
    with probability 1/2, so the result is unate rather than coordinate-wise
    non-decreasing.
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
        _check_arity(n)
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
