"""Real-valued features: product distributions, bit encoding, threshold growth.

The bridge back to the binary machinery is the quantile picture: applying
each coordinate's CDF pushes any product distribution forward to uniform
on [0,1]^n, a threshold test x_i >= theta becomes a quantile test, and a
quantile in [0,1) is approximated by its first w bits.  Concretely:

  * encode(x, w) is the w-bit pattern of floor(x * 2^w), MSB first,
    0 -> -1 and 1 -> +1;
  * round_thresholds snaps every threshold of a tree to the nearest
    multiple of 2^-w (ties to the even multiple);
  * booleanized_evaluate() evaluates a rounded tree on encoded inputs: a
    test x_i >= c/2^w reads the cell floor(x_i 2^w) off coordinate i's w
    bits and compares it with c, so the encoded bits alone compute the
    rounded tree's function;
  * disagreement(t1, t2) is Pr[t1(x) != t2(x)] under the uniform cube,
    exactly: what rounding a tree's thresholds costs in error.

grow_real runs grower's one greedy loop (the one grower.grow runs) over
leaf states that score (coordinate, threshold) candidates, in the scan
order and with the tie rule the grower module docstring states: it only
builds the root leaf.  Its source is a RealSample, treated as the exact
distribution: expectations are exact frequencies over the sample, so
statistical error is separated from algorithmic behavior.  Each
coordinate's points are sorted once, at the root, and each order carries
its points' labels beside it, in the same order, as SPRINT's attribute
lists carry the class.  Every split hands its children their shares of
the orders and labels: the chosen coordinate's by slicing at the cut, the
others' by a stable partition, as CART's presorting does; ties within an
order are irrelevant, because every candidate sits between distinct keys.
The partition codes each point in one byte, its label plus 2 on the
smaller side, gathers every other order's codes once, and reads each
child's order and labels off them with bytes.translate.

Threshold candidates come from the policy: "midpoints" (midpoints of
consecutive distinct sample values a < b per coordinate; b itself when
the rounded midpoint is not in (a, b]) or "grid:w" (multiples of 2^-w,
the quantile grid when the features are quantiles).  Each point has one
key per coordinate: its value under midpoints, its grid cell floor(v 2^w)
clamped to [0, 2^w - 1] under grid:w.  A cut k (k points lo) is a
candidate where adjacent keys differ; grid:w adds the one-sided cuts
k = 0 when the lowest cell is above 0 and k = count when the highest is
below 2^w - 1, each of gain exactly 0.0.  The threshold follows from k:
the midpoint rule, or (cell of point k-1, plus 1) / 2^w (2^-w at k = 0).

One scan serves both policies; it is exact but pruned by G's concavity.
In a leaf of count points, ones of them 1s, a cut putting k points, q of
them 1s, on the lo side has gain (count G(E) - psi(k, q)) / N, where
psi(k, q) = k G(q/k) + (count-k) G((ones-q)/(count-k)).  psi is concave in
(k, q) when G is concave, being a sum of two perspectives of G.  Let q(k)
be the 1s among the first k labels of the coordinate's order.  For the
cuts ka <= k <= kb the lo-side counts (k, q(k)) lie in the parallelogram
with vertices (ka, qa), (kb, qb), (ka+U, qb) and (kb-U, qa), where
qa = q(ka), qb = q(kb) and U = qb - qa; every vertex has
1 <= k <= count-1, and no cut of the block gains more than the best
vertex.  The scan walks each coordinate's cuts in order, halving blocks
on an explicit stack that carries qa and qb with each block: halving
counts the 1s of the lower half's labels, and a block scored cut by cut
adds its labels up from qa, so no leaf builds a prefix-sum array.  It
skips a block when that bound plus SLACK (1e-9, far above a gain's float
error of ~1e-14) is at most the leader's gain, so that none of its cuts
could pass the GAIN_TOL rule, and scores a block of at most BLOCK cuts
cut by cut.  The leader chain, every gain float, the threshold and the
median flag are therefore those of the full scan.  Every trace records
the policy, and every step records whether the chosen threshold is a
median of the leaf's coordinate distribution.  A split that isolates an empty sample
set freezes the empty leaf with the parent's majority label.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from . import tree as treemod
from .boolfn import derived_rng
from .grower import GAIN_TOL, GrowthConfig, GrowthTrace, _greedy
from .impurity import evaluate as g_eval
from .tree import DecisionTree, Internal, Leaf

MAX_BITS = 53  # beyond float precision the grid is not representable
BLOCK = 16  # the midpoint scan scores a block of at most this many cuts one by one
SLACK = 1e-9  # margin on the block bound, in gain units; a gain's float error is ~1e-14


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateDist:
    """One coordinate's distribution, described by its CDF.

    kind "uniform01": the analytic uniform on [0,1].
    kind "cdf_table": piecewise-linear CDF through the given (value, F)
    knots; first F must be 0 and last must be 1.  A value given twice is a
    jump, where F takes the upper value (F(v) = Pr[X <= v]).
    kind "empirical": the step CDF of the given data values,
    right-continuous (F(v) = fraction of values <= v).
    """

    kind: str
    knots: tuple[tuple[Fraction, Fraction], ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "uniform01":
            return
        if self.kind == "cdf_table":
            if len(self.knots) < 2:
                raise ValueError("cdf_table needs at least two knots")
            vs = [v for v, _ in self.knots]
            fs = [F for _, F in self.knots]
            if vs != sorted(vs) or fs != sorted(fs):
                raise ValueError("cdf_table knots must be non-decreasing")
            if fs[0] != 0 or fs[-1] != 1:
                raise ValueError("cdf_table must start at F=0 and end at F=1")
            return
        if self.kind == "empirical":
            if not self.values:
                raise ValueError("empirical coordinate needs data values")
            object.__setattr__(self, "values", tuple(sorted(self.values)))
            return
        raise ValueError(f"unknown coordinate kind {self.kind!r}")

    @classmethod
    def uniform01(cls) -> "CoordinateDist":
        return cls("uniform01")

    @classmethod
    def from_table(cls, points: Sequence[tuple[float, float]]) -> "CoordinateDist":
        knots = tuple((Fraction(v), Fraction(F)) for v, F in points)
        return cls("cdf_table", knots=knots)

    @classmethod
    def from_data(cls, values: Sequence[float]) -> "CoordinateDist":
        return cls("empirical", values=tuple(values))

    def cdf(self, v) -> Fraction:
        if self.kind == "uniform01":
            return Fraction(min(1, max(0, Fraction(v))))
        if self.kind == "empirical":
            return Fraction(bisect.bisect_right(self.values, v), len(self.values))
        v = Fraction(v)
        if v < self.knots[0][0]:
            return Fraction(0)
        for (v0, f0), (v1, f1) in zip(self.knots, self.knots[1:]):
            if v < v1:  # v >= v0 here, so at a jump (v0 == v1) the next pair answers
                return f0 + (f1 - f0) * (v - v0) / (v1 - v0)
        return Fraction(1)


@dataclass(frozen=True)
class ProductDistribution:
    coords: tuple[CoordinateDist, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("a product distribution needs at least one coordinate")

    @classmethod
    def uniform(cls, n: int) -> "ProductDistribution":
        return cls(tuple(CoordinateDist.uniform01() for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.coords)

    def draw(self, rng, count: int) -> Iterator[tuple[float, ...]]:
        """count points, each one rng.random() per coordinate in coordinate order.

        Only uniform01 coordinates are drawn; cdf_transform carries any other
        product distribution to the uniform cube, where the draws live.
        """
        if any(c.kind != "uniform01" for c in self.coords):
            raise ValueError("only uniform01 coordinates can be drawn")
        random, dims = rng.random, range(self.n)
        return (tuple([random() for _ in dims]) for _ in range(count))


class PointError(ValueError):
    """A RealSample point that breaks a rule; index is its position in points."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"point {index}: {problem}")
        self.index, self.problem = index, problem


@dataclass(frozen=True)
class RealSample:
    """Labeled points; the empirical grower treats them as the distribution."""

    points: tuple[tuple[tuple[float, ...], int], ...]
    provenance: str = ""

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty sample")
        n = len(self.points[0][0])
        for i, (x, label) in enumerate(self.points):
            if len(x) != n:
                raise PointError(i, "inconsistent point dimensions")
            if not all(map(math.isfinite, x)):
                raise PointError(i, f"feature values must be finite, got {x}")
            if label not in (0, 1):
                raise PointError(i, f"labels must be 0 or 1, got {label}")

    @property
    def n(self) -> int:
        return len(self.points[0][0])

    def __len__(self) -> int:
        return len(self.points)


def cdf_transform(d: ProductDistribution, x: Sequence[float]) -> tuple[float, ...]:
    """Apply each coordinate's CDF; pushes d forward to uniform on [0,1]^n."""
    if len(x) != d.n:
        raise ValueError(f"expected {d.n} coordinates, got {len(x)}")
    return tuple(float(c.cdf(v)) for c, v in zip(d.coords, x))


# ---------------------------------------------------------------------------
# encoding and rounding
# ---------------------------------------------------------------------------


def _check_width(w: int) -> None:
    if not 1 <= w <= MAX_BITS:
        raise ValueError(f"bit width must be in 1..{MAX_BITS}, got {w}")


def encode_int(x: float, w: int) -> int:
    """floor(x * 2^w), clamped so x = 1 maps to the all-ones pattern."""
    _check_width(w)
    if not 0 <= x <= 1:
        raise ValueError(f"encoder domain is [0,1], got {x}")
    return min((1 << w) - 1, int(math.floor(x * (1 << w))))


def encode(x: float, w: int) -> tuple[int, ...]:
    """The w-bit pattern of floor(x * 2^w), MSB first, 0 -> -1 and 1 -> +1."""
    b = encode_int(x, w)
    return tuple(1 if (b >> (w - p)) & 1 else -1 for p in range(1, w + 1))


def round_thresholds(t, w: int):
    """Snap each threshold to the nearest multiple of 2^-w, ties to even."""
    _check_width(w)
    scale = 1 << w

    def walk(node):
        if isinstance(node, Leaf):
            return node
        theta = round(node.theta * scale) / scale
        return Internal(node.coord, theta, walk(node.hi), walk(node.lo))

    return type(t)(walk(t.root))


# ---------------------------------------------------------------------------
# rounded trees on encoded bits
# ---------------------------------------------------------------------------


def _grid_value(theta: float, w: int) -> int:
    scaled = theta * (1 << w)
    c = round(scaled)
    if scaled != c:
        raise ValueError(
            f"threshold {theta} is not a multiple of 2^-{w}; round_thresholds first"
        )
    return c


def booleanized_evaluate(t: DecisionTree, w: int, bits: Sequence[int] | Mapping[int, int]) -> int:
    """t's label on encoded bits: a query x_i >= c/2^w reads coordinate
    i's w bits (MSB first, +1 as 1) as floor(x_i 2^w) and tests >= c.
    bits[(i - 1) w + p] is bit p + 1 of encode(x_i, w); only the queried
    coordinates' bits are read."""
    _check_width(w)
    node = t.root
    while isinstance(node, Internal):
        cell = 0
        for p in range((node.coord - 1) * w, node.coord * w):
            cell = cell << 1 | (bits[p] == 1)
        node = node.hi if cell >= _grid_value(node.theta, w) else node.lo
    return node.label


# ---------------------------------------------------------------------------
# exact disagreement and random trees
# ---------------------------------------------------------------------------


def disagreement(t1: DecisionTree, t2: DecisionTree) -> Fraction:
    """Pr[t1(x) != t2(x)] for x uniform on [0,1]^n, exactly.

    One walk over the pairs of nodes, one from each tree, whose boxes meet:
    the box holds the [lo, hi) side of every coordinate cut so far (x >= theta
    goes hi; a threshold outside [0,1] is clamped to it), and every pair of
    leaves with different labels adds its box's volume.  Every threshold is
    a float, so every side is dyadic: bounds are compared as floats, which
    is exact, and read as integers over a power of two only at those leaves.
    """
    box: dict[int, tuple[float, float]] = {}
    terms = []  # (numerator, log2 denominator) of each disagreeing box's volume

    def walk(a, b):
        if type(a) is not Internal:
            a, b = b, a
        if type(a) is Internal:
            coord = a.coord
            theta = min(1.0, max(0.0, a.theta))
            lo, hi = box.get(coord, (0.0, 1.0))
            if theta < hi:
                box[coord] = (max(lo, theta), hi)
                walk(a.hi, b)
            if lo < theta:
                box[coord] = (lo, min(hi, theta))
                walk(a.lo, b)
            box[coord] = (lo, hi)
        elif a.label != b.label:
            volume, bits = 1, 0
            for lo, hi in box.values():
                (p, q), (r, s) = lo.as_integer_ratio(), hi.as_integer_ratio()
                d = max(q, s)
                volume *= r * (d // s) - p * (d // q)
                bits += d.bit_length() - 1
            terms.append((volume, bits))

    walk(t1.root, t2.root)
    top = max((bits for _, bits in terms), default=0)
    return Fraction(sum(v << (top - bits) for v, bits in terms), 1 << top)


def balanced_random_tree(n: int, size: int, seed: int) -> DecisionTree:
    """Random threshold tree with exactly `size` leaves and depth <= 2 log2(size)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    cap = max(1, math.ceil(2 * math.log2(max(2, size))))
    rng = derived_rng(seed, "balanced-tree")

    def build(leaves_left: int, depth: int):
        if leaves_left == 1:
            return Leaf(rng.randrange(2))
        room = 1 << (cap - depth - 1)  # per child
        lo_min = max(1, leaves_left - room)
        lo_max = min(leaves_left - 1, room)
        hi_leaves = rng.randint(lo_min, lo_max)
        coord = rng.randrange(1, n + 1)
        theta = rng.random()
        return Internal(coord, theta, build(hi_leaves, depth + 1), build(leaves_left - hi_leaves, depth + 1))

    return DecisionTree(build(size, 0))


def sample_teacher(t: DecisionTree, d: ProductDistribution, count: int, seed: int) -> RealSample:
    """Draw points from d labeled by the teacher tree."""
    if count < 1:
        raise ValueError("sample count must be >= 1")
    rng = derived_rng(seed, "teacher-sample")
    pts = tuple((x, treemod.evaluate(t, x)) for x in d.draw(rng, count))
    return RealSample(pts, provenance=f"teacher seed={seed} count={count}")


# ---------------------------------------------------------------------------
# threshold policies
# ---------------------------------------------------------------------------


def parse_policy(policy: str) -> tuple[str, int | None]:
    """("midpoints", None) or ("grid", w); ValueError for anything else."""
    if policy == "midpoints":
        return "midpoints", None
    if policy.startswith("grid:"):
        try:
            w = int(policy.split(":", 1)[1])
        except ValueError:
            w = None
        if w is not None:
            _check_width(w)
            return "grid", w
    raise ValueError(f"unknown threshold policy {policy!r}; use 'midpoints' or 'grid:w'")


# ---------------------------------------------------------------------------
# the sample leaf state for grower._greedy
# ---------------------------------------------------------------------------


def _psi(fn, count, ones, k, q):
    """count times the impurity after a cut that puts k points, q of them 1s, lo."""
    return k * fn(q / k) + (count - k) * fn((ones - q) / (count - k))


# A split codes each of the leaf's points in one byte: its label, plus 2 when
# it lies on the smaller side.  Per side, (a table marking the side's codes
# nonzero, a table mapping them to labels, the other side's codes to delete).
_SMALL = (bytes.maketrans(b"\0\1\2\3", b"\0\0\1\1"), bytes.maketrans(b"\2\3", b"\0\1"), b"\0\1")
_LARGE = (bytes.maketrans(b"\0\1\2\3", b"\1\1\0\0"), None, b"\2\3")


def _gather(seq, order) -> bytes:
    """seq's bytes at the indices in order, in order."""
    if len(order) < 2:  # itemgetter of one index returns the item, not a tuple
        return bytes(seq[i] for i in order)
    return bytes(itemgetter(*order)(seq))


class _SampleLeaf:
    """The sample points reaching one leaf, as grower._greedy's leaf state.

    run is (keys, labels, spec, grid_w), shared by every leaf: grow_real's
    keys, one tuple per coordinate indexed by point, and its labels, bytes
    indexed by point, whose length is the sample size; grid_w is None under
    midpoints.  orders holds, per coordinate, the leaf's point indices in
    ascending key order, and labs, per coordinate, the labels of those
    points in that same order as bytes, as SPRINT's attribute lists carry
    the class beside each entry.  grow_real sorts the orders and reads the
    labels once, for the root; children() hands each child its share of
    every order and its labels, so no leaf sorts or looks a label up again.  A leaf keeps its orders only while it may
    still be split, and a child that is pure or empty gets none.

    The scan of the module docstring records the split as (best_coord,
    best_k).  Its block stack carries the lo-side 1s at both ends of each
    block, (ka, qa, kb, qb): halving counts the 1s of the lower half's
    labels, and a scored block adds them up from qa cut by cut, so no leaf
    builds a prefix sum.  children() is the one place the threshold is
    read: it derives best_theta and best_median from k and slices the
    chosen coordinate's order and labels at index k.  Every other
    coordinate is partitioned through one code byte per point, its label
    plus 2 on the smaller side: the codes are gathered along each order
    once, and each child reads its order (compress by a translated mask)
    and its labels (one translate that deletes the other side) off them.
    The scan's impurity arguments are ratios of counts, in [0,1] by
    construction, so it calls spec.fn unchecked; G(E) at the leaf goes
    through impurity.evaluate.  A split
    that isolates no point leaves an empty leaf: it is frozen, never split,
    and labeled with its parent's majority.  The run's scale is the sample
    size N, so err is the leaf's minority count.
    """

    u_term = None
    inf_split = None
    best_theta = None
    best_median = None

    def __init__(self, run, orders, labs, count, ones, parent_label=None):
        keys, labels, spec, grid_w = run
        total = len(labels)
        self.run = run
        self.orders = self.labs = None
        self.count = count
        self.ones = ones
        self.score = self.best_gain = -math.inf
        self.best_coord = self.best_k = None
        if count == 0:
            self.label = parent_label
            self.err = 0
            self.g_term = 0.0
            self.active = False
            return
        self.label = 1 if 2 * ones >= count else 0
        self.err = min(ones, count - ones)
        g_here = g_eval(spec, ones / count)  # correctly rounded, as float(Fraction) is
        self.g_term = count / total * g_here
        self.active = 0 < ones < count
        if not self.active:
            return
        self.orders, self.labs = orders, labs
        fn = spec.fn
        count_g = count * g_here
        best = -math.inf
        top = None if grid_w is None else (1 << grid_w) - 1
        for coord, (key, order, lab) in enumerate(zip(keys, orders, labs), start=1):
            if top is not None and key[order[0]] > 0 and 0.0 > best + GAIN_TOL:
                best, self.best_coord, self.best_k = 0.0, coord, 0
            # cut k puts order[:k] lo, with lab.count(1, 0, k) 1s; popped in order
            blocks = [(1, lab[0], count - 1, ones - lab[-1])]
            while blocks:
                ka, qa, kb, qb = blocks.pop()
                if best > -math.inf:
                    # skip when every vertex has gain <= best - SLACK
                    floor = count_g - (best - SLACK) * total
                    u = qb - qa
                    if (
                        _psi(fn, count, ones, ka + u, qb) >= floor
                        and _psi(fn, count, ones, kb - u, qa) >= floor
                        # a block of one label has only those two vertices
                        and (
                            u in (0, kb - ka)
                            or _psi(fn, count, ones, ka, qa) >= floor
                            and _psi(fn, count, ones, kb, qb) >= floor
                        )
                    ):
                        continue
                if kb - ka >= BLOCK:
                    mid = (ka + kb) // 2
                    q_mid = qa + lab.count(1, ka, mid)
                    blocks += ((mid + 1, q_mid + lab[mid], kb, qb), (ka, qa, mid, q_mid))
                    continue
                prev = key[order[ka - 1]]
                lo_ones = qa
                for lo_n in range(ka, kb + 1):
                    v = key[order[lo_n]]
                    if v != prev:
                        hi_n = count - lo_n
                        gain = (
                            count_g
                            - lo_n * fn(lo_ones / lo_n)
                            - hi_n * fn((ones - lo_ones) / hi_n)
                        ) / total
                        if gain > best + GAIN_TOL:
                            best, self.best_coord, self.best_k = gain, coord, lo_n
                    prev = v
                    lo_ones += lab[lo_n]
            if top is not None and key[order[-1]] < top and 0.0 > best + GAIN_TOL:
                best, self.best_coord, self.best_k = 0.0, coord, count
        self.score = self.best_gain = best

    @property
    def scale(self) -> int:
        return len(self.run[1])

    @property
    def expectation(self) -> Fraction | None:
        return Fraction(self.ones, self.count) if self.count else None

    def children(self) -> tuple["_SampleLeaf", "_SampleLeaf"]:
        keys, labels, _, grid_w = self.run
        c = self.best_coord - 1
        key, chosen = keys[c], self.orders[c]  # sorted, so cut k splits it at index k
        k, count = self.best_k, self.count
        if grid_w is not None:  # the first grid point above cell key[chosen[k - 1]]
            self.best_theta = (key[chosen[k - 1]] + 1 if k else 1) / (1 << grid_w)
        else:
            a, b = key[chosen[k - 1]], key[chosen[k]]
            theta = a / 2 + b / 2  # cannot overflow
            # a midpoint that rounds onto a would send a's points hi
            self.best_theta = theta if a < theta <= b else b
        self.best_median = 2 * k <= count and 2 * (count - k) <= count
        hi_ones = self.labs[c].count(1, k)
        lo_ones = self.ones - hi_ones
        # only a mixed child takes orders, read off the other orders' codes
        small_lo = 2 * k < count
        codes = None
        if 0 < hi_ones < count - k or 0 < lo_ones < k:
            code = bytearray(labels)
            for i in chosen[:k] if small_lo else chosen[k:]:
                code[i] += 2
            codes = [_gather(code, order) if j != c else None for j, order in enumerate(self.orders)]
        hi = self._child(codes, c, k, count, count - k, hi_ones, _LARGE if small_lo else _SMALL)
        lo = self._child(codes, c, 0, k, k, lo_ones, _SMALL if small_lo else _LARGE)
        self.orders = self.labs = None
        return hi, lo

    def _child(self, codes, c, start, stop, count, ones, side):
        """The child holding chosen positions start:stop; side is _SMALL or
        _LARGE, the side of the split it lies on."""
        if not 0 < ones < count:
            return _SampleLeaf(self.run, None, None, count, ones, self.label)
        keep, relabel, other = side
        orders, labs = [], []
        for j, (order, lab, code) in enumerate(zip(self.orders, self.labs, codes)):
            if j == c:
                orders.append(order[start:stop])
                labs.append(lab[start:stop])
            else:
                orders.append(list(compress(order, code.translate(keep))))
                labs.append(code.translate(relabel, other))
        return _SampleLeaf(self.run, orders, labs, count, ones, self.label)


def grow_real(source: RealSample, cfg: GrowthConfig, policy: str = "midpoints") -> GrowthTrace:
    """Greedy threshold growth on a sample, treated as the exact distribution."""
    spec = cfg.impurity
    if spec is None:
        raise ValueError(
            "real-valued growth scores (coordinate, threshold) candidates by "
            "purity gain; configure an impurity"
        )
    kind, grid_w = parse_policy(policy)
    if not isinstance(source, RealSample):
        raise TypeError(f"source must be a RealSample, got {type(source).__name__}")
    cols = tuple(zip(*(x for x, _ in source.points)))
    if grid_w is None:
        keys = cols
    else:  # each value's grid cell, clamped to [0, 2^w - 1]
        top = (1 << grid_w) - 1
        keys = tuple(
            tuple(0 if v < 0 else top if v >= 1 else math.floor(math.ldexp(v, grid_w)) for v in col)
            for col in cols
        )
    # a RealSample label is any number equal to 0 or 1 (1.0 and True pass too)
    labels = bytes(label == 1 for _, label in source.points)
    base = list(range(len(labels)))  # one set of index ints, shared by every order
    orders = [sorted(base, key=key.__getitem__) for key in keys]
    labs = [_gather(labels, order) for order in orders]
    run = (keys, labels, spec, grid_w)
    root = _SampleLeaf(run, orders, labs, len(labels), labels.count(1))
    return _greedy(root, cfg, "real-empirical", "midpoints" if kind == "midpoints" else f"grid:{grid_w}")
