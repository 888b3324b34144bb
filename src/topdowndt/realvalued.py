"""Real-valued features: product distributions, bit encoding, threshold growth.

The bridge back to the binary machinery is the quantile picture: applying
each coordinate's CDF pushes any product distribution forward to uniform
on [0,1]^n, a threshold test x_i >= theta becomes a quantile test, and a
quantile in [0,1) is approximated by its first w bits.  Concretely:

  * encode(x, w) is the w-bit pattern of floor(x * 2^w), MSB first,
    0 -> -1 and 1 -> +1;
  * round_thresholds snaps every threshold of a tree to the nearest
    multiple of 2^-w (ties to the even multiple);
  * booleanize replaces each threshold node of a rounded tree by a bit
    comparator over the encoded coordinates, so the result is an ordinary
    binary-feature tree computing the same function on encoded inputs.
    Comparators re-reading bits already fixed on the path are collapsed,
    which keeps paths free of repeated queries; the blowup is capped.
    booleanized_evaluate() computes the same function straight from the
    encoded bits, with no construction, for trees too large to materialize.

grow_real runs grower's one greedy loop (the one grower.grow runs) over
leaf states that score (coordinate, threshold) candidates, in the scan
order and with the tie rule the grower module docstring states: it only
builds the root leaf.  Two sources are supported:

  * a RealSample, treated as the exact distribution (empirical mode:
    expectations are exact frequencies over the sample, so statistical
    error is separated from algorithmic behavior).  Each coordinate's
    points are sorted once, at the root, and every split hands its
    children their shares of those orders by a stable partition, as CART's
    presorting and SPRINT's attribute lists do; ties within an order are
    irrelevant, because every candidate sits between distinct values;
  * a (teacher DecisionTree, ProductDistribution) pair (analytic mode:
    expectations are exact rational box integrals in quantile space).

Threshold candidates come from the policy: "midpoints" (midpoints of
consecutive distinct sample values a < b per coordinate, empirical only;
b itself when the rounded midpoint is not in (a, b]) or
"grid:w" (multiples of 2^-w in quantile space).  Every trace records the
policy, and every step records whether the chosen threshold is a median
of the leaf's coordinate distribution.  A split that isolates an empty
sample set freezes the empty leaf with the parent's majority label.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import tree as treemod
from .boolfn import derived_rng
from .grower import GAIN_TOL, GrowthConfig, _greedy
from .impurity import evaluate as g_eval
from .tree import DecisionTree, Internal, Leaf

MAX_BITS = 53  # beyond float precision the grid is not representable
BOOLEANIZE_NODE_CAP = 200_000


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateDist:
    """One coordinate's distribution, described by its CDF.

    kind "uniform01": the analytic uniform on [0,1].
    kind "cdf_table": piecewise-linear CDF through the given (value, F)
    knots; first F must be 0 and last must be 1.
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
        if v <= self.knots[0][0]:
            return self.knots[0][1] if v == self.knots[0][0] else Fraction(0)
        for (v0, f0), (v1, f1) in zip(self.knots, self.knots[1:]):
            if v <= v1:
                if v1 == v0:
                    return f1
                return f0 + (f1 - f0) * (v - v0) / (v1 - v0)
        return Fraction(1)

    def quantile(self, u: float) -> float:
        if not 0 <= u <= 1:
            raise ValueError("quantile argument must lie in [0,1]")
        if self.kind == "uniform01":
            return float(u)
        if self.kind == "empirical":
            n = len(self.values)
            idx = min(n - 1, max(0, math.ceil(u * n) - 1))
            return self.values[idx]
        u = Fraction(u)
        for (v0, f0), (v1, f1) in zip(self.knots, self.knots[1:]):
            if u <= f1:
                if f1 == f0:
                    return float(v0)
                return float(v0 + (v1 - v0) * (u - f0) / (f1 - f0))
        return float(self.knots[-1][0])

    @property
    def strictly_increasing(self) -> bool:
        """Whether cdf is invertible, as the quantile-space picture needs."""
        if self.kind == "uniform01":
            return True
        if self.kind == "empirical":
            return False
        return all(f0 < f1 and v0 < v1 for (v0, f0), (v1, f1) in zip(self.knots, self.knots[1:]))

    def sample(self, rng) -> float:
        return self.quantile(rng.random())


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

    def sample(self, rng) -> tuple[float, ...]:
        return tuple(c.sample(rng) for c in self.coords)


@dataclass(frozen=True)
class RealSample:
    """Labeled points; the empirical grower treats them as the distribution."""

    points: tuple[tuple[tuple[float, ...], int], ...]
    provenance: str = ""

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty sample")
        n = len(self.points[0][0])
        for x, label in self.points:
            if len(x) != n:
                raise ValueError("inconsistent point dimensions")
            if not all(map(math.isfinite, x)):
                raise ValueError(f"feature values must be finite, got {x}")
            if label not in (0, 1):
                raise ValueError(f"labels must be 0 or 1, got {label}")

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


def encode_point(x: Sequence[float], w: int) -> tuple[int, ...]:
    """Concatenated coordinate encodings: real coord i owns bit coords (i-1)w+1..iw."""
    out: list[int] = []
    for v in x:
        out.extend(encode(v, w))
    return tuple(out)


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
# the comparator construction: threshold tree -> binary-feature tree
# ---------------------------------------------------------------------------


def _grid_value(theta: float, w: int) -> int:
    scaled = theta * (1 << w)
    c = round(scaled)
    if scaled != c:
        raise ValueError(
            f"threshold {theta} is not a multiple of 2^-{w}; round_thresholds first"
        )
    return c


def booleanize(t: DecisionTree, w: int, max_nodes: int = BOOLEANIZE_NODE_CAP) -> DecisionTree:
    """Rewrite a grid-threshold tree over encoded bits, one comparator per query.

    Each query x_i >= c/2^w becomes an MSB-first walk over coordinate i's
    bits; bits already fixed on the path are not re-queried, so the output
    is a valid binary-mode tree.  Raises if the rewrite exceeds max_nodes.
    """
    _check_width(w)
    count = 0

    def bump():
        nonlocal count
        count += 1
        if count > max_nodes:
            raise ValueError(
                f"booleanized tree exceeds {max_nodes} nodes; "
                "use booleanized_evaluate for functional access"
            )

    def transform(node, ctx: dict[int, int]):
        bump()
        if isinstance(node, Leaf):
            return Leaf(node.label)
        c = _grid_value(node.theta, w)
        return comparator(node, c, 1, ctx)

    def comparator(node, c: int, p: int, ctx: dict[int, int]):
        # decide floor(x_i 2^w) >= c given bits 1..p-1 matched c so far
        if c <= 0:
            return transform(node.hi, ctx)
        if c >= 1 << w:
            return transform(node.lo, ctx)
        if p > w or (c & ((1 << (w - p + 1)) - 1)) == 0:
            return transform(node.hi, ctx)  # remaining suffix of c is zero
        bit_coord = (node.coord - 1) * w + p
        cbit = (c >> (w - p)) & 1
        known = ctx.get(bit_coord)
        if cbit == 1:
            if known == 1:
                return comparator(node, c, p + 1, ctx)
            if known == -1:
                return transform(node.lo, ctx)
            bump()
            return Internal(
                bit_coord,
                None,
                comparator(node, c, p + 1, {**ctx, bit_coord: 1}),
                transform(node.lo, {**ctx, bit_coord: -1}),
            )
        if known == 1:
            return transform(node.hi, ctx)
        if known == -1:
            return comparator(node, c, p + 1, ctx)
        bump()
        return Internal(
            bit_coord,
            None,
            transform(node.hi, {**ctx, bit_coord: 1}),
            comparator(node, c, p + 1, {**ctx, bit_coord: -1}),
        )

    return DecisionTree(transform(t.root, {}))


def booleanized_evaluate(t: DecisionTree, w: int, bits: Sequence[int]) -> int:
    """booleanize(t, w) on encoded bits, unbuilt: a query x_i >= c/2^w reads
    coordinate i's w bits (MSB first, +1 as 1) as floor(x_i 2^w), tests >= c."""
    _check_width(w)
    node = t.root
    while isinstance(node, Internal):
        cell = 0
        for p in range((node.coord - 1) * w, node.coord * w):
            cell = cell << 1 | (bits[p] == 1)
        node = node.hi if cell >= _grid_value(node.theta, w) else node.lo
    return node.label


# ---------------------------------------------------------------------------
# sampling utilities
# ---------------------------------------------------------------------------


def estimate_dist(
    t1: DecisionTree,
    t2: DecisionTree,
    d: ProductDistribution,
    samples: int,
    seed: int,
    level: float = 0.99,
) -> tuple[float, float]:
    """Monte-Carlo disagreement rate with a distribution-free half-width."""
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 < level < 1:
        raise ValueError("confidence level must be in (0,1)")
    rng = derived_rng(seed, "estimate-dist")
    disagree = 0
    for _ in range(samples):
        x = d.sample(rng)
        if treemod.evaluate(t1, x) != treemod.evaluate(t2, x):
            disagree += 1
    halfwidth = math.sqrt(math.log(2 / (1 - level)) / (2 * samples))
    return disagree / samples, halfwidth


def balanced_random_tree(
    n: int, size: int, seed: int, depth_cap: int | None = None
) -> DecisionTree:
    """Random threshold tree with exactly `size` leaves and depth <= 2 log2(size)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    cap = depth_cap if depth_cap is not None else max(1, math.ceil(2 * math.log2(max(2, size))))
    if size > 1 << cap:
        raise ValueError(f"{size} leaves cannot fit in depth {cap}")
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
    pts = []
    for _ in range(count):
        x = d.sample(rng)
        pts.append((x, treemod.evaluate(t, x)))
    return RealSample(tuple(pts), provenance=f"teacher seed={seed} count={count}")


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
# leaf states for grower._greedy: empirical mode (a sample) and analytic mode
# (a teacher tree and a product distribution)
# ---------------------------------------------------------------------------


class _SampleLeaf:
    """The sample points reaching one leaf, as grower._greedy's leaf state.

    run is (cols, labels, spec, policy, grid_w), shared by every leaf: one
    tuple of values per coordinate and one of labels, indexed by point.
    orders holds, per coordinate, the leaf's point indices in ascending
    value order.  grow_real sorts them once, for the root; children()
    filters each parent order by the chosen test, a stable partition, so no
    leaf sorts again.  A leaf keeps its orders only while it may still be
    split.  Ties may sit in any order: every candidate lies on a boundary
    between distinct values, where the counts below it do not depend on
    how ties are ordered.  The scan's impurity arguments are ratios of
    counts, in [0,1] by construction, so it calls spec.fn unchecked; G(E)
    at the leaf goes through impurity.evaluate.  A split that isolates no
    point leaves an empty leaf: it is frozen, never split, and labeled with
    its parent's majority.
    """

    u_term = None
    inf_split = None

    def __init__(self, run, orders, count, ones, parent_label=None):
        cols, labels, spec, policy, grid_w = run
        total = len(labels)
        self.run = run
        self.orders = None
        self.count = count
        self.ones = ones
        self.score = self.best_gain = -math.inf
        self.best_coord = None
        self.best_theta = None
        self.best_median = None
        if count == 0:
            self.expectation = None
            self.label = parent_label
            self.err_frac = Fraction(0)
            self.g_term = 0.0
            self.active = False
            return
        self.expectation = Fraction(ones, count)
        self.label = 1 if 2 * ones >= count else 0
        self.err_frac = Fraction(min(ones, count - ones), total)
        g_here = g_eval(spec, self.expectation)
        self.g_term = count / total * g_here
        self.active = 0 < ones < count
        if not self.active:
            return
        self.orders = orders
        fn = spec.fn
        count_g = count * g_here
        best = -math.inf
        for coord, (col, order) in enumerate(zip(cols, orders), start=1):
            if policy == "midpoints":
                lo_n = lo_ones = 0
                prev = None
                for i in order:
                    v = col[i]
                    if lo_n and v != prev:
                        hi_n = count - lo_n
                        gain = (
                            count_g - lo_n * fn(lo_ones / lo_n) - hi_n * fn((ones - lo_ones) / hi_n)
                        ) / total
                        if gain > best + GAIN_TOL:
                            self.score = self.best_gain = best = gain
                            self.best_coord = coord
                            theta = prev / 2 + v / 2  # cannot overflow
                            # a midpoint that rounds onto prev would send prev's points hi
                            self.best_theta = theta if prev < theta <= v else v
                            self.best_median = 2 * lo_n <= count and 2 * hi_n <= count
                    lo_n += 1
                    lo_ones += labels[i]
                    prev = v
                continue
            values = [col[i] for i in order]
            prefix = [0, *itertools.accumulate(labels[i] for i in order)]
            for c in range(1, 1 << grid_w):
                theta = c / (1 << grid_w)
                lo_n = bisect.bisect_left(values, theta)
                hi_n = count - lo_n
                lo_ones = prefix[lo_n]
                total_g = count_g
                if lo_n:
                    total_g -= lo_n * fn(lo_ones / lo_n)
                if hi_n:
                    total_g -= hi_n * fn((ones - lo_ones) / hi_n)
                gain = total_g / total
                if gain > best + GAIN_TOL:
                    self.score = self.best_gain = best = gain
                    self.best_coord = coord
                    self.best_theta = theta
                    self.best_median = 2 * lo_n <= count and 2 * hi_n <= count

    def children(self) -> tuple["_SampleLeaf", "_SampleLeaf"]:
        cols, labels = self.run[0], self.run[1]
        col, theta = cols[self.best_coord - 1], self.best_theta
        hi_orders = tuple([i for i in order if col[i] >= theta] for order in self.orders)
        lo_orders = tuple([i for i in order if col[i] < theta] for order in self.orders)
        self.orders = None
        hi_ones = sum([labels[i] for i in hi_orders[0]])
        hi = _SampleLeaf(self.run, hi_orders, len(hi_orders[0]), hi_ones, self.label)
        lo = _SampleLeaf(self.run, lo_orders, self.count - hi.count, self.ones - hi_ones, self.label)
        return hi, lo


def _quantile_threshold(d: ProductDistribution, coord: int, theta) -> Fraction:
    return d.coords[coord - 1].cdf(theta)


def _box_ones(node, box, d) -> Fraction:
    """Integral of the teacher over the quantile-space box."""
    if isinstance(node, Leaf):
        if node.label:
            return math.prod((b - a for a, b in box), start=Fraction(1))
        return Fraction(0)
    u = _quantile_threshold(d, node.coord, node.theta)
    a, b = box[node.coord - 1]
    if u <= a:
        return _box_ones(node.hi, box, d)
    if u >= b:
        return _box_ones(node.lo, box, d)
    hi_box = box[: node.coord - 1] + ((u, b),) + box[node.coord :]
    lo_box = box[: node.coord - 1] + ((a, u),) + box[node.coord :]
    return _box_ones(node.hi, hi_box, d) + _box_ones(node.lo, lo_box, d)


class _BoxLeaf:
    """A quantile-space box, as grower._greedy's leaf state.

    run is (teacher, distribution, spec, grid_w), shared by every leaf.
    The split point best_u is exact; the tree tests the raw quantile
    coordinate against best_theta = float(best_u).
    """

    u_term = None
    inf_split = None

    def __init__(self, run, box):
        teacher, d, spec, grid_w = run
        self.run = run
        self.box = box
        self.mass = math.prod((b - a for a, b in box), start=Fraction(1))
        ones = _box_ones(teacher.root, box, d)
        self.expectation = ones / self.mass
        self.label = 1 if 2 * self.expectation >= 1 else 0
        bias = min(self.expectation, 1 - self.expectation)
        self.err_frac = self.mass * bias
        g_here = g_eval(spec, self.expectation)
        self.g_term = float(self.mass) * g_here
        self.score = self.best_gain = -math.inf
        self.best_coord = None
        self.best_u = None
        self.best_theta = None
        self.best_median = None
        self.active = bias != 0
        if not self.active:
            return
        scale = 1 << grid_w
        for coord in range(1, len(box) + 1):
            a, b = box[coord - 1]
            c_lo = math.floor(a * scale) + 1
            c_hi = math.ceil(b * scale) - 1
            for c in range(c_lo, c_hi + 1):
                u = Fraction(c, scale)
                if not a < u < b:
                    continue
                hi_box = box[: coord - 1] + ((u, b),) + box[coord:]
                lo_box = box[: coord - 1] + ((a, u),) + box[coord:]
                hi_mass = self.mass / (b - a) * (b - u)
                lo_mass = self.mass / (b - a) * (u - a)
                e_hi = _box_ones(teacher.root, hi_box, d) / hi_mass
                e_lo = _box_ones(teacher.root, lo_box, d) / lo_mass
                gain = self.g_term - float(hi_mass) * g_eval(spec, e_hi) - float(
                    lo_mass
                ) * g_eval(spec, e_lo)
                if gain > self.best_gain + GAIN_TOL:
                    self.score = self.best_gain = gain
                    self.best_coord = coord
                    self.best_u = u
                    self.best_median = 2 * u == a + b
        if self.best_u is not None:
            self.best_theta = float(self.best_u)

    def children(self) -> tuple["_BoxLeaf", "_BoxLeaf"]:
        coord, u, box = self.best_coord, self.best_u, self.box
        a, b = box[coord - 1]
        return (
            _BoxLeaf(self.run, box[: coord - 1] + ((u, b),) + box[coord:]),
            _BoxLeaf(self.run, box[: coord - 1] + ((a, u),) + box[coord:]),
        )


def grow_real(source, cfg: GrowthConfig, policy: str = "midpoints"):
    """Greedy threshold growth; source is a RealSample or (teacher, distribution).

    Analytic mode grows in quantile space: the teacher's thresholds are
    mapped through the coordinate CDFs and the returned tree queries
    quantile-transformed inputs on the grid.
    """
    spec = cfg.impurity
    if spec is None:
        raise ValueError(
            "real-valued growth scores (coordinate, threshold) candidates by "
            "purity gain; configure an impurity"
        )
    kind, grid_w = parse_policy(policy)
    policy_name = "midpoints" if kind == "midpoints" else f"grid:{grid_w}"
    if isinstance(source, RealSample):
        cols = tuple(zip(*(x for x, _ in source.points)))
        labels = tuple(label for _, label in source.points)
        base = list(range(len(labels)))  # one set of index ints, shared by every order
        orders = tuple(sorted(base, key=col.__getitem__) for col in cols)
        run = (cols, labels, spec, kind, grid_w)
        root = _SampleLeaf(run, orders, len(labels), sum(labels))
        return _greedy(root, cfg, "real-empirical", policy_name)
    if isinstance(source, tuple) and len(source) == 2:
        teacher, d = source
        if isinstance(teacher, DecisionTree) and isinstance(d, ProductDistribution):
            if kind != "grid":
                raise ValueError("analytic growth needs the grid policy (no sample to take midpoints from)")
            if not all(c.strictly_increasing for c in d.coords):
                raise ValueError(
                    "analytic growth needs invertible coordinate CDFs "
                    "(uniform01 or strictly increasing cdf_table)"
                )
            unit = tuple((Fraction(0), Fraction(1)) for _ in range(d.n))
            root = _BoxLeaf((teacher, d, spec, grid_w), unit)
            return _greedy(root, cfg, "real-analytic", policy_name)
    raise TypeError("source must be a RealSample or a (DecisionTree, ProductDistribution) pair")
