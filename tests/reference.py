"""Slow references that the package's fast paths are tested against, and
the test-only fixtures built on them.

Pointwise anchor: point_of, value_at (a table's bit at a point, through
index_of), table_of and the brute_* counts read a table one point at a
time and share no code with the bit kernel (SubcubeView's cofactor
halves).  They check SubcubeView.coord_counts and the table
references (test_boolfn).  constant, dictator, conjunction, parity and
majority are small tables built by table_of.

Table references: expectation, bias, influence, correlation and
total_influence of f under a fixed assignment {coord: +-1}, read through
SubcubeView.split (view_at; path_assignment is a leaf's assignment).  They
back criterion 1, the per-leaf reads of test_tree_walks and the
hard-instance checks against hard_table(h).  hard_expectation reads the
cursor's closed form at an assignment.  The Fraction closed forms that the
cursor's integer counts replaced are kept as a reference with no cursor in
them: ref_state reads (live, u, sigma) off the assignment, and
ref_expectation and ref_influence (behind hard_influence) give E[f] and
Inf_i from it.  ref_influence is the direct influence formula, not the
difference of the children's expectations that the cursor uses for a
monotone f.  hard_table is the instance's truth table (arity <= 24); terms_boolfunc, terms_tree and terms_tree_size are its terms block
T and T's chain tree (criterion 8's T').  coordinate_points is the
Monte-Carlo draw that hardinstance.labeled_points batches: one
rng.random() per coordinate.  trace_of turns any binary tree into a
growth trace that tree_at replays into it, the input mc_check reads.

Tree readers over tree.leaf_views: complete (the f-completion) and
label_leaves, the old way of labeling a tree that from_splits and
tree_at are checked against, and the potentials g_impurity and
influence_potential that back the grower's exact accounting.
encode_point is the bit layout booleanized_evaluate reads, and depth a
tree's longest path, read off every leaf.
box_disagreement is realvalued.disagreement summed over every leaf pair,
each pair's boxes intersected in Fractions.

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

import functools
import itertools
import math
from fractions import Fraction

from topdowndt import tree as treemod
from topdowndt.boolfn import MAX_ARITY, BoolFunc, SubcubeView, coordinate_mask, from_dnf
from topdowndt.grower import GrowthTrace, TraceStep
from topdowndt.hardinstance import evaluate as hard_evaluate
from topdowndt.impurity import evaluate
from topdowndt.oracle import _budgets
from topdowndt.realvalued import encode
from topdowndt.tree import DecisionTree, Internal, Leaf, PartialTree, chain_tree, size

# ---------------------------------------------------------------------------
# the pointwise anchor
# ---------------------------------------------------------------------------


def point_of(idx: int, n: int) -> tuple[int, ...]:
    """The point at truth-table index idx: x_i = +1 iff bit i-1 is set."""
    return tuple(1 if (idx >> i) & 1 else -1 for i in range(n))


def index_of(x) -> int:
    """Truth-table index of a point: bit i-1 set iff x_i = +1."""
    idx = 0
    for i, v in enumerate(x):
        if v == 1:
            idx |= 1 << i
        elif v != -1:
            raise ValueError(f"coordinate value must be -1 or +1, got {v}")
    return idx


def value_at(f: BoolFunc, x) -> int:
    """f(x), read off the table bit at x's index."""
    if len(x) != f.n:
        raise ValueError(f"point has {len(x)} coordinates, function has {f.n}")
    return (f.table >> index_of(x)) & 1


def table_of(n: int, rule) -> BoolFunc:
    """The table of rule(x) at every point x of {-1,+1}^n."""
    return BoolFunc(n, sum(1 << idx for idx in range(1 << n) if rule(point_of(idx, n))))


def constant(n: int, value: int) -> BoolFunc:
    return table_of(n, lambda x: value)


def dictator(n: int, i: int) -> BoolFunc:
    """1[x_i = +1]."""
    return table_of(n, lambda x: x[i - 1] == 1)


def conjunction(n: int) -> BoolFunc:
    return table_of(n, lambda x: -1 not in x)


def parity(n: int) -> BoolFunc:
    """1 iff an odd number of coordinates are +1."""
    return table_of(n, lambda x: x.count(1) % 2)


def majority(n: int) -> BoolFunc:
    """1 iff sum(x) >= 0."""
    return table_of(n, lambda x: sum(x) >= 0)


def _subcube(f: BoolFunc, fixed: dict[int, int]):
    """Every point of f's domain that agrees with fixed."""
    for idx in range(1 << f.n):
        x = point_of(idx, f.n)
        if all(x[c - 1] == v for c, v in fixed.items()):
            yield x


def brute_expectation(f: BoolFunc, fixed: dict[int, int]) -> Fraction:
    values = [value_at(f, x) for x in _subcube(f, fixed)]
    return Fraction(sum(values), len(values))


def brute_influence(f: BoolFunc, fixed: dict[int, int], i: int) -> Fraction:
    flips = [
        value_at(f, x) != value_at(f, x[: i - 1] + (-x[i - 1],) + x[i:]) for x in _subcube(f, fixed)
    ]
    return Fraction(sum(flips), len(flips))


# ---------------------------------------------------------------------------
# table references under a fixed assignment
# ---------------------------------------------------------------------------


def path_assignment(info) -> dict[int, int]:
    """The assignment {coord: +-1} that fixes a leaf's subcube (binary mode)."""
    return {step.coord: step.side for step in info.path}


def _restrict(root, fixed: dict[int, int] | None):
    """A view or cursor split down to the subcube of fixed = {coord: +-1}."""
    for coord, side in sorted((fixed or {}).items()):
        root = root.split(coord)[0 if side == 1 else 1]
    return root


def view_at(f: BoolFunc, fixed: dict[int, int] | None = None) -> SubcubeView:
    return _restrict(SubcubeView.of_function(f), fixed)


def _influence(view: SubcubeView, i: int) -> Fraction:
    hi, lo = view.split(i)  # the two halves share one local order
    return Fraction((hi.table ^ lo.table).bit_count(), hi.size)


def _total_influence(view: SubcubeView) -> Fraction:
    return sum((_influence(view, i) for i in view.free), Fraction(0))


def expectation(f: BoolFunc, fixed: dict[int, int] | None = None) -> Fraction:
    view = view_at(f, fixed)
    return Fraction(view.ones, view.size)


def bias(f: BoolFunc, fixed: dict[int, int] | None = None) -> Fraction:
    """min(E, 1 - E): the error of the best constant on the subcube."""
    e = expectation(f, fixed)
    return min(e, 1 - e)


def influence(f: BoolFunc, fixed: dict[int, int] | None, i: int) -> Fraction:
    """Pr[f(x) != f(x with x_i flipped)] for x uniform on the subcube."""
    return _influence(view_at(f, fixed), i)


def correlation(f: BoolFunc, fixed: dict[int, int] | None, i: int) -> Fraction:
    """E[f(x) x_i] for x uniform on the subcube."""
    view = view_at(f, fixed)
    hi, lo = view.split(i)
    return Fraction(hi.ones - lo.ones, view.size)


def total_influence(f: BoolFunc, fixed: dict[int, int] | None = None) -> Fraction:
    return _total_influence(view_at(f, fixed))


# ---------------------------------------------------------------------------
# tree readers
# ---------------------------------------------------------------------------


def label_leaves(t: PartialTree, labels) -> DecisionTree:
    """t with its leaves labeled in preorder (leaf-id order) by labels."""
    labels = list(labels)
    if len(labels) != size(t):
        raise ValueError(f"{size(t)} leaves but {len(labels)} labels")
    it = iter(labels)

    def walk(node):
        if isinstance(node, Leaf):
            return Leaf(next(it))
        return Internal(node.coord, node.theta, walk(node.hi), walk(node.lo))

    return DecisionTree(walk(t.root))


def complete(t: PartialTree, f: BoolFunc) -> DecisionTree:
    """Label every leaf with round(E[f on that subcube]); E = 1/2 rounds to 1."""
    return label_leaves(t, [int(2 * v.ones >= v.size) for _, _, v in treemod.leaf_views(t, f)])


def g_impurity(t, f: BoolFunc, spec) -> float:
    """sum over leaves of 2^-|l| * G(E[f_l]), summed in DFS preorder."""
    total = 0.0
    for _, depth, view in treemod.leaf_views(t, f):
        total += math.ldexp(evaluate(spec, Fraction(view.ones, view.size)), -depth)
    return total


def influence_potential(t, f: BoolFunc) -> Fraction:
    """sum over leaves of 2^-|l| * Inf(f_l), with Inf the total influence."""
    total = Fraction(0)
    for _, depth, view in treemod.leaf_views(t, f):
        total += Fraction(1, 1 << depth) * _total_influence(view)
    return total


# ---------------------------------------------------------------------------
# hard-instance fixtures
# ---------------------------------------------------------------------------


def hard_expectation(h, fixed: dict[int, int] | None = None) -> Fraction:
    """E[f] on the subcube, read off the cursor's closed form."""
    cursor = _restrict(h.root_cursor(), fixed)
    return Fraction(cursor.ones, cursor.size)


def hard_influence(h, fixed: dict[int, int] | None, i: int) -> Fraction:
    """Inf_i(f) on the subcube, from the Fraction closed form."""
    return ref_influence(h, ref_state(h, fixed or {}), i)


def ref_state(h, fixed: dict[int, int]) -> tuple[tuple, int, int]:
    """(live, u, sigma) of the restriction fixed = {coord: +-1}: each term's
    free count (None once a coordinate is -1), the free y's and the fixed
    y's sum."""
    p = h.params
    live = tuple(
        None if -1 in (vals := [fixed.get(c) for c in p.term_coords(j)]) else vals.count(None)
        for j in range(1, p.m + 1)
    )
    ys = [fixed[c] for c in h.y_coords() if c in fixed]
    return live, h.k - len(ys), sum(ys)


@functools.lru_cache(maxsize=None)
def _ref_misses(h, live) -> tuple[Fraction, Fraction]:
    """(Pr[not T'], Pr[not T]) for the live counts."""

    def miss(terms):
        out = Fraction(1)
        for free in terms:
            if free is not None:
                out *= 1 - Fraction(1, 1 << free)
        return out

    qp = miss(live[: h.params.m_prime])
    return qp, qp * miss(live[h.params.m_prime :])


@functools.lru_cache(maxsize=None)
def ref_maj(u: int, sigma: int) -> Fraction:
    """Pr[sigma + (sum of u fresh signs) > 0], summed term by term."""
    t0 = max(0, (u - sigma) // 2 + 1)
    return Fraction(sum(math.comb(u, t) for t in range(t0, u + 1)), 1 << u)


def _ref_tie(u: int, sigma: int) -> Fraction:
    """Pr[sigma + (sum of u fresh signs) == 0]."""
    t = (u - sigma) // 2
    return Fraction(0) if (u - sigma) % 2 or not 0 <= t <= u else Fraction(math.comb(u, t), 1 << u)


def ref_expectation(h, fixed: dict[int, int]) -> Fraction:
    live, u, sigma = ref_state(h, fixed)
    qp, q = _ref_misses(h, live)
    return (1 - qp) + (qp - q) * ref_maj(u, sigma)


def ref_influence(h, state, coord: int) -> Fraction:
    """Inf_coord(f) on the restriction with ref_state `state`: the
    probability that flipping coord changes f."""
    p = h.params
    live, u, sigma = state
    if coord > p.ell:
        # a y flip matters iff T holds, T' fails and the other y's tie
        qp, q = _ref_misses(h, live)
        return (qp - q) * _ref_tie(u - 1, sigma)
    j = (coord - 1) // p.w
    if j >= p.m or live[j] is None:
        return Fraction(0)  # slack coordinate, or its term is dead
    # the term's other free coordinates are +1 (the pivot), and then a
    # prime term's flip matters unless another prime term fires, or a plain
    # one fires with a positive majority; a plain term's iff no other term
    # fires and the majority is positive
    a, b = _ref_misses(h, live[:j] + (None,) + live[j + 1 :])
    pivot, mp = Fraction(1, 1 << (live[j] - 1)), ref_maj(u, sigma)
    return pivot * (b + (a - b) * (1 - mp)) if j < p.m_prime else pivot * b * mp


def hard_table(h) -> BoolFunc:
    """The instance's truth table; refuses arity beyond the table cap.

    With the y's fixed, f is T where Maj_k(y) = 1 and T' elsewhere, so the
    table is one 2^ell-bit block per y index (x bits are the low index bits).
    """
    if h.arity > MAX_ARITY:
        raise ValueError(f"arity {h.arity} exceeds the truth-table cap {MAX_ARITY}")
    p = h.params
    terms = [p.term_coords(j) for j in range(1, p.m + 1)]
    width = f"0{1 << p.ell}b"
    t_full = format(from_dnf(p.ell, terms).table, width)
    t_prime = format(from_dnf(p.ell, terms[: p.m_prime]).table, width)
    # int(bits, 2) reads the highest y block first
    blocks = (t_full if 2 * y.bit_count() > h.k else t_prime for y in reversed(range(1 << h.k)))
    return BoolFunc(h.arity, int("".join(blocks), 2))


def coordinate_points(h, count: int, rng):
    """count points as (x, f(x)), x_i = +1 iff rng.random() < 0.5, one call
    per coordinate: the stream labeled_points draws in batches."""
    for _ in range(count):
        x = [1 if rng.random() < 0.5 else -1 for _ in range(h.arity)]
        yield x, hard_evaluate(h, x)


def trace_of(t: DecisionTree, draw_label) -> GrowthTrace:
    """A trace whose splits build t in preorder: tree_at(trace, size(t)) == t.

    The splits follow t's internal nodes in preorder, so a split's open
    leaves before its node are t's leaves before it, and their count is
    its leaf_id; its node is the id its parent's step gave it (the root
    is 0, and step i makes hi 2i - 1 and lo 2i).  A child that t splits later is created with the label
    draw_label() returns, a leaf of t with its own label.  Every exact
    field is a placeholder: mc_check reads only the structure and labels.
    """
    steps = []

    def created(node) -> int:
        return node.label if isinstance(node, Leaf) else draw_label()

    def walk(node, v: int, leaves_before: int) -> int:
        """Append the splits of node, numbered v; return the leaves of t up to and in it."""
        if isinstance(node, Leaf):
            return leaves_before + 1
        i = len(steps) + 1
        steps.append(
            TraceStep(
                iteration=i,
                leaf_id=leaves_before,
                node=v,
                coord=node.coord,
                theta=node.theta,
                gain=0.0,
                g_impurity=None,
                u_f=None,
                distance=Fraction(0),
                hi_label=created(node.hi),
                lo_label=created(node.lo),
            )
        )
        return walk(node.lo, 2 * i, walk(node.hi, 2 * i - 1, leaves_before))

    initial_label = created(t.root)
    walk(t.root, 0, 0)
    return GrowthTrace("impurity", Fraction(0), None, None, Fraction(0), initial_label, steps)


def terms_boolfunc(h) -> BoolFunc:
    """T as a function on the full arity (ignores the y block)."""
    return from_dnf(h.arity, [h.params.term_coords(j) for j in range(1, h.params.m + 1)])


def terms_tree(params) -> DecisionTree:
    """A decision tree computing T: chained term tests, a failed one falls through."""
    return chain_tree([params.term_coords(j) for j in range(1, params.m + 1)])


def terms_tree_size(params) -> int:
    leaves = 1
    for _ in range(params.m):
        leaves = params.w * leaves + 1
    return leaves


def encode_point(x, w: int) -> tuple[int, ...]:
    """Concatenated coordinate encodings: real coord i owns bits (i-1)w+1..iw."""
    return tuple(b for v in x for b in encode(v, w))


def depth(t) -> int:
    """The longest root-to-leaf path of t, read off every leaf's path."""
    return max((info.depth for info in treemod.leaves(t)), default=0)


def _leaf_box(info) -> dict[int, tuple[Fraction, Fraction]]:
    """A threshold leaf's box in [0,1]^n: coord -> [lo, hi), thresholds clamped."""
    box = {}
    for step in info.path:
        theta = min(Fraction(1), max(Fraction(0), Fraction(step.theta)))
        lo, hi = box.get(step.coord, (Fraction(0), Fraction(1)))
        box[step.coord] = (max(lo, theta), hi) if step.side == 1 else (lo, min(hi, theta))
    return box


def box_disagreement(t1: DecisionTree, t2: DecisionTree) -> Fraction:
    """Pr[t1(x) != t2(x)] for x uniform on [0,1]^n: over every pair of leaves
    with different labels, the volume of their boxes' intersection."""
    total = Fraction(0)
    for a in treemod.leaves(t1):
        for b in treemod.leaves(t2):
            if a.node.label == b.node.label:
                continue
            box_a, box_b = _leaf_box(a), _leaf_box(b)
            volume = Fraction(1)
            for coord in box_a.keys() | box_b.keys():
                lo_a, hi_a = box_a.get(coord, (0, 1))
                lo_b, hi_b = box_b.get(coord, (0, 1))
                volume *= max(0, min(hi_a, hi_b) - max(lo_a, lo_b))
            total += volume
    return total


# ---------------------------------------------------------------------------
# the exact oracle's old search, and tree enumeration
# ---------------------------------------------------------------------------


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
