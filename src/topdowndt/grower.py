"""Greedy top-down tree growth with exact per-iteration accounting.

Every grower in the package runs one loop, _greedy: split the leaf with
the best score, repeat until the leaf budget is spent.  It works on leaf
states (see _LeafState for the protocol); grow() runs it over cursor
leaves, realvalued.grow_real() over sample leaves.  The loop records
each split in the trace: the node it splits, numbered as nodes are made
(the root is 0, and step i makes hi 2i - 1 and lo 2i), and its children's
majority labels.  tree_at() rebuilds the tree at any size from that
record; the loop's own result is tree_at() at the final size.  The loop
is deterministic and the budget only stops it, so a budget-b trace is any
longer run's first b - 1 steps with the same initial fields.

Two split rules drive grow():

  * impurity rule: split the (leaf, coordinate) pair maximizing the purity
    gain  2^-|l| * ( G(E[f_l]) - E_b[ G(E[f_l restricted to x_i=b]) ] ),
    i.e. the decrease of the G-impurity potential
    sum over leaves of 2^-|l| * G(E[f_l]).
  * influence rule: split the leaf maximizing 2^-|l| * Inf_i(f_l) on its
    most influential free coordinate i.

Candidates are scanned leaves in preorder, then each leaf's candidates in
coordinate order (then threshold order), and a later candidate displaces
the leader only if it beats it by more than GAIN_TOL = 1e-12, or by any
amount under the influence rule, whose scores are exact rationals.  Pure
leaves (bias 0) are never split; they lose every argmax, and once nothing
splittable remains the loop halts regardless of the remaining budget.
With stop_on_zero_gain unset (the default) zero-gain splits of impure
leaves do happen, in tie-break order, until the leaf budget is spent.
The loop finds the leader from a sorted index of the leaves' scores (see
_greedy).

grow() runs on any function exposing the cursor interface below;
boolfn truth tables and the structured hard instances both do.  A
cursor views one leaf's restriction, a subcube of size = 2^free points,
and has four members: size, ones = E[f_l] * size, candidates() and
split(coord) -> (hi, lo).  candidates() gives one row per candidate
coordinate, in ascending coordinate order: (coord, members, hi ones, lo
ones, pairs), where hi and lo ones count the children's 1s over size / 2
each and pairs = Inf_i * size / 2 counts the pairs of points across the
coordinate on which f differs.  A row may stand for `members` free
coordinates in all: the larger free ones whose children equal its own.
Such a coordinate scores exactly what the row scored, and the leader's
score only rises during the scan, so it could never displace the leader:
skipping it leaves the pick unchanged.  A table cursor lists every free
coordinate, members 1; the hard-instance cursor one per orbit.

Growth is monitored: every iteration appends a TraceStep carrying the
exact distance of the f-completion, the impurity potential, and the
influence potential  u(T) = sum over leaves of 2^-|l| * Inf(f_l)  (total
influence of the leaf's subfunction).  The loop keeps the exact terms as
integers over the run's one denominator, scale (2^n for a cursor, N for
a sample), and builds a Fraction only for what the trace records.
verify_split_inequalities() then replays the per-step guarantees for
monotone truth-table targets:

  step 0:        G-impurity = G(E[f]) <= 1
  every step:    distance <= G-impurity
  chosen split:  gain >= 2^-|l| * (kappa/32) * Inf_i(f_l)^2
  while distance > opt_s + eps (budget-s oracle optimum):
                 gain > kappa * eps^2 / (32 * j * (log2 s)^2)
                 at the j-th split (j = size of the tree before it).

The kappa/32 constant is the one the guarantees are stated with.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .boolfn import BoolFunc, SubcubeView, is_monotone
from .impurity import ImpuritySpec, evaluate
from .tree import DecisionTree, from_splits

GAIN_TOL = 1e-12
CHECK_TOL = 1e-12


# ---------------------------------------------------------------------------
# cursor interface
# ---------------------------------------------------------------------------


class TableCursor:
    """Cursor over a boolfn truth table: the grower's view of one leaf.

    candidates() reads every free coordinate's row from one
    SubcubeView.coord_counts(); pairs is the XOR popcount of the halves,
    since a table need not be monotone.
    """

    __slots__ = ("view", "size", "ones")

    def __init__(self, view: SubcubeView):
        self.view = view
        self.size = view.size
        self.ones = view.ones

    def candidates(self) -> list[tuple[int, int, int, int, int]]:
        counts = self.view.coord_counts()
        return sorted(zip(self.view.free, repeat(1), counts[0::3], counts[1::3], counts[2::3]))

    def split(self, coord: int) -> tuple["TableCursor", "TableCursor"]:
        hi, lo = self.view.split(coord)
        return TableCursor(hi), TableCursor(lo)


def _root_cursor(f) -> "TableCursor":
    if isinstance(f, BoolFunc):
        return TableCursor(SubcubeView.of_function(f))
    maker = getattr(f, "root_cursor", None)
    if maker is None:
        raise TypeError(f"cannot grow on {type(f).__name__}: no cursor interface")
    return maker()


# ---------------------------------------------------------------------------
# configuration and trace types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monitor:
    """Parameters for the per-iteration split-gain guarantee."""

    s: int
    eps: Fraction
    opt_s: Fraction

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("monitor needs s >= 2 (log2 s must be positive)")
        eps = self.eps
        if not isinstance(eps, Fraction):
            object.__setattr__(self, "eps", Fraction(eps).limit_denominator(10**9))
            if self.eps == 0 < eps:
                raise ValueError(f"epsilon {eps:g} is below the monitor's resolution 1e-9")
        if not isinstance(self.opt_s, Fraction):
            object.__setattr__(self, "opt_s", Fraction(self.opt_s))
        if self.eps <= 0:
            raise ValueError("monitor eps must be positive")


@dataclass(frozen=True)
class GrowthConfig:
    budget: int
    impurity: ImpuritySpec | None = None  # None selects the influence rule
    stop_on_zero_gain: bool = False

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("leaf budget must be >= 1")

    @property
    def rule(self) -> str:
        return "impurity" if self.impurity is not None else "influence"


@dataclass(frozen=True)
class TraceStep:
    iteration: int  # 1-based split index; tree size before the split is `iteration`
    leaf_id: int  # DFS preorder id in the pre-split tree
    coord: int
    theta: float | None
    gain: float  # purity gain, or float(score) under the influence rule
    g_impurity: float | None  # potential after the split (None: influence rule)
    u_f: Fraction | None  # influence potential after the split
    distance: Fraction  # exact distance of the f-completion after the split
    # not part of the CSV schema: the node split (the root is 0, and step i
    # makes hi 2i - 1 and lo 2i) and its children's majority labels, from
    # which tree_at rebuilds the tree; then verification extras
    node: int = field(repr=False)
    hi_label: int = field(repr=False, default=0)
    lo_label: int = field(repr=False, default=0)
    inf_split: Fraction | None = field(repr=False, default=None)
    median_split: bool | None = field(repr=False, default=None)


@dataclass
class GrowthTrace:
    mode: str  # "impurity" | "influence" | "real-empirical" (grow_real on a sample)
    initial_expectation: Fraction
    initial_g_impurity: float | None
    initial_u_f: Fraction | None
    initial_distance: Fraction
    initial_label: int  # majority label of the root
    steps: list[TraceStep] = field(default_factory=list)
    stop_reason: str = "budget"
    threshold_policy: str | None = None  # real-valued runs record their grid here

    @property
    def final_size(self) -> int:
        return 1 + len(self.steps)

    def final_distance(self) -> Fraction:
        return self.steps[-1].distance if self.steps else self.initial_distance

    def distances(self) -> list[Fraction]:
        """Exact distance of the completion at sizes 1..final_size, in order."""
        return [self.initial_distance, *(st.distance for st in self.steps)]


# ---------------------------------------------------------------------------
# the growth loop
# ---------------------------------------------------------------------------


class _LeafState:
    """A leaf over a cursor (truth table or hard instance), for _greedy.

    The leaf-state protocol, whose one other implementor is realvalued's
    _SampleLeaf: active; score, the selection key (best_gain under an
    impurity, the exact 2^-depth * Inf_i under the influence rule); the
    best split best_gain, best_coord, best_theta, best_median; err, the
    error mass of the majority label, and u_term, the influence-potential
    term (None when untracked); g_term, the float G-impurity term; label;
    scale and expectation (read at the root only, as is g_term);
    inf_split, the TraceStep extra; and children(), called once, on the
    leaf being split.  The exact terms err and u_term, and an exact score,
    are integer numerators over the run's one denominator scale.  A leaf's
    path and depth are not part of it: the trace's node ids fix them (see
    _split_paths).

    Here scale = 2^n (free + depth = n at every leaf), so err is
    min(ones, size - ones), and the leaf is active exactly when err != 0.
    An active leaf reads its cursor's candidates() once: the gain scan
    reads each row's hi and lo ones; 2 * pairs is Inf_i * size, the
    influence rule's score (2^-depth * Inf_i * scale) and, on the chosen
    row, inf_split's numerator; u_term, total influence times size, is
    2 * the sum of members * pairs.  A constant leaf's influences are all 0.
    """

    __slots__ = (
        "cursor",
        "spec",
        "depth",
        "ones",
        "label",
        "err",
        "g_term",
        "u_term",
        "active",
        "score",
        "best_gain",
        "best_coord",
        "best_inf",
        "inf_split",
    )

    best_theta = None
    best_median = None

    def __init__(self, cursor, depth: int, spec: ImpuritySpec | None):
        self.cursor = cursor
        self.spec = spec
        self.depth = depth
        self.inf_split = None
        size = cursor.size
        self.ones = ones = cursor.ones
        self.label = 1 if 2 * ones >= size else 0
        self.err = min(ones, size - ones)
        self.active = self.err != 0
        # G(E[f_l]) is read by the gain scan and, at the root, by _greedy;
        # int / int is correctly rounded, so it is G(float(E[f_l]))
        g_here = None
        if spec is not None and (self.active or depth == 0):
            g_here = evaluate(spec, ones / size)
        self.g_term = None if g_here is None else math.ldexp(g_here, -depth)
        self.score = self.best_gain = -math.inf
        self.best_coord = self.best_inf = None
        if not self.active:
            self.u_term = 0
            return
        rows = cursor.candidates()
        self.u_term = 2 * sum(members * pairs for _, members, _, _, pairs in rows)
        best = -math.inf
        if spec is not None:
            half = size >> 1
            for coord, _, hi, lo, pairs in rows:
                # int / int is correctly rounded: the float of the exact ratio
                local = g_here - 0.5 * (evaluate(spec, hi / half) + evaluate(spec, lo / half))
                gain = math.ldexp(local, -depth)
                if gain > best + GAIN_TOL:
                    best, self.best_coord, self.best_inf = gain, coord, 2 * pairs
            self.score = self.best_gain = best
        else:
            for coord, _, _, _, pairs in rows:
                if 2 * pairs > best:
                    best, self.best_coord = 2 * pairs, coord
            self.score = self.best_inf = best
            # the gain column records the score's float value
            self.best_gain = best / (size << depth)

    @property
    def scale(self) -> int:
        return self.cursor.size << self.depth

    @property
    def expectation(self) -> Fraction:
        return Fraction(self.ones, self.cursor.size)

    def children(self) -> tuple["_LeafState", "_LeafState"]:
        cursor = self.cursor
        self.inf_split = Fraction(self.best_inf, cursor.size)
        hi_cur, lo_cur = cursor.split(self.best_coord)
        depth = self.depth + 1
        return _LeafState(hi_cur, depth, self.spec), _LeafState(lo_cur, depth, self.spec)


def _key(st) -> float | int:
    """A leaf's place in the score index: its score when the scan could pick
    it (active, score > -inf; NaN never is), else -inf."""
    return st.score if st.active and st.score > -math.inf else -math.inf


def _scan(states, tol) -> int:
    """The leader rule itself: the index of the first active leaf in preorder
    whose score beats the best so far by more than tol (-1 if none does)."""
    best_idx = -1
    bar = -math.inf
    for idx, st in enumerate(states):
        if st.active and st.score > bar:
            bar = st.score + tol
            best_idx = idx
    return best_idx


def _greedy(
    root, cfg: GrowthConfig, mode: str, threshold_policy: str | None = None
) -> tuple[DecisionTree, GrowthTrace]:
    """The greedy loop every grower runs: split the best leaf until the budget.

    root is a leaf state (see _LeafState).  The leader is the first active
    leaf in preorder whose score beats the best so far by more than
    GAIN_TOL, or, under the influence rule, by any amount (its scores are
    exact); _scan states the rule.  The loop finds it from a sorted index
    of the leaves' keys (see _key), kept beside the preorder list.  Let M
    be the top key and r the largest key below it.  When r + tol < M, no
    leaf ahead of the first M-scored one can raise the scan's bar to M, and
    none after it can beat M + tol, so the leader is the first leaf in
    preorder with key M.  Otherwise, only for that step, the loop runs
    _scan.  Under the influence rule tol is 0 and the test always holds.
    """
    scale = root.scale
    g_imp, u_num, err = root.g_term, root.u_term, root.err
    trace = GrowthTrace(
        mode=mode,
        initial_expectation=root.expectation,
        initial_g_impurity=g_imp,
        initial_u_f=None if u_num is None else Fraction(u_num, scale),
        initial_distance=Fraction(err, scale),
        initial_label=root.label,
        threshold_policy=threshold_policy,
    )
    tol = 0 if mode == "influence" else GAIN_TOL
    states = [root]
    keys = [_key(root)]  # in preorder, beside states
    nodes = [0]  # the node ids, in preorder, beside states
    ranked = keys[:]  # the same keys, ascending
    steps = trace.steps

    while 1 + len(steps) < cfg.budget:
        top = ranked[-1]
        if top == -math.inf:
            trace.stop_reason = "no-candidates"
            break
        below = bisect_left(ranked, top)
        if below == 0 or ranked[below - 1] + tol < top:
            best_idx = keys.index(top)
        else:
            best_idx = _scan(states, tol)
        st = states[best_idx]
        if cfg.stop_on_zero_gain and st.best_gain <= GAIN_TOL:
            trace.stop_reason = "zero-gain"
            break

        hi, lo = st.children()
        err += hi.err + lo.err - st.err
        if u_num is not None:
            u_num += hi.u_term + lo.u_term - st.u_term
        if g_imp is not None:
            g_imp = g_imp - st.best_gain  # telescoping: potential drops by the gain
        states[best_idx : best_idx + 1] = [hi, lo]
        del ranked[bisect_left(ranked, keys[best_idx])]
        hi_key, lo_key = _key(hi), _key(lo)
        keys[best_idx : best_idx + 1] = [hi_key, lo_key]
        insort(ranked, hi_key)
        insort(ranked, lo_key)
        i = len(steps) + 1
        node = nodes[best_idx]
        nodes[best_idx : best_idx + 1] = [2 * i - 1, 2 * i]

        steps.append(
            TraceStep(
                iteration=i,
                leaf_id=best_idx,
                node=node,
                coord=st.best_coord,
                theta=st.best_theta,
                gain=st.best_gain,
                g_impurity=g_imp,
                u_f=None if u_num is None else Fraction(u_num, scale),
                distance=Fraction(err, scale),
                hi_label=hi.label,
                lo_label=lo.label,
                inf_split=st.inf_split,
                median_split=st.best_median,
            )
        )

    return tree_at(trace, trace.final_size), trace


def tree_at(trace: GrowthTrace, size: int) -> DecisionTree:
    """The grown tree when it first had `size` leaves, labeled by majority.

    Builds the trace's first size - 1 splits by node id; at the final size
    this is the tree the grower returned (the f-completion for binary
    growth).
    """
    if not 1 <= size <= trace.final_size:
        raise ValueError(f"size must be in 1..{trace.final_size}, got {size}")
    steps = trace.steps[: size - 1]
    labels = [trace.initial_label]
    for st in steps:
        labels += (st.hi_label, st.lo_label)
    return from_splits([(st.node, st.coord, st.theta) for st in steps], labels)


def _split_paths(trace: GrowthTrace):
    """Each step with the (coord, side) path of the node it split."""
    paths = [()]  # paths[v]: node v's path
    for st in trace.steps:
        path = paths[st.node]
        paths += (path + ((st.coord, 1),), path + ((st.coord, -1),))
        yield st, path


def grow(f, cfg: GrowthConfig) -> tuple[DecisionTree, GrowthTrace]:
    """Run top-down growth to the leaf budget; return (f-completion, trace)."""
    return _greedy(_LeafState(_root_cursor(f), 0, cfg.impurity), cfg, cfg.rule)


# ---------------------------------------------------------------------------
# per-iteration guarantee verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationCheck:
    iteration: int
    gain: float
    monitored: bool  # distance before the split exceeded opt_s + eps
    score_bound: float | None  # kappa eps^2 / (32 j (log2 s)^2) when monitored
    score_ok: bool
    claim3_bound: float  # 2^-depth * (kappa/32) * Inf^2  (gates)
    claim3_ok: bool
    claim2_ok: bool  # distance <= G-impurity after this split

    @property
    def ok(self) -> bool:
        return self.score_ok and self.claim3_ok and self.claim2_ok


@dataclass
class SplitInequalityReport:
    claim1_ok: bool
    initial_claim2_ok: bool
    checks: list[IterationCheck]
    monitored_count: int

    @property
    def first_failure(self) -> IterationCheck | str | None:
        """The first check that fails, in order: "claim1", then
        "initial-claim2", then the first failing iteration's check (its
        bounds and measured gain); None when every check passes."""
        if not self.claim1_ok:
            return "claim1"
        if not self.initial_claim2_ok:
            return "initial-claim2"
        return next((c for c in self.checks if not c.ok), None)

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def verify_split_inequalities(
    trace: GrowthTrace,
    f: BoolFunc,
    spec: ImpuritySpec,
    monitor: Monitor,
) -> SplitInequalityReport:
    """Check the recorded growth against the per-step guarantees.

    monitor holds s, eps and the budget-s optimum opt_s.  Guarantees
    hold for monotone targets only; f must be a monotone truth table (the
    monitor's opt_s comes from the table oracle), anything else is refused.
    """
    if trace.mode != "impurity":
        raise ValueError("split inequalities apply to impurity-rule traces")
    if not isinstance(f, BoolFunc) or not is_monotone(f):
        raise ValueError("refused: target is not a monotone truth table")

    g0 = trace.initial_g_impurity
    claim1_ok = abs(g0 - evaluate(spec, trace.initial_expectation)) <= CHECK_TOL
    claim1_ok = claim1_ok and g0 <= 1.0 + CHECK_TOL
    initial_claim2_ok = float(trace.initial_distance) <= g0 + CHECK_TOL

    log2s_sq = math.log2(monitor.s) ** 2
    eps_f = float(monitor.eps)
    threshold = monitor.opt_s + monitor.eps

    checks = []
    monitored_count = 0
    distances = trace.distances()
    for st, path in _split_paths(trace):
        monitored = distances[st.iteration - 1] > threshold  # distance before the split
        if monitored:
            monitored_count += 1
            bound = spec.kappa * eps_f * eps_f / (32.0 * st.iteration * log2s_sq)
            score_ok = st.gain > bound
        else:
            bound = None
            score_ok = True
        inf_sq = float(st.inf_split) ** 2
        b32 = math.ldexp(spec.kappa / 32.0 * inf_sq, -len(path))
        claim3_ok = st.gain >= b32 - CHECK_TOL
        claim2_ok = float(st.distance) <= st.g_impurity + CHECK_TOL
        checks.append(
            IterationCheck(
                iteration=st.iteration,
                gain=st.gain,
                monitored=monitored,
                score_bound=bound,
                score_ok=score_ok,
                claim3_bound=b32,
                claim3_ok=claim3_ok,
                claim2_ok=claim2_ok,
            )
        )
    return SplitInequalityReport(claim1_ok, initial_claim2_ok, checks, monitored_count)


def rule_agreement(trace_a: GrowthTrace, trace_b: GrowthTrace) -> tuple[int, list]:
    """Compare the coordinate chosen at every subcube split by both runs.

    Returns (number of common subcubes, list of disagreements).
    """
    a, b = ({frozenset(path): st.coord for st, path in _split_paths(t)} for t in (trace_a, trace_b))
    common = a.keys() & b.keys()
    mismatches = [(key, a[key], b[key]) for key in common if a[key] != b[key]]
    return len(common), mismatches
