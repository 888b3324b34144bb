import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import boolfn
from topdowndt import tree as treemod
from topdowndt.boolfn import SubcubeView, is_monotone
from topdowndt.grower import GrowthConfig, TableCursor, grow, tree_at
from topdowndt.hardinstance import (
    MAX_HARD_ARITY,
    SAMPLE_BATCH,
    HardInstance,
    _maj_count,
    _misses,
    choose_params,
    evaluate,
    labeled_points,
    lower_bound_experiment,
    mc_check,
    tribes_params,
    xi_cutoff,
)
from topdowndt.impurity import BUILTIN_NAMES, builtin
from topdowndt.tree import DecisionTree, Internal, Leaf

from reference import (
    coordinate_points,
    expectation,
    hard_expectation,
    hard_influence,
    hard_table,
    influence,
    point_of,
    ref_expectation,
    ref_influence,
    ref_maj,
    ref_state,
    terms_boolfunc,
    terms_tree,
    terms_tree_size,
    total_influence,
    trace_of,
    value_at,
    with_tree,
)


class TestTribesParams:
    def test_ell8_layout(self):
        p = tribes_params(8)
        assert (p.w, p.m, p.m_prime) == (2, 4, 2)
        assert p.p_full == Fraction(175, 256)  # 1 - (3/4)^4
        assert p.p_prime == Fraction(7, 16)
        assert p.p_rest == Fraction(63, 256)

    def test_ell4_layout(self):
        p = tribes_params(4)
        assert (p.w, p.m, p.m_prime) == (2, 2, 1)
        assert p.p_full == Fraction(7, 16)
        assert p.p_prime == Fraction(1, 4)

    def test_term_coords_partition(self):
        p = tribes_params(8)
        assert p.term_coords(1) == (1, 2)
        assert p.term_coords(4) == (7, 8)
        flat = [c for j in range(1, p.m + 1) for c in p.term_coords(j)]
        assert flat == list(range(1, p.m * p.w + 1))
        with pytest.raises(ValueError):
            p.term_coords(5)

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            tribes_params(1)


class TestInstanceBasics:
    def test_expectation_anchor(self):
        h = choose_params(8, 3)
        # Pr[T'] + Pr[T and not T'] / 2
        assert h.expectation == Fraction(287, 512)
        assert h.arity == 11
        assert list(h.y_coords()) == [9, 10, 11]

    def test_root_y_influence(self):
        h = choose_params(8, 3)
        # a y coordinate matters iff T holds, T' fails, and the other two
        # majority votes are split
        assert hard_influence(h, None, 9) == Fraction(63, 512)
        assert hard_influence(h, None, 10) == hard_influence(h, None, 9)

    def test_root_influences_out_of_regime(self):
        # ell=8, k=63: f is monotone, so a split on i leaves children with
        # means E[f] +- Inf_i/2 and every concave impurity gains most on the
        # most influential coordinate.  The x's dominate, so greedy resolves
        # the terms first and nothing lures it into the y block.
        h = choose_params(8, 63)
        # prime terms 1-2 (coordinates 1-4), plain terms 3-4 (coordinates 5-8)
        assert [hard_influence(h, None, i) for i in range(1, 5)] == [Fraction(75, 256)] * 4
        assert [hard_influence(h, None, i) for i in range(5, 9)] == [Fraction(27, 256)] * 4
        # rest event times a tie among the other 62 votes
        y_inf = Fraction(63, 256) * Fraction(math.comb(62, 31), 1 << 62)
        assert all(hard_influence(h, None, i) == y_inf for i in h.y_coords())
        assert max(hard_influence(h, None, i) for i in range(1, 9)) > y_inf

    def test_root_influences_at_regime_boundary(self):
        # ell=44, k=63, the least ell in the regime for k=63: 10 of the 11
        # width-4 terms are prime, the y block holds Pr[T and not T'] ~ 0.033
        # of the mass, and the x's still outweigh every y at the root
        h = choose_params(44, 63)
        p = h.params
        assert (p.w, p.m, p.m_prime) == (4, 11, 10)
        y_inf = p.p_rest * Fraction(math.comb(62, 31), 1 << 62)
        assert all(hard_influence(h, None, i) == y_inf for i in h.y_coords())
        assert max(hard_influence(h, None, i) for i in range(1, 45)) > y_inf

    def test_distance_to_terms(self):
        h = choose_params(8, 3)
        assert h.distance_to_terms == Fraction(63, 512)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_params(8, 4)  # even k
        with pytest.raises(ValueError):
            choose_params(8, -1)

    def test_arity_cap_checked_before_tribes_params(self, monkeypatch):
        assert choose_params(8, MAX_HARD_ARITY - 9).arity == MAX_HARD_ARITY - 1
        monkeypatch.setattr(
            "topdowndt.hardinstance.tribes_params",
            lambda ell: pytest.fail("tribes_params ran before the arity check"),
        )
        with pytest.raises(ValueError, match=f"{MAX_HARD_ARITY + 1} exceeds the cap {MAX_HARD_ARITY}"):
            choose_params(8, MAX_HARD_ARITY - 7)

    def test_shape_condition(self):
        assert choose_params(8, 3).shape_satisfied
        assert not choose_params(8, 63).shape_satisfied
        # the least ell in the regime for k=63, where acceptance criterion 8 runs
        assert not choose_params(43, 63).shape_satisfied
        assert choose_params(44, 63).shape_satisfied


@pytest.fixture(scope="module")
def pair():
    h = choose_params(4, 3)
    return h, hard_table(h)


class TestAgainstEnumeration:
    """ell=4, k=3 is small enough to materialize the full truth table."""

    def test_pointwise_evaluation(self, pair):
        h, F = pair
        for idx in range(1 << h.arity):
            x = point_of(idx, h.arity)
            assert evaluate(h, x) == value_at(F, x)

    def test_materialized_is_monotone(self, pair):
        _, F = pair
        assert is_monotone(F)

    def test_expectation_matches(self, pair):
        h, F = pair
        assert h.expectation == expectation(F)

    def test_influences_match_at_root(self, pair):
        h, F = pair
        for i in range(1, h.arity + 1):
            assert hard_influence(h, None, i) == influence(F, None, i)
        cursor = h.root_cursor()
        u_num = 2 * sum(members * pairs for _, members, _, _, pairs in cursor.candidates())
        assert Fraction(u_num, cursor.size) == total_influence(F)

    @given(data=st.data())
    @settings(max_examples=50)
    def test_restricted_quantities_match(self, pair, data):
        h, F = pair
        n = h.arity
        k = data.draw(st.integers(0, 3))
        coords = data.draw(
            st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
        )
        vals = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
        fixed = dict(zip(coords, vals))
        assert hard_expectation(h, fixed) == expectation(F, fixed)
        free = sorted(set(range(1, n + 1)) - set(coords))
        for i in free:
            assert hard_influence(h, fixed, i) == influence(F, fixed, i)


@settings(max_examples=40, deadline=None)
@given(
    ell=st.integers(2, 10),
    k=st.sampled_from((1, 3, 5, 7)),
    data=st.data(),
)
def test_cursor_split_chains_match_table(ell, k, data):
    """Every cursor member, along random split chains, against the truth table."""
    h = choose_params(ell, k)
    n = h.arity
    cursor = h.root_cursor()
    F = hard_table(h)
    view = SubcubeView.of_function(F)
    fixed = {}
    steps = data.draw(st.integers(0, n))
    while True:
        free = tuple(sorted(view.free))
        assert free == tuple(c for c in range(1, n + 1) if cursor.free >> c & 1)
        assert (cursor.ones, cursor.size) == (view.ones, view.size)
        half = view.size >> 1
        reads = {}  # each free coordinate's children's ones and influence, from the table
        for c in free:
            hi, lo = view.split(c)
            reads[c] = hi.ones, lo.ones, influence(F, fixed, c)
        table_rows = TableCursor(view).candidates()
        assert [row[0] for row in table_rows] == list(free)
        for c, members, hi_ones, lo_ones, pairs in table_rows:
            assert (members, hi_ones, lo_ones, Fraction(pairs, half)) == (1, *reads[c])
        # one row per orbit: each free coordinate has a listed
        # representative at or below it with equal children and influence
        rows = cursor.candidates()
        reps = [row[0] for row in rows]
        assert reps == sorted(set(reps)) and set(reps) <= set(free)
        for c, _, hi_ones, lo_ones, pairs in rows:
            assert all(type(v) is int for v in (hi_ones, lo_ones, pairs))
            assert (hi_ones, lo_ones, Fraction(pairs, half)) == reads[c]
        for c in free:
            assert any(reads[r] == reads[c] for r in reps if r <= c), c
        u_num = 2 * sum(members * pairs for _, members, _, _, pairs in rows)
        assert Fraction(u_num, cursor.size) == total_influence(F, fixed)
        for c in (*fixed, -1, 0, n + 1):
            with pytest.raises(ValueError):
                cursor.split(c)
        if len(fixed) == steps:
            break
        c = data.draw(st.sampled_from(free))
        side = data.draw(st.sampled_from((0, 1)))  # 0: fix c to +1, 1: to -1
        cursor = cursor.split(c)[side]
        view = view.split(c)[side]
        fixed[c] = 1 - 2 * side


def _orbit(h, fixed, coord):
    """The free coordinates in coord's orbit, read off the assignment: the
    free y's, the free x's of coord's live term, or the inert x's (those of
    dead terms and the slack x's)."""
    p = h.params

    def term(c):  # the live term of x c, or None when x c is inert
        j = (c - 1) // p.w
        live = j < p.m and -1 not in (fixed.get(t) for t in p.term_coords(j + 1))
        return j if live else None

    free = [c for c in range(1, h.arity + 1) if c not in fixed]
    if coord > p.ell:
        return [c for c in free if c > p.ell]
    return [c for c in free if c <= p.ell and term(c) == term(coord)]


@settings(max_examples=30, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(2, 10), st.sampled_from((1, 3, 5, 7))),
        st.sampled_from(((44, 63), (8, 1015))),
    ),
    data=st.data(),
)
def test_split_ones_differ_by_the_influence(shape, data):
    """f is monotone, so Inf_i * size = 2 * (hi ones - lo ones) of split(i)
    for every free coordinate i, not only the orbit representatives.  The
    influence comes from the truth table where it fits (ell <= 10, k <= 7),
    else from the Fraction closed form.  Each row's members is the size of
    its orbit, and the rows' orbits partition the free coordinates."""
    h = choose_params(*shape)
    F = hard_table(h) if h.arity <= 17 else None
    cursor = h.root_cursor()
    fixed = {}
    steps = data.draw(st.integers(0, 6))
    while True:
        state = ref_state(h, fixed)
        free = [c for c in range(1, h.arity + 1) if c not in fixed]
        for c in free:
            hi, lo = cursor.split(c)
            want = influence(F, fixed, c) if F is not None else ref_influence(h, state, c)
            assert 2 * (hi.ones - lo.ones) == want * cursor.size, c
        rows = cursor.candidates()
        orbits = [_orbit(h, fixed, row[0]) for row in rows]
        assert sorted(c for orbit in orbits for c in orbit) == free
        for (c, members, *_), orbit in zip(rows, orbits):
            assert (c, members) == (orbit[0], len(orbit))
        if len(fixed) == steps:
            break
        c = data.draw(st.sampled_from(free))
        v = data.draw(st.sampled_from((1, -1)))
        cursor = cursor.split(c)[0 if v == 1 else 1]
        fixed[c] = v


def test_maj_count_matches_the_direct_sum():
    # every sigma from where no sign vector wins to where every one does
    for u in range(81):
        for sigma in range(-u - 1, u + 2):
            assert _maj_count(u, sigma) == ref_maj(u, sigma) * (1 << u)
    for sigma in range(-8, 9):  # a row as long as hard's largest k reaches
        assert _maj_count(1015, sigma) == ref_maj(1015, sigma) * (1 << 1015)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(((44, 7), (44, 63), (8, 63))), data=st.data())
def test_cursor_counts_match_fraction_reference(shape, data):
    """Split chains beyond the truth-table cap: every integer count the
    cursor returns equals the Fraction closed form times size."""
    h = choose_params(*shape)
    cursor = h.root_cursor()
    fixed = {}
    steps = data.draw(st.integers(0, 24))
    while True:
        size = cursor.size
        state = ref_state(h, fixed)
        assert size == 1 << (h.arity - len(fixed))
        assert cursor.ones == ref_expectation(h, fixed) * size
        rows = cursor.candidates()
        for c, _, hi_ones, lo_ones, pairs in rows:
            assert (hi_ones, lo_ones) == tuple(
                ref_expectation(h, {**fixed, c: v}) * (size >> 1) for v in (1, -1)
            )
            assert 2 * pairs == ref_influence(h, state, c) * size
        free = [c for c in range(1, h.arity + 1) if c not in fixed]
        total = sum(ref_influence(h, state, c) for c in free)
        assert 2 * sum(members * pairs for _, members, _, _, pairs in rows) == total * size
        if len(fixed) == steps:
            break
        c = data.draw(st.sampled_from(free))
        v = data.draw(st.sampled_from((1, -1)))
        cursor = cursor.split(c)[0 if v == 1 else 1]
        fixed[c] = v


@pytest.mark.parametrize("first", ["criterion-8", "choose-params"])
def test_misses_cache_is_shared_across_m_prime(first):
    """_misses caches by (m', live) for the process.  Criterion 8's
    instance (m' = 3, k = 7) and choose_params(44, 63) (m' = 10) share one
    terms layout, so the same split chain over the x's reaches the same
    live tuples on both; whichever grows first, each reads its own counts."""
    h63 = choose_params(44, 63)
    params = dataclasses.replace(
        h63.params, m_prime=3, p_prime=1 - (1 - Fraction(1, 1 << h63.params.w)) ** 3
    )
    h8 = HardInstance(params, 7)
    lives = []
    _misses.cache_clear()
    for h in (h8, h63) if first == "criterion-8" else (h63, h8):
        rng = random.Random(5)
        cursor, fixed = h.root_cursor(), {}
        seen = set()
        for _ in range(16):
            size, state = cursor.size, ref_state(h, fixed)
            seen.add(state[0])
            assert cursor.ones == ref_expectation(h, fixed) * size
            for c, _, hi_ones, lo_ones, pairs in cursor.candidates():
                assert (hi_ones, lo_ones) == tuple(
                    ref_expectation(h, {**fixed, c: v}) * (size >> 1) for v in (1, -1)
                )
                assert 2 * pairs == ref_influence(h, state, c) * size
            c = rng.choice([c for c in range(1, h.params.ell + 1) if c not in fixed])
            v = rng.choice((1, -1))
            cursor = cursor.split(c)[0 if v == 1 else 1]
            fixed[c] = v
        lives.append(seen)
    assert len(lives[0] & lives[1]) > 1


class TestMaterialization:
    """hard_table against the pointwise definition, evaluate."""

    SHAPES = [(ell, k) for ell in range(2, 14) for k in range(1, 15 - ell, 2)]

    @pytest.mark.parametrize("ell, k", SHAPES)
    def test_table_matches_evaluate_pointwise(self, ell, k):
        # every shape up to arity 14, including ell in {2, 3} (width 1, slack x's)
        h = choose_params(ell, k)
        F = hard_table(h)
        for idx in range(1 << h.arity):
            assert (F.table >> idx) & 1 == evaluate(h, point_of(idx, h.arity)), idx

    def test_arity_23_table_matches_evaluate_on_a_sample(self):
        h = choose_params(20, 3)
        F = hard_table(h)
        rng = boolfn.derived_rng(0, "hard-table-sample")
        for _ in range(2000):
            idx = rng.randrange(1 << h.arity)
            assert (F.table >> idx) & 1 == evaluate(h, point_of(idx, h.arity)), idx

    def test_refuses_arity_beyond_the_cap(self):
        with pytest.raises(ValueError):
            hard_table(choose_params(20, boolfn.MAX_ARITY - 19))


class TestTermsTree:
    def test_size_formula(self):
        for ell in (4, 6, 8, 12):
            p = tribes_params(ell)
            t = terms_tree(p)
            assert treemod.size(t) == terms_tree_size(p)

    def test_ell8_size_anchor(self):
        p = tribes_params(8)
        assert terms_tree_size(p) == 31

    def test_computes_the_terms_function(self):
        p = tribes_params(8)
        t = terms_tree(p)
        h = HardInstance(p, 3)
        T = terms_boolfunc(h)  # full arity; ignores the y block
        for idx in range(1 << p.ell):
            x = point_of(idx, p.ell) + (-1,) * h.k
            assert treemod.evaluate(t, x) == value_at(T, x)

    def test_distance_from_instance(self):
        h = choose_params(4, 3)
        F = hard_table(h)
        t = terms_tree(h.params)
        # pad the terms tree into the full arity by evaluating on x-part only
        errs = sum(
            treemod.evaluate(t, x) != value_at(F, x)
            for x in (point_of(i, h.arity) for i in range(1 << h.arity))
        )
        assert Fraction(errs, 1 << h.arity) == h.distance_to_terms


class TestGrowthEquivalence:
    def test_cursor_trace_matches_table_trace(self):
        h = choose_params(4, 3)
        F = hard_table(h)
        cfg = GrowthConfig(budget=12, impurity=builtin("gini"))
        t_h, trace_h = with_tree(grow(h, cfg))
        t_f, trace_f = with_tree(grow(F, cfg))
        assert [(s.leaf_id, s.coord) for s in trace_h.steps] == [
            (s.leaf_id, s.coord) for s in trace_f.steps
        ]
        assert [s.distance for s in trace_h.steps] == [s.distance for s in trace_f.steps]
        assert treemod.to_json(t_h) == treemod.to_json(t_f)

    def test_influence_rule_equivalence(self):
        h = choose_params(4, 3)
        F = hard_table(h)
        cfg = GrowthConfig(budget=8, impurity=None)
        trace_h = grow(h, cfg)
        trace_f = grow(F, cfg)
        assert [(s.leaf_id, s.coord) for s in trace_h.steps] == [
            (s.leaf_id, s.coord) for s in trace_f.steps
        ]


@settings(max_examples=80, deadline=None)
@given(
    ell=st.integers(2, 10),
    k=st.sampled_from((1, 3, 5, 7)),
    rule=st.sampled_from((*BUILTIN_NAMES, None)),
    data=st.data(),
)
def test_cursor_growth_matches_table_growth(ell, k, rule, data):
    """grow on the cursor, which scores one coordinate per orbit, against
    grow on the truth table, which scores every free coordinate."""
    h = choose_params(ell, k)
    budget = data.draw(st.integers(1, min(1 << h.arity, 512)), label="budget")
    cfg = GrowthConfig(budget=budget, impurity=builtin(rule) if rule else None)
    t_h, trace_h = with_tree(grow(h, cfg))
    t_f, trace_f = with_tree(grow(hard_table(h), cfg))

    def rows(trace):
        return [
            (s.leaf_id, s.coord, s.gain, s.g_impurity, s.u_f, s.distance) for s in trace.steps
        ]

    assert rows(trace_h) == rows(trace_f)
    assert trace_h.stop_reason == trace_f.stop_reason
    assert treemod.to_json(t_h) == treemod.to_json(t_f)


class TestXiCutoff:
    def test_anchors(self):
        assert xi_cutoff(1) == 0
        assert xi_cutoff(3) == 0
        assert xi_cutoff(15) == 1
        assert xi_cutoff(63) == 5


class TestLowerBoundExperiment:
    def test_small_instance_smoke(self):
        h = choose_params(4, 3)
        trace, (mc_estimate, mc_halfwidth, xi_fraction) = lower_bound_experiment(
            h, builtin("gini"), budget=8, mc_samples=4000, seed=1
        )
        assert (h.params.ell, h.k, h.params.w) == (4, 3, 2)
        curve = trace.distances()
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        # the estimate must sit near the exact distance
        exact = float(trace.final_distance())
        assert abs(mc_estimate - exact) <= 4 * mc_halfwidth
        assert 0.0 <= xi_fraction <= 1.0

    def test_influence_rule_runs(self):
        h = choose_params(4, 3)
        trace, _ = lower_bound_experiment(h, None, budget=4, mc_samples=500, seed=0)
        assert trace.final_size <= 4

    def test_exact_wins_at_full_budget(self):
        # budget 2^7 covers the whole cube, so growth must reach distance 0
        h = choose_params(4, 3)
        trace, _ = lower_bound_experiment(h, builtin("gini"), budget=128, mc_samples=200, seed=0)
        assert trace.final_distance() == 0


def _mc_check_reference(h, t, labeled, cutoff):
    """mc_check as it read each point's path through tree.path_of."""
    ell = h.params.ell
    count = errors = early_x = 0
    for x, fx in labeled:
        count += 1
        leaf = treemod.path_of(t, x)
        if leaf.node.label != fx:
            errors += 1
        y_seen = 0
        for step in leaf.path:
            if step.coord > ell:
                y_seen += 1
                if y_seen > cutoff:
                    break
            else:
                early_x += 1
                break
    halfwidth = math.sqrt(math.log(2 / 0.01) / (2 * count))
    return errors / count, halfwidth, early_x / count


def _draw_node(data, coords, depth):
    if depth == 0 or not coords or not data.draw(st.booleans()):
        return Leaf(data.draw(st.sampled_from((0, 1))))
    c = data.draw(st.sampled_from(sorted(coords)))
    rest = coords - {c}
    return Internal(c, None, _draw_node(data, rest, depth - 1), _draw_node(data, rest, depth - 1))


class TestMcCheck:
    # on choose_params(2, 1): x1 at the root, then y3 on its lo side
    SMALL = DecisionTree(Internal(1, None, Leaf(1), Internal(3, None, Leaf(0), Leaf(1))))

    @settings(max_examples=100, deadline=None)
    @given(
        ell=st.integers(2, 5),
        k=st.sampled_from((1, 3, 5)),
        shape=st.sampled_from(("any", "y-only", "y-chain")),
        data=st.data(),
    )
    def test_matches_path_walk(self, ell, k, shape, data):
        h = choose_params(ell, k)
        xs, ys = set(range(1, ell + 1)), set(h.y_coords())
        depth = data.draw(st.integers(0, 6), label="depth")
        cutoff = data.draw(st.integers(0, k), label="cutoff")
        if shape == "y-chain":
            # every path reads the same `chain` y's, then an x (chain 0: x at the root)
            chain = data.draw(st.lists(st.sampled_from(sorted(ys)), unique=True), label="chain")
            c = data.draw(st.sampled_from(sorted(xs)))
            rest = (xs | ys) - {c, *chain}
            root = Internal(c, None, _draw_node(data, rest, depth), _draw_node(data, rest, depth))
            for y in reversed(chain):
                root = Internal(y, None, root, root)
        else:
            root = _draw_node(data, ys if shape == "y-only" else xs | ys, depth)
        t = DecisionTree(root)
        trace = trace_of(t, lambda: data.draw(st.sampled_from((0, 1))))
        assert tree_at(trace, trace.final_size) == t
        # the final size always, so the y-chain anchor below runs on every y-chain tree
        drawn = data.draw(st.sets(st.integers(1, trace.final_size)), label="sizes")
        sizes = sorted(drawn | {trace.final_size})
        labeled = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from((-1, 1)), min_size=h.arity, max_size=h.arity),
                    st.sampled_from((0, 1)),
                ),
                min_size=1,
                max_size=30,
            ),
            label="labeled",
        )
        # every checkpoint's tree walks the same points, read once from an iterator
        got = mc_check(h, trace, sizes, iter(labeled), cutoff)
        assert got == [
            _mc_check_reference(h, tree_at(trace, s), labeled, cutoff) for s in sizes
        ]
        if shape == "y-chain":
            assert got[-1][2] == (1.0 if len(chain) <= cutoff else 0.0)
        if shape == "y-only":
            assert all(xi == 0.0 for _, _, xi in got)

    def test_size_one_at_cutoff_zero(self):
        # the root leaf of tree_at(trace, 1) settles every point before the
        # x query at the root, so no point counts as early at size 1
        h = choose_params(2, 1)
        trace = trace_of(self.SMALL, lambda: 0)
        labeled = [((1, 1, 1), 1), ((-1, 1, 1), 1), ((-1, 1, -1), 1)]
        got = mc_check(h, trace, [1, 2, 3], iter(labeled), cutoff=0)
        assert got == [
            _mc_check_reference(h, tree_at(trace, s), labeled, 0) for s in (1, 2, 3)
        ]
        assert [(e, xi) for e, _, xi in got] == [(1.0, 0.0), (2 / 3, 1.0), (1 / 3, 1.0)]

    def test_refuses_an_empty_stream(self):
        h = choose_params(4, 3)
        with pytest.raises(ValueError, match="at least one sample"):
            mc_check(h, trace_of(DecisionTree(Leaf(0)), None), [1], [], cutoff=0)
        with pytest.raises(ValueError, match="at least one sample"):
            lower_bound_experiment(h, builtin("gini"), budget=4, mc_samples=0)

    @pytest.mark.parametrize("sizes", [[], [0], [4], [2, 2], [3, 1]])
    def test_refuses_sizes_off_the_trace(self, sizes):
        h = choose_params(2, 1)
        with pytest.raises(ValueError, match="ascend strictly within 1..3"):
            mc_check(h, trace_of(self.SMALL, lambda: 0), sizes, [((1, 1, 1), 1)], cutoff=0)


# counts around the batch size: one point, a short batch, exactly one, one
# more, and two batches with a short tail
_BATCH_COUNTS = (1, SAMPLE_BATCH - 1, SAMPLE_BATCH, SAMPLE_BATCH + 1, 2 * SAMPLE_BATCH + 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), count=st.sampled_from(_BATCH_COUNTS), seed=st.integers(0, 2**32 - 1))
def test_labeled_points_matches_coordinate_draw(data, count, seed):
    """The batched draw against one rng.random() per coordinate: the same
    (x, f(x)) pairs in order, and the rng left in the same state."""
    ell = data.draw(st.integers(2, MAX_HARD_ARITY - 1), label="ell")
    k = 2 * data.draw(st.integers(0, (MAX_HARD_ARITY - ell - 1) // 2), label="k // 2") + 1
    h = choose_params(ell, k)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = [(tuple(x), fx) for x, fx in labeled_points(h, count, rng)]
    assert got == [(tuple(x), fx) for x, fx in coordinate_points(h, count, ref_rng)]
    assert rng.random() == ref_rng.random()
