import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topdowndt import boolfn
from topdowndt.boolfn import (
    BoolFunc,
    SubcubeView,
    derived_rng,
    from_dnf,
    from_spec,
    is_monotone,
    random_monotone,
    to_spec,
)
from topdowndt.grower import GrowthConfig, TableCursor, grow
from topdowndt.impurity import builtin

from reference import (
    bias,
    brute_expectation,
    brute_influence,
    conjunction,
    constant,
    correlation,
    dictator,
    expectation,
    influence,
    majority,
    parity,
    point_of,
    total_influence,
    value_at,
)


class TestAnchors:
    def test_expectations(self):
        assert expectation(conjunction(2)) == Fraction(1, 4)
        assert expectation(parity(3)) == Fraction(1, 2)
        assert expectation(majority(3)) == Fraction(1, 2)
        assert expectation(constant(3, 1)) == 1
        assert expectation(constant(3, 0)) == 0

    def test_parity_influences(self):
        f = parity(4)
        for i in range(1, 5):
            assert influence(f, None, i) == 1
        assert total_influence(f) == 4

    def test_majority3_influences(self):
        f = majority(3)
        for i in range(1, 4):
            assert influence(f, None, i) == Fraction(1, 2)
        assert total_influence(f) == Fraction(3, 2)

    def test_dictator(self):
        f = dictator(3, 2)
        assert influence(f, None, 2) == 1
        assert influence(f, None, 1) == 0
        assert correlation(f, None, 2) == Fraction(1, 2)
        assert bias(f) == Fraction(1, 2)

    def test_bias_is_min_side(self):
        assert bias(conjunction(2)) == Fraction(1, 4)
        assert bias(constant(2, 1)) == 0

    def test_restricted_expectation(self):
        f = conjunction(2)
        assert expectation(f, {1: 1}) == Fraction(1, 2)
        assert expectation(f, {1: -1}) == 0


class TestAgainstBruteForce:
    @given(st.integers(0, 2**16 - 1), st.integers(1, 4))
    def test_expectation_matches_enumeration(self, table, i):
        f = BoolFunc(4, table)
        assert expectation(f) == brute_expectation(f, {})
        assert influence(f, None, i) == brute_influence(f, {}, i)

    @given(
        st.integers(0, 2**16 - 1),
        st.sampled_from([{}, {1: 1}, {2: -1}, {1: -1, 3: 1}, {1: 1, 2: 1, 4: -1}]),
    )
    def test_restricted_ops_match_enumeration(self, table, fixed):
        f = BoolFunc(4, table)
        assert expectation(f, fixed) == brute_expectation(f, fixed)
        free = [i for i in range(1, 5) if i not in fixed]
        for i in free:
            assert influence(f, fixed, i) == brute_influence(f, fixed, i)

    @given(st.integers(0, 2**8 - 1))
    def test_total_influence_is_coordinate_sum(self, table):
        f = BoolFunc(3, table)
        assert total_influence(f) == sum(influence(f, None, i) for i in range(1, 4))


class TestUnateInfluenceCorrelation:
    @given(st.integers(0, 200))
    def test_monotone_influence_equals_twice_correlation(self, seed):
        f = random_monotone(5, seed=seed)
        for i in range(1, 6):
            assert influence(f, None, i) == 2 * abs(correlation(f, None, i))

    def test_holds_under_restrictions(self):
        f = random_monotone(6, seed=11)
        r = {2: 1, 5: -1}
        for i in (1, 3, 4, 6):
            assert influence(f, r, i) == 2 * abs(correlation(f, r, i))


def brute_is_monotone(f: BoolFunc) -> bool:
    """Unate iff, for every coordinate i, f(x with x_i=+1) >= f(x with x_i=-1)
    at every x, or <= at every x."""
    for i in range(f.n):
        steps = set()
        for idx in range(1 << f.n):
            if not (idx >> i) & 1:
                hi, lo = point_of(idx | 1 << i, f.n), point_of(idx, f.n)
                steps.add(value_at(f, hi) - value_at(f, lo))
        if {1, -1} <= steps:
            return False
    return True


def random_signed_dnf(n: int, rng: random.Random) -> BoolFunc:
    terms = []
    for _ in range(rng.randint(1, 4)):
        coords = rng.sample(range(1, n + 1), rng.randint(1, 3))
        terms.append([c * rng.choice((-1, 1)) for c in coords])
    return from_dnf(n, terms)


class TestOrientation:
    def test_conjunction_is_nondecreasing(self):
        assert is_monotone(conjunction(3))

    def test_parity_is_not_unate(self):
        assert not is_monotone(parity(2))

    def test_irrelevant_coordinate(self):
        assert is_monotone(dictator(3, 1))

    def test_negated_dictator_is_unate(self):
        assert is_monotone(from_dnf(2, [[-1]]))

    def test_every_small_function_matches_brute_force(self):
        for n in (1, 2, 3):
            for table in range(1 << (1 << n)):
                f = BoolFunc(n, table)
                assert is_monotone(f) == brute_is_monotone(f), (n, table)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_wider_functions_match_brute_force(self, n):
        rng = random.Random(n)
        dnfs = [random_signed_dnf(n, rng) for _ in range(30)]
        verdicts = [is_monotone(f) for f in dnfs]
        assert verdicts == [brute_is_monotone(f) for f in dnfs]
        assert True in verdicts and False in verdicts
        for seed in range(10):
            f = random_monotone(n, seed=seed)
            assert is_monotone(f) and brute_is_monotone(f)


class TestSubcubeView:
    def test_split_partitions_ones(self):
        f = majority(3)
        view = SubcubeView.of_function(f)
        hi, lo = view.split(2)
        assert hi.size == lo.size == 4
        assert hi.ones + lo.ones == view.ones
        j = 3 * view.free.index(2)
        assert view.coord_counts()[j : j + 2] == (hi.ones, lo.ones)

    def test_restrict_matches_split(self):
        f = random_monotone(5, seed=3)
        hi, _ = SubcubeView.of_function(f).split(4)
        assert hi.expectation() == brute_expectation(f, {4: 1})

    @given(table=st.integers(0, (1 << 32) - 1), fixed=st.sampled_from(((), (2,), (5, 1))))
    def test_coord_counts_match_per_coordinate_reads(self, table, fixed):
        # (hi ones, lo ones, pairs) of each free coordinate, counted point by point
        f = BoolFunc(5, table)
        view = SubcubeView.of_function(f)
        for c in fixed:
            view = view.split(c)[1]
        lo = dict.fromkeys(fixed, -1)
        half = view.size >> 1
        want = []
        for c in view.free:
            sides = (brute_expectation(f, {**lo, c: v}) * half for v in (1, -1))
            want += (*sides, brute_influence(f, lo, c) * half)
        assert view.coord_counts() == tuple(want)

    @given(table=st.integers(0, (1 << 32) - 1), fixed=st.sampled_from(((), (2,), (5, 1), (1, 5, 3))))
    def test_table_cursor_rows_hold_coord_counts_in_coordinate_order(self, table, fixed):
        # a split moves the top coordinate into the split slot, so the
        # view's local order is not ascending; the rows are
        view = SubcubeView.of_function(BoolFunc(5, table))
        for c in fixed:
            view = view.split(c)[1]
        counts = view.coord_counts()
        by_coord = {c: counts[3 * j : 3 * j + 3] for j, c in enumerate(view.free)}
        rows = TableCursor(view).candidates()
        assert rows == [(c, 1, *by_coord[c]) for c in sorted(view.free)]

    @given(data=st.data())
    def test_split_chain_keeps_every_bit_in_place(self, data):
        # bit p of a view's table is f at the point whose free[q] is +1 iff bit q of p is set
        n = data.draw(st.integers(1, 8))
        f = BoolFunc(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
        view, fixed = SubcubeView.of_function(f), {}
        for _ in range(data.draw(st.integers(0, n))):
            coord = data.draw(st.sampled_from(view.free))
            side = data.draw(st.sampled_from((1, -1)))
            hi, lo = view.split(coord)
            view, fixed[coord] = (hi if side == 1 else lo), side
        assert sorted(view.free) == sorted(set(range(1, n + 1)) - fixed.keys())
        assert view.ones == view.table.bit_count()
        for p in range(view.size):
            x = [fixed.get(i, 0) for i in range(1, n + 1)]
            for q, c in enumerate(view.free):
                x[c - 1] = 1 if (p >> q) & 1 else -1
            assert (view.table >> p) & 1 == value_at(f, x), (p, view.free, fixed)

    def test_coordinate_that_is_not_free_is_named(self):
        view = SubcubeView.of_function(majority(3)).split(2)[0]
        with pytest.raises(ValueError, match="coordinate 2 is not free"):
            view.split(2)
        with pytest.raises(ValueError, match="coordinate 7 is not free"):
            view.split(7)

    def test_fully_restricted_view_refuses_a_split(self):
        view = SubcubeView.of_function(dictator(1, 1)).split(1)[0]
        with pytest.raises(ValueError, match="cannot split a fully restricted function"):
            view.split(1)

    def test_constant_detection(self):
        # a constant view is the one its majority label gets entirely right
        assert SubcubeView.of_function(constant(3, 1)).error_count() == 0
        assert SubcubeView.of_function(constant(3, 0)).error_count() == 0
        assert SubcubeView.of_function(majority(3)).error_count() != 0


class TestConstructors:
    def test_from_dnf_matches_pointwise(self):
        f = from_dnf(4, [(1, 2), (3,)])
        for idx in range(16):
            x = point_of(idx, 4)
            want = (x[0] == 1 and x[1] == 1) or x[2] == 1
            assert ((f.table >> idx) & 1) == int(want)

    def test_from_dnf_negative_literals(self):
        f = from_dnf(2, [(-1,)])
        for idx in range(4):
            x = point_of(idx, 2)
            assert ((f.table >> idx) & 1) == int(x[0] == -1)

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            BoolFunc(boolfn.MAX_ARITY + 1, 0)

    def test_table_range_checked(self):
        with pytest.raises(ValueError):
            BoolFunc(2, 1 << 16)


class TestMasks:
    def test_mask_set_matches_definition(self):
        # positions p in [0, 2^f) whose bit a is set
        for f in range(1, 11):
            for a in range(f):
                want = sum(1 << p for p in range(1 << f) if (p >> a) & 1)
                assert boolfn._mask_set(f, a) == want, (f, a)

    def test_cofactors_cache_only_half_width_masks(self, monkeypatch):
        # a cofactor of a 2^f-bit table swaps over a 2^(f-1)-bit mask
        cache = {}
        monkeypatch.setattr(boolfn, "_MASK_CACHE", cache)
        f = BoolFunc(20, random.Random(5).getrandbits(1 << 20))
        grow(f, GrowthConfig(budget=8, impurity=builtin("gini")))
        assert cache
        assert max(m.bit_length() for m in cache.values()) <= 1 << 19

    def test_coordinate_mask_marks_plus_one_points(self):
        for n in range(1, 7):
            for i in range(1, n + 1):
                want = sum(1 << p for p in range(1 << n) if point_of(p, n)[i - 1] == 1)
                assert boolfn.coordinate_mask(n, i) == want, (n, i)


class TestRandomMonotone:
    def test_deterministic_per_seed(self):
        a = random_monotone(6, seed=5)
        b = random_monotone(6, seed=5)
        assert a.table == b.table
        assert a.table != random_monotone(6, seed=6).table

    @given(st.integers(0, 100))
    def test_always_unate(self, seed):
        f = random_monotone(6, seed=seed)
        assert is_monotone(f)


class TestDerivedRng:
    def test_substreams_differ_and_reproduce(self):
        a = derived_rng(1, "x").random()
        b = derived_rng(1, "y").random()
        assert a != b
        assert derived_rng(1, "x").random() == a


class TestSerialization:
    @given(st.integers(0, 2**16 - 1))
    def test_table_roundtrip(self, table):
        f = BoolFunc(4, table)
        assert from_spec(to_spec(f)).table == table

    def test_dnf_spec(self):
        spec = {"kind": "dnf", "n": 3, "terms": [[1, 2], [-3]]}
        f = from_spec(spec)
        assert f.table == from_dnf(3, [(1, 2), (-3,)]).table

    def test_bad_spec(self):
        with pytest.raises((KeyError, ValueError)):
            from_spec({"kind": "nope"})

    @pytest.mark.parametrize("n", [0, boolfn.MAX_ARITY + 1, boolfn.MAX_ARITY + 2, 40])
    def test_dnf_arity_checked_before_any_mask(self, n, monkeypatch):
        # a 2^n-bit mask at n = 40 would be 128 GiB; the check must come first
        full_mask = boolfn._full_mask
        asked = []

        def spy(nbits_log):
            asked.append(nbits_log)
            if not 1 <= nbits_log <= boolfn.MAX_ARITY:
                raise AssertionError(f"built a 2^{nbits_log}-bit mask")
            return full_mask(nbits_log)

        monkeypatch.setattr(boolfn, "_full_mask", spy)
        with pytest.raises(ValueError, match=rf"arity must be in \[1, {boolfn.MAX_ARITY}\]"):
            from_spec({"kind": "dnf", "n": n, "terms": [[1]]})
        assert asked == []
