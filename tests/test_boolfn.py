from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topdowndt import boolfn
from topdowndt.boolfn import (
    EMPTY,
    BoolFunc,
    Restriction,
    SubcubeView,
    bias,
    conjunction,
    constant,
    correlation,
    derived_rng,
    dictator,
    expectation,
    from_dnf,
    from_points,
    from_spec,
    influence,
    is_monotone,
    majority,
    monotone_orientation,
    parity,
    point_of,
    random_monotone,
    to_spec,
    total_influence,
)


def brute_expectation(f: BoolFunc, fixed: dict[int, int]) -> Fraction:
    ones = 0
    count = 0
    for idx in range(1 << f.n):
        x = point_of(idx, f.n)
        if all(x[c - 1] == v for c, v in fixed.items()):
            count += 1
            ones += (f.table >> idx) & 1
    return Fraction(ones, count)


def brute_influence(f: BoolFunc, fixed: dict[int, int], i: int) -> Fraction:
    flips = 0
    count = 0
    for idx in range(1 << f.n):
        x = point_of(idx, f.n)
        if all(x[c - 1] == v for c, v in fixed.items()):
            count += 1
            if ((f.table >> idx) & 1) != ((f.table >> (idx ^ (1 << (i - 1)))) & 1):
                flips += 1
    return Fraction(flips, count)


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
        r = Restriction(((1, 1),))
        assert expectation(f, r) == Fraction(1, 2)
        assert expectation(f, Restriction(((1, -1),))) == 0


class TestRestriction:
    def test_orders_and_dedups_coords(self):
        r = Restriction(((2, -1), (1, 1)))
        assert r.coords() == frozenset({1, 2})
        assert r.get(2) == -1
        assert r.get(3) is None

    def test_conflicting_assignment_rejected(self):
        with pytest.raises(ValueError):
            Restriction(((1, 1), (1, -1)))

    def test_extend(self):
        r = EMPTY.extend(2, 1).extend(1, -1)
        assert r.get(1) == -1 and r.get(2) == 1

    def test_bad_value(self):
        with pytest.raises(ValueError):
            Restriction(((1, 0),))


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
        r = Restriction(tuple(fixed.items()))
        assert expectation(f, r) == brute_expectation(f, fixed)
        free = [i for i in range(1, 5) if i not in fixed]
        for i in free:
            assert influence(f, r, i) == brute_influence(f, fixed, i)

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
        r = Restriction(((2, 1), (5, -1)))
        for i in (1, 3, 4, 6):
            assert influence(f, r, i) == 2 * abs(correlation(f, r, i))


class TestOrientation:
    def test_conjunction_is_nondecreasing(self):
        assert set(monotone_orientation(conjunction(3))) == {"non-decreasing"}
        assert is_monotone(conjunction(3))

    def test_parity_is_not_unate(self):
        assert set(monotone_orientation(parity(2))) == {"neither"}
        assert not is_monotone(parity(2))

    def test_irrelevant_coordinate(self):
        f = dictator(3, 1)
        assert monotone_orientation(f)[1:] == ("both", "both")

    def test_negated_dictator_is_unate(self):
        f = dictator(2, 1, positive=False)
        assert monotone_orientation(f)[0] == "non-increasing"
        assert is_monotone(f)


class TestSubcubeView:
    def test_split_partitions_ones(self):
        f = majority(3)
        view = SubcubeView.of_function(f)
        hi, lo = view.split(2)
        assert hi.size == lo.size == 4
        assert hi.ones + lo.ones == view.ones
        assert view.child_ones(2) == (hi.ones, lo.ones)

    def test_restrict_matches_split(self):
        f = random_monotone(5, seed=3)
        view = SubcubeView.of_function(f)
        hi, _ = view.split(4)
        via_restrict = view.restrict(Restriction(((4, 1),)))
        assert hi.expectation() == via_restrict.expectation()

    def test_constant_detection(self):
        assert SubcubeView.of_function(constant(3, 1)).is_constant()
        assert not SubcubeView.of_function(majority(3)).is_constant()


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

    def test_from_points(self):
        pts = [(1, 1), (1, -1)]
        f = from_points(2, pts)
        assert expectation(f) == Fraction(1, 2)
        assert f.table == from_dnf(2, [(1,)]).table

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

    def test_coordinate_mask_marks_plus_one_points(self):
        for n in range(1, 7):
            for i in range(1, n + 1):
                want = sum(1 << p for p in range(1 << n) if boolfn.point_of(p, n)[i - 1] == 1)
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

    @given(st.integers(0, 50))
    def test_unoriented_is_nondecreasing(self, seed):
        f = random_monotone(6, seed=seed, orient=False)
        assert all(o in ("non-decreasing", "both") for o in monotone_orientation(f))


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
