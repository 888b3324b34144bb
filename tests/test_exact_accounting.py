"""Differential tests: the greedy loop's exact accounting (integer error and
influence numerators over the run's scale) against independent
recomputations on the trees tree_at rebuilds, at every size."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc, derived_rng
from topdowndt.grower import GrowthConfig, grow, tree_at
from topdowndt.hardinstance import choose_params
from topdowndt.impurity import BUILTIN_NAMES, builtin
from topdowndt.realvalued import RealSample, grow_real

from reference import g_impurity, hard_table, influence_potential

RULES = st.sampled_from((*BUILTIN_NAMES, "influence"))


def _spec(rule):
    return None if rule == "influence" else builtin(rule)


def _check_every_size(trace, f, spec) -> None:
    """Each size's recorded distance, u_f and G-impurity against f's table."""
    assert isinstance(trace.initial_expectation, Fraction)
    assert trace.initial_expectation == Fraction(f.table.bit_count(), 1 << f.n)
    u_fs = [trace.initial_u_f, *(step.u_f for step in trace.steps)]
    g_imps = [trace.initial_g_impurity, *(step.g_impurity for step in trace.steps)]
    for size, (dist, u_f, g_imp) in enumerate(zip(trace.distances(), u_fs, g_imps), start=1):
        t = tree_at(trace, size)
        assert isinstance(dist, Fraction) and isinstance(u_f, Fraction)
        assert dist == treemod.distance(t, f)
        assert u_f == influence_potential(t, f)
        if spec is None:
            assert g_imp is None
        else:
            assert abs(g_imp - g_impurity(t, f, spec)) <= 1e-12
    for step in trace.steps:
        assert isinstance(step.inf_split, Fraction)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    rule=RULES,
    budget=st.integers(1, 40),
)
def test_table_accounting_matches_recomputation(n, seed, rule, budget):
    f = BoolFunc(n, derived_rng(seed, "exact-accounting").getrandbits(1 << n))
    spec = _spec(rule)
    trace = grow(f, GrowthConfig(budget=budget, impurity=spec))
    _check_every_size(trace, f, spec)


@settings(max_examples=15, deadline=None)
@given(
    ell=st.integers(2, 8),
    k=st.sampled_from((1, 3, 5)),
    rule=RULES,
    budget=st.integers(1, 40),
)
def test_hard_instance_accounting_matches_its_table(ell, k, rule, budget):
    h = choose_params(ell, k)
    spec = _spec(rule)
    trace = grow(h, GrowthConfig(budget=budget, impurity=spec))
    _check_every_size(trace, hard_table(h), spec)


_VALUES = st.sampled_from((0.0, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0))


@st.composite
def _samples(draw):
    n = draw(st.integers(1, 3))
    point = st.tuples(st.tuples(*[_VALUES] * n), st.integers(0, 1))
    return RealSample(tuple(draw(st.lists(point, min_size=1, max_size=30))))


@settings(max_examples=40, deadline=None)
@given(
    sample=_samples(),
    rule=st.sampled_from(BUILTIN_NAMES),
    policy=st.sampled_from(("midpoints", "grid:2")),
    budget=st.integers(1, 16),
)
def test_sample_distances_match_routed_points(sample, rule, policy, budget):
    trace = grow_real(sample, GrowthConfig(budget=budget, impurity=builtin(rule)), policy)
    ones = sum(label for _, label in sample.points)
    assert trace.initial_expectation == Fraction(ones, len(sample))
    assert trace.initial_u_f is None
    for size, dist in enumerate(trace.distances(), start=1):
        t = tree_at(trace, size)
        wrong = sum(treemod.evaluate(t, x) != label for x, label in sample.points)
        assert isinstance(dist, Fraction)
        assert dist == Fraction(wrong, len(sample))
