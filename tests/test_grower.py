import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import conjunction, majority, parity, random_monotone
from topdowndt.grower import (
    TRACE_COLUMNS,
    GrowthConfig,
    Monitor,
    argmax_agreement,
    g_impurity,
    grow,
    influence_potential,
    rule_agreement,
    verify_split_inequalities,
    write_trace_csv,
)
from topdowndt.hardinstance import choose_params
from topdowndt.impurity import builtin

GINI = builtin("gini")
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def run():
    return grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))


class TestAnd2GiniTrace:
    """Fully hand-checked run: f = x1 AND x2, gini, budget 3."""

    def test_initial_potentials(self, run):
        _, trace = run
        assert trace.initial_expectation == Fraction(1, 4)
        assert trace.initial_g_impurity == pytest.approx(0.75, abs=1e-12)
        assert trace.initial_u_f == 1  # both coords have influence 1/2
        assert trace.initial_distance == Fraction(1, 4)

    def test_split_sequence(self, run):
        _, trace = run
        assert [(s.leaf_id, s.coord) for s in trace.steps] == [(0, 1), (0, 2)]
        assert trace.steps[0].gain == pytest.approx(0.25, abs=1e-12)
        assert trace.steps[1].gain == pytest.approx(0.5, abs=1e-12)

    def test_potential_telescopes(self, run):
        _, trace = run
        assert trace.steps[0].g_impurity == pytest.approx(0.5, abs=1e-12)
        assert trace.steps[1].g_impurity == pytest.approx(0.0, abs=1e-12)

    def test_distance_sequence(self, run):
        _, trace = run
        assert [s.distance for s in trace.steps] == [Fraction(1, 4), Fraction(0)]
        assert trace.final_distance() == 0
        assert trace.stop_reason == "budget"

    def test_completion_is_exact(self, run):
        t, _ = run
        f = conjunction(2)
        assert treemod.distance(t, f) == 0
        assert treemod.size(t) == 3


class TestInfluenceRule:
    def test_same_splits_as_gini_on_and2(self):
        f = conjunction(2)
        _, trace_g = grow(f, GrowthConfig(budget=3, impurity=GINI))
        _, trace_i = grow(f, GrowthConfig(budget=3, impurity=None))
        assert trace_i.mode == "influence"
        common, mismatches = rule_agreement(trace_g, trace_i)
        assert common == 2
        assert mismatches == []

    def test_gain_column_is_weighted_influence(self):
        _, trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=None))
        # root: Inf_1 = 1/2 at depth 0; then the hi leaf: Inf_2 = 1 at depth 1
        assert trace.steps[0].gain == pytest.approx(0.5, abs=1e-15)
        assert trace.steps[1].gain == pytest.approx(0.5, abs=1e-15)
        assert trace.initial_u_f == 1
        assert trace.steps[-1].u_f == 0


class TestStops:
    def test_budget_stop(self):
        _, trace = grow(majority(3), GrowthConfig(budget=2, impurity=GINI))
        assert len(trace.steps) == 1
        assert trace.stop_reason == "budget"

    def test_budget_one_grows_nothing(self):
        t, trace = grow(majority(3), GrowthConfig(budget=1, impurity=GINI))
        assert treemod.size(t) == 1
        assert trace.steps == []
        # E = 1/2 ties toward label 1
        assert treemod.distance(t, majority(3)) == Fraction(1, 2)

    def test_zero_gain_stop_on_parity(self):
        # any single split of parity leaves both children at expectation 1/2
        t, trace = grow(
            parity(2), GrowthConfig(budget=4, impurity=GINI, stop_on_zero_gain=True)
        )
        assert treemod.size(t) == 1
        assert trace.stop_reason == "zero-gain"

    def test_without_zero_gain_stop_parity_is_solved(self):
        # the full parity tree has 4 leaves; budget 6 leaves slack to observe
        # the stop on pure leaves rather than on the budget
        t, trace = grow(parity(2), GrowthConfig(budget=6, impurity=GINI))
        assert trace.stop_reason == "no-candidates"
        assert treemod.size(t) == 4
        assert treemod.distance(t, parity(2)) == 0

    def test_no_candidates_when_all_leaves_pure(self):
        _, trace = grow(conjunction(2), GrowthConfig(budget=16, impurity=GINI))
        assert trace.final_size == 3
        assert trace.stop_reason == "no-candidates"


class TestPotentialFunctions:
    def test_on_empty_tree(self):
        f = conjunction(2)
        empty = treemod.PartialTree.empty()
        assert g_impurity(empty, f, GINI) == pytest.approx(0.75, abs=1e-12)
        assert influence_potential(empty, f) == 1

    def test_after_manual_split(self):
        f = conjunction(2)
        t = treemod.split(treemod.PartialTree.empty(), 0, 1)
        assert g_impurity(t, f, GINI) == pytest.approx(0.5, abs=1e-12)
        assert influence_potential(t, f) == Fraction(1, 2)

    def test_trace_initials_match(self):
        f = random_monotone(5, seed=7)
        _, trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        empty = treemod.PartialTree.empty()
        assert trace.initial_g_impurity == pytest.approx(g_impurity(empty, f, GINI))
        assert trace.initial_u_f == influence_potential(empty, f)


class TestDistanceAtSize:
    def test_anchors_on_and2(self):
        _, trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))
        assert trace.distance_at_size(1) == Fraction(1, 4)
        assert trace.distance_at_size(2) == Fraction(1, 4)
        assert trace.distance_at_size(3) == 0
        assert trace.distance_at_size(50) == 0  # clamps to the final size

    @given(seed=st.integers(0, 200))
    def test_distance_never_increases(self, seed):
        f = random_monotone(4, seed=seed)
        _, trace = grow(f, GrowthConfig(budget=10, impurity=GINI))
        curve = [trace.initial_distance] + [s.distance for s in trace.steps]
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestSplitInequalities:
    def test_monitored_run_passes(self):
        f = majority(3)
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(1, 4))
        _, trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        assert report.passed
        # initial distance 1/2 exceeds opt_2 + eps = 7/20, so step 1 is monitored
        assert report.monitored_count == 1
        first = report.checks[0]
        assert first.monitored
        assert first.score_bound == pytest.approx(2 * 0.01 / 32, abs=1e-15)
        assert first.gain == pytest.approx(0.25, abs=1e-12)

    def test_gain_beats_claim3_bound_everywhere(self):
        f = random_monotone(6, seed=11)
        mon = Monitor(s=4, eps=Fraction(1, 10), opt_s=Fraction(0))
        _, trace = grow(f, GrowthConfig(budget=12, impurity=GINI))
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        assert report.passed
        for check in report.checks:
            assert check.gain >= check.claim3_bound - 1e-9

    def test_refuses_non_monotone_target(self):
        f = parity(3)
        _, trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(0))
        with pytest.raises(ValueError, match="monotone"):
            verify_split_inequalities(trace, f, GINI, monitor=mon)

    def test_refuses_targets_other_than_truth_tables(self):
        h = choose_params(4, 3)  # monotone, but opt_s needs a truth table
        _, trace = grow(h, GrowthConfig(budget=4, impurity=GINI))
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(0))
        for f in (None, h):
            with pytest.raises(ValueError, match="monotone"):
                verify_split_inequalities(trace, f, GINI, monitor=mon)

    def test_refuses_influence_trace(self):
        f = conjunction(2)
        _, trace = grow(f, GrowthConfig(budget=3, impurity=None))
        with pytest.raises(ValueError, match="impurity-rule"):
            verify_split_inequalities(trace, f, GINI, monitor=Monitor(2, Fraction(1, 10), 0))

    def test_requires_monitor(self):
        f = conjunction(2)
        _, trace = grow(f, GrowthConfig(budget=3, impurity=GINI))
        with pytest.raises(ValueError, match="monitor"):
            verify_split_inequalities(trace, f, GINI)


class TestArgmaxAgreement:
    def test_root_leaf_on_random_monotone(self):
        f = random_monotone(4, seed=0)
        report = argmax_agreement(f, treemod.PartialTree.empty(), 0)
        assert report.passed
        assert report.influence_pick in report.influence_argmax

    def test_after_split_both_leaves(self):
        f = random_monotone(5, seed=2)
        t = treemod.split(treemod.PartialTree.empty(), 0, 1)
        for leaf_id in (0, 1):
            assert argmax_agreement(f, t, leaf_id).passed

    def test_rule_agreement_with_itself(self):
        f = random_monotone(5, seed=9)
        _, trace = grow(f, GrowthConfig(budget=8, impurity=GINI))
        common, mismatches = rule_agreement(trace, trace)
        assert common == len(trace.steps)
        assert mismatches == []


class TestTraceCsv:
    def test_structure(self, tmp_path):
        _, trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 2 + len(trace.steps)
        iter0 = lines[1].split(",")
        assert iter0[0] == "0"
        assert iter0[1] == iter0[2] == ""  # no split on the initial row
        assert iter0[7] == "1/4"

    def test_matches_golden_file(self, tmp_path):
        f = random_monotone(6, seed=3)
        _, trace = grow(f, GrowthConfig(budget=8, impurity=GINI))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        golden = DATA / "trace_n6_seed3_gini.csv"
        assert path.read_text() == golden.read_text()
