import math
from fractions import Fraction

import numpy as np
import pytest

from topdowndt.impurity import (
    BUILTIN_NAMES,
    ImpuritySpec,
    builtin,
    evaluate,
    verify_shape,
    verify_strong_concavity,
)


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {"gini", "entropy", "kearns-mansour"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("misclassification")

    def test_boundary_and_center_values(self):
        for name in BUILTIN_NAMES:
            spec = builtin(name)
            assert evaluate(spec, 0) == 0
            assert evaluate(spec, 1) == 0
            assert evaluate(spec, Fraction(1, 2)) == 1

    def test_quarter_point_values(self):
        assert abs(evaluate(builtin("gini"), 0.25) - 0.75) <= 1e-12
        assert abs(evaluate(builtin("entropy"), 0.25) - 0.8112781244591328) <= 1e-12
        assert abs(evaluate(builtin("kearns-mansour"), 0.25) - math.sqrt(3) / 2) <= 1e-12

    def test_kappa_constants(self):
        assert builtin("gini").kappa == 2
        assert abs(builtin("entropy").kappa - 1 / math.log(2)) <= 1e-12
        assert builtin("kearns-mansour").kappa == 1

    def test_evaluate_accepts_fractions(self):
        assert evaluate(builtin("gini"), Fraction(1, 4)) == pytest.approx(0.75, abs=1e-12)


class TestStrongConcavity:
    def test_all_builtins_pass(self):
        for name in BUILTIN_NAMES:
            report = verify_strong_concavity(builtin(name))
            assert report.passed, str(report)
            assert report.min_slack >= -1e-12

    def test_gini_slack_is_identically_zero(self):
        report = verify_strong_concavity(builtin("gini"))
        assert abs(report.min_slack) <= 1e-12
        assert abs(report.max_slack) <= 1e-12

    def test_inflated_kappa_fails_with_witness(self):
        g = builtin("gini")
        bad = ImpuritySpec(name="gini-inflated", fn=g.fn, kappa=2.5)
        report = verify_strong_concavity(bad)
        assert not report.passed
        a, b = report.worst_pair
        slack = g.fn((a + b) / 2) - 1.25 * (b - a) ** 2 - (g.fn(a) + g.fn(b)) / 2
        assert slack == pytest.approx(report.min_slack, abs=1e-15)
        assert slack < -1e-12

    def test_nan_kappa_fails(self):
        # every slack is NaN, and slack < min_slack never holds for NaN
        report = verify_strong_concavity(ImpuritySpec("g", builtin("gini").fn, math.nan))
        assert not report.passed
        assert math.isnan(report.min_slack)
        assert report.worst_pair == (0.0, 0.0)

    def test_entropy_kappa_is_sharp_at_half(self):
        # near p=1/2 the entropy slack approaches 0: kappa=1/ln2 is not slack
        report = verify_strong_concavity(builtin("entropy"))
        assert report.min_slack <= 1e-4


class TestShape:
    def test_builtins_clean(self):
        for name in BUILTIN_NAMES:
            assert verify_shape(builtin(name)) == []

    def test_asymmetric_function_flagged(self):
        spec = ImpuritySpec("lopsided", lambda p: 4 * p * (1 - p) ** 2 * 27 / 16, 0.1)
        assert any("asymmetric" in p for p in verify_shape(spec))

    def test_nonconcave_function_flagged(self):
        # convex kinks at p=1/4 and p=3/4
        xs, ys = [0, 0.25, 0.5, 0.75, 1], [0, 0.2, 1.0, 0.2, 0]
        spec = ImpuritySpec("bumpy", lambda p: float(np.interp(p, xs, ys)), 0.1)
        assert any("concave" in p for p in verify_shape(spec))
