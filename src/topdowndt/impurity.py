"""Impurity functions for split scoring, with strong-concavity verification.

An impurity function G maps [0,1] -> [0,1] with G(0) = G(1) = 0 and
G(1/2) = 1, is symmetric about 1/2, and is concave.  The split guarantees
additionally need kappa-strong concavity:

    (G(a) + G(b)) / 2  <=  G((a+b)/2) - (kappa/2) * (b - a)^2

for all a, b in [0,1].  Each builtin ships the largest kappa for which the
inequality holds:

    entropy          H(p) = -p log2 p - (1-p) log2 (1-p)      kappa = 1/ln 2
    gini             4 p (1-p)                                 kappa = 2
    kearns-mansour   2 sqrt(p (1-p))                           kappa = 1

Impurity values are floats (entropy is transcendental); exactness lives in
the probability arithmetic upstream, and gain comparisons downstream use an
absolute tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

SLACK_TOL = 1e-12
GRID = 100  # both checks run on the grid {0, 1/GRID, ..., 1}


@dataclass(frozen=True)
class ImpuritySpec:
    """G = fn with its strong-concavity constant.  fn must be concave on all of
    [0,1], not just on the grid: grow-real's scan prunes by a concave bound."""

    name: str
    fn: Callable[[float], float]
    kappa: float


@dataclass(frozen=True)
class StrongConcavityReport:
    name: str
    kappa: float
    passed: bool
    min_slack: float
    max_slack: float
    worst_pair: tuple[float, float]


def _entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _gini(p: float) -> float:
    return 4.0 * p * (1.0 - p)


def _kearns_mansour(p: float) -> float:
    return 2.0 * math.sqrt(p * (1.0 - p))


_BUILTINS = {
    "entropy": ImpuritySpec("entropy", _entropy, 1.0 / math.log(2.0)),
    "gini": ImpuritySpec("gini", _gini, 2.0),
    "kearns-mansour": ImpuritySpec("kearns-mansour", _kearns_mansour, 1.0),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> ImpuritySpec:
    spec = _BUILTINS.get(name)
    if spec is None:
        raise ValueError(f"unknown impurity {name!r}; builtins: {', '.join(_BUILTINS)}")
    return spec


def evaluate(spec: ImpuritySpec, p) -> float:
    """G(p) for p in [0,1]; accepts Fraction or float."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"impurity argument must lie in [0,1], got {p}")
    return spec.fn(p)


def verify_strong_concavity(spec: ImpuritySpec) -> StrongConcavityReport:
    """Check kappa-strong concavity on all grid pairs a <= b.

    slack(a,b) = G((a+b)/2) - (kappa/2)(b-a)^2 - (G(a)+G(b))/2 must stay
    >= -1e-12 everywhere; a NaN slack anywhere fails the check.  Returns the
    minimal slack (the first NaN, if any) and the pair attaining it, so a
    failing kappa comes with a concrete counterexample.
    """
    values = [spec.fn(i / GRID) for i in range(GRID + 1)]
    min_slack = math.inf
    max_slack = -math.inf
    worst = (0.0, 0.0)
    half_kappa = spec.kappa / 2.0
    for ia in range(GRID + 1):
        ga = values[ia]
        a = ia / GRID
        for ib in range(ia, GRID + 1):
            b = ib / GRID
            slack = spec.fn((a + b) / 2.0) - half_kappa * (b - a) ** 2 - (ga + values[ib]) / 2.0
            # a NaN slack never compares below: keep the first one as the worst
            if slack < min_slack or (math.isnan(slack) and not math.isnan(min_slack)):
                min_slack = slack
                worst = (a, b)
            if slack > max_slack:
                max_slack = slack
    return StrongConcavityReport(
        name=spec.name,
        kappa=spec.kappa,
        passed=min_slack >= -SLACK_TOL,
        min_slack=min_slack,
        max_slack=max_slack,
        worst_pair=worst,
    )


def verify_shape(spec: ImpuritySpec) -> list[str]:
    """Boundary, normalization, symmetry, and concavity checks on the grid.

    Returns a list of violation messages; empty means the shape invariants
    hold on the grid.
    """
    problems = []
    if abs(spec.fn(0.0)) > SLACK_TOL or abs(spec.fn(1.0)) > SLACK_TOL:
        problems.append("G(0) and G(1) must be 0")
    if abs(spec.fn(0.5) - 1.0) > SLACK_TOL:
        problems.append("G(1/2) must be 1")
    for i in range(GRID + 1):
        p = i / GRID
        if abs(spec.fn(p) - spec.fn(1.0 - p)) > 1e-9:
            problems.append(f"asymmetric at p={p:g}")
            break
    for i in range(1, GRID):
        a, m, b = (i - 1) / GRID, i / GRID, (i + 1) / GRID
        if spec.fn(m) < (spec.fn(a) + spec.fn(b)) / 2.0 - SLACK_TOL:
            problems.append(f"not concave near p={m:g}")
            break
    return problems
