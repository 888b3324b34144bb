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

ImpuritySpec.concave states that fn is concave on all of [0,1], not just on
a check grid.  The three builtins set it; a spec built any other way
(from_table included, whose concavity is certified on its grid only)
leaves it False.  grow-real's midpoint scan skips blocks of cuts by a bound
that holds only for a concave G, and scores every cut when it is False.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

SLACK_TOL = 1e-12


@dataclass(frozen=True)
class ImpuritySpec:
    name: str
    fn: Callable[[float], float]
    kappa: float
    concave: bool = False  # fn is concave on all of [0,1]; see the module docstring


@dataclass(frozen=True)
class StrongConcavityReport:
    name: str
    kappa: float
    resolution: int
    passed: bool
    min_slack: float
    max_slack: float
    worst_pair: tuple[float, float]

    def __str__(self):
        verdict = "holds" if self.passed else "FAILS"
        return (
            f"{self.name}: kappa={self.kappa:g} strong concavity {verdict} on a "
            f"1/{self.resolution} grid; min slack {self.min_slack:.3e} at "
            f"(a,b)=({self.worst_pair[0]:g},{self.worst_pair[1]:g})"
        )


def _entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _gini(p: float) -> float:
    return 4.0 * p * (1.0 - p)


def _kearns_mansour(p: float) -> float:
    return 2.0 * math.sqrt(p * (1.0 - p))


_BUILTINS = {
    "entropy": ImpuritySpec("entropy", _entropy, 1.0 / math.log(2.0), concave=True),
    "gini": ImpuritySpec("gini", _gini, 2.0, concave=True),
    "kearns-mansour": ImpuritySpec("kearns-mansour", _kearns_mansour, 1.0, concave=True),
}
_ALIASES = {"km": "kearns-mansour"}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> ImpuritySpec:
    key = _ALIASES.get(name, name)
    spec = _BUILTINS.get(key)
    if spec is None:
        raise ValueError(f"unknown impurity {name!r}; builtins: {', '.join(_BUILTINS)}")
    return spec


def evaluate(spec: ImpuritySpec, p) -> float:
    """G(p) for p in [0,1]; accepts Fraction or float."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"impurity argument must lie in [0,1], got {p}")
    return spec.fn(p)


def verify_strong_concavity(
    spec: ImpuritySpec,
    resolution: int = 100,
    aligned_midpoints_only: bool = False,
) -> StrongConcavityReport:
    """Check kappa-strong concavity on all grid pairs a,b in {0, 1/r, ..., 1}.

    slack(a,b) = G((a+b)/2) - (kappa/2)(b-a)^2 - (G(a)+G(b))/2 must stay
    >= -1e-12 everywhere; a NaN slack anywhere fails the check.  Returns the
    minimal slack (the first NaN, if any) and the pair attaining it, so a
    failing kappa comes with a concrete counterexample.

    aligned_midpoints_only restricts to pairs whose midpoint is itself a
    grid point.  Tabulated impurities need this: linear interpolation is
    flat inside a segment, so off-grid midpoints would reject every table.
    The resulting certificate is grid-only.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    values = [spec.fn(i / resolution) for i in range(resolution + 1)]
    min_slack = math.inf
    max_slack = -math.inf
    worst = (0.0, 0.0)
    half_kappa = spec.kappa / 2.0
    for ia in range(resolution + 1):
        ga = values[ia]
        a = ia / resolution
        for ib in range(ia, resolution + 1):
            if aligned_midpoints_only and (ia + ib) % 2:
                continue
            b = ib / resolution
            mid = values[(ia + ib) // 2] if aligned_midpoints_only else spec.fn((a + b) / 2.0)
            slack = mid - half_kappa * (b - a) ** 2 - (ga + values[ib]) / 2.0
            # a NaN slack never compares below: keep the first one as the worst
            if slack < min_slack or (math.isnan(slack) and not math.isnan(min_slack)):
                min_slack = slack
                worst = (a, b)
            if slack > max_slack:
                max_slack = slack
    return StrongConcavityReport(
        name=spec.name,
        kappa=spec.kappa,
        resolution=resolution,
        passed=min_slack >= -SLACK_TOL,
        min_slack=min_slack,
        max_slack=max_slack,
        worst_pair=worst,
    )


def verify_shape(spec: ImpuritySpec, resolution: int = 100) -> list[str]:
    """Boundary, normalization, symmetry, and concavity checks on a grid.

    Returns a list of violation messages; empty means the shape invariants
    hold at the given resolution.
    """
    problems = []
    if abs(spec.fn(0.0)) > SLACK_TOL or abs(spec.fn(1.0)) > SLACK_TOL:
        problems.append("G(0) and G(1) must be 0")
    if abs(spec.fn(0.5) - 1.0) > SLACK_TOL:
        problems.append("G(1/2) must be 1")
    for i in range(resolution + 1):
        p = i / resolution
        if abs(spec.fn(p) - spec.fn(1.0 - p)) > 1e-9:
            problems.append(f"asymmetric at p={p:g}")
            break
    for i in range(1, resolution):
        a, m, b = (i - 1) / resolution, i / resolution, (i + 1) / resolution
        if spec.fn(m) < (spec.fn(a) + spec.fn(b)) / 2.0 - SLACK_TOL:
            problems.append(f"not concave near p={m:g}")
            break
    return problems


def from_table(
    name: str,
    points: Sequence[tuple[float, float]],
    kappa: float,
    resolution: int = 100,
) -> ImpuritySpec:
    """Custom impurity from (p, G(p)) samples, linearly interpolated.

    The table must cover p=0 and p=1, every entry must be finite, and
    kappa must be finite and positive.  The
    returned spec has already passed verify_shape and
    verify_strong_concavity at the given resolution; a table that fails
    either is rejected here rather than misbehaving later.
    Strong concavity is certified at grid-aligned midpoints only, so pick a
    resolution that the table's knots sit on; the guarantee does not extend
    below the grid scale.
    """
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"impurity kappa must be finite and > 0, got {kappa!r}")
    pts = []
    for p, g in points:
        pt = (float(p), float(g))
        # a NaN passes every shape check below, which all compare with < or >
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ValueError(f"impurity table entry {(p, g)!r} is not finite")
        pts.append(pt)
    pts.sort()
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("impurity table must cover p=0 through p=1")
    xs = [p for p, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("impurity table has duplicate p values")

    def fn(p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"impurity argument must lie in [0,1], got {p}")
        j = bisect.bisect_right(xs, p)
        if j == len(xs):
            return pts[-1][1]
        if xs[j - 1] == p:
            return pts[j - 1][1]
        (x0, y0), (x1, y1) = pts[j - 1], pts[j]
        return y0 + (y1 - y0) * (p - x0) / (x1 - x0)

    spec = ImpuritySpec(name, fn, kappa)
    problems = verify_shape(spec, resolution)
    if problems:
        raise ValueError(f"impurity table rejected: {'; '.join(problems)}")
    report = verify_strong_concavity(spec, resolution, aligned_midpoints_only=True)
    if not report.passed:
        raise ValueError(f"impurity table rejected: {report}")
    return spec
