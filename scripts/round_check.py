#!/usr/bin/env python3
"""Threshold rounding and bit-encoding agreement on random balanced trees.

Preset: 100 random balanced threshold trees with 64 leaves, bit width
w = ceil(log2(leaves * depth / eps)) + 2 at eps = 0.1.  Checks that the
rounded tree stays within eps/2 of the original (Monte Carlo, 99% CI)
and that the bit-comparator construction agrees with the rounded tree
on every sampled input.
"""

import argparse
import sys

from topdowndt.cli import ExperimentConfig, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="10 trials instead of 100")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/round-check")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        kind="round-check",
        arity=8,
        leaves=64,
        epsilon=0.1,
        trials=10 if args.quick else 100,
        samples=4000,
        seed=args.seed,
        out=args.out,
    )
    bundle = run(cfg)
    print(f"max estimated rounding distance: {bundle.summary['max_estimate']:.4f}")
    for name, ok in sorted(bundle.checks.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if bundle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
