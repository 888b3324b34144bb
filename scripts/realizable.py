#!/usr/bin/env python3
"""Growth on targets that are themselves small monotone decision trees.

Preset: 100 random monotone teachers with at most 16 leaves at n=10;
every builtin impurity must reach distance <= 0.05, and the impurity and
influence rules must pick the same coordinate at every common subcube.
"""

import argparse
import sys

from topdowndt.cli import ExperimentConfig, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="10 trials instead of 100")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/realizable")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        kind="realizable",
        arity=10,
        trials=10 if args.quick else 100,
        teacher_leaves=16,
        target=0.05,
        budget=1 << 16,
        seed=args.seed,
        out=args.out,
    )
    bundle = run(cfg)
    print(f"max observed size to reach target: {bundle.summary['max_reached_size']}")
    for name, ok in sorted(bundle.checks.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if bundle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
