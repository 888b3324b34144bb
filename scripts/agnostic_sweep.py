#!/usr/bin/env python3
"""Greedy growth vs the exact size-s optimum on random monotone targets.

Full preset: 200 random monotone functions at n=8, opt sizes 2/4/8, all
builtin impurities, per-size budget s^ceil(log2 s) capped at 2^n.  Writes
per-trial rows plus plotdata/agnostic.csv with per-size means.
"""

import argparse
import sys

from topdowndt.cli import ExperimentConfig, run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="8 trials instead of 200")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/agnostic-sweep")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        kind="agnostic-sweep",
        arity=8,
        trials=8 if args.quick else 200,
        sizes=(2, 4, 8),
        epsilon=0.1,
        seed=args.seed,
        out=args.out,
    )
    bundle = run(cfg)
    for name, ok in sorted(bundle.checks.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"rows: {bundle.out_dir / 'rows.csv'}")
    return 0 if bundle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
