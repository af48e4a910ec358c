#!/usr/bin/env python3
"""Consistency sweep: how fast the cross-validated error approaches the
exact error as the sample grows.

Example:
    python scripts/convergence_study.py --preset pair-epistasis --n 3 --q 2 \
        --p-low 0.05 --p-high 0.95 --subset 1,2 --seeds 20
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mdrcv.estimator import EpsilonSchedule, cv_prediction_error
from mdrcv.model import FactorSubset, sample
from mdrcv.oracle import subset_oracle
from mdrcv.scenarios import generate_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="pair-epistasis")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--p-low", type=float, default=0.05)
    ap.add_argument("--p-high", type=float, default=0.95)
    ap.add_argument("--subset", default="1,2")
    ap.add_argument("--K", type=int, default=5)
    ap.add_argument("--eps-c0", type=float, default=1.0)
    ap.add_argument("--eps-beta", type=float, default=0.25)
    ap.add_argument("--sizes", default="500,2000,8000,32000,100000")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args()

    dist = generate_scenario(
        args.preset, n=args.n, q=args.q, p_low=args.p_low, p_high=args.p_high
    )
    subset = FactorSubset(tuple(int(t) for t in args.subset.split(",")))
    schedule = EpsilonSchedule(args.eps_c0, args.eps_beta)
    (target,), _ = subset_oracle(dist, [subset])
    print(f"exact error of subset {subset.indices}: {target:.6f}")
    print(f"{'N':>8} {'median |dev|':>14} {'q90 |dev|':>12} {'sqrt(N)*median':>16}")
    for n_records in (int(s) for s in args.sizes.split(",")):
        devs = []
        for s in range(args.seeds):
            ds = sample(dist, n_records, seed=args.base_seed + 17 * n_records + s)
            est = cv_prediction_error(ds, args.K, subset, schedule)
            devs.append(abs(est - target))
        devs = np.asarray(devs)
        print(
            f"{n_records:>8} {np.median(devs):>14.5f} "
            f"{np.quantile(devs, 0.9):>12.5f} "
            f"{np.sqrt(n_records) * np.median(devs):>16.4f}"
        )


if __name__ == "__main__":
    main()
