#!/usr/bin/env python3
"""Monte Carlo check that outcome-driven screening stays independent of the
between-arm coefficient differences, raw and through a fixed PCA projection.

Usage: python scripts/run_theorem_validation.py [--reps N] [--family gaussian|binomial]
"""

import argparse
import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import tehscreen as ts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--family", default="gaussian", choices=["gaussian", "binomial"])
    parser.add_argument("--seed", type=int, default=8211)
    args = parser.parse_args()

    family = ts.family_from_name(args.family)
    n = 300 if args.family == "gaussian" else 500
    spec = ts.SyntheticSpec(
        n=n, p=5, family=family, intercept=0.0 if args.family == "gaussian" else -0.2,
        main_effects=(0.5, 0.4, 0.3, 0.2, 0.1), treatment_effect=0.3, seed=0,
    )

    ref = ts.generate_trial(dataclasses.replace(spec, seed=ts.derive_seed(args.seed, 2**30)))
    pca = ts.compute_pca(ref.x_candidates, standardize=True)
    projection = pca.loadings / pca.scale[:, None]

    bound = 3.0 / np.sqrt(args.reps)
    for label, proj in (("raw covariates", None), ("fixed PCA projection", projection)):
        rep = ts.validate_theorem(spec, reps=args.reps, seed=args.seed, projection=proj)
        s = rep.summary
        print(f"{args.family}, {label}:")
        print(f"  max |cross-correlation| = {s['max_abs_correlation']:.4f} "
              f"(3/sqrt(reps) = {bound:.4f})")
        print(f"  KS of screened Stage-2 p-values = {s['ks_distance_screened_pvalues']:.4f}")
        print(f"  rejection at 0.05 = {s['rejection_rate_0.05']:.4f}")


if __name__ == "__main__":
    main()
