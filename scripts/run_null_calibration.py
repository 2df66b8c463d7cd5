#!/usr/bin/env python3
"""Reproduce the high-df chi-square miscalibration and its empirical repair.

Simulates a K=25 binomial trial, builds the test's H0 distribution twice with
independent seeds, and reports the raw over-rejection plus the calibration of
p-values corrected against the second (independent) null. Optionally dumps
the replicate-level p-values to CSV for external plotting.

Usage: python scripts/run_null_calibration.py [--reps N] [--csv out.csv]
"""

import argparse
import csv
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import tehscreen as ts
from tehscreen.config import PipelineConfig
from tehscreen.inference import uniform_ks_distance


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    spec = ts.SyntheticSpec(
        n=600, p=25, family=ts.BINOMIAL, intercept=-0.3,
        main_effects=tuple([0.5, 0.4, 0.3] + [0.0] * 22),
        treatment_effect=0.4, seed=3001,
    )
    base = ts.generate_trial(spec)
    cfg = PipelineConfig.from_dict({
        "family": "binomial",
        "screening": {"method": "full_model"},
        "k_rule": {"rule": "fixed", "k": 25},
    })

    null_a = ts.simulate_null(base, ts.BINOMIAL, cfg, reps=args.reps, seed=951)
    null_b = ts.simulate_null(base, ts.BINOMIAL, cfg, reps=args.reps, seed=952)
    corrected = np.array([ts.correct_pvalue(p, null_b) for p in null_a.p_values])

    print(f"n=600, K=25 binomial interaction test, {args.reps} H0 replicates")
    print(f"  raw rejection at 0.05:       {np.mean(null_a.p_values <= 0.05):.4f} (nominal 0.05)")
    print(f"  raw KS vs uniform:           {uniform_ks_distance(null_a.p_values):.4f}")
    print(f"  corrected rejection at 0.05: {np.mean(corrected <= 0.05):.4f}")
    print(f"  corrected KS vs uniform:     {uniform_ks_distance(corrected):.4f}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p_raw", "p_corrected"])
            for raw, corr in zip(null_a.p_values, corrected):
                writer.writerow([repr(float(raw)), repr(float(corr))])
        print(f"  replicate p-values written to {args.csv}")


if __name__ == "__main__":
    main()
