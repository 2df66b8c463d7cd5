"""Acceptance suite: one test per release criterion, at the stated tolerance.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s` or on failure). Monte Carlo sizes, bands, and master seeds
are frozen; everything is deterministic.
"""

import dataclasses
import json
import pathlib
import time

import numpy as np
import pytest

import tehscreen as ts
from tehscreen.config import PipelineConfig, load_study
from tehscreen.inference import uniform_ks_distance

from _oracles import (
    align_signs,
    exhaustive_best_stump,
    pca_via_eigh,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def fixed_cfg(method, k, family="gaussian", **screening_extra):
    return PipelineConfig.from_dict(
        {
            "family": family,
            "screening": {"method": method, **screening_extra},
            "k_rule": {"rule": "fixed", "k": k},
        }
    )


def load_scenario(name):
    with open(SCENARIOS / name, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    spec, methods = load_study(cfg)
    return cfg, spec, methods


def test_criterion_1_type_i_error_after_supervised_screening():
    # 2000 H0 replicates, gaussian, n=200, p=10, full-model screen, K=3:
    # rejection at 0.05 within the 99% binomial band, KS < 0.045, < 3 min.
    reps, master = 2000, 812
    cfg = fixed_cfg("full_model", k=3)
    base = ts.SyntheticSpec(
        n=200, p=10, family=ts.GAUSSIAN,
        main_effects=(0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0),
        treatment_effect=0.3, seed=0,
    )
    start = time.monotonic()
    pvals = np.empty(reps)
    for r in range(reps):
        d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(master, r)))
        pvals[r] = ts.run_pipeline(d, cfg).p_raw
    elapsed = time.monotonic() - start
    rejection = float(np.mean(pvals <= 0.05))
    ks = uniform_ks_distance(pvals)
    ok = 0.037 <= rejection <= 0.063 and ks < 0.045 and elapsed < 180
    report(1, ok, f"rejection={rejection:.4f} in [0.037,0.063], KS={ks:.4f} < 0.045, "
                  f"runtime={elapsed:.0f}s < 180s")


def test_criterion_2_independence_correlations():
    # validate_theorem, 2000 reps, gaussian and binomial, raw and through a
    # fixed PCA projection: every cross-correlation within +/- 0.07, < 10 min.
    reps, master = 2000, 8211
    specs = {
        "gaussian": ts.SyntheticSpec(
            n=300, p=5, family=ts.GAUSSIAN, main_effects=(0.5, 0.4, 0.3, 0.2, 0.1),
            treatment_effect=0.3, seed=0,
        ),
        "binomial": ts.SyntheticSpec(
            n=500, p=5, family=ts.BINOMIAL, intercept=-0.2,
            main_effects=(0.5, 0.4, 0.3, 0.2, 0.1), treatment_effect=0.3, seed=0,
        ),
    }
    start = time.monotonic()
    worst = {}
    for name, spec in specs.items():
        plain = ts.validate_theorem(spec, reps=reps, seed=master)
        projected = ts.validate_theorem(spec, reps=reps, seed=master, projected=True)
        worst[name] = plain.summary["max_abs_correlation"]
        worst[f"{name}+proj"] = projected.summary["max_abs_correlation"]
    elapsed = time.monotonic() - start
    ok = all(v < 0.07 for v in worst.values()) and elapsed < 600
    detail = ", ".join(f"{k}={v:.4f}" for k, v in worst.items())
    report(2, ok, f"max |cross-correlation| {detail} (band 0.07), runtime={elapsed:.0f}s < 600s")


def test_criterion_3_power_gain_of_multi_stage_screening():
    # Committed scenario, 1000 paired replicates: multi-stage K=5 rejection
    # rate exceeds the all-variable test's by >= 0.05, significant at 99%.
    cfg, spec, methods = load_scenario("power_gain.json")
    study = ts.power_study(spec, methods, reps=cfg["reps"], seed=cfg["seed"], alpha=cfg["alpha"])
    rates = study.summary["rejection_rates"]
    paired = study.summary["paired_differences"]["multi_stage_k5 - all_variable"]
    gain = rates["multi_stage_k5"] - rates["all_variable"]
    ok = gain >= 0.05 and paired["z"] >= 2.326
    report(3, ok, f"multi-stage={rates['multi_stage_k5']:.3f}, "
                  f"all-variable={rates['all_variable']:.3f}, gain={gain:.3f} >= 0.05, "
                  f"paired z={paired['z']:.2f} >= 2.326")


def test_criterion_4_unblinded_risk_model_keeps_type_i_error():
    # 1000 H0 replicates with the treatment kept inside the risk model:
    # risk x treatment rejection at 0.05 within [0.032, 0.068].
    reps, master = 1000, 941
    cfg = fixed_cfg("irm", k=1, include_treatment=True)
    base = ts.SyntheticSpec(
        n=300, p=8, family=ts.GAUSSIAN,
        main_effects=(0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0),
        treatment_effect=0.3, seed=0,
    )
    pvals = np.empty(reps)
    for r in range(reps):
        d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(master, r)))
        pvals[r] = ts.run_pipeline(d, cfg).p_raw
    rejection = float(np.mean(pvals <= 0.05))
    ok = 0.032 <= rejection <= 0.068
    report(4, ok, f"rejection={rejection:.4f} in [0.032, 0.068]")


def test_criterion_5_per_variable_resolution_beats_risk_model():
    # Committed scenario with a dominant non-interacting prognostic variable:
    # multi-stage per-variable power exceeds IRM power by >= 0.05 over 1000
    # paired replicates.
    cfg, spec, methods = load_scenario("irm_resolution.json")
    study = ts.power_study(spec, methods, reps=cfg["reps"], seed=cfg["seed"], alpha=cfg["alpha"])
    rates = study.summary["rejection_rates"]
    paired = study.summary["paired_differences"][
        "multi_stage_per_variable - internal_risk_model"
    ]
    gain = rates["multi_stage_per_variable"] - rates["internal_risk_model"]
    ok = gain >= 0.05 and paired["z"] >= 2.326
    report(5, ok, f"multi-stage={rates['multi_stage_per_variable']:.3f}, "
                  f"IRM={rates['internal_risk_model']:.3f}, gain={gain:.3f} >= 0.05, "
                  f"paired z={paired['z']:.2f}")


def test_criterion_6_chi_square_miscalibration_and_correction():
    # Binomial, n=600, K=25: raw H0 rejection at 0.05 exceeds 0.08 over 1000
    # replicates; p-values corrected against an independent simulated null
    # pass KS < 0.06.
    spec = ts.SyntheticSpec(
        n=600, p=25, family=ts.BINOMIAL, intercept=-0.3,
        main_effects=tuple([0.5, 0.4, 0.3] + [0.0] * 22),
        treatment_effect=0.4, seed=3001,
    )
    base = ts.generate_trial(spec)
    cfg = PipelineConfig.from_dict({
        "family": "binomial", "screening": {"method": "full_model"},
        "k_rule": {"rule": "fixed", "k": 25}, "null_sim": {"reps": 1000},
    })
    null_a = ts.simulate_null(base, cfg, seed=951)
    null_b = ts.simulate_null(base, cfg, seed=952)
    raw_rejection = float(np.mean(null_a.p_values <= 0.05))
    corrected = np.array([ts.correct_pvalue(p, null_b) for p in null_a.p_values])
    ks = uniform_ks_distance(corrected)
    ok = raw_rejection > 0.08 and ks < 0.06
    report(6, ok, f"raw rejection={raw_rejection:.4f} > 0.08, corrected KS={ks:.4f} < 0.06")


def test_criterion_7_numerical_oracles():
    failures = []

    # gaussian IRLS equals the normal-equations solution to 1e-10
    d = ts.generate_trial(ts.SyntheticSpec(
        n=150, p=4, family=ts.GAUSSIAN, main_effects=(0.9, 0.5, 0.2, 0.0),
        treatment_effect=0.4, adjust_effects=(0.3,), seed=70,
    ))
    design = ts.build_additive_design(d)
    fit = ts.fit(design, d.y, ts.GAUSSIAN)
    direct = np.linalg.solve(design.matrix.T @ design.matrix, design.matrix.T @ d.y)
    if np.max(np.abs(fit.coefficients - direct)) >= 1e-10:
        failures.append("gaussian IRLS vs normal equations")

    # binomial score vector below 1e-6
    db = ts.generate_trial(ts.SyntheticSpec(
        n=300, p=4, family=ts.BINOMIAL, main_effects=(0.8, 0.5, 0.2, 0.0),
        treatment_effect=0.4, seed=71,
    ))
    design_b = ts.build_additive_design(db)
    fit_b = ts.fit(design_b, db.y, ts.BINOMIAL)
    mu = ts.BINOMIAL.inverse_link(design_b.matrix @ fit_b.coefficients)
    if np.max(np.abs(design_b.matrix.T @ (db.y - mu))) >= 1e-6:
        failures.append("binomial score vector")

    # lasso closed form on an orthonormal design (1e-8) with pathwise KKT
    rng = np.random.default_rng(72)
    n, c = 64, np.array([5.0, 3.0, 1.0])
    raw = rng.standard_normal((n, 3))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    x = np.sqrt(n) * q
    dl = ts.TrialDataset(
        y=x @ c, treatment=np.array([1, 0] * (n // 2)), x_candidates=x,
        x_adjust=np.empty((n, 0)),
    )
    path = ts.fit_path(dl, ts.GAUSSIAN, include_treatment=False, n_lambda=50)
    kkt_worst = 0.0
    for lam, beta, alpha in zip(
        path.lambdas, path.coefficients_std_per_lambda, path.unpenalized_per_lambda
    ):
        expected = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        if np.max(np.abs(beta - expected)) >= 1e-8:
            failures.append(f"lasso closed form at lambda={lam:.4g}")
            break
        xs = (dl.x_candidates - path.center) / path.scale
        resid = dl.y - alpha[0] - xs @ beta
        g = xs.T @ resid / n
        for j in range(3):
            viol = abs(g[j]) - lam if beta[j] == 0.0 else abs(abs(g[j]) - lam)
            kkt_worst = max(kkt_worst, viol)
    if kkt_worst >= 1e-6:
        failures.append("lasso KKT")

    # PCA equals the eigen-decomposition oracle to 1e-8
    xp = np.random.default_rng(73).standard_normal((40, 5)) @ np.diag([3, 2, 1.5, 1, 0.5])
    res = ts.compute_pca(xp, standardize=True)
    vectors, values = pca_via_eigh(xp, standardize=True)
    if not (
        np.allclose(res.score_variances, values, atol=1e-8)
        and np.allclose(res.loadings, align_signs(res.loadings, vectors), atol=1e-8)
    ):
        failures.append("PCA eigen oracle")

    # first boosting stump equals the exhaustive split search exactly
    xs_ = np.arange(1.0, 17.0)
    ys_ = np.array([0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1], dtype=float)
    ds = ts.TrialDataset(
        y=ys_, treatment=np.array([0, 1] * 8), x_candidates=xs_[:, None],
        x_adjust=np.empty((16, 0)),
    )
    model = ts.fit_boost(ds, ts.GAUSSIAN, n_trees=1, shrinkage=1.0)
    oracle = exhaustive_best_stump([xs_, ds.treatment.astype(float)], ys_ - ys_.mean())
    stump = model.stumps[0]
    if not (
        stump.split_variable == oracle[0]
        and stump.split_value == oracle[1]
        and stump.left_value == oracle[2]
        and stump.right_value == oracle[3]
        and stump.improvement == oracle[4]
    ):
        failures.append("boosting stump vs exhaustive search")

    # LRT invariance under column rescaling (1e-8)
    for family, seed in ((ts.GAUSSIAN, 74), (ts.BINOMIAL, 75)):
        dd = ts.generate_trial(ts.SyntheticSpec(
            n=150, p=3, family=family, main_effects=(0.7, 0.4, 0.0),
            treatment_effect=0.4, seed=seed,
        ))
        scaled = dd.with_candidates(dd.x_candidates * np.array([10.0, 1.0, 1.0]),
                                    dd.candidate_names)
        stats = []
        for data in (dd, scaled):
            nf = ts.fit(ts.build_additive_design(data), data.y, family)
            af = ts.fit(ts.build_interaction_design(data), data.y, family)
            stats.append(ts.lrt(nf, af, data.p)[0])
        if abs(stats[0] - stats[1]) >= 1e-8:
            failures.append(f"LRT rescaling invariance ({family.name})")

    ok = not failures
    report(7, ok, "all numerical oracles hold" if ok else f"failed: {failures}")


def test_criterion_8_linear_map_invariance():
    # K=p PCA-projected Stage-2 p-value equals the untransformed full-test
    # p-value to 1e-8 on 20 random datasets (10 gaussian, 10 binomial).
    worst = 0.0
    for i in range(20):
        family = ts.GAUSSIAN if i < 10 else ts.BINOMIAL
        d = ts.generate_trial(ts.SyntheticSpec(
            n=160, p=4, family=family, main_effects=(0.8, 0.5, 0.2, 0.0),
            treatment_effect=0.3, seed=ts.derive_seed(8800, i),
        ))
        projected = ts.screen_pca_single_stage(d, family, supervised=False, k=d.p)
        p_proj = ts.test_interaction(d, family, projected).p_raw
        identity = ts.ScreeningResult(
            method="full_model", ranking=tuple(range(d.p)), k_selected=d.p
        )
        p_full = ts.test_interaction(d, family, identity).p_raw
        worst = max(worst, abs(p_proj - p_full))
    ok = worst < 1e-8
    report(8, ok, f"max |p_projected - p_full| = {worst:.2e} < 1e-8 over 20 datasets")


def test_criterion_9_consistency_trend_with_log_schedule():
    # Interaction on the least prognostic covariate, log K schedule: power is
    # nondecreasing across n in {200, 800, 3200}, 500 replicates each.
    cfg = PipelineConfig.from_dict({
        "family": "gaussian", "screening": {"method": "full_model"},
        "k_rule": {"rule": "log"},
    })
    powers = []
    for n in (200, 800, 3200):
        base = ts.SyntheticSpec(
            n=n, p=10, family=ts.GAUSSIAN,
            main_effects=(1.0, 0.9, 0.8, 0.7, 0.6, 0.0, 0.0, 0.0, 0.0, 0.05),
            interaction_effects=(0.0,) * 9 + (0.3,),
            treatment_effect=0.3, seed=0,
        )
        pvals = np.empty(500)
        for r in range(500):
            d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(960 + n, r)))
            pvals[r] = ts.run_pipeline(d, cfg).p_raw
        powers.append(float(np.mean(pvals <= 0.05)))
    ok = powers[0] <= powers[1] <= powers[2]
    report(9, ok, f"power at n=(200, 800, 3200) with K=log(n): "
                  f"{powers[0]:.3f} <= {powers[1]:.3f} <= {powers[2]:.3f}")
