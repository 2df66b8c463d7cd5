"""Two-stage treatment-effect-heterogeneity discovery for randomized two-arm trials.

Stage-1 ranks interaction candidates by their main-effect evidence (full-model
or univariate p-values, LASSO entry order, PC variance, a supervised
multi-stage ML+PCA pipeline, or an internal risk model); Stage-2 tests the K
pre-specified leading candidates for treatment interaction with a
likelihood-ratio test, optionally calibrated against a simulated null.
"""

__version__ = "0.1.0"

from .boosting import BoostModel, Stump, fit_boost, select_by_influence
from .config import PipelineConfig, synthetic_spec_from_dict
from .data_model import SyntheticSpec, TrialDataset, generate_trial, load_csv, write_csv
from .families import BINOMIAL, GAUSSIAN, Family, family_from_name
from .glm import (
    DesignMatrix,
    GlmFit,
    build_additive_design,
    build_interaction_design,
    fit,
    lrt,
    standardized_arm_difference,
)
from .inference import (
    InteractionTest,
    NullDistribution,
    SimulationReport,
    correct_pvalue,
    derive_seed,
    power_study,
    run_pipeline,
    simulate_null,
    test_interaction,
    validate_theorem,
)
from .lasso import LassoPath, fit_path, rank_by_entry, soft_threshold
from .pca import PcaResult, compute_pca, rank_pcs_by_variance
from .screening import (
    ScreeningResult,
    irm_risk_projection,
    k_schedule,
    rank_full_model,
    rank_lasso,
    rank_univariate,
    screen_multi_stage,
    screen_pca_single_stage,
    stage2_dataset,
)
