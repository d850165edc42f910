"""Estimation of shared low-rank structure and node-sparse contrasts
between two groups of symmetric weighted networks.

The pipeline has three stages: a spectral initialization of the shared
matrix from the control group, support recovery of the perturbed nodes from
treatment residuals (SDP relaxation, group lasso, hard thresholding, or an
exhaustive oracle), and a debiased low-rank refinement built on asymmetric
eigen-decompositions of spliced independent views.
"""

from .matio import read_matrix, write_matrix
from .model import (
    NOISE_FAMILIES,
    GroundTruth,
    NoiseSpec,
    ObservationSet,
    assemble_observations,
    coherence_of,
    sample_decoy_perturbation,
    sample_incoherent_basis,
    sample_node_sparse,
    sample_noise,
)
from .spectral import (
    RankDecomposition,
    estimate_noise_scale,
    form_residual,
    select_low_coherence,
    spectral_init,
    stage_one,
)
from .support import (
    GroupLassoPath,
    GroupLassoResult,
    MSelection,
    SdpSolution,
    SolverOptions,
    build_cost,
    exhaustive_support,
    extract_support,
    false_negative_rate,
    group_lasso,
    group_lasso_path,
    group_lasso_support,
    hard_threshold,
    lambda_grid,
    select_m,
    solve_sdp,
)
from .refine import (
    asymmetric_combine,
    asymmetric_eigenpairs,
    debiased_eigenvectors,
    eigenspace_correction,
    entry_error,
    mask_support,
    reconstruct_symmetric,
    spectral_baseline,
    whitened_reconstruction,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    bootstrap_ci,
    eval_rule,
    preset_names,
    read_config,
    run_experiment,
    write_results,
    write_summary,
)

__version__ = "0.1.0"
