"""End-to-end acceptance suite.

Each test pins one documented behavior band of the full pipeline at fixed
protocol parameters and seeds.  These are Monte-Carlo bands, not unit
tolerances: the configurations below were calibrated once and are exactly
reproducible (seeded, thread-count independent), so a failure means the
behavior changed, not that the dice rolled badly.
"""

import math
import time

import numpy as np
import pytest

from netcontrast.harness import config_from_mapping, run_experiment, write_results
from netcontrast.model import (
    GroundTruth,
    NoiseSpec,
    assemble_observations,
    sample_incoherent_basis,
    sample_node_sparse,
)
from netcontrast.refine import (
    asymmetric_combine,
    asymmetric_eigenpairs,
    eigenspace_correction,
    entry_error,
    mask_support,
    spectral_baseline,
    whitened_reconstruction,
)
from netcontrast.spectral import estimate_noise_scale, form_residual, spectral_init
from netcontrast.support import (
    build_cost,
    exhaustive_support,
    extract_support,
    group_lasso,
    group_lasso_path,
    lambda_grid,
    solve_sdp,
)


def group_means(rows):
    groups = {}
    for row in rows:
        groups.setdefault((row.method, row.param), []).append(row.value)
    return {k: float(np.nanmean(v)) for k, v in groups.items()}


def run(mapping, threads=1):
    return run_experiment(config_from_mapping(mapping), threads=threads)


# ---------------------------------------------------------------------------
# 1. SNR phase transition: support recovery flips between C=0.8 and C=2.4

def test_snr_phase_transition_bands():
    res = run({"preset": "exp-snr", "n": "300", "trials": "20", "seed": "0",
               "params": "0.8,2.4", "methods": "sdp,glasso"})
    means = group_means(res.rows)
    for method in ("sdp", "glasso"):
        assert means[(method, "2.4")] <= 0.05, means
        assert means[(method, "0.8")] >= 0.5, means


# ---------------------------------------------------------------------------
# 2. adversarial construction: group lasso degrades, SDP stays exact

def test_adversarial_glasso_failure_band():
    res = run({"preset": "exp-glfail", "trials": "50", "seed": "0"})
    means = group_means(res.rows)
    param = res.rows[0].param
    assert means[("sdp", param)] <= 0.01, means
    assert 0.10 <= means[("glasso", param)] <= 0.22, means
    assert means[("hard", param)] >= 0.05, means


# ---------------------------------------------------------------------------
# 3. row-heteroscedastic noise: product cost works, squared average fails

def test_multicopy_product_cost_band():
    res = run({"preset": "exp-multicopy", "trials": "20", "seed": "0"})
    means = group_means(res.rows)
    param = res.rows[0].param
    assert means[("sdp-multi", param)] <= 0.10, means
    assert means[("sdp", param)] >= 0.40, means


# ---------------------------------------------------------------------------
# 4. heavy-tailed noise: truncated cost works, vanilla fails

def test_heavytail_truncation_band():
    res = run({"preset": "exp-heavytail", "trials": "20", "seed": "0"})
    means = group_means(res.rows)
    param = res.rows[0].param
    assert means[("sdp-trunc", param)] <= 0.10, means
    assert means[("sdp", param)] >= 0.40, means


# ---------------------------------------------------------------------------
# 5. spiky eigenvectors: screening rescues support recovery

def test_coherence_screening_band():
    res = run({"preset": "exp-coherence", "trials": "20", "seed": "0",
               "r": "4",
               "params": "mu=n**0.75|screen=off,mu=n**0.75|screen=on"})
    means = group_means(res.rows)
    assert means[("sdp", "mu=n**0.75|screen=off")] >= 0.3, means
    assert means[("sdp", "mu=n**0.75|screen=on")] <= 0.05, means


# ---------------------------------------------------------------------------
# 6. tiny instances: the SDP relaxation matches brute-force least squares

@pytest.fixture(scope="module")
def oracle_equivalence_solutions():
    nt, m = 12, 2
    scale = 3.0 * nt ** 0.25 * math.log(nt) ** 0.25
    solutions = []
    tallies = {}
    start = time.monotonic()
    for noisy in (True, False):
        agree = 0
        for seed in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(60, spawn_key=(int(noisy), seed)))
            b, _ = sample_node_sparse(nt, m, scale, rng)
            y = b.copy()
            if noisy:
                w = rng.standard_normal((nt, nt))
                w = (w + w.T) / np.sqrt(2)
                w[np.diag_indices(nt)] = rng.standard_normal(nt) * np.sqrt(2)
                y = b + w
            sol = solve_sdp(build_cost(y), m, rng=np.random.default_rng(seed))
            solutions.append(sol)
            sdp_idx = extract_support(sol, m)
            lse_idx = exhaustive_support(y, m)
            agree += bool(np.array_equal(sdp_idx, lse_idx))
        tallies["noisy" if noisy else "clean"] = agree
    elapsed = time.monotonic() - start
    return solutions, tallies, elapsed


def test_oracle_equivalence(oracle_equivalence_solutions):
    _, tallies, elapsed = oracle_equivalence_solutions
    assert tallies["noisy"] >= 48, tallies
    assert tallies["clean"] == 50, tallies
    assert elapsed <= 30.0


def test_converged_solutions_meet_residual_tolerances(oracle_equivalence_solutions):
    solutions, _, _ = oracle_equivalence_solutions
    k = 12 - 2
    checked = 0
    for sol in solutions:
        if sol.converged:
            assert sol.trace_residual <= 1e-6 * k
            assert sol.sum_residual <= 1e-6 * k * k
            checked += 1
    assert checked >= 90  # non-convergence should be rare here


# ---------------------------------------------------------------------------
# 7. group-lasso path: one-way activation, -1/2 slope, signal-first ordering

def _path_instance(n, trial, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0, trial, 0)))
    m = 5
    sigma_b = 1.9 * n ** -0.25 * math.log(n) ** 0.25
    b, sup = sample_node_sparse(n, m, sigma_b, rng)
    noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
    from netcontrast.model import sample_noise

    return b + sample_noise(n, noise, rng), sup, m


def test_path_activation_is_one_way_and_signal_first():
    n = 300
    signal_first = 0
    for trial in range(20):
        y, sup, m = _path_instance(n, trial)
        grid = lambda_grid(y, num=60)
        path = group_lasso_path(y, grid)
        act_tol = 1e-6 * float(path.alphas.max())
        active = path.alphas > act_tol
        # (a) once a node activates it never deactivates at smaller penalties
        for i in range(n):
            hits = np.flatnonzero(active[:, i])
            if hits.size:
                assert np.array_equal(hits, np.arange(hits[0], active.shape[0])), (
                    f"trial {trial}: node {i} deactivated along the path")
        # (c) the m signal nodes are among the first m+1 activations
        act = path.activation_lambda
        order = np.argsort(-np.nan_to_num(act, nan=-np.inf), kind="stable")
        first = set(order[: m + 1].tolist())
        signal_first += set(sup.tolist()) <= first
    assert signal_first >= 18, signal_first


def test_path_slope_is_minus_half_with_zero_diagonal():
    y, _, _ = _path_instance(300, 0)
    np.fill_diagonal(y, 0.0)
    norms = np.linalg.norm(y, axis=1)
    lam = 0.3 * float(norms.min())
    h = 0.02 * lam
    res_lo = group_lasso(y, lam - h)
    res_hi = group_lasso(y, lam + h)
    assert np.all(res_lo.alpha > 0) and np.all(res_hi.alpha > 0)
    slopes = (res_hi.alpha - res_lo.alpha) / (2 * h)
    med = float(np.median(slopes))
    assert -0.55 <= med <= -0.45, med


# ---------------------------------------------------------------------------
# 8. noise-scale estimate lands within a constant factor of sigma

def test_noise_scale_band():
    n, r = 500, 3
    vals_rule = lambda: 3.0 * math.sqrt(n) + (r - np.arange(r)) * math.log(n)
    for sigma in (0.5, 1.0, 2.0):
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(int(sigma * 2), seed)))
            basis = sample_incoherent_basis(n, r, math.log(n), rng)
            gt = GroundTruth(basis=basis, eigenvalues=vals_rule(), perturbations=[])
            noise = NoiseSpec(family="gaussian-iid", sigma=sigma)
            obs = assemble_observations(gt, noise, 1, 0, rng)
            dec = spectral_init(obs.g0, r)
            tau = estimate_noise_scale(obs.g0[0], dec)
            assert 0.4 <= tau / sigma <= 2.5, (sigma, seed, tau)


# ---------------------------------------------------------------------------
# 9. refinement suite

def _refine_truth(n, r, seed, lmin=3.0, mu=None, gaps=None):
    rng = np.random.default_rng(seed)
    basis = sample_incoherent_basis(n, r, mu if mu is not None else math.log(n), rng)
    if gaps is None:
        vals = lmin * math.sqrt(n) + (r - np.arange(r)) * math.log(n)
    else:
        vals = np.asarray(gaps, dtype=float)
    return GroundTruth(basis=basis, eigenvalues=vals, perturbations=[]), rng


def test_noiseless_end_to_end_recovery():
    n, r, m = 120, 3, 6
    rng = np.random.default_rng(90)
    basis = sample_incoherent_basis(n, r, math.log(n), rng)
    vals = 3.0 * math.sqrt(n) + (r - np.arange(r)) * math.log(n)
    b, sup = sample_node_sparse(n, m, 1.0, rng)
    gt = GroundTruth(basis=basis, eigenvalues=vals, perturbations=[(b, sup)])
    noise = NoiseSpec(family="gaussian-iid", sigma=0.0)
    obs = assemble_observations(gt, noise, 2, 1, rng)
    mstar = gt.shared_matrix()
    scale = float(np.abs(mstar).max())

    # no perturbation present: the pipeline reproduces the full matrix
    dec = spectral_init(obs.g0, r)
    assert entry_error(dec.reconstruct(), mstar) <= 1e-6 * scale

    # planted support: recover it, mask it, and refine the complement block
    resid = form_residual(obs.g1[0], dec)
    est = extract_support(solve_sdp(build_cost(resid), m), m)
    assert np.array_equal(est, sup)
    masked = [mask_support(y, est) for y in obs.g0]
    comp = asymmetric_combine(masked[0], masked[1])
    adec = asymmetric_eigenpairs(comp, r)
    corr = eigenspace_correction(adec, masked[0], masked[1])
    m2 = whitened_reconstruction(adec, corr)
    target = mask_support(mstar, est)
    assert entry_error(m2, target) <= 1e-6 * scale


def test_four_copy_baseline_error_ratio():
    n, r = 400, 3
    ratios_num, ratios_den = [], []
    for seed in range(20):
        gt, rng = _refine_truth(n, r, seed + 300)
        mstar = gt.shared_matrix()
        noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
        obs = assemble_observations(gt, noise, 4, 0, rng)
        err4 = entry_error(spectral_baseline(obs.g0, r), mstar)
        err1 = entry_error(spectral_baseline(obs.g0[0], r), mstar)
        ratios_num.append(err4)
        ratios_den.append(err1)
    ratio = float(np.mean(ratios_num) / np.mean(ratios_den))
    assert 0.4 <= ratio <= 0.65, ratio


def test_whitening_factor_near_identity():
    # mutual eigenvalue gaps at the sqrt(n) scale with the smallest eigenvalue
    # pinned at 3*sqrt(n); with log(n)-sized gaps the signal directions mix and
    # the correction factor legitimately moves away from the identity
    n, r = 400, 3
    gaps = math.sqrt(n) * np.array([5.0, 4.0, 3.0])
    for seed in range(5):
        gt, rng = _refine_truth(n, r, seed + 400, gaps=gaps)
        mstar = gt.shared_matrix()
        noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
        obs = assemble_observations(gt, noise, 4, 0, rng)
        comp = asymmetric_combine(obs.g0[0], obs.g0[1])
        dec = asymmetric_eigenpairs(comp, r)
        corr = eigenspace_correction(dec, obs.g0[2], obs.g0[3])
        assert np.allclose(corr, corr.T)
        assert np.linalg.eigvalsh(corr).min() > 0
        assert np.linalg.norm(corr - np.eye(r), 2) <= 0.5, (seed,)


def test_eigengap_ratio_negligible_impact():
    res = run({"preset": "exp-eigengap", "trials": "20", "seed": "0",
               "params": "1,n**(1/6)", "methods": "mhat2"})
    by_param = {}
    for row in res.rows:
        by_param.setdefault(row.param, []).append(row.value)
    medians = {p: float(np.nanmedian(v)) for p, v in by_param.items()}
    lo, hi = sorted(medians.values())
    assert hi <= 1.25 * lo, medians


# ---------------------------------------------------------------------------
# 10. determinism: thread count never changes output bytes

def test_csv_bytes_identical_across_thread_counts(tmp_path):
    mapping = {"preset": "exp-snr", "n": "120", "trials": "3", "seed": "5",
               "params": "1.6", "methods": "sdp,glasso"}
    res1 = run(mapping, threads=1)
    res8 = run(mapping, threads=8)
    p1, p8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    write_results(res1, p1)
    write_results(res8, p8)
    assert p1.read_bytes() == p8.read_bytes()
