import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from netcontrast import harness, refine, spectral
from netcontrast.cli import main
from netcontrast.matio import read_matrix
from netcontrast.model import GroundTruth, NoiseSpec, sample_incoherent_basis, sample_noise
from netcontrast.refine import (
    ESTIMATORS,
    asymmetric_combine,
    asymmetric_eigenpairs,
    debiased_eigenvectors,
    eigenspace_correction,
    entry_error,
    estimate,
    mask_support,
    reconstruct_symmetric,
    spectral_baseline,
    whitened_reconstruction,
)
from netcontrast.spectral import _average, _pair_copies, _sign_fix, _symmetric_product


def rng_of(seed):
    return np.random.default_rng(seed)


def planted(n, r, seed, lmin=3.0, mu=None, spread=None):
    # spread: per-eigenvalue multiples of sqrt(n); the default lmin scale
    # with log-n gaps is fine noiseless but too degenerate under heavy noise
    rng = rng_of(seed)
    u = sample_incoherent_basis(n, r, mu if mu is not None else np.log(float(n)), rng)
    if spread is None:
        vals = lmin * np.sqrt(n) + (r - np.arange(r)) * np.log(n)
    else:
        vals = np.asarray(spread, dtype=float) * np.sqrt(n)
    gt = GroundTruth(basis=u, eigenvalues=vals, perturbations=[])
    return gt, rng


def noisy_copy(m, rng, sigma=1.0):
    n = m.shape[0]
    w = rng.standard_normal((n, n))
    w = (w + w.T) / np.sqrt(2)
    w[np.diag_indices(n)] = rng.standard_normal(n) * np.sqrt(2)
    return m + sigma * w


def test_mask_support_zeroes_rows_and_columns():
    y = rng_of(0).standard_normal((6, 6))
    out = mask_support(y, [1, 4])
    comp = [0, 2, 3, 5]
    assert np.all(out[[1, 4], :] == 0)
    assert np.all(out[:, [1, 4]] == 0)
    assert np.array_equal(out[np.ix_(comp, comp)], y[np.ix_(comp, comp)])


def test_asymmetric_combine_splices_triangles():
    a = np.full((4, 4), 2.0)
    b = np.full((4, 4), -3.0)
    c = asymmetric_combine(a, b)
    assert np.all(c[np.triu_indices(4, 1)] == 2.0)
    assert np.all(c[np.tril_indices(4, 0)] == -3.0)
    with pytest.raises(ValueError):
        asymmetric_combine(np.eye(3), np.eye(4))


def with_signed_zeros(n, rng):
    # a Gaussian matrix with about a fifth of its entries -0.0 and a fifth +0.0
    a = rng.standard_normal((n, n))
    u = rng.random((n, n))
    a[u < 0.2] = -0.0
    a[u > 0.8] = 0.0
    return a


def assert_same_bits(x, y):
    assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_asymmetric_combine_is_the_sum_of_the_triangles_of_the_means(n):
    rng = rng_of(n)
    mats = [with_signed_zeros(n, rng) for _ in range(6)]
    kept = [m.copy() for m in mats]
    for count in (1, 2, 3):
        upper, lower = mats[:count], mats[3:3 + count]
        want = np.triu(_average(upper), 1) + np.tril(_average(lower), 0)
        assert_same_bits(asymmetric_combine(upper, lower), want)
    assert_same_bits(asymmetric_combine(mats[0], mats[1]),
                     np.triu(mats[0], 1) + np.tril(mats[1], 0))
    for m, k in zip(mats, kept):
        assert_same_bits(m, k)


def symmetric_with_signed_zeros(n, rng):
    # with_signed_zeros with its upper triangle mirrored: exactly symmetric
    a = with_signed_zeros(n, rng)
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    return a


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_copies_kept_two_to_an_array_give_the_results_of_plain_ones(n):
    # copy 2k's strict upper triangle and diagonal vector, copy 2k+1's lower
    # triangle and diagonal in one array: every mean, composite and estimate
    # is bit for bit that of the copies themselves, for 1 to 5 copies
    rng = rng_of(n)
    mats = [symmetric_with_signed_zeros(n, rng) for _ in range(5)]
    r = min(n, 3)
    basis = np.linalg.qr(rng.standard_normal((n, r)))[0]
    mstar = _symmetric_product(basis, np.array([8.0, 6.0, 4.0][:r]) * math.sqrt(n))
    noisy = [mstar + m for m in mats]   # a spike above the noise: the solves converge
    for count in range(1, 6):
        for plain in (mats[:count], noisy[:count]):
            kept = [m.copy() for m in plain]
            packed = _pair_copies(m.copy() for m in plain)
            assert_same_bits(_average(packed), _average(plain))
            for k in range(count):
                assert_same_bits(_average(packed[k]), plain[k])
            for first, second, step in ((0, 1, 2), (1, 0, 2), (0, 1, 4), (2, 3, 4)):
                if count > max(first, second):
                    assert_same_bits(
                        asymmetric_combine(packed[first::step], packed[second::step]),
                        asymmetric_combine(plain[first::step], plain[second::step]))
            for m, k in zip(plain, kept):
                assert_same_bits(m, k)
        got, want = estimate(ESTIMATORS, r, packed), estimate(ESTIMATORS, r, plain)
        for (name, est, error), (_, expected, message) in zip(got, want):
            assert error == message, name
            if est is not None:
                assert_same_bits(est, expected)


def test_asymmetric_combine_refuses_bad_views():
    for upper, lower in ((np.eye(3), np.eye(4)), (np.ones((3, 4)), np.ones((3, 4))),
                         ([np.eye(3), np.eye(4)], np.eye(3)), ([], np.eye(3)),
                         (np.eye(3), [np.eye(3), np.ones((3, 4))])):
        with pytest.raises(ValueError):
            asymmetric_combine(upper, lower)
    # a mean that is not finite where the composite reads it
    huge = np.full((200, 200), 1e308)
    for upper, lower in (([huge, huge], np.eye(200)), (np.eye(200), [huge, huge])):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="matrices must be finite"):
            asymmetric_combine(upper, lower)


def test_reconstruct_symmetric_is_the_old_formula():
    rng = rng_of(3)
    vecs, vals = rng.standard_normal((300, 3)), rng.standard_normal(3)
    a = (vecs * vals) @ vecs.T
    assert_same_bits(reconstruct_symmetric(vecs, vals), 0.5 * (a + a.T))


def test_asymmetric_eigenpairs_noiseless_matches_truth():
    gt, _ = planted(80, 3, 1)
    m = gt.shared_matrix()
    dec = asymmetric_eigenpairs(m, 3)
    assert np.allclose(dec.values, gt.eigenvalues, atol=1e-8)
    fixed = gt.basis.copy()
    _sign_fix(fixed)
    assert np.allclose(dec.right, fixed, atol=1e-8)
    assert np.allclose(dec.left, fixed, atol=1e-8)


def test_asymmetric_eigenpairs_orders_by_magnitude():
    q, _ = np.linalg.qr(rng_of(2).standard_normal((30, 3)))
    m = (q * [4.0, -11.0, 7.0]) @ q.T
    dec = asymmetric_eigenpairs(m, 2)
    assert np.allclose(np.abs(dec.values), [11.0, 7.0])


def test_asymmetric_eigenpairs_rejects_complex_spectrum():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        asymmetric_eigenpairs(rot, 1)
    with pytest.raises(ValueError):
        asymmetric_eigenpairs(np.eye(3), 0)


def dense_reference(mat, rank):
    # the full decomposition with the sign conventions of asymmetric_eigenpairs
    w, vl, vr = scipy.linalg.eig(mat, left=True, right=True)
    order = np.argsort(-np.abs(w), kind="stable")[:rank]
    w, vl, vr = w[order].real, vl[:, order].real, vr[:, order].real
    vr = _sign_fix(vr / np.linalg.norm(vr, axis=0))
    vl = vl / np.linalg.norm(vl, axis=0)
    vl *= np.where(np.sum(vl * vr, axis=0) < 0, -1.0, 1.0)
    return w, vr, vl


def dense_sizes(monkeypatch, name):
    """Record the size of every matrix that np.linalg.<name> decomposes: the
    n x n one is the dense solve, smaller ones are the Krylov basis's."""
    sizes, solve = [], getattr(np.linalg, name)

    def recording(mat, *args, **kwargs):
        sizes.append(np.shape(mat)[0])
        return solve(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return sizes


def clustered(n, seed, symmetric=False):
    # half the spectrum within 1e-6 of 10 and the rest in [-1, 1]: no gap
    # after the top values that the Krylov basis can resolve by its cap
    rng = rng_of(seed)
    vals = np.concatenate([10.0 + 1e-6 * np.linspace(1.0, 0.0, n // 2),
                           rng.uniform(-1.0, 1.0, n - n // 2)])
    if symmetric:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * vals) @ q.T
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return (s * vals) @ np.linalg.inv(s)


def refine_copies(n, seed, count=4):
    # noisy copies of an exp-refine point (mu = n^0.8 capped at n/4 for
    # small n, smallest eigenvalue 2.05 sqrt(n)), as the harness draws them
    gt, rng = planted(n, 3, seed, mu=min(n ** 0.8, n / 4), spread=(2.05 * np.sqrt(n) + 2 * np.log(n),
                                                       2.05 * np.sqrt(n) + np.log(n),
                                                       2.05 * np.sqrt(n)))
    m = gt.shared_matrix()
    return [noisy_copy(m, rng) for _ in range(count)]


def refine_composite(n, seed):
    return asymmetric_combine(*refine_copies(n, seed, count=2))


def test_asymmetric_eigenpairs_partial_matches_dense():
    comp = refine_composite(200, 12)
    dec = asymmetric_eigenpairs(comp, 3)
    w, vr, vl = dense_reference(comp, 3)
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    assert np.abs(dec.right - vr).max() < 1e-8
    assert np.abs(dec.left - vl).max() < 1e-8


def test_asymmetric_eigenpairs_skips_dense_solve_below_n_minus_one(monkeypatch):
    comp = refine_composite(40, 13)
    w, vr, _ = dense_reference(comp, 3)
    sizes = dense_sizes(monkeypatch, "eig")
    assert np.allclose(asymmetric_eigenpairs(comp, 3).values, w, rtol=1e-10, atol=0)
    assert sizes and max(sizes) < 40
    # the Krylov basis needs rank < n - 1, so each side solves the 4 x 4
    # matrix densely; the 3 x 3 two-sided step follows
    del sizes[:]
    asymmetric_eigenpairs(comp[:4, :4], 3)
    assert sizes.count(4) == 2


def test_asymmetric_eigenpairs_ones_in_null_space(monkeypatch):
    # the Krylov basis of this rank-2 matrix breaks down at dimension 2, and
    # the Ritz pairs of that invariant subspace are exact: no dense solve.
    # All entries tie in magnitude, so the sign convention is moot: each
    # right and left pair is compared up to one sign
    n = 48
    u = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / np.sqrt(n)
    v = np.where(np.arange(n) % 4 < 2, 1.0, -1.0) / np.sqrt(n)
    mat = 50.0 * np.outer(u, u) + 30.0 * np.outer(v, v)
    assert np.allclose(mat @ np.ones(n), 0.0)
    w, vr, vl = dense_reference(mat, 2)
    sizes = dense_sizes(monkeypatch, "eig")
    dec = asymmetric_eigenpairs(mat, 2)
    assert n not in sizes
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    sign = np.sign(np.sum(dec.right * vr, axis=0))
    assert np.abs(dec.right * sign - vr).max() < 1e-8
    assert np.abs(dec.left * sign - vl).max() < 1e-8


def test_asymmetric_eigenpairs_dense_fallback_without_gap(monkeypatch):
    # no check passes by the Krylov cap, so each side runs numpy's dense eig
    n = 200
    mat = clustered(n, 14)
    w, _, _ = dense_reference(mat, 3)
    sizes = dense_sizes(monkeypatch, "eig")
    dec = asymmetric_eigenpairs(mat, 3)
    assert sizes.count(n) == 2
    assert np.allclose(dec.values, w, rtol=1e-12, atol=0)
    assert np.abs(mat @ dec.right - dec.right * dec.values).max() < 1e-10
    assert np.abs(mat.T @ dec.left - dec.left * dec.values).max() < 1e-10


def test_asymmetric_eigenpairs_dense_fallback_on_arpack_error(monkeypatch):
    # the iterative solve gives up on both sides (ARPACK's no-convergence
    # error once, now a Krylov basis that runs to its cap without a check),
    # so each side runs numpy's dense eig
    comp = refine_composite(60, 14)
    monkeypatch.setattr(spectral, "_KRYLOV_CHECK", 10 ** 9)
    sizes = dense_sizes(monkeypatch, "eig")
    dec = asymmetric_eigenpairs(comp, 3)
    assert sizes.count(60) == 2
    w, vr, vl = dense_reference(comp, 3)
    assert np.allclose(dec.values, w, rtol=1e-14, atol=0)
    assert np.abs(dec.right - vr).max() < 1e-12
    assert np.abs(dec.left - vl).max() < 1e-12


def test_asymmetric_eigenpairs_dense_left_after_arpack_error_on_transpose(monkeypatch):
    # the iterative solve gives the right pairs and gives up on the transpose
    # only, whose left pairs then come from numpy's dense eig
    comp = refine_composite(60, 14)
    top, eig, dense = refine._top_eigenpairs, np.linalg.eig, []

    def fails_on_transpose(mat, rank):
        if not mat.flags.f_contiguous:
            return top(mat, rank)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_KRYLOV_CHECK", 10 ** 9)
            return top(mat, rank)

    def recording_eig(mat):
        if mat.shape[0] == 60:
            dense.append(mat.flags.f_contiguous)
        return eig(mat)

    monkeypatch.setattr(refine, "_top_eigenpairs", fails_on_transpose)
    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    dec = asymmetric_eigenpairs(comp, 3)
    assert dense == [True]
    w, vr, vl = dense_reference(comp, 3)
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    assert np.abs(dec.right - vr).max() < 1e-8
    assert np.abs(dec.left - vl).max() < 1e-8


def span_projector(vecs):
    q, _ = np.linalg.qr(vecs)
    return q @ q.T


def spectral_projection(values, right, left):
    # sum of value * r l^T / (l^T r) over the pairs
    return (right * (values / np.sum(left * right, axis=0))) @ left.T


def test_asymmetric_eigenpairs_near_tied_top_pair_matches_dense(monkeypatch):
    # top values 10 and 10 (1 - 1e-6) over a bulk in [-1, 1]: each side's
    # vectors within the tied pair are fixed only to residual / gap, so the
    # pair is compared by the subspaces that it spans, and the spectral
    # projection, which pairs the two sides, to the dense one
    n = 300
    rng = rng_of(22)
    vals = np.concatenate([[10.0, 10.0 * (1 - 1e-6), 6.0], rng.uniform(-1.0, 1.0, n - 3)])
    s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    mat = (s * vals) @ np.linalg.inv(s)
    w, vr, vl = dense_reference(mat, 3)
    sizes = dense_sizes(monkeypatch, "eig")
    dec = asymmetric_eigenpairs(mat, 3)
    assert n not in sizes
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    for got, want in ((dec.right, vr), (dec.left, vl)):
        assert np.abs(span_projector(got[:, :2]) - span_projector(want[:, :2])).max() < 1e-10
        assert np.abs(got[:, 2] - want[:, 2]).max() < 1e-10
    proj = spectral_projection(dec.values, dec.right, dec.left)
    assert np.abs(proj - spectral_projection(w, vr, vl)).max() < 1e-12


def test_asymmetric_eigenpairs_partial_rejects_complex_spectrum():
    # top pair +-9i from a rotation block, well above the rest of the spectrum
    mat = np.diag(np.linspace(1.0, 2.0, 12))
    mat[:2, :2] = [[0.0, 9.0], [-9.0, 0.0]]
    with pytest.raises(np.linalg.LinAlgError, match="not real"):
        asymmetric_eigenpairs(mat, 2)


def test_asymmetric_eigenpairs_pairs_values_tied_in_magnitude():
    # eigenvalues 5 and -5 tie in magnitude, and each left vector must still
    # meet its own right vector
    n = 30
    for seed in range(6):
        rng = rng_of(seed)
        s = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        vals = np.concatenate([[5.0, -5.0], rng.uniform(-1.0, 1.0, n - 2)])
        mat = (s * vals) @ np.linalg.inv(s)
        dec = asymmetric_eigenpairs(mat, 2)
        w, vr, vl = dense_reference(mat, 2)
        for j in range(2):
            k = np.argmin(np.abs(w - dec.values[j]))
            assert abs(dec.values[j] - w[k]) < 1e-10
            assert np.abs(dec.right[:, j] - vr[:, k]).max() < 1e-8
            assert np.abs(dec.left[:, j] - vl[:, k]).max() < 1e-8


def test_asymmetric_eigenpairs_rejects_unpaired_left_values(monkeypatch):
    # the left solve (on the transpose) returns vectors that span another,
    # not invariant, subspace: its Ritz residuals are far above the bound
    top = refine._top_eigenpairs

    def other_span_on_transpose(mat, rank):
        w, v = top(mat, rank)
        if mat.flags.f_contiguous:
            v = v + 0.1 * rng_of(0).standard_normal(v.shape)
        return w, v

    monkeypatch.setattr(refine, "_top_eigenpairs", other_span_on_transpose)
    with pytest.raises(np.linalg.LinAlgError, match="Ritz residuals"):
        asymmetric_eigenpairs(refine_composite(40, 15), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_asymmetric_eigenpairs_rejects_non_finite_input(bad):
    y = np.eye(6)
    y[1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        asymmetric_eigenpairs(y, 2)


def test_degenerate_overlap_raises():
    # nearly defective pair: left and right eigenvectors almost orthogonal
    a = np.array([[1.0, 1e8], [0.0, 1.0 + 1e-9]])
    dec = asymmetric_eigenpairs(a, 2)
    with pytest.raises(ValueError):
        debiased_eigenvectors(dec)


def test_debiased_eigenvectors_noiseless_identity():
    gt, _ = planted(70, 3, 4)
    dec = asymmetric_eigenpairs(gt.shared_matrix(), 3)
    fixed = gt.basis.copy()
    _sign_fix(fixed)
    est = debiased_eigenvectors(dec)
    assert np.allclose(est, fixed, atol=1e-8)
    assert np.abs(est).max() <= 1.0


def test_debiased_reconstruction_noisy_sanity():
    gt, rng = planted(200, 3, 5, spread=(9.0, 6.0, 4.0))
    m = gt.shared_matrix()
    comp = asymmetric_combine(noisy_copy(m, rng), noisy_copy(m, rng))
    dec = asymmetric_eigenpairs(comp, 3)
    est = debiased_eigenvectors(dec)
    norms = np.linalg.norm(est, axis=0)
    assert np.all((0.7 < norms) & (norms < 1.3))
    m1 = reconstruct_symmetric(est, dec.values)
    assert np.array_equal(m1, m1.T)
    assert entry_error(m1, m) < 0.5 * np.abs(m).max()


def test_correction_noiseless_is_identity():
    gt, _ = planted(90, 3, 6)
    m = gt.shared_matrix()
    dec = asymmetric_eigenpairs(m, 3)
    psi = eigenspace_correction(dec, m, m)
    assert np.allclose(psi, np.eye(3), atol=1e-8)
    white = dec.right @ psi
    assert np.allclose(white.T @ white, np.eye(3), atol=1e-8)
    assert np.allclose(whitened_reconstruction(dec, psi), m, atol=1e-6)


def test_correction_square_is_symmetrized_inverse_form():
    gt, rng = planted(120, 3, 7, spread=(12.0, 8.0, 5.0))
    m = gt.shared_matrix()
    dec = asymmetric_eigenpairs(asymmetric_combine(noisy_copy(m, rng), noisy_copy(m, rng)), 3)
    c1, c2 = noisy_copy(m, rng), noisy_copy(m, rng)
    psi = eigenspace_correction(dec, c1, c2)
    assert np.allclose(psi, psi.T)
    assert np.linalg.eigvalsh(psi).min() > 0
    # psi^2 is the symmetrized inverse of the eigenvalue-scaled form U^T C1 C2 U
    g = np.linalg.inv(dec.right.T @ c1 @ c2 @ dec.right / np.outer(dec.values, dec.values))
    assert np.allclose(psi @ psi, 0.5 * (g + g.T), atol=1e-10)


def test_correction_swap_invariance():
    gt, rng = planted(100, 2, 8, spread=(9.0, 5.0))
    m = gt.shared_matrix()
    dec = asymmetric_eigenpairs(asymmetric_combine(noisy_copy(m, rng), noisy_copy(m, rng)), 2)
    c1 = noisy_copy(m, rng)
    c2 = noisy_copy(m, rng)
    a = eigenspace_correction(dec, c1, c2)
    b = eigenspace_correction(dec, c2, c1)
    assert np.allclose(a, b, atol=1e-12)


def test_correction_raises_on_singular_and_indefinite():
    gt, _ = planted(50, 2, 9)
    m = gt.shared_matrix()
    dec = asymmetric_eigenpairs(m, 2)
    with pytest.raises(np.linalg.LinAlgError):
        eigenspace_correction(dec, np.zeros((50, 50)), np.zeros((50, 50)))
    with pytest.raises(np.linalg.LinAlgError):
        eigenspace_correction(dec, -m, m)


def test_whitened_columns_near_orthonormal_under_noise():
    gt, rng = planted(400, 3, 10, spread=(9.0, 6.0, 4.0))
    m = gt.shared_matrix()
    comp = asymmetric_combine(noisy_copy(m, rng), noisy_copy(m, rng))
    dec = asymmetric_eigenpairs(comp, 3)
    white = dec.right @ eigenspace_correction(dec, noisy_copy(m, rng), noisy_copy(m, rng))
    gram = white.T @ white
    assert np.abs(gram - np.eye(3)).max() < 0.25


def test_spectral_baseline_is_rank_truncation():
    rng = rng_of(11)
    mats = [noisy_copy(np.zeros((40, 40)), rng) for _ in range(3)]
    avg = np.mean(mats, axis=0)
    vals, vecs = np.linalg.eigh(avg)
    order = np.argsort(-np.abs(vals))[:5]
    oracle = (vecs[:, order] * vals[order]) @ vecs[:, order].T
    assert np.allclose(spectral_baseline(mats, 5), oracle, atol=1e-10)


def dense_truncation(mats, rank):
    vals, vecs = np.linalg.eigh(np.mean(np.stack(mats), axis=0))
    order = np.argsort(-np.abs(vals), kind="stable")[:rank]
    return (vecs[:, order] * vals[order]) @ vecs[:, order].T


def test_spectral_baseline_partial_matches_dense(monkeypatch):
    copies = refine_copies(200, 16)
    ref = dense_truncation(copies, 3)
    sizes = dense_sizes(monkeypatch, "eigh")
    est = spectral_baseline(copies, 3)
    assert sizes and 200 not in sizes
    assert np.abs(est - ref).max() < 1e-10 * np.abs(ref).max()
    assert np.array_equal(est, est.T)


def test_spectral_baseline_partial_on_masked_views(monkeypatch):
    # support rows and columns zeroed, as cli refine passes them: the
    # masked block puts the zero vectors of the support in the null space
    sup = [3, 17, 24, 41]
    masked = [mask_support(y, sup) for y in refine_copies(60, 17, count=6)]
    ref = dense_truncation(masked, 3)
    sizes = dense_sizes(monkeypatch, "eigh")
    est = spectral_baseline(masked, 3)
    assert sizes and 60 not in sizes
    assert np.abs(est - ref).max() < 1e-10 * np.abs(ref).max()
    assert np.all(est[sup, :] == 0) and np.all(est[:, sup] == 0)


def test_spectral_baseline_dense_fallback_without_gap(monkeypatch):
    mat = clustered(200, 18, symmetric=True)
    ref = dense_truncation([mat], 3)
    sizes = dense_sizes(monkeypatch, "eigh")
    est = spectral_baseline(mat, 3)
    assert sizes.count(200) == 1
    assert np.abs(est - ref).max() < 1e-12 * np.abs(ref).max()


def test_spectral_baseline_dense_solve_at_rank_n_minus_one_and_above(monkeypatch):
    # the Krylov basis needs 1 <= rank < n - 1; rank n - 1 and n are dense,
    # rank 0 decomposes nothing
    copies = refine_copies(60, 19)
    small = [y[:5, :5] for y in copies]
    refs = {rank: dense_truncation(small, rank) for rank in (4, 5)}
    sizes = dense_sizes(monkeypatch, "eigh")
    for rank, ref in refs.items():
        est = spectral_baseline(small, rank)
        assert np.abs(est - ref).max() < 1e-12 * np.abs(est).max()
    assert np.array_equal(spectral_baseline(copies, 0), np.zeros((60, 60)))
    assert sizes == [5, 5]
    with pytest.raises(ValueError, match="rank"):
        spectral_baseline(copies, 61)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_baseline_rejects_non_finite_input(bad):
    copies = refine_copies(40, 20)
    copies[2][5, 7] = copies[2][7, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        spectral_baseline(copies, 3)


def test_average_matches_stacked_mean():
    rng = rng_of(21)
    for count in range(1, 9):
        mats = [rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-3, 4) for _ in range(count)]
        assert np.array_equal(_average(mats), np.mean(np.stack(mats), axis=0))
        assert np.array_equal(_average(mats[0]), mats[0])
    for other in (np.eye(5), np.ones(4), np.ones((1, 4))):  # the last two broadcast
        with pytest.raises(ValueError, match="shape"):
            _average([np.eye(4), other])
    with pytest.raises(ValueError, match="square"):
        _average([np.ones((4, 5))])
    with pytest.raises(ValueError):
        _average([])


def test_estimate_matches_direct_calls():
    # the one layout: mhat1 splices the mean of copies 0, 2 with that of
    # copies 1, 3 (bit for bit the mean of the two composites), and mhat2
    # splices copies 0 and 1 and whitens with copies 2 and 3
    c = refine_copies(90, 31)
    dec1 = asymmetric_eigenpairs(0.5 * (asymmetric_combine(c[0], c[1])
                                        + asymmetric_combine(c[2], c[3])), 3)
    dec2 = asymmetric_eigenpairs(asymmetric_combine(c[0], c[1]), 3)
    direct = {
        "spec": spectral_baseline(c, 3),
        "mhat1": reconstruct_symmetric(debiased_eigenvectors(dec1), dec1.values),
        "mhat2": whitened_reconstruction(dec2, eigenspace_correction(dec2, c[2], c[3])),
    }
    out = estimate(ESTIMATORS, 3, c)
    assert [name for name, _, _ in out] == list(ESTIMATORS)
    for name, est, error in out:
        assert error is None and np.array_equal(est, direct[name]), name
    for meth in ESTIMATORS:
        ((name, est, error),) = estimate((meth,), 3, c)
        assert name == meth and error is None
        assert np.array_equal(est, direct[meth]), meth
    # with two copies mhat1's composite is the splice of those two
    ((_, est, _),) = estimate(("mhat1",), 3, c[:2])
    assert np.array_equal(est, reconstruct_symmetric(debiased_eigenvectors(dec2), dec2.values))


def test_mhat2_averages_copy_j_into_slot_j_mod_4():
    # every copy counts: of 6 copies, slots 0 and 1 hold the means of
    # copies 0, 4 and 1, 5, and slots 2 and 3 hold copies 2 and 3
    c = refine_copies(90, 35, count=6)
    slots = [0.5 * (c[0] + c[4]), 0.5 * (c[1] + c[5]), c[2], c[3]]
    dec = asymmetric_eigenpairs(asymmetric_combine(slots[0], slots[1]), 3)
    want = whitened_reconstruction(dec, eigenspace_correction(dec, slots[2], slots[3]))
    ((_, est, error),) = estimate(("mhat2",), 3, c)
    assert error is None and np.array_equal(est, want)
    ((_, first_four, _),) = estimate(("mhat2",), 3, c[:4])
    assert not np.array_equal(est, first_four)


def test_estimate_reports_failures_as_messages(monkeypatch):
    c = refine_copies(60, 33)
    out = estimate(("mhat1", "mhat2"), 3, c[:3])
    assert out[0][2] is None and out[0][1].shape == (60, 60)
    assert out[1] == ("mhat2", None, "mhat2 needs 4 copies, got 3")
    assert estimate(("mhat1",), 3, c[:1]) == [("mhat1", None, "mhat1 needs 2 copies, got 1")]
    # at rank 0 each mhat estimator fails in its own eigensolve, with its
    # own message
    calls = []
    original = refine.asymmetric_eigenpairs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(refine, "asymmetric_eigenpairs", counting)
    out = estimate(("spec", "mhat1", "mhat2"), 0, c)
    assert out[0][2] is None and not out[0][1].any()
    assert out[1:] == [(meth, None, "need 1 <= rank <= n, got rank=0")
                       for meth in ("mhat1", "mhat2")]
    assert len(calls) == 2
    with pytest.raises(ValueError, match="among"):
        estimate(("spec", "mhat3"), 3, c)


def test_entry_error():
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    b = np.array([[1.0, 2.5], [2.0, -1.0]])
    assert entry_error(a, b) == 0.5
    assert entry_error(a, a) == 0.0


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_entry_error_is_the_largest_absolute_difference(n):
    rng = rng_of(n)
    a, b = with_signed_zeros(n, rng), with_signed_zeros(n, rng)
    kept = a.copy(), b.copy()
    assert entry_error(a, b) == np.max(np.abs(a - b))
    assert_same_bits(a, kept[0])
    assert_same_bits(b, kept[1])
    a[n - 1, 0] = np.nan   # in the last block of rows, as np.max would
    assert np.isnan(entry_error(a, b))
    with pytest.raises(ValueError, match="shapes differ"):
        entry_error(a, np.ones((n + 1, n + 1)))   # which (1, 1) would broadcast to


def peak_floats(fn, n):
    """Peak traced memory of fn() above the memory held before, in n x n
    float matrices."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / (8.0 * n * n)


def test_a_refine_trial_holds_one_working_matrix():
    # a trial as the harness runs it: one estimator at a time, then its
    # error.  The kernels work in place or by blocks, so past the copies and
    # mstar a trial needs the estimate, the composite or mean it is built
    # from, and the Krylov basis of 121 vectors (0.3 n^2 at n = 400): it
    # measured 1.64; the sums and transposes of whole matrices took 4.13
    n = 400
    gt, rng = planted(n, 3, 0, spread=(8.0, 6.0, 4.0))
    mstar = gt.shared_matrix()
    copies = [mstar + sample_noise(n, NoiseSpec(), rng) for _ in range(4)]

    def trial():
        for meth in ESTIMATORS:
            ((_, est, _),) = estimate((meth,), 3, copies)
            entry_error(est, mstar)
            del est
    assert peak_floats(trial, n) < 1.8


def test_a_refine_cell_keeps_its_copies_two_to_an_array():
    # an exp-refine cell as the harness builds and runs it: mstar, the four
    # copies in two arrays, one working matrix at a time, and the Krylov
    # basis (0.3 n^2 at n = 400).  It measured 4.76; one array per copy took 6.76
    def cell(n):
        vals = np.array([2.05 * math.sqrt(n) + (3 - i) * math.log(n) for i in range(1, 4)])
        runs = harness._refine_runs(ESTIMATORS, "p", n, min(n ** 0.8, n / 4), vals,
                                    NoiseSpec(), rng_of(0))
        for run in runs.values():
            assert run(None)["p"][1]
    cell(40)   # first calls allocate once for good; they are not the cell's
    assert peak_floats(lambda: cell(400), 400) < 5.0


def test_a_noise_draw_holds_one_matrix():
    # the draw itself and the blocks of the mirror: it measured 1.36 at
    # n = 400; the sum of the triangles took 3.13
    n = 400
    assert peak_floats(lambda: sample_noise(n, NoiseSpec(), rng_of(0)), n) < 1.5


def test_asymmetric_eigenpairs_rescales_solves_whose_norms_overflow(tmp_path):
    # the control mean of generate --sigma 1e155: both sides' Krylov norms
    # overflow, and each side reruns on the mean scaled by a power of two
    main(["generate", "--n", "30", "--r", "2", "--m", "3", "--sigma", "1e155", "--g0", "4",
          "--g1", "1", "--seed", "1", "--out-dir", str(tmp_path)])
    mean = _average([read_matrix(path) for path in sorted(tmp_path.glob("y0_*.txt"))])
    w = np.linalg.eigvalsh(mean)
    w = w[np.argsort(-np.abs(w))][:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = asymmetric_eigenpairs(mean, 2)
    assert np.abs(w).min() > 1e155
    assert np.allclose(dec.values, w, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_stage_three_on_copies_with_huge_entries(scale):
    # squares of entries near 1e200 overflow: mhat1's Ritz check scales each
    # pair's residual and bound by one power of two, and mhat2's whitening
    # form, whose product overflows, is formed again from the copies and
    # values scaled by one power of two; both find the unscaled estimate
    c = refine_copies(60, 33)
    want = estimate(("mhat1", "mhat2"), 3, c)
    got = estimate(("mhat1", "mhat2"), 3, [scale * x for x in c])
    for (name, est, error), (_, expected, _) in zip(got, want):
        assert error is None, name
        assert entry_error(est / scale, expected) <= 1e-12 * np.abs(expected).max(), name
