import warnings

import numpy as np
import pytest

from netcontrast.cli import main
from netcontrast.matio import read_matrix
from netcontrast.model import (
    GroundTruth,
    NoiseSpec,
    assemble_observations,
    sample_incoherent_basis,
    sample_node_sparse,
    sample_noise,
)
from netcontrast.spectral import (
    RankDecomposition,
    _average,
    _sign_fix,
    _symmetric_product,
    _symmetrize,
    _top_eigenpairs,
    estimate_noise_scale,
    form_residual,
    select_low_coherence,
    spectral_init,
    stage_one,
)


def rng_of(seed):
    return np.random.default_rng(seed)


def planted(n, r, mu, seed, lmin=3.0):
    rng = rng_of(seed)
    u = sample_incoherent_basis(n, r, mu, rng)
    vals = lmin * np.sqrt(n) + (r - np.arange(r)) * np.log(n)
    gt = GroundTruth(basis=u, eigenvalues=vals, perturbations=[])
    return gt, rng


def test_spectral_init_noiseless_recovers_exactly():
    gt, _ = planted(80, 3, np.log(80.0), 0)
    m = gt.shared_matrix()
    dec = spectral_init(m, 3)
    assert np.allclose(dec.reconstruct(), m, atol=1e-9)
    assert np.allclose(dec.right.T @ dec.right, np.eye(3), atol=1e-10)


def test_spectral_init_accepts_list_and_averages():
    gt, rng = planted(60, 2, np.log(60.0), 1)
    m = gt.shared_matrix()
    noise = NoiseSpec(family="gaussian-iid", sigma=0.5)
    mats = [m + sample_noise(60, noise, rng) for _ in range(6)]
    dec_avg = spectral_init(mats, 2)
    dec_one = spectral_init(mats[0], 2)
    err_avg = np.abs(dec_avg.reconstruct() - m).max()
    err_one = np.abs(dec_one.reconstruct() - m).max()
    assert err_avg < err_one


def test_spectral_init_rank_zero():
    dec = spectral_init(np.eye(5), 0)
    assert dec.right.shape == (5, 0)
    assert np.allclose(dec.reconstruct(), 0.0)


@pytest.mark.parametrize("rank", [-1, 6])
def test_spectral_init_rejects_rank_outside_zero_to_n(rank):
    # a negative rank used to slice order[:rank] and keep n - 1 pairs
    with pytest.raises(ValueError, match="rank"):
        spectral_init(np.eye(5), rank)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_init_rejects_non_finite_input(bad):
    y = np.eye(5)
    y[1, 3] = y[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        spectral_init([np.eye(5), y], 2)


def test_spectral_init_sign_convention_deterministic():
    gt, rng = planted(50, 2, np.log(50.0), 2)
    m = gt.shared_matrix()
    dec1 = spectral_init(m, 2)
    dec2 = spectral_init(m.copy(), 2)
    assert np.array_equal(dec1.right, dec2.right)
    # largest-magnitude entry of each column is positive
    for col in dec1.right.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_spectral_init_orders_by_magnitude():
    n = 40
    q, _ = np.linalg.qr(rng_of(3).standard_normal((n, 3)))
    vals = np.array([5.0, -9.0, 2.0])
    m = (q * vals) @ q.T
    dec = spectral_init(m, 2)
    assert np.allclose(np.abs(dec.values), [9.0, 5.0], atol=1e-9)


def test_reconstruct_is_symmetric():
    gt, rng = planted(64, 3, 8.0, 4)
    noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
    y = gt.shared_matrix() + sample_noise(64, noise, rng)
    rec = spectral_init(y, 3).reconstruct()
    assert np.array_equal(rec, rec.T)


def assert_same_bits(x, y):
    assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_symmetrize_is_the_mean_with_the_transpose_in_place(n):
    rng = rng_of(n)
    a = rng.standard_normal((n, n))
    u = rng.random((n, n))
    a[u < 0.2] = -0.0   # -0.0 meets -0.0 and +0.0 across the diagonal
    a[u > 0.8] = 0.0
    out = a.copy()
    assert _symmetrize(out) is out
    assert_same_bits(out, 0.5 * (a + a.T))


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_symmetric_product_is_the_old_reconstruction(n):
    rng = rng_of(n)
    vecs, vals = rng.standard_normal((n, 3)), rng.standard_normal(3)
    vecs[0] = -0.0
    kept = vecs.copy(), vals.copy()
    a = (vecs * vals) @ vecs.T
    assert_same_bits(_symmetric_product(vecs, vals), 0.5 * (a + a.T))
    dec = RankDecomposition(right=vecs, left=vecs, values=vals)
    assert_same_bits(dec.reconstruct(), 0.5 * (a + a.T))
    assert np.array_equal(vecs, kept[0]) and np.array_equal(vals, kept[1])


def test_screening_keeps_quiet_rows_and_flags_spiky():
    n = 500
    gt, _ = planted(n, 3, n ** 0.75, 5)
    dec = spectral_init(gt.shared_matrix(), 3)
    kept = select_low_coherence(dec, 2.0)
    spiky = int(n // n ** 0.75)
    assert kept.size <= n - 1  # spiky rows exist and get dropped
    assert np.all(np.diff(kept) > 0)
    dropped = np.setdiff1d(np.arange(n), kept)
    assert dropped.size >= 1
    # every dropped row is above threshold, every kept row below
    row_norms, threshold = np.linalg.norm(dec.right, axis=1), 2.0 * n ** -0.25
    assert (row_norms[dropped] > threshold).all()
    assert (row_norms[kept] <= threshold).all()
    assert dropped.size <= 3 * spiky


def test_screening_flat_basis_keeps_everything():
    n = 200
    gt, _ = planted(n, 3, np.log(float(n)), 6)
    dec = spectral_init(gt.shared_matrix(), 3)
    assert np.array_equal(select_low_coherence(dec, 2.0), np.arange(n))


def test_screening_empty_keep_raises():
    n = 30
    gt, _ = planted(n, 2, np.log(float(n)), 7)
    dec = spectral_init(gt.shared_matrix(), 2)
    with pytest.raises(ValueError):
        select_low_coherence(dec, 0.0)


def test_form_residual_noiseless_isolates_perturbation():
    n, m = 90, 6
    rng = rng_of(8)
    gt0, _ = planted(n, 3, np.log(float(n)), 9)
    mstar = gt0.shared_matrix()
    b, sup = sample_node_sparse(n, m, 0.7, rng)
    dec = spectral_init(mstar, 3)
    resid = form_residual(mstar + b, dec)
    assert np.allclose(resid, b, atol=1e-8)


def test_form_residual_with_kept_subsets_rows():
    n = 50
    rng = rng_of(10)
    gt, _ = planted(n, 2, np.log(float(n)), 11)
    y1 = gt.shared_matrix() + rng.standard_normal((n, n))
    y1 = (y1 + y1.T) / 2
    dec = spectral_init(gt.shared_matrix(), 2)
    keep = select_low_coherence(dec, 2.0)
    full = form_residual(y1, dec)
    sub = form_residual(y1, dec, keep)
    assert sub.shape == (keep.size, keep.size)
    assert np.allclose(sub, full[np.ix_(keep, keep)])


def test_noise_scale_near_truth():
    n = 500
    gt, rng = planted(n, 3, np.sqrt(n) * np.log(n), 12)
    noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
    obs = assemble_observations(gt, noise, 2, 0, rng)
    dec = spectral_init(obs.g0, 3)
    tau = estimate_noise_scale(obs.g0[0], dec)
    assert 0.4 <= tau <= 2.5


def test_noise_scale_scales_with_sigma():
    n = 300
    gt, rng = planted(n, 2, np.log(float(n)), 13)
    taus = []
    for sigma in (0.5, 2.0):
        noise = NoiseSpec(family="gaussian-iid", sigma=sigma)
        obs = assemble_observations(gt, noise, 1, 0, rng)
        dec = spectral_init(obs.g0, 2)
        taus.append(estimate_noise_scale(obs.g0[0], dec))
    assert 2.0 < taus[1] / taus[0] < 8.0


def test_noise_scale_needs_quiet_rows():
    # a rank-n decomposition has unit rows, so no row is quiet:
    # sqrt(12) = 3.46 > 2 sqrt(log 12) = 3.15
    n = 12
    y = rng_of(14).standard_normal((n, n))
    y = (y + y.T) / 2
    dec = spectral_init(y, n)
    with pytest.raises(ValueError, match="0 rows"):
        estimate_noise_scale(y, dec)


def test_noise_scale_rank_zero_is_frobenius_over_n():
    n = 40
    y = rng_of(15).standard_normal((n, n))
    y = (y + y.T) / 2
    dec = spectral_init(y, 0)
    tau = estimate_noise_scale(y, dec)
    assert np.isclose(tau, np.linalg.norm(y) / n)


def test_noise_scale_refuses_an_overflowing_estimate():
    # a finite control whose Frobenius norm overflows has no noise scale
    y = np.full((40, 40), 1e200)
    with pytest.raises(ValueError, match="not finite"):
        estimate_noise_scale(y, spectral_init(y, 0))


def test_rank_decomposition_left_defaults_to_right():
    q, _ = np.linalg.qr(rng_of(16).standard_normal((20, 2)))
    dec = RankDecomposition(right=q, left=q, values=np.array([3.0, 1.0]))
    rec = dec.reconstruct()
    assert np.allclose(rec, (q * [3.0, 1.0]) @ q.T)


@pytest.mark.parametrize("case", ["screen", "no-screen", "rank-0-no-controls"])
def test_stage_one_matches_the_chains_it_replaces(case):
    # mu = n^0.75 gives spiky rows, so the screening drops some nodes
    n, r = 120, 2
    gt, rng = planted(n, r, n ** 0.75, 17)
    b, _ = sample_node_sparse(n, 4, 1.0, rng)
    noise = NoiseSpec(family="gaussian-iid", sigma=1.0)
    y0 = [gt.shared_matrix() + sample_noise(n, noise, rng) for _ in range(2)]
    y1 = [gt.shared_matrix() + b + sample_noise(n, noise, rng) for _ in range(2)]
    if case == "rank-0-no-controls":
        # the treatment is the base: no shared estimate, no screening
        got = stage_one(y1[:1], [], 0, c_screen=None)
        want = (y1[:1], None, estimate_noise_scale(y1[0], spectral_init(y1[0], 0)))
    else:
        dec = spectral_init(y0, r)
        keep = select_low_coherence(dec) if case == "screen" else None
        got = stage_one(y1, y0, r, c_screen=2.0 if case == "screen" else None)
        want = ([form_residual(y, dec, keep) for y in y1], keep, estimate_noise_scale(y0[0], dec))
    (resids, kept, tau), (want_resids, want_kept, want_tau) = got, want
    assert len(resids) == len(want_resids)
    assert all(np.array_equal(a, w) for a, w in zip(resids, want_resids))
    if case == "screen":
        assert kept.size < n and np.array_equal(kept, want_kept)
    else:
        assert kept is None
    assert tau == want_tau


def test_stage_one_gives_no_tau_without_quiet_rows():
    # a rank-n decomposition leaves no rows for the noise scale
    n = 12
    y = rng_of(18).standard_normal((n, n))
    y = (y + y.T) / 2
    with pytest.raises(ValueError):
        estimate_noise_scale(y, spectral_init(y, n))
    resids, kept, tau = stage_one([y], [y], n, c_screen=None)
    assert tau is None and kept is None and resids[0].shape == (n, n)


def dense_top(y, rank):
    # numpy's dense eigh, top rank by magnitude, with spectral_init's signs
    w, v = np.linalg.eigh(y)
    top = np.argsort(-np.abs(w), kind="stable")[:rank]
    return w[top], _sign_fix(v[:, top])


def dense_sizes(monkeypatch):
    # the size of every matrix that np.linalg.eigh decomposes
    sizes, eigh = [], np.linalg.eigh

    def recording(mat, *args, **kwargs):
        sizes.append(mat.shape[0])
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize("rank", [0, 1, 3, 399, 400])
def test_spectral_init_matches_dense_eigh(monkeypatch, rank):
    # ranks 1 and 3 come from the Krylov basis, n - 1 and n from the dense solve
    n = 400
    gt, rng = planted(n, 3, np.log(n), 9)
    y = gt.shared_matrix() + sample_noise(n, NoiseSpec(family="gaussian-iid", sigma=1.0), rng)
    w, v = dense_top(y, rank)
    sizes = dense_sizes(monkeypatch)
    dec = spectral_init(y, rank)
    assert (n in sizes) == (rank >= n - 1)
    assert dec.right.shape == (n, rank)
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    ref = (v * w) @ v.T
    assert np.abs(dec.reconstruct() - ref).max() <= 1e-10 * np.abs(ref).max()


def test_spectral_init_matches_dense_at_coherence_point():
    # exp-coherence's mu = n^0.75 point: n = 500, r = 3, one control
    n = 500
    gt, rng = planted(n, 3, n ** 0.75, 10)
    y = gt.shared_matrix() + sample_noise(n, NoiseSpec(family="gaussian-iid", sigma=1.0), rng)
    w, v = dense_top(y, 3)
    dec = spectral_init(y, 3)
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    assert np.abs(dec.right - v).max() < 1e-10


def test_spectral_init_matches_dense_on_near_tied_top_pair():
    # top values 10 and 10 (1 - 1e-6) over a bulk in [-1, 1]: the vectors of
    # the pair are fixed only to residual / gap, its reconstruction to 1e-10
    n = 300
    rng = rng_of(11)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([[10.0, 10.0 * (1 - 1e-6), 6.0], rng.uniform(-1.0, 1.0, n - 3)])
    y = (q * vals) @ q.T
    w, v = dense_top(y, 3)
    dec = spectral_init(y, 3)
    assert np.allclose(dec.values, w, rtol=1e-10, atol=0)
    assert np.abs(dec.reconstruct() - (v * w) @ v.T).max() < 1e-10 * 10.0


def test_spectral_init_finds_a_repeated_top_value(monkeypatch):
    # exact rank 3 with values 5, 5, 3: the Krylov basis breaks down before
    # it holds both 5-vectors, and grows on from a fresh vector to find them
    n = 50
    q, _ = np.linalg.qr(rng_of(12).standard_normal((n, 3)))
    y = (q * [5.0, 5.0, 3.0]) @ q.T
    sizes = dense_sizes(monkeypatch)
    dec = spectral_init(y, 2)
    assert n not in sizes
    assert np.allclose(dec.values, [5.0, 5.0], rtol=1e-12, atol=0)
    assert np.abs(dec.reconstruct() - 5.0 * q[:, :2] @ q[:, :2].T).max() < 1e-12


def overflow_controls(out_dir):
    # four controls of a 30-node set whose noise scale is 1e155: the Krylov
    # norms square entries near 1e155, past the float range
    main(["generate", "--n", "30", "--r", "2", "--m", "3", "--sigma", "1e155", "--g0", "4",
          "--g1", "1", "--seed", "1", "--out-dir", str(out_dir)])
    return [read_matrix(path) for path in sorted(out_dir.glob("y0_*.txt"))]


def test_spectral_init_rescales_a_solve_whose_norms_overflow(tmp_path):
    y0 = overflow_controls(tmp_path)
    w, v = dense_top(_average(y0), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = spectral_init(y0, 2)
    assert np.abs(w).min() > 1e155
    assert np.allclose(dec.values, w, rtol=1e-12, atol=0)
    assert np.abs(dec.right - v).max() < 1e-10


def test_a_rescaled_solve_scales_complex_values_back():
    # a nonsymmetric Gaussian matrix times 2^1000, whose top pair is complex
    a = np.ldexp(rng_of(0).standard_normal((30, 30)), 1000)
    w = np.linalg.eigvals(a)
    w = w[np.argsort(-np.abs(w), kind="stable")][:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = _top_eigenpairs(a, 2)
    assert np.all(np.abs(w.imag) > 1e300)
    assert np.allclose(values, w, rtol=1e-12, atol=0)
