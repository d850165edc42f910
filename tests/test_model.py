import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrast import model
from netcontrast.model import (
    NOISE_FAMILIES,
    GroundTruth,
    NoiseSpec,
    assemble_observations,
    coherence_of,
    sample_decoy_perturbation,
    sample_incoherent_basis,
    sample_node_sparse,
    sample_noise,
)


def rng_of(seed=0):
    return np.random.default_rng(seed)


def assert_node_support(b, support):
    """support is the node support of b: b is zero off the support rows and
    columns, and every support row has a nonzero entry outside the support,
    so no smaller node set covers b."""
    comp = np.setdiff1d(np.arange(b.shape[0]), support)
    assert np.all(b[np.ix_(comp, comp)] == 0.0)
    assert np.all((b[np.ix_(support, comp)] != 0.0).any(axis=1))


# ---------------------------------------------------------------------------
# incoherent basis construction

def test_basis_orthonormal_and_in_range():
    rng = rng_of(3)
    for n, r, mu in ((50, 2, 1.5), (120, 3, 8.0), (200, 4, 30.0)):
        u = sample_incoherent_basis(n, r, mu, rng)
        assert u.shape == (n, r)
        assert np.allclose(u.T @ u, np.eye(r), atol=1e-10)
        assert 1.0 - 1e-9 <= coherence_of(u) <= n / r + 1e-9


def test_basis_realized_coherence_tracks_target():
    # the two-block construction cannot hit the target exactly; at a spiky
    # target the realized coherence should land within a factor of 2
    rng = rng_of(4)
    n = 500
    mu = np.sqrt(n) * np.log(n)
    realized = [coherence_of(sample_incoherent_basis(n, 3, mu, rng))
                for _ in range(100)]
    assert all(mu / 2 <= v <= mu * 2 for v in realized)


def test_basis_extreme_mu_gives_spiky_rows():
    rng = rng_of(5)
    n, r = 500, 3
    mu = n ** 0.75
    u = sample_incoherent_basis(n, r, mu, rng)
    norms = np.linalg.norm(u, axis=1)
    m_blk = int(n // mu)
    # top-block rows carry norm around sqrt(mu r / n) (halved in energy by
    # the final column normalization), far above the flat rows
    typical = np.sqrt(mu * r / n / 2)
    assert typical / 2 < norms[:m_blk].mean() < typical * 2
    assert norms[:m_blk].mean() > 4 * np.median(norms[m_blk:])


def test_basis_mu_one_stays_near_haar_floor():
    # target 1 puts every row in the "spiky" block, i.e. a plain Haar
    # frame; realized coherence then sits at the generic log-n level
    rng = rng_of(6)
    n = 64
    u = sample_incoherent_basis(n, 2, 1.0, rng)
    mu = coherence_of(u)
    assert 1.0 <= mu < 4.0 * np.log(n)


def test_basis_validates_inputs():
    rng = rng_of(0)
    with pytest.raises(ValueError):
        sample_incoherent_basis(10, 0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_incoherent_basis(10, 11, 1.0, rng)
    with pytest.raises(ValueError):
        sample_incoherent_basis(10, 2, 0.5, rng)
    with pytest.raises(ValueError):
        sample_incoherent_basis(10, 2, 6.0, rng)  # mu > n/r


# ---------------------------------------------------------------------------
# node-sparse perturbations

def test_node_sparse_vanishes_off_support():
    rng = rng_of(7)
    n, m = 40, 5
    b, sup = sample_node_sparse(n, m, 1.0, rng)
    assert b.shape == (n, n)
    assert np.array_equal(b, b.T)
    assert len(sup) == m
    comp = np.setdiff1d(np.arange(n), sup)
    assert np.all(b[np.ix_(comp, comp)] == 0.0)
    # support rows are dense draws, so nonzero with probability one
    assert np.all(np.linalg.norm(b[sup], axis=1) > 0)


def test_node_sparse_support_pool():
    rng = rng_of(8)
    pool = np.arange(10, 30)
    _, sup = sample_node_sparse(50, 6, 1.0, rng, support_pool=pool)
    assert set(sup) <= set(pool.tolist())


def test_node_sparse_diagonal_doubles():
    # B = B0 + B0^T doubles the diagonal draws: Var(B_ii) = 4 sigma^2 while
    # off-diagonal support-complement entries have Var sigma^2
    rng = rng_of(9)
    n, m, sigma = 300, 150, 1.0
    b, sup = sample_node_sparse(n, m, sigma, rng)
    comp = np.setdiff1d(np.arange(n), sup)
    diag_var = np.var(np.diagonal(b)[sup])
    off_var = np.var(b[np.ix_(sup, comp)])
    assert 3.0 < diag_var / off_var < 5.0


def test_node_sparse_scale():
    rng = rng_of(10)
    b, sup = sample_node_sparse(200, 100, 2.5, rng)
    comp = np.setdiff1d(np.arange(200), sup)
    sd = np.std(b[np.ix_(sup, comp)])
    assert 2.3 < sd < 2.7


def test_decoy_perturbation_structure():
    rng = rng_of(11)
    n = 200
    b, signal, decoys = sample_decoy_perturbation(n, rng)
    m = int(np.floor(2 * np.sqrt(n)))
    k = max(5, int(np.floor(0.2 * m)))
    assert len(signal) == m and len(decoys) == k
    assert not set(signal) & set(decoys)
    assert np.array_equal(b, b.T)
    far = np.setdiff1d(np.arange(n), np.concatenate([signal, decoys]))
    beta1 = 2.5 * (n * np.log(n)) ** 0.25 / np.sqrt(m)
    beta2 = 2.0 * n ** -0.25 * np.log(n) ** 0.25
    assert np.allclose(b[np.ix_(signal, decoys)], beta1)
    assert np.allclose(b[np.ix_(signal, far)], beta2)
    assert np.all(b[np.ix_(decoys, decoys)] == 0.0)
    assert np.all(b[np.ix_(signal, signal)] == 0.0)
    assert np.all(b[np.ix_(decoys, far)] == 0.0)
    # decoy rows carry more energy than signal rows: the failure mode for
    # row-energy methods
    sig_norm = np.linalg.norm(b[signal], axis=1).max()
    dec_norm = np.linalg.norm(b[decoys], axis=1).min()
    assert dec_norm > sig_norm


def test_decoy_node_support_is_signal_set():
    rng = rng_of(12)
    b, signal, _ = sample_decoy_perturbation(150, rng)
    assert_node_support(b, signal)


# ---------------------------------------------------------------------------
# noise families

def test_noise_families_symmetric():
    rng = rng_of(13)
    for family in NOISE_FAMILIES:
        spec = NoiseSpec(family=family, sigma=1.0)
        w = sample_noise(60, spec, rng)
        assert np.array_equal(w, w.T)


def test_noise_bad_family_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(family="cauchy")


@pytest.mark.parametrize("fields", [
    {"sigma": float("nan")}, {"sigma": float("inf")}, {"sigma": -float("inf")},
    {"sigma": -1.0},
    {"family": "gaussian-row-hetero", "sigma_max": float("inf")},
    {"family": "gaussian-entry-hetero", "sigma_max": float("inf")},
    {"family": "gaussian-entry-hetero", "sigma_min": float("nan")},
    {"sigma_max": float("inf")}, {"sigma_min": float("nan")},
])
def test_noise_spec_refuses_scales_that_are_not_finite_and_nonnegative(fields):
    with pytest.raises(ValueError, match="sigma"):
        NoiseSpec(**fields)


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
def test_mirror_upper_is_the_sum_of_the_triangles_in_place(n):
    a = with_signed_zeros(n, rng_of(n))
    out = a.copy()
    assert model._mirror_upper(out) is out
    assert_same_bits(out, np.triu(a) + np.triu(a, 1).T)  # -0.0 + 0.0 is +0.0


def old_noise(n, spec, rng):
    # sample_noise as the sum of the triangles, written out
    def mirror(a):
        return np.triu(a) + np.triu(a, 1).T
    if spec.family == "gaussian-iid":
        w = mirror(spec.sigma * rng.standard_normal((n, n)))
    elif spec.family == "scaled-t4":
        w = mirror(spec.sigma * (rng.standard_t(4.0, size=(n, n)) / np.sqrt(2.0)))
    elif spec.family == "uniform":
        half = np.sqrt(3.0) * spec.sigma
        w = mirror(rng.uniform(-half, half, size=(n, n)))
    elif spec.family == "gaussian-entry-hetero":
        scales = mirror(rng.uniform(spec.sigma_min, spec.sigma_max, size=(n, n)))
        w = mirror(rng.standard_normal((n, n))) * scales * spec.sigma
    else:
        s2 = rng.uniform(spec.sigma_min, spec.sigma_max, size=n) ** 2
        w = mirror(rng.standard_normal((n, n))) * (s2[:, None] + s2[None, :]) * spec.sigma
    if spec.truncation is not None:
        w = np.clip(w, -spec.truncation, spec.truncation)
    return w


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
@pytest.mark.parametrize("family", NOISE_FAMILIES)
def test_sample_noise_draws_the_old_bits(n, family):
    # sigma = 0 draws signed zeros, which the mirror turns into +0.0
    for sigma, truncation in ((0.0, None), (1.5, None), (1.5, 1.0)):
        spec = NoiseSpec(family=family, sigma=sigma, truncation=truncation)
        assert_same_bits(sample_noise(n, spec, rng_of(n)), old_noise(n, spec, rng_of(n)))


def test_gaussian_iid_moments():
    rng = rng_of(14)
    w = sample_noise(400, NoiseSpec(family="gaussian-iid", sigma=2.0), rng)
    triu = w[np.triu_indices(400, k=1)]
    assert abs(triu.mean()) < 0.05
    assert 1.9 < triu.std() < 2.1


def test_row_hetero_scales_are_squared_sums():
    # entry sd is sigma_i^2 + sigma_j^2, so it ranges in
    # [2 sigma_min^2, 2 sigma_max^2]
    rng = rng_of(15)
    spec = NoiseSpec(family="gaussian-row-hetero", sigma=1.0, sigma_min=0.8, sigma_max=1.3)
    w = sample_noise(600, spec, rng)
    row_sd = w.std(axis=1)
    assert row_sd.min() > 2 * 0.8 ** 2 * 0.7
    assert row_sd.max() < 2 * 1.3 ** 2 * 1.3
    assert row_sd.max() / row_sd.min() > 1.3  # heteroscedastic across rows


def test_scaled_t4_unit_variance_heavy_tails():
    rng = rng_of(16)
    w = sample_noise(500, NoiseSpec(family="scaled-t4", sigma=1.0), rng)
    triu = w[np.triu_indices(500, k=1)]
    assert 0.9 < triu.std() < 1.15
    # excess kurtosis far above gaussian
    assert np.mean(triu ** 4) > 5.0


def test_uniform_bounded():
    rng = rng_of(17)
    w = sample_noise(200, NoiseSpec(family="uniform", sigma=1.5), rng)
    bound = np.sqrt(3) * 1.5
    assert np.all(np.abs(w) <= bound + 1e-12)
    triu = w[np.triu_indices(200, k=1)]
    assert 1.35 < triu.std() < 1.65


def test_truncation_clips():
    rng = rng_of(18)
    spec = NoiseSpec(family="scaled-t4", sigma=1.0, truncation=2.0)
    w = sample_noise(300, spec, rng)
    assert np.all(np.abs(w) <= 2.0)


# ---------------------------------------------------------------------------
# ground truth and observations

def planted_truth(n=80, r=3, m=6, sigma_b=1.0, seed=1):
    rng = rng_of(seed)
    basis = sample_incoherent_basis(n, r, np.log(n), rng)
    vals = np.array([3 * np.sqrt(n) + (r - i) * np.log(n) for i in range(1, r + 1)])
    b, sup = sample_node_sparse(n, m, sigma_b, rng)
    return GroundTruth(basis=basis, eigenvalues=vals, perturbations=[(b, sup)]), rng


def test_ground_truth_ordering_and_shared_matrix():
    rng = rng_of(19)
    basis = sample_incoherent_basis(50, 3, 2.0, rng)
    gt = GroundTruth(basis=basis, eigenvalues=np.array([5.0, -20.0, 10.0]))
    assert np.array_equal(gt.eigenvalues, [-20.0, 10.0, 5.0])
    m = gt.shared_matrix()
    assert np.array_equal(m, m.T)
    w = np.linalg.eigvalsh(m)
    top = w[np.argsort(-np.abs(w))[:3]]
    assert np.allclose(sorted(np.abs(top)), [5.0, 10.0, 20.0], atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_shared_matrix_is_the_symmetrized_product(n):
    rng = rng_of(n)
    r = min(n, 3)
    gt = GroundTruth(basis=sample_incoherent_basis(n, r, 1.0, rng),
                     eigenvalues=rng.standard_normal(r) * n)
    basis = gt.basis.copy()
    a = (gt.basis * gt.eigenvalues) @ gt.basis.T
    assert_same_bits(gt.shared_matrix(), 0.5 * (a + a.T))
    assert np.array_equal(gt.basis, basis)


def test_ground_truth_metrics():
    gt, _ = planted_truth(n=100, r=3)
    n = 100
    assert gt.n == n and gt.rank == 3
    assert gt.kappa >= 1.0


def test_assemble_observations_shapes_and_model():
    gt, rng = planted_truth(n=60, m=4, sigma_b=0.5)
    spec = NoiseSpec(family="gaussian-iid", sigma=0.0)
    obs = assemble_observations(gt, spec, 2, 1, rng)
    assert len(obs.g0) == 2 and len(obs.g1) == 1
    mstar = gt.shared_matrix()
    assert np.allclose(obs.g0[0], mstar)
    b, _ = gt.perturbations[0]
    assert np.allclose(obs.g1[0], mstar + b)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_assemble_observations_adds_the_signal_into_the_draws(sigma):
    gt, _ = planted_truth(n=130, m=4)
    spec = NoiseSpec(family="gaussian-iid", sigma=sigma)
    obs = assemble_observations(gt, spec, 2, 1, rng_of(3))
    rng = rng_of(3)
    mstar, (b, _) = gt.shared_matrix(), gt.perturbations[0]
    old = [mstar + old_noise(130, spec, rng) for _ in range(2)]
    old.append(mstar + b + old_noise(130, spec, rng))
    for new, want in zip(obs.g0 + obs.g1, old):
        assert_same_bits(new, want)


def test_assemble_observations_shared_flag():
    gt, rng = planted_truth(n=40, m=3)
    spec = NoiseSpec(family="gaussian-iid", sigma=0.0)
    obs = assemble_observations(gt, spec, 1, 3, rng, shared=True)
    assert len(obs.g1) == 3
    assert np.allclose(obs.g1[0], obs.g1[2])


def test_assemble_observations_count_mismatch():
    gt, rng = planted_truth()
    spec = NoiseSpec(family="gaussian-iid")
    with pytest.raises(ValueError):
        assemble_observations(gt, spec, 1, 2, rng)


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 80), r=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
def test_property_basis_orthonormal(n, r, seed):
    rng = rng_of(seed)
    mu = float(rng.uniform(1.0, n / r))
    u = sample_incoherent_basis(n, r, mu, rng)
    assert np.allclose(u.T @ u, np.eye(r), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 60), seed=st.integers(0, 10 ** 6))
def test_property_node_sparse_support_recoverable(n, seed):
    rng = rng_of(seed)
    m = int(rng.integers(1, max(2, n // 3)))
    b, sup = sample_node_sparse(n, m, 1.0, rng)
    assert np.array_equal(sup, np.unique(sup)) and sup.size == m
    assert_node_support(b, sup)
