"""Synthetic model: shared low-rank structure plus node-sparse contrasts.

Two groups of symmetric weighted networks share a rank-r matrix built from an
orthonormal basis and fixed eigenvalues; each treatment subject additionally
carries a symmetric perturbation supported on a small set of nodes.  This
module samples every ingredient (incoherent bases, node-sparse and decoy
perturbations, several noise families) and assembles observation sets.
"""

from dataclasses import dataclass, field
import logging
import math

import numpy as np

from .spectral import _symmetric_product, _upper_tiles

logger = logging.getLogger(__name__)

NOISE_FAMILIES = (
    "gaussian-iid",
    "gaussian-entry-hetero",
    "gaussian-row-hetero",
    "scaled-t4",
    "uniform",
)


def coherence_of(basis):
    """(n/r) times the largest squared row norm of an orthonormal basis."""
    n, r = basis.shape
    if r == 0:
        return float("nan")
    return float(n / r * np.max(np.sum(basis * basis, axis=1)))


def _haar_frame(n, r, rng):
    # QR of a Gaussian matrix with the sign fix that makes the factor Haar
    q, rr = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.where(np.diagonal(rr) < 0, -1.0, 1.0)


def sample_incoherent_basis(n, r, mu, rng):
    """Orthonormal (n, r) basis whose incoherence targets mu.

    The top floor(n/mu) rows hold one Haar-random orthonormal frame and the
    remaining rows another; columns are renormalized.  The construction does
    not hit mu exactly (the realized value lands near mu/2); callers should
    report coherence_of(basis) alongside.

    Parameters
    ----------
    n, r : int
        Dimension and rank, 1 <= r <= n.
    mu : float
        Target incoherence in [1, n/r].
    rng : numpy.random.Generator
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    if not 1.0 <= mu <= n / r:
        raise ValueError(f"incoherence target must lie in [1, {n / r:g}], got {mu:g}")
    m_top = int(n // mu)
    if m_top >= n or n - m_top < r:
        # no room for a second frame; a single Haar frame is maximally incoherent
        return _haar_frame(n, r, rng)
    top = _haar_frame(m_top, r, rng)
    rest = _haar_frame(n - m_top, r, rng)
    basis = np.vstack([top, rest])
    return basis / np.linalg.norm(basis, axis=0)


def sample_node_sparse(n, m, sigma_b, rng, support_pool=None):
    """Symmetric perturbation supported on m rows/columns.

    A random m-subset of nodes gets dense i.i.d. N(0, sigma_b^2) rows; the
    matrix is symmetrized additively (B0 + B0.T), which doubles diagonal
    support entries.  Entries outside the support rows/columns are exactly
    zero.

    Parameters
    ----------
    support_pool : array-like, optional
        Restrict the candidate support nodes to this index set.

    Returns
    -------
    (B, support) : (n, n) ndarray and sorted index array
    """
    if not 1 <= m < n:
        raise ValueError(f"support size must satisfy 1 <= m < n, got m={m}")
    if sigma_b < 0:
        raise ValueError("sigma_b must be nonnegative")
    if sigma_b == 0:
        logger.warning("sigma_b=0: perturbation is degenerate (all-zero rows)")
    pool = np.arange(n) if support_pool is None else np.asarray(support_pool, dtype=int)
    if m > pool.size:
        raise ValueError(f"support pool of size {pool.size} cannot host m={m} nodes")
    support = np.sort(rng.choice(pool, size=m, replace=False))
    b0 = np.zeros((n, n))
    b0[support] = sigma_b * rng.standard_normal((m, n))
    return b0 + b0.T, support


def sample_decoy_perturbation(n, rng):
    """Node-sparse perturbation engineered so decoy rows carry the most energy.

    m = floor(2 sqrt(n)) signal nodes and k = max(5, floor(0.2 m)) decoys are
    drawn; entries are beta1 on signal x decoy blocks (symmetric), beta2 on
    signal x remainder, zero elsewhere.  Decoy rows then have squared norm
    m*beta1^2, exceeding every signal row, while staying outside the true node
    support; greedy row-energy methods chase the decoys.

    Returns
    -------
    (B, signal, decoys)
    """
    if n < 100:
        raise ValueError(f"construction needs n >= 100, got {n}")
    m = int(2 * math.sqrt(n))
    k = max(5, int(0.2 * m))
    chosen = rng.choice(n, size=m + k, replace=False)
    signal = np.sort(chosen[:m])
    decoys = np.sort(chosen[m:])
    rest = np.setdiff1d(np.arange(n), chosen)
    beta1 = 2.5 * (n * math.log(n)) ** 0.25 / math.sqrt(m)
    beta2 = 2.0 * n ** -0.25 * math.log(n) ** 0.25
    b = np.zeros((n, n))
    b[np.ix_(signal, decoys)] = beta1
    b[np.ix_(decoys, signal)] = beta1
    b[np.ix_(signal, rest)] = beta2
    b[np.ix_(rest, signal)] = beta2
    return b, signal, decoys


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric noise family and scale.

    family is one of NOISE_FAMILIES; sigma, finite and >= 0, multiplies
    every family, and sigma_min and sigma_max must be finite.  The
    heteroscedastic families draw per-row (or per-entry) factors from
    [sigma_min, sigma_max]; the row family follows the squared-sum
    construction W = W0 ∘ (S0 + S0.T) with S0 rows sigma_i^2. scaled-t4
    divides raw t_4 draws by sqrt(2) so entries have unit variance at
    sigma=1.  truncation, when set, clips entries to [-truncation,
    truncation].
    """

    family: str = "gaussian-iid"
    sigma: float = 1.0
    sigma_min: float = 0.8
    sigma_max: float = 1.3
    truncation: float | None = None

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (math.isfinite(self.sigma_min) and math.isfinite(self.sigma_max)):
            raise ValueError(f"sigma_min and sigma_max must be finite, "
                             f"got {self.sigma_min} and {self.sigma_max}")
        if self.truncation is not None and not self.truncation > 0:
            raise ValueError(f"truncation must be > 0, got {self.truncation}")
        if self.family in ("gaussian-entry-hetero", "gaussian-row-hetero"):
            if not 0 < self.sigma_min <= self.sigma_max:
                raise ValueError("need 0 < sigma_min <= sigma_max")


def _mirror_upper(a):
    """Copy the upper triangle of a (diagonal included) into the lower one,
    in place, one pair of _TILE x _TILE blocks at a time; returns a.  Every
    entry gets + 0.0, as in the sum triu(a) + triu(a, 1).T, so -0.0 becomes
    +0.0."""
    for rows, cols in _upper_tiles(a.shape[0]):
        tile = a[rows, cols]
        if rows == cols:
            tile[...] = np.triu(tile) + np.triu(tile, 1).T
        else:
            tile += 0.0
            a[cols, rows] = tile.T
    return a


def sample_noise(n, spec, rng):
    """Draw one symmetric noise matrix from the family in a NoiseSpec."""
    if spec.family == "gaussian-iid":
        w = rng.standard_normal((n, n))
        w *= spec.sigma
        _mirror_upper(w)
    elif spec.family == "scaled-t4":
        w = rng.standard_t(4.0, size=(n, n))
        w /= math.sqrt(2.0)
        w *= spec.sigma
        _mirror_upper(w)
    elif spec.family == "uniform":
        half = math.sqrt(3.0) * spec.sigma
        w = _mirror_upper(rng.uniform(-half, half, size=(n, n)))
    elif spec.family == "gaussian-entry-hetero":
        scales = _mirror_upper(rng.uniform(spec.sigma_min, spec.sigma_max, size=(n, n)))
        w = _mirror_upper(rng.standard_normal((n, n)))
        w *= scales
        w *= spec.sigma
    elif spec.family == "gaussian-row-hetero":
        s2 = rng.uniform(spec.sigma_min, spec.sigma_max, size=n) ** 2
        w = _mirror_upper(rng.standard_normal((n, n)))
        w *= s2[:, None] + s2[None, :]
        w *= spec.sigma
    else:  # pragma: no cover - guarded by NoiseSpec
        raise ValueError(f"unknown noise family {spec.family!r}")
    if spec.truncation is not None:
        np.clip(w, -spec.truncation, spec.truncation, out=w)
    return w


def _noisy(signal, spec, rng):
    """signal plus one sample_noise draw, added into the fresh draw."""
    w = sample_noise(signal.shape[0], spec, rng)
    w += signal
    return w


@dataclass
class GroundTruth:
    """Planted model: eigenbasis, eigenvalues, and per-subject perturbations.

    perturbations is a list of (B, support) pairs.  Eigenvalues are kept
    sorted by magnitude descending.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    perturbations: list = field(default_factory=list)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        order = np.argsort(-np.abs(self.eigenvalues), kind="stable")
        self.eigenvalues = self.eigenvalues[order]
        self.basis = self.basis[:, order]

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]

    @property
    def mu(self):
        return coherence_of(self.basis)

    @property
    def kappa(self):
        if self.rank == 0:
            return float("nan")
        mags = np.abs(self.eigenvalues)
        return float(mags[0] / mags[-1])

    def shared_matrix(self):
        return _symmetric_product(self.basis, self.eigenvalues)


@dataclass
class ObservationSet:
    """Observed control (g0) and treatment (g1) matrices on n common nodes."""

    g0: list
    g1: list


def assemble_observations(truth, spec, n0, n1, rng, shared=False):
    """Noisy observations: controls carry the shared matrix, treatments add
    their perturbation.

    With shared=True, all n1 treatment matrices reuse the first perturbation
    (independent noise per copy); otherwise n1 must equal the number of
    perturbations, one copy each.  Controls are drawn before treatments.
    """
    if n0 < 1:
        raise ValueError("need at least one control observation")
    m_star = truth.shared_matrix()
    if shared:
        if not truth.perturbations:
            raise ValueError("shared=True needs at least one perturbation")
        perturbs = [truth.perturbations[0][0]] * n1
    else:
        if n1 != len(truth.perturbations):
            raise ValueError(
                f"n1={n1} does not match {len(truth.perturbations)} perturbations"
            )
        perturbs = [b for b, _ in truth.perturbations]
    g0 = [_noisy(m_star, spec, rng) for _ in range(n0)]
    g1 = [_noisy(m_star + b, spec, rng) for b in perturbs]
    return ObservationSet(g0=g0, g1=g1)
