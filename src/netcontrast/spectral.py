"""Stage one: spectral estimate of the shared matrix, node screening, residuals,
and the data-driven noise scale; stage_one chains the four."""

from dataclasses import dataclass
import math

import numpy as np

C_SCREEN = 2.0          # default screening constant of select_low_coherence
_KRYLOV_TOL = 1e-12     # _top_eigenpairs: Ritz residual bound, relative to |value|
_KRYLOV_CHECK = 8       # steps between its checks of the Ritz pairs
_KRYLOV_DIM = 120       # and the Krylov dimension past which it solves densely
_TILE = 128             # block edge of the in-place and blockwise n x n passes


@dataclass
class RankDecomposition:
    """Leading rank-r eigenpairs: right/left vectors and real eigenvalues.

    For symmetric input left is right; values are sorted by magnitude
    descending.  reconstruct() returns the symmetrized right-side
    reconstruction U diag(values) U^T.
    """

    right: np.ndarray
    left: np.ndarray
    values: np.ndarray

    @property
    def n(self):
        return self.right.shape[0]

    def reconstruct(self):
        return _symmetric_product(self.right, self.values)


def _symmetrize(a):
    """a := 0.5 (a + a^T) in place, bit for bit, one pair of _TILE x _TILE
    blocks at a time, so the transpose is read within a block; returns a."""
    n = a.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            upper, lower = a[i:i + _TILE, j:j + _TILE], a[j:j + _TILE, i:i + _TILE]
            mean = upper + lower.T
            mean *= 0.5
            upper[...] = mean
            lower[...] = mean.T
    return a


def _symmetric_product(vectors, values):
    """The symmetrized V diag(values) V^T, in one fresh n x n array."""
    return _symmetrize((vectors * values) @ vectors.T)


def _sign_fix(vecs):
    # make each column's first maximal-magnitude entry nonnegative
    for l in range(vecs.shape[1]):
        j = np.argmax(np.abs(vecs[:, l]))
        if vecs[j, l] < 0:
            vecs[:, l] = -vecs[:, l]
    return vecs


def _copies(mats):
    """One square matrix or a nonempty list of equal-shape ones, as a list of
    float arrays; raises ValueError otherwise."""
    mats = [np.asarray(y, dtype=float)
            for y in (mats if isinstance(mats, (list, tuple)) else [mats])]
    if not mats:
        raise ValueError("need at least one matrix")
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrices must be square, got shape {shape}")
    for y in mats[1:]:
        if y.shape != shape:
            raise ValueError(f"matrices must share one shape: {shape} vs {y.shape}")
    return mats


def _mean(mats, block=slice(None)):
    """Elementwise mean of one block of a _copies list: summed in order and
    divided by the count; one matrix's block comes back as a view.  Raises
    ValueError when the mean is not finite."""
    total = mats[0][block]
    if len(mats) > 1:
        total = total.copy()
        for y in mats[1:]:
            total += y[block]
        total /= len(mats)
    if not np.isfinite(total).all():
        raise ValueError("matrices must be finite")
    return total


def _average(mats):
    """Elementwise mean of one square matrix or a list of equal-shape ones.

    Summed in order and divided by the count, which is bit for bit numpy's
    mean of the stacked matrices along axis 0, without the stacked copy; one
    float matrix comes back as a view of itself, not copied.  Raises
    ValueError on an empty list, unequal or non-square shapes, or a
    non-finite mean.
    """
    return _mean(_copies(mats))


def _top_eigenpairs(mat, rank, symmetric=False):
    """(values, vectors) of the top-rank eigenpairs of the square mat, by
    decreasing magnitude: Arnoldi (Lanczos when symmetric) with full
    reorthogonalisation from a fixed seeded start.  Every _KRYLOV_CHECK
    steps it keeps the top Ritz pairs once each has h[d, d-1] |s_last| <=
    _KRYLOV_TOL |value|.  An exact breakdown (an invariant subspace) grows on
    from a fresh seeded vector, so a repeated top value is not missed.
    numpy's dense eigh or eig runs when no check passes by dimension
    min(_KRYLOV_DIM, n - 1), and at once for a rank that does not fit below it.
    A norm that overflows (entries above about 1e154) reruns the solve on mat
    scaled by the power of two of its largest entry, which is exact, and
    scales the values back."""
    if rank == 0:
        return np.zeros(0), np.zeros((mat.shape[0], 0))
    dense = np.linalg.eigh if symmetric else np.linalg.eig
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rescaled below
        found = _krylov(mat, rank, dense)
        if found is None:
            k = np.frexp(np.abs(mat).max())[1]
            values, vectors = _krylov(np.ldexp(mat, -k), rank, dense)
            # eig's complex values scale as their float pairs
            found = np.ldexp(values.view(float), k).view(values.dtype), vectors
    return found


def _krylov(mat, rank, dense):
    """_top_eigenpairs' solve of mat at rank >= 1; None when a norm of its
    Krylov vectors or of a Hessenberg column is not finite."""
    n = mat.shape[0]
    dim = min(_KRYLOV_DIM, n - 1)
    dim = dim if rank < dim else 0
    rng = np.random.default_rng(0)
    q = np.zeros((n, dim + 1))
    h = np.zeros((dim + 1, dim))
    # the seeded start's image (unless zero) keeps rows and columns mat zeroes at 0
    start = rng.standard_normal(n)
    image = mat @ start
    q[:, 0] = image if image.any() else start
    norm = np.linalg.norm(q[:, 0])
    if not math.isfinite(norm):
        return None
    q[:, 0] /= norm
    for d in range(1, dim + 1):
        basis = q[:, :d]
        w = mat @ q[:, d - 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            coef = basis.T @ w
            w -= basis @ coef
            h[:d, d - 1] += coef
        h[d, d - 1] = np.linalg.norm(w)
        column = np.linalg.norm(h[:d, d - 1])
        if not (math.isfinite(h[d, d - 1]) and math.isfinite(column)):
            return None
        if h[d, d - 1] <= _KRYLOV_TOL * column:
            h[d, d - 1] = 0.0
            w = rng.standard_normal(n)
            w -= basis @ (basis.T @ w)
            w -= basis @ (basis.T @ w)
        if d >= rank and d % _KRYLOV_CHECK == 0:
            theta, s = dense(h[:d, :d])
            top = np.argsort(-np.abs(theta), kind="stable")[:rank]
            if np.all(h[d, d - 1] * np.abs(s[-1, top]) <= _KRYLOV_TOL * np.abs(theta[top])):
                return theta[top], basis @ s[:, top]
        q[:, d] = w / np.linalg.norm(w)
    w, v = dense(mat)
    top = np.argsort(-np.abs(w), kind="stable")[:rank]
    return w[top], v[:, top]


def spectral_init(g0, rank):
    """Average the control group and keep the top-`rank` eigenpairs by |λ|.

    Parameters
    ----------
    g0 : matrix or list of matrices
        Control observations; averaged elementwise before decomposition.
    rank : int
        Number of leading eigenpairs (by magnitude), 0 <= rank <= n.

    Returns
    -------
    RankDecomposition

    Raises ValueError on non-finite input or a rank outside [0, n].
    """
    mean = _average(g0)
    n = mean.shape[0]
    if not 0 <= rank <= n:
        raise ValueError(f"need 0 <= rank <= n, got rank={rank} at n={n}")
    values, vecs = _top_eigenpairs(mean, rank, symmetric=True)
    return RankDecomposition(right=_sign_fix(vecs), left=vecs, values=values)


def select_low_coherence(dec, c_screen=C_SCREEN):
    """Indices of the nodes whose eigenvector row norm is at most
    c_screen * n^{-1/4}, ascending; raises ValueError when none is kept."""
    kept = np.flatnonzero(np.linalg.norm(dec.right, axis=1) <= c_screen * dec.n ** -0.25)
    if kept.size == 0:
        raise ValueError(
            f"screening kept no nodes at c_screen={c_screen:g}; "
            "raise the constant or disable screening"
        )
    return kept


def form_residual(y1, dec, kept=None):
    """Treatment minus the reconstructed shared estimate, on kept x kept.

    kept is an index array; None keeps every node.  Returned matrix is
    reindexed to |kept| x |kept|; the kept array itself is the
    local-to-global index map.
    """
    y1 = np.asarray(y1, dtype=float)
    resid = y1 - dec.reconstruct()
    return resid if kept is None else resid[np.ix_(kept, kept)]


def estimate_noise_scale(y0, dec):
    """Noise scale from low-leverage rows of one control residual.

    tau = ||(Y0 - M0)_{SxS}||_F / |S| over S = rows with sqrt(n) * row norm
    <= 2 sqrt(log n).  Within a constant band of the true per-copy sigma
    with high probability.  Raises ValueError when fewer than 2 rows are
    kept or the estimate is not finite.
    """
    y0 = np.asarray(y0, dtype=float)
    n = dec.n
    row_norms = np.linalg.norm(dec.right, axis=1)
    s = np.flatnonzero(math.sqrt(n) * row_norms <= 2.0 * math.sqrt(max(math.log(n), 0.0)))
    if s.size < 2:
        raise ValueError(f"noise-scale index set has {s.size} rows (< 2)")
    resid = (y0 - dec.reconstruct())[np.ix_(s, s)]
    with np.errstate(over="ignore"):  # an overflow is refused below
        tau = float(np.linalg.norm(resid)) / s.size
    if not math.isfinite(tau):
        raise ValueError(f"noise-scale estimate is not finite: {tau}")
    return tau


def stage_one(treatments, controls, rank, c_screen=C_SCREEN):
    """(residuals, kept, tau): each treatment's form_residual against the
    spectral_init of the mean control (else of the first treatment), on the
    nodes that select_low_coherence keeps (all, and kept None, when c_screen
    is None), and the estimate_noise_scale of that first control or
    treatment, None when it raises ValueError.  The ValueErrors of
    spectral_init and the screening propagate."""
    base = list(controls) or [treatments[0]]
    dec = spectral_init(base, rank)
    kept = None if c_screen is None else select_low_coherence(dec, c_screen)
    residuals = [form_residual(y, dec, kept) for y in treatments]
    try:
        tau = estimate_noise_scale(base[0], dec)
    except ValueError:
        tau = None
    return residuals, kept, tau
