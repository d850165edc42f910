"""Stage three: debiased refinement of the shared low-rank matrix.

After the node support is removed, two independent views of the shared
matrix are spliced into one asymmetric composite whose left/right eigenpairs
carry a multiplicative bias that cancels in the product of left and right
linear forms.  This module provides the splicing, the asymmetric eigen
decomposition, the entrywise debiased estimator, an eigenspace whitening
correction built from two extra independent copies, the one dispatch from
estimator names to estimates (estimate), and the entrywise error used to
compare estimators.
"""

import logging

import numpy as np

from .spectral import (RankDecomposition, _TILE, _average, _copies, _mean, _sign_fix,
                       _symmetric_product, _top_eigenpairs, _upper_tiles, spectral_init)

logger = logging.getLogger(__name__)


def mask_support(mat, support):
    """Zero out the support rows and columns, keeping the complement block."""
    mat = np.asarray(mat, dtype=float)
    idx = np.asarray(support, dtype=int)
    out = mat.copy()
    if idx.size:
        out[idx, :] = 0.0
        out[:, idx] = 0.0
    return out


def asymmetric_combine(upper, lower):
    """Strict upper triangle from the first view, lower triangle and diagonal
    from the second, in one fresh array.

    Each view is one matrix or a list of copies that stands for their mean,
    as in spectral._average; a copy may be a spectral._Half.  The composite
    is built one _TILE x _TILE tile at a time, from the tile mean of the
    view it reads there, so neither mean is formed in full.  Raises
    ValueError on views that are not square matrices of equal shape, or on
    a tile mean that is not finite."""
    upper, lower = _copies(upper), _copies(lower)
    n = upper[0].shape[0]
    if lower[0].shape != (n, n):
        raise ValueError("views must be square matrices of equal shape")
    out = np.empty((n, n))
    for rows, cols in _upper_tiles(n):
        block = (rows, cols)
        if rows == cols:
            np.add(np.triu(_mean(upper, block), 1), np.tril(_mean(lower, block), 0),
                   out=out[block])
        else:  # + 0.0 as in the sum of the two triangles: -0.0 becomes +0.0
            np.add(_mean(upper, block), 0.0, out=out[block])
            np.add(_mean(lower, (cols, rows)), 0.0, out=out[cols, rows])
    return out


def asymmetric_eigenpairs(mat, rank):
    """Top-rank left/right eigenpairs of a (generally asymmetric) matrix.

    Eigenvalues are ordered by decreasing magnitude.  _top_eigenpairs gives
    the top-rank spans of mat (right) and mat.T (left), with orthonormal
    bases Q and P, and one two-sided Rayleigh-Ritz step gives both sides:
    with G = P^T Q and eig(G^-1 P^T mat Q) = Y diag(values) Y^-1, the right
    vectors are Q Y and the left ones P G^-T Y^-T, so l^T r = 1 per pair.
    Right vectors get the usual sign convention (first largest-magnitude
    entry nonnegative), each left vector the sign of its right partner, and
    both are normalised.

    LinAlgError is raised when a top value of either span has an imaginary
    part above 1e-6 * |value|, or a Ritz residual of either side is above
    1e-6 * |value| times its vector's norm (the two spans are not one pair
    of top-rank invariant subspaces); each pair's residual and bound are
    scaled by one power of two, near 1 / |value|, so that the norms do not
    overflow.  Non-finite input raises ValueError.
    """
    mat = np.asarray(mat, dtype=float)
    nt = mat.shape[0]
    if not 1 <= rank <= nt:
        raise ValueError(f"need 1 <= rank <= n, got rank={rank}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix must be finite")
    (w, vr), (wl, vl) = _top_eigenpairs(mat, rank), _top_eigenpairs(mat.T, rank)
    for vals in (w, wl):
        bad = np.abs(vals.imag) > 1e-6 * np.maximum(np.abs(vals), 1e-300)
        if np.any(bad):
            raise np.linalg.LinAlgError(f"top-{rank} eigenvalues are not real: {vals[bad]}")
    q, p = np.linalg.qr(vr.real)[0], np.linalg.qr(vl.real)[0]
    aq, g = mat @ q, p.T @ q
    w, y = np.linalg.eig(np.linalg.solve(g, p.T @ aq))
    order = np.argsort(-np.abs(w), kind="stable")
    w, y = w[order].real, y[:, order].real
    vr = _sign_fix(q @ y)
    y = q.T @ vr  # Y with the right vectors' signs, which the left ones then share
    vl = p @ np.linalg.solve(g.T, np.linalg.inv(y).T)
    k = -np.frexp(w)[1]  # 2^k_j is near 1 / |w_j|: an exact scale that keeps the norms finite
    for vecs, res in ((vr, aq @ y - vr * w), (vl, mat.T @ vl - vl * w)):
        bound = 1e-6 * np.ldexp(np.abs(w), k) * np.linalg.norm(vecs, axis=0)
        if not np.all(np.linalg.norm(np.ldexp(res, k), axis=0) <= bound):   # NaN fails too
            raise np.linalg.LinAlgError(
                f"top-{rank} Ritz residuals of the two spans exceed 1e-6 |value|")
    vr /= np.linalg.norm(vr, axis=0)
    vl /= np.linalg.norm(vl, axis=0)
    return RankDecomposition(right=vr, left=vl, values=w)


def _overlaps(dec):
    ov = np.sum(dec.left * dec.right, axis=0)
    if np.any(np.abs(ov) < 1e-10):
        raise ValueError("left/right eigenvector overlap is degenerate")
    return ov


def debiased_eigenvectors(dec):
    """Entrywise debiased eigenvector matrix.

    Each entry is the coordinate linear-form estimate with the sign of the
    right eigenvector entry (zero gets +)."""
    ov = _overlaps(dec)
    raw = np.sqrt(np.abs(dec.right * dec.left / ov[None, :]))
    signs = np.where(dec.right >= 0, 1.0, -1.0)
    return signs * np.minimum(raw, 1.0)


def reconstruct_symmetric(vectors, values):
    return _symmetric_product(vectors, values)


def eigenspace_correction(dec, copy1, copy2):
    """Symmetric positive-definite whitening factor psi for the right
    eigenvectors, from two extra independent copies of the shared matrix.

    Inverts the eigenvalue-scaled quadratic form of the two copies on the
    right eigenspace, symmetrizes, and takes the principal square root of
    its eigen-decomposition.  Each copy is one matrix or a list of copies
    that stands for their mean, as in spectral._average, and is formed in
    full only while it is multiplied.  When the form's products overflow, it
    is formed again from the copies and the values scaled by the power of
    two of the copies' largest entry, which is exact.  Raises ValueError
    when a mean is not finite, and LinAlgError when the form is still not
    finite or is numerically singular, or the symmetrized inverse has a
    non-positive eigenvalue.
    """
    u = dec.right
    lam = dec.values
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rescaled below
        scaled = _eigenspace_form(u, lam, copy1, copy2)
        if not np.isfinite(scaled).all():
            k = -np.frexp(max(np.abs(_average(c)).max() for c in (copy1, copy2)))[1]
            scaled = _eigenspace_form(u, np.ldexp(lam, k), copy1, copy2, k)
    if not np.isfinite(scaled).all():
        raise np.linalg.LinAlgError("eigenspace quadratic form is not finite")
    if np.linalg.cond(scaled) > 1e12:
        raise np.linalg.LinAlgError("eigenspace quadratic form is numerically singular")
    g = np.linalg.inv(scaled)
    evals, gamma = np.linalg.eigh(0.5 * (g + g.T))
    if np.any(evals <= 0):
        raise np.linalg.LinAlgError(
            f"symmetrized correction has non-positive spectrum: {evals}"
        )
    psi = (gamma * np.sqrt(evals)) @ gamma.T
    return 0.5 * (psi + psi.T)


def _eigenspace_form(u, lam, copy1, copy2, k=0):
    """((u^T c1) c2) u / outer(lam, lam) for the means c1, c2 of the two
    copies, each scaled by 2^k when k is not 0 and formed once it is used."""
    def mean(copy):
        c = _average(copy)
        return np.ldexp(c, k) if k else c
    left = u.T @ mean(copy1)
    return (left @ mean(copy2) @ u) / np.outer(lam, lam)


def whitened_reconstruction(dec, psi):
    """Shared-matrix estimate from the right eigenvectors whitened by the
    factor psi of eigenspace_correction."""
    return reconstruct_symmetric(dec.right @ psi, dec.values)


def spectral_baseline(mats, rank):
    """Plain rank-r truncation of the (averaged) symmetric observations: the
    reconstruction of their spectral_init, whose ValueErrors (non-finite
    input, a rank outside [0, n]) propagate."""
    return spectral_init(mats, rank).reconstruct()


ESTIMATORS = ("spec", "mhat1", "mhat2")


def estimate(methods, rank, copies):
    """[(method, estimate or None, error message or None)] for each name of
    ESTIMATORS in methods, in order, from a list of independent copies of
    the shared matrix (arrays, or the spectral._Half views of
    spectral._pair_copies): spec truncates the mean of all copies, mhat1
    debiases the eigenpairs of the composite that splices the mean of the
    even-numbered copies with the mean of the odd-numbered ones, and mhat2
    puts copy j in slot j mod 4, splices the means of slots 0 and 1 and
    whitens with the means of slots 2 and 3, so it needs four.
    A LinAlgError or ValueError gives its message, not the exception, whose
    traceback would keep the n x n matrices of its frames alive."""
    if not set(methods) <= set(ESTIMATORS):
        raise ValueError(f"estimators must be among {ESTIMATORS}, got {methods}")
    out = []
    for meth in methods:
        try:
            if meth == "spec":
                est = spectral_baseline(copies, rank)
            elif meth == "mhat1":
                if len(copies) < 2:
                    raise ValueError(f"mhat1 needs 2 copies, got {len(copies)}")
                dec = asymmetric_eigenpairs(
                    asymmetric_combine(copies[0::2], copies[1::2]), rank)
                est = reconstruct_symmetric(debiased_eigenvectors(dec), dec.values)
            elif len(copies) < 4:
                raise ValueError(f"mhat2 needs 4 copies, got {len(copies)}")
            else:
                dec = asymmetric_eigenpairs(
                    asymmetric_combine(copies[0::4], copies[1::4]), rank)
                est = whitened_reconstruction(dec, eigenspace_correction(
                    dec, copies[2::4], copies[3::4]))
        except (np.linalg.LinAlgError, ValueError) as exc:
            logger.warning("estimator %s failed: %s", meth, exc)
            out.append((meth, None, str(exc)))
        else:
            out.append((meth, est, None))
    return out


def entry_error(a, b):
    """Largest absolute entry difference, NaN when one is NaN; reduced _TILE
    rows at a time, with no temporary of the full shape."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    peaks = []
    for i in range(0, len(a), _TILE):
        diff = a[i:i + _TILE] - b[i:i + _TILE]
        peaks.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(peaks))
