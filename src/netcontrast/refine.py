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

from .spectral import RankDecomposition, _sign_fix, _top_eigenpairs, spectral_init

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
    from the second."""
    upper = np.asarray(upper, dtype=float)
    lower = np.asarray(lower, dtype=float)
    if upper.shape != lower.shape or upper.ndim != 2 or upper.shape[0] != upper.shape[1]:
        raise ValueError("views must be square matrices of equal shape")
    return np.triu(upper, 1) + np.tril(lower, 0)


def asymmetric_eigenpairs(mat, rank):
    """Top-rank left/right eigenpairs of a (generally asymmetric) matrix.

    Eigenvalues are ordered by decreasing magnitude.  Imaginary parts below
    1e-6 * |eigenvalue| are dropped; larger ones raise LinAlgError.  Right
    vectors get the usual sign convention (first largest-magnitude entry
    nonnegative) and each left vector is flipped so its overlap with the
    matching right vector is positive.

    Each side comes from _top_eigenpairs, the right pairs of mat and the left
    pairs as the right pairs of mat.T, and the two are matched by value
    order; LinAlgError is raised when a matched left value differs from its
    right value by more than 1e-6 relative.  Non-finite input raises
    ValueError.
    """
    mat = np.asarray(mat, dtype=float)
    nt = mat.shape[0]
    if not 1 <= rank <= nt:
        raise ValueError(f"need 1 <= rank <= n, got rank={rank}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix must be finite")
    w, vr = _top_eigenpairs(mat, rank)
    wl, vl = _top_eigenpairs(mat.T, rank)
    # pair the j-th smallest left value with the j-th smallest right one, so
    # that l and -l, tied in magnitude, still meet their own partners
    right, left = np.argsort(w.real), np.argsort(wl.real)
    order = np.argsort(-np.abs(w[right]), kind="stable")
    right, left = right[order], left[order]
    w, vr, wl, vl = w[right], vr[:, right], wl[left], vl[:, left]
    bad = np.abs(w.imag) > 1e-6 * np.maximum(np.abs(w), 1e-300)
    if np.any(bad):
        raise np.linalg.LinAlgError(
            f"top-{rank} eigenvalues are not real: {w[bad]}"
        )
    if np.any(np.abs(wl - w) > 1e-6 * np.abs(w)):
        raise np.linalg.LinAlgError(f"left eigenvalues {wl} do not pair with right {w}")
    w = w.real
    vl = vl.real.copy()
    vr = vr.real.copy()
    vr /= np.linalg.norm(vr, axis=0)
    vl /= np.linalg.norm(vl, axis=0)
    _sign_fix(vr)
    flip = np.where(np.sum(vl * vr, axis=0) < 0, -1.0, 1.0)
    vl *= flip
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
    recon = (vectors * values) @ vectors.T
    return 0.5 * (recon + recon.T)


def eigenspace_correction(dec, copy1, copy2):
    """Symmetric positive-definite whitening factor psi for the right
    eigenvectors, from two extra independent copies of the shared matrix.

    Inverts the eigenvalue-scaled quadratic form of the two copies on the
    right eigenspace, symmetrizes, and takes the principal square root of
    its eigen-decomposition.  Raises LinAlgError when the quadratic form is
    numerically singular or the symmetrized inverse has a non-positive
    eigenvalue.
    """
    u = dec.right
    lam = dec.values
    copy1 = np.asarray(copy1, dtype=float)
    copy2 = np.asarray(copy2, dtype=float)
    scaled = (u.T @ copy1 @ copy2 @ u) / np.outer(lam, lam)
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


def estimate(methods, rank, views, upper, lower, extras=()):
    """[(method, estimate or None, error message or None)] for each name of
    ESTIMATORS in methods, in order: spec truncates the mean of views, mhat1
    and mhat2 share the eigenpairs of asymmetric_combine(upper, lower), or
    the failure of that one solve, and mhat2 whitens them with extras[0] and
    extras[1].  A LinAlgError or ValueError gives its message, not the
    exception, whose traceback would keep the n x n matrices of its frames
    alive."""
    if not set(methods) <= set(ESTIMATORS):
        raise ValueError(f"estimators must be among {ESTIMATORS}, got {methods}")
    dec = failure = None   # the shared eigensolve's result, or its error message
    out = []
    for meth in methods:
        try:
            if meth == "spec":
                est = spectral_baseline(views, rank)
            else:
                if dec is None and failure is None:
                    try:
                        dec = asymmetric_eigenpairs(asymmetric_combine(upper, lower), rank)
                    except (np.linalg.LinAlgError, ValueError) as exc:
                        failure = str(exc)
                if failure is not None:
                    raise ValueError(failure)
                if meth == "mhat1":
                    est = reconstruct_symmetric(debiased_eigenvectors(dec), dec.values)
                elif len(extras) < 2:
                    raise ValueError("mhat2 needs two extra control matrices")
                else:
                    est = whitened_reconstruction(
                        dec, eigenspace_correction(dec, extras[0], extras[1]))
        except (np.linalg.LinAlgError, ValueError) as exc:
            logger.warning("estimator %s failed: %s", meth, exc)
            out.append((meth, None, str(exc)))
        else:
            out.append((meth, est, None))
    return out


def entry_error(a, b):
    """Largest absolute entry difference."""
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
