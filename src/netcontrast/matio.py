"""Plain-text square-matrix files.

Format: first line is the dimension n, followed by n lines of n
whitespace-separated decimal floats.  Readers reject non-finite and
asymmetric input.
"""

import numpy as np

SYMMETRY_ATOL = 1e-9


def write_matrix(path, mat):
    """Write a square matrix in the text format (17 significant digits)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]}\n")
        np.savetxt(fh, mat, fmt="%.17g")


def read_matrix(path):
    """Read a matrix written by write_matrix as an (n, n) ndarray; NaN or
    infinite entries, and a max |A - A.T| entry above 1e-9, are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        try:
            n = int(header.strip())
        except ValueError:
            raise ValueError(f"{path}: first line must be the dimension") from None
        if n < 1:
            raise ValueError(f"{path}: dimension must be positive, got {n}")
        mat = np.loadtxt(fh, ndmin=2)
    if mat.shape != (n, n):
        raise ValueError(f"{path}: expected a {n}x{n} matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{path}: matrix has NaN or infinite entries")
    dev = float(np.max(np.abs(mat - mat.T)))
    if dev > SYMMETRY_ATOL:
        raise ValueError(f"{path}: matrix is asymmetric (max deviation {dev:.3g})")
    return mat
