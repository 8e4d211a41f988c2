"""Vectorized linear algebra modulo an odd prime, for the bulk enumerations.

These helpers work on plain numpy int64 arrays of residues.  They back the
hot paths (unit-vector enumeration, form values, rank and inverses mod p);
the Scalar layer in `rings` stays the source of truth for exactness and all
results feed back through exact checks there.
"""

from __future__ import annotations

import numpy as np


def all_vectors(p: int, n: int) -> np.ndarray:
    """All p^n vectors over F_p, rows in lexicographic order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    ranges = [np.arange(p, dtype=np.int64)] * n
    grid = np.meshgrid(*ranges, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def gram_values(gram: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """q(x) = x G x^T mod p for each row x of X."""
    return np.einsum("ij,jk,ik->i", X, gram, X) % p


def unit_sphere(gram: np.ndarray, p: int) -> np.ndarray:
    """All vectors of q-value 1, in lexicographic order."""
    X = all_vectors(p, gram.shape[0])
    return X[gram_values(gram, X, p) == 1]


def _row_reduce(A: np.ndarray, p: int, ncols: int) -> int:
    """Gauss-Jordan elimination mod p on the first `ncols` columns of the
    residue array A, in place: each pivot row is scaled to 1 and its column
    cleared in every other row.  Returns the rank of that block."""
    rows = A.shape[0]
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        nonzero = np.flatnonzero(A[r:, c])
        if nonzero.size == 0:
            continue
        piv = r + int(nonzero[0])
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
    return r


def rank_mod_p(M: np.ndarray, p: int) -> int:
    A = np.array(M, dtype=np.int64) % p
    return _row_reduce(A, p, A.shape[1])


def inverse_mod_p(M: np.ndarray, p: int) -> np.ndarray:
    n = M.shape[0]
    A = np.concatenate([np.array(M, dtype=np.int64) % p, np.eye(n, dtype=np.int64)], axis=1)
    if _row_reduce(A, p, n) < n:
        raise ZeroDivisionError("matrix is singular mod p")
    return A[:, n:]
