"""Vectorized linear algebra modulo an odd prime, for the bulk enumerations.

These helpers work on plain numpy int64 arrays of residues.  They back the
hot paths (unit-vector enumeration and form values); the Scalar layer in
`rings` stays the source of truth for exactness and all results feed back
through exact checks there.
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
