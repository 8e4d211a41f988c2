"""Vectorized linear algebra modulo an odd prime, for the bulk enumerations.

These helpers work on plain numpy int64 arrays of residues.  `all_vectors`
is the one vector table and `blocks` the one block bound for every F_p scan
(unit spheres, diagonal values, form-preserving maps, group closure); the
Scalar layer in `rings` stays the source of truth for exactness and all
results feed back through exact checks there.
"""

from __future__ import annotations

import numpy as np

# Most int64 entries one numpy block of a scan may hold (256 KiB).
_BLOCK_ENTRIES = 1 << 15


def all_vectors(p: int, n: int) -> np.ndarray:
    """All p^n vectors over F_p, rows in lexicographic order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T


def blocks(count: int, width: int):
    """Slices of range(count) whose rows, at `width` entries a row, fill at
    most _BLOCK_ENTRIES entries (one row per block when a row is wider)."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def gram_values(gram: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """q(x) = x G x^T mod p for each row x of X."""
    return np.einsum("ij,jk,ik->i", X, gram, X) % p


def unit_sphere(gram: np.ndarray, p: int) -> np.ndarray:
    """All vectors of q-value 1, in lexicographic order."""
    X = all_vectors(p, gram.shape[0])
    return X[gram_values(gram, X, p) == 1]
