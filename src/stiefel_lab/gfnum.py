"""Vectorized linear algebra modulo an odd prime or its power, for the bulk enumerations.

These helpers work on plain numpy int64 arrays of residues.  `all_vectors`
is the one vector table, refused before it allocates, and `blocks` the one
block bound for every residue scan (unit spheres, form-preserving maps,
group closure over F_p and Z/p^N); the Scalar layer in
`rings` stays the source of truth for exactness and all results feed back
through exact checks there.

`codes` is the one key of an F_p row (a matrix, a vector, a map, a frame of
sphere indices): one int64, so sorted rows have sorted codes and a lookup is
one `np.searchsorted` (`member`).  `mod` is the one bulk reduction (by floor
division: numpy's integer `%` is several times slower for the same residues).
"""

from __future__ import annotations

import functools

import numpy as np

from stiefel_lab.rings import BudgetError

# Most int64 entries one numpy block of a scan may hold (256 KiB).
_BLOCK_ENTRIES = 1 << 15

# Most int64 entries the one vector table may hold (256 MiB).
VECTOR_TABLE_ENTRIES = 1 << 25


def all_vectors(base: int, n: int) -> np.ndarray:
    """All base^n vectors of n digits in [0, base), rows in lexicographic
    order; refuses before it allocates past VECTOR_TABLE_ENTRIES entries."""
    if base ** n * n > VECTOR_TABLE_ENTRIES:
        raise BudgetError(f"the table of all {base}^{n} vectors of length {n} holds "
                          f"{base ** n * n} entries, more than {VECTOR_TABLE_ENTRIES}")
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((base,) * n, dtype=np.int64).reshape(n, -1).T


def block_rows(width: int) -> int:
    """Rows of `width` entries one block holds (at least one)."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def blocks(count: int, width: int):
    """Slices of range(count) whose rows, at `width` entries a row, fill at
    most _BLOCK_ENTRIES entries (one row per block when a row is wider)."""
    step = block_rows(width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def mod(a: np.ndarray, m: int) -> np.ndarray:
    """a % m entrywise (floor semantics, so in [0, m) for m > 0), by floor division."""
    return a - a // m * m


def gram_values(gram: np.ndarray, X: np.ndarray, m: int) -> np.ndarray:
    """q(x) = x G x^T mod m for each row x of X."""
    return mod(np.einsum("ij,jk,ik->i", X, gram, X), m)


@functools.cache
def _upper_triangle(r: int):
    """Row and column indices of the r(r + 1)/2 entries i <= j, and the
    weight of each in q(x) (1 on the diagonal, 2 off it)."""
    I, J = np.triu_indices(r)
    return I, J, np.where(I == J, 1, 2)


def first_solutions(grams: np.ndarray, p: int, a: int = 0) -> np.ndarray:
    """For each of a stack of int Gram matrices of one rank r (shape
    (B, r, r)), the lexicographically first nonzero x in [0, p)^r with
    q(x) = a mod p, as one row of the (B, r) result; a zero row means q
    takes no such value (for a = 0: the reduction mod p is anisotropic).

    q(x) is the upper-triangle coefficients of the Gram matrix reduced mod p
    (the off-diagonal ones doubled, so below 2p) times the monomials x_i x_j
    reduced mod p, so every int64 sum stays below r(r + 1)/2 * 2p^2.  The
    vector table is scanned in lexicographic slabs; a form leaves the scan at
    its first hit.  Each slab is one block of `blocks` counted over its
    temporaries: a row's r(r + 1)/2 monomials and its values on the forms
    still unsolved each pass through at most four int64 arrays at a time."""
    count, r = grams.shape[:2]
    X = all_vectors(p, r)
    I, J, weights = _upper_triangle(r)
    coeffs = mod(grams[:, I, J], p) * weights
    first = np.zeros(count, dtype=np.int64)  # table row of the first hit; row 0 is x = 0
    left = np.arange(count)
    lo = 1
    while left.size and lo < len(X):
        slab = X[lo:lo + block_rows(4 * (len(I) + left.size))]
        hit = mod(mod(slab[:, I] * slab[:, J], p) @ coeffs[left].T, p) == a % p
        solved = hit.any(axis=0)
        first[left[solved]] = lo + hit[:, solved].argmax(axis=0)
        left = left[~solved]
        lo += len(slab)
    return X[first]


def unit_sphere(gram: np.ndarray, p: int) -> np.ndarray:
    """All vectors of q-value 1, in lexicographic order."""
    X = all_vectors(p, gram.shape[0])
    return X[gram_values(gram, X, p) == 1]


def code_weights(base: int, width: int) -> np.ndarray:
    """Place values of the codes of rows of `width` digits in [0, base);
    refuses when base^width codes do not fit in int64."""
    if base ** width >= 2 ** 63:
        raise BudgetError(f"rows of {width} digits mod {base} have {base}^{width} codes, "
                          f"more than an int64 code holds")
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def codes(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One int64 code per row of len(w) digits: the digits read in the base
    of `w`, first digit most significant, so codes sort like the rows."""
    return rows.reshape(-1, len(w)) @ w


def decode(codes: np.ndarray, w: np.ndarray, base: int) -> np.ndarray:
    """The rows of digits of the given codes, one row per code."""
    return mod(codes[:, None] // w, base)


def member(known: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which codes lie in the sorted code array `known`."""
    if not len(known):
        return np.zeros(codes.shape, dtype=bool)
    return known.take(np.searchsorted(known, codes), mode="clip") == codes
