"""Residue kernels mod p: rank and inverse, against the exact Scalar layer."""

import random

import numpy as np
import pytest

from stiefel_lab import gfnum
from stiefel_lab.quadmod import row_rank
from stiefel_lab.rings import Scalar, finite_field


def random_matrix(rng, p, rows, cols, rank):
    """A rows x cols matrix over F_p of rank at most `rank` (a product of
    random rows x rank and rank x cols factors)."""
    a = np.array([rng.randrange(p) for _ in range(rows * rank)], dtype=np.int64)
    b = np.array([rng.randrange(p) for _ in range(rank * cols)], dtype=np.int64)
    return (a.reshape(rows, rank) @ b.reshape(rank, cols)) % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_mod_p_matches_scalar_rank(p):
    rng = random.Random(p)
    ring = finite_field(p)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = random_matrix(rng, p, rows, cols, rng.randint(0, min(rows, cols)))
        exact = tuple(tuple(Scalar(ring, int(x)) for x in row) for row in M)
        assert gfnum.rank_mod_p(M, p) == row_rank(exact, ring)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inverse_mod_p(p):
    rng = random.Random(100 + p)
    inverted = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        M = random_matrix(rng, p, n, n, n)
        if gfnum.rank_mod_p(M, p) < n:
            with pytest.raises(ZeroDivisionError):
                gfnum.inverse_mod_p(M, p)
            continue
        inv = gfnum.inverse_mod_p(M, p)
        assert ((inv @ M) % p == np.eye(n, dtype=np.int64)).all()
        assert ((M @ inv) % p == np.eye(n, dtype=np.int64)).all()
        inverted += 1
    assert inverted > 0


def test_inverse_mod_p_singular():
    with pytest.raises(ZeroDivisionError):
        gfnum.inverse_mod_p(np.array([[1, 2], [2, 4]]), 5)
    with pytest.raises(ZeroDivisionError):
        gfnum.inverse_mod_p(np.array([[0, 1, 0], [0, 0, 1], [0, 2, 2]]), 3)
