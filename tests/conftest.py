"""Helpers shared by the test modules."""

import math

import numpy as np

from manyworlds.rng import rng_from_seed


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed dim x dim unitary via QR of a seeded complex Gaussian matrix.

    The QR phases are normalized with the diagonal of R so the distribution
    is exactly Haar rather than merely orthonormal. The same seed always
    gives the same matrix.
    """
    rng = rng_from_seed(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
