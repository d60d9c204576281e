"""Helpers shared by the test modules."""

import math
import os
from pathlib import Path

import numpy as np

from manyworlds.rng import rng_from_seed

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**variables: str) -> dict[str, str]:
    """This process's environment with `src` on PYTHONPATH and `variables` set,
    for a child process that imports manyworlds."""
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


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


def reduced_matrix(amplitudes, d_left: int, d_right: int, keep: str) -> np.ndarray:
    """Reduced density matrix of the `keep` side ("left" or "right") of a pure state.

    Plain numpy on the amplitudes of the d_left x d_right state; the other
    side is traced out.
    """
    m = np.asarray(amplitudes).reshape(d_left, d_right)
    return m @ m.conj().T if keep == "left" else m.T @ m.conj()
