"""Bi-orthogonal (Schmidt) decomposition of bipartite pure states.

The decomposition diagonalizes both reduced density matrices at once and is
the preferred basis along which worlds split: rank one means the state
factorizes, rank above one means it has defactorized into branches. It is
read off one thin singular value decomposition of the d_left x d_right
amplitude matrix, so no reduced density matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    EPS_EIG,
    EPS_RANK,
    BipartiteSplit,
    StateVector,
    _canonical_eigenbasis,
    _fresh_state,
)


class DecompositionError(RuntimeError):
    """Internal consistency failure while pairing the two subsystem bases."""


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending coefficients with paired orthonormal subsystem vectors.

    ``left_vectors`` and ``right_vectors`` hold one column per retained
    coefficient; coefficients at or below EPS_RANK are treated as exact
    zeros and dropped.
    """

    lambdas: np.ndarray       # descending, each in (EPS_RANK, 1]
    left_vectors: np.ndarray  # (d_left, rank), orthonormal columns
    right_vectors: np.ndarray # (d_right, rank), orthonormal columns
    rank: int
    split: BipartiteSplit

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        left = np.asarray(self.left_vectors, dtype=np.complex128)
        right = np.asarray(self.right_vectors, dtype=np.complex128)
        if lam.ndim != 1 or lam.size != self.rank:
            raise DecompositionError("coefficient count must equal the rank")
        if self.rank < 1 or self.rank > min(self.split.d_left, self.split.d_right):
            raise DecompositionError(
                f"rank {self.rank} outside [1, min{self.split.d_left, self.split.d_right}]"
            )
        if (lam[1:] > lam[:-1]).any():
            raise DecompositionError("coefficients must be sorted descending")
        if (lam <= EPS_RANK).any():
            raise DecompositionError("retained coefficient at or below the zero threshold")
        if not abs(lam.sum() - 1.0) <= EPS_EIG:
            raise DecompositionError(f"coefficients sum to {lam.sum()!r}, not 1")
        for name, mat, d in (("left", left, self.split.d_left),
                             ("right", right, self.split.d_right)):
            if mat.shape != (d, self.rank):
                raise DecompositionError(f"{name} vectors have shape {mat.shape}")
            with np.errstate(invalid="ignore"):  # an inf entry makes it NaN, refused below
                gram_dev = np.abs(mat.conj().T @ mat - np.eye(self.rank)).max()
            if not gram_dev <= EPS_EIG:
                raise DecompositionError(
                    f"{name} vectors not orthonormal (deviation {gram_dev:.3e})"
                )
        lam = lam.copy(); lam.flags.writeable = False
        left = left.copy(); left.flags.writeable = False
        right = right.copy(); right.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "left_vectors", left)
        object.__setattr__(self, "right_vectors", right)


def schmidt_decompose(psi: StateVector, split: BipartiteSplit) -> SchmidtDecomposition:
    """Decompose a pure state across a bipartite split.

    Takes one thin SVD of the amplitude matrix: the coefficients are the
    squared singular values, and only those above EPS_RANK are kept, so no
    null space is ever computed. The kept left vectors follow the package's
    eigenbasis convention (see eig_hermitian), with degenerate clusters
    formed among the kept coefficients only. Each right vector is then
    obtained by contracting the state with its left vector and normalizing;
    this guarantees phase-consistent pairs. The reconstruction is verified
    against the input before returning.
    """
    split.require_match(psi)
    m = psi.amplitudes.reshape(split.d_left, split.d_right)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    values = s**2
    rank = int(np.count_nonzero(values > EPS_RANK))  # a prefix: s is descending
    lambdas = values[:rank]
    left = _canonical_eigenbasis(lambdas, u[:, :rank])

    raw_right = m.T @ left.conj()            # column n: <left_n| psi, a right-side vector
    norms = np.linalg.norm(raw_right, axis=0)
    if not (norms**2 > EPS_RANK).all():
        raise DecompositionError(
            "retained coefficient vanished during pairing; state is numerically pathological"
        )
    right = raw_right / norms

    dec = SchmidtDecomposition(lambdas, left, right, rank, split)
    residual = np.linalg.norm(_reconstruction_amplitudes(dec) - psi.amplitudes)
    if not residual <= EPS_EIG:
        raise DecompositionError(
            f"reconstruction misses the input by {residual:.3e} (> {EPS_EIG})"
        )
    return dec


def spectra_gap(psi: StateVector, dec: SchmidtDecomposition) -> float:
    """Self-diagnostic: distance between dec's coefficients and psi's reduced spectrum.

    Both reduced matrices of a pure state share the nonzero spectrum that
    `dec.lambdas` publishes. To check it by a factorization other than dec's
    SVD, this eigensolves the smaller reduced matrix of `psi` on `dec.split`
    and returns the max elementwise gap between its descending eigenvalues
    above EPS_RANK and `dec.lambdas`, an entry missing from the shorter one
    counting as zero. That matrix is formed straight from amplitudes that
    StateVector has checked, so it is Hermitian with unit trace by
    construction; a DensityMatrix would re-check its positivity with a
    second eigensolve of the very spectrum compared here.
    """
    dec.split.require_match(psi)
    m = psi.amplitudes.reshape(dec.split.d_left, dec.split.d_right)
    reduced = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.T @ m.conj()
    eigen = np.linalg.eigvalsh(reduced)[::-1]
    a, b = eigen[eigen > EPS_RANK], dec.lambdas  # dec keeps only entries above EPS_RANK
    k = min(a.size, b.size)
    tail = a[k:] if a.size > k else b[k:]  # entries above EPS_RANK are positive
    return float(max(np.abs(a[:k] - b[:k]).max(initial=0.0), tail.max(initial=0.0)))


def _reconstruction_amplitudes(dec: SchmidtDecomposition) -> np.ndarray:
    weighted = dec.left_vectors * np.sqrt(dec.lambdas)
    return (weighted @ dec.right_vectors.T).reshape(-1)


def reconstruct(dec: SchmidtDecomposition) -> StateVector:
    """Rebuild the state as sum_n sqrt(lambda_n) left_n (x) right_n.

    Renormalized, which restores the weight lost when near-zero
    coefficients were truncated. The amplitudes are fresh and fill the split
    (capped when it was made) that SchmidtDecomposition checked the vector
    shapes against, so only the unit norm is checked and the array is frozen
    in place.
    """
    amps = _reconstruction_amplitudes(dec)
    amps /= np.linalg.norm(amps)
    return _fresh_state(amps, (dec.split.d_left, dec.split.d_right))


def entanglement_entropy(dec: SchmidtDecomposition) -> float:
    """Von Neumann entropy -sum lambda ln lambda of the coefficients, in nats."""
    value = float(-np.dot(dec.lambdas, np.log(dec.lambdas)))
    return max(value, 0.0) + 0.0  # + 0.0 normalizes -0.0
