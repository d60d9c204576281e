"""Bi-orthogonal (Schmidt) decomposition of bipartite pure states.

The decomposition diagonalizes both reduced density matrices at once and is
the preferred basis along which worlds split: rank one means the state
factorizes, rank above one means it has defactorized into branches. It is
read off one thin singular value decomposition of the d_left x d_right
amplitude matrix, so no reduced density matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contracts import DecompositionError
from .hilbert import (
    EPS_EIG,
    EPS_RANK,
    BipartiteSplit,
    StateVector,
    _canonical_eigenbasis,
    _column_norms,
    _fresh_state,
    _gram_deviation,
    _norm,
)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending coefficients with paired orthonormal subsystem vectors.

    ``left_vectors`` and ``right_vectors`` hold one column per retained
    coefficient; coefficients at or below EPS_RANK are treated as exact
    zeros and dropped. The constructor copies caller input and checks it;
    the arrays are read-only. The amplitudes sum_n sqrt(lambda_n) left_n (x)
    right_n are formed once, when the decomposition is made, and serve both
    the residual check of schmidt_decompose and reconstruct.
    """

    lambdas: np.ndarray       # descending, each in (EPS_RANK, 1]
    left_vectors: np.ndarray  # (d_left, rank), orthonormal columns
    right_vectors: np.ndarray # (d_right, rank), orthonormal columns
    split: BipartiteSplit
    _amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=np.float64)
        left = np.asarray(self.left_vectors, dtype=np.complex128)
        right = np.asarray(self.right_vectors, dtype=np.complex128)
        with np.errstate(invalid="ignore"):  # an inf entry makes a deviation NaN, refused
            _check_decomposition(lam, left, right, self.split)
        _freeze_into(self, lam.copy(), left.copy(), right.copy())

    @property
    def rank(self) -> int:
        return self.lambdas.size


def _check_decomposition(lam: np.ndarray, left: np.ndarray, right: np.ndarray,
                         split: BipartiteSplit) -> None:
    """Every check on a decomposition's arrays; a NaN fails each one it reaches."""
    rank, max_rank = lam.size, min(split.d_left, split.d_right)
    if lam.ndim != 1 or not 1 <= rank <= max_rank:
        raise DecompositionError(f"{lam.shape} coefficients: rank not in [1, {max_rank}]")
    if (lam[1:] > lam[:-1]).any():
        raise DecompositionError("coefficients must be sorted descending")
    if (lam <= EPS_RANK).any():
        raise DecompositionError("retained coefficient at or below the zero threshold")
    if not abs(lam.sum() - 1.0) <= EPS_EIG:
        raise DecompositionError(f"coefficients sum to {float(lam.sum())!r}, not 1")
    for name, mat, d in (("left", left, split.d_left), ("right", right, split.d_right)):
        if mat.shape != (d, rank):
            raise DecompositionError(f"{name} vectors have shape {mat.shape}")
        gram_dev = _gram_deviation(mat)
        if not gram_dev <= EPS_EIG:
            raise DecompositionError(
                f"{name} vectors not orthonormal (deviation {gram_dev:.3e})"
            )


def _fresh_decomposition(lam: np.ndarray, left: np.ndarray, right: np.ndarray,
                         split: BipartiteSplit) -> SchmidtDecomposition:
    """SchmidtDecomposition around arrays that schmidt_decompose has just computed.

    The constructor's checks run on them, but they are frozen in place
    rather than copied. No errstate is entered: the SVD of a unit-norm
    vector is finite, and so are the canonical left vectors (each divided
    by a pivot modulus above 1e-9) and the right vectors (divided by norms
    checked to be nonzero), so no inf can reach a Gram matrix.
    """
    _check_decomposition(lam, left, right, split)
    dec = object.__new__(SchmidtDecomposition)
    object.__setattr__(dec, "split", split)
    _freeze_into(dec, lam, left, right)
    return dec


def _freeze_into(dec: SchmidtDecomposition, lam: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> None:
    """Set checked arrays on dec, frozen in place, and form its reconstruction amplitudes."""
    amps = _reconstruction_amplitudes(lam, left, right)
    for name, arr in (("lambdas", lam), ("left_vectors", left), ("right_vectors", right),
                      ("_amplitudes", amps)):
        arr.flags.writeable = False
        object.__setattr__(dec, name, arr)


def _reconstruction_amplitudes(lam: np.ndarray, left: np.ndarray,
                               right: np.ndarray) -> np.ndarray:
    return ((left * np.sqrt(lam)) @ right.T).reshape(-1)


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
    norms = _column_norms(raw_right)
    if not (norms**2 > EPS_RANK).all():
        raise DecompositionError(
            "retained coefficient vanished during pairing; state is numerically pathological"
        )
    right = raw_right / norms

    dec = _fresh_decomposition(lambdas, left, right, split)
    residual = _norm(dec._amplitudes - psi.amplitudes)
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


def reconstruct(dec: SchmidtDecomposition) -> StateVector:
    """Rebuild the state as sum_n sqrt(lambda_n) left_n (x) right_n.

    Renormalized, which restores the weight lost when near-zero
    coefficients were truncated. The sum was formed when dec was made; it
    fills the split (capped when it was made) that SchmidtDecomposition
    checked the vector shapes against, so only the unit norm of the
    renormalized copy is checked and that copy is frozen in place.
    """
    amps = dec._amplitudes
    return _fresh_state(amps / _norm(amps), (dec.split.d_left, dec.split.d_right))


def entanglement_entropy(dec: SchmidtDecomposition) -> float:
    """Von Neumann entropy -sum lambda ln lambda of the coefficients, in nats."""
    value = float(-np.dot(dec.lambdas, np.log(dec.lambdas)))
    return max(value, 0.0) + 0.0  # + 0.0 normalizes -0.0
