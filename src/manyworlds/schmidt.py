"""Bi-orthogonal (Schmidt) decomposition of bipartite pure states.

The decomposition diagonalizes both reduced density matrices at once and is
the preferred basis along which worlds split: rank one means the state
factorizes, rank above one means it has defactorized into branches. It is
read off one thin singular value decomposition of the d_left x d_right
amplitude matrix, so no reduced density matrix is ever formed.
"""

import sys
from typing import NamedTuple

import numpy as np

from .contracts import DecompositionError, Frozen, _check_index
from .hilbert import (
    EPS_EIG,
    BipartiteSplit,
    StateVector,
    _canonical_eigenbasis,
    _fresh_state,
    _gram_deviation,
    _norm,
    haar_random_state,
)


class SchmidtDecomposition(Frozen, eq=False):
    """Descending coefficients with paired orthonormal subsystem vectors.

    ``left_vectors`` and ``right_vectors`` hold one column per retained
    coefficient. Every retained coefficient is positive; schmidt_decompose
    drops those below its SVD's resolution. The constructor copies caller
    input and checks it; the arrays are read-only. The amplitudes
    sum_n sqrt(lambda_n) left_n (x) right_n are formed once, when the
    decomposition is made, and serve both the residual check of
    schmidt_decompose and reconstruct.
    """

    _fields = ("lambdas", "left_vectors", "right_vectors", "split")
    __slots__ = (*_fields, "_amplitudes")
    lambdas: np.ndarray       # descending, each in (0, 1]
    left_vectors: np.ndarray  # (d_left, rank), orthonormal columns
    right_vectors: np.ndarray # (d_right, rank), orthonormal columns
    split: BipartiteSplit

    def __init__(self, lambdas, left_vectors, right_vectors, split: BipartiteSplit):
        with np.errstate(invalid="ignore"):  # an inf entry makes a deviation NaN, refused
            self._build(np.array(lambdas, dtype=np.float64),
                        np.array(left_vectors, dtype=np.complex128),
                        np.array(right_vectors, dtype=np.complex128), split)

    def _build(self, lam: np.ndarray, left: np.ndarray, right: np.ndarray,
               split: BipartiteSplit) -> "SchmidtDecomposition":
        """Check the arrays, form the reconstruction, freeze all four in place and set them.

        Every check on a decomposition is here; a NaN fails each one it reaches.
        """
        rank, max_rank = lam.size, min(split.d_left, split.d_right)
        if lam.ndim != 1 or not 1 <= rank <= max_rank:
            raise DecompositionError(f"{lam.shape} coefficients: rank not in [1, {max_rank}]")
        values = lam.tolist()  # at most 128 entries; plain floats beat array temporaries when few
        if any(later > earlier for earlier, later in zip(values, values[1:])):
            raise DecompositionError("coefficients must be sorted descending")
        if any(value <= 0.0 for value in values):
            raise DecompositionError("retained coefficients must be positive")
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
        amps = _reconstruction_amplitudes(lam, left, right)
        for arr in (lam, left, right, amps):
            arr.flags.writeable = False
        return self._set(lam, left, right, split, amps)

    @property
    def rank(self) -> int:
        return self.lambdas.size


def _fresh_decomposition(lam: np.ndarray, left: np.ndarray, right: np.ndarray,
                         split: BipartiteSplit) -> SchmidtDecomposition:
    """SchmidtDecomposition around arrays that schmidt_decompose has just computed.

    The constructor's builder runs on them: the same checks, and they are
    frozen in place rather than copied. No errstate is entered: the SVD of
    a unit-norm vector is finite, and so are the canonical left vectors
    (each divided by a pivot modulus above 1e-9) and the right vectors (the
    SVD's right factor times a matrix of such products), so no inf can
    reach a Gram matrix.
    """
    return object.__new__(SchmidtDecomposition)._build(lam, left, right, split)


def _reconstruction_amplitudes(lam: np.ndarray, left: np.ndarray,
                               right: np.ndarray) -> np.ndarray:
    return ((left * np.sqrt(lam)) @ right.T).reshape(-1)


def schmidt_decompose(psi: StateVector, split: BipartiteSplit) -> SchmidtDecomposition:
    """Decompose a pure state across a bipartite split.

    Takes one thin SVD m = u s vh of the amplitude matrix, and reads both
    bases off it. The coefficients are the squared singular values above
    the SVD's resolution cut = s[0] * max(d_left, d_right) * eps, so no null
    space is ever computed. The kept left vectors follow the package's
    eigenbasis convention (see eig_hermitian), with degenerate clusters
    formed among the kept singular values by gaps below 16 * cut. Each right
    vector is the SVD's right factor turned by the same change of basis,
    so every pair is phase-consistent and nothing is divided. The
    reconstruction is verified against the input before returning.
    """
    split.require_match(psi)
    m = psi.amplitudes.reshape(split.d_left, split.d_right)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = s[0].item() * max(m.shape) * sys.float_info.epsilon
    rank = sum(value > cut for value in s.tolist())  # a prefix: s is descending
    left = _canonical_eigenbasis(s[:rank], u[:, :rank], 16 * cut)
    right = vh[:rank].T @ (u[:, :rank].conj().T @ left).conj()
    dec = _fresh_decomposition((s**2)[:rank], left, right, split)
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
    and returns the max gap between its full descending spectrum and
    `dec.lambdas`: each coefficient meets its own eigenvalue, however small,
    and each eigenvalue past dec's rank (rounding of either sign; dec's rank
    never exceeds the spectrum's length) meets zero. For dec of psi itself
    the gap stays within a few eps * min(d_left, d_right). The reduced
    matrix is formed straight from amplitudes that StateVector has checked,
    so it is Hermitian with unit trace by construction; a DensityMatrix
    would re-check its positivity with a second eigensolve of the very
    spectrum compared here.
    """
    dec.split.require_match(psi)
    m = psi.amplitudes.reshape(dec.split.d_left, dec.split.d_right)
    reduced = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.T @ m.conj()
    eigen = np.linalg.eigvalsh(reduced).tolist()[::-1]
    lambdas = dec.lambdas.tolist()
    return max(0.0, *(abs(e - l) for e, l in zip(eigen, lambdas)),
               *map(abs, eigen[len(lambdas):]))


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
    # a product state's one lambda can read 1 - 2**-52; its entropy is exactly zero
    value = float(-np.dot(dec.lambdas, np.log(dec.lambdas))) if dec.rank > 1 else 0.0
    return max(value, 0.0) + 0.0  # + 0.0 normalizes -0.0


class SchmidtReport(NamedTuple):
    """Decomposition diagnostics of one seeded random bipartite state."""

    d_left: int
    d_right: int
    seed: int
    rank: int
    lambdas: tuple[float, ...]
    entanglement_entropy: float
    spectra_gap: float
    reconstruction_error: float


def random_state_report(d_left: int, d_right: int, seed: int) -> SchmidtReport:
    """Decompose the seed's uniformly random state on a d_left x d_right split.

    Reports the coefficients, their entropy, `spectra_gap` and the distance
    of the reconstruction from the state, with the integers the split and
    the seed reader returned.
    """
    split = BipartiteSplit(d_left, d_right)
    seed = _check_index(seed, "seed")
    psi = haar_random_state(split.total, seed)
    dec = schmidt_decompose(psi, split)
    return SchmidtReport(
        d_left=split.d_left,
        d_right=split.d_right,
        seed=seed,
        rank=dec.rank,
        lambdas=tuple(dec.lambdas.tolist()),
        entanglement_entropy=entanglement_entropy(dec),
        spectra_gap=spectra_gap(psi, dec),
        reconstruction_error=float(_norm(reconstruct(dec).amplitudes - psi.amplitudes)),
    )
