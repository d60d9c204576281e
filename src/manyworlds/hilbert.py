"""Finite-dimensional quantum state and operator arithmetic.

State vectors are dense amplitude arrays that carry an explicit list of
subsystem dimensions over a tensor-product basis. Unitaries are stored as a
small factor on the leading register plus an optional basis-index gather, so
a coupling of the whole space costs O(dim) memory, not O(dim^2). All values
are immutable after construction and all operations are pure functions, so
they are safe to share across workers.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .contracts import Frozen, ShapeError, _check_dims, _check_index
from .rng import gaussian_amplitudes

# Numerical tolerances, fixed once for the whole package.
EPS_NORM = 1e-12    # allowed deviation from unit norm
EPS_HERM = 1e-12    # allowed Hermiticity / trace deviation
EPS_EIG = 1e-10     # eigensolve residual and orthonormality tolerance
EPS_RANK = 1e-10    # DensityMatrix's positivity tolerance on its least eigenvalue

# Eigenvalues closer than this are treated as one degenerate cluster and get
# a deterministic basis; see eig_hermitian.
DEGENERACY_GAP = 1e-9

Side = Literal["left", "right"]


class DegenerateStateError(ValueError):
    """A zero (or numerically zero) vector cannot represent a state."""


def _checked_amplitudes(values, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """Caller amplitudes as a complex 1-d array that fills checked dims."""
    amps = np.asarray(values, dtype=np.complex128)
    if amps.ndim != 1:
        raise ShapeError(f"expected a 1-d amplitude sequence, got shape {amps.shape}")
    dims = _check_dims(dims)
    if amps.size != math.prod(dims):
        raise ShapeError(f"{amps.size} amplitudes do not fill subsystems of dims {dims}")
    return amps, dims


class StateVector(Frozen, eq=False):
    """Normalized complex amplitudes over a composite tensor-product basis."""

    __slots__ = _fields = ("amplitudes", "dims")
    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims):
        amps, dims = _checked_amplitudes(amplitudes, dims)
        self._build(amps.copy(), dims)

    def _build(self, amps: np.ndarray, dims: tuple[int, ...]) -> StateVector:
        """Check the unit norm, freeze `amps` in place and set the fields."""
        _check_unit_norm(_norm(amps))
        amps.flags.writeable = False
        return self._set(amps, dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amplitudes.size


def _norm(amps: np.ndarray):
    """np.linalg.norm of a contiguous complex vector, bit for bit, without its dispatch.

    This is numpy's own formula for that case. Where the sum of squares
    can overflow, the caller enters np.errstate itself.
    """
    re, im = amps.real, amps.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def _column_norms(mat: np.ndarray) -> np.ndarray:
    """np.linalg.norm(mat, axis=0) of a complex matrix, bit for bit: numpy's own formula."""
    return np.sqrt(np.add.reduce((mat.conj() * mat).real, axis=0))


def _check_unit_norm(norm) -> None:
    if not abs(norm - 1.0) <= EPS_NORM:  # also refuses a NaN norm
        raise DegenerateStateError(
            f"state norm {float(norm)!r} deviates from 1 by more than {EPS_NORM}"
        )


def _fresh_state(amps: np.ndarray, dims: tuple[int, ...]) -> StateVector:
    """StateVector around an amplitude vector this package has just computed.

    The caller has already run _check_dims on `dims` and made `amps` a
    complex vector that fills them, so only the unit norm is checked. `amps`
    is frozen in place rather than copied.
    """
    return object.__new__(StateVector)._build(amps, dims)


class DensityMatrix(Frozen, eq=False):
    """Hermitian, trace-one, positive-semidefinite matrix."""

    __slots__ = _fields = ("entries", "dim")
    entries: np.ndarray
    dim: int

    def __init__(self, entries, dim):
        self._set(entries, dim)
        self.__post_init__()

    def __post_init__(self):  # its own method: bench/tracing.py wraps it per construction
        mat = np.array(self.entries, dtype=np.complex128)  # a copy, frozen below
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {mat.shape}")
        dim = _check_index(self.dim, "declared dim")
        if mat.shape[0] != dim:
            raise ShapeError(f"declared dim {self.dim} != matrix size {mat.shape[0]}")
        with np.errstate(invalid="ignore"):  # an inf entry makes it NaN, refused below
            herm_dev = np.max(np.abs(mat - mat.conj().T))
        if not herm_dev <= EPS_HERM:
            raise ShapeError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        trace_dev = abs(np.trace(mat).real - 1.0)
        if not trace_dev <= EPS_HERM:
            raise ShapeError(f"trace deviates from 1 by {trace_dev:.3e}")
        smallest = float(np.linalg.eigvalsh(mat)[0])
        if not smallest >= -EPS_RANK:
            raise ShapeError(f"matrix not positive semidefinite (min eig {smallest:.3e})")
        mat.flags.writeable = False
        self._set(mat, dim)


class BipartiteSplit(Frozen):
    """Division of a composite space into a left and a right factor."""

    __slots__ = _fields = ("d_left", "d_right")
    d_left: int
    d_right: int

    def __init__(self, d_left: int, d_right: int):
        self._set(*_check_dims((d_left, d_right)))

    @property
    def total(self) -> int:
        return self.d_left * self.d_right

    def require_match(self, psi: StateVector) -> None:
        if self.total != psi.dim:
            raise ShapeError(
                f"split {self.d_left}x{self.d_right} does not factor a "
                f"{psi.dim}-dimensional state"
            )


class UnitaryOperator(Frozen, eq=False):
    """Unitary U = kron(L, I_{dim/k}) P on a dim-dimensional space.

    `entries` is the k x k unitary factor L acting on the leading k-dimensional
    factor of the basis (k must divide dim); `perm`, when given, is the basis
    index gather P with (P a)[i] = a[perm[i]], so U is never stored as a dim x
    dim matrix. A dense operator is k = dim without a gather; a permutation is
    k = 1 with one. U†U = I is checked within EPS_EIG (max-entry deviation) on
    L alone, and `perm` must have an integer dtype (a float gather is refused,
    not truncated) and hold every index of range(dim) exactly once.
    Both arrays are copied, whoever made them, and kept read-only.
    """

    __slots__ = _fields = ("entries", "dim", "perm")
    entries: np.ndarray
    dim: int
    perm: np.ndarray | None

    def __init__(self, entries, dim, perm=None):
        self._set(entries, dim, perm)
        self.__post_init__()

    def __post_init__(self):  # its own method: bench/tracing.py wraps it per construction
        mat = np.array(self.entries, dtype=np.complex128)  # a copy, frozen below
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"unitary factor must be square, got shape {mat.shape}")
        k, dim = mat.shape[0], _check_index(self.dim, "declared dim")
        if k < 1 or dim < 1 or dim % k:
            raise ShapeError(f"factor size {k} does not divide declared dim {dim}")
        with np.errstate(invalid="ignore"):  # an inf entry makes it NaN, refused below
            dev = _gram_deviation(mat)
        if not dev <= EPS_EIG:
            raise ShapeError(f"operator is not unitary (max |U†U - I| = {dev:.3e})")
        mat.flags.writeable = False
        perm = self.perm
        if perm is not None:
            perm = np.array(perm)  # a copy, frozen below
            if perm.dtype.kind not in "iu":  # never truncated, as declared dims are not
                raise ShapeError(f"gather must hold integers, got dtype {perm.dtype}")
            perm = perm.astype(np.intp, copy=False)
            if perm.shape != (dim,):
                raise ShapeError(f"gather of shape {perm.shape} does not fit dim {dim}")
            if perm.min() < 0 or perm.max() >= dim or not (
                np.bincount(perm, minlength=dim) == 1
            ).all():
                raise ShapeError("gather must hold every basis index exactly once")
            perm.flags.writeable = False
        self._set(mat, dim, perm)


def _gram_deviation(mat: np.ndarray):
    """Max-entry deviation of mat†mat from the identity; no identity matrix is formed."""
    gram = mat.conj().T @ mat
    gram.reshape(-1)[:: gram.shape[0] + 1] -= 1.0
    return np.abs(gram).max()


def make_state(amplitudes, dims) -> StateVector:
    """Normalize raw amplitudes into a StateVector with the given dims.

    Raises DegenerateStateError for a zero or non-finite norm and ShapeError
    when the amplitude count does not match the product of dims. A finite
    vector whose norm under- or overflows is scaled by its largest part first.
    """
    amps, dims = _checked_amplitudes(amplitudes, dims)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rescaled below
        norm = _norm(amps)
    if not 0.0 < norm < math.inf and np.isfinite(amps).all() and amps.any():
        # real divisions: unlike a modulus or a complex division, none overflows
        scale = np.maximum(np.abs(amps.real), np.abs(amps.imag)).max()
        amps = amps.real / scale + 1j * (amps.imag / scale)
        norm = _norm(amps)
    return _normalized_state(amps, norm, dims)


def _normalized_state(amps: np.ndarray, norm, dims: tuple[int, ...]) -> StateVector:
    """_fresh_state of amps / norm, for a complex vector that fills checked dims."""
    if not 0.0 < norm < math.inf:
        raise DegenerateStateError(f"degenerate state: amplitude norm {norm}")
    return _fresh_state(amps / norm, dims)


def basis_state(index: int, dim: int) -> StateVector:
    """Computational basis vector |index> of the given dimension."""
    (dim,) = _check_dims((dim,))
    index = _check_index(index, "basis index")
    if not 0 <= index < dim:
        raise ShapeError(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return _fresh_state(amps, (dim,))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; dims are concatenated, norm is preserved."""
    dims = _check_dims(a.dims + b.dims)  # enforces the dimension cap early
    return _fresh_state(np.outer(a.amplitudes, b.amplitudes).reshape(-1), dims)


def apply_unitary(u: UnitaryOperator, psi: StateVector) -> StateVector:
    """Return U|psi>: gather, then apply L to the leading register; re-checks the norm."""
    if u.dim != psi.dim:
        raise ShapeError(f"operator dim {u.dim} != state dim {psi.dim}")
    amps = psi.amplitudes if u.perm is None else psi.amplitudes[u.perm]
    k = u.entries.shape[0]
    return _fresh_state((u.entries @ amps.reshape(k, -1)).reshape(-1), psi.dims)


def partial_trace(psi: StateVector, split: BipartiteSplit, keep: Side) -> DensityMatrix:
    """Reduced density matrix of one side of a pure bipartite state.

    keep="left" traces out the right factor and vice versa. The split must
    factor the state's total dimension exactly.
    """
    split.require_match(psi)
    m = psi.amplitudes.reshape(split.d_left, split.d_right)
    if keep == "left":
        reduced = m @ m.conj().T
        dim = split.d_left
    elif keep == "right":
        reduced = m.T @ m.conj()
        dim = split.d_right
    else:
        raise ShapeError(f"keep must be 'left' or 'right', got {keep!r}")
    return DensityMatrix(reduced, dim)


def eig_hermitian(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and deterministically canonicalized eigenvectors.

    The eigenvectors follow the package's eigenbasis convention; see
    _canonical_eigenbasis. Identical inputs therefore always produce
    identical outputs.
    """
    values, vectors = np.linalg.eigh(rho.entries)
    values = values[::-1].copy()
    return values, _canonical_eigenbasis(values, vectors[:, ::-1], DEGENERACY_GAP)


def _canonical_eigenbasis(values: np.ndarray, vectors: np.ndarray, gap: float) -> np.ndarray:
    """The package's eigenbasis convention, applied to orthonormal columns.

    `vectors` holds one column per entry of the descending `values`.
    Within a degenerate cluster of those values (linked by gaps below `gap`,
    which each caller states: eig_hermitian passes DEGENERACY_GAP, schmidt a
    multiple of its SVD's resolution) the basis is rebuilt by Gram-Schmidt
    over the cluster projector's columns in standard basis order. Then every
    column's global phase is fixed, all columns in one pass, so its first
    component of modulus above 1e-9 is real positive: the column is
    multiplied by conj(p) / |p| for that pivot p, with |p| taken as
    hypot(Re p, Im p), which is how Python's abs of a complex scalar rounds
    (numpy's array abs rounds differently in the last bit). A column with no
    such component is left as it is. Clusters are formed only from the
    values given.
    """
    vectors = vectors.copy()
    for lo, hi in _degenerate_clusters(values, gap):
        vectors[:, lo:hi] = _canonical_cluster_basis(vectors[:, lo:hi])
    significant = np.abs(vectors) > 1e-9
    rows = significant.argmax(axis=0)  # first significant row, or 0 if there is none
    cols = np.arange(vectors.shape[1])
    has_pivot = significant[rows, cols]
    # unit columns always have a pivot; then all are scaled through a view
    picked = slice(None) if has_pivot.all() else cols[has_pivot]
    pivots = vectors[rows[picked], cols[picked]]
    factors = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    # each factor broadcast down its column, as in `column * factor`: a
    # (1, 1) product with the factors along the last axis rounds differently
    vectors[:, picked] = (vectors[:, picked].T * factors[:, None]).T
    return vectors


def _degenerate_clusters(descending: np.ndarray, gap: float) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of two or more descending values linked by gaps < `gap`."""
    values = descending.tolist()
    # later - earlier is minus the gap exactly (np.diff's formula)
    linked = [later - earlier > -gap for earlier, later in zip(values, values[1:])]
    if not any(linked):
        return []
    edges = [0, *(i + 1 for i, link in enumerate(linked) if not link), len(values)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi - lo > 1]


def _canonical_cluster_basis(vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the subspace spanned by `vectors`.

    Projects the standard basis vectors onto the subspace in index order and
    keeps the Gram-Schmidt survivors. The result depends only on the
    subspace, not on the arbitrary eigenbasis the eigensolver returned.
    The projection of basis vector j is `vectors @ coords[j]`, and since the
    columns are orthonormal, norms and overlaps can be taken on the k
    coordinates alone, so the n x n projector is never formed.
    """
    n, k = vectors.shape
    coords = vectors.conj()
    chosen: list[np.ndarray] = []
    for j in range(n):
        cand = coords[j].copy()
        for u in chosen:
            cand -= u * np.vdot(u, cand)
        nrm = _norm(cand)
        if nrm <= 1e-7:
            continue
        cand /= nrm
        for u in chosen:  # second pass keeps orthogonality near machine precision
            cand -= u * np.vdot(u, cand)
        cand /= _norm(cand)
        chosen.append(cand)
        if len(chosen) == k:
            return vectors @ np.column_stack(chosen)
    raise ShapeError("degenerate cluster basis could not be completed")


def haar_random_state(dim: int, seed: int) -> StateVector:
    """Uniformly random state: 2*dim Gaussians of the seed's PCG64 stream, normalized.

    The same seed always reproduces the same state bit for bit.
    """
    (dim,) = _check_dims((dim,))
    amps = gaussian_amplitudes(seed, dim)
    # finite Gaussian draws, so unlike make_state's input the norm cannot overflow
    return _normalized_state(amps, _norm(amps), (dim,))

