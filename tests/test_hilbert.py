import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyworlds import (
    BipartiteSplit,
    CapacityError,
    DegenerateStateError,
    DensityMatrix,
    ShapeError,
    StateVector,
    UnitaryOperator,
    apply_unitary,
    basis_state,
    density_of,
    eig_hermitian,
    haar_random_state,
    haar_random_unitary,
    make_state,
    partial_trace,
    tensor,
)
from manyworlds.experiments import WorldCountConfig
from manyworlds.hilbert import (
    DEGENERACY_GAP,
    DIM_CAP,
    EPS_EIG,
    EPS_NORM,
    EPS_RANK,
    _canonical_cluster_basis,
    _canonical_eigenbasis,
    _degenerate_clusters,
    _fresh_states,
)
from manyworlds.schmidt import DecompositionError, SchmidtDecomposition


def reduced_by_outer_product(psi, d_left, d_right, keep):
    """Independent partial trace: full projector, then axis-summed."""
    full = np.outer(psi.amplitudes, psi.amplitudes.conj())
    full = full.reshape(d_left, d_right, d_left, d_right)
    if keep == "left":
        return np.trace(full, axis1=1, axis2=3)
    return np.trace(full, axis1=0, axis2=2)


class TestMakeState:
    def test_basis_qubit(self):
        psi = make_state([1, 0], [2])
        assert np.allclose(psi.amplitudes, [1, 0])
        assert psi.dims == (2,)

    def test_normalization_forced(self):
        psi = make_state([1, 1], [2])
        assert np.allclose(psi.amplitudes, [1 / math.sqrt(2)] * 2)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < EPS_NORM

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError, match="degenerate"):
            make_state([0, 0], [2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            make_state([1, 0, 0], [2])

    def test_bad_dims_rejected(self):
        with pytest.raises(ShapeError):
            make_state([1], [0])

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            make_state(np.ones(2**15), [2**15])


class TestFreshStates:
    @pytest.mark.parametrize("bad_row", [0, 3, 6])
    @pytest.mark.parametrize("factor", [1 + 2e-12, 1 - 2e-12])
    def test_any_row_off_unit_norm_rejected(self, bad_row, factor):
        rows = np.eye(7, 14, dtype=np.complex128)
        rows[bad_row] *= factor
        with pytest.raises(DegenerateStateError):
            _fresh_states(rows, (7, 2))

    def test_rows_become_read_only_views(self):
        rows = np.eye(3, 6, dtype=np.complex128)
        states = _fresh_states(rows, (3, 2))
        assert [s.dims for s in states] == [(3, 2)] * 3
        assert all(np.shares_memory(s.amplitudes, rows) for s in states)
        assert not any(s.amplitudes.flags.writeable for s in states)


NAN, INF = math.nan, math.inf
COLUMN = np.eye(2)[:, :1]
NON_FINITE_INPUTS = {
    "make_state-nan": (lambda: make_state([NAN, 1], [2]), DegenerateStateError),
    "make_state-inf": (lambda: make_state([INF, 1], [2]), DegenerateStateError),
    "make_state-complex-nan": (lambda: make_state([complex(1, NAN), 1], [2]),
                               DegenerateStateError),
    "StateVector-nan": (lambda: StateVector(np.array([NAN, 1]), (2,)), DegenerateStateError),
    "StateVector-inf": (lambda: StateVector(np.array([INF, 0]), (2,)), DegenerateStateError),
    "fresh_states-nan": (lambda: _fresh_states(np.array([[1, 0], [NAN, 0]], complex), (2,)),
                         DegenerateStateError),
    "UnitaryOperator-nan": (lambda: UnitaryOperator(np.array([[NAN]]), 2), ShapeError),
    "UnitaryOperator-inf": (lambda: UnitaryOperator(np.array([[INF]]), 2), ShapeError),
    "UnitaryOperator-nan-entry": (lambda: UnitaryOperator(np.array([[1, 0], [0, NAN]]), 2),
                                  ShapeError),
    "DensityMatrix-nan": (lambda: DensityMatrix(np.array([[NAN]]), 1), ShapeError),
    "DensityMatrix-inf": (lambda: DensityMatrix(np.array([[INF]]), 1), ShapeError),
    "DensityMatrix-nan-offdiag": (
        lambda: DensityMatrix(np.array([[1, NAN], [NAN, 0]]), 2), ShapeError),
    "BipartiteSplit-nan": (lambda: BipartiteSplit(NAN, 2), ShapeError),
    "BipartiteSplit-inf": (lambda: BipartiteSplit(2, INF), CapacityError),
    "SchmidtDecomposition-nan-lambda": (
        lambda: SchmidtDecomposition(np.array([NAN]), COLUMN, COLUMN, 1, BipartiteSplit(2, 2)),
        DecompositionError),
    "SchmidtDecomposition-inf-lambda": (
        lambda: SchmidtDecomposition(np.array([INF]), COLUMN, COLUMN, 1, BipartiteSplit(2, 2)),
        DecompositionError),
    "SchmidtDecomposition-nan-vector": (
        lambda: SchmidtDecomposition(np.array([1.0]), np.array([[NAN], [0]]), COLUMN, 1,
                                     BipartiteSplit(2, 2)),
        DecompositionError),
    "SchmidtDecomposition-inf-vector": (
        lambda: SchmidtDecomposition(np.array([1.0]), COLUMN, np.array([[INF], [0]]), 1,
                                     BipartiteSplit(2, 2)),
        DecompositionError),
    "WorldCountConfig-nan": (lambda: WorldCountConfig(universe_age_s=NAN), ValueError),
    "WorldCountConfig-inf-age": (lambda: WorldCountConfig(universe_age_s=INF), ValueError),
    "WorldCountConfig-inf-time": (lambda: WorldCountConfig(planck_time_s=INF), ValueError),
}


class TestNonFiniteInput:
    """Every validating constructor refuses NaN and inf with its documented error.

    A tolerance check written `dev > eps` lets a NaN deviation through; the
    checks are written `not dev <= eps` instead.
    """

    @pytest.mark.parametrize("case", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
    def test_refused(self, case):
        build, error = case
        with pytest.raises(error):
            build()


class TestTensor:
    @pytest.mark.parametrize("d_a,d_b", [(1, 1), (1, 3), (2, 5), (7, 4), (64, 64)])
    def test_equals_kron_bit_for_bit(self, d_a, d_b):
        a, b = haar_random_state(d_a, d_a), haar_random_state(d_b, 7 + d_b)
        prod = tensor(a, b)
        assert prod.amplitudes.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()
        assert not prod.amplitudes.flags.writeable

    def test_cap_checked_before_the_product(self):
        big = haar_random_state(2**7, 0)
        with pytest.raises(CapacityError):
            tensor(big, tensor(big, basis_state(0, 2)))

    def test_basis_product(self):
        prod = tensor(basis_state(0, 2), basis_state(1, 2))
        assert np.allclose(prod.amplitudes, [0, 1, 0, 0])
        assert prod.dims == (2, 2)

    def test_distributes_over_superposition(self):
        plus = make_state([1, 1], [2])
        prod = tensor(plus, basis_state(0, 2))
        assert np.allclose(prod.amplitudes, [1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_norm_multiplicative(self, seed):
        a = haar_random_state(5, seed)
        b = haar_random_state(7, seed + 1000)
        assert abs(np.linalg.norm(tensor(a, b).amplitudes) - 1.0) < EPS_NORM


class TestApplyUnitary:
    def test_identity(self):
        psi = haar_random_state(6, 42)
        out = apply_unitary(UnitaryOperator(np.eye(6), 6), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_cnot_truth_table(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        u = UnitaryOperator(cnot, 4)
        ten = tensor(basis_state(1, 2), basis_state(0, 2))  # |10>
        out = apply_unitary(u, ten)
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    @pytest.mark.parametrize("seed", range(100))
    def test_norm_preserved_for_haar_unitaries(self, seed):
        dim = 3 + seed % 14
        u = haar_random_unitary(dim, seed)
        psi = haar_random_state(dim, seed + 7)
        out = apply_unitary(u, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < EPS_NORM

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            apply_unitary(UnitaryOperator(np.eye(3), 3), basis_state(0, 2))

    def test_non_unitary_rejected(self):
        with pytest.raises(ShapeError, match="unitary"):
            UnitaryOperator(np.ones((2, 2)), 2)

    @pytest.mark.parametrize("perm", [[0, 1, 1, 3], [0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2]])
    def test_malformed_gather_rejected(self, perm):
        with pytest.raises(ShapeError):
            UnitaryOperator(np.eye(1), 4, perm=perm)

    def test_factor_must_divide_dim(self):
        with pytest.raises(ShapeError, match="divide"):
            UnitaryOperator(np.eye(4), 6)


class TestDensityOf:
    def test_ground_projector(self):
        rho = density_of(basis_state(0, 2))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_plus_projector(self):
        rho = density_of(make_state([1, 1], [2]))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_purity(self, seed):
        rho = density_of(haar_random_state(9, seed))
        assert abs(np.trace(rho.entries @ rho.entries).real - 1.0) < 1e-10

    def test_idempotent(self):
        rho = density_of(haar_random_state(12, 31))
        assert np.max(np.abs(rho.entries @ rho.entries - rho.entries)) < 1e-10


class TestPartialTrace:
    def test_product_state_left(self):
        psi = tensor(basis_state(0, 2), basis_state(1, 2))
        rho = partial_trace(psi, BipartiteSplit(2, 2), "left")
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_bell_state_both_sides(self):
        bell = make_state([1, 0, 0, 1], [2, 2])
        for side in ("left", "right"):
            rho = partial_trace(bell, BipartiteSplit(2, 2), side)
            assert np.allclose(rho.entries, 0.5 * np.eye(2), atol=1e-12)

    def test_trace_one(self):
        psi = haar_random_state(24, 5)
        rho = partial_trace(psi, BipartiteSplit(4, 6), "right")
        assert abs(np.trace(rho.entries).real - 1.0) < EPS_NORM

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_outer_product_trace(self, seed):
        psi = haar_random_state(24, seed)
        for side in ("left", "right"):
            got = partial_trace(psi, BipartiteSplit(4, 6), side).entries
            want = reduced_by_outer_product(psi, 4, 6, side)
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_spectra_coincide_across_sides(self, seed):
        psi = haar_random_state(24, seed)
        w_left = np.linalg.eigvalsh(partial_trace(psi, BipartiteSplit(4, 6), "left").entries)
        w_right = np.linalg.eigvalsh(partial_trace(psi, BipartiteSplit(4, 6), "right").entries)
        nz_left = np.sort(w_left[w_left > EPS_RANK])[::-1]
        nz_right = np.sort(w_right[w_right > EPS_RANK])[::-1]
        assert nz_left.size == nz_right.size
        assert np.max(np.abs(nz_left - nz_right)) < 1e-10

    def test_inconsistent_split(self):
        with pytest.raises(ShapeError):
            partial_trace(haar_random_state(6, 0), BipartiteSplit(4, 2), "left")

    def test_split_above_the_cap_is_refused(self):
        # reconstruct builds a state on a decomposition's split without
        # re-checking its dims, so the split itself must respect the cap
        BipartiteSplit(2, DIM_CAP // 2)
        with pytest.raises(CapacityError):
            BipartiteSplit(2, DIM_CAP // 2 + 1)


class TestEigHermitian:
    def test_maximally_mixed(self):
        rho = DensityMatrix(0.5 * np.eye(2), 2)
        values, vectors = eig_hermitian(rho)
        assert np.allclose(values, [0.5, 0.5])
        # degenerate cluster falls back to the standard basis, in order
        assert np.allclose(vectors, np.eye(2))

    def test_diagonal_spectrum(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]), 2)
        values, vectors = eig_hermitian(rho)
        assert np.allclose(values, [0.7, 0.3])
        assert np.allclose(np.abs(vectors), np.eye(2))

    @pytest.mark.parametrize("seed", range(50))
    def test_residual_is_small(self, seed):
        psi = haar_random_state(36, seed)
        rho = partial_trace(psi, BipartiteSplit(6, 6), "left")
        values, vectors = eig_hermitian(rho)
        residual = rho.entries @ vectors - vectors * values
        assert np.max(np.linalg.norm(residual, axis=0)) < EPS_EIG

    @pytest.mark.parametrize("seed", range(20))
    def test_descending_and_orthonormal(self, seed):
        psi = haar_random_state(16, seed)
        rho = partial_trace(psi, BipartiteSplit(4, 4), "left")
        values, vectors = eig_hermitian(rho)
        assert np.all(np.diff(values) <= 0)
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(4))) < EPS_EIG

    def test_phase_convention(self):
        psi = haar_random_state(15, 11)
        rho = partial_trace(psi, BipartiteSplit(3, 5), "left")
        _, vectors = eig_hermitian(rho)
        for col in vectors.T:
            pivot = col[np.abs(col) > 1e-9][0]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    def test_deterministic_on_repeat(self):
        rho = partial_trace(haar_random_state(16, 3), BipartiteSplit(4, 4), "left")
        first = eig_hermitian(rho)
        second = eig_hermitian(rho)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_non_hermitian_rejected(self):
        with pytest.raises(ShapeError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), 2)


class TestHaarRandomState:
    def test_dim_one_has_unit_modulus(self):
        psi = haar_random_state(1, 99)
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12

    def test_same_seed_bit_identical(self):
        a = haar_random_state(8, 2**63 + 17)
        b = haar_random_state(8, 2**63 + 17)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_different_seeds_differ(self):
        a = haar_random_state(8, 1)
        b = haar_random_state(8, 2)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeError):
            haar_random_state(0, 1)

    def test_ground_overlap_mean_is_one_over_dim(self):
        # squared overlap with |0> follows Beta(1, dim-1): mean 1/2, var 1/12
        n = 100_000
        samples = np.array(
            [abs(haar_random_state(2, s).amplitudes[0]) ** 2 for s in range(n)]
        )
        tolerance = 5 * math.sqrt(1 / 12 / n)
        assert abs(samples.mean() - 0.5) < tolerance


class TestInvariantSweep:
    def test_spectra_coincidence_small_sweep(self):
        # the full 1000-state sweep runs in the acceptance suite
        splits = [(2, 2), (2, 8), (4, 4), (4, 6), (8, 8)]
        for seed in range(40):
            d_left, d_right = splits[seed % len(splits)]
            psi = haar_random_state(d_left * d_right, seed)
            left = np.linalg.eigvalsh(
                partial_trace(psi, BipartiteSplit(d_left, d_right), "left").entries
            )[::-1]
            right = np.linalg.eigvalsh(
                partial_trace(psi, BipartiteSplit(d_left, d_right), "right").entries
            )[::-1]
            n = min(left.size, right.size)
            assert np.max(np.abs(left[:n] - right[:n])) < 1e-10
            assert int(np.sum(left > EPS_RANK)) == int(np.sum(right > EPS_RANK))


# Oracles: the per-column forms that _canonical_eigenbasis replaced. The
# bulk rewrite must match them bit for bit, signed zeros included.

def degenerate_clusters_oracle(descending):
    """Every cluster [lo, hi), singletons included, by a walk over the gaps."""
    n = descending.size
    lo = 0
    for i in range(1, n + 1):
        if i == n or descending[i - 1] - descending[i] >= DEGENERACY_GAP:
            yield lo, i
            lo = i


def fix_global_phase_oracle(vec):
    significant = np.flatnonzero(np.abs(vec) > 1e-9)
    if significant.size == 0:
        return vec
    pivot = vec[significant[0]]
    return vec * (pivot.conjugate() / abs(pivot))


def canonical_eigenbasis_oracle(values, vectors):
    vectors = vectors.copy()
    for lo, hi in degenerate_clusters_oracle(values):
        if hi - lo > 1:
            vectors[:, lo:hi] = _canonical_cluster_basis(vectors[:, lo:hi])
    for col in range(vectors.shape[1]):
        vectors[:, col] = fix_global_phase_oracle(vectors[:, col])
    return vectors


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


PARTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9, 1.0000000000000002e-9]),
    st.floats(-7e-10, 7e-10),  # below the 1e-9 pivot threshold, subnormals included
)
TINY = st.floats(-7e-10, 7e-10)  # |re + i im| < 1e-9


@st.composite
def phase_columns(draw):
    """Columns of every kind: generic, with exact zeros, and entirely below 1e-9."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    cols = []
    for _ in range(k):
        kind = draw(st.sampled_from(["generic", "zeros-first", "tiny"]))
        parts = TINY if kind == "tiny" else PARTS
        col = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
        if kind == "zeros-first":
            col[:draw(st.integers(0, n))] = 0.0
        cols.append(col)
    return np.column_stack(cols)


GAPS = st.sampled_from([0.0, 1e-12, 5e-10, 0.999e-9, DEGENERACY_GAP, 1.001e-9, 1e-3, 0.25])


@st.composite
def clustered_bases(draw):
    """Orthonormal columns with descending values whose gaps straddle DEGENERACY_GAP."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    values = 1.0 - np.cumsum([0.0] + [draw(GAPS) for _ in range(k - 1)])
    return values, q[:, :k]


class TestBulkCanonicalization:
    @settings(max_examples=300, deadline=None)
    @given(vectors=phase_columns())
    def test_phase_pass_matches_per_column_oracle(self, vectors):
        values = np.arange(vectors.shape[1], 0, -1, dtype=float)  # no clusters
        expected = canonical_eigenbasis_oracle(values, vectors)
        assert same_bits(_canonical_eigenbasis(values, vectors), expected)

    @settings(max_examples=200, deadline=None)
    @given(case=clustered_bases())
    def test_clusters_match_per_column_oracle(self, case):
        values, vectors = case
        expected = canonical_eigenbasis_oracle(values, vectors)
        assert same_bits(_canonical_eigenbasis(values, vectors), expected)

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(GAPS, max_size=12))
    def test_cluster_ranges_match_gap_walk(self, gaps):
        values = 1.0 - np.cumsum([0.0, *gaps])[: len(gaps) + (1 if gaps else 0)]
        values = values if gaps else np.array([])
        expected = [(lo, hi) for lo, hi in degenerate_clusters_oracle(values) if hi - lo > 1]
        assert _degenerate_clusters(values) == expected

    def test_input_is_not_modified(self):
        vectors = np.array([[1j, 0.0], [0.0, -1.0]])
        before = vectors.copy()
        _canonical_eigenbasis(np.array([0.6, 0.4]), vectors)
        assert same_bits(vectors, before)
