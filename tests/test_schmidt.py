import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyworlds import (
    BipartiteSplit,
    ShapeError,
    basis_state,
    eig_hermitian,
    entanglement_entropy,
    haar_random_state,
    haar_random_unitary,
    make_state,
    partial_trace,
    reconstruct,
    schmidt_decompose,
    spectra_gap,
    tensor,
)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906

# Wide, tall and very tall splits; the last one reaches the dimension cap.
RANDOM_SPLITS = [(4, 6), (6, 4), (64, 2), (1024, 3), (8192, 2)]


def bell_state():
    return make_state([1, 0, 0, 1], [2, 2])


def padded_gap(a, b):
    """Max entrywise gap of two descending spectra, missing entries as zeros."""
    n = max(a.size, b.size)
    return np.max(np.abs(np.pad(a, (0, n - a.size)) - np.pad(b, (0, n - b.size))))


@st.composite
def ranked_matrices(draw):
    """A seed and a d_left x d_right amplitude matrix of Schmidt rank r, up to 16 x 16."""
    d_left, d_right = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rank = draw(st.integers(1, min(d_left, d_right)))
    seed = draw(st.integers(0, 2**32 - 1))
    z = np.random.default_rng(seed).standard_normal((d_left + d_right, rank, 2))
    factors = z[..., 0] + 1j * z[..., 1]
    return seed, factors[:d_left] @ factors[d_left:].T


def phase_distance(a, b):
    """Norm distance between unit vectors minimized over a global phase."""
    overlap = np.vdot(a, b)
    if abs(overlap) == 0.0:
        return math.sqrt(2.0)
    return float(np.linalg.norm(a * (overlap / abs(overlap)) - b))


class TestDecompose:
    def test_product_state(self):
        psi = tensor(basis_state(0, 2), basis_state(0, 2))
        dec = schmidt_decompose(psi, BipartiteSplit(2, 2))
        assert dec.rank == 1
        assert np.allclose(dec.lambdas, [1.0])

    def test_bell_state(self):
        dec = schmidt_decompose(bell_state(), BipartiteSplit(2, 2))
        assert dec.rank == 2
        assert np.allclose(dec.lambdas, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(25))
    def test_random_state_reconstructs(self, seed):
        d_left, d_right = RANDOM_SPLITS[seed % len(RANDOM_SPLITS)]
        psi = haar_random_state(d_left * d_right, seed)
        split = BipartiteSplit(d_left, d_right)
        dec = schmidt_decompose(psi, split)
        assert dec.rank <= min(d_left, d_right)
        rebuilt = reconstruct(dec)
        assert phase_distance(rebuilt.amplitudes, psi.amplitudes) < 1e-10
        # the coefficients are the spectrum of the other side's reduced matrix
        w = np.linalg.eigvalsh(partial_trace(psi, split, "right").entries)[::-1]
        assert np.max(np.abs(dec.lambdas - w[:dec.rank])) < 1e-12

    def test_tall_degenerate_split_follows_eigenbasis_convention(self):
        split = BipartiteSplit(256, 2)
        u = haar_random_unitary(256, 5).entries
        psi = make_state(np.kron(u[:, 0], [1, 0]) + np.kron(u[:, 1], [0, 1]), [256, 2])
        dec = schmidt_decompose(psi, split)
        assert np.allclose(dec.lambdas, [0.5, 0.5], rtol=0.0, atol=1e-12)
        _, vectors = eig_hermitian(partial_trace(psi, split, "left"))
        assert np.max(np.abs(dec.left_vectors - vectors[:, :2])) < 1e-12

    def test_small_coefficients_near_zero_are_kept(self):
        # the two 3e-10 coefficients lie within the degeneracy gap of zero;
        # they form a cluster of their own, apart from the discarded null space
        lambdas = np.array([1 - 6e-10, 3e-10, 3e-10])
        left = haar_random_unitary(4, 21).entries[:, :3]
        right = haar_random_unitary(4, 22).entries[:, :3]
        psi = make_state(((left * np.sqrt(lambdas)) @ right.T).reshape(-1), [4, 4])
        dec = schmidt_decompose(psi, BipartiteSplit(4, 4))
        assert dec.rank == 3
        assert np.max(np.abs(dec.lambdas - lambdas)) < 1e-12

    def test_lambdas_descending_and_sum_to_one(self):
        dec = schmidt_decompose(haar_random_state(32, 7), BipartiteSplit(4, 8))
        assert np.all(np.diff(dec.lambdas) <= 0)
        assert abs(dec.lambdas.sum() - 1.0) < 1e-10

    def test_paired_vectors_orthonormal(self):
        dec = schmidt_decompose(haar_random_state(24, 3), BipartiteSplit(4, 6))
        for mat in (dec.left_vectors, dec.right_vectors):
            gram = mat.conj().T @ mat
            assert np.max(np.abs(gram - np.eye(dec.rank))) < 1e-10

    def test_inconsistent_split_rejected(self):
        with pytest.raises(ShapeError):
            schmidt_decompose(haar_random_state(6, 0), BipartiteSplit(4, 2))


class TestRank:
    def test_product_rank_one(self):
        psi = tensor(basis_state(1, 3), basis_state(0, 2))
        assert schmidt_decompose(psi, BipartiteSplit(3, 2)).rank == 1

    def test_bell_rank_two(self):
        assert schmidt_decompose(bell_state(), BipartiteSplit(2, 2)).rank == 2

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_independent_right_side_eigensolve(self, seed):
        psi = haar_random_state(24, seed)
        split = BipartiteSplit(4, 6)
        rank = schmidt_decompose(psi, split).rank
        w = np.linalg.eigvalsh(partial_trace(psi, split, "right").entries)
        assert rank == int(np.sum(w > 1e-10))

    def test_rank_one_iff_factorized(self):
        # the defactorization detector: rank one exactly when the state is
        # the product of its own Schmidt pair
        for seed in range(10):
            psi = haar_random_state(16, seed)
            dec = schmidt_decompose(psi, BipartiteSplit(4, 4))
            product = np.kron(dec.left_vectors[:, 0], dec.right_vectors[:, 0])
            is_product = phase_distance(product, psi.amplitudes) < 1e-10
            assert (dec.rank == 1) == is_product


class TestSpectraGap:
    def test_bell_gap_zero(self):
        psi = bell_state()
        assert spectra_gap(psi, schmidt_decompose(psi, BipartiteSplit(2, 2))) < 1e-12

    def test_product_gap_zero(self):
        psi = tensor(basis_state(0, 2), basis_state(1, 3))
        assert spectra_gap(psi, schmidt_decompose(psi, BipartiteSplit(2, 3))) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_random_states_small_gap(self, seed):
        d_left, d_right = [(2, 2), (2, 8), (4, 4), (4, 6), (8, 8)][seed % 5]
        psi = haar_random_state(d_left * d_right, seed)
        dec = schmidt_decompose(psi, BipartiteSplit(d_left, d_right))
        assert spectra_gap(psi, dec) < 1e-10

    @pytest.mark.parametrize("d_left,d_right", [(2, 2), (4, 6), (8, 8)])
    def test_other_states_decomposition_shows_a_gap(self, d_left, d_right):
        # the coefficients are compared with psi's own spectrum, so a
        # decomposition of another state on the same split cannot pass
        split = BipartiteSplit(d_left, d_right)
        psi = haar_random_state(split.total, 1)
        phi = haar_random_state(split.total, 2)
        assert spectra_gap(psi, schmidt_decompose(phi, split)) > 1e-3

    def test_mismatched_split_is_shape_error(self):
        dec = schmidt_decompose(bell_state(), BipartiteSplit(2, 2))
        with pytest.raises(ShapeError):
            spectra_gap(haar_random_state(6, 0), dec)

    @pytest.mark.parametrize("d_left,d_right", [(2048, 1), (1, 2048)])
    def test_never_forms_the_larger_reduced_matrix(self, d_left, d_right):
        # the larger reduced matrix alone would take 16 * 2048**2 bytes = 64 MiB
        psi = haar_random_state(d_left * d_right, 1)
        dec = schmidt_decompose(psi, BipartiteSplit(d_left, d_right))
        tracemalloc.start()
        try:
            gap = spectra_gap(psi, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap < 1e-12
        assert peak < 2**20


class TestEntropy:
    def test_product_state_zero(self):
        psi = tensor(basis_state(0, 2), basis_state(0, 2))
        assert entanglement_entropy(schmidt_decompose(psi, BipartiteSplit(2, 2))) == 0.0

    def test_bell_state_ln2(self):
        s = entanglement_entropy(schmidt_decompose(bell_state(), BipartiteSplit(2, 2)))
        assert abs(s - LN2) < 1e-12

    def test_uniform_rank_four_ln4(self):
        # sum_i (1/2) |i>|i> on a 4x6 split
        amps = np.zeros(24, dtype=complex)
        for i in range(4):
            amps[i * 6 + i] = 0.5
        psi = make_state(amps, [4, 6])
        s = entanglement_entropy(schmidt_decompose(psi, BipartiteSplit(4, 6)))
        assert abs(s - LN4) < 1e-10

    @pytest.mark.parametrize("seed", range(15))
    def test_bounds(self, seed):
        psi = haar_random_state(24, seed)
        dec = schmidt_decompose(psi, BipartiteSplit(4, 6))
        s = entanglement_entropy(dec)
        assert 0.0 <= s <= math.log(4) + 1e-10
        assert (s == 0.0) == (dec.rank == 1)


class TestInvariances:
    @pytest.mark.parametrize("seed", range(10))
    def test_global_phase_leaves_lambdas_unchanged(self, seed):
        psi = haar_random_state(24, seed)
        split = BipartiteSplit(4, 6)
        rotated = make_state(psi.amplitudes * np.exp(1j * 0.7321), [4, 6])
        base = schmidt_decompose(psi, split)
        other = schmidt_decompose(rotated, split)
        assert np.max(np.abs(base.lambdas - other.lambdas)) < 1e-12
        # left vectors are pinned by the phase convention; right vectors can
        # only pick up the state's own global phase
        assert np.max(np.abs(base.left_vectors - other.left_vectors)) < 1e-9
        for n in range(base.rank):
            assert phase_distance(
                base.right_vectors[:, n], other.right_vectors[:, n]
            ) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_local_unitaries_leave_lambdas_unchanged(self, seed):
        psi = haar_random_state(24, seed)
        split = BipartiteSplit(4, 6)
        u = np.kron(
            haar_random_unitary(4, seed + 100).entries,
            haar_random_unitary(6, seed + 200).entries,
        )
        moved = make_state(u @ psi.amplitudes, [4, 6])
        base = schmidt_decompose(psi, split)
        other = schmidt_decompose(moved, split)
        assert padded_gap(base.lambdas, other.lambdas) < 1e-10

    def test_reconstruct_renormalizes(self):
        rebuilt = reconstruct(schmidt_decompose(bell_state(), BipartiteSplit(2, 2)))
        assert abs(np.linalg.norm(rebuilt.amplitudes) - 1.0) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(case=ranked_matrices())
    def test_lambdas_invariant_under_local_unitaries(self, case):
        seed, m = case
        d_left, d_right = m.shape
        moved = (haar_random_unitary(d_left, seed).entries @ m
                 @ haar_random_unitary(d_right, seed + 1).entries.T)
        split = BipartiteSplit(d_left, d_right)
        base = schmidt_decompose(make_state(m.reshape(-1), [d_left, d_right]), split)
        other = schmidt_decompose(make_state(moved.reshape(-1), [d_left, d_right]), split)
        assert padded_gap(base.lambdas, other.lambdas) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(case=ranked_matrices())
    def test_lambdas_symmetric_under_swapping_the_split(self, case):
        _, m = case
        d_left, d_right = m.shape
        base = schmidt_decompose(make_state(m.reshape(-1), [d_left, d_right]),
                                 BipartiteSplit(d_left, d_right))
        swapped = schmidt_decompose(make_state(m.T.reshape(-1), [d_right, d_left]),
                                    BipartiteSplit(d_right, d_left))
        assert padded_gap(base.lambdas, swapped.lambdas) < 1e-10
