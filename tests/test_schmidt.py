import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, reduced_matrix
from manyworlds import (
    DIM_CAP,
    BipartiteSplit,
    DecompositionError,
    SchmidtDecomposition,
    ShapeError,
    basis_state,
    entanglement_entropy,
    haar_random_state,
    make_state,
    reconstruct,
    schmidt_decompose,
    spectra_gap,
    tensor,
)
from manyworlds import schmidt
from manyworlds.cli import main
from manyworlds.hilbert import DEGENERACY_GAP, _canonical_eigenbasis

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
def ranked_matrices(draw, dims=None):
    """A seed and a d_left x d_right amplitude matrix of Schmidt rank r, up to 16 x 16.

    `dims`, when given, fixes (d_left, d_right).
    """
    d_left, d_right = dims or (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
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
        w = np.linalg.eigvalsh(reduced_matrix(psi.amplitudes, d_left, d_right, "right"))[::-1]
        assert np.max(np.abs(dec.lambdas - w[:dec.rank])) < 1e-12

    def test_tall_degenerate_split_follows_eigenbasis_convention(self):
        split = BipartiteSplit(256, 2)
        u = haar_unitary(256, 5)
        psi = make_state(np.kron(u[:, 0], [1, 0]) + np.kron(u[:, 1], [0, 1]), [256, 2])
        dec = schmidt_decompose(psi, split)
        assert np.allclose(dec.lambdas, [0.5, 0.5], rtol=0.0, atol=1e-12)
        values, vectors = np.linalg.eigh(reduced_matrix(psi.amplitudes, 256, 2, "left"))
        vectors = _canonical_eigenbasis(values[::-1], vectors[:, ::-1], DEGENERACY_GAP)
        assert np.max(np.abs(dec.left_vectors - vectors[:, :2])) < 1e-12

    def test_small_coefficients_near_zero_are_kept(self):
        # the two 3e-10 coefficients are far above the SVD's resolution; they
        # form a degenerate cluster of their own, apart from the discarded null space
        lambdas = np.array([1 - 6e-10, 3e-10, 3e-10])
        left = haar_unitary(4, 21)[:, :3]
        right = haar_unitary(4, 22)[:, :3]
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
        w = np.linalg.eigvalsh(reduced_matrix(psi.amplitudes, 4, 6, "right"))
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


def weighted_state(weights, d_left, d_right, seed):
    """sum_n sqrt(w_n) u_n (x) v_n over Haar columns u_n and v_n, and the weights w.

    The weights are normalized and returned sorted descending.
    """
    w = np.sort(np.asarray(weights, dtype=float))[::-1]
    w /= w.sum()
    u = haar_unitary(d_left, seed)[:, :w.size]
    v = haar_unitary(d_right, seed + 1)[:, :w.size]
    return make_state(((u * np.sqrt(w)) @ v.T).reshape(-1), [d_left, d_right]), w


def check_weights_recovered(psi, w, d_left, d_right):
    """psi decomposes; its residual, sum and every kept weight are within the SVD's accuracy.

    A kept weight may miss the true one by about eps * sqrt(w), a relative
    error of eps / sqrt(w); a dropped weight lies below the cut's square.
    """
    eps = np.finfo(np.float64).eps
    dec = schmidt_decompose(psi, BipartiteSplit(d_left, d_right))
    assert np.linalg.norm(reconstruct(dec).amplitudes - psi.amplitudes) <= 1e-10
    assert abs(math.fsum(dec.lambdas.tolist()) - 1.0) <= 1e-10
    kept = w[:dec.rank]
    assert np.all(np.abs(dec.lambdas - kept) <= 32 * eps * np.sqrt(kept))
    assert np.all(np.sqrt(w[dec.rank:]) <= (max(d_left, d_right) + 32) * eps)
    return dec


# A weight below 1e-10, and unequal weights closer than 1e-9, some of them
# a large factor apart: (weights, side of the square split).
SMALL_WEIGHT_REPROS = {
    "weight-1e-14": ((1.0, 1e-14), 2),
    "chained-cluster": ((1.0, 9e-10, 2e-10), 3),
    "near-degenerate-pair": ((0.5, 0.5 - 2e-10), 2),
}


@st.composite
def log_uniform_states(draw):
    """weighted_state of log-uniform weights in [1e-30, 1] on a split up to the cap.

    Returns (psi, weights, d_left, d_right).
    """
    side = math.isqrt(DIM_CAP)  # 128 x 128 fills the cap
    d_left, d_right = draw(st.integers(1, side)), draw(st.integers(1, side))
    rank = draw(st.integers(1, min(d_left, d_right)))
    seed = draw(st.integers(0, 2**32 - 1))
    w = 10.0 ** np.random.default_rng(seed).uniform(-30.0, 0.0, rank)
    # a run of weights made equal up to a relative spread of at most 1e-6
    lo = draw(st.integers(0, rank - 1))
    hi = draw(st.integers(lo, rank))
    spread = draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-6]) | st.floats(0.0, 1e-6))
    w[lo:hi] = w[lo] * (1.0 + spread * np.linspace(0.0, 1.0, hi - lo))
    psi, w = weighted_state(w, d_left, d_right, seed)
    return psi, w, d_left, d_right


class TestSmallWeights:
    """Worlds of tiny weight still exist: every state the caps admit decomposes."""

    def test_basis_state_with_a_tiny_amplitude(self):
        dec = schmidt_decompose(make_state([1, 0, 0, 7e-6], (4,)), BipartiteSplit(2, 2))
        assert dec.rank == 2
        assert abs(dec.lambdas[1] - 4.9e-11) <= 1e-20

    @pytest.mark.parametrize("repro", sorted(SMALL_WEIGHT_REPROS))
    def test_haar_repros_decompose(self, repro):
        weights, d = SMALL_WEIGHT_REPROS[repro]
        for seed in range(10):
            psi, w = weighted_state(weights, d, d, seed)
            assert check_weights_recovered(psi, w, d, d).rank == len(weights)

    @settings(max_examples=60, deadline=None)
    @given(case=log_uniform_states())
    def test_log_uniform_weights_up_to_the_cap(self, case):
        check_weights_recovered(*case)


def spectra_gap_on_arrays(psi, dec):
    """spectra_gap's comparison done on numpy arrays: the full spectrum, the tail against zero."""
    m = psi.amplitudes.reshape(dec.split.d_left, dec.split.d_right)
    reduced = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.T @ m.conj()
    eigen = np.linalg.eigvalsh(reduced)[::-1]
    head, tail = eigen[:dec.rank], eigen[dec.rank:]
    return float(max(np.abs(head - dec.lambdas).max(), np.abs(tail).max(initial=0.0)))


def gap_bound(d_left, d_right):
    """A few eps per dimension of the smaller reduced matrix: the eigensolve's own accuracy."""
    return 4 * min(d_left, d_right) * np.finfo(np.float64).eps


class TestSpectraGap:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_array_formula_bit_for_bit(self, data):
        # the decomposition of the state itself, or of another state on the
        # same split whose rank may be lower, so the eigensolve leaves a tail
        # of real eigenvalues or of rounding noise of either sign
        _, m = data.draw(ranked_matrices())
        _, other = data.draw(st.one_of(st.just((None, m)), ranked_matrices(m.shape)))
        split = BipartiteSplit(*m.shape)
        psi = make_state(m.reshape(-1), m.shape)
        dec = schmidt_decompose(make_state(other.reshape(-1), m.shape), split)
        ours, theirs = spectra_gap(psi, dec), spectra_gap_on_arrays(psi, dec)
        assert type(ours) is float and ours.hex() == theirs.hex()

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

    def test_weight_at_1e_10_meets_its_own_eigenvalue(self):
        # the eigensolve's value for the kept 1.00000000000009e-10 may fall
        # either side of 1e-10; the coefficient meets that value, not a zero
        psi, _ = weighted_state((1.0, 1.0000000001e-10), 2, 2, 5)
        dec = schmidt_decompose(psi, BipartiteSplit(2, 2))
        assert dec.rank == 2
        assert spectra_gap(psi, dec) <= gap_bound(2, 2)

    @pytest.mark.parametrize("repro", sorted(SMALL_WEIGHT_REPROS))
    def test_small_weight_repros_meet_their_eigenvalues(self, repro):
        weights, d = SMALL_WEIGHT_REPROS[repro]
        for seed in range(10):
            psi, _ = weighted_state(weights, d, d, seed)
            dec = schmidt_decompose(psi, BipartiteSplit(d, d))
            assert dec.rank == len(weights)
            assert spectra_gap(psi, dec) <= gap_bound(d, d)

    @settings(max_examples=60, deadline=None)
    @given(case=log_uniform_states())
    def test_log_uniform_weights_meet_their_eigenvalues(self, case):
        psi, _, d_left, d_right = case
        dec = schmidt_decompose(psi, BipartiteSplit(d_left, d_right))
        assert spectra_gap(psi, dec) <= gap_bound(d_left, d_right)

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

    @pytest.mark.parametrize("d_left,d_right", [(1, 16), (16, 1), (4, 4)])
    @pytest.mark.parametrize("seed", range(6))
    def test_product_of_haar_states_exactly_zero(self, d_left, d_right, seed):
        # the one lambda can read 1 - 2**-52, whose -lambda ln lambda is 2.2e-16
        psi = tensor(haar_random_state(d_left, seed), haar_random_state(d_right, seed + 100))
        dec = schmidt_decompose(psi, BipartiteSplit(d_left, d_right))
        assert dec.rank == 1
        assert entanglement_entropy(dec) == 0.0


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
            haar_unitary(4, seed + 100),
            haar_unitary(6, seed + 200),
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
        moved = (haar_unitary(d_left, seed) @ m
                 @ haar_unitary(d_right, seed + 1).T)
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


def _entry_at_cut(u, s, vh):
    # the first three coefficients still sum to one and the fourth sits
    # exactly at schmidt_decompose's cut for a 4 x 6 split, so it is dropped
    # with the state's fourth term, which only the reconstruction residual can see
    s[:3] /= np.linalg.norm(s[:3])
    s[3] = s[0] * 6 * np.finfo(np.float64).eps
    return u, s, vh


def _skewed_right(u, s, vh):
    # a non-unitary turn of two rows of vh: the right vectors it pairs with
    # the untouched left ones are no longer orthonormal
    vh[:2] = np.array([[1.0, 0.3], [0.0, 1.0]]) @ vh[:2]
    return u, s, vh


def _set(array, index, value):
    array[index] = value
    return array


def _swapped_last_pair(s):
    s[[-2, -1]] = s[[-1, -2]]
    return s


# Each row corrupts one output of the SVD that schmidt_decompose takes, so
# that exactly one check of its fresh decomposition path has to catch it.
# The 4 x 6 state they decompose has four coefficients, all kept.
CORRUPT_SVD = {
    "left-not-orthonormal": (lambda u, s, vh: (u * 1.5, s, vh), "left vectors not orthonormal"),
    "right-not-orthonormal": (_skewed_right, "right vectors not orthonormal"),
    "unsorted": (lambda u, s, vh: (u, s[::-1].copy(), vh), "sorted descending"),
    "ascending-pair": (lambda u, s, vh: (u, _swapped_last_pair(s), vh), "sorted descending"),
    "sum-not-one": (lambda u, s, vh: (u, s * 1.01, vh), "sum to"),
    # the NaN is not counted above the cut but sits inside the kept prefix;
    # the order and positivity checks let it through, the sum check does not
    "nan-coefficient": (lambda u, s, vh: (u, _set(s, 1, math.nan), vh), "sum to nan"),
    # the canonical phase pass leaves a NaN entry in place, so the left
    # Gram check meets it
    "nan-left-entry": (lambda u, s, vh: (_set(u, (2, 1), math.nan), s, vh),
                       "left vectors not orthonormal (deviation nan)"),
    "entry-at-threshold": (_entry_at_cut, "reconstruction misses the input"),
}


class TestFreshDecompositionChecks:
    """schmidt_decompose builds its result without the copying constructor; every check still fires."""

    @pytest.fixture(params=sorted(CORRUPT_SVD))
    def corrupted(self, request, monkeypatch):
        corrupt, message = CORRUPT_SVD[request.param]
        svd = np.linalg.svd

        def corrupt_svd(*args, **kwargs):
            u, s, vh = svd(*args, **kwargs)
            return corrupt(u.copy(), s.copy(), vh.copy())

        monkeypatch.setattr(schmidt.np.linalg, "svd", corrupt_svd)
        return message

    def test_library_raises(self, corrupted):
        with pytest.raises(DecompositionError, match=re.escape(corrupted)):
            schmidt_decompose(haar_random_state(24, 3), BipartiteSplit(4, 6))

    def test_cli_exits_five(self, corrupted, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["schmidt", "--d-left", "4", "--d-right", "6", "--seed", "3",
                     "--out", str(out)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numerical self-check failed: ")
        assert corrupted in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nan_gram_entry_rejected(self, side):
        # the validating constructor runs the same checks on caller arrays
        split = BipartiteSplit(4, 6)
        dec = schmidt_decompose(haar_random_state(24, 3), split)
        vectors = {"left": dec.left_vectors.copy(), "right": dec.right_vectors.copy()}
        vectors[side][1, 2] = complex(math.nan, 0.0)
        with pytest.raises(DecompositionError,
                           match=rf"{side} vectors not orthonormal \(deviation nan\)"):
            SchmidtDecomposition(dec.lambdas, vectors["left"], vectors["right"], split)

    @pytest.mark.parametrize("last", [0.0, -0.0, -1e-300])
    def test_nonpositive_coefficient_rejected(self, last):
        # schmidt_decompose keeps only singular values above its cut, so only
        # caller arrays reach this check
        split = BipartiteSplit(4, 6)
        dec = schmidt_decompose(haar_random_state(24, 3), split)
        lambdas = dec.lambdas.copy()
        lambdas[-1] = last
        with pytest.raises(DecompositionError, match="retained coefficients must be positive"):
            SchmidtDecomposition(lambdas, dec.left_vectors, dec.right_vectors, split)

    @pytest.mark.parametrize("above, rank", [(False, 3), (True, 4)])
    def test_cut_keeps_only_singular_values_above_it(self, above, rank, monkeypatch):
        # an exact factorization whose fourth singular value sits at the cut
        # or one ulp above it; either way the state decomposes
        u, s, vh = np.linalg.svd(haar_random_state(24, 3).amplitudes.reshape(4, 6),
                                 full_matrices=False)
        u, s, vh = _entry_at_cut(u, s, vh)
        if above:
            s[3] = np.nextafter(s[3], math.inf)
        psi = make_state(((u * s) @ vh).reshape(-1), [4, 6])
        monkeypatch.setattr(schmidt.np.linalg, "svd", lambda *args, **kwargs: (u, s, vh))
        assert schmidt_decompose(psi, BipartiteSplit(4, 6)).rank == rank

    @settings(max_examples=100, deadline=None)
    @given(case=ranked_matrices())
    def test_every_result_passes_the_validating_constructor(self, case):
        _, m = case
        d_left, d_right = m.shape
        split = BipartiteSplit(d_left, d_right)
        dec = schmidt_decompose(make_state(m.reshape(-1), [d_left, d_right]), split)
        checked = SchmidtDecomposition(dec.lambdas, dec.left_vectors, dec.right_vectors, split)
        for name in ("lambdas", "left_vectors", "right_vectors"):
            ours, theirs = getattr(dec, name), getattr(checked, name)
            assert not ours.flags.writeable and not theirs.flags.writeable
            assert np.array_equal(ours, theirs)
        assert np.array_equal(reconstruct(dec).amplitudes, reconstruct(checked).amplitudes)
