import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from manyworlds import (
    DIM_CAP,
    CapacityError,
    evolution_walk,
    overlap_statistics,
    polarizer_chain,
    random_projection_chain,
    world_count,
)
from manyworlds import rng
from manyworlds.deterministic import POLARIZER_K_CAP
from manyworlds.experiments import FULL_BRANCHING_DEPTH_CAP, _chain_transmissions
from manyworlds.rng import _trial_blocks


def walk_distribution(depth):
    """Exact final-complexity distribution of the reflecting +-1 walk."""
    probs = {0: 1.0}
    for _ in range(depth):
        nxt = {}
        for c, p in probs.items():
            for target in (max(c - 1, 0), c + 1):
                nxt[target] = nxt.get(target, 0.0) + p / 2
        probs = nxt
    return probs


def full_branching_counts(depth):
    """Histories ending at each complexity, by the step-by-step count recursion."""
    counts = [1]
    for _ in range(depth):
        down = counts[1:] + [0, 0]
        down[0] += counts[0]
        counts = [a + b for a, b in zip(down, [0] + counts)]
    return counts


def full_branching_total(depth):
    """Final complexities summed over all branches, term by term: for each j above
    depth / 2, comb(depth, j) histories end at 2j - depth and as many at 2j - depth - 1."""
    count, weighted = 1, 0  # count = comb(depth, j), stepping j down from depth
    for j in range(depth, (depth - 1) // 2, -1):
        weighted += count * (max(2 * j - depth - 1, 0) + 2 * j - depth)
        count = count * j // (depth - j + 1)
    return weighted


def state_chain_transmissions(dim, k, trials, seed):
    """Physics oracle: per trial, build k + 2 uniformly random states
    (normalised complex Gaussian vectors) and multiply the squared overlaps
    of neighbouring states."""
    gen = np.random.default_rng(seed)
    chunk = 1000  # trials built at once, to bound memory
    probs = []
    for first in range(0, trials, chunk):
        z = gen.standard_normal((min(chunk, trials - first), k + 2, dim, 2))
        states = z[..., 0] + 1j * z[..., 1]
        states /= np.linalg.norm(states, axis=2, keepdims=True)
        overlaps = np.einsum("tij,tij->ti", states[:, :-1].conj(), states[:, 1:])
        probs.append(np.prod(np.abs(overlaps) ** 2, axis=1))
    return np.concatenate(probs)


def ks_distance(a, b):
    """sup_x |F_a(x) - F_b(x)| of two samples' empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, points, side="right") / a.size
                  - np.searchsorted(b, points, side="right") / b.size).max()


def walk_mean_var(depth):
    probs = walk_distribution(depth)
    mean = sum(c * p for c, p in sorted(probs.items()))
    var = sum(c * c * p for c, p in sorted(probs.items())) - mean**2
    return mean, var


class TestOverlapStatistics:
    def test_dim_one_is_certain(self):
        report = overlap_statistics(1, 50, seed=3)
        assert abs(report.mean_overlap_sq - 1.0) < 1e-12
        assert report.std_error < 1e-12

    def test_dim_two_mean_is_half(self):
        n = 20_000
        report = overlap_statistics(2, n, seed=7)
        analytic_se = math.sqrt(1 / 12 / n)  # Beta(1,1) variance is 1/12
        assert abs(report.mean_overlap_sq - 0.5) < 5 * analytic_se

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_mean_times_dim_near_one(self, dim):
        n = 10_000
        report = overlap_statistics(dim, n, seed=dim)
        # Beta(1, dim-1) variance
        var = (dim - 1) / (dim**2 * (dim + 1))
        assert abs(report.mean_overlap_sq * dim - 1.0) < 5 * dim * math.sqrt(var / n)

    def test_deterministic_per_seed(self):
        assert overlap_statistics(8, 500, seed=5) == overlap_statistics(8, 500, seed=5)
        assert overlap_statistics(8, 500, seed=5) != overlap_statistics(8, 500, seed=6)

    def test_single_trial_has_zero_std_error(self):
        assert overlap_statistics(4, 1, seed=0).std_error == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            overlap_statistics(0, 10, seed=0)
        with pytest.raises(ValueError):
            overlap_statistics(2, 0, seed=0)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            overlap_statistics(DIM_CAP + 1, 1, seed=0)


class TestChainLawMatchesStates:
    """The Beta-law chain sampler against chains of states built in full."""

    LAW_TRIALS, STATE_TRIALS = 400_000, 40_000
    # DKW (Massart) for each sample at failure probability 1e-6 / 2; the
    # two-sample distance is at most the sum by the triangle inequality
    BOUND = sum(math.sqrt(math.log(4 / 1e-6) / (2 * n)) for n in (LAW_TRIALS, STATE_TRIALS))

    def distance(self, law_dim, state_dim, k, seed):
        return ks_distance(_chain_transmissions(law_dim, k, self.LAW_TRIALS, seed),
                           state_chain_transmissions(state_dim, k, self.STATE_TRIALS, seed))

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_two_sample_dkw(self, dim, k):
        assert self.distance(dim, dim, k, seed=100 * dim + k) < self.BOUND

    def test_oracle_is_sensitive(self):
        # the bound tells N = 16 from N = 20, whose CDFs are 0.08 apart
        assert self.distance(20, 16, 0, seed=1) > self.BOUND


class TestPolarizerChain:
    def test_crossed_polarizers_block_everything(self):
        report = polarizer_chain(0)
        assert report.mode == "deterministic-polarizer"
        assert abs(report.transmission_probability) < 1e-12

    def test_one_intermediate_lens(self):
        assert abs(polarizer_chain(1).transmission_probability - 0.25) < 1e-12

    def test_two_intermediate_lenses(self):
        # cos^6(pi/6) = 27/64
        assert abs(polarizer_chain(2).transmission_probability - 27 / 64) < 1e-12

    def test_strictly_increasing(self):
        probs = [polarizer_chain(k).transmission_probability for k in range(1, 60)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_many_lenses_transmit_almost_everything(self):
        assert polarizer_chain(50).transmission_probability > 0.95

    def test_matches_closed_form(self):
        for k in (0, 1, 2, 5, 17, 80):
            got = polarizer_chain(k).transmission_probability
            want = math.cos(math.pi / (2 * (k + 1))) ** (2 * (k + 1))
            assert abs(got - want) < 1e-12

    def test_no_trials_or_seed_in_deterministic_mode(self):
        report = polarizer_chain(3)
        assert report.trials is None and report.seed is None

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            polarizer_chain(-1)

    @pytest.mark.parametrize("k", [10**4, 10**5, 2**18, POLARIZER_K_CAP])
    def test_long_chains_pass_their_self_check(self, k):
        # rounding in the product of k + 1 squared amplitudes grows with k;
        # a fixed 1e-12 tolerance refused the first three
        want = math.cos(math.pi / (2 * (k + 1))) ** (2 * (k + 1))
        assert abs(polarizer_chain(k).transmission_probability - want) < 1e-9

    @given(st.integers(0, 20_000))
    def test_within_its_tolerance_and_increasing(self, k):
        got = polarizer_chain(k).transmission_probability
        stages = k + 1
        want = math.cos(math.pi / (2 * stages)) ** (2 * stages)
        assert abs(got - want) <= 8 * stages * math.ulp(1.0)
        assert polarizer_chain(k + 1).transmission_probability > got


class TestRandomProjectionChain:
    def test_zero_projectors_reduce_to_overlap_statistic(self):
        chain = random_projection_chain(16, 0, trials=2_000, seed=9)
        pairs = overlap_statistics(16, trials=2_000, seed=9)
        assert chain.transmission_probability == pairs.mean_overlap_sq

    def test_dim_two_one_projector_mean_quarter(self):
        # |<i|p>|^2 and |<p|f>|^2 are independent U[0,1]; product mean 1/4,
        # variance 1/9 - 1/16 = 7/144
        n = 20_000
        report = random_projection_chain(2, 1, trials=n, seed=21)
        assert abs(report.transmission_probability - 0.25) < 5 * math.sqrt(7 / 144 / n)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_no_substantial_boost_at_dim_sixteen(self, k):
        report = random_projection_chain(16, k, trials=5_000, seed=k)
        assert report.transmission_probability <= 3 / 16

    def test_report_carries_trials_and_seed(self):
        report = random_projection_chain(4, 2, trials=100, seed=13)
        assert report.mode == "random-projection"
        assert report.trials == 100 and report.seed == 13

    def test_deterministic_per_seed(self):
        a = random_projection_chain(8, 2, trials=300, seed=2)
        b = random_projection_chain(8, 2, trials=300, seed=2)
        assert a == b

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_projection_chain(1, 1, trials=10, seed=0)
        with pytest.raises(ValueError):
            random_projection_chain(4, -1, trials=10, seed=0)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            random_projection_chain(DIM_CAP + 1, 0, trials=1, seed=0)


class TestWorldCount:
    def test_linear_default_constants(self):
        report = world_count()
        assert abs(report.log10_worlds - 60.9069004917679) < 1e-9
        assert report.log10_log10_worlds is None

    def test_exponential_default_constants(self):
        report = world_count(growth_model="exponential")
        assert abs(report.log10_log10_worlds - 60.544684803068435) < 1e-9
        assert report.log10_worlds is None

    def test_exact_power_of_ten_ratio(self):
        t_p = 5.39e-44
        report = world_count(universe_age_s=t_p * 1e60, planck_time_s=t_p)
        assert abs(report.log10_worlds - 60.0) < 1e-9

    def test_monotone_in_age_antitone_in_time_step(self):
        base = world_count().log10_worlds
        older = world_count(universe_age_s=8.7e17).log10_worlds
        finer = world_count(planck_time_s=1e-44).log10_worlds
        assert older > base and finer > base
        base_exp = world_count(growth_model="exponential")
        older_exp = world_count(universe_age_s=8.7e17, growth_model="exponential")
        assert older_exp.log10_log10_worlds > base_exp.log10_log10_worlds

    def test_extreme_inputs_stay_finite(self):
        report = world_count(universe_age_s=1e308, planck_time_s=1e-308,
                             growth_model="exponential")
        assert math.isfinite(report.log10_ratio)
        assert math.isfinite(report.log10_log10_worlds)
        assert abs(report.log10_ratio - 616.0) < 1e-9

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            world_count(universe_age_s=-1.0)
        with pytest.raises(ValueError):
            world_count(planck_time_s=0.0)
        with pytest.raises(ValueError):
            world_count(universe_age_s=1e-50, planck_time_s=1e-44)
        with pytest.raises(ValueError):
            world_count(growth_model="logarithmic")


class TestEvolutionWalk:
    def test_depth_zero_both_modes(self):
        for mode in ("single-history", "full-branching"):
            report = evolution_walk(0, mode, seed=1, trials=10)
            assert report.max_complexity == 0
            assert report.mean_final_complexity == 0.0

    def test_full_branching_reaches_the_all_up_branch(self):
        report = evolution_walk(20, "full-branching")
        assert report.max_complexity == 20
        assert report.branch_count == 2**20

    def test_full_branching_matches_count_recursion(self):
        for depth in range(201):
            counts = full_branching_counts(depth)
            report = evolution_walk(depth, "full-branching")
            assert report.max_complexity == max(c for c, n in enumerate(counts) if n)
            assert report.mean_final_complexity == (
                sum(c * n for c, n in enumerate(counts)) / 2**depth
            )
            assert report.branch_count == sum(counts) == 2**depth

    def test_full_branching_mean_equals_term_sum(self):
        for depth in [*range(2001), FULL_BRANCHING_DEPTH_CAP]:
            mean = evolution_walk(depth, "full-branching").mean_final_complexity
            assert mean == full_branching_total(depth) / 2**depth, depth

    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8, 12, 25, 40])
    def test_full_branching_mean_matches_distribution_oracle(self, depth):
        report = evolution_walk(depth, "full-branching")
        mean, _ = walk_mean_var(depth)
        assert abs(report.mean_final_complexity - mean) < 1e-12
        assert report.max_complexity == depth

    def test_single_history_matches_exhaustive_oracle(self):
        n = 20_000
        report = evolution_walk(10, "single-history", seed=17, trials=n)
        mean, var = walk_mean_var(10)
        assert abs(report.mean_final_complexity - mean) < 5 * math.sqrt(var / n)
        assert report.branch_count is None
        assert 0 <= report.max_complexity <= 10

    def test_single_history_deterministic(self):
        a = evolution_walk(6, "single-history", seed=3, trials=500)
        b = evolution_walk(6, "single-history", seed=3, trials=500)
        assert a == b

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            evolution_walk(3, "both-at-once")


class TestTrialStream:
    """Trial t reads its own row of the seed's stream, however trials are chunked."""

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
    @pytest.mark.parametrize("width", [4, 12, 256])
    def test_isolated_trial_equals_its_batch_row(self, seed, width):
        chunk = rng.TRIAL_CHUNK // width
        batch = rng.trial_uniforms(seed, 0, 2 * chunk + 1, width)
        for t in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk):
            assert np.array_equal(rng.trial_uniforms(seed, t, 1, width)[0], batch[t])
        pair = rng.trial_uniforms(seed, chunk - 1, 2, width)
        assert np.array_equal(pair, batch[chunk - 1:chunk + 1])

    def test_seeds_give_distinct_streams(self):
        rows = [rng.trial_uniforms(seed, 0, 1, 4)[0] for seed in (0, 1, -1)]
        assert not np.array_equal(rows[0], rows[1])
        assert not np.array_equal(rows[0], rows[2])

    @pytest.mark.parametrize("width", [*range(10), rng.TRIAL_CHUNK - 1, rng.TRIAL_CHUNK + 1])
    def test_any_width_replays_row_by_row(self, width):
        # rows are exactly width wide, each at the start of its own block of whole
        # Philox steps, so a width-1 row is column 0 of the width-4 row
        seed, count = 9, 5
        batch = rng.trial_uniforms(seed, 0, count, width)
        assert batch.shape == (count, width)
        for t in range(count):
            assert np.array_equal(rng.trial_uniforms(seed, t, 1, width)[0], batch[t])
        if width <= 4:
            assert np.array_equal(batch, rng.trial_uniforms(seed, 0, count, 4)[:, :width])

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            rng.trial_uniforms(0, -1, 1, 4)

    @pytest.mark.parametrize("uniforms", [3, 48, 100])
    def test_sequential_chunks_equal_positioned_draws(self, monkeypatch, uniforms):
        # one generator drawn chunk after chunk lands where a fresh generator
        # advanced to each chunk's first trial does, here over 300 chunks
        seed = 2**63 - 1
        monkeypatch.setattr(rng, "TRIAL_CHUNK", 3 * rng._block(uniforms))  # three rows a chunk
        chunks = [(first, np.hstack(list(pieces)))
                  for first, pieces in _trial_blocks(seed, 900, uniforms)]
        assert len(chunks) == 300
        for c, (first, block) in enumerate(chunks):
            assert first == 3 * c
            want = rng.trial_uniforms(seed, 3 * c, 3, uniforms)
            assert np.array_equal(block, want)

    @pytest.mark.parametrize("uniforms", [9, 37, 40])
    def test_long_rows_come_in_column_pieces(self, monkeypatch, uniforms):
        # a row longer than the chunk is one trial's row, drawn piece after piece
        seed = 7
        monkeypatch.setattr(rng, "TRIAL_CHUNK", 8)
        for first, pieces in _trial_blocks(seed, 5, uniforms):
            pieces = list(pieces)
            assert [p.shape[1] for p in pieces[:-1]] == [8] * (len(pieces) - 1)
            assert all(p.shape[0] == 1 and 1 <= p.shape[1] <= 8 for p in pieces)
            want = rng.trial_uniforms(seed, first, 1, uniforms)
            assert np.array_equal(np.hstack(pieces), want)

    def test_reports_do_not_depend_on_chunk_size(self, monkeypatch):
        runs = [
            lambda: overlap_statistics(16, 301, seed=4),
            lambda: overlap_statistics(3, 101, seed=-1),
            lambda: random_projection_chain(8, 3, trials=201, seed=4),
            lambda: random_projection_chain(2, 9, trials=51, seed=6),  # 3 pieces a row
            lambda: evolution_walk(9, "single-history", seed=4, trials=301),
            lambda: evolution_walk(0, "single-history", seed=4, trials=7),
            lambda: evolution_walk(13, "single-history", seed=2, trials=101),
        ]
        default = [run() for run in runs]
        monkeypatch.setattr(rng, "TRIAL_CHUNK", 4)
        assert [run() for run in runs] == default

    @pytest.mark.parametrize("dim,k,chunk", [
        (3, 0, None), (4, 2, None), (16, 1, None), (5, 36, None), (4, 2, 8), (5, 36, 8),
    ], ids=["3-0", "4-2", "16-1", "5-36", "4-2-chunk8", "5-36-chunk8"])
    def test_projection_chain_replays_trial_by_trial(self, monkeypatch, dim, k, chunk):
        # trial t's overlaps are the Beta(1, N - 1) inverse CDF of the first
        # k + 1 uniforms of its own block, however its row is cut into pieces
        if chunk:
            monkeypatch.setattr(rng, "TRIAL_CHUNK", chunk)
        trials, seed = 200, 5
        got = _chain_transmissions(dim, k, trials, seed)
        for t in range(trials):
            u = rng.trial_uniforms(seed, t, 1, k + 1)[0]
            assert got[t] == np.prod(-np.expm1(np.log1p(-u) / (dim - 1)))

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_pair_overlaps_follow_beta_one_n_minus_one(self, dim):
        trials = 20_000
        overlaps = np.sort(_chain_transmissions(dim, 0, trials, seed=dim))
        # Dvoretzky-Kiefer-Wolfowitz: sup |F_n - F| exceeds this with probability 1e-6
        bound = math.sqrt(math.log(2 / 1e-6) / (2 * trials))
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            x = 1 - (1 - q) ** (1 / (dim - 1))  # Beta(1, dim - 1) quantile
            assert abs(np.searchsorted(overlaps, x, side="right") / trials - q) < bound

    def test_one_projector_second_moment(self):
        # given the middle state the two overlaps are independent Beta(1, N - 1),
        # each with second moment 2 / (N (N + 1))
        dim, trials = 4, 50_000
        p_sq = _chain_transmissions(dim, 1, trials, seed=12) ** 2
        want = (2 / (dim * (dim + 1))) ** 2
        assert abs(p_sq.mean() - want) < 5 * p_sq.std(ddof=1) / math.sqrt(trials)

    @pytest.mark.parametrize("depth,chunk", [
        (0, None), (1, None), (4, None), (7, None), (10, None), (37, None), (10, 8), (37, 8),
    ], ids=["0", "1", "4", "7", "10", "37", "10-chunk8", "37-chunk8"])
    def test_single_history_replays_step_by_step(self, monkeypatch, depth, chunk):
        if chunk:
            monkeypatch.setattr(rng, "TRIAL_CHUNK", chunk)
        trials, seed = 300, 11
        finals = []
        for t in range(trials):
            c = 0
            for u in rng.trial_uniforms(seed, t, 1, depth)[0]:
                c = max(c + (1 if u >= 0.5 else -1), 0)
            finals.append(c)
        report = evolution_walk(depth, "single-history", seed=seed, trials=trials)
        assert report.max_complexity == max(finals)
        assert report.mean_final_complexity == sum(finals) / trials


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrialMemory:
    """Walks and long rows fold in O(rng.TRIAL_CHUNK); a chain keeps 8 B per trial."""

    @pytest.mark.parametrize("run", [
        lambda: evolution_walk(16, "single-history", trials=2**20),
        lambda: evolution_walk(2**20, "single-history", trials=1),
        lambda: random_projection_chain(2, 2**20, trials=1, seed=0),
    ], ids=["walk-many-trials", "walk-long-row", "chain-long-row"])
    def test_folds_in_bounded_memory(self, run):
        assert _peak_bytes(run) < 2 * 2**20

    def test_overlap_keeps_one_float_per_trial(self):
        # the per-trial floats and the spread's temporary, nothing per chunk
        trials = 2**20
        assert _peak_bytes(overlap_statistics, 2, trials, 0) <= 16 * trials + 2**20
