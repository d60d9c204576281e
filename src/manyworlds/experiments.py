"""Seeded Monte Carlo experiments on measurement chains and complexity walks.

Three drivers: uniform-random overlap statistics, the random-projection
chain, and complexity random walks with a reflecting barrier at zero. The
closed-form polarizer chain and world count live in `deterministic`, which
loads no numpy. Trial t reads its own row of the seed's trial stream, which
`rng` lays out, caps and hands over in chunks of trials or in column pieces
of one long row; the drivers keep only the laws and their carries.

The random-state drivers never build a state: each overlap along a chain
of uniformly random states is drawn from its exact law, Beta(1, N - 1)
independent of the states before it, one uniform per overlap. The exact
full-branching walk is capped at FULL_BRANCHING_DEPTH_CAP steps; a deeper
one raises CapacityError before anything is summed.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from .contracts import CapacityError, _check_dims, _check_index
from .deterministic import ZenoReport
from .rng import _trial_blocks

# The reported branch count 2**depth must print within Python's default limit
# of 4300 decimal digits; at this depth the closed-form mean takes ~0.01 s.
FULL_BRANCHING_DEPTH_CAP = 14_284


class OverlapReport(NamedTuple):
    hilbert_dim: int
    trials: int
    mean_overlap_sq: float
    std_error: float
    seed: int


class ComplexityReport(NamedTuple):
    depth: int
    mode: str                      # "single-history" | "full-branching"
    max_complexity: int
    mean_final_complexity: float
    branch_count: Optional[int] = None  # full-branching mode


def _chain_transmissions(dim: int, k: int, trials: int, seed: int) -> np.ndarray:
    """Per trial, the product of |<s_i|s_i+1>|^2 along k + 2 uniformly random states.

    Given s_0 ... s_i, the squared overlap of a fresh uniformly random state
    with s_i is Beta(1, N - 1) and independent of the past, by unitary
    invariance (Wootters, Found. Phys. 20, 1990). So overlap i is the
    inverse CDF 1 - (1 - u_i)^(1 / (N - 1)) of the i-th uniform of the
    trial's row, and at N = 1 it is exactly 1.
    """
    blocks = _trial_blocks(seed, trials, k + 1)  # checks the cap before probs exists
    probs = np.empty(trials)
    for first, pieces in blocks:
        prob = 1.0
        for u in pieces:
            overlaps = np.ones_like(u) if dim == 1 else -np.expm1(np.log1p(-u) / (dim - 1))
            overlaps[:, 0] *= prob  # multiply-reduce is sequential: one product's bits
            prob = np.prod(overlaps, axis=1)
        probs[first:first + len(prob)] = prob
    return probs


def overlap_statistics(dim: int, trials: int, seed: int) -> OverlapReport:
    """Average squared overlap of independent uniformly random state pairs.

    For states drawn uniformly on the unit sphere of an N-dimensional
    complex space the squared overlap follows Beta(1, N-1), so the mean
    tends to 1/N.
    """
    (dim,) = _check_dims((dim,))
    trials, seed = _check_index(trials, "trials", 1), _check_index(seed, "seed")
    probs = _chain_transmissions(dim, 0, trials, seed)
    err = float(np.std(probs, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return OverlapReport(dim, trials, float(np.mean(probs)), err, seed)


def random_projection_chain(dim: int, k: int, trials: int, seed: int) -> ZenoReport:
    """Mean survival-and-transition probability through k random projectors.

    Each trial draws an initial state, k rank-one intermediate projector
    states, and a final state, all uniformly at random, and multiplies the
    squared overlaps along the chain. With k = 0 this reduces exactly to
    the pairwise overlap statistic.
    """
    dim, k = _check_index(dim, "dim", 2), _check_index(k, "k", 0)
    _check_dims((dim,))  # the cap
    trials, seed = _check_index(trials, "trials", 1), _check_index(seed, "seed")
    mean = float(np.mean(_chain_transmissions(dim, k, trials, seed)))
    return ZenoReport(k, mean, "random-projection", trials=trials, seed=seed)


def evolution_walk(
    depth: int,
    mode: str,
    seed: int = 0,
    trials: int = 100_000,
) -> ComplexityReport:
    """Complexity random walk with a reflecting barrier at zero.

    Complexity starts at 0; each step is a +-1 mutation and a downward step
    at 0 stays at 0. In "full-branching" mode every one of the 2**depth
    outcome sequences is its own branch (uniform weights), so the maximal
    branch always reaches complexity = depth; its statistics are exact, as
    comb(depth, (depth + c + 1) // 2) histories end at complexity c. In
    "single-history" mode one seeded trajectory is followed per trial and
    statistics are taken over trials, each carrying its position and running
    minimum across the pieces of its row. Both modes read the seed and the
    trial count, but only the single-history walk uses them and needs
    trials >= 1. Full-branching depths above FULL_BRANCHING_DEPTH_CAP, and
    runs above rng.UNIFORMS_CAP, raise CapacityError.
    """
    depth = _check_index(depth, "depth", 0)
    trials = _check_index(trials, "trials", 1 if mode == "single-history" else None)
    seed = _check_index(seed, "seed")
    if mode == "full-branching":
        if depth > FULL_BRANCHING_DEPTH_CAP:
            raise CapacityError(
                f"full-branching depth {depth} exceeds the cap {FULL_BRANCHING_DEPTH_CAP}"
            )
        # W_n = S_n - min S of the free walk S has the law of max S (Feller, vol. I,
        # ch. III), of mean (E|S_n| + E|S_n+1| - 1) / 2, and 2**n E|S_n| = 2h comb(n, h)
        # at h = (n + 1) // 2: weighted is the exact sum of W_n over all branches
        a, b = (2 * ((n + 1) // 2) * math.comb(n, (n + 1) // 2) for n in (depth, depth + 1))
        weighted = (2 * a + b - 2**(depth + 1)) // 4
        return ComplexityReport(
            depth=depth,
            mode=mode,
            max_complexity=depth,
            mean_final_complexity=weighted / 2**depth,
            branch_count=2**depth,
        )
    if mode == "single-history":
        total = top = 0
        for _, pieces in _trial_blocks(seed, trials, depth):
            walk = low = np.zeros(1, dtype=np.int64)  # W_0 = 0
            for u in pieces:  # step-major: row s holds every trial's step s
                steps = (u.T >= 0.5).astype(np.int64)
                steps *= 2
                steps -= 1
                steps[0] += walk
                np.cumsum(steps, axis=0, out=steps)
                walk, low = steps[-1], np.minimum(low, steps.min(axis=0))
            finals = walk - low  # Skorokhod map
            total += int(finals.sum())
            top = max(top, int(finals.max()))
        return ComplexityReport(
            depth=depth,
            mode=mode,
            max_complexity=top,
            mean_final_complexity=total / trials,  # an exact sum below 2**53: a float64 mean
            branch_count=None,
        )
    raise ValueError(f"unknown walk mode {mode!r}")
