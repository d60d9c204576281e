"""Seeded statistical experiments on branching and measurement chains.

Four drivers: uniform-random overlap statistics, the polarizer chain and its
random-projection counterpart, world-count order-of-magnitude estimates, and
complexity random walks with a reflecting barrier at zero. Trial t reads its
own block of the seed's trial stream (see `rng`), read in chunks of trials or
in column pieces of one long row, and reports do not depend on the chunking.

The random-state drivers never build a state: each overlap along a chain
of uniformly random states is drawn from its exact law, Beta(1, N - 1)
independent of the states before it, one uniform per overlap. A Monte
Carlo run is capped at UNIFORMS_CAP drawn uniforms, the exact full-branching
walk at FULL_BRANCHING_DEPTH_CAP steps and the polarizer chain at
POLARIZER_K_CAP lenses; larger runs raise CapacityError before anything is
drawn or summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import rng
from .contracts import (DEFAULT_PLANCK_TIME_S, DEFAULT_UNIVERSE_AGE_S, CapacityError,
                        _check_dims)

UNIFORMS_CAP = 2**28              # most uniforms one run draws, trials x padded block; 6-11 s
# The reported branch count 2**depth must print within Python's default limit
# of 4300 decimal digits; at this depth the O(depth^2) big-int sums take ~0.04 s.
FULL_BRANCHING_DEPTH_CAP = 14_284
POLARIZER_K_CAP = 2**20           # most lenses of one polarizer chain; one loop pass per stage


class OverlapReport(NamedTuple):
    hilbert_dim: int
    trials: int
    mean_overlap_sq: float
    std_error: float
    seed: int


class ZenoReport(NamedTuple):
    n_intermediate: int
    transmission_probability: float
    mode: str                      # "deterministic-polarizer" | "random-projection"
    trials: Optional[int] = None   # random mode only
    seed: Optional[int] = None     # random mode only


@dataclass(frozen=True)
class WorldCountConfig:
    universe_age_s: float = DEFAULT_UNIVERSE_AGE_S
    planck_time_s: float = DEFAULT_PLANCK_TIME_S
    growth_model: str = "linear"   # "linear" | "exponential"

    def __post_init__(self):
        if not (0.0 < self.universe_age_s < math.inf and 0.0 < self.planck_time_s < math.inf):
            raise ValueError("ages and times must be positive and finite")
        if self.universe_age_s <= self.planck_time_s:
            raise ValueError("universe age must exceed the elementary time step")
        if self.growth_model not in ("linear", "exponential"):
            raise ValueError(f"unknown growth model {self.growth_model!r}")


class WorldCountReport(NamedTuple):
    log10_ratio: float
    log10_worlds: Optional[float] = None          # linear model
    log10_log10_worlds: Optional[float] = None    # exponential model


class ComplexityReport(NamedTuple):
    depth: int
    mode: str                      # "single-history" | "full-branching"
    max_complexity: int
    mean_final_complexity: float
    branch_count: Optional[int] = None  # full-branching mode


def _trial_blocks(seed: int, trials: int, uniforms: int):
    """(first trial, column pieces of the first `uniforms` of its rows) per chunk.

    Pieces hold at most rng.TRIAL_CHUNK uniforms (a multiple of 4), so a longer row
    is a chunk of one trial. All is drawn in turn from one generator, so chunk c
    starts where rng.trial_uniforms(seed, first_c, ...) would: read pieces in order.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    per_trial = 4 * max(1, -(-uniforms // 4))
    if trials * per_trial > UNIFORMS_CAP:
        raise CapacityError(
            f"{trials} trials of {per_trial} uniforms exceed the cap {UNIFORMS_CAP}")
    rows = max(1, rng.TRIAL_CHUNK // per_trial)
    stream = rng.trial_rng(seed, 0, per_trial)

    def pieces(n):
        for col in range(0, uniforms, rng.TRIAL_CHUNK):
            yield stream.random((n, min(rng.TRIAL_CHUNK, per_trial - col)))[:, :uniforms - col]

    return ((first, pieces(min(rows, trials - first))) for first in range(0, trials, rows))


def _chain_transmissions(dim: int, k: int, trials: int, seed: int) -> np.ndarray:
    """Per trial, the product of |<s_i|s_i+1>|^2 along k + 2 uniformly random states.

    Given s_0 ... s_i, the squared overlap of a fresh uniformly random state
    with s_i is Beta(1, N - 1) and independent of the past, by unitary
    invariance (Wootters, Found. Phys. 20, 1990). So overlap i is the
    inverse CDF 1 - (1 - u_i)^(1 / (N - 1)) of the i-th uniform of the
    trial's block, and at N = 1 it is exactly 1.
    """
    _check_dims((dim,))
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
    probs = _chain_transmissions(dim, 0, trials, seed)
    err = float(np.std(probs, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return OverlapReport(dim, trials, float(np.mean(probs)), err, seed)


def polarizer_chain(k: int) -> ZenoReport:
    """Transmission through k equally rotated polarizers between crossed ones.

    A vertically prepared photon traverses k+1 projective stages, each
    rotated by pi/(2(k+1)) from the previous axis. Computed by sequential
    two-dimensional projection and cross-checked against the closed form
    cos^(2(k+1))(pi / (2(k+1))) within 8 (k+1) eps; a larger gap raises
    ArithmeticError.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > POLARIZER_K_CAP:
        raise CapacityError(f"{k} lenses exceed the cap {POLARIZER_K_CAP}")
    stages = k + 1
    step = math.pi / (2 * stages)
    probability = 1.0
    direction = np.array([1.0, 0.0])
    for m in range(1, stages + 1):
        axis = np.array([math.cos(m * step), math.sin(m * step)])
        amplitude = float(axis @ direction)
        probability *= amplitude**2
        direction = axis
    closed_form = math.cos(step) ** (2 * stages)
    # both sides round once or twice per stage: a first-order bound of the drift
    if not abs(probability - closed_form) <= 8 * stages * math.ulp(1.0):
        raise ArithmeticError(
            f"sequential projection {probability!r} disagrees with closed form {closed_form!r}"
        )
    return ZenoReport(k, probability, "deterministic-polarizer")


def random_projection_chain(dim: int, k: int, trials: int, seed: int) -> ZenoReport:
    """Mean survival-and-transition probability through k random projectors.

    Each trial draws an initial state, k rank-one intermediate projector
    states, and a final state, all uniformly at random, and multiplies the
    squared overlaps along the chain. With k = 0 this reduces exactly to
    the pairwise overlap statistic.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    mean = float(np.mean(_chain_transmissions(dim, k, trials, seed)))
    return ZenoReport(k, mean, "random-projection", trials=trials, seed=seed)


def world_count(config: WorldCountConfig) -> WorldCountReport:
    """Order-of-magnitude world count from the age-to-elementary-time ratio.

    Works entirely in the log domain so arbitrarily extreme inputs cannot
    overflow. The linear model counts one world per elementary time step;
    the exponential model compounds the count once per step and is reported
    as a doubly-iterated log10.
    """
    log10_ratio = math.log10(config.universe_age_s) - math.log10(config.planck_time_s)
    if config.growth_model == "linear":
        return WorldCountReport(log10_ratio, log10_worlds=log10_ratio)
    # log10 log10 e^(ratio) = log10(ratio * log10 e), evaluated in logs
    log10_log10 = log10_ratio + math.log10(math.log10(math.e))
    return WorldCountReport(log10_ratio, log10_log10_worlds=log10_log10)


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
    minimum across the pieces of its row. Full-branching depths above
    FULL_BRANCHING_DEPTH_CAP, and runs above UNIFORMS_CAP, raise CapacityError.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if mode == "full-branching":
        if depth > FULL_BRANCHING_DEPTH_CAP:
            raise CapacityError(
                f"full-branching depth {depth} exceeds the cap {FULL_BRANCHING_DEPTH_CAP}"
            )
        count, weighted = 1, 0  # count = comb(depth, j), stepping j down from depth
        for j in range(depth, (depth - 1) // 2, -1):  # ends at 2j-depth-1 and at 2j-depth
            weighted += count * (max(2 * j - depth - 1, 0) + 2 * j - depth)
            count = count * j // (depth - j + 1)
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
            walk, low = np.zeros((1, 1), dtype=np.int64), 0  # W_0 = 0
            for u in pieces:
                walk = walk[:, -1:] + np.cumsum(np.where(u >= 0.5, 1, -1), axis=1)
                low = np.minimum(low, walk.min(axis=1))
            finals = walk[:, -1] - low  # Skorokhod map
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
