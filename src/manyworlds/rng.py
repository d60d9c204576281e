"""Pinned deterministic random number generation: the package's only draws.

Random states draw from a PCG64 stream per seed, an integer that
`contracts._check_index` reads like every other integer argument. Monte Carlo
trial t reads `width` uniforms from its own block of one Philox stream keyed
by the seed (Salmon et al., SC 2011), the width rounded up to whole 4-word
Philox steps. A chunk of trials is one draw and any trial can be replayed on
its own; callers give the width, and the blocks, chunks and cap stay here.
"""

from __future__ import annotations

import numpy as np

from .contracts import CapacityError, _check_index

TRIAL_CHUNK = 2**14    # most uniforms drawn at once for a chunk of Monte Carlo trials
UNIFORMS_CAP = 2**28   # most uniforms one run draws, trials x block; 6-11 s


def canonical_seed(seed: int) -> int:
    """Read a seed as an integer, never truncated, and reduce it to [0, 2**64).

    A float or a string raises ShapeError. Negative seeds are mapped to their
    two's-complement unsigned value so that any 64-bit integer is accepted
    without losing determinism.
    """
    return _check_index(seed, "seed") % 2**64


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for a top-level seed."""
    return np.random.default_rng(canonical_seed(seed))


def _block(width: int) -> int:
    return 4 * max(1, -(-width // 4))  # whole 4-word Philox steps, at least one


def trial_rng(seed: int, first: int, width: int) -> np.random.Generator:
    """The seed's trial stream at the start of trial `first`, each trial `width` uniforms."""
    first, width = _check_index(first, "first", 0), _check_index(width, "width", 0)
    bits = np.random.Philox(key=canonical_seed(seed))
    bits.advance(first * _block(width) // 4)
    return np.random.Generator(bits)


def trial_uniforms(seed: int, first: int, count: int, width: int) -> np.ndarray:
    """`count` rows `width` wide from trial `first` on; row t depends only on (seed, first + t)."""
    count = _check_index(count, "count", 0)
    return trial_rng(seed, first, width).random((count, _block(width)))[:, :width]


def _trial_blocks(seed: int, trials: int, width: int):
    """(first trial, column pieces of its rows of `width` uniforms) per chunk of trials.

    Pieces hold at most TRIAL_CHUNK uniforms (a multiple of 4), so a longer row
    is a chunk of one trial. All is drawn in turn from one generator, so chunk c
    starts where trial_uniforms(seed, first_c, ...) would: read pieces in order.
    A run above UNIFORMS_CAP raises CapacityError here, before the generator exists.
    """
    block = _block(width)
    if trials * block > UNIFORMS_CAP:
        raise CapacityError(f"{trials} trials of {block} uniforms exceed the cap {UNIFORMS_CAP}")
    rows = max(1, TRIAL_CHUNK // block)
    stream = trial_rng(seed, 0, width)

    def pieces(n):
        for col in range(0, width, TRIAL_CHUNK):
            yield stream.random((n, min(TRIAL_CHUNK, block - col)))[:, :width - col]

    return ((first, pieces(min(rows, trials - first))) for first in range(0, trials, rows))


def gaussian_amplitudes(seed: int, dim: int) -> np.ndarray:
    """Draw 2*dim standard Gaussians from the seed's PCG64 stream as complex amplitudes.

    The first dim draws become real parts, the next dim imaginary parts.
    The result is NOT normalized.
    """
    z = rng_from_seed(seed).standard_normal(2 * dim)
    return z[:dim] + 1j * z[dim:]
