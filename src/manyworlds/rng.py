"""Pinned deterministic random number generation.

Random states draw from a PCG64 stream per seed, an integer that
`contracts._check_index` reads like every other integer argument. Monte Carlo
trial t reads the fixed block of uniforms at counter offset t * per_trial
of one Philox stream keyed by the seed (Salmon et al., SC 2011), so a chunk
of trials is one draw and any trial can be replayed on its own.
"""

from __future__ import annotations

import numpy as np

from .contracts import ShapeError, _check_index

TRIAL_CHUNK = 2**14  # most uniforms drawn at once for a chunk of Monte Carlo trials


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


def trial_rng(seed: int, first: int, per_trial: int) -> np.random.Generator:
    """The seed's trial stream, positioned at the start of trial `first`.

    `per_trial` is a positive multiple of 4: Philox counts 4-word blocks.
    """
    first, per_trial = _check_index(first, "first", 0), _check_index(per_trial, "per_trial", 4)
    if per_trial % 4:
        raise ShapeError(f"per_trial must be a multiple of 4, got {per_trial}")
    bits = np.random.Philox(key=canonical_seed(seed))
    bits.advance(first * per_trial // 4)
    return np.random.Generator(bits)


def trial_uniforms(seed: int, first: int, count: int, per_trial: int) -> np.ndarray:
    """Uniforms of `count` trials from `first` on; row t depends only on (seed, first + t)."""
    count = _check_index(count, "count", 0)
    return trial_rng(seed, first, per_trial).random((count, per_trial))


def gaussian_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw 2*dim standard Gaussians and pack them as complex amplitudes.

    The first dim draws become real parts, the next dim imaginary parts.
    The result is NOT normalized.
    """
    z = rng.standard_normal(2 * dim)
    return z[:dim] + 1j * z[dim:]
