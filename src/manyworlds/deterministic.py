"""The closed-form experiments: the polarizer chain and the world count.

Both are plain `math` on Python floats. This module imports no numpy, so a
`zeno` or `worlds` process loads none and their bytes depend on no BLAS.
"""

import math
from typing import NamedTuple, Optional

from .contracts import CapacityError, _check_index

POLARIZER_K_CAP = 2**20           # most lenses of one polarizer chain; one loop pass per stage

DEFAULT_UNIVERSE_AGE_S = 4.35e17
DEFAULT_PLANCK_TIME_S = 5.39e-44


class ZenoReport(NamedTuple):
    n_intermediate: int
    transmission_probability: float
    mode: str                      # "deterministic-polarizer" | "random-projection"
    trials: Optional[int] = None   # random mode only
    seed: Optional[int] = None     # random mode only


class WorldCountReport(NamedTuple):
    log10_ratio: float
    log10_worlds: Optional[float] = None          # linear model
    log10_log10_worlds: Optional[float] = None    # exponential model


def polarizer_chain(k: int) -> ZenoReport:
    """Transmission through k equally rotated polarizers between crossed ones.

    A vertically prepared photon traverses k+1 projective stages, each
    rotated by pi/(2(k+1)) from the previous axis. Computed by sequential
    two-dimensional projection in plain floats and cross-checked against the
    closed form cos^(2(k+1))(pi / (2(k+1))) within 8 (k+1) eps; a larger gap
    raises ArithmeticError. More than POLARIZER_K_CAP lenses raise CapacityError.
    """
    k = _check_index(k, "k", 0)
    if k > POLARIZER_K_CAP:
        raise CapacityError(f"{k} lenses exceed the cap {POLARIZER_K_CAP}")
    stages = k + 1
    step = math.pi / (2 * stages)
    probability, c0, s0 = 1.0, 1.0, 0.0
    for m in range(1, stages + 1):
        c, s = math.cos(m * step), math.sin(m * step)
        probability *= (c * c0 + s * s0) ** 2
        c0, s0 = c, s
    closed_form = math.cos(step) ** (2 * stages)
    # both sides round once or twice per stage: a first-order bound of the drift
    if not abs(probability - closed_form) <= 8 * stages * math.ulp(1.0):
        raise ArithmeticError(
            f"sequential projection {probability!r} disagrees with closed form {closed_form!r}"
        )
    return ZenoReport(k, probability, "deterministic-polarizer")


def world_count(universe_age_s: float = DEFAULT_UNIVERSE_AGE_S,
                planck_time_s: float = DEFAULT_PLANCK_TIME_S,
                growth_model: str = "linear") -> WorldCountReport:
    """Order-of-magnitude world count from the age-to-elementary-time ratio.

    Both times must be positive and finite, the age above the time step,
    and the growth model "linear" or "exponential"; anything else raises
    ValueError. Works entirely in the log domain so arbitrarily extreme
    inputs cannot overflow. The linear model counts one world per elementary
    time step; the exponential model compounds the count once per step and
    is reported as a doubly-iterated log10.
    """
    if not (0.0 < universe_age_s < math.inf and 0.0 < planck_time_s < math.inf):
        raise ValueError("ages and times must be positive and finite")
    if universe_age_s <= planck_time_s:
        raise ValueError("universe age must exceed the elementary time step")
    if growth_model not in ("linear", "exponential"):
        raise ValueError(f"unknown growth model {growth_model!r}")
    log10_ratio = math.log10(universe_age_s) - math.log10(planck_time_s)
    if growth_model == "linear":
        return WorldCountReport(log10_ratio, log10_worlds=log10_ratio)
    # log10 log10 e^(ratio) = log10(ratio * log10 e), evaluated in logs
    log10_log10 = log10_ratio + math.log10(math.log10(math.e))
    return WorldCountReport(log10_ratio, log10_log10_worlds=log10_log10)
