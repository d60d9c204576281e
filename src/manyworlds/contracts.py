"""The package-wide contracts that need no numpy.

The dimension cap and its check and the error types the command line maps
to exit codes live here, so that the command line can map every error
without loading a numeric layer. Every layer imports them from here.
"""

from __future__ import annotations

import math

DIM_CAP = 2**14     # hard cap on the total dimension of a state


class ShapeError(ValueError):
    """Array lengths or dimensions inconsistent with the requested operation."""


class CapacityError(RuntimeError):
    """A hard resource cap (dimension or branch count) would be exceeded."""


class DecompositionError(RuntimeError):
    """Internal consistency failure while pairing the two subsystem bases."""


def _check_dims(dims) -> tuple[int, ...]:
    out = tuple(map(int, dims))
    if not out:
        raise ShapeError("dims must name at least one subsystem")
    if min(out) < 1:
        raise ShapeError(f"subsystem dimensions must be >= 1, got {out}")
    total = math.prod(out)
    if total > DIM_CAP:
        raise CapacityError(f"total dimension {total} exceeds the cap {DIM_CAP}")
    return out
