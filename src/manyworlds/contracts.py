"""The package-wide contracts that need no numpy.

The dimension cap and its check, the error types the command line maps to
exit codes and the base of the immutable value classes live here, so that
the command line can map every error without loading a numeric layer.
Every layer imports them from here.
"""

from __future__ import annotations

import math
import operator

DIM_CAP = 2**14     # hard cap on the total dimension of a state


class ShapeError(ValueError):
    """Array lengths or dimensions inconsistent with the requested operation."""


class CapacityError(RuntimeError):
    """A hard resource cap (dimension or branch count) would be exceeded."""


class DecompositionError(RuntimeError):
    """Internal consistency failure while pairing the two subsystem bases."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in `_fields`, holds them (and any private
    cache) in `__slots__`, and sets them in its own `__init__` through
    `object.__setattr__`. Any other assignment or deletion of an attribute
    raises AttributeError. The repr is `Name(field=value, ...)`, the text
    error messages quote, and two instances of one class are equal, and
    hash alike, when their field tuples are.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore slots with setattr, which is refused above
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _check_dims(dims) -> tuple[int, ...]:
    try:
        out = tuple(map(operator.index, dims))  # an int or a numpy integer, never truncated
    except TypeError:
        raise ShapeError(f"subsystem dimensions must be integers, got {dims!r}") from None
    if not out:
        raise ShapeError("dims must name at least one subsystem")
    if min(out) < 1:
        raise ShapeError(f"subsystem dimensions must be >= 1, got {out}")
    total = math.prod(out)
    if total > DIM_CAP:
        raise CapacityError(f"total dimension {total} exceeds the cap {DIM_CAP}")
    return out
