"""The package-wide contracts that need no numpy.

The dimension cap, the two readers of integer arguments, the shape,
capacity and decomposition errors and the base of the immutable value
classes live here; every layer imports them from here. The command line
maps each error to its exit code by these classes and by built-in bases
alone, so it loads no numeric layer to do so: `reporting.ConfigError`,
`hilbert.DegenerateStateError` and `branching.PointerOverflowError` are
`ValueError`s. Every integer the library takes, a seed too, is read by one
of the two readers, never truncated, and used as the int it returns:
`_check_dims` reads subsystem dimensions (each at least 1, their product at
most DIM_CAP) and `_check_index` every other integer (a basis index, a
count, a seed), with an optional least.
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

    A subclass names its fields in `_fields` and holds them, then any
    private cache, in `__slots__`. Its `__init__` and private builders set
    them all through `_set`, the one way past the freeze: any other
    assignment or deletion of an attribute raises AttributeError. The repr
    is `Name(field=value, ...)`. Two instances of one class are equal, and
    hash alike, when their field tuples are; a class that holds arrays is
    declared with `eq=False` and compares and hashes by identity, as
    `dataclass(eq=False)` does.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True):
        # the slots of the whole class chain, base fields first, and each slot's
        # descriptor setter, found once here instead of by name on every set
        cls._slots = tuple(name for base in reversed(cls.__mro__)
                           for name in base.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._slots)
        if not eq:  # an array's == is elementwise, so a field tuple has no truth value
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _set(self, *values):
        """Set the slots in class-chain order (the fields first) and return self."""
        for setter, value in zip(self._setters, values):
            setter(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore slots with setattr, which is refused above
        self._set(*map(state[1].get, self._slots))

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


def _check_index(value, what: str, least: int | None = None) -> int:
    """`value` as an int, never truncated: an int, a bool or a numpy integer, at least `least`."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ShapeError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and index < least:
        raise ShapeError(f"{what} must be >= {least}, got {index}")
    return index


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
