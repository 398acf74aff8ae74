"""Small value-record base classes over ``__slots__``.

A record's fields are its ``__slots__``, in constructor order; equality
(same class only), the repr ``Name(field=value, ...)`` and pickling follow
from them; the repr shows an int past the interpreter's int-to-str digit
limit, alone, in a Fraction or in a tuple or list, by its digit count, and a
long string by its start and its length.
Mutable records are unhashable; frozen ones hash by their field values and
refuse assignment, as any ``Frozen`` object does.  Subclasses write their own ``__init__``.
"""

from __future__ import annotations

from fractions import Fraction
from math import log10


def _shown(x, text=repr) -> str:
    """text(x), repr by default, with an int that text() refuses (past the
    interpreter's int-to-str digit limit), alone, as a Fraction's numerator
    or denominator or in a tuple or list, shown by its digit count, and a
    string past 60 characters by its first 60 and its length, so that the
    refusal of any input stays short."""
    if type(x) is str and len(x) > 60:
        return f"{text(x[:60])}... ({len(x)} characters)"
    try:
        return text(x)
    except ValueError:
        if type(x) in (tuple, list):
            body = ", ".join(_shown(v, text) for v in x)
            return f"[{body}]" if type(x) is list else f"({body}{',' if len(x) == 1 else ''})"
        if type(x) is Fraction:
            return "/".join(_shown(v, text) for v in x.as_integer_ratio())
        if type(x) is not int:
            raise
        n = abs(x)
        d = int(log10(n))  # floor(log10(n)), or one off it
        d += (10 ** (d + 1) <= n) - (10 ** d > n)
        return f"{'-' if x < 0 else ''}<{d + 1}-digit integer>"


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={_shown(getattr(self, f))}" for f in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen:
    """An object whose fields are set once, in ``__init__``, through
    ``object.__setattr__`` or its instance dict, and refused after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FrozenRecord(Frozen, Record):
    """A record whose fields are set once, in ``__init__``, through
    ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
