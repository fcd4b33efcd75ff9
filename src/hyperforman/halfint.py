"""Exact half-integer arithmetic.

Curvature bookkeeping mixes integers with odd multiples of 1/2 (every
incident edge contributes 3/2 to a vertex term), and the whole point of
the library is that the vertex/edge/triangle sums close to *exactly*
zero against the Euler characteristic. Floating point would manufacture
residue, so values are stored as twice their value in a plain int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, eq=False)
class HalfInteger:
    """A rational with denominator 1 or 2, stored as twice its value."""

    twice: int

    @classmethod
    def from_int(cls, n: int) -> "HalfInteger":
        return cls(2 * n)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def _twice_of(self, other) -> int | None:
        if isinstance(other, HalfInteger):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return None

    def __add__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInteger(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInteger(self.twice - t)

    def __rsub__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return HalfInteger(t - self.twice)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice)

    def __mul__(self, other):
        # Only integer multiples stay half-integral.
        if isinstance(other, int):
            return HalfInteger(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice == t

    def __hash__(self):
        # Matches hash(n) whenever the value is the integer n.
        return hash(Fraction(self.twice, 2))

    def __lt__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice < t

    def __le__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice <= t

    def __gt__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice > t

    def __ge__(self, other):
        t = self._twice_of(other)
        if t is None:
            return NotImplemented
        return self.twice >= t

    def __bool__(self) -> bool:
        return self.twice != 0

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def decimal(self) -> str:
        """Render with one fractional digit, e.g. ``-3.5`` or ``2.0``."""
        return f"{self.twice / 2.0:.1f}"

    def json_value(self) -> int | str:
        """Exact JSON form: an int when whole, else the string ``"n/2"``."""
        if self.is_integer:
            return self.twice // 2
        return f"{self.twice}/2"
