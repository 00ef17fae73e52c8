"""Exact dyadic rationals num / 2^exp.

Everything downstream decides its 2^-k inequalities through this type, so
the four ring operations and all comparisons are exact integer arithmetic;
there is no floating-point mode anywhere in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from ..errors import ParseError

__all__ = ["Dyadic", "parse_dyadic"]


@total_ordering
@dataclass(frozen=True)
class Dyadic:
    num: int
    exp: int = 0

    def __post_init__(self):
        if self.exp < 0:
            object.__setattr__(self, "num", self.num << -self.exp)
            object.__setattr__(self, "exp", 0)
        num, exp = self.num, self.exp
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @staticmethod
    def pow2(k: int) -> "Dyadic":
        """2^k for any integer k."""
        return Dyadic(1 << k, 0) if k >= 0 else Dyadic(1, -k)

    @staticmethod
    def zero() -> "Dyadic":
        return Dyadic(0, 0)

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def double(self) -> "Dyadic":
        return Dyadic(self.num * 2, self.exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = self._aligned(other)
        return a < b

    def __hash__(self):
        return hash((self.num, self.exp))

    def scaled_int(self, exp: int) -> int:
        """self * 2^exp, which must be an integer (exp >= self.exp)."""
        if exp < self.exp:
            raise ValueError(f"cannot scale {self} exactly to 2^-{exp}")
        return self.num << (exp - self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self})"


_DYADIC_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*2\^(\d+)\s*)?$")


def parse_dyadic(text: str) -> Dyadic:
    """Parse the literal grammar `k/2^j` (plain integers allowed)."""
    m = _DYADIC_RE.match(text)
    if not m:
        raise ParseError(text, 0, "dyadic literal k/2^j or integer")
    return Dyadic(int(m.group(1)), int(m.group(2) or 0))
