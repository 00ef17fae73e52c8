"""Net presentations of the unit interval and Cantor space, and their points.

A space is given by finite levels: level j holds finitely many dense points,
and every point of the space lies strictly within 2^-j of one of them. Both
constructions push one level deeper than the naive grid so that the net
inequality is strict, which the deeper algorithms rely on.

Points are rapidly converging approximation streams. Net values (a dyadic,
an eventually periodic bit stream) have an exact distance, a Dyadic, so
every 2^-k test on them is a decidable Dyadic comparison.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import CapExceededError
from .dyadic import Dyadic

__all__ = [
    "BitStream",
    "CompactSpace",
    "UnitInterval",
    "CantorSpace",
    "unit_interval",
    "cantor_space",
    "Point",
    "IntervalPoint",
    "CantorPoint",
    "ApproxPoint",
    "verify_net_property",
    "verify_metric_axioms",
]


@dataclass(frozen=True)
class BitStream:
    """An infinite 0/1 sequence: finite prefix, then a repeating cycle.

    Covers every Cantor point this package manipulates (net words have the
    zero cycle) while keeping equality and first-disagreement decidable.
    """

    prefix: Tuple[int, ...] = ()
    cycle: Tuple[int, ...] = (0,)

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        if any(b not in (0, 1) for b in self.prefix + self.cycle):
            raise ValueError("bits must be 0 or 1")

    @staticmethod
    def word(bits: Sequence[int]) -> "BitStream":
        return BitStream(tuple(bits), (0,))

    @staticmethod
    def constant(bit: int) -> "BitStream":
        return BitStream((), (bit,))

    def bit(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def bits(self, n: int) -> Tuple[int, ...]:
        return tuple(self.bit(i) for i in range(n))

    def first_disagreement(self, other: "BitStream") -> Optional[int]:
        """Least index where the streams differ, or None when equal.

        Beyond both prefixes the streams are periodic with the lcm period,
        so checking one aligned window decides equality.
        """
        horizon = max(len(self.prefix), len(other.prefix))
        horizon += _lcm(len(self.cycle), len(other.cycle))
        for i in range(horizon):
            if self.bit(i) != other.bit(i):
                return i
        return None

    def __str__(self) -> str:
        head = "".join(map(str, self.prefix))
        return f"{head}({''.join(map(str, self.cycle))})*"


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class Point:
    """Approximation-stream view of a space element: approx(m) is an exact
    net-point value within 2^-m of the element, nonincreasing in m."""

    def approx(self, m: int):
        raise NotImplementedError


@dataclass(frozen=True)
class IntervalPoint(Point):
    value: Dyadic

    def approx(self, m: int) -> Dyadic:
        # nearest level-m grid value, ties toward the lower grid point
        scale = m + 1
        if self.value.exp <= scale:
            return self.value
        num = self.value.scaled_int(self.value.exp)
        step = 1 << (self.value.exp - scale)
        q, r = divmod(num, step)
        k = q + (1 if 2 * r > step else 0)
        return Dyadic(k, scale)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CantorPoint(Point):
    stream: BitStream

    def approx(self, m: int) -> BitStream:
        return BitStream.word(self.stream.bits(m + 1))

    def __str__(self) -> str:
        return str(self.stream)


class ApproxPoint(Point):
    """A point known only through constructed approximants up to a cap.

    Levels memoize under a lock, so a shared point may be queried from
    several threads.
    """

    def __init__(self, compute_level, m_max: int):
        self._compute = compute_level
        self._cache: List = []
        self._lock = threading.Lock()
        self.m_max = m_max

    def approx(self, m: int):
        if m > self.m_max:
            raise CapExceededError(f"approximant level {m} beyond construction cap {self.m_max}")
        with self._lock:
            while len(self._cache) <= m:
                self._cache.append(self._compute(len(self._cache), self._cache))
            return self._cache[m]


Value = Union[Dyadic, BitStream]


class CompactSpace:
    """Finite 2^-j nets with an exact metric; see UnitInterval, CantorSpace."""

    kind: str
    name: str

    def __init__(self, max_level: int):
        if max_level < 1:
            raise ValueError("max_level must be >= 1")
        self.max_level = max_level

    def level_count(self, j: int) -> int:
        raise NotImplementedError

    def net_point(self, j: int, i: int) -> Value:
        raise NotImplementedError

    def dist(self, a: Value, b: Value) -> Dyadic:
        """d(a, b), exactly."""
        raise NotImplementedError

    def round_value(self, v: Value, level: int) -> Value:
        """The level's representative of v (grid rounding / truncation)."""
        raise NotImplementedError

    def id_of(self, level: int, v: Value) -> int:
        raise NotImplementedError

    def embed(self, j: int, i: int, j2: int) -> int:
        """Id at the deeper level j2 of the same net point."""
        if j2 < j:
            raise ValueError("embed only goes to deeper levels")
        return self.id_of(j2, self.round_value(self.net_point(j, i), j2))

    def ids_in_ball(self, level: int, center: Value, radius: Dyadic) -> Iterable[int]:
        """Superset of the ids whose points lie within the open ball."""
        raise NotImplementedError


class UnitInterval(CompactSpace):
    """[0,1] with level-j points k/2^(j+1); the half-step grid makes the
    2^-j net inequality strict."""

    kind = "interval"
    name = "interval"

    def level_count(self, j: int) -> int:
        return (1 << (j + 1)) + 1

    def net_point(self, j: int, i: int) -> Dyadic:
        if not 0 <= i <= (1 << (j + 1)):
            raise ValueError(f"id {i} out of range at level {j}")
        return Dyadic(i, j + 1)

    def dist(self, a: Dyadic, b: Dyadic) -> Dyadic:
        return abs(a - b)

    def round_value(self, v: Dyadic, level: int) -> Dyadic:
        return IntervalPoint(v).approx(level)

    def id_of(self, level: int, v: Dyadic) -> int:
        return v.scaled_int(level + 1)

    def ids_in_ball(self, level: int, center: Dyadic, radius: Dyadic):
        scale = max(level + 1, center.exp, radius.exp)
        c = center.scaled_int(scale)
        r = radius.scaled_int(scale)
        step = 1 << (scale - level - 1)
        lo = max(0, -(-(c - r) // step))        # ceil
        hi = min(1 << (level + 1), (c + r) // step)
        return range(lo, hi + 1)


class CantorSpace(CompactSpace):
    """2^N with d(x, y) = 2^-(first disagreement); level-j points are the
    depth-(j+1) cylinder representatives, in lexicographic id order."""

    kind = "cantor"
    name = "cantor"

    def level_count(self, j: int) -> int:
        return 1 << (j + 1)

    def net_point(self, j: int, i: int) -> BitStream:
        L = j + 1
        if not 0 <= i < (1 << L):
            raise ValueError(f"id {i} out of range at level {j}")
        return BitStream.word(tuple((i >> (L - 1 - k)) & 1 for k in range(L)))

    def dist(self, a: BitStream, b: BitStream) -> Dyadic:
        t = a.first_disagreement(b)
        return Dyadic.zero() if t is None else Dyadic.pow2(-t)

    def round_value(self, v: BitStream, level: int) -> BitStream:
        return BitStream.word(v.bits(level + 1))

    def id_of(self, level: int, v: BitStream) -> int:
        out = 0
        for bit in v.bits(level + 1):
            out = (out << 1) | bit
        return out

    def ids_in_ball(self, level: int, center: BitStream, radius: Dyadic):
        if not Dyadic.zero() < radius:
            return range(0)
        k = 0
        while not Dyadic.pow2(-k) < radius:
            k += 1
        # shared prefix of length k; lexicographic ids make it contiguous
        L = level + 1
        if k >= L:
            i = self.id_of(level, center)
            return range(i, i + 1)
        head = 0
        for i in range(k):
            head = (head << 1) | center.bit(i)
        lo = head << (L - k)
        return range(lo, lo + (1 << (L - k)))


def unit_interval(max_level: int) -> UnitInterval:
    return UnitInterval(max_level)


def cantor_space(max_level: int) -> CantorSpace:
    return CantorSpace(max_level)


def verify_net_property(X: CompactSpace, up_to_level: int) -> bool:
    """Exhaustively: every level-(j+1) point lies strictly within 2^-j of
    some level-j point (finite proxy of the density statement)."""
    for j in range(up_to_level):
        radius = Dyadic.pow2(-j)
        for i in range(X.level_count(j + 1)):
            z = X.net_point(j + 1, i)
            if not any(X.dist(X.net_point(j, k), z) < radius
                       for k in range(X.level_count(j))):
                return False
    return True


def verify_metric_axioms(X: CompactSpace, level: int, triples) -> bool:
    """Identity, symmetry and the triangle inequality on the given id triples."""
    zero = Dyadic.zero()
    for (i, j, k) in triples:
        a, b, c = (X.net_point(level, t) for t in (i, j, k))
        dab, dba = X.dist(a, b), X.dist(b, a)
        if dab != dba:
            return False
        if (dab == zero) != (i == j):
            return False
        if X.dist(a, c) > dab + X.dist(b, c):
            return False
    return True
