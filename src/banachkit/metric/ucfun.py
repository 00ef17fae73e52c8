"""Uniformly continuous self-maps of a net-presented space.

A UCFun acts on net points at a requested output precision and carries a
modulus sequence. Two constructors cover this package's needs:

* interval_fun wraps an exact map on dyadics;
* cantor_fun wraps a bit function where output bit n reads input bits 0..n
  (so the identity is always a valid modulus).

Cantor bit functions additionally support constrained witness search: find a
net word with a prescribed prefix whose image agrees with a target through a
given index. The search walks bits in order and checks each image bit the
moment it is determined, so for the rigid maps used here it prunes
immediately instead of enumerating the exponentially large net.

exact_apply / exact_range / exact_preimage, when present, give the function's
own closed-form action on exact points; the generic net algorithms never
require them, but the exact bijection values in the acceptance suite do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..streams import LazySeq
from .dyadic import Dyadic
from .spaces import BitStream, CompactSpace, Point, Value

__all__ = ["UCFun", "interval_fun", "cantor_fun"]


@dataclass
class UCFun:
    space: CompactSpace
    modulus: LazySeq
    name: str = "f"
    exact_apply: Optional[Callable[[Point], Point]] = None
    exact_range: Optional[Callable[[Point], bool]] = None
    exact_preimage: Optional[Callable[[Point], Point]] = None

    # exact image of a net value (interval: a Dyadic; cantor: bit access);
    # precision-indexed images serve decoded function codes
    _value_map: Optional[Callable[[Dyadic], Dyadic]] = None
    _bit_map: Optional[Callable[[Callable[[int], int], int], int]] = None
    _precision_map: Optional[Callable[[Value, int], Value]] = None
    # modulus profiles by (space kind, level cap); see ops.modulus_of
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def image_value(self, v: Value, out_level: int) -> Value:
        """The level-out_level representative of F(v), exactly."""
        if self._precision_map is not None:
            return self.space.round_value(self._precision_map(v, out_level), out_level)
        if self._value_map is not None:
            return self.space.round_value(self._value_map(v), out_level)
        if self._bit_map is None:
            raise TypeError(f"{self.name} is not a Cantor bit map")
        bits = _stream_bits(v)
        return BitStream.word(tuple(self._bit_map(bits, n) for n in range(out_level + 1)))

    def raw_image(self, v: Value) -> Dyadic:
        """The exact unrounded image of an interval value."""
        if self._value_map is None:
            raise TypeError(f"{self.name} is not an interval value map")
        return self._value_map(v)

    def precision_image(self, v: Value, m: int) -> Value:
        """f(v)(m) for precision-indexed functions (decoded codes)."""
        if self._precision_map is None:
            raise TypeError(f"{self.name} has no precision-indexed image")
        return self._precision_map(v, m)

    def apply_value(self, v: Value, out_level: int) -> Value:
        return self.image_value(v, out_level)

    def image_agrees(self, v: Value, y_bits: Callable[[int], int], through: int) -> bool:
        """d(F(v), y) < 2^-through on Cantor, decided from bits 0..through."""
        if self._bit_map is None:
            raise TypeError(f"{self.name} is not a Cantor bit map")
        bits = _stream_bits(v)
        return all(self._bit_map(bits, n) == y_bits(n) for n in range(through + 1))

    @property
    def solver(self) -> bool:
        return self._bit_map is not None

    def find_witness(self, level: int, fixed_prefix: Sequence[int],
                     y_bits: Callable[[int], int], through: int) -> Optional[int]:
        """Least net id at `level` extending fixed_prefix whose image agrees
        with y through the given index, or None."""
        for i in self.iter_witnesses(level, fixed_prefix, y_bits, through):
            return i
        return None

    def iter_witnesses(self, level: int, fixed_prefix: Sequence[int],
                       y_bits: Callable[[int], int], through: int) -> Iterator[int]:
        """All witnesses as in find_witness, ascending (lexicographic) ids."""
        if self._bit_map is None:
            raise TypeError(f"{self.name} is not a Cantor bit map")
        L = level + 1
        bit_map = self._bit_map
        fixed = tuple(fixed_prefix)
        if len(fixed) > L:
            raise ValueError("fixed prefix longer than the word")

        chosen: list[int] = []

        def probe(i: int) -> int:
            # a net word denotes itself followed by zeros
            return chosen[i] if i < len(chosen) else 0

        def options(depth: int) -> list[int]:
            return [fixed[depth]] if depth < len(fixed) else [0, 1]

        # depth-first, 0 before 1, so ids come out ascending; each image bit
        # is checked the moment its position is fixed, pruning early
        pending: list[list[int]] = [options(0)]
        while pending:
            opts = pending[-1]
            if not opts:
                pending.pop()
                if chosen:
                    chosen.pop()
                continue
            chosen.append(opts.pop(0))
            d = len(chosen) - 1
            if d <= through and bit_map(probe, d) != y_bits(d):
                chosen.pop()
                continue
            if len(chosen) == L:
                # image constraints past the word read into its zero tail
                if all(bit_map(probe, n) == y_bits(n) for n in range(L, through + 1)):
                    out = 0
                    for bit in chosen:
                        out = (out << 1) | bit
                    yield out
                chosen.pop()
                continue
            pending.append(options(len(chosen)))


def _stream_bits(v: Value) -> Callable[[int], int]:
    if isinstance(v, BitStream):
        return v.bit
    raise TypeError(f"expected a bit stream, got {v!r}")


def interval_fun(space: CompactSpace, fn: Callable[[Dyadic], Dyadic],
                 modulus: LazySeq, name: str = "f", **extras) -> UCFun:
    return UCFun(space=space, modulus=modulus, name=name, _value_map=fn, **extras)


def cantor_fun(space: CompactSpace, bit_fn: Callable[[Callable[[int], int], int], int],
               modulus: LazySeq, name: str = "f", **extras) -> UCFun:
    """bit_fn(x, n) must read only x(0), .., x(n)."""
    return UCFun(space=space, modulus=modulus, name=name, _bit_map=bit_fn, **extras)
