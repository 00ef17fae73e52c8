"""Uniformly continuous self-maps of a net-presented space.

A UCFun acts on net points at a requested output precision and carries a
modulus sequence. It has one of two forms:

* a precision map, f(v, m): a value within 2^-(m+1) of the image of the
  net value v. decode_code builds one from a finite code; interval_fun
  wraps an exact map on dyadics as a precision map that ignores m.
* a causal Cantor bit map (cantor_fun): output bit n reads input bits
  0..n only (so the identity is always a valid modulus). The contract is
  checked: a bit map that reads a later input bit raises VerificationError.
  Only this form is a solver, with witness searches over input prefixes.

A Cantor bit function is evaluated in one place, `UCFun.walk`: a depth-first
walk over input prefixes that computes image bit d once per prefix of length
d+1. One image (a walk with a single leaf), the images of a net level and the
witness searches all read it. A search fixes an input prefix and checks each
image bit against a target once computed, so for the rigid maps used here it
prunes at once instead of enumerating the exponentially large net.

exact_apply / exact_range / exact_preimage, when present, give the function's
own closed-form action on exact points; the generic net algorithms never
require them, but the exact bijection values in the acceptance suite do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

from ..errors import VerificationError
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

    # the function's form, one of the two in the module docstring
    _bit_map: Optional[Callable[[Callable[[int], int], int], int]] = None
    _precision_map: Optional[Callable[[Value, int], Value]] = None
    # modulus profiles by (space kind, level cap); see ops.modulus_of
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def image_value(self, v: Value, out_level: int) -> Value:
        """The level-out_level representative of F(v), exactly."""
        if self._precision_map is not None:
            return self.space.round_value(self._precision_map(v, out_level), out_level)
        if not isinstance(v, BitStream):
            raise TypeError(f"expected a bit stream, got {v!r}")
        # image bits 0..out_level read input bits 0..out_level only, so the
        # stream's own prefix pins the walk to a single leaf
        (_, image), = self.walk(out_level, v.bits(out_level + 1), None, out_level)
        return self.space.net_point(out_level, image)

    def precision_image(self, v: Value, m: int) -> Value:
        """f(v)(m), unrounded, for a precision map; an interval_fun gives the
        exact image at every m."""
        if self._precision_map is None:
            raise TypeError(f"{self.name} has no precision-indexed image")
        return self._precision_map(v, m)

    @property
    def solver(self) -> bool:
        return self._bit_map is not None

    def find_witness(self, level: int, fixed_prefix: Sequence[int],
                     y_bits: Callable[[int], int], through: int) -> Optional[int]:
        """Least net id at `level` extending fixed_prefix whose image agrees
        with y through the given index, or None."""
        return next((i for i, _ in self.walk(level, fixed_prefix, y_bits, through)), None)

    def walk(self, level: int, fixed_prefix: Sequence[int],
             y_bits: Optional[Callable[[int], int]], through: int) -> Iterator[Tuple[int, int]]:
        """(id, image) for each net word at `level` that extends fixed_prefix
        and whose image agrees with y_bits on indices 0..through (every such
        word when y_bits is None), in ascending id order. The image is its
        bits 0..through read as a binary integer, bit 0 leading.

        Depth-first over input prefixes, 0 before 1, on an explicit stack
        (levels can exceed the recursion limit). Image bit d is computed once
        per prefix of length d+1 and checked at once, pruning the subtree on
        a mismatch; image bits past the word read its zero tail. The probe
        raises VerificationError when the bit function, computing output bit
        n, reads an input bit past n.
        """
        bit_map = self._bit_map
        if bit_map is None:
            raise TypeError(f"{self.name} is not a Cantor bit map")
        fixed = tuple(fixed_prefix)
        if len(fixed) > level + 1:
            raise ValueError("fixed prefix longer than the word")
        # the node: input bits 0..depth as the integer `word`; n is the
        # output bit being computed
        depth = word = n = 0

        def probe(i: int) -> int:
            if i > n:
                raise VerificationError(f"{self.name}: output bit {n} read input bit {i}")
            # a net word denotes itself followed by zeros
            return (word >> (depth - i)) & 1 if i <= depth else 0

        def children(d: int, w: int, image: int) -> list:
            # pushed 1 first, so that 0 pops first and ids come out ascending
            bits = (fixed[d],) if d < len(fixed) else (1, 0)
            return [(d, (w << 1) | b, image) for b in bits]

        stack = children(0, 0, 0)
        while stack:
            depth, word, image = stack.pop()
            top = through if depth == level else min(depth, through)
            for n in range(depth, top + 1):
                bit = bit_map(probe, n)
                if y_bits is not None and bit != y_bits(n):
                    break
                image = (image << 1) | bit
            else:
                if depth == level:
                    yield word, image
                else:
                    stack.extend(children(depth + 1, word, image))


def interval_fun(space: CompactSpace, fn: Callable[[Dyadic], Dyadic],
                 modulus: LazySeq, name: str = "f", **extras) -> UCFun:
    """fn is exact, so the precision map ignores the precision."""
    return UCFun(space=space, modulus=modulus, name=name,
                 _precision_map=lambda v, m: fn(v), **extras)


def cantor_fun(space: CompactSpace, bit_fn: Callable[[Callable[[int], int], int], int],
               modulus: LazySeq, name: str = "f", **extras) -> UCFun:
    """bit_fn(x, n) must read only x(0), .., x(n); UCFun.walk, which makes
    every call, raises VerificationError when it reads further."""
    return UCFun(space=space, modulus=modulus, name=name, _bit_map=bit_fn, **extras)
