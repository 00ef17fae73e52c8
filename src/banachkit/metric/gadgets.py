"""The concrete maps driving the reversal arguments on [0,1] and Cantor space.

halving_gadget: both injections x -> x/2 on the unit interval; their chains
under the back-and-forth bijection double x until it escapes [0, 1/2].

padding_gadget: both injections insert a zero after every bit; the sigma_n
family (n copies of 10, then 11, then zeros) sits outside the range and
drives the bijection along the padding map.

preimage_gadget(w): a Cantor self-map whose preimage of the all-zero point
encodes the parity of the first zero of w in its leading bit.

The gadget functions carry their closed-form exact action, range predicate,
and preimage alongside the generic net action; the net algorithms are tested
against these closed forms.
"""

from __future__ import annotations

from typing import Tuple

from ..streams import LazySeq
from .dyadic import Dyadic
from .spaces import BitStream, CantorPoint, CantorSpace, IntervalPoint, UnitInterval
from .ucfun import UCFun, cantor_fun, interval_fun

__all__ = ["halving_gadget", "padding_gadget", "sigma_seq", "preimage_gadget",
           "identity_fun", "constant_fun"]

_IDENTITY = LazySeq(lambda k: k, name="identity")

HALF = Dyadic(1, 1)


def halving_gadget(max_level: int = 12) -> Tuple[UCFun, UCFun]:
    """Two copies of x -> x/2 on the unit interval, identity modulus,
    exact range [0, 1/2]."""
    space = UnitInterval(max_level)

    def build(name: str) -> UCFun:
        return interval_fun(
            space, lambda v: v.half(), _IDENTITY, name=name,
            exact_apply=lambda p: IntervalPoint(_ival(p).half()),
            exact_range=lambda p: _ival(p) <= HALF,
            exact_preimage=_halving_preimage,
        )

    return build("halve-f"), build("halve-g")


def _ival(p) -> Dyadic:
    if not isinstance(p, IntervalPoint):
        raise TypeError("exact interval predicate needs an exact-backed point")
    return p.value


def _halving_preimage(p) -> IntervalPoint:
    v = _ival(p)
    if HALF < v:
        raise ValueError(f"{v} is not in the range [0, 1/2] of halving")
    return IntervalPoint(v.double())


def padding_gadget(max_level: int = 40) -> Tuple[UCFun, UCFun]:
    """Two copies of the zero-interleaving map on Cantor space.

    The generous level cap is safe here: Cantor levels are never
    materialized, and the witness searches prune through the bit function.
    """
    space = CantorSpace(max_level)

    def pad_bit(x, n: int) -> int:
        return x(n // 2) if n % 2 == 0 else 0

    def build(name: str) -> UCFun:
        return cantor_fun(
            space, pad_bit, _IDENTITY, name=name,
            exact_apply=lambda p: CantorPoint(_pad_stream(_cval(p))),
            exact_range=lambda p: _odd_bits_vanish(_cval(p)),
            exact_preimage=lambda p: CantorPoint(_unpad_stream(_cval(p))),
        )

    return build("pad-f"), build("pad-g")


def _cval(p) -> BitStream:
    if not isinstance(p, CantorPoint):
        raise TypeError("exact Cantor predicate needs an exact-backed point")
    return p.stream


def _pad_stream(s: BitStream) -> BitStream:
    inter = lambda bits: tuple(b for bit in bits for b in (bit, 0))
    return BitStream(inter(s.prefix), inter(s.cycle))


def _unpad_stream(s: BitStream) -> BitStream:
    if not _odd_bits_vanish(s):
        raise ValueError("point is not in the range of the padding map")
    c = len(s.cycle)
    m0 = len(s.prefix) + c
    return BitStream(tuple(s.bit(2 * m) for m in range(m0)),
                     tuple(s.bit(2 * (m0 + i)) for i in range(c)))


def _odd_bits_vanish(s: BitStream) -> bool:
    # one aligned double-cycle window past the prefix decides all odd indices
    horizon = len(s.prefix) + 2 * len(s.cycle)
    return all(s.bit(i) == 0 for i in range(1, horizon, 2))


def sigma_seq(n: int) -> CantorPoint:
    """n copies of 10, then 11, then zeros; the double 1 keeps the point out
    of the padding map's range."""
    return CantorPoint(BitStream((1, 0) * n + (1, 1), (0,)))


def preimage_gadget(w: LazySeq, max_level: int = 40) -> UCFun:
    """The Cantor self-map controlling the preimage of the all-zero point.

    Output bit 0 is 0. At every other position the input bit (or its flip,
    when the leading input bit is 1) passes through, except at the position
    just past the least zero of w, which broadcasts the leading input bit or
    its flip according to that zero's parity. Bit n reads only w(0..n) and
    x(0..n), so the identity is a modulus.
    """
    space = CantorSpace(max_level)

    def bit_fn(x, n: int) -> int:
        if n == 0:
            return 0
        least = w.first_index(0, n)  # least zero among w(0..n-1), if any
        if least == n - 1:
            return x(0) if (n - 1) % 2 == 0 else 1 - x(0)
        return x(n) if x(0) == 0 else 1 - x(n)

    return cantor_fun(space, bit_fn, _IDENTITY, name="preimage-gadget")


def identity_fun(space) -> UCFun:
    if isinstance(space, UnitInterval):
        return interval_fun(space, lambda v: v, _IDENTITY, name="identity",
                            exact_apply=lambda p: p,
                            exact_range=lambda p: True,
                            exact_preimage=lambda p: p)
    return cantor_fun(space, lambda x, n: x(n), _IDENTITY, name="identity",
                      exact_apply=lambda p: p,
                      exact_range=lambda p: True,
                      exact_preimage=lambda p: p)


def constant_fun(space, value) -> UCFun:
    zero_mod = LazySeq(lambda k: 0, name="zero")
    if isinstance(space, UnitInterval):
        return interval_fun(space, lambda v: value, zero_mod, name="constant")
    return cantor_fun(space, lambda x, n: value.bit(n), zero_mod, name="constant")
