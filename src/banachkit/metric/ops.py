"""Range characteristic, preimage selector, modulus search, and the
back-and-forth Banach bijection on net-presented compact spaces.

The modulus search and its validity check read one profile over the
level-cap points per function and cap: for each closeness depth n, the
widest image gap among net points closer than 2^-n. Each M(m) and each
validity answer is then an integer compare against a power of two.

Every 2^-k comparison is decided exactly; where a target point is known only
through approximants, Cantor threshold tests are still exact (bits up to the
threshold index are determined by any deep enough approximant), while
interval tests use one guard level of slack, documented at the call sites.

Desk-scale honesty boundary: the classical range functional answers both
ways using full zero detection. Here a rejection is definite (a failed net
test at some level refutes membership outright), but a "still in range"
answer is a promise that grows with the checked level, unless the function
carries its own exact_range predicate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..errors import (
    CapExceededError,
    ConstructionStalledError,
    ExhaustionError,
    NoValidModulusError,
    RangeInconsistencyError,
)
from ..streams import FuelLike, LazySeq, _bound
from .dyadic import Dyadic
from .spaces import (
    ApproxPoint,
    CantorPoint,
    CompactSpace,
    IntervalPoint,
    Point,
    Value,
)
from .ucfun import UCFun

__all__ = [
    "RangeAnswer",
    "range_char",
    "preimage_select",
    "modulus_of",
    "modulus_valid",
    "BanachHResult",
    "banach_H",
    "apply_point",
]

VIA_F = "via-F"
VIA_G_INV = "via-G-inverse"


@dataclass(frozen=True)
class RangeAnswer:
    """Either a sound rejection at a witnessed level, or membership promised
    up to the checked level."""

    kind: str  # "definitely-out" | "in-range-up-to"
    level: int

    @property
    def out(self) -> bool:
        return self.kind == "definitely-out"

    @property
    def in_range(self) -> bool:
        return not self.out

    def to_json(self) -> dict:
        return {"kind": self.kind, "level": self.level}


def _cantor_target_bits(y: Point, through: int) -> Callable[[int], int]:
    if isinstance(y, CantorPoint):
        return y.stream.bit
    # an approximant one level past `through` pins bits 0..through exactly;
    # a capped approximant can leave its very last guard bit soft
    level = min(through + 1, getattr(y, "m_max", through + 1))
    return y.approx(level).bit


def _interval_target(y: Point, m: int) -> Dyadic:
    if isinstance(y, IntervalPoint):
        return y.value
    level = min(m + 2, getattr(y, "m_max", m + 2))
    return y.approx(level)  # proxy with one guard level of slack


def _image_matches(X: CompactSpace, F: UCFun, level: int, i: int, y: Point, m: int) -> bool:
    """d(F(x_{level,i}), y) < 2^-m."""
    x = X.net_point(level, i)
    if X.kind == "cantor":  # a precision-indexed map: bit maps use find_witness
        yb = _cantor_target_bits(y, m)
        w = F.image_value(x, m + 2)
        return all(w.bit(n) == yb(n) for n in range(m + 1))
    # two guard levels for a decoded code; an interval_fun's image is exact
    return X.dist(F.precision_image(x, m + 2), _interval_target(y, m)) < Dyadic.pow2(-m)


def _net_witness_exists(X: CompactSpace, F: UCFun, level: int, y: Point, m: int) -> bool:
    if level > X.max_level:
        raise CapExceededError(f"modulus lookup {level} beyond the space cap {X.max_level}")
    if F.solver:
        return F.find_witness(level, (), _cantor_target_bits(y, m), m) is not None
    return any(_image_matches(X, F, level, i, y, m) for i in range(X.level_count(level)))


def range_char(X: CompactSpace, F: UCFun, y: Point, m_max: int) -> RangeAnswer:
    """For each m <= m_max test whether some level-h(m) net point maps
    strictly within 2^-m of y. The first failing m refutes membership; if
    none fails, membership is promised up to m_max.

    When F carries exact_range, a definite rejection is cross-checked against
    it; disagreement means the function object is inconsistent.
    """
    for m in range(m_max + 1):
        if not _net_witness_exists(X, F, F.modulus(m), y, m):
            if F.exact_range is not None and F.exact_range(y):
                raise RangeInconsistencyError(
                    f"{F.name}: net test refutes membership at level {m} "
                    "but exact_range claims it")
            return RangeAnswer("definitely-out", m)
    return RangeAnswer("in-range-up-to", m_max)


def preimage_select(X: CompactSpace, F: UCFun, y: Point, m_max: int) -> Point:
    """Select a rapidly converging preimage of y under F, level by level.

    approx(m) is the least-index net point at the padded-modulus level
    satisfying, verbatim: (1) its image lies strictly within 2^-m of y;
    (2) for every j with m < j <= m_max some deeper net point maps within
    2^-j of y while sitting strictly within 2^-(m+2) of the candidate;
    (3) it lies within 2^-m of the previous level's choice.

    Clause (2) is the bounded stand-in for the zero-detection lookahead that
    keeps each choice close to a true preimage; the caller owes the
    precondition that range_char(..., m_max) was not a rejection.

    Fuel artifact: with the lookahead cut at m_max, the top level or two can
    sit a guard bit farther from the true preimage than the unbounded
    construction allows; choose m_max a few levels above the precision
    actually consumed (more for maps that expand distances, like padding).
    """
    def pad(j: int) -> int:  # the padded-modulus level, within the space cap
        level = max(F.modulus(j), j + 3)
        if level > X.max_level:
            raise CapExceededError(f"padded modulus {level} beyond the space cap {X.max_level}")
        return level

    def candidates(m: int, prev: Optional[Value]):
        level = pad(m)
        if F.solver:
            fixed = prev.bits(m) if prev is not None else ()
            for i, _ in F.walk(level, fixed, _cantor_target_bits(y, m), m):
                yield X.net_point(level, i)
            return
        # double the radius so the superset covers the closed ball, then
        # filter with the exact <= test
        radius = Dyadic.pow2(-m)
        ids = (X.ids_in_ball(level, prev, radius.double()) if prev is not None
               else range(X.level_count(level)))
        for i in ids:
            x = X.net_point(level, i)
            if prev is not None and radius < X.dist(prev, x):
                continue
            if _image_matches(X, F, level, i, y, m):
                yield x

    def lookahead_ok(cand: Value, m: int, levels: List[int]) -> bool:
        if F.solver:
            # One search at j = m_max covers each j in (m, m_max]: its witness,
            # truncated or zero-padded to level pad(j), is a witness at j.
            # - causality: image bits 0..j read only input bits 0..j;
            # - pad(j) >= j+3 >= m+4, so the word keeps cand's bits 0..m+2
            #   and the witness's bits 0..j, hence its image bits 0..j;
            # - y's approximants at levels j+1 and m_max+1 agree on bits 0..j
            #   (the Point contract; past y's cap both are its last one).
            return not levels or F.find_witness(
                levels[-1], cand.bits(m + 3), _cantor_target_bits(y, m_max), m_max) is not None
        radius = Dyadic.pow2(-(m + 2))
        return all(
            any(X.dist(X.net_point(level, i), cand) < radius
                and _image_matches(X, F, level, i, y, j)
                for i in X.ids_in_ball(level, cand, radius))
            for j, level in enumerate(levels, m + 1))

    def compute_level(m: int, below: List[Value]) -> Value:
        prev = below[m - 1] if m > 0 else None
        levels = None
        for cand in candidates(m, prev):
            if levels is None:
                # the levels pad(j) for m < j <= m_max, built on the first
                # candidate: every cap is checked before any search, so a
                # level past the cap raises even where a smaller j would
                # already fail
                levels = [pad(j) for j in range(m + 1, m_max + 1)]
            if lookahead_ok(cand, m, levels):
                return cand
        raise ConstructionStalledError(m)

    return ApproxPoint(compute_level, m_max)


def _cap_images(X: CompactSpace, F: UCFun, cap: int) -> Tuple[List[int], int]:
    """Images of the level-cap net points in id order, as exact integers at
    one scale 2^-s (Python ints, so no width limit).

    The nets are nested, so these are all the net points of levels <= cap
    (a shorter Cantor word denotes itself padded with zeros). Interval
    images rescale exactly. Cantor images are the words of bits 0..cap+1,
    so s = cap+1, and two words XOR below 2^(s-m) exactly when they agree on
    bits 0..m. On both spaces an image distance below 2^-m is an integer gap
    below 2^(s-m).
    """
    ids = range(X.level_count(cap))
    if X.kind == "interval":
        images = [F.precision_image(X.net_point(cap, i), cap + 4) for i in ids]
        s = max(cap + 2, max(f.exp for f in images))
        return [f.scaled_int(s) for f in images], s
    if F.solver:
        words = [image for _, image in F.walk(cap, (), None, cap + 1)]
    else:
        words = [X.id_of(cap + 1, F.image_value(X.net_point(cap, i), cap + 1)) for i in ids]
    return words, cap + 1


def _profile(X: CompactSpace, F: UCFun, cap: int) -> Tuple[List[int], int]:
    """(gap, s): gap[n], for n <= cap, is the widest image gap at scale 2^-s
    among the net points of levels <= cap closer than 2^-n.

    Interval points closer than 2^-n lie in a run of 2^(cap+1-n) consecutive
    grid points; Cantor words closer than 2^-n share bits 0..n, a run of
    2^(cap-n) ids aligned on its length. Each pass doubles the run and takes
    its max and min, over lists of exact ints. On Cantor space max ^ min has
    the leading bit of the widest XOR in its run, which is all a power-of-two
    threshold reads.

    Memoized on F: the profile depends only on F, the space kind and the
    cap, so threads racing on it can at worst compute it twice.
    """
    key = (X.kind, cap)
    if key not in F._profiles:
        fs, s = _cap_images(X, F, cap)
        hi = lo = fs
        gap = [0] * (cap + 1)
        if X.kind == "interval":
            for n in range(cap, -1, -1):
                step = 1 << (cap - n)
                hi = list(map(max, hi, hi[step:]))
                lo = list(map(min, lo, lo[step:]))
                gap[n] = max(map(operator.sub, hi, lo))
        else:
            for n in range(cap - 1, -1, -1):  # gap[cap] = 0: runs of one id
                hi = list(map(max, hi[::2], hi[1::2]))
                lo = list(map(min, lo[::2], lo[1::2]))
                gap[n] = max(map(operator.xor, hi, lo))
        F._profiles[key] = (gap, s)
    return F._profiles[key]


def modulus_of(X: CompactSpace, F: UCFun, level_cap: int) -> LazySeq:
    """Recompute a modulus for F, ignoring its stored one: M(m) is the least
    n <= level_cap such that every pair of net points (all levels up to the
    cap, mixed) at distance below 2^-n has images within 2^-(m+1). It is read
    off the profile over the level-cap points, built once per F and cap.

    The half-step slack 2^-(m+1) in the search is what makes the result a
    genuine 2^-m modulus on the nets. Queries are capped at level_cap, since
    deeper image comparisons would be undetermined at this net resolution.
    """
    if level_cap > X.max_level:
        raise CapExceededError(f"level_cap {level_cap} beyond the space cap {X.max_level}")
    gap, s = _profile(X, F, level_cap)

    def value(m: int) -> int:
        if m > level_cap:
            raise CapExceededError(f"modulus query {m} beyond level_cap {level_cap}")
        for n, g in enumerate(gap):
            if g < 1 << (s - m - 1):
                return n
        raise NoValidModulusError(m, level_cap)

    return LazySeq(value, name=f"modulus({F.name})")


def modulus_valid(X: CompactSpace, F: UCFun, modulus: LazySeq, m: int, level_cap: int) -> bool:
    """The final verification: over ALL net pairs up to the cap, distance
    below 2^-modulus(m) forces image distance below 2^-m. It is read off the
    profile over the level-cap points; past the cap no two distinct net
    points are that close."""
    gap, s = _profile(X, F, level_cap)
    n = modulus(m)
    if n < 0:
        raise ValueError(f"modulus value {n} at {m} is negative")
    return n > level_cap or gap[n] < 1 << (s - m)


def apply_point(X: CompactSpace, F: UCFun, x: Point, m_max: int) -> Point:
    """F(x) as a point: the function's own exact action when it has one,
    else exact image bits / rounded exact values for exact-backed x, else
    the net action on x's approximants through the modulus."""
    if F.exact_apply is not None:
        return F.exact_apply(x)
    if isinstance(x, CantorPoint):
        return ApproxPoint(
            lambda m, _: F.image_value(x.stream, m), m_max)
    if isinstance(x, IntervalPoint):
        return ApproxPoint(
            lambda m, _: F.image_value(x.value, m), m_max)

    def compute(m: int, _below) -> Value:
        level = F.modulus(m + 1) + 1
        return X.round_value(F.image_value(x.approx(level), m + 1), m)

    return ApproxPoint(compute, m_max)


@dataclass
class BanachHResult:
    point: Point
    tag: str
    stage: Optional[int]  # first definite chain break, None when it never broke
    out_level: int

    def approx(self) -> Value:
        return self.point.approx(self.out_level)

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "stage": self.stage,
            "out_level": self.out_level,
            "approx": str(self.approx()),
        }


def _range_bit(X: CompactSpace, fn: UCFun, p: Point, m_max: int) -> int:
    if fn.exact_range is not None:
        return 1 if fn.exact_range(p) else 0
    ans = range_char(X, fn, p, m_max)
    if ans.out:
        return 0
    raise ExhaustionError(
        f"range of {fn.name} at the chain point is unresolved and no "
        "exact_range is available", m_max)


def _preimage_point(X: CompactSpace, fn: UCFun, p: Point, m_max: int) -> Point:
    if fn.exact_preimage is not None:
        return fn.exact_preimage(p)
    return preimage_select(X, fn, p, m_max)


def banach_H(X: CompactSpace, F: UCFun, G: UCFun, x: Point, out_level: int,
             fuel: FuelLike, m_max: Optional[int] = None) -> BanachHResult:
    """The bijection of the back-and-forth construction, evaluated at x.

    The chain alternately asks: is x in the range of G, is G^-1(x) in the
    range of F, and so on. The parity of the first definite "no" (stage n0)
    decides the direction: odd parity sends x along F, even parity sends it
    to its G-preimage. A chain confirmed in-range at every stage within fuel
    follows F, matching the never-halting branch of the construction.

    Each stage needs a definite range answer: the function's exact_range, or
    a net-test rejection. Anything weaker raises ExhaustionError rather than
    guessing (the honest stand-in for the zero-detection oracle).
    """
    b = _bound(fuel)
    if m_max is None:
        m_max = out_level + 2
    stage: Optional[int] = None
    current: Point = x
    for n in range(1, b + 1):
        fn = G if n % 2 == 1 else F
        if _range_bit(X, fn, current, m_max) == 0:
            stage = n
            break
        current = _preimage_point(X, fn, current, m_max)
    T = 1 if stage is None else stage % 2
    if T == 1:
        return BanachHResult(apply_point(X, F, x, max(out_level, m_max)),
                             VIA_F, stage, out_level)
    return BanachHResult(_preimage_point(X, G, x, m_max), VIA_G_INV, stage, out_level)
