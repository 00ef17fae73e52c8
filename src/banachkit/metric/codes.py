"""Decoding finite continuous-function codes into usable functions.

A code is an enumerated list of quintuples (n, a, r, b, s), read as: on the
open ball of radius r around the net point a, the function's value stays
within s of the net point b. Decoding evaluates f(x) at precision m as the b
of the first enumerated quintuple whose ball contains x and whose s is below
2^-(m+1).

Finite codes cannot be literally closed under the second-order coding
conditions, so consistency is checked in its pairwise form: whenever one
recorded ball lies inside another, the two value constraints must be
compatible (d(b, b') <= s + s').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import NotTotalError, VerificationError
from ..streams import LazySeq
from .dyadic import Dyadic
from .spaces import CompactSpace, Value
from .ucfun import UCFun

__all__ = ["CodeEntry", "decode_code", "check_code"]


@dataclass(frozen=True)
class CodeEntry:
    n: int
    a: Tuple[int, int]  # (level, id) in the domain space
    r: Dyadic
    b: Tuple[int, int]  # (level, id) in the same space: codes are of self-maps
    s: Dyadic


def _check_pairwise(entries: Sequence[CodeEntry], X: CompactSpace):
    avals = [X.net_point(*e.a) for e in entries]
    bvals = [X.net_point(*e.b) for e in entries]
    n = len(entries)
    if X.kind == "interval":
        # one power-of-two denominator makes the quadratic sweep integer
        # arithmetic (still exact)
        scale = 0
        for e in entries:
            scale = max(scale, e.r.exp, e.s.exp)
        for v in avals + bvals:
            scale = max(scale, v.exp)
        ai = [v.scaled_int(scale) for v in avals]
        bi = [v.scaled_int(scale) for v in bvals]
        rs = [e.r.scaled_int(scale) for e in entries]
        ss = [e.s.scaled_int(scale) for e in entries]
        for i in range(n):
            for j in range(n):
                if i != j and abs(ai[i] - ai[j]) + rs[j] < rs[i] \
                        and abs(bi[i] - bi[j]) > ss[i] + ss[j]:
                    _raise_inconsistent(i, j)
        return
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # ball of entry j inside ball of entry i forces compatible values
            if X.dist(avals[i], avals[j]) + entries[j].r < entries[i].r \
                    and X.dist(bvals[i], bvals[j]) > entries[i].s + entries[j].s:
                _raise_inconsistent(i, j)


def _raise_inconsistent(i: int, j: int):
    raise VerificationError(
        f"inconsistent code: entries {i} and {j} disagree by more than the "
        "coded slack on nested balls")


def decode_code(entries: Sequence[CodeEntry], X: CompactSpace) -> UCFun:
    """Decode a finite code into a UCFun.

    f(x) at precision m is the b of the first enumerated quintuple with
    d(x, a) < r and s < 2^-(m+1); a net point with no matching quintuple at
    some requested precision raises NotTotalError (the code is too sparse).

    The attached modulus is recomputed from the nets on first use, which is
    the honest option for a function known only through its code.
    """
    _check_pairwise(entries, X)
    frozen = list(entries)
    bvals = [X.net_point(*e.b) for e in frozen]
    avals = [X.net_point(*e.a) for e in frozen]

    def at_precision(x: Value, m: int) -> Value:
        slack = Dyadic.pow2(-m - 1)
        for e, av, bv in zip(frozen, avals, bvals):
            if e.s < slack and X.dist(x, av) < e.r:
                return bv
        raise NotTotalError(m)

    fn = UCFun(space=X, modulus=None, name="decoded", _precision_map=at_precision)  # type: ignore[arg-type]

    def modulus_at(m: int) -> int:
        from .ops import modulus_of  # the profile is memoized on fn
        return modulus_of(X, fn, X.max_level)(m)

    fn.modulus = LazySeq(modulus_at, name="decoded-modulus")
    return fn


def check_code(fn: UCFun, entries: Sequence[CodeEntry], X: CompactSpace) -> List[int]:
    """Witness the coding inequality d(f(a), b) <= s through approximants:
    for each quintuple, d(f(a)(M), b) <= s + 2^-M, at the deepest precision
    M <= s's scale + 2 that the finite code supports (the limit inequality
    cannot be tested directly, only its approximant form). Returns the
    indices of failing quintuples (empty = all witnessed)."""
    bad = []
    for idx, e in enumerate(entries):
        a, b = X.net_point(*e.a), X.net_point(*e.b)
        for M in range(e.s.exp + 2, -1, -1):
            try:
                fa = fn.precision_image(a, M)
            except NotTotalError:
                continue
            if X.dist(fa, b) > e.s + Dyadic.pow2(-M):
                bad.append(idx)
            break
        else:
            bad.append(idx)  # no precision evaluates at all
    return bad
