"""Realizers for the omniscience principles and their interreductions.

Conventions fixed here, used everywhere else:

* Zero detection answers 0 exactly when a zero exists; the Grilliot
  composition below is only correct under this convention.
* The parity realizer (llpomin) answers the parity of the first zero. Its
  value on zero-free inputs is unconstrained; under an explicit no-zero
  promise we fix the answer 0, the leftmost branch of the path-search view.

Promise flags travel through the preprocessing maps by construction: mapping
through h (which swaps zero and nonzero) turns a no-zero promise into an
all-zero promise and vice versa. These propagations are sound because the
maps prove them, not because anyone re-scanned the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from .errors import NoPathError, NotATreeError
from .streams import (
    Exhausted,
    Found,
    Fuel,
    FuelLike,
    LazySeq,
    OracleResult,
    UltimatelyConstantSeq,
    _bound,
    lpo,
)

__all__ = [
    "Realizer",
    "Reduction",
    "llpomin",
    "lpo_realizer",
    "llpomin_realizer",
    "llpo_from_llpomin",
    "llpomin_from_llpo",
    "llpomin_from_lpo",
    "llpo_from_lpo",
    "compose_reduction",
    "reduction_llpo_to_llpomin",
    "reduction_llpomin_to_llpo",
    "reduction_llpomin_to_lpo",
    "grilliot_lpo",
    "wkl_search",
    "llpomin_via_wkl",
    "h_map",
    "j_map",
    "phi_map",
]


@dataclass(frozen=True)
class Realizer:
    """A named total-with-promise functional (LazySeq, Fuel) -> OracleResult."""

    apply: Callable[[LazySeq, FuelLike], OracleResult]
    name: str

    def __call__(self, s: LazySeq, fuel: FuelLike) -> OracleResult:
        return self.apply(s, fuel)


@dataclass(frozen=True)
class Reduction:
    """A strong Weihrauch reduction: total computable pre and post parts.

    post receives the oracle's bit and the original instance but the named
    reductions below never read the instance (strong reductions must not).
    """

    pre: Callable[[LazySeq], LazySeq]
    post: Callable[[int, LazySeq], int]
    name: str


def _parity(n: int) -> int:
    return n % 2


def _w(n: int) -> int:
    """Postprocessing w(n) = 1 - (n mod 2), the parity complement on bits."""
    return 1 - (n % 2)


def llpomin(s: LazySeq, fuel: FuelLike) -> OracleResult:
    """Parity of the first zero of s below the fuel bound.

    Exhausted when no zero turns up and no promise is available; a no-zero
    promise yields the conventional answer 0.
    """
    b = _bound(fuel)
    k = s.first_index(0, b)
    if k is not None:
        return Found(_parity(k))
    if s.no_zero:
        return Found(0)
    return Exhausted(b)


def lpo_realizer() -> Realizer:
    return Realizer(lambda s, fuel: lpo(s, fuel), "LPO")


def llpomin_realizer() -> Realizer:
    return Realizer(llpomin, "LLPOmin")


def h_map(s: LazySeq) -> LazySeq:
    """Valuewise h with h(0) = 1 and h(v) = 0 otherwise; zeros of the image
    sit exactly at the nonzeros of s. Swaps the two promise flags."""
    return LazySeq(lambda n: 1 if s(n) == 0 else 0, name=f"h({s.name})",
                   no_zero=s.all_zero, all_zero=s.no_zero)


def j_map(s: LazySeq) -> LazySeq:
    """Freeze s to the constant 1 after its first zero; agrees with s through
    that zero. Preserves a no-zero promise (the map is then the identity)."""
    def gen(n: int) -> int:
        return 1 if s.first_index(0, n) is not None else s(n)

    return LazySeq(gen, name=f"J({s.name})", no_zero=s.no_zero)


def phi_map(s: LazySeq, scan_bound: Optional[int] = None) -> LazySeq:
    """The three-case preprocessing for the parity-from-zero-detection
    reduction: all ones, except eventually zero when the first zero of s sits
    at an even position.

    With a scan_bound, a no-zero promise is derived whenever the scan proves
    the image is all ones: either s promises no zero, or s's first zero below
    the bound is odd (then the image is all ones by construction).
    """

    def gen(n: int) -> int:
        k = s.first_index(0, n + 1)
        if k is None or k % 2 == 1:
            return 1
        return 0

    promise = s.no_zero
    if scan_bound is not None and not promise:
        k = s.first_index(0, scan_bound)
        if k is not None and k % 2 == 1:
            promise = True
    return LazySeq(gen, name=f"phi({s.name})", no_zero=promise)


def llpo_from_llpomin(R: Realizer) -> Realizer:
    """Lift a first-zero-parity realizer to the all-on-a-parity problem:
    w . R . h. Output k asserts s(2n+k) = 0 for all n, under the promise."""
    return compose_reduction(reduction_llpo_to_llpomin, R)


def llpomin_from_llpo(S: Realizer) -> Realizer:
    """Recover first-zero parity from an all-on-a-parity realizer:
    w . S . (h . J).

    The freeze J leaves at most one nonzero in h(J(s)), at the first zero of
    s, so the promise of the parity problem holds; S answers the parity class
    on which that image vanishes, which is the complement of the position's
    parity, and w flips it back.
    """
    return compose_reduction(reduction_llpomin_to_llpo, S)


def llpomin_from_lpo(L: Realizer) -> Realizer:
    """First-zero parity from a zero detector: L . phi with identity post.

    L answers 0 exactly when phi(s) has a zero, i.e. when s's first zero is
    even, so the bit is already the parity. The no-zero promise for the odd
    case is derived by phi_map from a scan of s below the fuel bound.
    """

    def apply(s: LazySeq, fuel: FuelLike) -> OracleResult:
        return L(phi_map(s, scan_bound=_bound(fuel)), fuel)

    return Realizer(apply, f"LLPOmin<-LPO[{L.name}]")


def llpo_from_lpo(L: Realizer) -> Realizer:
    """The all-on-a-parity realizer built from a zero detector, via the
    first-zero-parity core."""
    return llpo_from_llpomin(llpomin_from_lpo(L))


def compose_reduction(red: Reduction, R_Q: Realizer) -> Realizer:
    """The composition x -> post(R_Q(pre(x)), x)."""

    def apply(s: LazySeq, fuel: FuelLike) -> OracleResult:
        r = R_Q(red.pre(s), fuel)
        return Found(red.post(r.value, s)) if r.found else r

    return Realizer(apply, f"{red.name}∘{R_Q.name}")


reduction_llpo_to_llpomin = Reduction(
    pre=h_map, post=lambda n, _s: _w(n), name="LLPO<=sW LLPOmin")

reduction_llpomin_to_llpo = Reduction(
    pre=lambda s: h_map(j_map(s)), post=lambda n, _s: _w(n), name="LLPOmin<=sW LLPO")

# The pure reduction carries no derived promise (pre must stay oracle-free
# and fuel-free); the odd-first-zero case then honestly exhausts. The
# operation llpomin_from_lpo adds the scan-derived promise.
reduction_llpomin_to_lpo = Reduction(
    pre=phi_map, post=lambda n, _s: n, name="LLPOmin<=sW LPO")


def grilliot_lpo(R: Realizer, h: LazySeq, fuel: FuelLike) -> OracleResult:
    """Zero detection from any first-zero-parity realizer, by Grilliot's trick.

    With f all ones and r = R(f), the family g_i of 1 + r + 2i ones followed
    by zeros satisfies R(g_i) != r for every i, because the realizer must
    answer the parity 1 - r of g_i's first zero. Sending h to J(h) = g_i when
    h's first zero is i (and to f itself when h has none) makes
    1 - |R(J(h)) - r| the zero detector (0 exactly when h has a zero).

    The inner calls run at fuel 2b + 2 where b is the given bound: g_i's
    first zero can sit as deep as 2b.
    """
    b = _bound(fuel)
    inner = Fuel(2 * b + 2)
    f = UltimatelyConstantSeq((), 1, name="all-ones").with_no_zero_promise()
    r_res = R(f, inner)
    if not r_res.found:
        return Exhausted(b)
    r = _parity(r_res.value)

    i = h.first_index(0, b)
    if i is None:
        if not h.no_zero:
            return Exhausted(b)
        jh: LazySeq = f
    else:
        jh = UltimatelyConstantSeq((1,) * (1 + r + 2 * i), 0, name=f"g_{i}")
    s_res = R(jh, inner)
    if not s_res.found:
        return Exhausted(b)
    return Found(1 - abs(_parity(s_res.value) - r))


def grilliot_witness_family(R: Realizer, count: int, fuel: FuelLike) -> list[LazySeq]:
    """The g_n family witnessing sequential discontinuity of R at all-ones."""
    f = UltimatelyConstantSeq((), 1).with_no_zero_promise()
    r = _parity(R(f, fuel).unwrap())
    return [UltimatelyConstantSeq((1,) * (1 + r + 2 * n), 0, name=f"g_{n}")
            for n in range(count)]


TreePredicate = Union[Callable[[Tuple[int, ...]], bool], object]


def _member_fn(T: TreePredicate) -> Callable[[Tuple[int, ...]], bool]:
    member = getattr(T, "member", None)
    return member if callable(member) else T  # type: ignore[return-value]


CLOSURE_PROBES = 32


def wkl_search(T: TreePredicate, depth: int) -> Optional[Tuple[int, ...]]:
    """Leftmost member of length `depth` in a 0/1 tree predicate, or None.

    Leftmost-first depth search; the path-selector of the uniform tree
    principle is an arbitrary choice, fixed here to leftmost for determinism.
    At up to CLOSURE_PROBES dead ends, both one-bit extensions are probed and
    a member extension of a non-member raises NotATreeError (the predicate is
    not downward closed).
    """
    member = _member_fn(T)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not member(()):
        return None
    path: list[int] = []
    pending: list[int] = [0]
    probes = 0
    while pending:
        if len(path) == depth:
            return tuple(path)
        bit = pending[-1]
        if bit > 1:
            pending.pop()
            if path:
                path.pop()
            continue
        pending[-1] += 1
        candidate = (*path, bit)
        if member(candidate):
            path.append(bit)
            pending.append(0)
        elif probes < CLOSURE_PROBES:
            # sample the constant-fill extensions of this dead end: any
            # member among them witnesses a downward-closure violation
            probes += 1
            for fill in (0, 1):
                ext = candidate
                while len(ext) < depth:
                    ext = (*ext, fill)
                    if member(ext):
                        raise NotATreeError(
                            f"{ext} is a member but its prefix {candidate} is not")
    return None


def llpomin_via_wkl(s: LazySeq, depth: int) -> int:
    """First-zero parity read off the branch structure of the tree whose
    c-branch (for c in {0,1}) survives at level n exactly while no zero has
    appeared in s(0..n) or the least one has parity c.

    Only strings of the form c followed by ones are members. The tree is
    always infinite, so the bounded search cannot fail; the first bit of the
    leftmost depth-length branch equals the first-zero parity whenever s has
    a zero below depth - 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def member(sigma: Tuple[int, ...]) -> bool:
        if not sigma:
            return True
        if any(b != 1 for b in sigma[1:]) or sigma[0] not in (0, 1):
            return False
        n = len(sigma) - 1
        k = s.first_index(0, n + 1)
        return k is None or _parity(k) == sigma[0]

    path = wkl_search(member, depth)
    if path is None:
        raise NoPathError("the parity tree is always infinite")  # pragma: no cover
    return path[0]
