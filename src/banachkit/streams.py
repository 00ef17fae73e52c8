"""Lazy infinite sequences over N and the fuel-bounded search functionals.

A LazySeq is a total deterministic function N -> N evaluated on demand and
memoized. It is the carrier for everything else in the package: inputs to
oracles, characteristic functions, bounding functions, Cantor points. The
memo is never trimmed, so its keys are exactly the indices read: the largest
key is the read horizon, and the memo size the number of evaluations.

Every bounded search of the form "least t < bound with s(t) = v" (witnesses,
bounding values, first zeros) goes through `LazySeq.first_index`. Each
sequence keeps one first-occurrence index over the prefix it has scanned, so
repeated searches cost no rereads. The index reads through the sequence's own
point query and reads exactly what a linear scan would: s(0..t) for the
answer t, or s(0..bound-1) when there is none.

A sequence may be shared between threads. A memo hit and a recorded index
answer take no lock: each is one dict lookup, atomic in CPython, and an entry
never changes once stored. Scans of the index run one at a time.

The classically non-computable functionals (zero detection, zero selection,
least zero) are made honest by an explicit search bound ("fuel"): a positive
answer is always backed by a witness below the bound, and the only way to get
a negative answer ("no zero anywhere") is a caller-supplied promise flag.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Union

from .errors import ParseError

__all__ = [
    "LazySeq",
    "UltimatelyConstantSeq",
    "Fuel",
    "OracleResult",
    "Found",
    "Exhausted",
    "prefix",
    "diagonal",
    "lpo",
    "mu0",
    "mu",
    "pair_index",
    "unpair_index",
    "parse_seq",
    "format_seq",
]


class LazySeq:
    """A total function N -> N, memoized, that threads may share. The memo
    is never trimmed: its keys are exactly the indices read.

    Reads take no lock. A memo hit is one `dict.get` on `_cache`, and a
    recorded `first_index` answer one on `_first`; CPython makes each atomic.
    Neither entry changes once stored: the generator is deterministic, it runs
    outside any lock, and of racing misses on one index the first `setdefault`
    wins; a `_first` entry is written once, under `_scan_lock`, and holds the
    least index of its value. `_scan_lock`, the only lock, serializes the
    scans, which update `_first` and `_scanned` together.

    `no_zero` and `all_zero` are caller-asserted promises about the whole
    (infinite) sequence; they are never derived from the generator. A found
    zero always beats a (then necessarily false) no_zero promise.
    """

    def __init__(self, generator: Callable[[int], int], *, name: str = "",
                 no_zero: bool = False, all_zero: bool = False):
        if no_zero and all_zero:
            raise ValueError("a sequence cannot promise both no_zero and all_zero")
        self._generator = generator
        self._cache: dict[int, int] = {}
        # first index of every value in s(0..scanned-1)
        self._first: dict[int, int] = {}
        self._scanned = 0
        self._scan_lock = threading.Lock()
        self.name = name
        self.no_zero = no_zero
        self.all_zero = all_zero

    def __call__(self, n: int) -> int:
        hit = self._cache.get(n)
        if hit is not None:
            return hit
        if n < 0:
            raise ValueError(f"sequence index must be nonnegative, got {n}")
        value = self._generator(n)
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"generator produced non-natural value {value!r} at {n}")
        return self._cache.setdefault(n, value)

    def first_index(self, value: int, bound: int) -> Optional[int]:
        """Least t < bound with s(t) = value, or None.

        Reads s(0..t) for the answer t, or s(0..bound-1) when there is none,
        and of those only the indices no earlier search has scanned.
        """
        t = self._first.get(value)
        if t is None:
            with self._scan_lock:
                # a scan that held the lock before this one may have recorded it
                t = self._first.get(value)
                if t is None:
                    for t in range(self._scanned, bound):
                        v = self(t)
                        self._first.setdefault(v, t)
                        self._scanned = t + 1
                        if v == value:
                            break
                    else:
                        return None
        return t if t < bound else None

    def with_no_zero_promise(self) -> "LazySeq":
        """Same sequence, with the caller's word that it has no zero."""
        return LazySeq(self, name=self.name, no_zero=True)

    def with_all_zero_promise(self) -> "LazySeq":
        """Same sequence, with the caller's word that it is identically zero."""
        return LazySeq(self, name=self.name, all_zero=True)

    def __repr__(self) -> str:
        tag = self.name or "LazySeq"
        flags = "".join(f for f, on in ((",no-zero", self.no_zero), (",all-zero", self.all_zero)) if on)
        return f"<{tag}{flags}>"


class UltimatelyConstantSeq(LazySeq):
    """Finite prefix followed by a constant tail; the literal form `v0,..,vk;t`."""

    def __init__(self, prefix: Sequence[int], tail: int, **kwargs):
        self.prefix = tuple(int(v) for v in prefix)
        self.tail = int(tail)
        if any(v < 0 for v in self.prefix) or self.tail < 0:
            raise ValueError("sequence values must be natural numbers")
        pre = self.prefix
        tl = self.tail
        super().__init__(lambda n: pre[n] if n < len(pre) else tl,
                         name=kwargs.pop("name", format_seq(pre, tl)), **kwargs)


@dataclass(frozen=True)
class Fuel:
    """Exclusive upper search bound; at least 1."""

    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError(f"fuel bound must be >= 1, got {self.bound}")


FuelLike = Union[Fuel, int]


def _bound(fuel: FuelLike) -> int:
    if isinstance(fuel, Fuel):
        return fuel.bound
    return Fuel(fuel).bound


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a fuel-bounded search: Found(value) or Exhausted(bound)."""

    found: bool
    value: int = 0
    bound: int = 0

    @property
    def exhausted(self) -> bool:
        return not self.found

    def unwrap(self) -> int:
        if not self.found:
            raise ValueError(f"no value: search exhausted at bound {self.bound}")
        return self.value

    def __repr__(self) -> str:
        return f"Found({self.value})" if self.found else f"Exhausted({self.bound})"


def Found(value: int) -> OracleResult:
    return OracleResult(True, value=value)


def Exhausted(bound: int) -> OracleResult:
    return OracleResult(False, bound=bound)


def prefix(s: LazySeq, n: int) -> List[int]:
    """First n values of s; evaluating them populates the cache."""
    return [s(i) for i in range(n)]


def diagonal(e: Callable[[int], LazySeq]) -> LazySeq:
    """Cantor's diagonal: g(m) = 1 - min(1, e(m)(m)), so g differs from every e(k) at k.

    Values other than 0/1 are clamped by the min, which keeps the operation
    total on arbitrary enumerations.
    """
    return LazySeq(lambda m: 1 - min(1, e(m)(m)), name="diagonal")


def lpo(s: LazySeq, fuel: FuelLike, *, no_zero_promise: bool = False) -> OracleResult:
    """Zero detector: the answer 0 means "a zero exists".

    Found(0) is witnessed by a zero below the fuel bound. Found(1) is issued
    only under the no-zero promise (the flag or the sequence's own promise);
    otherwise the honest answer is Exhausted.
    """
    b = _bound(fuel)
    if s.first_index(0, b) is not None:
        return Found(0)
    if no_zero_promise or s.no_zero:
        return Found(1)
    return Exhausted(b)


def mu0(s: LazySeq, fuel: FuelLike) -> OracleResult:
    """Zero selector: some index with value 0, found by ascending scan."""
    b = _bound(fuel)
    n = s.first_index(0, b)
    return Found(n) if n is not None else Exhausted(b)


def mu(s: LazySeq, fuel: FuelLike) -> OracleResult:
    """Least-zero selector, derived from mu0: the least t <= mu0(s) with s(t) = 0."""
    r = mu0(s, fuel)
    if not r.found:
        return r
    return Found(s.first_index(0, r.value + 1))


def pair_index(i: int, n: int) -> int:
    """Cantor pairing <i,n>; families are sequences with f(<i,n>) = f_i(n)."""
    s = i + n
    return s * (s + 1) // 2 + n


def unpair_index(k: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= k:
        s += 1
    n = k - s * (s + 1) // 2
    return s - n, n


def family_member(f: LazySeq, i: int) -> LazySeq:
    """View member i of a pairing-encoded family as its own sequence."""
    return LazySeq(lambda n: f(pair_index(i, n)), name=f"{f.name or 'family'}[{i}]")


def parse_seq(text: str) -> UltimatelyConstantSeq:
    """Parse the literal grammar `v0,v1,...,vk;t` (prefix may be empty: `;t`)."""
    semi = text.find(";")
    if semi < 0:
        raise ParseError(text, len(text), "';' separating prefix from constant tail")

    def parse_nat(tok: str, at: int) -> int:
        tok = tok.strip()
        if not tok or not (tok.isascii() and tok.isdigit()):
            raise ParseError(text, at, "unsigned decimal integer")
        return int(tok)

    head = text[:semi]
    values: list[int] = []
    if head.strip():
        at = 0
        for tok in head.split(","):
            values.append(parse_nat(tok, at))
            at += len(tok) + 1
    tail = parse_nat(text[semi + 1:], semi + 1)
    return UltimatelyConstantSeq(values, tail)


def format_seq(prefix_values: Iterable[int], tail: int) -> str:
    head = ",".join(str(v) for v in prefix_values)
    return f"{head};{tail}"
