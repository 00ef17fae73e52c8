"""Range predicates on N -> N functions and the translations between them.

For f : N -> N two auxiliary descriptions of its range circulate here:

* a characteristic function chi with chi(n) > 0 iff n is attained by f
  (the predicate `rho(f, chi)`), and
* a bounding function b such that n is attained iff it is attained at some
  index t <= b(n) (the predicate `beta(f, b)`).

Translating b into chi is plain computation (t_beta_to_rho). Translating chi
into b consumes zero-detection strength, so t_rho_to_beta returns per-index
search results rather than bare numbers, and refute_total_translator exhibits
the continuity obstruction facing any total translator in that direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Literal, Tuple

from .errors import RefutationFailedError, VerificationError
from .streams import (
    Exhausted,
    Found,
    FuelLike,
    LazySeq,
    OracleResult,
    UltimatelyConstantSeq,
    _bound,
    family_member,
    unpair_index,
)

__all__ = [
    "RangeAuxReport",
    "TranslatorCounterexample",
    "verify_range_aux",
    "t_beta_to_rho",
    "t_rho_to_beta",
    "translate_family",
    "bounding_b",
    "refute_total_translator",
    "VIOLATION_KINDS",
]

# beta-false-witness is part of the report vocabulary but is unreachable for
# total inputs: the backward implication of beta (bounded witness => member)
# is a tautology. It is kept so reports have a stable closed kind set.
VIOLATION_KINDS = ("rho-forward", "rho-backward", "beta-missing-witness", "beta-false-witness")


@dataclass
class RangeAuxReport:
    kind: str
    checked_up_to: int
    fuel: int
    violations: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "checked_up_to": self.checked_up_to,
            "fuel": self.fuel,
            "violations": [{"index": i, "kind": k} for i, k in self.violations],
        }


@dataclass
class TranslatorCounterexample:
    """A pair (f2, g2) with rho(f2, g2) valid on which the probed translator's
    output fails beta at failure_index."""

    f2: LazySeq
    g2: LazySeq
    b: int
    failure_index: int


def verify_range_aux(f: LazySeq, aux: LazySeq, kind: Literal["rho", "beta"],
                     n_max: int, fuel: FuelLike) -> RangeAuxReport:
    """Check the claimed predicate on indices n <= n_max.

    Soundness is one-sided: a reported violation is provable from the values
    inspected, while an empty report only says no violation surfaced within
    fuel. For rho, the forward kind flags a witnessed member that chi denies
    and the backward kind flags a claimed member with no witness below fuel.
    """
    b = _bound(fuel)
    report = RangeAuxReport(kind=kind, checked_up_to=n_max, fuel=b)
    for n in range(n_max + 1):
        witness = f.first_index(n, b)
        if kind == "rho":
            claimed = aux(n) > 0
            if witness is not None and not claimed:
                report.violations.append((n, "rho-forward"))
            elif claimed and witness is None:
                report.violations.append((n, "rho-backward"))
        else:
            # witness is the least attaining index, so comparing it against
            # aux(n) decides "no witness <= aux(n)" without a second scan
            if witness is not None and witness > aux(n):
                report.violations.append((n, "beta-missing-witness"))
    return report


def t_beta_to_rho(f: LazySeq, b: LazySeq) -> LazySeq:
    """chi(n) = 1 iff some t <= b(n) has f(t) = n. Total; when beta(f, b)
    holds this is the range characteristic of f."""
    return LazySeq(lambda n: 1 if f.first_index(n, b(n) + 1) is not None else 0,
                   name="t_beta_to_rho")


def t_rho_to_beta(f: LazySeq, chi: LazySeq,
                  fuel: FuelLike) -> Callable[[int], OracleResult]:
    """Per-index bounding values for a claimed characteristic function.

    Index n maps to Found(0) when chi denies membership, to the least witness
    below fuel when chi claims it and one exists, and otherwise to Exhausted:
    either chi is wrong at n or the fuel is too small. Returning per-index
    results keeps the usable indices of a partially wrong chi usable.
    """
    bounded = bounding_b(f, fuel)
    return lambda n: Found(0) if chi(n) == 0 else bounded(n)


def translate_family(f: LazySeq, aux: LazySeq, direction: Literal["beta->rho", "rho->beta"],
                     fuel: FuelLike):
    """Uniform-in-i translation of a pairing-encoded family.

    Members are f_i(n) = f(<i,n>) and aux_i(n) = aux(<i,n>). The result is a
    single sequence in the same encoding: a LazySeq for beta->rho, a map
    k -> OracleResult for rho->beta (that direction searches).
    """
    if direction == "beta->rho":
        def chi_at(k: int) -> int:
            i, n = unpair_index(k)
            return t_beta_to_rho(family_member(f, i), family_member(aux, i))(n)

        return LazySeq(chi_at, name="family-chi")

    b = _bound(fuel)

    def result_at(k: int) -> OracleResult:
        i, n = unpair_index(k)
        return t_rho_to_beta(family_member(f, i), family_member(aux, i), b)(n)

    return result_at


def bounding_b(f: LazySeq, fuel: FuelLike) -> Callable[[int], OracleResult]:
    """The bounding functional: n -> Found(t) with f(t) = n for some t below
    fuel, else Exhausted (an honest unknown: n may or may not be attained)."""
    b = _bound(fuel)

    def compute(n: int) -> OracleResult:
        t = f.first_index(n, b)
        return Found(t) if t is not None else Exhausted(b)

    return compute


def refute_total_translator(T: Callable[[LazySeq, LazySeq], LazySeq],
                            pad: int = 8) -> TranslatorCounterexample:
    """Build the continuity counterexample against a claimed total chi->b
    translator.

    Probe T on the garbage pair f1 = const 1, g2 = indicator of {0,1}; read
    b = T(f1,g2)(0); then present f2 agreeing with f1 through max(b, pad) but
    eventually zero, so that rho(f2, g2) genuinely holds. If T answers the
    same b at index 0 (as any continuous functional must on a deep enough
    agreement), that b misses f2's zeros and beta fails at index 0.

    Raises RefutationFailedError when T answers differently on the second
    probe: T inspected entries beyond the agreement window, i.e. behaved
    discontinuously, exactly the (exists^2)-strength escape hatch.
    """
    f1 = UltimatelyConstantSeq((), 1, name="const-1")
    g2 = UltimatelyConstantSeq((1, 1), 0, name="indicator-{0,1}")
    b = T(f1, g2)(0)
    cut = max(b, pad)
    f2 = UltimatelyConstantSeq((1,) * (cut + 1), 0, name=f"ones-through-{cut}")
    b2 = T(f2, g2)(0)
    if b2 != b:
        raise RefutationFailedError(b, b2)
    # beta(f2, T(f2,g2)) fails at 0: f2 has a zero, but none at any t <= b.
    if f2.first_index(0, b + 1) is not None:
        raise VerificationError(f"{f2.name} has a zero at or below the translator's bound {b}")
    return TranslatorCounterexample(f2=f2, g2=g2, b=b, failure_index=0)
