"""The benchmark's three workloads: seeded inputs, the operation, the checks.

A `Workload` is three functions:

* `make_round(rng)` draws one round of cases, plain data, from the seeded
  generator. Every round holds the same kinds of case in the same strata, so
  that runs of any length attempt whole rounds of the same operations.
* `run(case)` builds the program's inputs from the case and calls the
  library. This is the timed part.
* `check(case, out)` compares the outputs with facts the benchmark computes
  itself from the case (planted zeros, its own tables, closed forms and a
  pure-Python brute force). It returns a list of problems, empty when right.

The library is reached through module attributes (`banach_nat.verify_banach`,
`metric.modulus_of`, `cli.run`, ...) so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from banachkit import banach_nat, cli, metric, omniscience, ranges
from banachkit.metric import BitStream, CantorPoint, Dyadic, IntervalPoint
from banachkit.streams import Fuel, LazySeq, UltimatelyConstantSeq


@dataclass(frozen=True)
class Workload:
    make_round: Callable
    run: Callable
    check: Callable


def _stratum(rng, j: int, strata: int, size: int) -> int:
    """A value drawn from the j-th of `strata` equal slices of range(size)."""
    return rng.randrange(j * size // strata, (j + 1) * size // strata)


def _planted_zero(rng, k: int) -> Tuple[Tuple[int, ...], int]:
    """A prefix with its first zero at k and a random rest, and a tail value."""
    head = [rng.randint(1, 9) for _ in range(k)] + [0]
    head += [rng.randint(0, 9) for _ in range(rng.randrange(8))]
    return tuple(head), rng.randint(0, 3)


# ---------------------------------------------------------------------------
# banach-nat: the reversal Banach => LLPOmin through the gadget pair

N_MAX = 70
DEPTH = 4 * N_MAX
GADGET_ZEROS = 65      # first zero s in 0..64
ROUND_STRATA = 8


@dataclass(frozen=True)
class GadgetCase:
    s: int
    head: Tuple[int, ...]
    tail: int


@dataclass
class GadgetOut:
    h1: int
    forward: Dict[int, int]
    violations: list


def gadget_round(rng) -> List[GadgetCase]:
    cases = []
    for j in range(ROUND_STRATA):
        s = _stratum(rng, j, ROUND_STRATA, GADGET_ZEROS)
        cases.append(GadgetCase(s, *_planted_zero(rng, s)))
    return cases


def run_gadget(case: GadgetCase) -> GadgetOut:
    g = UltimatelyConstantSeq(case.head, case.tail)
    pair = banach_nat.gadget_llpo(g)
    h = banach_nat.banach_bijection_nat(pair, N_MAX)
    h1 = h(1)
    report = banach_nat.verify_banach(pair, h, N_MAX)
    return GadgetOut(h1, h.forward, report.violations)


def gadget_maps(s: int) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """The gadget's injections f0, f1 for a sequence whose first zero is s,
    written out from their definition rather than taken from the library."""

    def zero_below(n: int) -> Optional[int]:  # least zero among g(0..n-2)
        return s if s < n - 1 else None

    def f0(n: int) -> int:
        if n % 2 == 0:
            return n + 2
        if n == 1:
            return 0
        z = zero_below(n)
        if z is None:
            return n - 2
        if z % 2 == 0:
            return n - 2 if z == n - 3 else n
        return n - 2 if z == n - 2 else n

    def f1(n: int) -> int:
        if n % 2 == 0:
            return n
        if n == 1:
            return 1
        z = zero_below(n)
        if z is None:
            return n
        if z % 2 == 0:
            return n + 2
        return n if z == n - 2 else n + 2

    return f0, f1


def check_gadget(case: GadgetCase, out: GadgetOut) -> List[str]:
    problems = []
    if out.h1 != case.s % 2:
        problems.append(f"h(1) = {out.h1}, but the first zero {case.s} has parity {case.s % 2}")
    if set(out.forward) != set(range(DEPTH)):
        problems.append(f"domain is not 0..{DEPTH - 1}")
    f0, f1 = gadget_maps(case.s)
    seen: Dict[int, int] = {}
    for m, n in sorted(out.forward.items()):
        if n in seen:
            problems.append(f"not injective: {seen[n]} and {m} both map to {n}")
        seen[n] = m
        if f0(m) != n and f1(n) != m:
            problems.append(f"Banach condition fails at ({m}, {n})")
    if out.violations:
        problems.append(f"verify_banach reports {out.violations[:3]}")
    return problems


# ---------------------------------------------------------------------------
# realizers: every realizer and translator, the preimage selector and H

FUEL = 256
TABLE_LENGTH = 200
TABLE_VALUES = 160
TABLE_SHOW = 129
PREIMAGE_ZEROS = 33    # first zero of w in 0..32
PREIMAGE_M_MAX = 36
DYADIC_EXP = 10


@dataclass(frozen=True)
class RealizerCase:
    zero_head: Tuple[int, ...]     # first zero at k < FUEL
    zero_tail: int
    k: int
    parity_head: Tuple[int, ...]   # vanishes on the class p, tail 0
    p: int
    table: Tuple[int, ...]         # f(n) = table[n], then table_tail
    table_tail: int
    w_head: Tuple[int, ...]        # first zero at w_s <= 32
    w_tail: int
    w_s: int
    x_num: int                     # x = x_num / 2^DYADIC_EXP


@dataclass
class RealizerOut:
    llpomin_from_llpo: object
    llpomin_from_lpo: object
    grilliot: object
    llpo_from_llpomin: object
    llpo_from_lpo: object
    chi: List[int]
    beta: list
    preimage: BitStream
    h_point: object
    h_tag: str


def _parity_class_seq(rng, p: int, first_nonzero: int) -> Tuple[int, ...]:
    """Zero on the class p; on the other class zero until first_nonzero."""
    length = first_nonzero + 1 + 2 * rng.randrange(8)
    head = [0] * length
    for i in range(first_nonzero, length, 2):
        head[i] = rng.randint(1, 9)
    return tuple(head)


def realizer_round(rng) -> List[RealizerCase]:
    cases = []
    for j in range(ROUND_STRATA):
        k = _stratum(rng, j, ROUND_STRATA, FUEL)
        zero_head, zero_tail = _planted_zero(rng, k)
        p = j % 2
        first_nonzero = 2 * _stratum(rng, j, ROUND_STRATA, FUEL // 2) + (1 - p)
        w_s = _stratum(rng, j, ROUND_STRATA, PREIMAGE_ZEROS)
        w_head, w_tail = _planted_zero(rng, w_s)
        cases.append(RealizerCase(
            zero_head, zero_tail, k,
            _parity_class_seq(rng, p, first_nonzero), p,
            tuple(rng.randrange(TABLE_VALUES) for _ in range(TABLE_LENGTH)),
            rng.randrange(TABLE_VALUES),
            w_head, w_tail, w_s,
            rng.randrange((1 << DYADIC_EXP) + 1)))
    rng.shuffle(cases)
    return cases


def table_facts(table, tail) -> Tuple[set, Dict[int, int]]:
    """Range set and least witnesses of n -> table[n] (then tail)."""
    least: Dict[int, int] = {}
    for t, v in enumerate(tuple(table) + (tail,)):
        least.setdefault(v, t)
    return set(least), least


def run_realizers(case: RealizerCase) -> RealizerOut:
    fuel = Fuel(FUEL)

    def zero_seq():
        return UltimatelyConstantSeq(case.zero_head, case.zero_tail)

    def parity_seq():
        return UltimatelyConstantSeq(case.parity_head, 0)

    llpo = omniscience.llpo_from_llpomin(omniscience.llpomin_realizer())
    a = omniscience.llpomin_from_llpo(llpo)(zero_seq(), fuel)
    b = omniscience.llpomin_from_lpo(omniscience.lpo_realizer())(zero_seq(), fuel)
    c = omniscience.grilliot_lpo(omniscience.llpomin_realizer(), zero_seq(), fuel)
    d = llpo(parity_seq(), fuel)
    e = omniscience.llpo_from_lpo(omniscience.lpo_realizer())(parity_seq(), fuel)

    table, tail, n_table = case.table, case.table_tail, TABLE_LENGTH
    values, least = table_facts(table, tail)

    def table_fn():
        return LazySeq(lambda n: table[n] if n < n_table else tail, name="table")

    bounds = LazySeq(lambda n: least.get(n, 0), name="least-witness")
    chi = ranges.t_beta_to_rho(table_fn(), bounds)
    chi_values = [chi(n) for n in range(TABLE_SHOW)]
    exact_chi = LazySeq(lambda n: 1 if n in values else 0, name="range")
    beta = ranges.t_rho_to_beta(table_fn(), exact_chi, fuel)
    beta_values = [beta(n) for n in range(TABLE_SHOW)]

    w = UltimatelyConstantSeq(case.w_head, case.w_tail)
    F = metric.preimage_gadget(w)
    zero_point = CantorPoint(BitStream.constant(0))
    preimage = metric.preimage_select(F.space, F, zero_point, PREIMAGE_M_MAX).approx(2)

    Fh, Gh = metric.halving_gadget()
    x = IntervalPoint(Dyadic(case.x_num, DYADIC_EXP))
    res = metric.banach_H(Fh.space, Fh, Gh, x, DYADIC_EXP, Fuel(64))
    return RealizerOut(a, b, c, d, e, chi_values, beta_values, preimage,
                       res.point, res.tag)


def halving_law(x: Fraction) -> Tuple[Fraction, str]:
    """The back-and-forth bijection of the halving pair at x in [0, 1]: with
    k the least stage at which 2^(k-1) x exceeds 1/2, x goes to x/2 for odd k
    and to 2x for even k; 0, whose chain never leaves [0, 1/2], goes to 0."""
    if x == 0:
        return x, "via-F"
    k, y = 1, x
    while y <= Fraction(1, 2):
        y, k = 2 * y, k + 1
    return (x / 2, "via-F") if k % 2 == 1 else (2 * x, "via-G-inverse")


def _is_found(r, value: int) -> bool:
    return bool(r.found) and r.value == value


def check_realizers(case: RealizerCase, out: RealizerOut) -> List[str]:
    problems = []
    parity = case.k % 2
    for name in ("llpomin_from_llpo", "llpomin_from_lpo"):
        got = getattr(out, name)
        if not _is_found(got, parity):
            problems.append(f"{name}: {got}, first zero {case.k} has parity {parity}")
    if not _is_found(out.grilliot, 0):
        problems.append(f"grilliot_lpo: {out.grilliot}, but a zero exists at {case.k}")
    for name in ("llpo_from_llpomin", "llpo_from_lpo"):
        got = getattr(out, name)
        if not _is_found(got, case.p):
            problems.append(f"{name}: {got}, the sequence vanishes on class {case.p}")

    values, least = table_facts(case.table, case.table_tail)
    want_chi = [1 if n in values else 0 for n in range(TABLE_SHOW)]
    if out.chi != want_chi:
        bad = next(n for n in range(TABLE_SHOW) if out.chi[n] != want_chi[n])
        problems.append(f"t_beta_to_rho wrong at {bad}: {out.chi[bad]}")
    for n in range(TABLE_SHOW):
        if not _is_found(out.beta[n], least.get(n, 0)):
            problems.append(f"t_rho_to_beta at {n}: {out.beta[n]}, least witness "
                            f"{least.get(n, 'none (bound 0)')}")
            break

    if out.preimage.bit(0) != case.w_s % 2:
        problems.append(f"preimage bit {out.preimage.bit(0)}, first zero of w at {case.w_s}")

    x = Fraction(case.x_num, 1 << DYADIC_EXP)
    want, tag = halving_law(x)
    value = getattr(out.h_point, "value", None)
    got = Fraction(value.num, 1 << value.exp) if value is not None else None
    if got != want or out.h_tag != tag:
        problems.append(f"banach_H({x}) = {got} {out.h_tag}, want {want} {tag}")
    return problems


# ---------------------------------------------------------------------------
# modulus: in-process CLI modulus sweeps over the numpy all-pairs tables

MODULUS_FUNS = (("interval", "halving"), ("cantor", "padding"), ("cantor", "identity"))
# (space, function, level cap, calls per round). A sweep costs about three
# times more per level. Caps stop at 7: there a 512-row temporary of the
# all-pairs compares takes about 2 MB (512 x 518 int64), a core's L2 cache,
# and a round is short enough that each distinct call runs dozens of times in
# a run. A cap-10 sweep takes seconds on 17 MB temporaries, and its timings
# followed the host's slow stretches too closely to bound. At cap 6, padding costs
# about a third more than halving and identity, so the mix puts the median in
# the middle of the fourteen padding calls at cap 6, and the 90th percentile
# in the middle of the six padding calls at cap 7.
MODULUS_ROUND = (
    ("interval", "halving", 5, 4), ("cantor", "padding", 5, 3), ("cantor", "identity", 5, 3),
    ("interval", "halving", 6, 3), ("cantor", "identity", 6, 3), ("cantor", "padding", 6, 14),
    ("cantor", "identity", 7, 2), ("cantor", "padding", 7, 6), ("interval", "halving", 7, 2),
)
BRUTE_MAX_CAP = 7


@dataclass(frozen=True)
class ModulusCase:
    space: str
    fun: str
    cap: int
    max_level: int

    def argv(self) -> List[str]:
        return ["metric", "modulus", "--space", self.space, "--fun", self.fun,
                "--m-max", str(self.cap), "--max-level", str(self.max_level),
                "--format", "json"]


@dataclass
class ModulusOut:
    code: int
    stdout: str
    stderr: str


def modulus_round(rng) -> List[ModulusCase]:
    # the space cap --max-level does not change the sweep; it varies by seed
    cases = [ModulusCase(space, fun, cap, cap + rng.randrange(4))
             for space, fun, cap, times in MODULUS_ROUND for _ in range(times)]
    rng.shuffle(cases)
    return cases


def run_modulus(case: ModulusCase) -> ModulusOut:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(case.argv())
    return ModulusOut(code, out.getvalue(), err.getvalue())


def closed_form_modulus(fun: str, cap: int, m: int) -> int:
    """halving: M(m) = m. padding: a disagreement at t shows at 2t in the
    image, so M(m) = ceil(m/2). Cantor identity: m + 1, except that net
    words of length cap+1 disagree at index cap at the latest, so M(cap) = cap."""
    if fun == "halving":
        return m
    if fun == "padding":
        return (m + 1) // 2
    return min(m + 1, cap)


def _interval_net(cap: int, fun: str):
    """Distinct net values of levels 0..cap, as integers at scale 2^-(cap+1),
    and their images under x/2 or the identity at scale 2^-(cap+2)."""
    xs = list(range((1 << (cap + 1)) + 1))  # level j point i/2^(j+1) lies on the finest grid
    fs = xs if fun == "halving" else [2 * x for x in xs]
    return xs, cap + 1, fs, cap + 2


def _cantor_net(cap: int, fun: str):
    """Distinct net words of levels 0..cap (shorter words pad with zeros), as
    integers of width cap+1, and their images through index cap+1."""
    width = cap + 1
    xs = list(range(1 << width))

    def bit(x: int, i: int) -> int:
        return (x >> (width - 1 - i)) & 1 if i < width else 0

    def image(x: int) -> int:
        out = 0
        for i in range(width + 1):
            b = bit(x, i) if fun == "identity" else (bit(x, i // 2) if i % 2 == 0 else 0)
            out = (out << 1) | b
        return out

    return xs, width, [image(x) for x in xs], width + 1


@functools.lru_cache(maxsize=None)
def brute_modulus(space: str, fun: str, cap: int) -> Tuple[Optional[int], ...]:
    """M(0..cap) by scanning all pairs of net points in pure Python: M(m) is
    the least n <= cap such that every pair closer than 2^-n has images
    closer than 2^-(m+1). None where no n works."""
    if space == "interval":
        xs, xscale, fs, fscale = _interval_net(cap, fun)
    else:
        xs, xscale, fs, fscale = _cantor_net(cap, fun)
    # per pair: the least m at which its images are too far apart, and its
    # distance; keep the closest pair per m
    closest: List[Optional[int]] = [None] * (cap + 1)
    for a in range(len(xs)):
        xa, fa = xs[a], fs[a]
        for b in range(a + 1, len(xs)):
            if space == "interval":
                df = abs(fa - fs[b])
                if df == 0:
                    continue
                # |df| / 2^fscale >= 2^-(m+1)  <=>  m >= fscale - 1 - floor(log2 df)
                m_bad = max(0, fscale - df.bit_length())
                dist = abs(xa - xs[b])  # smaller is closer
            else:
                zf = fa ^ fs[b]
                if zf == 0:
                    continue
                t_img = fscale - zf.bit_length()   # first image disagreement
                m_bad = max(0, t_img - 1)          # d(f) >= 2^-(m+1) <=> t_img <= m+1
                dist = -(xscale - (xa ^ xs[b]).bit_length())  # later disagreement is closer
            if m_bad <= cap and (closest[m_bad] is None or dist < closest[m_bad]):
                closest[m_bad] = dist
    out: List[Optional[int]] = []
    best: Optional[int] = None
    for m in range(cap + 1):
        if closest[m] is not None and (best is None or closest[m] < best):
            best = closest[m]
        if best is None:
            out.append(0)
        elif space == "interval":
            # least n with 2^-n <= best / 2^xscale
            out.append(next((n for n in range(cap + 1) if (best << n) >= (1 << xscale)), None))
        else:
            t = -best  # the closest violating pair first disagrees at t
            out.append(t if t <= cap else None)
    return tuple(out)


def check_modulus(case: ModulusCase, out: ModulusOut) -> List[str]:
    if out.code != 0:
        return [f"exit code {out.code}: {out.stderr.strip()}"]
    try:
        report = json.loads(out.stdout.strip().splitlines()[-1])["output"]
        values, valid = report["modulus"], report["valid"]
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"unreadable report ({exc}): {out.stdout[:200]!r}"]
    problems = []
    if valid is not True:
        problems.append(f"valid is {valid!r}")
    want = [closed_form_modulus(case.fun, case.cap, m) for m in range(case.cap + 1)]
    if values != want:
        problems.append(f"modulus {values}, closed form {want}")
    if case.cap <= BRUTE_MAX_CAP:
        brute = list(brute_modulus(case.space, case.fun, case.cap))
        if values != brute:
            problems.append(f"modulus {values}, brute force {brute}")
    return problems


WORKLOADS = {
    "banach-nat": Workload(gadget_round, run_gadget, check_gadget),
    "realizers": Workload(realizer_round, run_realizers, check_realizers),
    "modulus": Workload(modulus_round, run_modulus, check_modulus),
}
