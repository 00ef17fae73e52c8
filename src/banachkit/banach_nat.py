"""Banach bijections on N from bounded injections, via the four-clause tree.

Given injections f0, f1 with bounding functions b0, b1, a 0/1 string sigma
describes a candidate bijection: sigma(m) = 0 sends m along f0, sigma(m) = 1
sends m to the least bounded f1-preimage of m. Membership in the tree is the
conjunction of four clauses: two forcing clauses pinning elements that a
source of a chain reaches, and two exclusion clauses making the result
injective and surjective. Any infinite path yields a Banach bijection; at
desk scale we take the leftmost path of a fixed depth.

An independent chain-tracing oracle (classical Koenig-style back-and-forth)
cross-checks the direction the tree assigns to each element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from .errors import IllDefinedError, NoPathError, VerificationError
from .streams import FuelLike, LazySeq, _bound

__all__ = [
    "BoundedInjPair",
    "PartialBijection",
    "ChainClassification",
    "BanachReport",
    "tree_member",
    "path_to_bijection",
    "banach_bijection_nat",
    "chain_trace",
    "gadget_llpo",
    "unbounded_pair",
    "verify_banach",
    "render_chain_diagram",
    "VIA_F0",
    "VIA_F1_INV",
]

VIA_F0 = "via-f0"
VIA_F1_INV = "via-f1-inverse"


@dataclass
class BoundedInjPair:
    """Two injections with bounding functions, checked on a finite prefix.

    verified_prefix bounds the eager sanity check only: injectivity and
    bounding soundness on [0, verified_prefix). The functional stays total on
    garbage inputs; deeper violations surface later in banach_bijection_nat,
    as NoPathError or as the plain VerificationError of a non-injective map.
    """

    f0: LazySeq
    f1: LazySeq
    b0: LazySeq
    b1: LazySeq
    verified_prefix: int = 8

    def __post_init__(self):
        vp = self.verified_prefix
        for tag, f, b in (("f0", self.f0, self.b0), ("f1", self.f1, self.b1)):
            seen: Dict[int, int] = {}
            for t in range(vp):
                v = f(t)
                if v in seen:
                    raise VerificationError(
                        f"{tag} is not injective on the verified prefix: "
                        f"{tag}({seen[v]}) = {tag}({t}) = {v}")
                seen[v] = t
            for n in range(vp):
                t0 = seen.get(n)
                if t0 is not None and t0 > b(n):
                    raise VerificationError(
                        f"bounding failure: {tag}({t0}) = {n} but the bound is {b(n)}")

    def f0_preimage(self, n: int) -> Optional[int]:
        """The least t <= b0(n) with f0(t) = n, or None."""
        return self.f0.first_index(n, self.b0(n) + 1)

    def f1_preimage(self, n: int) -> Optional[int]:
        """The least t <= b1(n) with f1(t) = n, or None."""
        return self.f1.first_index(n, self.b1(n) + 1)


@dataclass
class PartialBijection:
    """A finite injective map with, per pair, which injection justified it."""

    forward: Dict[int, int]
    tags: Dict[int, str]

    def __post_init__(self):
        targets: Dict[int, int] = {}
        for m, n in self.forward.items():
            if n in targets:
                raise VerificationError(
                    f"not injective: {targets[n]} and {m} both map to {n}")
            targets[n] = m

    def __call__(self, m: int) -> int:
        return self.forward[m]

    def to_json(self) -> list:
        return [[m, self.forward[m], self.tags[m]] for m in sorted(self.forward)]


def tree_member(p: BoundedInjPair, sigma: Sequence[int]) -> bool:
    """The four clauses, checked verbatim on a finite 0/1 string.

    (i)   m with no f1-witness within b1(m) must have sigma(m) = 0.
    (ii)  m = f1(t) for the least bounded witness t, with t itself not
          f0-attained within b0(t), must have sigma(m) = 1.
    (iii) sigma(m) = 0 and sigma(n) = 1 forbid f1(f0(m)) = n  (injectivity).
    (iv)  sigma(m) = 0 and sigma(n) = 1 forbid f1(f0(n)) = m  (surjectivity).

    When several bounded f1-witnesses exist, clause (ii) reads the least one;
    on the verified prefix injectivity of f1 makes the witness unique anyway.
    """
    L = len(sigma)
    f0, f1 = p.f0, p.f1
    for m in range(L):
        if sigma[m] not in (0, 1):
            return False
        t = p.f1_preimage(m)
        if t is None:
            if sigma[m] != 0:
                return False
        else:
            if p.f0_preimage(t) is None and sigma[m] != 1:
                return False
    # (iii) and (iv) are vacuous unless sigma takes both bits, and only then
    # do they read the pointer q(m) = f1(f0(m))
    if 0 not in sigma or 1 not in sigma:
        return True
    for m in range(L):
        if sigma[m] == 0:
            n = f1(f0(m))
            if n < L and sigma[n] == 1:
                return False  # clause (iii)
    for n in range(L):
        if sigma[n] == 1:
            m = f1(f0(n))
            if m < L and sigma[m] == 0:
                return False  # clause (iv)
    return True


def path_to_bijection(p: BoundedInjPair, path: Sequence[int]) -> PartialBijection:
    """Convert a tree path to the bijection it describes: f0(m) where the bit
    is 0, the least bounded f1-preimage of m where it is 1."""
    forward: Dict[int, int] = {}
    tags: Dict[int, str] = {}
    for m, bit in enumerate(path):
        if bit == 0:
            forward[m] = p.f0(m)
            tags[m] = VIA_F0
        else:
            t = p.f1_preimage(m)
            if t is None:
                raise IllDefinedError(m)
            forward[m] = t
            tags[m] = VIA_F1_INV
    return PartialBijection(forward, tags)


def _solve_leftmost(p: BoundedInjPair, depth: int) -> Optional[List[int]]:
    """Leftmost depth-length tree path, computed in closed form.

    Clauses (iii) and (iv) together say exactly that sigma is constant along
    the pointer q(m) = f1(f0(m)): for q(m) = n != m they forbid both mixed
    assignments of (m, n). So the full-depth members are the assignments that
    are constant on pointer components and respect the (i)/(ii) forcings, and
    the leftmost one gives every unforced component the bit 0. Equivalence
    with the verbatim clause check is exercised by the test suite against the
    generic tree search.
    """
    f0, f1 = p.f0, p.f1
    forced: List[Optional[int]] = [None] * depth
    for m in range(depth):
        t = p.f1_preimage(m)
        if t is None:
            forced[m] = 0
        elif p.f0_preimage(t) is None:
            forced[m] = 1

    parent = list(range(depth))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in range(depth):
        q = f1(f0(m))
        if q < depth and q != m:
            ra, rb = find(m), find(q)
            if ra != rb:
                parent[ra] = rb

    comp_value: Dict[int, int] = {}
    for m in range(depth):
        v = forced[m]
        if v is None:
            continue
        r = find(m)
        if comp_value.setdefault(r, v) != v:
            return None  # oppositely forced component: no full-depth member
    return [comp_value.get(find(m), 0) for m in range(depth)]


def banach_bijection_nat(p: BoundedInjPair, n_max: int,
                         depth: Optional[int] = None) -> PartialBijection:
    """Leftmost-path Banach bijection on the window [0, depth).

    depth defaults to 4 * n_max, which is safely above the distance the
    forcing clauses propagate in the constructions used here. The map
    satisfies the Banach condition by construction and is injective; a pair
    broken past its verified prefix raises NoPathError or, for a
    non-injective map, a plain VerificationError (the CLI exits 1 on both).
    """
    if depth is None:
        depth = 4 * n_max
    if depth < n_max:
        raise ValueError(f"depth {depth} must be at least n_max {n_max}")
    sigma = _solve_leftmost(p, depth)
    if sigma is None:
        raise NoPathError(
            "the clause tree has no branch of the requested depth; "
            "the input pair violates its injection or bounding invariants")
    # spot-check the closed form against the verbatim clauses on a prefix
    head = min(depth, 48)
    if not tree_member(p, sigma[:head]):
        raise VerificationError("leftmost path failed the verbatim clauses")
    return path_to_bijection(p, sigma)


@dataclass
class ChainClassification:
    """Where backward tracing ended: at an A-element outside range(f1), at a
    B-element outside range(f0), or nowhere within fuel (cycle or long chain)."""

    origin: Literal["A-source", "B-source", "unresolved"]
    source: Optional[int]
    steps: List[Tuple[str, int]]
    cycle_length: Optional[int]
    fuel: int

    @property
    def direction(self) -> str:
        """Bijection direction the classification dictates for the traced
        element; unresolved chains follow the leftmost convention."""
        if self.origin == "B-source":
            return VIA_F1_INV
        return VIA_F0


def chain_trace(p: BoundedInjPair, start: int, side: Literal["A", "B"],
                fuel: FuelLike) -> ChainClassification:
    """Backward back-and-forth trace: from an A-element take the bounded
    f1-preimage, from a B-element the bounded f0-preimage, until a source, a
    cycle, or fuel exhaustion. Each step is decidable thanks to the bounds.

    This is the independent oracle for the tree method; it is never used to
    build the shipped bijection, because under small fuel two elements of one
    long chain could classify differently.
    """
    b = _bound(fuel)
    node = (side, start)
    steps = [node]
    seen = {node: 0}
    for _ in range(b):
        kind, value = node
        if kind == "A":
            t = p.f1_preimage(value)
            if t is None:
                return ChainClassification("A-source", value, steps, None, b)
            node = ("B", t)
        else:
            s = p.f0_preimage(value)
            if s is None:
                return ChainClassification("B-source", value, steps, None, b)
            node = ("A", s)
        if node in seen:
            cycle_len = len(steps) - seen[node]
            return ChainClassification("unresolved", None, steps, cycle_len, b)
        seen[node] = len(steps)
        steps.append(node)
    return ChainClassification("unresolved", None, steps, None, b)


_Node = Tuple[str, int]


def _chain_origins(p: BoundedInjPair, n_max: int) -> List[str]:
    """chain_trace(p, n, "B", n_max).origin for every n < n_max, in one pass.

    chain_trace steps from the first n_max nodes of its walk and names the
    source exactly when it lies at a distance d < n_max. The first phase
    steps, level by level, from every node that some start reaches in fewer
    than n_max steps: the nodes the n_max traces step from, each once. The
    second phase memoizes, per stepped node, its source and distance to it,
    or None where the walk cycles or leaves the stepped nodes, which puts
    its source (if any) past every start's fuel.
    """
    step: Dict[_Node, Optional[_Node]] = {}
    level: List[_Node] = [("B", n) for n in range(n_max)]
    for _ in range(n_max):
        reached = []
        for node in level:
            if node in step:
                continue
            kind, value = node
            if kind == "A":
                t = p.f1_preimage(value)
                step[node] = None if t is None else ("B", t)
            else:
                s = p.f0_preimage(value)
                step[node] = None if s is None else ("A", s)
            if step[node] is not None:
                reached.append(step[node])
        level = reached

    source: Dict[_Node, Optional[Tuple[str, int]]] = {}
    for n in range(n_max):
        walk: List[_Node] = []
        node: Optional[_Node] = ("B", n)
        while node in step and node not in source:
            source[node] = None  # stays None if this walk meets it again
            walk.append(node)
            node = step[node]
        if node is None:  # the walk's last node is its source
            end: Optional[Tuple[str, int]] = (f"{walk[-1][0]}-source", 0)
            source[walk.pop()] = end
        else:
            end = source.get(node)
        if end is not None:
            origin, d = end
            for k, x in enumerate(reversed(walk), 1):
                source[x] = (origin, d + k)
    return [s[0] if s is not None and s[1] < n_max else "unresolved"
            for s in (source[("B", n)] for n in range(n_max))]


def gadget_llpo(g: LazySeq, verified_prefix: int = 8) -> BoundedInjPair:
    """The bounded-injection pair whose Banach bijection reads off the parity
    of the first zero of g at position 1.

    Even n go up two under f0 and stay fixed under f1; 1 maps to 0 and 1.
    Odd n >= 3 look for the least zero s of g below n - 1: while none has
    appeared the chain extends leftward (f0(n) = n - 2); once one appears,
    the arrows break at n = s + 3 (s even) or fold back at n = s + 2 (s odd),
    which pins the bijection's direction on the whole left segment. Each
    value reads only g(0..n); the bounds are b0(n) = n + 2, b1(n) = n.
    """

    def least_zero_below(n: int) -> Optional[int]:
        return g.first_index(0, n - 1)  # reads g(0..n-2)

    def f0_at(n: int) -> int:
        if n % 2 == 0:
            return n + 2
        if n == 1:
            return 0
        s = least_zero_below(n)
        if s is None:
            return n - 2
        if s % 2 == 0:
            return n - 2 if s == n - 3 else n
        return n - 2 if s == n - 2 else n

    def f1_at(n: int) -> int:
        if n % 2 == 0:
            return n
        if n == 1:
            return 1
        s = least_zero_below(n)
        if s is None:
            return n
        if s % 2 == 0:
            return n + 2
        return n if s == n - 2 else n + 2

    return BoundedInjPair(
        f0=LazySeq(f0_at, name="gadget-f0"),
        f1=LazySeq(f1_at, name="gadget-f1"),
        b0=LazySeq(lambda n: n + 2, name="n+2"),
        b1=LazySeq(lambda n: n, name="identity"),
        verified_prefix=verified_prefix,
    )


def unbounded_pair(f0: LazySeq, f1: LazySeq, fuel: FuelLike,
                   verified_prefix: int = 8) -> BoundedInjPair:
    """Bounded pair for bare injections: n is bounded by its least witness
    below the fuel bound. An index with no witness there bounds to 0, which is
    correct exactly when the index is genuinely outside the range; the caller
    owns that premise."""
    b = _bound(fuel)

    def bounds(f: LazySeq) -> LazySeq:
        return LazySeq(lambda n: f.first_index(n, b) or 0, name="bounding-b")

    return BoundedInjPair(f0=f0, f1=f1, b0=bounds(f0), b1=bounds(f1),
                          verified_prefix=verified_prefix)


@dataclass
class BanachReport:
    checked_up_to: int
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "checked_up_to": self.checked_up_to,
            "violations": [{"kind": k, "detail": d} for k, d in self.violations],
        }


def verify_banach(p: BoundedInjPair, h: PartialBijection, n_max: int) -> BanachReport:
    """Check injectivity, the defining Banach condition on every pair, and
    the decidable surjectivity obligations.

    A value n < n_max is obligated when its chain (traced from the value
    side) resolves within n_max: the resolution dictates the unique element
    that must cover n, and if that element lies in h's domain it must do so.
    The obligations come from one memoized pass over the chains, which
    reads what chain_trace(p, n, "B", n_max) reads for every n and gives
    the same origins; chain_trace stays the independent oracle.
    """
    report = BanachReport(checked_up_to=n_max)
    seen: Dict[int, int] = {}
    for m in sorted(h.forward):
        n = h.forward[m]
        if n in seen:
            report.violations.append(
                ("not-injective", f"{seen[n]} and {m} both map to {n}"))
        seen[n] = m
        ok0 = p.f0(m) == n
        ok1 = p.f1(n) == m
        if not (ok0 or ok1):
            report.violations.append(("banach-condition", f"({m},{n})"))
        tag = h.tags.get(m)
        if tag == VIA_F0 and not ok0 or tag == VIA_F1_INV and not ok1:
            report.violations.append(("tag-mismatch", f"({m},{n},{tag})"))

    for n, origin in enumerate(_chain_origins(p, n_max)):
        if origin == "A-source":
            coverer = p.f0_preimage(n)
        elif origin == "B-source":
            coverer = p.f1(n)
        else:
            continue
        if coverer is None or coverer not in h.forward:
            continue  # outside the window: no decidable obligation
        if h.forward[coverer] != n:
            report.violations.append(
                ("surjectivity", f"{n} lost its resolved coverer {coverer}"))
    return report


def render_chain_diagram(p: BoundedInjPair, width: int = 10) -> str:
    """Two-row text diagram in the column order ..., 4, 2, 0, 1, 3, ...

    The f0 arrows (solid markers | / \\) run from the bottom row up; the f1
    arrows (dashed markers : < >) run from the top row down. Off-grid targets
    keep their direction marker. Byte-for-byte deterministic.
    """
    if width < 4:
        raise ValueError("width must be at least 4")
    n_even = (width + 1) // 2
    n_odd = width - n_even
    values = [2 * (n_even - 1 - i) for i in range(n_even)] + \
             [2 * i + 1 for i in range(n_odd)]

    def col_of(v: int) -> int:
        # virtual column index; may fall outside [0, width)
        if v % 2 == 0:
            return n_even - 1 - v // 2
        return n_even + (v - 1) // 2

    cell = max(len(str(v)) for v in values)

    def glyph(src: int, dst: int, same: str, left: str, right: str) -> str:
        a, b = col_of(src), col_of(dst)
        return same if a == b else (left if b < a else right)

    f1_row = [glyph(v, p.f1(v), ":", "<", ">") for v in values]
    f0_row = [glyph(v, p.f0(v), "|", "/", "\\") for v in values]

    def line(label: str, cells: List[str]) -> str:
        return (label.ljust(3) + "  ".join(c.rjust(cell) for c in cells)).rstrip()

    return "\n".join([
        line("B", [str(v) for v in values]),
        line("f1", f1_row),
        line("f0", f0_row),
        line("A", [str(v) for v in values]),
    ]) + "\n"
