import pathlib
import random

import pytest

from banachkit import banach_nat as bn
from banachkit.corpora import block_permutation, block_shift_injection, random_shift_pair
from banachkit.errors import NoPathError, VerificationError
from banachkit.omniscience import llpomin, wkl_search
from banachkit.streams import Fuel, LazySeq, UltimatelyConstantSeq, parse_seq

GOLDEN = pathlib.Path(__file__).parent / "golden"

IDENT = LazySeq(lambda n: n, name="identity")
SUCC = LazySeq(lambda n: n + 1, name="succ")
ONES = UltimatelyConstantSeq((), 1)


def identity_pair():
    return bn.BoundedInjPair(IDENT, IDENT, IDENT, IDENT)


def succ_pair():
    return bn.BoundedInjPair(SUCC, SUCC, IDENT, IDENT)


class TestBoundedInjPair:
    def test_rejects_non_injective(self):
        const = UltimatelyConstantSeq((), 3)
        with pytest.raises(VerificationError):
            bn.BoundedInjPair(const, IDENT, IDENT, IDENT)

    def test_rejects_bad_bounds(self):
        zeros = UltimatelyConstantSeq((), 0)
        with pytest.raises(VerificationError):
            bn.BoundedInjPair(SUCC, IDENT, zeros, IDENT)

    def test_bounded_preimages(self):
        # f0 = succ bounded by n - 2 (unsound from n = 2), f1 = succ bounded by n
        minus_two = LazySeq(lambda n: max(n - 2, 0))
        p = bn.BoundedInjPair(SUCC, SUCC, minus_two, IDENT, verified_prefix=0)
        assert [p.f1_preimage(n) for n in range(4)] == [None, 0, 1, 2]
        # the witness n - 1 lies past the bound n - 2, so none is found
        assert [p.f0_preimage(n) for n in range(4)] == [None, 0, None, None]

    def test_capped_gadget_reads_g_once_per_index(self):
        # the gadget's f0 and f1 search g for its first zero with growing
        # bounds; each search starts where the last one left off, so g's
        # generator runs once per index up to the solver's depth
        for depth in (140, 280):
            calls = []
            g = LazySeq(lambda n: calls.append(n) or 1, name="g")
            bn.banach_bijection_nat(bn.gadget_llpo(g), depth // 4, depth)
            assert calls == list(range(depth)), depth


class TestTreeMember:
    def test_identity_pair_roots(self):
        p = identity_pair()
        assert bn.tree_member(p, [])
        assert bn.tree_member(p, [0])
        assert bn.tree_member(p, [1])

    def test_gadget_forces_index_one(self):
        p = bn.gadget_llpo(parse_seq("1,1,0;0"))
        for length in range(6, 10):
            for sigma in _members(p, length):
                assert sigma[1] == 0

    def test_downward_closed_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(10):
            p = random_shift_pair(rng)
            for sigma in _members(p, 6):
                for i in range(len(sigma)):
                    assert bn.tree_member(p, sigma[:i])


def _members(p, length):
    out = []

    def grow(sigma):
        if len(sigma) == length:
            out.append(tuple(sigma))
            return
        for b in (0, 1):
            sigma.append(b)
            if bn.tree_member(p, sigma):
                grow(sigma)
            sigma.pop()

    grow([])
    return out


class TestPathToBijection:
    def test_identity_zero_path(self):
        h = bn.path_to_bijection(identity_pair(), [0] * 8)
        assert [h(i) for i in range(8)] == list(range(8))

    def test_identity_ones_path(self):
        h = bn.path_to_bijection(identity_pair(), [1] * 8)
        assert [h(i) for i in range(8)] == list(range(8))

    def test_succ_pair_alternating(self):
        p = succ_pair()
        h = bn.banach_bijection_nat(p, 8, 32)
        for n in range(0, 8, 2):
            assert h(n) == n + 1 and h.tags[n] == bn.VIA_F0
        for n in range(1, 8, 2):
            assert h(n) == n - 1 and h.tags[n] == bn.VIA_F1_INV

    def test_ill_defined_bit(self):
        from banachkit.errors import IllDefinedError

        with pytest.raises(IllDefinedError):
            bn.path_to_bijection(succ_pair(), [1])  # 0 has no f1-preimage


class TestBanachBijection:
    def test_identity_window(self):
        h = bn.banach_bijection_nat(identity_pair(), 8)
        assert [h(i) for i in range(8)] == list(range(8))

    def test_gadget_even_case(self):
        h = bn.banach_bijection_nat(bn.gadget_llpo(parse_seq("1,1,0;0")), 16)
        assert h(1) == 0

    def test_gadget_odd_case(self):
        h = bn.banach_bijection_nat(bn.gadget_llpo(parse_seq("1,1,1,0;0")), 16)
        assert h(1) == 1

    def test_depth_below_n_max_rejected(self):
        with pytest.raises(ValueError):
            bn.banach_bijection_nat(identity_pair(), 16, 8)

    def test_spot_check_raises_on_a_bad_path(self, monkeypatch):
        # the gadget's f1 misses 5, so clause (i) rejects the all-ones path
        monkeypatch.setattr(bn, "_solve_leftmost", lambda p, depth: [1] * depth)
        with pytest.raises(VerificationError, match="verbatim clauses"):
            bn.banach_bijection_nat(bn.gadget_llpo(parse_seq("1,1,0;0")), 16)

    def test_garbage_pair_has_no_path(self):
        # f0 collides beyond the verified prefix: clauses become unsatisfiable
        f0 = LazySeq(lambda n: 30 if n in (20, 21) else n)
        f1 = LazySeq(lambda n: n + 1)
        p = bn.BoundedInjPair(f0, f1, LazySeq(lambda n: n + 2), IDENT, verified_prefix=4)
        with pytest.raises(NoPathError):
            bn.banach_bijection_nat(p, 32, 64)

    def test_matches_generic_tree_search(self):
        rng = random.Random(9)
        pairs = [identity_pair(), succ_pair(),
                 bn.gadget_llpo(parse_seq("1,1,0;0")),
                 bn.gadget_llpo(parse_seq("1,0;1"))]
        pairs += [random_shift_pair(rng) for _ in range(4)]
        # garbage pairs too: the clause reduction does not assume injectivity
        colliding = LazySeq(lambda n: 7 if n in (3, 5) else n + 9)
        pairs.append(bn.BoundedInjPair(colliding, SUCC, LazySeq(lambda n: n + 9),
                                       IDENT, verified_prefix=3))
        pairs.append(bn.BoundedInjPair(SUCC, colliding, IDENT,
                                       LazySeq(lambda n: n + 9), verified_prefix=3))
        for p in pairs:
            for depth in (6, 10, 14):
                generic = wkl_search(lambda s, p=p: bn.tree_member(p, s), depth)
                fast = bn._solve_leftmost(p, depth)
                assert generic == (tuple(fast) if fast is not None else None)


class TestSolverFuzz:
    @staticmethod
    def random_garbage_pair(rng):
        window = 40
        t0 = [rng.randrange(24) for _ in range(window)]
        t1 = [rng.randrange(24) for _ in range(window)]
        bt0 = [rng.randrange(30) for _ in range(window)]
        bt1 = [rng.randrange(30) for _ in range(window)]
        mk = lambda t: LazySeq(lambda n, t=t: t[n] if n < window else n + 1)
        return bn.BoundedInjPair(mk(t0), mk(t1), mk(bt0), mk(bt1),
                                 verified_prefix=0)

    def test_closed_form_equals_generic_search_on_garbage(self):
        # arbitrary (non-injective, wrongly bounded) inputs: the pointer
        # reduction of clauses (iii)/(iv) must still match the verbatim tree
        rng = random.Random(31)
        for case in range(150):
            p = self.random_garbage_pair(rng)
            for depth in (4, 7, 10):
                generic = wkl_search(lambda s, p=p: bn.tree_member(p, s), depth)
                fast = bn._solve_leftmost(p, depth)
                got = tuple(fast) if fast is not None else None
                assert generic == got, f"case {case} depth {depth}"

    def test_broken_pairs_raise_no_path_or_not_injective(self):
        # a pair broken past its verified prefix either gets a bijection or
        # raises one of two errors: NoPathError, or the plain
        # VerificationError of a non-injective map; both occur at this seed
        rng = random.Random(31)
        outcomes = set()
        for case in range(400):
            p = self.random_garbage_pair(rng)
            for n_max in (1, 2, 3, 5):
                try:
                    bn.banach_bijection_nat(p, n_max, depth=n_max)
                    outcomes.add("bijection")
                except NoPathError:
                    outcomes.add("no-path")
                except VerificationError as exc:
                    assert type(exc) is VerificationError, (case, n_max, exc)
                    assert str(exc).startswith("not injective: "), (case, n_max, exc)
                    outcomes.add("not-injective")
        assert outcomes == {"bijection", "no-path", "not-injective"}

    def test_tree_member_always_downward_closed(self):
        rng = random.Random(33)
        for _ in range(40):
            p = self.random_garbage_pair(rng)
            for sigma in _members(p, 5):
                for i in range(len(sigma)):
                    assert bn.tree_member(p, sigma[:i])


class TestChainTrace:
    def test_identity_cycle(self):
        cls = bn.chain_trace(identity_pair(), 5, "A", 16)
        assert cls.origin == "unresolved" and cls.cycle_length == 2
        assert cls.direction == bn.VIA_F0

    def test_succ_even_roots_at_a(self):
        cls = bn.chain_trace(succ_pair(), 4, "A", 16)
        assert cls.origin == "A-source" and cls.source == 0
        assert len(cls.steps) - 1 == 4  # four backward steps

    def test_succ_odd_roots_at_b(self):
        cls = bn.chain_trace(succ_pair(), 3, "A", 16)
        assert cls.origin == "B-source" and cls.source == 0

    def test_fuel_runs_out(self):
        p = bn.BoundedInjPair(block_shift_injection(5, 8),
                              block_shift_injection(6, 8), IDENT, IDENT,
                              verified_prefix=4)
        cls = bn.chain_trace(p, 400, "A", Fuel(3))
        assert cls.origin == "unresolved" and cls.cycle_length is None


class TestGadget:
    def test_no_zero_case(self):
        p = bn.gadget_llpo(ONES)
        assert (p.f0(5), p.f1(5)) == (3, 5)

    def test_even_first_zero(self):
        p = bn.gadget_llpo(parse_seq("1,1,0;0"))
        assert (p.f0(5), p.f1(5), p.f0(7), p.f1(7)) == (3, 7, 7, 9)

    def test_odd_first_zero(self):
        p = bn.gadget_llpo(parse_seq("1,1,1,0;0"))
        assert (p.f0(5), p.f1(5)) == (3, 5)

    def test_reads_only_needed_prefix(self):
        # each value reads only g(0..n); g's memo keys are the indices read
        for text in (";1", "0;1", "1,0;1", "1,1,0;1", "1,1,1,1,1,1,1,0;0"):
            for n in range(40):
                g = parse_seq(text)
                p = bn.gadget_llpo(g, verified_prefix=0)
                p.f0(n), p.f1(n)
                assert set(g._cache) <= set(range(n + 1)), (text, n)

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 7, 12])
    def test_soundness(self, s):
        g = UltimatelyConstantSeq((1,) * s + (0,), 1)
        p = bn.gadget_llpo(g, verified_prefix=128)  # injective with valid bounds
        h = bn.banach_bijection_nat(p, 32)
        assert h(1) == s % 2 == llpomin(g, 64).unwrap()
        assert bn.verify_banach(p, h, 32).ok


class TestUnboundedPair:
    def test_bounds_are_least_witnesses(self):
        # a member n bounds to its least witness below the fuel; a non-member
        # and a member witnessed only past the fuel both bound to 0
        double = LazySeq(lambda n: 2 * n)
        mixed = LazySeq(lambda n: (n * 7) % 31 + 1)
        p = bn.unbounded_pair(double, mixed, Fuel(32))
        assert [p.b0(n) for n in (0, 6, 7, 62, 64)] == [0, 3, 0, 31, 0]
        least = {}
        for t in range(32):
            least.setdefault(mixed(t), t)
        assert [p.b1(n) for n in range(40)] == [least.get(n, 0) for n in range(40)]

    def test_matches_hand_bounds(self):
        p_auto = bn.unbounded_pair(SUCC, SUCC, Fuel(128))
        h_auto = bn.banach_bijection_nat(p_auto, 8, 32)
        h_hand = bn.banach_bijection_nat(succ_pair(), 8, 32)
        assert h_auto.to_json() == h_hand.to_json()

    def test_matches_on_shift_pair(self):
        # ranges computable within fuel: searched bounds give the same
        # bijection as the hand-supplied identity bounds
        f0 = block_shift_injection(31, 8)
        f1 = block_shift_injection(32, 8)
        ident = LazySeq(lambda n: n)
        p_hand = bn.BoundedInjPair(f0, f1, ident, ident, verified_prefix=4)
        p_auto = bn.unbounded_pair(f0, f1, Fuel(512), verified_prefix=4)
        h_hand = bn.banach_bijection_nat(p_hand, 32, 128)
        h_auto = bn.banach_bijection_nat(p_auto, 32, 128)
        assert h_auto.to_json() == h_hand.to_json()


class TestVerifyBanach:
    def test_identity_passes(self):
        h = bn.PartialBijection({i: i for i in range(16)},
                                {i: bn.VIA_F0 for i in range(16)})
        assert bn.verify_banach(identity_pair(), h, 16).ok

    def test_swap_violates_banach_condition(self):
        fwd = {i: i for i in range(16)}
        fwd[0], fwd[1] = 1, 0
        h = bn.PartialBijection(fwd, {i: bn.VIA_F0 for i in range(16)})
        report = bn.verify_banach(identity_pair(), h, 16)
        assert ("banach-condition", "(0,1)") in report.violations

    def test_gadget_end_to_end(self):
        p = bn.gadget_llpo(parse_seq("1,1,0;0"))
        h = bn.banach_bijection_nat(p, 16)
        assert bn.verify_banach(p, h, 16).ok

    def test_surjectivity_violation(self):
        # drop 0's coverer from an otherwise valid succ-pair bijection
        p = succ_pair()
        h_full = bn.banach_bijection_nat(p, 8, 32)
        fwd = dict(h_full.forward)
        tags = dict(h_full.tags)
        fwd[1] = 40  # 1 was the resolved coverer of 0
        report = bn.verify_banach(p, bn.PartialBijection(fwd, tags), 8)
        assert any(kind == "surjectivity" for kind, _ in report.violations)


class TestChainOracleAgreement:
    def test_tree_matches_chain_directions(self):
        rng = random.Random(21)
        for _ in range(20):
            p = random_shift_pair(rng)
            h = bn.banach_bijection_nat(p, 48, 192)
            for m in range(48):
                cls = bn.chain_trace(p, m, "A", 512)
                assert cls.origin != "unresolved"
                assert h.tags[m] == cls.direction

    def test_cyclic_chains_take_leftmost(self):
        p = bn.BoundedInjPair(block_permutation(3, 8), block_permutation(4, 8),
                              LazySeq(lambda n: n + 8), LazySeq(lambda n: n + 8),
                              verified_prefix=4)
        h = bn.banach_bijection_nat(p, 16, 64)
        for m in range(16):
            cls = bn.chain_trace(p, m, "A", 64)
            assert cls.origin == "unresolved" and cls.cycle_length is not None
            assert h.tags[m] == bn.VIA_F0


def reference_verify(p, h, n_max):
    """verify_banach's violations, with one chain_trace per obligation."""
    violations = []
    seen = {}
    for m in sorted(h.forward):
        n = h.forward[m]
        if n in seen:
            violations.append(("not-injective", f"{seen[n]} and {m} both map to {n}"))
        seen[n] = m
        ok0 = p.f0(m) == n
        ok1 = p.f1(n) == m
        if not (ok0 or ok1):
            violations.append(("banach-condition", f"({m},{n})"))
        tag = h.tags.get(m)
        if tag == bn.VIA_F0 and not ok0 or tag == bn.VIA_F1_INV and not ok1:
            violations.append(("tag-mismatch", f"({m},{n},{tag})"))
    for n in range(n_max):
        cls = bn.chain_trace(p, n, "B", n_max)
        if cls.origin == "A-source":
            coverer = p.f0_preimage(n)
        elif cls.origin == "B-source":
            coverer = p.f1(n)
        else:
            continue
        if coverer is None or coverer not in h.forward:
            continue
        if h.forward[coverer] != n:
            violations.append(("surjectivity", f"{n} lost its resolved coverer {coverer}"))
    return violations


def cyclic_pair(rng):
    """Both maps permute each block in place, so every chain cycles; at block
    64 some cycles are longer than the fuel."""
    block = rng.choice([4, 8, 64])
    b = LazySeq(lambda n: n + block)
    return bn.BoundedInjPair(block_permutation(rng.randrange(1 << 20), block),
                             block_permutation(rng.randrange(1 << 20), block),
                             b, b, verified_prefix=4)


def long_chain_pair(rng):
    """f0 permutes each block in place and f1 shifts blocks up, so the trace
    from ("B", n) reaches its A-source in block 0 after 2 * (n // block) + 1
    steps: past the fuel n_max for some n < n_max, and exactly n_max for
    n = (n_max - 1) // 2 at block 1 and n_max odd."""
    block = rng.choice([1, 2, 3])
    return bn.BoundedInjPair(block_permutation(rng.randrange(1 << 20), block),
                             block_shift_injection(rng.randrange(1 << 20), block),
                             LazySeq(lambda n: n + block), IDENT, verified_prefix=4)


def climbing_pair(rng):
    """f0(t) = t - 1 (and f0(0) = 0), f1 skips every (r+1)-th value from r:
    traces climb from ("B", n) through ("A", n + 1), so what they read grows
    with the fuel, until f1 skips a value (an A-source) or B 0 cycles."""
    r = rng.randrange(1, 80)
    return bn.BoundedInjPair(LazySeq(lambda t: max(t - 1, 0)), LazySeq(lambda t: t + t // r),
                             LazySeq(lambda n: n + 1), IDENT,
                             verified_prefix=0)


CHAIN_FAMILIES = (random_shift_pair, TestSolverFuzz.random_garbage_pair,
                  cyclic_pair, long_chain_pair, climbing_pair)


class Recording(LazySeq):
    """A sequence that records the indices its generator is called at."""

    def __init__(self, generator, **kwargs):
        self.evaluated = set()
        super().__init__(lambda n: self.evaluated.add(n) or generator(n), **kwargs)


def _perturbed(h, rng):
    """h and three mutants: a dropped coverer, a swapped pair, a retagged entry."""
    yield h
    fwd, tags = dict(h.forward), dict(h.tags)
    if len(fwd) < 2:
        return
    m, k = rng.sample(sorted(fwd), 2)
    dropped = dict(fwd)
    dropped[m] = max(fwd.values()) + 1
    yield bn.PartialBijection(dropped, tags)
    swapped = dict(fwd)
    swapped[m], swapped[k] = fwd[k], fwd[m]
    yield bn.PartialBijection(swapped, tags)
    retagged = dict(tags)
    retagged[m] = bn.VIA_F1_INV if tags[m] == bn.VIA_F0 else bn.VIA_F0
    yield bn.PartialBijection(fwd, retagged)


class TestChainOrigins:
    """The one-pass classifier behind verify_banach, against chain_trace."""

    @pytest.mark.parametrize("n_max", [1, 2, 5, 17, 64])
    def test_matches_chain_trace(self, n_max):
        rng = random.Random(1000 + n_max)
        origins = set()
        for case in range(30):
            for family in CHAIN_FAMILIES:
                p = family(rng)
                want = [bn.chain_trace(p, n, "B", n_max).origin for n in range(n_max)]
                assert bn._chain_origins(p, n_max) == want, (family.__name__, case)
                origins.update(want)
        # an A-source lies at least one step from a B start, past fuel 1
        expected = {"B-source", "unresolved"} if n_max == 1 else \
            {"A-source", "B-source", "unresolved"}
        assert origins == expected

    def test_source_at_exactly_the_fuel_is_unresolved(self):
        # block 1: f0 = identity, f1 = succ, so ("B", n) lies 2n + 1 steps
        # from the A-source 0, and n = 2 sits exactly at the fuel 5
        p = bn.BoundedInjPair(block_permutation(0, 1), block_shift_injection(0, 1),
                              LazySeq(lambda n: n + 1), IDENT)
        assert bn._chain_origins(p, 5) == ["A-source", "A-source"] + ["unresolved"] * 3
        assert bn.chain_trace(p, 2, "B", 6).origin == "A-source"

    def test_violations_match_per_n_reference(self):
        rng = random.Random(41)
        kinds = set()
        for n_max in (1, 2, 5, 17, 64):
            for _ in range(6):
                for family in CHAIN_FAMILIES:
                    p = family(rng)
                    try:
                        h = bn.banach_bijection_nat(p, n_max)
                    except VerificationError:
                        continue  # a garbage pair may have no path, or no injective one
                    for hm in _perturbed(h, rng):
                        want = reference_verify(p, hm, n_max)
                        assert bn.verify_banach(p, hm, n_max).violations == want
                        kinds.update(kind for kind, _ in want)
        assert {"surjectivity", "banach-condition", "tag-mismatch"} <= kinds

    @pytest.mark.parametrize("n_max", [1, 2, 5, 17, 64])
    def test_reads_match_chain_trace(self, n_max):
        # each trace and the pass read through fresh recording views, so
        # no memo that one filled hides a read of the other
        rng = random.Random(2000 + n_max)
        for case in range(10):
            for family in CHAIN_FAMILIES:
                p = family(rng)

                def viewed():
                    seqs = [Recording(s) for s in (p.f0, p.f1, p.b0, p.b1)]
                    return bn.BoundedInjPair(*seqs, verified_prefix=0), seqs

                q, want = viewed()
                for n in range(n_max):
                    bn.chain_trace(q, n, "B", n_max)
                q, got = viewed()
                bn._chain_origins(q, n_max)
                assert [s.evaluated for s in got] == [s.evaluated for s in want], \
                    (family.__name__, case)

    def test_reads_match_per_n_reference(self, monkeypatch):
        made = []

        class Made(Recording):
            def __init__(self, generator, **kwargs):
                super().__init__(generator, **kwargs)
                made.append(self)

        def reads(g_head, g_tail, check):
            made.clear()
            p = bn.gadget_llpo(Made(UltimatelyConstantSeq(g_head, g_tail), name="g"))
            h = bn.banach_bijection_nat(p, 70, 280)
            violations = check(p, h, 70)
            return violations, [(s.name, s.evaluated) for s in made]

        monkeypatch.setattr(bn, "LazySeq", Made)
        rng = random.Random(16)
        for _ in range(16):
            s = rng.randrange(65)
            head, tail = tuple(rng.randint(1, 9) for _ in range(s)) + (0,), rng.randrange(3)
            want = reads(head, tail, reference_verify)
            got = reads(head, tail, lambda p, h, n: bn.verify_banach(p, h, n).violations)
            assert got == want, head

    def test_verify_does_not_trace(self, monkeypatch):
        def no_trace(*args):
            raise AssertionError("verify_banach called chain_trace")

        p = bn.gadget_llpo(parse_seq("1,1,0;0"))
        h = bn.banach_bijection_nat(p, 16)
        monkeypatch.setattr(bn, "chain_trace", no_trace)
        assert bn.verify_banach(p, h, 16).ok


class TestDiagram:
    @pytest.mark.parametrize("g_text,golden", [
        (None, "figure1a.txt"),
        ("1,1,0;0", "figure1b.txt"),
        ("1,1,1,0;0", "figure1c.txt"),
    ])
    def test_golden(self, g_text, golden):
        g = ONES if g_text is None else parse_seq(g_text)
        out = bn.render_chain_diagram(bn.gadget_llpo(g), 10)
        assert out == (GOLDEN / golden).read_text()

    def test_identity_all_vertical(self):
        out = bn.render_chain_diagram(identity_pair(), 10)
        lines = out.splitlines()
        assert set(lines[1].split()[1:]) == {":"}
        assert set(lines[2].split()[1:]) == {"|"}

    def test_even_zero_shifts_the_break(self):
        # first zero at 4 (even): same arrow pattern as the g(2)=0 case,
        # with the break moved out to column s+3 = 7
        out = bn.render_chain_diagram(bn.gadget_llpo(parse_seq("1,1,1,1,0;1")), 12)
        lines = out.splitlines()
        values = lines[0].split()[1:]
        f1_row = lines[1].split()[1:]
        f0_row = lines[2].split()[1:]
        assert values == "10 8 6 4 2 0 1 3 5 7 9 11".split()
        assert [g for v, g in zip(values, f1_row) if v in ("7", "9", "11")] == [">"] * 3
        assert [g for v, g in zip(values, f1_row) if v in ("1", "3", "5")] == [":"] * 3
        assert [g for v, g in zip(values, f0_row) if v in ("5", "7")] == ["/", "/"]
        assert [g for v, g in zip(values, f0_row) if v in ("9", "11")] == ["|", "|"]

    def test_width_validation(self):
        with pytest.raises(ValueError):
            bn.render_chain_diagram(identity_pair(), 3)

    def test_deterministic(self):
        p = bn.gadget_llpo(parse_seq("1,0;0"))
        assert bn.render_chain_diagram(p, 12) == bn.render_chain_diagram(p, 12)


class TestSerialization:
    def test_partial_bijection_json(self):
        h = bn.banach_bijection_nat(succ_pair(), 4, 16)
        triples = h.to_json()
        assert triples[0] == [0, 1, bn.VIA_F0]
        assert [t[0] for t in triples] == sorted(t[0] for t in triples)

    def test_rejects_non_injective(self):
        with pytest.raises(VerificationError):
            bn.PartialBijection({0: 5, 1: 5}, {0: bn.VIA_F0, 1: bn.VIA_F0})
