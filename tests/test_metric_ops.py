import itertools
import sys

import pytest

from banachkit.errors import (
    CapExceededError,
    ConstructionStalledError,
    ExhaustionError,
    NoValidModulusError,
    RangeInconsistencyError,
    VerificationError,
)
from banachkit.metric import (
    BitStream,
    CantorPoint,
    CodeEntry,
    Dyadic,
    IntervalPoint,
    banach_H,
    cantor_space,
    constant_fun,
    decode_code,
    halving_gadget,
    identity_fun,
    modulus_of,
    modulus_valid,
    padding_gadget,
    preimage_gadget,
    preimage_select,
    range_char,
    sigma_seq,
    unit_interval,
)
from banachkit.corpora import halving_chain_law
from banachkit.metric.ops import _cantor_target_bits
from banachkit.metric.ucfun import UCFun, cantor_fun, interval_fun
from banachkit.streams import Fuel, LazySeq, UltimatelyConstantSeq, parse_seq

HALF = Dyadic(1, 1)
QUARTER = Dyadic(1, 2)


@pytest.fixture(scope="module")
def halving():
    F, G = halving_gadget()
    return F.space, F, G


@pytest.fixture(scope="module")
def padding():
    F, G = padding_gadget()
    return F.space, F, G


class TestRangeChar:
    def test_three_quarters_out(self, halving):
        X, F, _ = halving
        ans = range_char(X, F, IntervalPoint(Dyadic(3, 2)), 8)
        assert ans.out and ans.level == 2

    def test_quarter_in(self, halving):
        X, F, _ = halving
        ans = range_char(X, F, IntervalPoint(QUARTER), 8)
        assert ans.in_range and ans.level == 8

    def test_all_ones_out_on_cantor(self, padding):
        X, F, _ = padding
        ans = range_char(X, F, CantorPoint(BitStream.constant(1)), 8)
        assert ans.out and ans.level == 1

    def test_padded_point_in_range(self, padding):
        X, F, _ = padding
        y = F.exact_apply(sigma_seq(2))
        assert range_char(X, F, y, 8).in_range

    def test_constant_cantor_fun_small_modulus(self, padding):
        # modulus 0 keeps the net level below the precision index; the
        # witness search must then read the word's zero tail
        X, _, _ = padding
        target = CantorPoint(BitStream((1, 0, 1), (0,)))
        const = constant_fun(X, target.stream)
        assert range_char(X, const, target, 6).in_range
        out = range_char(X, const, CantorPoint(BitStream.constant(1)), 6)
        assert out.out and out.level == 1

    def test_inconsistent_exact_range_detected(self, halving):
        X, _, _ = halving
        lying = interval_fun(X, lambda v: v.half(), LazySeq(lambda k: k),
                             exact_range=lambda p: True)
        with pytest.raises(RangeInconsistencyError):
            range_char(X, lying, IntervalPoint(Dyadic(3, 2)), 8)


class TestPreimageSelect:
    def test_halving_unique_preimage(self, halving):
        # the last two levels carry the bounded-lookahead slack, so the
        # closeness claim is checked away from the m_max boundary
        X, F, _ = halving
        p = preimage_select(X, F, IntervalPoint(QUARTER), 8)
        for m in range(7):
            assert abs(p.approx(m) - HALF) <= Dyadic.pow2(-m)
        for m in range(9):
            # clause (1) verbatim, at every produced level
            assert abs(F.precision_image(p.approx(m), m) - QUARTER) < Dyadic.pow2(-m)

    def test_identity_recovers_target(self, halving):
        X, _, _ = halving
        ident = identity_fun(X)
        y = Dyadic(5, 3)
        p = preimage_select(X, ident, IntervalPoint(y), 8)
        for m in range(9):
            assert abs(p.approx(m) - y) <= Dyadic.pow2(-m)

    def test_padding_unpads(self, padding):
        # padding doubles disagreement indices, so pinning the preimage at
        # level m takes lookahead 2m+4; the clause-(1) guarantee needs none
        X, F, _ = padding
        target = CantorPoint(BitStream((1,), (1,)))
        y = F.exact_apply(target)
        p = preimage_select(X, F, y, 24)
        for m in range(2, 9):
            assert X.dist(p.approx(m), target.stream) <= Dyadic.pow2(-m)

    def test_rapid_convergence(self, halving):
        X, F, _ = halving
        p = preimage_select(X, F, IntervalPoint(Dyadic(3, 3)), 8)
        for m in range(8):
            assert abs(p.approx(m) - p.approx(m + 1)) <= Dyadic.pow2(-m)

    def test_approx_beyond_cap_rejected(self, halving):
        X, F, _ = halving
        p = preimage_select(X, F, IntervalPoint(QUARTER), 4)
        with pytest.raises(ValueError):
            p.approx(5)

    def test_stalls_on_empty_preimage(self, halving):
        # constant map: only its value has a preimage
        X, _, _ = halving
        const = constant_fun(X, QUARTER)
        with pytest.raises(ConstructionStalledError):
            preimage_select(X, const, IntervalPoint(Dyadic(3, 2)), 6).approx(6)


def brute_pairs(X, F, cap):
    """Independent oracle: the distinct (d(u, v), d(F(u), F(v))) over all
    pairs of net points up to cap, levels mixed, in pure dyadic arithmetic.
    Images are taken as the library takes them: at precision cap+4 on the
    interval (exact for an interval_fun), and bits 0..cap+1 on Cantor space."""
    points = [X.net_point(j, i) for j in range(cap + 1) for i in range(X.level_count(j))]
    if X.kind == "cantor":
        images = [F.image_value(v, cap + 1) for v in points]
    else:
        images = [F.precision_image(v, cap + 4) for v in points]
    return {(X.dist(u, v), X.dist(fu, fv))
            for (u, fu), (v, fv) in itertools.combinations(zip(points, images), 2)}


def brute_valid(pairs, m, n):
    """Every pair closer than 2^-n has images closer than 2^-m."""
    return all(not dx < Dyadic.pow2(-n) or df < Dyadic.pow2(-m) for dx, df in pairs)


def brute_modulus(pairs, cap, m):
    """The least workable modulus value n <= cap at m, or None."""
    return next((n for n in range(cap + 1) if brute_valid(pairs, m + 1, n)), None)


BRUTE_FORCE_FUNS = {
    "halving": lambda: halving_gadget()[0],
    "padding": lambda: padding_gadget()[0],
    "cantor-identity": lambda: identity_fun(cantor_space(40)),
    "preimage-gadget": lambda: preimage_gadget(parse_seq("1,0;1")),
}


class TestModulus:
    def test_halving_is_identity(self, halving):
        X, F, _ = halving
        M = modulus_of(X, F, 10)
        assert [M(m) for m in range(9)] == list(range(9))

    def test_constant_is_zero(self, halving):
        X, _, _ = halving
        M = modulus_of(X, constant_fun(X, HALF), 8)
        assert [M(m) for m in range(5)] == [0, 0, 0, 0, 0]

    def test_padding_halves_the_level(self, padding):
        # a disagreement at t > n doubles to 2t > 2n in the image, so the
        # brute-force least modulus is ceil(m/2), not m
        X, F, _ = padding
        M = modulus_of(X, F, 8)
        assert [M(m) for m in range(9)] == [(m + 1) // 2 for m in range(9)]

    def test_interval_identity_needs_one_more(self, halving):
        X, _, _ = halving
        M = modulus_of(X, identity_fun(X), 8)
        assert [M(m) for m in range(6)] == [m + 1 for m in range(6)]

    @pytest.mark.parametrize("cap", range(1, 7))
    @pytest.mark.parametrize("name", sorted(BRUTE_FORCE_FUNS))
    def test_matches_pure_python_brute_force(self, name, cap):
        # each gadget on its default space, deeper than the profile cap
        # (TestModulusProfile builds its spaces at level 6)
        F = BRUTE_FORCE_FUNS[name]()
        X = F.space
        M = modulus_of(X, F, cap)
        pairs = brute_pairs(X, F, cap)
        for m in range(cap + 1):
            assert M(m) == brute_modulus(pairs, cap, m), m

    def test_validity_invariant(self, halving):
        X, F, _ = halving
        M = modulus_of(X, F, 8)
        assert all(modulus_valid(X, F, M, m, 8) for m in range(7))

    def test_recomputation_matches_stored(self, halving):
        X, F, _ = halving
        M = modulus_of(X, F, 8)
        for m in range(8):
            assert M(m) == F.modulus(m)  # both the identity

    def test_query_beyond_cap(self, halving):
        X, F, _ = halving
        with pytest.raises(ValueError):
            modulus_of(X, F, 6)(7)

    def test_discontinuous_map_has_no_valid_modulus(self, halving):
        # a step function: nets straddle the jump at every level, so even
        # the finest candidate fails
        from banachkit.errors import NoValidModulusError

        X, _, _ = halving
        step = interval_fun(X, lambda v: Dyadic(1) if HALF < v else Dyadic(0),
                            LazySeq(lambda k: k), name="step")
        with pytest.raises(NoValidModulusError):
            modulus_of(X, step, 6)(3)


def _step_code():
    """A decoded step: 0 below 5/8, then 1/8, at every precision."""
    return [CodeEntry(0, (0, 0), Dyadic(5, 3), (2, 0), Dyadic.pow2(-40)),
            CodeEntry(0, (0, 2), Dyadic(5, 3), (2, 1), Dyadic.pow2(-40))]


def _cantor_two_bit_code():
    """A decoded Cantor map read off bits 0..1: the balls of radius 1/2
    around the four two-bit words, sent to the three-bit words 5, 0, 7, 2."""
    return [CodeEntry(0, (1, i), Dyadic(1, 1), (2, b), Dyadic.pow2(-40))
            for i, b in enumerate((5, 0, 7, 2))]


PROFILE_FUNS = {
    "halving": lambda: halving_gadget(6)[0],
    "interval-identity": lambda: identity_fun(unit_interval(6)),
    "constant": lambda: constant_fun(unit_interval(6), HALF),
    "step": lambda: interval_fun(unit_interval(6),
                                 lambda v: Dyadic(1) if HALF < v else Dyadic(0),
                                 LazySeq(lambda k: k), name="step"),
    "square": lambda: interval_fun(unit_interval(6), lambda v: v * v,
                                   LazySeq(lambda k: k), name="square"),
    "padding": lambda: padding_gadget(6)[0],
    "cantor-identity": lambda: identity_fun(cantor_space(6)),
    "preimage-gadget": lambda: preimage_gadget(parse_seq("1,1,0;1"), max_level=6),
    "decoded-step": lambda: decode_code(_step_code(), unit_interval(6)),
    "decoded-cantor": lambda: decode_code(_cantor_two_bit_code(), cantor_space(6)),
}


class TestModulusProfile:
    """The profile over the level-cap points against the all-pairs scan."""

    @pytest.mark.parametrize("cap", range(1, 7))
    @pytest.mark.parametrize("name", sorted(PROFILE_FUNS))
    def test_matches_all_pairs(self, name, cap):
        F = PROFILE_FUNS[name]()
        X = F.space
        pairs = brute_pairs(X, F, cap)
        M = modulus_of(X, F, cap)
        for m in range(cap + 1):
            want = brute_modulus(pairs, cap, m)
            if want is None:
                with pytest.raises(NoValidModulusError):
                    M(m)
            else:
                assert M(m) == want, (m, want)
            for n in range(cap + 2):
                const = LazySeq(lambda k, n=n: n)
                assert modulus_valid(X, F, const, m, cap) == brute_valid(pairs, m, n), (m, n)

    def test_profile_built_once_per_sweep(self):
        # a CLI sweep, M(0..cap) and the validity of each, takes the images
        # of the level-cap points once; on Cantor space the prefix walk
        # computes image bit d once per input prefix of length d+1, and bit
        # cap+1 once per word: 2^(cap+2) - 2 + 2^(cap+1) calls
        cap = 6
        calls = []

        def halve(v):
            calls.append(v)
            return v.half()

        def pad_bit(x, n):
            calls.append(n)
            return x(n // 2) if n % 2 == 0 else 0

        X, C = unit_interval(cap), cantor_space(cap)
        F = interval_fun(X, halve, LazySeq(lambda k: k))
        G = cantor_fun(C, pad_bit, LazySeq(lambda k: k))
        for Y, H, images in ((X, F, X.level_count(cap)),
                             (C, G, 3 * C.level_count(cap) - 2)):
            calls.clear()
            M = modulus_of(Y, H, cap)
            [M(m) for m in range(cap + 1)]
            assert all(modulus_valid(Y, H, M, m, cap) for m in range(cap + 1))
            assert len(calls) == images


class TestBanachHInterval:
    def test_half_maps_to_one(self, halving):
        X, F, G = halving
        res = banach_H(X, F, G, IntervalPoint(HALF), 10, Fuel(64))
        assert res.point.value == Dyadic(1) and res.tag == "via-G-inverse"
        assert res.stage == 2

    def test_x_n_family(self, halving):
        X, F, G = halving
        for n in range(2, 21):
            x = HALF + Dyadic.pow2(-n)
            res = banach_H(X, F, G, IntervalPoint(x), 10, Fuel(64))
            assert res.tag == "via-F"
            assert res.point.value == QUARTER + Dyadic.pow2(-(n + 1))

    def test_zero_is_fixed(self, halving):
        X, F, G = halving
        res = banach_H(X, F, G, IntervalPoint(Dyadic.zero()), 10, Fuel(32))
        assert res.point.value == Dyadic.zero() and res.tag == "via-F"
        assert res.stage is None

    @pytest.mark.parametrize("num,exp", [(1, 2), (3, 2), (1, 3), (5, 4), (11, 6), (1, 9)])
    def test_chain_law(self, halving, num, exp):
        X, F, G = halving
        x = Dyadic(num, exp)
        want, tag = halving_chain_law(x)
        res = banach_H(X, F, G, IntervalPoint(x), 10, Fuel(64))
        assert (res.point.value, res.tag) == (want, tag)

    def test_banach_condition(self, halving):
        X, F, G = halving
        for num in (1, 3, 7, 13):
            x = Dyadic(num, 4)
            res = banach_H(X, F, G, IntervalPoint(x), 12, Fuel(64))
            if res.tag == "via-F":
                assert res.point.value == F.exact_apply(IntervalPoint(x)).value
            else:
                assert G.exact_apply(res.point).value == x


class TestBanachHCantor:
    def test_sigma_family_goes_via_f(self, padding):
        X, F, G = padding
        for n in range(5):
            res = banach_H(X, F, G, sigma_seq(n), 12, Fuel(32))
            assert res.tag == "via-F" and res.stage == 1

    def test_ten_repeating_maps_to_ones(self, padding):
        X, F, G = padding
        x = CantorPoint(BitStream((), (1, 0)))
        res = banach_H(X, F, G, x, 31, Fuel(32))
        assert res.tag == "via-G-inverse" and res.stage == 2
        assert res.point.stream.bits(32) == (1,) * 32


class TestBanachHWithoutExactRange:
    def test_definite_rejection_suffices(self, halving):
        X, _, _ = halving
        bare = interval_fun(X, lambda v: v.half(), LazySeq(lambda k: k), name="bare-halve")
        res = banach_H(X, bare, bare, IntervalPoint(Dyadic(3, 2)), 6, Fuel(8))
        assert res.tag == "via-F" and res.stage == 1
        assert res.approx() == Dyadic(3, 3)

    def test_unresolved_chain_exhausts(self, halving):
        X, _, _ = halving
        bare = interval_fun(X, lambda v: v.half(), LazySeq(lambda k: k), name="bare-halve")
        with pytest.raises(ExhaustionError):
            banach_H(X, bare, bare, IntervalPoint(QUARTER), 6, Fuel(8))


class TestBitIdenticalReruns:
    def test_preimage_pipeline_repeats_exactly(self):
        # fresh objects end to end: same literals, same bytes out
        def run_once():
            F, G = halving_gadget()
            X = F.space
            p = preimage_select(X, F, IntervalPoint(Dyadic(3, 3)), 8)
            res = banach_H(X, F, G, IntervalPoint(Dyadic(5, 4)), 10, Fuel(64))
            M = modulus_of(X, F, 6)
            return ([str(p.approx(m)) for m in range(9)],
                    str(res.approx()), res.tag,
                    [M(m) for m in range(7)])

        assert run_once() == run_once()


class TestConcurrency:
    def test_shared_preimage_point_from_threads(self, halving):
        import threading

        X, F, _ = halving
        p = preimage_select(X, F, IntervalPoint(QUARTER), 8)
        out = []

        def worker():
            out.append([p.approx(m) for m in range(9)])

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o == out[0] for o in out)


class TestUCFunInvariant:
    def test_modulus_validity_on_sampled_nets(self, halving):
        # sampled net pairs: d(u,v) < 2^-modulus(k) forces image distance
        # below 2^-k (apply evaluated two guard levels deep)
        X, F, _ = halving
        for k in (1, 3, 5):
            lvl = F.modulus(k) + 1
            pts = [X.net_point(lvl, i) for i in range(0, X.level_count(lvl), 3)]
            for u in pts:
                for v in pts:
                    if X.dist(u, v) < Dyadic.pow2(-F.modulus(k)):
                        fu = F.image_value(u, k + 2)
                        fv = F.image_value(v, k + 2)
                        assert X.dist(fu, fv) < Dyadic.pow2(-k)

    def test_bit_queries_on_an_interval_fun_raise(self, halving):
        # real raises, not asserts, so they hold under python -O
        X, F, _ = halving
        bare = UCFun(space=X, modulus=F.modulus, name="bare")  # no map at all
        zeros = BitStream((), (0,)).bit
        with pytest.raises(TypeError):
            F.find_witness(2, (), zeros, 2)
        with pytest.raises(TypeError):
            next(F.walk(2, (), None, 3))
        with pytest.raises(TypeError, match="expected a bit stream"):
            bare.image_value(HALF, 2)
        with pytest.raises(TypeError, match="no precision-indexed image"):
            bare.precision_image(HALF, 2)
        with pytest.raises(TypeError, match="not a Cantor bit map"):
            next(bare.walk(2, (), None, 2))

    @pytest.mark.parametrize("name,fn", [
        ("halving", lambda v: v.half()),
        ("square", lambda v: v * v),
        ("step", lambda v: Dyadic(1) if HALF < v else Dyadic(0)),
    ])
    def test_interval_fun_is_a_precision_map_ignoring_m(self, name, fn):
        X = unit_interval(6)
        F = interval_fun(X, fn, LazySeq(lambda k: k), name=name)
        assert not F.solver
        for v in (Dyadic(0), Dyadic(1, 3), Dyadic(5, 4), HALF, Dyadic(1)):
            for m in (0, 1, 3, 7, 40):
                assert F.precision_image(v, m) == fn(v)


class TestApplyExamples:
    def test_halving_apply_value(self, halving):
        _, F, _ = halving
        assert F.image_value(Dyadic(3, 2), 6) == Dyadic(3, 3)

    def test_exact_range_examples(self, halving):
        _, F, _ = halving
        assert not F.exact_range(IntervalPoint(Dyadic(3, 2)))
        assert F.exact_range(IntervalPoint(HALF))

    def test_padding_displayed_example(self, padding):
        _, F, _ = padding
        x = BitStream((1, 0, 1, 1), (0,))
        assert F.image_value(x, 7).bits(8) == (1, 0, 0, 0, 1, 0, 1, 0)


WALK_FUNS = {
    "padding": lambda: padding_gadget(8)[0],
    "cantor-identity": lambda: identity_fun(cantor_space(8)),
    "constant": lambda: constant_fun(cantor_space(8), BitStream((1, 0), (1, 1, 0))),
    "preimage-gadget": lambda: preimage_gadget(parse_seq("1,1,0;1"), max_level=8),
}


def direct_image(F, word, through):
    """Image bits 0..through of a net word (zero tail), straight from the
    bit function, as a binary integer."""
    out = 0
    for n in range(through + 1):
        out = (out << 1) | F._bit_map(lambda i: word[i] if i < len(word) else 0, n)
    return out


class TestPrefixWalk:
    """UCFun.walk, the one evaluation path of a Cantor bit map."""

    @pytest.mark.parametrize("name", sorted(WALK_FUNS))
    def test_matches_direct_evaluation(self, name):
        F = WALK_FUNS[name]()
        targets = [None, BitStream.constant(0).bit, BitStream((1,), (0, 1)).bit,
                   BitStream((0, 0, 1), (1, 0, 0)).bit]
        for level in range(5):
            words = list(itertools.product((0, 1), repeat=level + 1))
            for fixed in {(), (0,), (1, 0)[:level + 1], words[-1]}:
                for through in range(level + 3):
                    images = [direct_image(F, w, through) for w in words]
                    for y in targets:
                        want = [(i, image) for i, (w, image) in enumerate(zip(words, images))
                                if w[:len(fixed)] == fixed and (y is None or image == sum(
                                    y(n) << (through - n) for n in range(through + 1)))]
                        assert list(F.walk(level, fixed, y, through)) == want, (level, fixed, through)
                        if y is not None:
                            assert F.find_witness(level, fixed, y, through) == (
                                want[0][0] if want else None)

    def test_image_value_is_one_leaf(self):
        F = WALK_FUNS["padding"]()
        x = BitStream((1, 1), (0, 1, 1))
        assert F.image_value(x, 9) == BitStream.word(_pad_bits(x.bits(5))[:10])

    def test_acausal_bit_map_raises(self):
        # output bit n reads input bit n+1, breaking cantor_fun's contract;
        # a real raise, so it holds under python -O
        C = cantor_space(6)
        shift = cantor_fun(C, lambda x, n: x(n + 1), LazySeq(lambda k: k), name="shift")
        zeros = BitStream.constant(0)
        with pytest.raises(VerificationError, match="output bit 0 read input bit 1"):
            shift.find_witness(3, (), zeros.bit, 3)
        with pytest.raises(VerificationError):
            modulus_of(C, shift, 4)
        with pytest.raises(VerificationError):
            shift.image_value(zeros, 3)

    def test_deep_levels_stay_iterative(self):
        # Cantor levels come from --max-level and can pass the recursion limit
        depth = sys.getrecursionlimit() + 500
        F = identity_fun(cantor_space(depth))
        y = BitStream((1,), (0, 1))
        i = F.find_witness(depth, (), y.bit, depth)
        assert F.space.net_point(depth, i).bits(depth + 1) == y.bits(depth + 1)
        assert F.image_value(y, depth).bits(depth + 1) == y.bits(depth + 1)


def _pad_bits(bits):
    return tuple(b for bit in bits for b in (bit, 0))


class TestOneSearchLookahead:
    """preimage_select's Cantor lookahead is one witness search at m_max. The
    reference below runs the per-j conjunction that search replaces, on every
    candidate in the selector's order, up to the first one accepted."""

    @staticmethod
    def check_against_per_j(F, y, m_max, top):
        X = F.space
        pad = lambda k: max(F.modulus(k), k + 3)
        target = lambda j: _cantor_target_bits(y, j)
        p = preimage_select(X, F, y, m_max)
        prev = None
        for m in range(top + 1):
            try:
                want = p.approx(m)
            except ConstructionStalledError:
                want = None
            accepted = None
            for i, _ in F.walk(pad(m), prev.bits(m) if prev else (), target(m), m):
                cand = X.net_point(pad(m), i)
                per_j = all(F.find_witness(pad(j), cand.bits(m + 3), target(j), j) is not None
                            for j in range(m + 1, m_max + 1))
                single = m == m_max or F.find_witness(
                    pad(m_max), cand.bits(m + 3), target(m_max), m_max) is not None
                assert per_j == single, (m, i)
                if per_j:
                    accepted = cand
                    break
            assert accepted == want, m
            if want is None:
                return
            prev = want

    @pytest.mark.parametrize("s", range(33))
    def test_criterion_9_inputs(self, s):
        w = UltimatelyConstantSeq((1,) * s + (0,), 1)
        self.check_against_per_j(preimage_gadget(w), CantorPoint(BitStream.constant(0)), 36, 5)

    @pytest.mark.parametrize("m_max", range(1, 9))
    @pytest.mark.parametrize("name", ["padding", "cantor-identity"])
    def test_padding_and_identity(self, name, m_max):
        F = padding_gadget()[0] if name == "padding" else identity_fun(cantor_space(12))
        streams = [BitStream.constant(0), BitStream.constant(1), BitStream((1,), (0, 1)),
                   BitStream((1, 0, 1, 1), (0,)), BitStream(_pad_bits((1, 1, 0)), _pad_bits((1, 0)))]
        targets = [CantorPoint(v) for v in streams]
        # a target known only through approximants, capped below m_max
        targets.append(preimage_select(F.space, identity_fun(F.space),
                                       CantorPoint(streams[-1]), max(m_max - 2, 0)))
        for y in targets:
            self.check_against_per_j(F, y, m_max, m_max)

    @pytest.mark.parametrize("space", ["interval", "cantor"])
    def test_every_cap_is_checked_before_a_search(self, space):
        # every candidate fails its lookahead at j = 1 or 2, well before
        # pad(4) = 7 passes the cap of 6; the cap check comes first, so this
        # is a cap error (exit 3), not a stalled construction (exit 1)
        if space == "interval":
            F, y = halving_gadget(6)[0], IntervalPoint(Dyadic(3, 2))
        else:
            F, y = padding_gadget(6)[0], CantorPoint(BitStream((0, 1), (0,)))
        with pytest.raises(CapExceededError):
            preimage_select(F.space, F, y, 4).approx(0)
        # with the caps in reach the same target stalls
        with pytest.raises(ConstructionStalledError):
            preimage_select(F.space, F, y, 3).approx(0)
