import pytest

from banachkit import ranges
from banachkit.errors import RefutationFailedError, VerificationError
from banachkit.ranges import (
    bounding_b,
    refute_total_translator,
    t_beta_to_rho,
    t_rho_to_beta,
    translate_family,
    verify_range_aux,
)
from banachkit.streams import (
    Found,
    LazySeq,
    UltimatelyConstantSeq,
    family_member,
    pair_index,
    unpair_index,
)

IDENT = LazySeq(lambda n: n, name="identity")
DOUBLE = LazySeq(lambda n: 2 * n, name="double")
ONES = UltimatelyConstantSeq((), 1)


def brute_range(f, fuel):
    return {f(t) for t in range(fuel)}


class TestVerifyRangeAux:
    def test_identity_is_surjective(self):
        out = verify_range_aux(IDENT, ONES, "rho", 32, 64)
        assert out.ok

    def test_rho_backward_violation(self):
        out = verify_range_aux(DOUBLE, ONES, "rho", 8, 64)
        assert (1, "rho-backward") in out.violations
        assert all(n % 2 == 1 for n, _ in out.violations)

    def test_rho_forward_violation(self):
        zeros = UltimatelyConstantSeq((), 0)
        out = verify_range_aux(IDENT, zeros, "rho", 8, 64)
        assert (0, "rho-forward") in out.violations

    def test_beta_valid_bound(self):
        out = verify_range_aux(DOUBLE, IDENT, "beta", 16, 64)
        assert out.ok

    def test_beta_missing_witness(self):
        zeros = UltimatelyConstantSeq((), 0)
        out = verify_range_aux(DOUBLE, zeros, "beta", 8, 64)
        assert (2, "beta-missing-witness") in out.violations


class TestBetaToRho:
    def test_identity(self):
        chi = t_beta_to_rho(IDENT, IDENT)
        assert all(chi(n) == 1 for n in range(32))

    def test_double_even_indicator(self):
        chi = t_beta_to_rho(DOUBLE, IDENT)
        members = brute_range(DOUBLE, 200)
        for n in range(65):
            assert chi(n) == (1 if n in members else 0)

    def test_constant_seven(self):
        f = UltimatelyConstantSeq((), 7)
        chi = t_beta_to_rho(f, UltimatelyConstantSeq((), 0))
        assert [chi(n) for n in range(9)] == [0] * 7 + [1, 0]


class TestRhoToBeta:
    def test_double(self):
        chi = LazySeq(lambda n: 1 if n % 2 == 0 else 0)
        res = t_rho_to_beta(DOUBLE, chi, 64)
        assert res(10) == Found(5)

    def test_empty_claimed_range(self):
        zeros = UltimatelyConstantSeq((), 0)
        res = t_rho_to_beta(IDENT, zeros, 16)
        assert all(res(n) == Found(0) for n in range(16))

    def test_wrong_chi_exhausts(self):
        f = UltimatelyConstantSeq((), 1)
        chi = UltimatelyConstantSeq((1, 1), 0)
        res = t_rho_to_beta(f, chi, 16)
        assert res(0).exhausted and res(0).bound == 16
        assert res(1) == Found(0)  # chi is right at 1

    def test_found_values_are_least_witnesses(self):
        f = LazySeq(lambda n: n // 2)
        chi = UltimatelyConstantSeq((), 1)
        res = t_rho_to_beta(f, chi, 64)
        for n in range(20):
            t = res(n).unwrap()
            assert f(t) == n and all(f(u) != n for u in range(t))


class TestTranslateFamily:
    def test_uniform_identity(self):
        fam = LazySeq(lambda k: unpair_index(k)[1])  # f_i = identity
        chi = translate_family(fam, fam, "beta->rho", 64)
        for i in range(8):
            for n in range(8):
                assert chi(pair_index(i, n)) == 1

    def test_shifted_family(self):
        fam = LazySeq(lambda k: sum(unpair_index(k)))  # f_i(n) = n + i
        aux = LazySeq(lambda k: unpair_index(k)[1])    # b_i(n) = n
        chi = translate_family(fam, aux, "beta->rho", 64)
        for i in range(17):
            for n in range(17):
                assert chi(pair_index(i, n)) == (1 if n >= i else 0)
        exact_chi = LazySeq(lambda k: 1 if unpair_index(k)[1] >= unpair_index(k)[0] else 0)
        res = translate_family(fam, exact_chi, "rho->beta", 64)
        for i in range(9):
            for n in range(i, 17):
                assert res(pair_index(i, n)) == Found(n - i)

    def test_agrees_with_single_translators(self):
        fam = LazySeq(lambda k: (unpair_index(k)[1] * 3 + unpair_index(k)[0]) % 23)
        aux = LazySeq(lambda k: 30)
        chi = translate_family(fam, aux, "beta->rho", 64)
        for i in range(5):
            single = t_beta_to_rho(family_member(fam, i), LazySeq(lambda n: 30))
            for n in range(25):
                assert chi(pair_index(i, n)) == single(n)


class TestBoundingB:
    def test_identity(self):
        assert bounding_b(IDENT, 8)(5) == Found(5)

    def test_odd_never_attained(self):
        r = bounding_b(DOUBLE, 64)(7)
        assert r.exhausted and r.bound == 64

    def test_square(self):
        f = LazySeq(lambda n: n * n)
        assert bounding_b(f, 64)(49) == Found(7)

    def test_found_values_attain(self):
        f = LazySeq(lambda n: (n * 7) % 31)
        res = bounding_b(f, 64)
        members = brute_range(f, 64)
        for n in range(40):
            r = res(n)
            if r.found:
                assert f(r.value) == n
            assert r.found == (n in members)


class TestRefuteTotalTranslator:
    def test_constant_zero_translator(self):
        cex = refute_total_translator(lambda f, g: UltimatelyConstantSeq((), 0), pad=8)
        assert cex.failure_index == 0 and cex.b == 0
        # beta fails at 0: f2 has a zero but none within the probed bound
        assert any(cex.f2(t) == 0 for t in range(64))
        assert all(cex.f2(t) != 0 for t in range(cex.b + 1))

    def test_echo_translator(self):
        cex = refute_total_translator(lambda f, g: g, pad=8)
        assert cex.b == 1
        assert all(cex.f2(t) != 0 for t in range(cex.b + 1))

    def test_exact_translator_escapes(self):
        def exact(f, chi):
            beta = t_rho_to_beta(f, chi, 64)
            return LazySeq(lambda n: beta(n).value if beta(n).found else 0)

        with pytest.raises(RefutationFailedError):
            refute_total_translator(exact, pad=8)

    def test_zero_within_the_bound_raises(self, monkeypatch):
        # dropping every literal's prefix gives an f2 that vanishes at 0,
        # inside the translator's bound, so it refutes nothing
        real = ranges.UltimatelyConstantSeq
        monkeypatch.setattr(ranges, "UltimatelyConstantSeq",
                            lambda prefix, tail, name="": real((), tail, name=name))
        with pytest.raises(VerificationError):
            refute_total_translator(lambda f, g: UltimatelyConstantSeq((), 0), pad=8)

    def test_counterexample_is_valid_rho(self):
        cex = refute_total_translator(lambda f, g: UltimatelyConstantSeq((), 0), pad=8)
        assert verify_range_aux(cex.f2, cex.g2, "rho", 16, 128).ok


class TestRoundTrips:
    def test_beta_then_rho_matches_brute_force(self):
        f = LazySeq(lambda n: (n * n + 3) % 50)
        fuel = 128
        members = brute_range(f, fuel)
        least = {}
        for t in range(fuel):
            least.setdefault(f(t), t)
        b = LazySeq(lambda n: least.get(n, 0))
        chi = t_beta_to_rho(f, b)
        for n in range(50):
            assert (chi(n) == 1) == (n in members)

    def test_rho_then_beta_minimal(self):
        f = LazySeq(lambda n: (5 * n + 2) % 17)
        members = brute_range(f, 64)
        chi = LazySeq(lambda n: 1 if n in members else 0)
        res = t_rho_to_beta(f, chi, 64)
        for n in range(17):
            r = res(n)
            assert r.found
            if chi(n):
                assert f(r.value) == n
                assert all(f(u) != n for u in range(r.value))
