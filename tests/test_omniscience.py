import random

import pytest

from banachkit.errors import NotATreeError
from banachkit.omniscience import (
    Reduction,
    compose_reduction,
    grilliot_lpo,
    grilliot_witness_family,
    llpo_from_llpomin,
    llpo_from_lpo,
    llpomin,
    llpomin_from_llpo,
    llpomin_from_lpo,
    llpomin_realizer,
    llpomin_via_wkl,
    lpo_realizer,
    reduction_llpo_to_llpomin,
    reduction_llpomin_to_lpo,
    wkl_search,
)
from banachkit.corpora import parity_promise_seq, planted_zero_seq
from banachkit.streams import Exhausted, Found, UltimatelyConstantSeq, parse_seq

ONES = UltimatelyConstantSeq((), 1)
ZEROS = UltimatelyConstantSeq((), 0)


def seq(text):
    return parse_seq(text)


class TestLlpomin:
    def test_first_zero_odd(self):
        assert llpomin(seq("1,0,1,0,0;0"), 32) == Found(1)

    def test_first_zero_even(self):
        assert llpomin(seq("1,1,0,0;0"), 32) == Found(0)

    def test_exhausts_without_promise(self):
        assert llpomin(ONES, 32) == Exhausted(32)

    def test_promise_convention(self):
        assert llpomin(ONES.with_no_zero_promise(), 32) == Found(0)


class TestLlpoFromLlpomin:
    def setup_method(self):
        self.S = llpo_from_llpomin(llpomin_realizer())

    def test_zero_on_odds(self):
        assert self.S(seq("1,0,1,0;0"), 64) == Found(1)

    def test_zero_on_evens(self):
        assert self.S(seq("0,1,0,0;0"), 64) == Found(0)

    def test_identically_zero_vacuous_promise(self):
        out = self.S(ZEROS.with_all_zero_promise(), 64)
        assert out.found and out.value in (0, 1)

    def test_identically_zero_unpromised_exhausts(self):
        assert self.S(ZEROS, 64).exhausted


class TestLlpominFromLlpo:
    def setup_method(self):
        exact_llpo = llpo_from_llpomin(llpomin_realizer())
        self.R = llpomin_from_llpo(exact_llpo)

    def test_single_zero_at_one(self):
        assert self.R(seq("1,0;1"), 64) == Found(1)

    def test_zero_at_zero(self):
        assert self.R(seq("0;1"), 64) == Found(0)

    def test_matches_llpomin_directly(self):
        assert self.R(seq("1,1,0,0;0"), 64) == Found(0)
        assert self.R(seq("1,1,0,0;0"), 64) == llpomin(seq("1,1,0,0;0"), 64)


class TestLlpominFromLpo:
    def setup_method(self):
        self.R = llpomin_from_lpo(lpo_realizer())
        # the bare reduction, with no scan-derived promise
        self.bare = compose_reduction(reduction_llpomin_to_lpo, lpo_realizer())

    def test_even_first_zero(self):
        assert self.R(seq("1,1,0;1"), 64) == Found(0)
        assert self.bare(seq("1,1,0;1"), 64) == Found(0)

    def test_odd_first_zero_uses_derived_promise(self):
        assert self.R(seq("1,0;1"), 64) == Found(1)
        assert self.bare(seq("1,0;1"), 64) == Exhausted(64)

    def test_all_ones_exhausts(self):
        assert self.R(ONES, 64) == Exhausted(64)
        assert self.bare(seq(";1"), 64) == Exhausted(64)


class TestComposeReduction:
    def test_identity_reduction(self):
        ident = Reduction(pre=lambda s: s, post=lambda n, _: n, name="id")
        R = compose_reduction(ident, llpomin_realizer())
        for text in ("1,0;0", "0;1", "1,1,1,0;0"):
            assert R(seq(text), 64) == llpomin(seq(text), 64)

    def test_named_reduction_matches_operation(self):
        via_red = compose_reduction(reduction_llpo_to_llpomin, llpomin_realizer())
        direct = llpo_from_llpomin(llpomin_realizer())
        rng = random.Random(11)
        for _ in range(200):
            s, _p = parity_promise_seq(rng, 64)
            assert via_red(s, 64) == direct(s, 64)

    def test_equivalence_round_trip(self):
        exact_llpo = llpo_from_llpomin(llpomin_realizer())
        round_trip = llpo_from_llpomin(llpomin_from_llpo(exact_llpo))
        rng = random.Random(7)
        for _ in range(1000):
            s, p = parity_promise_seq(rng, 128)
            a, b = round_trip(s, 128), exact_llpo(s, 128)
            assert a == b == Found(p)

    def test_composing_both_directions_recovers_llpomin(self):
        from banachkit.omniscience import reduction_llpomin_to_llpo

        composed = compose_reduction(
            reduction_llpomin_to_llpo,
            compose_reduction(reduction_llpo_to_llpomin, llpomin_realizer()))
        rng = random.Random(77)
        for _ in range(1000):
            s, k = planted_zero_seq(rng, 128)
            assert composed(s, 128) == llpomin(s, 128) == Found(k % 2)


class TestGrilliot:
    def test_all_ones_with_promise(self):
        assert grilliot_lpo(llpomin_realizer(), ONES.with_no_zero_promise(), 32) == Found(1)

    def test_zero_detected(self):
        assert grilliot_lpo(llpomin_realizer(), seq("1,0;1"), 32) == Found(0)
        assert grilliot_lpo(llpomin_realizer(), seq("0;0"), 32) == Found(0)

    def test_all_ones_without_promise(self):
        assert grilliot_lpo(llpomin_realizer(), ONES, 32).exhausted

    def test_agreement_on_corpus(self):
        rng = random.Random(3)
        for _ in range(300):
            h, _k = planted_zero_seq(rng, 64)
            assert grilliot_lpo(llpomin_realizer(), h, 64) == Found(0)

    def test_witness_family_separates(self):
        # the g_n family disagrees with the realizer's all-ones answer
        R = llpomin_realizer()
        r = R(ONES.with_no_zero_promise(), 64).unwrap()
        for g in grilliot_witness_family(R, 16, 64):
            assert llpomin(g, 256).unwrap() != r


class TestWklSearch:
    def test_full_tree_leftmost(self):
        assert wkl_search(lambda s: True, 5) == (0, 0, 0, 0, 0)

    def test_all_ones_only(self):
        t = lambda s: all(b == 1 for b in s)
        assert wkl_search(t, 4) == (1, 1, 1, 1)

    def test_empty_tree(self):
        assert wkl_search(lambda s: len(s) == 0, 3) is None

    def test_path_prefixes_are_members(self):
        t = lambda s: s[:1] != (0,) or len(s) <= 2
        path = wkl_search(t, 5)
        for i in range(len(path) + 1):
            assert t(path[:i])

    def test_not_a_tree_detected(self):
        # member iff length is exactly 3: fails downward closure
        bad = lambda s: len(s) in (0, 3)
        with pytest.raises(NotATreeError):
            wkl_search(bad, 3)

    def test_member_object_protocol(self):
        class T:
            def member(self, s):
                return all(b == 0 for b in s)

        assert wkl_search(T(), 3) == (0, 0, 0)


class TestLlpominViaWkl:
    def test_spec_cases(self):
        assert llpomin_via_wkl(seq("1,0;0"), 8) == 1
        assert llpomin_via_wkl(seq("0;0"), 8) == 0
        assert llpomin_via_wkl(ONES, 8) == 0  # leftmost survives

    def test_tree_case_analysis(self):
        assert llpomin_via_wkl(seq("1,1,0;0"), 6) == 0

    def test_matches_llpomin(self):
        rng = random.Random(5)
        for _ in range(200):
            s, k = planted_zero_seq(rng, 24)
            assert llpomin_via_wkl(s, k + 2) == k % 2


class TestRealizerCorpus:
    def test_llpo_from_lpo_on_parity_corpus(self):
        R = llpo_from_lpo(lpo_realizer())
        rng = random.Random(13)
        for _ in range(500):
            s, p = parity_promise_seq(rng, 128)
            assert R(s, 128) == Found(p)

    def test_llpomin_realizers_on_planted_corpus(self):
        realizers = [
            llpomin_realizer(),
            llpomin_from_lpo(lpo_realizer()),
            llpomin_from_llpo(llpo_from_llpomin(llpomin_realizer())),
        ]
        rng = random.Random(17)
        for _ in range(300):
            s, k = planted_zero_seq(rng, 128)
            for R in realizers:
                assert R(s, 128) == Found(k % 2)
