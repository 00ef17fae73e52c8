import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachkit.errors import ParseError
from banachkit.metric import (
    BitStream,
    CantorPoint,
    Dyadic,
    IntervalPoint,
    cantor_space,
    parse_dyadic,
    unit_interval,
    verify_metric_axioms,
    verify_net_property,
)

dyadics = st.builds(Dyadic, st.integers(-200, 200), st.integers(0, 12))


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(4, 2) == Dyadic(1, 0)
        assert Dyadic(6, 3) == Dyadic(3, 2)
        assert Dyadic(3, -2) == Dyadic(12, 0)

    def test_pow2(self):
        assert Dyadic.pow2(3) == Dyadic(8, 0)
        assert Dyadic.pow2(-3) == Dyadic(1, 3)

    @given(dyadics, dyadics)
    @settings(max_examples=150, deadline=None)
    def test_ring_ops_exact(self, a, b):
        # cross-check against Fraction arithmetic
        from fractions import Fraction

        fa, fb = Fraction(a.num, 2 ** a.exp), Fraction(b.num, 2 ** b.exp)
        for op, fop in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)):
            assert Fraction(op.num, 2 ** op.exp) == fop
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)

    def test_half_double(self):
        x = Dyadic(3, 2)
        assert x.half() == Dyadic(3, 3)
        assert x.double() == Dyadic(3, 1)

    def test_scaled_int(self):
        assert Dyadic(3, 2).scaled_int(4) == 12
        with pytest.raises(ValueError):
            Dyadic(3, 4).scaled_int(2)

    @pytest.mark.parametrize("text,num,exp", [
        ("3/2^2", 3, 2), ("1", 1, 0), ("0", 0, 0), ("10/2^1", 5, 0)])
    def test_parse(self, text, num, exp):
        assert parse_dyadic(text) == Dyadic(num, exp)

    @pytest.mark.parametrize("bad", ["", "x", "3/2", "1/3^2", "2^3"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_dyadic(bad)

    def test_str_roundtrip(self):
        assert str(Dyadic(3, 2)) == "3/2^2"
        assert parse_dyadic(str(Dyadic(7, 5))) == Dyadic(7, 5)


class TestBitStream:
    def test_word_and_cycle(self):
        s = BitStream((1, 0), (1, 1, 0))
        assert s.bits(8) == (1, 0, 1, 1, 0, 1, 1, 0)

    def test_first_disagreement(self):
        a = BitStream.word((0, 0))
        b = BitStream.word((0, 1))
        assert a.first_disagreement(b) == 1

    def test_equal_streams(self):
        a = BitStream((1, 0), (0,))
        b = BitStream.word((1,))
        assert a.first_disagreement(b) is None

    def test_periodic_vs_constant(self):
        a = BitStream((), (1, 0))
        b = BitStream.constant(1)
        assert a.first_disagreement(b) == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitStream((2,), (0,))

    @given(st.lists(st.integers(0, 1), max_size=6),
           st.lists(st.integers(0, 1), min_size=1, max_size=4),
           st.lists(st.integers(0, 1), max_size=6),
           st.lists(st.integers(0, 1), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_first_disagreement_matches_deep_scan(self, p1, c1, p2, c2):
        a, b = BitStream(tuple(p1), tuple(c1)), BitStream(tuple(p2), tuple(c2))
        got = a.first_disagreement(b)
        # deep scan well past any period interaction
        naive = next((i for i in range(200) if a.bit(i) != b.bit(i)), None)
        assert got == naive


class TestUnitInterval:
    def setup_method(self):
        self.X = unit_interval(10)

    def test_level_one_grid(self):
        pts = [self.X.net_point(1, i) for i in range(self.X.level_count(1))]
        assert pts == [Dyadic(0), Dyadic(1, 2), Dyadic(1, 1), Dyadic(3, 2), Dyadic(1)]

    def test_net_property(self):
        assert verify_net_property(self.X, 8)

    def test_metric_axioms(self):
        triples = itertools.product(range(0, 9, 2), repeat=3)
        assert verify_metric_axioms(self.X, 2, triples)

    def test_embed(self):
        assert self.X.embed(1, 2, 3) == 8  # 1/2 at level 3 is 8/16

    def test_threshold_comparisons(self):
        # each 2^-k test is a Dyadic comparison on the exact distance
        a, b = Dyadic(3, 3), Dyadic(5, 4)
        d = self.X.dist(a, b)
        assert d == self.X.dist(b, a) == Dyadic(1, 4)
        assert d < Dyadic.pow2(-3)
        assert not d < Dyadic.pow2(-4)
        assert d <= Dyadic.pow2(-4)
        assert Dyadic.pow2(-5) < d
        assert d < Dyadic(3, 5) and not d < Dyadic(2, 5)

    def test_ids_in_ball(self):
        ids = list(self.X.ids_in_ball(3, Dyadic(1, 1), Dyadic(1, 3)))
        # level-3 grid has step 1/16; |k/16 - 8/16| <= 2/16
        assert ids == [6, 7, 8, 9, 10]

    def test_rounding_ties_go_low(self):
        p = IntervalPoint(Dyadic(1, 3))  # 1/8 between level-1 grid points
        assert p.approx(1) == Dyadic(0)

    def test_max_level_validation(self):
        with pytest.raises(ValueError):
            unit_interval(0)


class TestCantorSpace:
    def setup_method(self):
        self.X = cantor_space(10)

    def test_lexicographic_ids(self):
        assert self.X.net_point(1, 0).bits(2) == (0, 0)
        assert self.X.net_point(1, 1).bits(2) == (0, 1)
        assert self.X.net_point(1, 3).bits(2) == (1, 1)

    def test_first_disagreement_metric(self):
        a, b = self.X.net_point(1, 0), self.X.net_point(1, 1)
        assert self.X.dist(a, b) == Dyadic(1, 1)

    def test_net_property(self):
        assert verify_net_property(self.X, 8)

    def test_metric_axioms(self):
        triples = itertools.product(range(8), repeat=3)
        assert verify_metric_axioms(self.X, 2, triples)

    def test_threshold_comparisons(self):
        a = BitStream.word((1, 0, 1, 1))
        b = BitStream.word((1, 0, 1, 0))
        d = self.X.dist(a, b)
        assert d < Dyadic.pow2(-2)
        assert not d < Dyadic.pow2(-3)
        assert d <= Dyadic.pow2(-3)
        assert d < Dyadic(1, 2)
        assert not d < Dyadic.zero()
        # different cycle lengths: 1(01)* and 10(100)* first differ at index 4
        d = self.X.dist(BitStream((1,), (0, 1)), BitStream((1, 0), (1, 0, 0)))
        assert d == Dyadic.pow2(-4)
        assert d < Dyadic.pow2(-3) and not d < Dyadic.pow2(-4)
        assert d <= Dyadic.pow2(-4) and Dyadic.pow2(-5) < d
        assert d < Dyadic(3, 5) and not d < Dyadic(1, 4)
        assert self.X.dist(BitStream((1, 0), (0,)), BitStream.word((1,))) == Dyadic.zero()

    def test_ids_in_ball_is_cylinder(self):
        center = BitStream.word((1, 0, 1))
        ids = list(self.X.ids_in_ball(2, center, Dyadic(1, 1)))
        # d < 1/2 means agreement through index 1: prefix 10
        assert ids == [4, 5]

    def test_embed(self):
        i = self.X.id_of(1, BitStream.word((1, 0)))
        assert self.X.net_point(3, self.X.embed(1, i, 3)).bits(4) == (1, 0, 0, 0)


class TestPoints:
    def test_interval_approx_rapid(self):
        p = IntervalPoint(Dyadic(341, 10))
        for m in range(8):
            assert abs(p.approx(m) - p.value) <= Dyadic.pow2(-(m + 2))
            assert abs(p.approx(m) - p.approx(m + 1)) <= Dyadic.pow2(-m)

    def test_cantor_approx_truncates(self):
        p = CantorPoint(BitStream((), (1, 0)))
        assert p.approx(3).bits(4) == (1, 0, 1, 0)
