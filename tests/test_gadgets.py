import pytest

from banachkit.metric import (
    BitStream,
    CantorPoint,
    Dyadic,
    IntervalPoint,
    halving_gadget,
    padding_gadget,
    preimage_gadget,
    preimage_select,
    range_char,
    sigma_seq,
)
from banachkit.omniscience import llpomin
from banachkit.streams import UltimatelyConstantSeq

ZERO_POINT = CantorPoint(BitStream.constant(0))


def w_with_first_zero(s):
    return UltimatelyConstantSeq((1,) * s + (0,), 1)


class TestPaddingClosure:
    def test_pad_periodic(self):
        _, G = padding_gadget()
        p = G.exact_apply(CantorPoint(BitStream((), (1,))))
        assert p.stream.bits(8) == (1, 0, 1, 0, 1, 0, 1, 0)

    def test_unpad_inverts_pad(self):
        F, _ = padding_gadget()
        for stream in (BitStream((1, 0, 1), (0,)), BitStream((), (1, 1, 0)),
                       BitStream((0, 1), (1, 0))):
            x = CantorPoint(stream)
            back = F.exact_preimage(F.exact_apply(x))
            assert back.stream.first_disagreement(stream) is None

    def test_exact_range(self):
        F, _ = padding_gadget()
        assert F.exact_range(CantorPoint(BitStream((), (1, 0))))
        assert not F.exact_range(CantorPoint(BitStream((), (1,))))
        assert not F.exact_range(sigma_seq(3))

    def test_unpad_rejects_non_members(self):
        F, _ = padding_gadget()
        with pytest.raises(ValueError):
            F.exact_preimage(CantorPoint(BitStream((), (1,))))


class TestSigmaSeq:
    def test_literal(self):
        assert sigma_seq(1).stream.bits(6) == (1, 0, 1, 1, 0, 0)

    def test_not_in_padding_range(self):
        F, _ = padding_gadget()
        for n in range(6):
            assert not F.exact_range(sigma_seq(n))

    def test_paper_image_shape(self):
        # P(sigma_n) is n copies of 1000, then 1010, then zeros
        F, _ = padding_gadget()
        for n in range(5):
            want = (1, 0, 0, 0) * n + (1, 0, 1, 0) + (0,) * 4
            got = F.exact_apply(sigma_seq(n)).stream.bits(len(want))
            assert got == want


class TestHalvingGadget:
    def test_modulus_is_identity(self):
        F, _ = halving_gadget()
        assert [F.modulus(k) for k in range(6)] == list(range(6))

    def test_preimage_guard(self):
        F, _ = halving_gadget()
        with pytest.raises(ValueError):
            F.exact_preimage(IntervalPoint(Dyadic(3, 2)))


class TestPreimageGadget:
    def test_even_case_preimage_is_zeros(self):
        f = preimage_gadget(w_with_first_zero(2))
        p = preimage_select(f.space, f, ZERO_POINT, 8)
        assert p.approx(2).bit(0) == 0

    def test_odd_case_preimage_is_ones(self):
        f = preimage_gadget(w_with_first_zero(3))
        p = preimage_select(f.space, f, ZERO_POINT, 9)
        assert p.approx(2).bit(0) == 1

    def test_no_zero_both_branches_map_to_zeros(self):
        f = preimage_gadget(UltimatelyConstantSeq((), 1))
        zeros = BitStream.constant(0)
        ones = BitStream.constant(1)
        for x in (zeros, ones):
            assert f.image_value(x, 16).bits(17) == (0,) * 17

    def test_image_traces(self):
        # with first zero at s, the image of x flips/broadcasts at s+1
        s = 3
        f = preimage_gadget(w_with_first_zero(s))
        x = BitStream.constant(1)
        img = f.image_value(x, 8)
        assert img.bit(0) == 0
        assert img.bit(s + 1) == 1 - x.bit(0) if s % 2 else x.bit(0)
        for n in (1, 2, 5, 6):
            assert img.bit(n) == 1 - x.bit(n)

    def test_image_reads_only_w_up_to_its_level(self):
        # bit n reads only w(0..n), so the image at level n does too; w's
        # memo keys are the indices read
        for s in (0, 1, 5, None):
            for n in range(40):
                w = UltimatelyConstantSeq((), 1) if s is None else w_with_first_zero(s)
                f = preimage_gadget(w)
                for x in (BitStream.constant(0), BitStream.constant(1)):
                    f.image_value(x, n)
                assert set(w._cache) <= set(range(n + 1)), (s, n)

    @pytest.mark.parametrize("s", range(0, 12))
    def test_extracted_bit_is_first_zero_parity(self, s):
        w = w_with_first_zero(s)
        f = preimage_gadget(w)
        assert range_char(f.space, f, ZERO_POINT, s + 4).in_range
        p = preimage_select(f.space, f, ZERO_POINT, s + 4)
        assert p.approx(2).bit(0) == s % 2 == llpomin(w, 64).unwrap()
