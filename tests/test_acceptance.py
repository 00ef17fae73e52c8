"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import pathlib
import random
import time

from banachkit import banach_nat as bn
from banachkit.corpora import (
    parity_promise_seq,
    planted_zero_seq,
    random_shift_pair,
    table_fn_with_exact_range,
)
from banachkit.metric import (
    BitStream,
    CantorPoint,
    Dyadic,
    IntervalPoint,
    banach_H,
    halving_gadget,
    modulus_of,
    modulus_valid,
    padding_gadget,
    preimage_gadget,
    preimage_select,
    sigma_seq,
)
from banachkit.omniscience import (
    grilliot_lpo,
    llpo_from_llpomin,
    llpo_from_lpo,
    llpomin_from_llpo,
    llpomin_realizer,
    lpo_realizer,
)
from banachkit.ranges import t_beta_to_rho, t_rho_to_beta
from banachkit.streams import Found, Fuel, LazySeq, UltimatelyConstantSeq

GOLDEN = pathlib.Path(__file__).parent / "golden"


class Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.start = time.perf_counter()

    def done(self, budget=None):
        elapsed = time.perf_counter() - self.start
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {budget}s")
        print(f"[PASS] criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s)")


def random_tail_seq(rng, s):
    """A sequence with first zero exactly at s and arbitrary content after."""
    head = [rng.randint(1, 9) for _ in range(s)] + [0]
    head += [rng.randint(0, 9) for _ in range(rng.randrange(10))]
    return UltimatelyConstantSeq(head, rng.randint(0, 3))


def test_criterion_1_gadget_is_llpomin():
    crit = Criterion(1, "gadget bijection value h(1) equals first-zero parity")
    rng = random.Random(2024)
    for s in range(65):
        g = UltimatelyConstantSeq((1,) * s + (0,), 1)
        h = bn.banach_bijection_nat(bn.gadget_llpo(g), 70)
        assert h(1) == s % 2, f"exhaustive case s={s}"
    for i in range(500):
        s = rng.randrange(65)
        g = random_tail_seq(rng, s)
        h = bn.banach_bijection_nat(bn.gadget_llpo(g), 70)
        assert h(1) == s % 2, f"random case {i}, s={s}"
    crit.done(budget=10.0)


def test_criterion_2_figure_reproduction():
    crit = Criterion(2, "chain diagrams match the committed golden files")
    cases = [
        (UltimatelyConstantSeq((), 1), "figure1a.txt"),
        (UltimatelyConstantSeq((1, 1, 0), 0), "figure1b.txt"),
        (UltimatelyConstantSeq((1, 1, 1, 0), 0), "figure1c.txt"),
    ]
    for g, golden in cases:
        out = bn.render_chain_diagram(bn.gadget_llpo(g), 10)
        assert out == (GOLDEN / golden).read_text(), golden
    crit.done()


def test_criterion_3_interval_reversal_values():
    crit = Criterion(3, "halving-pair bijection values on [0,1], exactly")
    F, G = halving_gadget()
    X = F.space
    res = banach_H(X, F, G, IntervalPoint(Dyadic(1, 1)), 10, Fuel(64))
    assert res.point.value == Dyadic(1)
    assert res.tag == "via-G-inverse"
    for n in range(2, 21):
        x = Dyadic(1, 1) + Dyadic.pow2(-n)
        r = banach_H(X, F, G, IntervalPoint(x), 10, Fuel(64))
        assert r.tag == "via-F"
        assert r.point.value == Dyadic(1, 2) + Dyadic.pow2(-(n + 1)), f"x_{n}"
    crit.done(budget=1.0)


def test_criterion_4_cantor_reversal_values():
    crit = Criterion(4, "padding-pair bijection values on Cantor space")
    F, G = padding_gadget()
    X = F.space
    for n in range(17):
        sn = sigma_seq(n)
        res = banach_H(X, F, G, sn, 2 * (n + 1) + 2, Fuel(64))
        bits = 2 * (n + 1) + 2
        # the image shape comes straight from the source construction:
        # n copies of 1000, then 1010, then zeros
        want = ((1, 0, 0, 0) * n + (1, 0, 1, 0) + (0,) * bits)[:bits]
        assert res.point.stream.bits(bits) == want, f"sigma_{n}"
    x = CantorPoint(BitStream((), (1, 0)))
    res = banach_H(X, F, G, x, 31, Fuel(64))
    assert res.point.stream.bits(32) == (1,) * 32
    crit.done(budget=5.0)


def test_criterion_5_reduction_corpus():
    crit = Criterion(5, "reduction pipelines agree with exact realizers, 1000 each")
    fuel = Fuel(256)
    exact_min = llpomin_realizer()
    exact_llpo = llpo_from_llpomin(exact_min)

    rng = random.Random(5)
    built = llpomin_from_llpo(exact_llpo)
    for _ in range(1000):
        s, k = planted_zero_seq(rng, fuel.bound)
        assert built(s, fuel) == Found(k % 2)

    rng = random.Random(55)
    built = llpo_from_lpo(lpo_realizer())
    for _ in range(1000):
        s, p = parity_promise_seq(rng, fuel.bound)
        assert built(s, fuel) == exact_llpo(s, fuel) == Found(p)

    rng = random.Random(555)
    for _ in range(1000):
        s, p = parity_promise_seq(rng, fuel.bound)
        assert exact_llpo(s, fuel) == Found(p)

    rng = random.Random(5555)
    for _ in range(1000):
        s, _k = planted_zero_seq(rng, fuel.bound)
        assert grilliot_lpo(exact_min, s, fuel) == Found(0)
    crit.done()


def test_criterion_6_translator_oracle_equivalence():
    crit = Criterion(6, "range translators match brute-force enumeration, 200 pairs")
    rng = random.Random(6)
    for case in range(200):
        f, values, least, b = table_fn_with_exact_range(rng)
        chi = t_beta_to_rho(f, b)
        for n in range(129):
            assert (chi(n) == 1) == (n in values), f"case {case}, index {n}"
        exact_chi = LazySeq(lambda n, vs=values: 1 if n in vs else 0)
        res = t_rho_to_beta(f, exact_chi, Fuel(256))
        for n in range(129):
            r = res(n)
            assert r.found
            if n in values:
                assert r.value == least[n], f"case {case}: not the least witness at {n}"
            else:
                assert r.value == 0
    crit.done()


def test_criterion_7_tree_chain_cross_check():
    crit = Criterion(7, "tree bijection verifies and matches chain directions, 200 pairs")
    rng = random.Random(7)
    for case in range(200):
        pair = random_shift_pair(rng)
        h = bn.banach_bijection_nat(pair, 64, 256)
        assert bn.verify_banach(pair, h, 64).ok, f"case {case}"
        for m in range(64):
            cls = bn.chain_trace(pair, m, "A", 512)
            assert cls.origin != "unresolved", f"case {case}: chain {m} unresolved"
            assert h.tags[m] == cls.direction, f"case {case}, element {m}"
    crit.done()


def test_criterion_8_modulus_validity():
    crit = Criterion(8, "recomputed halving modulus is the identity and valid")
    F, _ = halving_gadget()
    X = F.space
    M = modulus_of(X, F, 10)
    for m in range(9):
        assert M(m) == m
        assert modulus_valid(X, F, M, m, 10), f"validity fails at {m}"
    crit.done(budget=30.0)


def test_criterion_9_preimage_gadget():
    crit = Criterion(9, "preimage gadget extracts first-zero parity, s <= 32")
    zero = CantorPoint(BitStream.constant(0))
    for s in range(33):
        w = UltimatelyConstantSeq((1,) * s + (0,), 1)
        f = preimage_gadget(w)
        p = preimage_select(f.space, f, zero, 36)
        assert p.approx(2).bit(0) == s % 2, f"s={s}"
    crit.done()
