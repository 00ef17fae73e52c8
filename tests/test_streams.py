import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachkit.errors import ParseError
from banachkit.streams import (
    Exhausted,
    Found,
    Fuel,
    LazySeq,
    UltimatelyConstantSeq,
    diagonal,
    family_member,
    format_seq,
    lpo,
    mu,
    mu0,
    pair_index,
    parse_seq,
    prefix,
    unpair_index,
)

IDENT = LazySeq(lambda n: n, name="identity")
ONES = UltimatelyConstantSeq((), 1)
ZEROS = UltimatelyConstantSeq((), 0)


def seq(text):
    return parse_seq(text)


class TestPrefix:
    def test_identity(self):
        assert prefix(IDENT, 3) == [0, 1, 2]

    def test_literal_expansion(self):
        assert prefix(seq("1,0,1;0"), 5) == [1, 0, 1, 0, 0]

    def test_caches(self):
        calls = []
        s = LazySeq(lambda n: calls.append(n) or n)
        prefix(s, 4)
        prefix(s, 4)
        assert calls == [0, 1, 2, 3]


class TestPointQuery:
    def test_rejects_negative_indices_and_non_natural_values(self):
        s = LazySeq(lambda n: n - 3)
        for n in (-1, 2):  # s(2) would be -1
            with pytest.raises(ValueError):
                s(n)
        assert s(5) == 2
        with pytest.raises(ValueError):
            s(-1)  # a negative index never hits, so a warm memo still rejects it
        assert s._cache == {5: 2}


class TestDiagonal:
    def test_all_zero_enumeration(self):
        g = diagonal(lambda m: ZEROS)
        assert prefix(g, 8) == [1] * 8

    def test_all_one_enumeration(self):
        g = diagonal(lambda m: ONES)
        assert prefix(g, 8) == [0] * 8

    def test_parity_enumeration(self):
        # e(m)(n) = parity of m+n: e(m)(m) is even parity = 0, so g is all 1
        e = lambda m: LazySeq(lambda n, m=m: (m + n) % 2)
        g = diagonal(e)
        assert prefix(g, 16) == [1] * 16
        for k in range(65):
            assert g(k) != min(1, e(k)(k))

    def test_clamps_non_binary(self):
        g = diagonal(lambda m: UltimatelyConstantSeq((), 7))
        assert g(3) == 0

    def test_prefix_of_diagonal(self):
        e = lambda m: IDENT
        g = diagonal(e)
        assert prefix(g, 2) == [1, 0]  # differs from e(0)(0)=0 and e(1)(1)=1

    @given(st.lists(st.lists(st.integers(0, 3), max_size=8), min_size=1, max_size=8),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_anti_membership_on_arbitrary_enumerations(self, rows, tail):
        e = lambda m: UltimatelyConstantSeq(tuple(rows[m % len(rows)]), tail)
        g = diagonal(e)
        for k in range(32):
            assert g(k) != min(1, e(k)(k))


class TestLpo:
    def test_zero_at_one(self):
        assert lpo(seq("1,0,1;1"), 16) == Found(0)

    def test_promised_no_zero(self):
        assert lpo(ONES.with_no_zero_promise(), 16) == Found(1)
        assert lpo(ONES, 16, no_zero_promise=True) == Found(1)

    def test_unpromised_exhausts(self):
        assert lpo(ONES, 16) == Exhausted(16)

    def test_found_zero_beats_false_promise(self):
        assert lpo(seq("1,0;1").with_no_zero_promise(), 16) == Found(0)


class TestMuAndMu0:
    def test_mu0_single_zero(self):
        assert mu0(seq("1,1,0;1"), 8) == Found(2)

    def test_mu0_all_zeros(self):
        assert mu0(ZEROS, 8) == Found(0)

    def test_mu0_exhausts(self):
        assert mu0(ONES, 4) == Exhausted(4)

    def test_mu_least(self):
        assert mu(seq("1,0,0;0"), 8) == Found(1)
        assert mu(ZEROS, 8) == Found(0)

    def test_mu_ascending_scan(self):
        s = LazySeq(lambda n: 0 if n >= 5 else 1)
        assert mu(s, 16) == Found(5)


@st.composite
def ult_const(draw):
    head = draw(st.lists(st.integers(0, 4), max_size=12))
    return UltimatelyConstantSeq(head, draw(st.integers(0, 4)))


class TestProperties:
    @given(ult_const(), st.integers(1, 40), st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_fuel_monotone_and_coherent(self, s, f, extra):
        r1, r2 = mu(s, f), mu(s, f + extra)
        if r1.found:
            # the least zero never moves with more fuel
            assert r2 == r1
            assert s(r1.value) == 0
            m0 = mu0(s, f)
            assert m0.found and s(m0.value) == 0 and r1.value <= m0.value
        b1, b2 = lpo(s, f), lpo(s, f + extra)
        if b1.found:
            assert b2 == b1

    @given(ult_const(), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_determinism_across_cache_states(self, s, f):
        fresh = UltimatelyConstantSeq(s.prefix, s.tail)
        prefix(fresh, 20)  # warm the cache
        assert mu(s, f) == mu(fresh, f)
        assert lpo(s, f) == lpo(fresh, f)


def linear_first_index(s, value, bound, read):
    """The plain scan first_index replaces; adds the indices it reads to read."""
    for t in range(bound):
        read.add(t)
        if s(t) == value:
            return t
    return None


class TestFirstIndex:
    @given(ult_const(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 24)),
                                 min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan_and_reads_the_same(self, u, queries):
        by_bound = sorted(queries, key=lambda q: q[1])
        queries = [(queries[0][0], 0)] + queries + by_bound + by_bound[::-1]
        calls = []

        def gen(n):
            calls.append(n)
            return u(n)

        class Counted(LazySeq):
            queries = 0

            def __call__(self, n):
                self.queries += 1
                return super().__call__(n)

        s = Counted(gen)
        read = set()
        for value, bound in queries:
            assert s.first_index(value, bound) == linear_first_index(u, value, bound, read)
            assert set(calls) == read
        # the memo keys are the indices read, and no index is read twice
        assert set(s._cache) == read
        assert s.queries == len(read)
        # one value searched again with growing bounds: each search starts
        # where the last left off
        value = queries[-1][0]
        for bound in range(26):
            assert s.first_index(value, bound) == linear_first_index(u, value, bound, read)
            assert set(calls) == read
        assert set(s._cache) == read
        assert s.queries == len(read) == len(calls)

    @given(ult_const(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 24)),
                                 min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_recorded_entries_are_final_and_least(self, u, queries):
        # first_index returns a recorded entry without taking its scan lock,
        # which is sound only if no entry changes once written and each holds
        # the least index of its value
        s = LazySeq(u)
        earlier = {}
        for value, bound in queries:
            s.first_index(value, bound)
            assert s._first.items() >= earlier.items()
            for v, t in s._first.items():
                assert linear_first_index(u, v, t + 1, set()) == t
            earlier = dict(s._first)

    def test_shared_between_threads(self):
        values = [(n * n) % 31 for n in range(400)]
        evaluated = []
        # sleep(0) hands the interpreter to another thread mid-scan
        s = LazySeq(lambda n: time.sleep(0) or evaluated.append(n) or values[n])
        queries = [(v, b) for b in (50, 400, 10, 200) for v in range(31)]
        expected = [linear_first_index(values.__getitem__, v, b, set()) for v, b in queries]
        out = []

        def worker():
            out.append([s.first_index(v, b) for v, b in queries])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert out == [expected] * 8
        # the scans are serialized, so no index is evaluated twice
        assert sorted(evaluated) == list(range(max(evaluated) + 1))


class TestConcurrency:
    def test_shared_seq_from_threads(self):
        hits = []
        s = LazySeq(lambda n: hits.append(n) or n * n)
        out = []

        def worker():
            out.append([s(i) for i in range(50)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(out) == 8 and all(o == out[0] for o in out)

    def test_point_queries_race_first_index(self):
        values = [(7 * n * n + 3) % 23 for n in range(300)]
        # sleep(0) hands the interpreter to another thread mid-query
        s = LazySeq(lambda n: time.sleep(0) or values[n])
        points = list(range(0, 300, 3))
        searches = [(v, b) for b in (40, 300, 120) for v in range(23)]
        expected = ([values[n] for n in points],
                    [linear_first_index(values.__getitem__, v, b, set()) for v, b in searches])
        out = []

        def worker(k):
            # each thread alternates a point query with a search, starting
            # both lists at its own offset
            got = ([None] * len(points), [None] * len(searches))
            for j in range(len(points)):
                i = (j + 11 * k) % len(points)
                got[0][i] = s(points[i])
                i = (j + 5 * k) % len(searches)
                got[1][i] = s.first_index(*searches[i])
            out.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert out == [expected] * 12
        assert all(values[n] == v for n, v in s._cache.items())
        assert set(s._cache) == set(points) | set(range(s._scanned))
        for v, t in s._first.items():
            assert values.index(v) == t


class TestLiterals:
    def test_parse_roundtrip(self):
        s = parse_seq("1,0,1;0")
        assert (s.prefix, s.tail) == ((1, 0, 1), 0)
        assert format_seq(s.prefix, s.tail) == "1,0,1;0"

    def test_empty_prefix(self):
        s = parse_seq(";3")
        assert prefix(s, 3) == [3, 3, 3]

    @pytest.mark.parametrize("bad", ["", "1,2", "a;b", "1,,2;0", "1;-2", "1; 2x", "\u00b2;0"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_seq(bad)


class TestPairing:
    @given(st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_unpair_inverts(self, i, n):
        assert unpair_index(pair_index(i, n)) == (i, n)

    def test_family_view(self):
        fam = LazySeq(lambda k: sum(unpair_index(k)))
        assert prefix(family_member(fam, 3), 4) == [3, 4, 5, 6]


class TestFuel:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            Fuel(0)

    def test_conflicting_promises(self):
        with pytest.raises(ValueError):
            LazySeq(lambda n: n, no_zero=True, all_zero=True)
