"""The benchmark's checks can fail: each checker is fed one wrong answer and
must count the operation as failed.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from banachkit import cli  # noqa: E402
from banachkit.metric import ops as metric_ops  # noqa: E402
from banachkit.streams import Found, LazySeq  # noqa: E402


def first_case(name, seed=0):
    return workloads.WORKLOADS[name].make_round(random.Random(seed))[0]


def attempt(name, case, tamper=lambda out: out):
    """Run one case through the benchmark's own attempt(), with its output
    passed through `tamper` before the check."""
    workload = workloads.WORKLOADS[name]
    sample = bench.Sample()
    bench.attempt(workload, case, lambda c: tamper(workload.run(c)), sample, key=(0, 0))
    return sample


def assert_failed(sample):
    assert (sample.attempted, sample.failed, sample.wrong) == (1, 1, 1)
    assert sample.latencies == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_right_answers_pass(name):
    case = first_case(name)
    if name == "modulus":
        case = dataclasses.replace(case, cap=6, max_level=6)
    sample = attempt(name, case)
    assert (sample.attempted, sample.failed, sample.wrong) == (1, 0, 0), sample.problems
    assert len(sample.latencies) == 1


def test_banach_nat_flipped_parity_fails():
    case = first_case("banach-nat")
    assert_failed(attempt("banach-nat", case,
                          lambda out: dataclasses.replace(out, h1=1 - out.h1)))


def test_banach_nat_broken_banach_condition_fails():
    # swapping two values keeps h injective but breaks f0(m) = h(m) or f1(h(m)) = m
    def swap(out):
        forward = dict(out.forward)
        forward[2], forward[4] = forward[4], forward[2]
        return dataclasses.replace(out, forward=forward)

    case = first_case("banach-nat")
    assert_failed(attempt("banach-nat", case, swap))
    problems = workloads.check_gadget(case, swap(workloads.run_gadget(case)))
    assert any("Banach condition" in p for p in problems)


def test_banach_nat_non_injective_fails():
    def merge(out):
        forward = dict(out.forward)
        forward[3] = forward[5]
        return dataclasses.replace(out, forward=forward)

    case = first_case("banach-nat")
    problems = workloads.check_gadget(case, merge(workloads.run_gadget(case)))
    assert any("not injective" in p for p in problems)


def test_realizers_flipped_parity_fails():
    case = first_case("realizers")
    flipped = Found(1 - case.k % 2)
    assert_failed(attempt("realizers", case,
                          lambda out: dataclasses.replace(out, llpomin_from_lpo=flipped)))


def test_realizers_wrong_least_witness_fails():
    case = first_case("realizers")
    _values, least = workloads.table_facts(case.table, case.table_tail)
    n = min(v for v in least if v < workloads.TABLE_SHOW)

    def shift(out):
        beta = list(out.beta)
        beta[n] = Found(least[n] + 1)
        return dataclasses.replace(out, beta=beta)

    assert_failed(attempt("realizers", case, shift))


def test_realizers_wrong_bijection_value_fails():
    case = first_case("realizers")
    assert_failed(attempt("realizers", case,
                          lambda out: dataclasses.replace(out, h_tag="via-G-inverse"
                                                          if out.h_tag == "via-F" else "via-F")))


def test_modulus_off_by_one_fails():
    def bump(out):
        data = json.loads(out.stdout)
        data["output"]["modulus"][3] += 1
        return dataclasses.replace(out, stdout=json.dumps(data))

    case = dataclasses.replace(first_case("modulus"), space="cantor", fun="padding",
                               cap=6, max_level=6)
    assert_failed(attempt("modulus", case, bump))


def test_modulus_nonzero_exit_fails():
    case = dataclasses.replace(first_case("modulus"), cap=6, max_level=6)
    assert_failed(attempt("modulus", case,
                          lambda out: dataclasses.replace(out, code=1)))


def test_percentiles_take_each_inputs_best_timing():
    sample = bench.Sample(latencies=[0.4, 0.1, 0.3, 0.2, 0.9],
                          by_input={(0, 0): [0.4, 0.1], (0, 1): [0.3, 0.2], (1, 0): [0.9]})
    metrics = bench.end_to_end(sample, [["a", "b"], ["c"]], setup_s=0.5)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(200.0)   # median of 0.1, 0.2, 0.9
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 1.2)


def test_equal_inputs_share_their_best_timing():
    sample = bench.Sample(by_input={(0, 0): [0.4, 0.3], (0, 1): [0.2], (1, 0): [0.1, 0.5]})
    assert bench.input_latencies(sample, [["a", "b"], ["a"]]) == [0.1, 0.2, 0.1]


@pytest.mark.parametrize("space,fun", workloads.MODULUS_FUNS)
@pytest.mark.parametrize("cap", [3, 5, 7])
def test_brute_force_matches_closed_forms(space, fun, cap):
    want = [workloads.closed_form_modulus(fun, cap, m) for m in range(cap + 1)]
    assert list(workloads.brute_modulus(space, fun, cap)) == want


def test_halving_law_on_small_dyadics():
    from fractions import Fraction as Q

    assert workloads.halving_law(Q(0)) == (Q(0), "via-F")
    assert workloads.halving_law(Q(1)) == (Q(1, 2), "via-F")            # out at stage 1
    assert workloads.halving_law(Q(1, 2)) == (Q(1), "via-G-inverse")    # out at stage 2
    assert workloads.halving_law(Q(1, 8)) == (Q(1, 4), "via-G-inverse")  # 1/8 -> 1 at stage 4


def test_tracer_wraps_cli_names_and_restores_them():
    original_run, original_modulus = cli.run, metric_ops.modulus_of
    original_call = LazySeq.__call__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.run is not original_run
        assert cli.modulus_of is metric_ops.modulus_of is not original_modulus
        case = dataclasses.replace(first_case("modulus"), cap=5, max_level=5)
        out = workloads.run_modulus(case)
    finally:
        tracer.uninstall()
    assert (cli.run, metric_ops.modulus_of) == (original_run, original_modulus)
    assert LazySeq.__call__ is original_call
    assert workloads.check_modulus(case, out) == []
    totals = tracer.totals()
    assert {"cli.run", "metric.modulus_of", "metric.modulus_query",
            "metric.modulus_valid"} <= set(totals)
    # self time lies between 0 and the span's duration
    cli_span = next(s for s in tracer.spans if s[3] == "cli.run")
    assert 0 <= cli_span[6] <= cli_span[5] - cli_span[4]


def test_queries_go_to_the_innermost_span():
    tracer = spans.Tracer()
    tracer.install()
    try:
        s = LazySeq(lambda n: n)
        inner = tracer.wrap("layer.inner", lambda: s(1) + s(1))
        tracer.wrap("layer.outer", lambda: s(2) + inner())()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert (totals["layer.inner"]["queries"], totals["layer.inner"]["hits"]) == (2, 1)
    assert totals["layer.outer"]["queries"] == 1
    # the outer span's case covers its nested span of the same layer
    assert totals["layer.outer"]["outer_queries"] == 3
    assert totals["layer.inner"]["outer_queries"] == totals["layer.inner"]["outer_ns"] == 0
