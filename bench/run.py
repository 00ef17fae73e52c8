"""Layered benchmark for banachkit: one workload per run, closed loop.

    python3 bench/run.py --workload banach-nat --seed 1 --seconds 30 --trace 0

Run it with plain `python3`, not `python3 -O`: `-O` strips the tree_member
spot check in `banach_bijection_nat` and so measures a different program.

One thread sends each operation after the previous one has returned, and no
subprocess is started. The run attempts whole rounds of operations until
`--seconds` have passed, checks every output (see workloads.py) and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`:

* `--trace 0`: the end-to-end metrics, with tracing off.
* `--trace 1`: the per-layer metrics. After one warm-up round, the run plays
  each round twice, untraced and then with the span tracer of spans.py
  installed, until `--seconds` have passed; the difference between the two
  is reported as the tracing overhead.

A fuller record of the run goes to bench/out/, and the spans of a traced run
to bench/out/*.spans.jsonl.
"""

import os
import time


def _seconds_since_process_start() -> float:
    """Age of this process, from its start time in /proc (Linux)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


PROCESS_START = time.perf_counter() - _seconds_since_process_start()

import argparse  # noqa: E402  (the clock above must start first)
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("banach-nat", "realizers", "modulus")  # known before banachkit imports
# Rounds in the pool, which a run cycles through. Few rounds make each input
# run about twenty times in a run, so its best timing escapes the host's
# slow stretches: with 14 rounds (112 inputs) a `banach-nat` input ran five
# to eight times, and ten runs spread by 0.18 to 0.57 on the time metrics.
POOL_ROUNDS = 4
MICRO_CALLS = 50_000      # LazySeq point queries per micro-loop repeat
MICRO_REPEATS = 7


@dataclass
class Sample:
    """Outcome of a closed-loop phase."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies: list = field(default_factory=list)   # seconds, succeeded ops only
    by_input: dict = field(default_factory=dict)    # (pool round, position) -> seconds
    first_op_at: float = 0.0
    problems: list = field(default_factory=list)     # first few, for the record

    def note(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)


def attempt(workload, case, run, sample: Sample, key) -> None:
    """One timed operation, then its check. An exception or a wrong output
    makes the operation failed; a wrong output also makes the run incorrect."""
    sample.attempted += 1
    t0 = time.perf_counter()
    try:
        out = run(case)
    except Exception:  # a failed operation must not stop the run
        sample.failed += 1
        sample.note(traceback.format_exc(limit=4))
        return
    elapsed = time.perf_counter() - t0
    problems = workload.check(case, out)
    if problems:
        sample.failed += 1
        sample.wrong += 1
        sample.note(f"{case!r}: {problems[:3]}")
        return
    sample.latencies.append(elapsed)
    sample.by_input.setdefault(key, []).append(elapsed)


def play_round(workload, pool, run, sample: Sample, on_op=None) -> None:
    """The next round of the pool, which the run cycles through."""
    index = sample.rounds % len(pool)
    for position, case in enumerate(pool[index]):
        if on_op is not None:
            on_op(sample.attempted)
        attempt(workload, case, run, sample, (index, position))
    sample.rounds += 1


def closed_loop(workload, pool, seconds: float) -> Sample:
    """Whole rounds, until `seconds` have passed."""
    sample = Sample()
    start = sample.first_op_at = time.perf_counter()
    while True:
        play_round(workload, pool, workload.run, sample)
        if time.perf_counter() - start >= seconds:
            return sample


def traced_loop(workload, pool, seconds: float, tracer) -> tuple:
    """A warm-up round, then each round twice, untraced and then traced,
    until `seconds` have passed. Alternating the two keeps drift in the
    machine's speed out of the measured tracing overhead."""
    warm_up, untraced, traced = Sample(), Sample(), Sample()
    play_round(workload, pool, workload.run, warm_up)
    traced_run = tracer.wrap("op", workload.run)
    start = time.perf_counter()
    while True:
        play_round(workload, pool, workload.run, untraced)
        tracer.install()
        try:
            play_round(workload, pool, traced_run, traced,
                       on_op=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return warm_up, untraced, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def input_latencies(sample: Sample, pool) -> list:
    """Each of the pool's inputs is timed at the best of its runs: a run
    cycles through the pool, so each input runs several times, spread over
    the run, and the best of them drops the stretches in which other work on
    the host slowed the process down (the convention of the timeit module).
    Inputs that are the same operation (equal cases, as the `modulus` pool
    holds) share their timings."""
    best: dict = {}
    for (index, position), times in sample.by_input.items():
        case = pool[index][position]
        best[case] = min(best.get(case, math.inf), min(times))
    return [best[pool[index][position]] for index, position in sample.by_input]


def end_to_end(sample: Sample, pool, setup_s: float) -> dict:
    """The rate and the percentiles are over the per-input latencies."""
    per_input = input_latencies(sample, pool)
    if len(per_input) < 2:
        raise RuntimeError(f"only {len(per_input)} inputs succeeded; no latency figures")
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(per_input) / sum(per_input), "ops/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(per_input), "ms"),
        "op_p90_ms": _metric(1e3 * statistics.quantiles(per_input, n=10)[-1], "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def lazyseq_micro(LazySeq) -> tuple:
    """Median ns per LazySeq point query: a memo hit, and a miss that calls a
    trivial generator and fills the memo."""
    hits, misses = [], []
    for _ in range(MICRO_REPEATS):
        s = LazySeq(lambda n: n)
        s(7)
        t0 = time.perf_counter_ns()
        for _ in range(MICRO_CALLS):
            s(7)
        hits.append((time.perf_counter_ns() - t0) / MICRO_CALLS)
        s = LazySeq(lambda n: n)
        t0 = time.perf_counter_ns()
        for i in range(MICRO_CALLS):
            s(i)
        misses.append((time.perf_counter_ns() - t0) / MICRO_CALLS)
    return statistics.median(hits), statistics.median(misses)


# spans reported as <name>_ms and <name>_queries per operation: self time and
# own queries
SELF_SPANS = (
    "banach_nat.solve", "banach_nat.tree_member", "banach_nat.path_to_bijection",
    "banach_nat.verify_banach", "banach_nat.chain_trace",
    "ranges.t_beta_to_rho", "ranges.t_rho_to_beta",
)
# the translators compose one another (llpo_from_lpo is built from
# llpomin_from_lpo and llpo_from_llpomin), so each reports its own case:
# time and queries of its spans not nested in another omniscience span
CASE_SPANS = (
    "omniscience.llpomin_from_llpo", "omniscience.llpomin_from_lpo",
    "omniscience.llpo_from_llpomin", "omniscience.llpo_from_lpo",
    "omniscience.grilliot_lpo",
)
# spans reported by time only
TIME_SPANS = {
    "metric.preimage_select": "metric.preimage_select_ms",
    "metric.banach_H": "metric.banach_H_ms",
    "metric.modulus_of": "metric.modulus_of_ms",
    "metric.modulus_query": "metric.modulus_query_ms",
    "metric.modulus_valid": "metric.modulus_valid_ms",
    "cli.run": "cli.self_ms",
}


def per_layer(tracer, traced: Sample, untraced: Sample, micro: tuple) -> dict:
    ops = traced.attempted
    totals = tracer.totals()

    def row(name):
        return totals.get(name, dict.fromkeys(
            ("self_ns", "queries", "hits", "outer_ns", "outer_queries"), 0))

    queries = sum(r["queries"] for r in totals.values())
    hits = sum(r["hits"] for r in totals.values())
    metrics = {
        "streams.queries_per_op": _metric(queries / ops, "count"),
        "streams.generator_calls_per_op": _metric((queries - hits) / ops, "count"),
        "streams.hit_ratio": _metric(hits / queries if queries else 0.0, "hits/queries"),
        "streams.hit_ns": _metric(micro[0], "ns"),
        "streams.miss_ns": _metric(micro[1], "ns"),
    }
    for span in SELF_SPANS:
        metrics[span + "_ms"] = _metric(row(span)["self_ns"] / 1e6 / ops, "ms")
        metrics[span + "_queries"] = _metric(row(span)["queries"] / ops, "count")
    for span in CASE_SPANS:
        metrics[span + "_ms"] = _metric(row(span)["outer_ns"] / 1e6 / ops, "ms")
        metrics[span + "_queries"] = _metric(row(span)["outer_queries"] / ops, "count")
    for span, name in TIME_SPANS.items():
        metrics[name] = _metric(row(span)["self_ns"] / 1e6 / ops, "ms")
    levels = tracer.counters[spans.PREIMAGE_LEVELS]
    preimage_ns = row("metric.preimage_select")["self_ns"]
    metrics["metric.preimage_level_ms"] = _metric(preimage_ns / 1e6 / levels if levels else 0.0, "ms")
    metrics["metric.net_points"] = _metric(tracer.counters[spans.NET_POINTS] / ops, "count")
    plain, traced_s = sum(untraced.latencies), sum(traced.latencies)
    metrics["trace.overhead_ms_per_op"] = _metric(1e3 * (traced_s - plain) / ops, "ms")
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_s - plain) / plain, "%")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import banachkit
        import workloads
    except ImportError as exc:
        print(f"cannot import banachkit from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(banachkit.__file__).resolve().parents:
        print(f"banachkit was imported from {banachkit.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    pool = [workload.make_round(rng) for _ in range(POOL_ROUNDS)]

    OUT_DIR.mkdir(exist_ok=True)
    if not args.trace:
        sample = closed_loop(workload, pool, args.seconds)
        metrics = end_to_end(sample, pool, sample.first_op_at - PROCESS_START)
        samples = [sample]
    else:
        from banachkit.streams import LazySeq

        tracer = spans.Tracer()
        samples = traced_loop(workload, pool, args.seconds, tracer)
        _warm_up, untraced, traced = samples
        metrics = per_layer(tracer, traced, untraced, lazyseq_micro(LazySeq))
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    result = {
        "correct": all(s.wrong == 0 for s in samples),
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "rounds": [s.rounds for s in samples],
              "succeeded": [len(s.latencies) for s in samples],
              "inputs": [len(s.by_input) for s in samples],
              "problems": [p for s in samples for p in s.problems], "result": result}
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for text in record["problems"]:
        print(text, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
