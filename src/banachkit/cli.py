"""Command-line surface: every construction, deterministic reports.

Exit codes: 0 success/pass, 1 verification failure, 2 fuel or depth
exhausted, 3 parse error (a malformed literal or argument, or a level beyond
a cap). Reports serialize with a stable key order; two runs with the same
argv and seed differ at most in elapsed_ms.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import Optional

from . import banach_nat, omniscience, ranges
from .errors import (
    BanachKitError,
    CapExceededError,
    ExhaustionError,
    ParseError,
    VerificationError,
)
from .metric import (
    BitStream,
    CantorPoint,
    CodeEntry,
    IntervalPoint,
    banach_H,
    cantor_space,
    check_code,
    decode_code,
    halving_gadget,
    identity_fun,
    modulus_of,
    modulus_valid,
    padding_gadget,
    parse_dyadic,
    preimage_gadget,
    preimage_select,
    range_char,
    unit_interval,
)
from .streams import (
    Fuel,
    LazySeq,
    OracleResult,
    lpo,
    mu,
    mu0,
    parse_seq,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_EXHAUSTED = 2
EXIT_PARSE = 3

FUEL_ENV = "BANACHKIT_FUEL"


def int_at_least(low: int):
    """argparse type for integers written in ASCII digits, value >= low."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


positive_int = int_at_least(1)  # counts and bounds
level_int = int_at_least(0)  # net levels


class RunReport:
    """op, input echo, output, effective bounds, violations, elapsed_ms."""

    def __init__(self, op: str, inputs: dict):
        self.op = op
        self.inputs = inputs
        self.output = None
        self.bounds: dict = {}
        self.violations: list = []
        self._start = time.monotonic()

    def finish(self) -> dict:
        return {
            "op": self.op,
            "input": self.inputs,
            "output": self.output,
            "bounds": self.bounds,
            "violations": self.violations,
            "elapsed_ms": int((time.monotonic() - self._start) * 1000),
        }

    def fuel(self, flag: Optional[int], key: str = "fuel") -> Fuel:
        """The flag's value, else BANACHKIT_FUEL, else 256 (an empty variable
        counts as unset), recorded in bounds under key with its source. Read
        only by the commands that spend fuel."""
        raw = os.environ.get(FUEL_ENV)
        if flag is not None:
            bound, source = flag, "flag"
        elif raw:
            try:
                bound, source = positive_int(raw), "env"
            except argparse.ArgumentTypeError:
                raise ParseError(raw, 0, f"an integer >= 1 in {FUEL_ENV}") from None
        else:
            bound, source = 256, "default"
        self.bounds[key] = bound
        self.bounds["fuel_source"] = source
        return Fuel(bound)

    def emit(self, fmt: str) -> None:
        data = self.finish()
        if fmt == "json":
            print(json.dumps(data, separators=(",", ":")))
            return
        print(f"op: {data['op']}")
        for key, value in data["input"].items():
            print(f"  {key}: {value}")
        for key, value in data["bounds"].items():
            print(f"  {key}: {value}")
        print(f"output: {json.dumps(data['output'])}")
        if data["violations"]:
            for v in data["violations"]:
                print(f"violation: {json.dumps(v)}")
        print(f"elapsed_ms: {data['elapsed_ms']}")


def _need(value: Optional[str], flag: str, expected: str) -> str:
    """A literal flag's text; a missing one is a parse error naming the flag."""
    if value is None:
        raise ParseError("", 0, f"{flag} {expected}")
    return value


def _oracle_json(r: OracleResult):
    return {"found": r.value} if r.found else {"exhausted": r.bound}


def parse_fn(text: str) -> LazySeq:
    """A sequence literal, or one of the named total functions."""
    named = {
        "identity": lambda n: n,
        "succ": lambda n: n + 1,
        "double": lambda n: 2 * n,
        "square": lambda n: n * n,
    }
    if text in named:
        return LazySeq(named[text], name=text)
    if text.startswith("const:"):
        k = text[len("const:"):]
        if not (k.isascii() and k.isdigit()):
            raise ParseError(text, len("const:"), "unsigned integer")
        return LazySeq(lambda n, v=int(k): v, name=text)
    if ";" in text:
        return parse_seq(text)
    raise ParseError(text, 0, "function name (identity|succ|double|square|const:K) "
                              "or sequence literal v0,..,vk;t")


def parse_cantor_point(text: str) -> CantorPoint:
    s = parse_seq(text)
    bits = s.prefix + (s.tail,)
    if any(b not in (0, 1) for b in bits):
        raise ParseError(text, 0, "0/1 values for a Cantor point")
    return CantorPoint(BitStream(s.prefix, (s.tail,)))


def _apply_promise(s: LazySeq, promise: Optional[str]) -> LazySeq:
    if promise == "no-zero":
        return s.with_no_zero_promise()
    if promise == "all-zero":
        return s.with_all_zero_promise()
    return s


def cmd_oracle(args) -> int:
    report = RunReport("oracle." + args.op, {"seq": args.seq, "promise": args.promise})
    s = _apply_promise(parse_seq(args.seq), args.promise)
    fuel = report.fuel(args.fuel)
    ops = {"lpo": lpo, "mu0": mu0, "mu": mu, "llpomin": omniscience.llpomin}
    result = ops[args.op](s, fuel)
    report.output = _oracle_json(result)
    report.emit(args.format)
    return EXIT_OK if result.found else EXIT_EXHAUSTED


def cmd_range(args) -> int:
    f = parse_fn(args.f)
    if args.action == "verify":
        report = RunReport("range.verify", {"f": args.f, "aux": args.aux, "kind": args.kind})
        fuel = report.fuel(args.fuel)
        report.bounds["n_max"] = args.n_max
        aux = parse_fn(_need(args.aux, "--aux", "auxiliary function"))
        out = ranges.verify_range_aux(f, aux, args.kind, args.n_max, fuel)
        report.output = "pass" if out.ok else "fail"
        report.violations = out.to_json()["violations"]
        report.emit(args.format)
        return EXIT_OK if out.ok else EXIT_VERIFY
    if args.action == "translate":
        report = RunReport("range.translate", {"f": args.f, "aux": args.aux, "dir": args.dir})
        fuel = report.fuel(args.fuel)
        aux = parse_fn(_need(args.aux, "--aux", "auxiliary function"))
        exhausted = False
        if args.dir == "beta-to-rho":
            chi = ranges.t_beta_to_rho(f, aux)
            report.output = [chi(n) for n in range(args.show)]
        else:
            res = ranges.t_rho_to_beta(f, aux, fuel)
            vals = [res(n) for n in range(args.show)]
            exhausted = any(r.exhausted for r in vals)
            report.output = [_oracle_json(r) for r in vals]
        report.emit(args.format)
        return EXIT_EXHAUSTED if exhausted else EXIT_OK
    report = RunReport("range.bounding", {"f": args.f})
    fuel = report.fuel(args.fuel)
    res = ranges.bounding_b(f, fuel)
    vals = [res(n) for n in range(args.show)]
    report.output = [_oracle_json(r) for r in vals]
    report.emit(args.format)
    return EXIT_EXHAUSTED if any(r.exhausted for r in vals) else EXIT_OK


_PIPELINES = {
    "llpo-from-lpo": lambda: omniscience.llpo_from_lpo(omniscience.lpo_realizer()),
    "llpomin-from-lpo": lambda: omniscience.llpomin_from_lpo(omniscience.lpo_realizer()),
    "llpomin-from-llpo": lambda: omniscience.llpomin_from_llpo(
        omniscience.llpo_from_llpomin(omniscience.llpomin_realizer())),
    "llpo-from-llpomin": lambda: omniscience.llpo_from_llpomin(omniscience.llpomin_realizer()),
}


def cmd_reduce(args) -> int:
    report = RunReport("reduce." + args.pipeline, {"seq": args.seq, "promise": args.promise})
    s = _apply_promise(parse_seq(args.seq), args.promise)
    fuel = report.fuel(args.fuel)
    if args.pipeline == "grilliot":
        result = omniscience.grilliot_lpo(omniscience.llpomin_realizer(), s, fuel)
    else:
        result = _PIPELINES[args.pipeline]()(s, fuel)
    report.output = _oracle_json(result)
    report.emit(args.format)
    return EXIT_OK if result.found else EXIT_EXHAUSTED


def _pair_from_args(args, report: RunReport) -> banach_nat.BoundedInjPair:
    f0, f1 = parse_fn(args.f0), parse_fn(args.f1)
    if args.b0 and args.b1:
        return banach_nat.BoundedInjPair(f0, f1, parse_fn(args.b0), parse_fn(args.b1))
    return banach_nat.unbounded_pair(f0, f1, report.fuel(args.bounds_fuel, "bounds_fuel"))


def _depth(args) -> int:
    """--depth, by default 4 * --n-max; it may not be below --n-max."""
    if args.depth is None:
        return 4 * args.n_max
    if args.depth < args.n_max:
        raise ParseError(str(args.depth), 0, f"--depth of at least --n-max {args.n_max}")
    return args.depth


def cmd_banach_nat(args) -> int:
    report = RunReport("banach-nat", {"f0": args.f0, "f1": args.f1})
    pair = _pair_from_args(args, report)
    depth = _depth(args)
    report.bounds["n_max"] = args.n_max
    report.bounds["depth"] = depth
    h = banach_nat.banach_bijection_nat(pair, args.n_max, depth)
    verdict = banach_nat.verify_banach(pair, h, args.n_max)
    report.output = {"bijection": h.to_json()[:args.n_max], "verify": "pass" if verdict.ok else "fail"}
    report.violations = verdict.to_json()["violations"]
    report.emit(args.format)
    return EXIT_OK if verdict.ok else EXIT_VERIFY


def cmd_gadget(args) -> int:
    report = RunReport("gadget", {"g": args.g})
    g = parse_seq(args.g)
    pair = banach_nat.gadget_llpo(g)
    depth = _depth(args)
    report.bounds["n_max"] = args.n_max
    report.bounds["depth"] = depth
    h = banach_nat.banach_bijection_nat(pair, args.n_max, depth)
    report.output = {"h1": h(1)}
    report.emit(args.format)
    return EXIT_OK


def cmd_diagram(args) -> int:
    if args.g is not None:
        pair = banach_nat.gadget_llpo(parse_seq(args.g))
    else:
        ident = LazySeq(lambda n: n, name="identity")
        pair = banach_nat.BoundedInjPair(ident, ident, ident, ident)
    sys.stdout.write(banach_nat.render_chain_diagram(pair, args.width))
    return EXIT_OK


def _metric_space_and_fun(args):
    if args.space == "interval":
        if args.fun == "identity":
            F = identity_fun(unit_interval(args.max_level))
            return F.space, F, F
        if args.fun != "halving":
            raise ParseError(args.fun, 0, "halving|identity (interval functions)")
        F, G = halving_gadget(args.max_level)
        return F.space, F, G
    space = cantor_space(args.max_level)
    if args.fun == "padding":
        F, G = padding_gadget(args.max_level)
        return F.space, F, G
    if args.fun == "identity":
        F = identity_fun(space)
        return space, F, F
    if args.fun == "preimage-gadget":
        w = _need(args.w, "--w", "sequence for the preimage gadget")
        F = preimage_gadget(parse_seq(w), max_level=args.max_level)
        return F.space, F, F
    raise ParseError(args.fun, 0, "padding|identity|preimage-gadget")


def _parse_point(space, text: Optional[str], flag: str):
    text = _need(text, flag, "point literal")
    if space.kind == "interval":
        return IntervalPoint(parse_dyadic(text))
    return parse_cantor_point(text)


def cmd_metric(args) -> int:
    space, F, G = _metric_space_and_fun(args)
    fmt = args.format
    if args.action == "range":
        report = RunReport("metric.range", {"space": args.space, "fun": args.fun, "y": args.y})
        report.bounds["m_max"] = args.m_max
        ans = range_char(space, F, _parse_point(space, args.y, "--y"), args.m_max)
        report.output = ans.to_json()
        report.emit(fmt)
        return EXIT_OK
    if args.action == "preimage":
        report = RunReport("metric.preimage", {"space": args.space, "fun": args.fun, "y": args.y})
        report.bounds["m_max"] = args.m_max
        report.bounds["level"] = args.level
        p = preimage_select(space, F, _parse_point(space, args.y, "--y"), args.m_max)
        report.output = {"approx": str(p.approx(args.level))}
        report.emit(fmt)
        return EXIT_OK
    if args.action == "modulus":
        report = RunReport("metric.modulus", {"space": args.space, "fun": args.fun})
        report.bounds["level_cap"] = args.m_max
        M = modulus_of(space, F, args.m_max)
        values = [M(m) for m in range(args.m_max + 1)]
        valid = all(modulus_valid(space, F, M, m, args.m_max) for m in range(args.m_max + 1))
        report.output = {"modulus": values, "valid": valid}
        report.emit(fmt)
        return EXIT_OK if valid else EXIT_VERIFY
    report = RunReport("metric.banach-h", {"space": args.space, "pair": args.fun, "x": args.x})
    report.bounds["level"] = args.level
    fuel = report.fuel(args.fuel)
    res = banach_H(space, F, G, _parse_point(space, args.x, "--x"), args.level, fuel)
    report.output = res.to_json()
    report.emit(fmt)
    return EXIT_OK


def _is_natural(value) -> bool:
    """A JSON natural: an int >= 0 that is not a bool."""
    return type(value) is int and value >= 0


def _net_id(pair) -> tuple:
    """A quintuple's ball or value id: two JSON naturals, (level, index)."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_natural, pair))):
        raise ValueError(f"an id of two naturals, got {pair!r}")
    return tuple(pair)


def _code_index(n) -> int:
    """A quintuple's enumeration index n: a JSON natural."""
    if not _is_natural(n):
        raise ValueError(f"an index n that is a natural, got {n!r}")
    return n


def _load_code(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return [CodeEntry(_code_index(e["n"]), _net_id(e["a"]), parse_dyadic(e["r"]),
                          _net_id(e["b"]), parse_dyadic(e["s"])) for e in raw]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(path, 0, f"readable JSON quintuple list ({exc})") from exc


def cmd_decode(args) -> int:
    space = unit_interval(args.max_level) if args.space == "interval" \
        else cantor_space(args.max_level)
    entries = _load_code(args.code)
    try:
        fn = decode_code(entries, space)
    except ValueError as exc:  # a ball or value off the nets
        raise ParseError(args.code, 0, f"a code on the {args.space} nets ({exc})") from exc
    report = RunReport("decode", {"code": args.code, "space": args.space})
    if args.check:
        bad = check_code(fn, entries, space)
        report.output = {"check": "pass" if not bad else "fail", "bad_entries": bad}
        report.emit(args.format)
        return EXIT_OK if not bad else EXIT_VERIFY
    x = _parse_point(space, args.x, "--x")
    value = fn.precision_image(x.value if space.kind == "interval" else x.stream, args.level)
    report.bounds["level"] = args.level
    report.output = {"value": str(value)}
    report.emit(args.format)
    return EXIT_OK


def cmd_corpus(args) -> int:
    from . import corpora

    report = RunReport("corpus." + args.suite, {"seed": args.seed, "cases": args.cases})
    rng = random.Random(args.seed)
    failures = corpora.run_suite(args.suite, rng, args.cases)
    report.output = "pass" if not failures else "fail"
    report.violations = failures
    report.emit(args.format)
    return EXIT_OK if not failures else EXIT_VERIFY


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args reads it and
    leaves it unchanged, so every run reuses it."""
    top = argparse.ArgumentParser(prog="banachkit")

    def common(p, fuel=True):
        p.add_argument("--format", choices=["json", "text"], default="text")
        if fuel:
            p.add_argument("--fuel", type=positive_int)

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="lpo / mu0 / mu / llpomin on a sequence literal")
    p.add_argument("--op", choices=["lpo", "mu0", "mu", "llpomin"], required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--promise", choices=["no-zero", "all-zero"])
    common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("range", help="rho/beta verification and translations")
    p.add_argument("action", choices=["verify", "translate", "bounding"])
    p.add_argument("--f", required=True)
    p.add_argument("--aux")
    p.add_argument("--kind", choices=["rho", "beta"], default="rho")
    p.add_argument("--dir", choices=["beta-to-rho", "rho-to-beta"], default="beta-to-rho")
    p.add_argument("--n-max", type=positive_int, default=32)
    p.add_argument("--show", type=positive_int, default=16)
    common(p)
    p.set_defaults(fn=cmd_range)

    p = sub.add_parser("reduce", help="named reduction pipelines")
    p.add_argument("--pipeline", choices=sorted(_PIPELINES) + ["grilliot"], required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--promise", choices=["no-zero", "all-zero"])
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("banach-nat", help="bijection from two injections, plus verification")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--b0")
    p.add_argument("--b1")
    p.add_argument("--bounds-fuel", type=positive_int)
    p.add_argument("--n-max", type=positive_int, default=16)
    p.add_argument("--depth", type=positive_int)
    common(p, fuel=False)
    p.set_defaults(fn=cmd_banach_nat)

    p = sub.add_parser("gadget", help="build the first-zero-parity gadget and report h(1)")
    p.add_argument("--g", required=True)
    p.add_argument("--n-max", type=int_at_least(2), default=70)  # h(1) needs 1 in the domain
    p.add_argument("--depth", type=positive_int)
    common(p, fuel=False)
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("diagram", help="two-row arrow diagram of a pair")
    p.add_argument("--g")
    p.add_argument("--width", type=int_at_least(4), default=10)
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("metric", help="range / preimage / modulus / banach-h on nets")
    p.add_argument("action", choices=["range", "preimage", "modulus", "banach-h"])
    p.add_argument("--space", choices=["interval", "cantor"], default="interval")
    p.add_argument("--fun", "--pair", dest="fun", default="halving")
    p.add_argument("--w", help="sequence for the preimage gadget")
    p.add_argument("--x", help="point literal (dyadic k/2^j or bit sequence)")
    p.add_argument("--y", help="target point literal")
    p.add_argument("--level", type=level_int, default=8)
    p.add_argument("--m-max", type=level_int, default=8)
    p.add_argument("--max-level", type=positive_int, default=16)
    common(p)
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("decode", help="decode a function code (JSON quintuples)")
    p.add_argument("--code", required=True)
    p.add_argument("--space", choices=["interval", "cantor"], default="interval")
    p.add_argument("--x")
    p.add_argument("--level", type=level_int, default=6)
    p.add_argument("--max-level", type=positive_int, default=12)
    p.add_argument("--check", action="store_true")
    common(p, fuel=False)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("corpus", help="run a seeded verification suite")
    p.add_argument("--suite", choices=["reductions", "translators", "banach-nat",
                                       "metric", "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=positive_int, default=50)
    common(p, fuel=False)
    p.set_defaults(fn=cmd_corpus)

    return top


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)  # the message starts "parse error at ..."
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExhaustionError as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BanachKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SystemExit as exc:
        # argparse reports its own usage errors on stderr
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
