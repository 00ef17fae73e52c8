"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files only. `Tracer.install`
swaps public attributes of the banachkit modules for wrappers that open a
span around each call, in every loaded banachkit module that holds the same
function (so `cli`'s imported names are wrapped too), and patches
`LazySeq.__call__` to count point queries and memo hits against the
innermost open span. Functions that return lazy objects (a realizer, a
sequence, an approximated point) get their result wrapped, so the span covers
the calls where the work actually happens.

A span's self time is its duration minus the durations of its direct
children. Spans stay in memory and are written out once, by `write`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

# kinds of wrapped attribute
CALL = "call"          # the span covers the call itself
REALIZER = "realizer"  # the call builds a Realizer; the span covers its applications
SEQ = "seq"            # the call builds a sequence; the span covers its point queries
POINT = "point"        # the call builds an approximated point; the span covers approx()
MODULUS = "modulus"    # modulus_of: span over the table build, plus queries of M(m)

# (module, attribute, span name, kind)
TARGETS = [
    ("banachkit.banach_nat", "banach_bijection_nat", "banach_nat.solve", CALL),
    ("banachkit.banach_nat", "tree_member", "banach_nat.tree_member", CALL),
    ("banachkit.banach_nat", "path_to_bijection", "banach_nat.path_to_bijection", CALL),
    ("banachkit.banach_nat", "verify_banach", "banach_nat.verify_banach", CALL),
    ("banachkit.banach_nat", "chain_trace", "banach_nat.chain_trace", CALL),
    ("banachkit.omniscience", "llpomin_from_llpo", "omniscience.llpomin_from_llpo", REALIZER),
    ("banachkit.omniscience", "llpomin_from_lpo", "omniscience.llpomin_from_lpo", REALIZER),
    ("banachkit.omniscience", "llpo_from_llpomin", "omniscience.llpo_from_llpomin", REALIZER),
    ("banachkit.omniscience", "llpo_from_lpo", "omniscience.llpo_from_lpo", REALIZER),
    ("banachkit.omniscience", "grilliot_lpo", "omniscience.grilliot_lpo", CALL),
    ("banachkit.ranges", "t_beta_to_rho", "ranges.t_beta_to_rho", SEQ),
    ("banachkit.ranges", "t_rho_to_beta", "ranges.t_rho_to_beta", SEQ),
    ("banachkit.metric.ops", "preimage_select", "metric.preimage_select", POINT),
    ("banachkit.metric.ops", "banach_H", "metric.banach_H", CALL),
    ("banachkit.metric.ops", "modulus_of", "metric.modulus_of", MODULUS),
    ("banachkit.metric.ops", "modulus_valid", "metric.modulus_valid", CALL),
    # constructors, so that cli.run's self time excludes them
    ("banachkit.metric.gadgets", "halving_gadget", "metric.gadgets", CALL),
    ("banachkit.metric.gadgets", "padding_gadget", "metric.gadgets", CALL),
    ("banachkit.metric.gadgets", "preimage_gadget", "metric.gadgets", CALL),
    ("banachkit.metric.gadgets", "identity_fun", "metric.gadgets", CALL),
    ("banachkit.cli", "run", "cli.run", CALL),
]

MODULUS_QUERY = "metric.modulus_query"
NET_POINTS = "metric.net_points"
PREIMAGE_LEVELS = "metric.preimage_levels"

# open-frame layout
_ID, _PARENT, _NAME, _START, _CHILD, _QUERIES, _HITS, _CHILD_QUERIES = range(8)

SPAN_FIELDS = ("op", "id", "parent", "name", "start_ns", "end_ns", "self_ns",
               "queries", "hits", "total_queries", "outer")


class Tracer:
    def __init__(self):
        # tuples laid out as SPAN_FIELDS: queries and hits are the span's
        # own, total_queries includes its descendants, and outer is true when
        # no span of the same layer (the name up to its first dot) encloses it
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._next_id = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        stack = self._stack
        layer = name.split(".")[0] + "."

        def traced(*args, **kwargs):
            outer = not any(f[_NAME].startswith(layer) for f in stack)
            frame = [self._next_id, stack[-1][_ID] if stack else None, name,
                     0, 0, 0, 0, 0]
            self._next_id += 1
            stack.append(frame)
            frame[_START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[_START]
                total_queries = frame[_QUERIES] + frame[_CHILD_QUERIES]
                if stack:
                    stack[-1][_CHILD] += duration
                    stack[-1][_CHILD_QUERIES] += total_queries
                self.spans.append((self.op, frame[_ID], frame[_PARENT], name,
                                   frame[_START], end, duration - frame[_CHILD],
                                   frame[_QUERIES], frame[_HITS], total_queries, outer))

        traced.__wrapped__ = fn
        return traced

    def _wrap_target(self, name: str, kind: str, fn):
        if kind == CALL:
            return self.wrap(name, fn)
        if kind == REALIZER:
            def build(*args, **kwargs):
                r = fn(*args, **kwargs)
                return dataclasses.replace(r, apply=self.wrap(name, r.apply))
            return build
        if kind == SEQ:
            # callers only call the returned sequence, so a traced function
            # can stand in for it
            return lambda *args, **kwargs: self.wrap(name, fn(*args, **kwargs))
        if kind == POINT:
            traced = self.wrap(name, fn)

            def select(*args, **kwargs):
                point = traced(*args, **kwargs)
                point.approx = self._level_counting(name, point.approx)
                return point
            return select
        if kind == MODULUS:
            traced = self.wrap(name, fn)

            def modulus_of(X, F, level_cap):
                self.counters[NET_POINTS] += sum(X.level_count(j) for j in range(level_cap + 1))
                return self.wrap(MODULUS_QUERY, traced(X, F, level_cap))
            return modulus_of
        raise ValueError(f"unknown span kind {kind!r}")

    def _level_counting(self, name: str, approx):
        traced = self.wrap(name, approx)
        computed = [0]  # levels 0..m are computed once, on the first approx(m)

        def counted(m: int):
            if m + 1 > computed[0]:
                self.counters[PREIMAGE_LEVELS] += m + 1 - computed[0]
                computed[0] = m + 1
            return traced(m)
        return counted

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from banachkit.streams import LazySeq

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "banachkit" or n.startswith("banachkit.")]
        for mod_name, attr, name, kind in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap_target(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

        stack = self._stack
        call = LazySeq.__call__

        def counted_call(seq, n):
            if stack:
                top = stack[-1]
                top[_QUERIES] += 1
                if n in seq._cache:
                    top[_HITS] += 1
            return call(seq, n)

        LazySeq.__call__ = counted_call
        self._undo.append((LazySeq, "__call__", call))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """name -> sums over its spans: self_ns, queries and hits (own), and
        outer_ns and outer_queries (inclusive, over outer spans only)."""
        out: dict = defaultdict(lambda: dict.fromkeys(
            ("self_ns", "queries", "hits", "outer_ns", "outer_queries"), 0))
        for (_op, _id, _parent, name, start, end, self_ns, queries, hits,
             total_queries, outer) in self.spans:
            row = out[name]
            row["self_ns"] += self_ns
            row["queries"] += queries
            row["hits"] += hits
            if outer:
                row["outer_ns"] += end - start
                row["outer_queries"] += total_queries
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {"fields": SPAN_FIELDS, "counters": dict(self.counters)}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
