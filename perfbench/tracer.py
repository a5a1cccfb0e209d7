"""Traced mode: spans and counters around the public functions of trpq's modules.

The wrappers exist only while a :class:`Tracer` is installed.  Installing one
rebinds every attribute of a loaded ``trpq`` module that refers to a traced
function, so the evaluators' call-time lookups (``join_c`` and
``ctuple_valid`` in ``trpq.evaluate``, ``iv.intersect`` through the
``trpq.intervals`` module, ...) reach the wrapper; uninstalling puts the
originals back.  No file under ``src/`` is touched.

Functions whose time is reported get a span per call: its id, its parent's
id, its name, the request id, its start and end, and the input and output
counts the function reports.  Spans stay in memory until the run ends;
:meth:`Tracer.reduce` turns them into calls, self time (duration minus the
time covered by child spans) and counts.  The small interval and validity
primitives, called tens of thousands of times per request, are only counted:
a span each would cost more than the call itself, and their time stays in the
self time of the span that called them (``join_c`` above all).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

ROOT = "bench.request"  # one root span per request: the benchmark's own glue
FIELDS = ("span", "parent", "name", "request", "start_s", "end_s", "n_in", "n_out")


def _len_first(args) -> int:
    return len(args[0])


def _emitted(result) -> int:
    return 0 if result is None else 1


# module, function, reported stats, input count, output count; a function
# whose only stat is "calls" is counted, every other one gets spans
TARGETS = (
    ("graph", "load_graph", ("ms", "calls", "setup_ms"), None, None),
    ("query", "parse_query", ("ms", "setup_ms"), None, None),
    ("evaluate", "eval_t", ("ms", "tuples_out"), None, len),
    ("evaluate", "eval_d", ("ms", "tuples_out"), None, len),
    ("evaluate", "eval_td", ("ms", "tuples_out"), None, len),
    ("evaluate", "eval_c", ("ms", "tuples_out"), None, len),
    ("evaluate", "join_c", ("calls", "emitted", "hit_ratio", "ms"), None, _emitted),
    ("evaluate", "join_td", ("calls",), None, None),
    ("tuples", "ctuple_valid", ("calls",), None, None),
    ("tuples", "render_tuple", ("ms",), None, None),
    ("intervals", "intersect", ("calls",), None, None),
    ("intervals", "msum", ("calls",), None, None),
    ("intervals", "shift", ("calls",), None, None),
    ("compact", "coalesce_t", ("ms",), None, None),
    ("compact", "coalesce_d", ("ms",), None, None),
    ("compact", "remove_subsumed", ("ms", "in", "out"), _len_first, len),
    ("compact", "greedy_reduce", ("ms", "in", "out"), _len_first, len),
)

UNITS = {
    "ms": "ms/req",
    "setup_ms": "ms",
    "calls": "count/req",
    "emitted": "count/req",
    "tuples_out": "count/req",
    "in": "count/req",
    "out": "count/req",
    "hit_ratio": "ratio",
}

# per-layer metric names, in report order, with their units
METRICS = {
    f"{module}.{function}.{stat}": UNITS[stat]
    for module, function, stats, _, _ in TARGETS
    for stat in stats
}
METRICS["trace.requests"] = "count"
METRICS["trace.overhead_ratio"] = "ratio"


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f"{m}.{f}" for m, f, _, _, _ in TARGETS]
        self.spans = array("d")  # len(FIELDS) numbers per span, in end order
        self.next_id = 0
        self.counts = [0] * len(self.names)
        self.request = -1
        self._stack = [-1]
        self._patched = []

    def wrap(self, fn, name: str, count_in=None, count_out=None):
        """A traced stand-in for ``fn`` that records one span per call."""
        name_idx = self.names.index(name)
        stack = self._stack
        record = self.spans.extend
        clock = perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.next_id
            tracer.next_id = span + 1
            parent = stack[-1]
            stack.append(span)
            n_in = count_in(args) if count_in else 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n_out = count_out(result) if count_out and result is not None else 0
                record((span, parent, name_idx, tracer.request, start, end, n_in, n_out))

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name: str):
        """A stand-in for ``fn`` that only counts its calls."""
        counts = self.counts
        name_idx = self.names.index(name)

        def counted(*args, **kwargs):
            counts[name_idx] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind every trpq module attribute that refers to a traced function."""
        modules = [m for k, m in list(sys.modules.items()) if k == "trpq" or k.startswith("trpq.")]
        for module_name, function, stats, count_in, count_out in TARGETS:
            original = getattr(sys.modules[f"trpq.{module_name}"], function)
            name = f"{module_name}.{function}"
            if stats == ("calls",):
                wrapper = self.count(original, name)
            else:
                wrapper = self.wrap(original, name, count_in, count_out)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total self time in ms, and summed counts."""
        width = len(FIELDS)
        spans = self.spans
        child = [0.0] * self.next_id
        for k in range(0, len(spans), width):
            parent = int(spans[k + 1])
            if parent >= 0:
                child[parent] += spans[k + 5] - spans[k + 4]
        stats = {
            n: {"calls": c, "self_ms": 0.0, "in": 0, "out": 0}
            for n, c in zip(self.names, self.counts)
        }
        for k in range(0, len(spans), width):
            s = stats[self.names[int(spans[k + 2])]]
            s["calls"] += 1
            s["self_ms"] += (spans[k + 5] - spans[k + 4] - child[int(spans[k])]) * 1000
            s["in"] += int(spans[k + 6])
            s["out"] += int(spans[k + 7])
        return stats

    def write(self, path):
        """Write every span as one tab-separated line, after a header."""
        width = len(FIELDS)
        spans = self.spans
        with open(path, "w", encoding="utf-8") as f:
            f.write("\t".join(FIELDS) + "\n")
            for k in range(0, len(spans), width):
                row = spans[k : k + width]
                f.write(
                    f"{int(row[0])}\t{int(row[1])}\t{self.names[int(row[2])]}\t"
                    f"{int(row[3])}\t{row[4]!r}\t{row[5]!r}\t{int(row[6])}\t{int(row[7])}\n"
                )


def layer_metrics(stats: dict, requests: int, setup: dict) -> dict[str, float]:
    """Per-layer metric values, from :meth:`Tracer.reduce` output.

    ``stats`` covers ``requests`` traced requests and gives values per request;
    ``setup`` covers one traced set-up and gives the ``setup_ms`` values.
    """
    values = {}
    for module, function, wanted, _, _ in TARGETS:
        name = f"{module}.{function}"
        s = stats[name]
        prefix = name + "."
        per_req = {
            "ms": s["self_ms"],
            "calls": s["calls"],
            "emitted": s["out"],
            "tuples_out": s["out"],
            "in": s["in"],
            "out": s["out"],
        }
        for stat in wanted:
            if stat == "hit_ratio":
                values[prefix + stat] = s["out"] / s["calls"] if s["calls"] else 0.0
            elif stat == "setup_ms":
                values[prefix + stat] = setup[name]["self_ms"]
            else:
                values[prefix + stat] = per_req[stat] / requests
    values["trace.requests"] = requests
    return values
