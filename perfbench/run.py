"""trpq benchmark: seeded workloads, a single-client closed loop, checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload join --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see README.md).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give the run's context and every metric
by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

SETUPS = 5  # set-up runs per benchmark run; setup_s is their median
SPAN_CAP = 400_000  # traced passes stop before the kept spans would exceed this
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it

# The typical latency gated is the mean.  The host's speed flips between two
# levels for seconds at a time; a run's median lands on one level or the other,
# while the mean weighs both by how long each lasted.  The median and the
# throughput are reported but not gated; from a single client in a closed loop
# the throughput is 1000 / latency_mean_ms, so gating it would gate the mean twice.
END_TO_END_UNITS = {
    "latency_mean_ms": "ms",
    "latency_tail_ms": "ms",
    "answer_tuples": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
REPORTED_UNITS = {"latency_p50_ms": "ms", "throughput_qps": "1/s"}


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float,
                   help="busy time the closed loop measures (split in two when traced)")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny runs every workload on a few nodes, for smoke tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tail(durations):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Run:
    """The requests one benchmark run sends, and what checking them needs."""

    def __init__(self, workload, seed, size, checker, make_instance, run_request):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.checker = checker
        self.make_instance = make_instance
        self.run_request = run_request
        self.attempted = 0
        self.raised = 0
        self.keys = []  # one tuple of checker keys per request that returned

    def request(self, inst, slot, send=None):
        """Send ``slot``'s request; returns its wall time and outputs.  Checks stay outside it."""
        send = send or self.run_request
        self.attempted += 1
        start = perf_counter()
        try:
            outputs = send(inst, slot)
        except Exception:
            duration = perf_counter() - start
            self.raised += 1
            if self.raised == 1:
                traceback.print_exc(file=sys.stderr)
            return duration, ()
        duration = perf_counter() - start
        self.keys.append(self.checker.note(slot, outputs))
        return duration, outputs

    def setup(self):
        """Generate, load and parse the inputs, then send one warm-up pass.

        Returns the instance, the set-up time, and the tuples that pass returned.
        """
        start = perf_counter()
        inst = self.make_instance(self.workload, self.seed, self.size)
        tuples = 0
        for slot in range(len(self.workload.mix)):
            tuples += sum(len(answers) for _, answers, _ in self.request(inst, slot)[1])
        return inst, perf_counter() - start, tuples

    def closed_loop(self, inst, seconds, send=None, more=lambda passes: True):
        """Whole passes over the request list until ``seconds`` of busy time."""
        durations = []
        passes = 0
        while True:
            for slot in range(len(self.workload.mix)):
                durations.append(self.request(inst, slot, send)[0])
            passes += 1
            if sum(durations) >= seconds or not more(passes):
                return durations, passes

    def failed(self) -> int:
        self.checker.verify_pending()
        return self.raised + sum(not self.checker.passed(k) for k in self.keys)


def _timed(run, seconds):
    # One set-up before each SETUPS-th share of the closed loop: spread over the
    # run, the set-ups meet the same changes in the host's speed as the requests.
    setup_times, durations, passes = [], [], 0
    for k in range(1, SETUPS + 1):
        inst, setup_time, tuples = run.setup()
        setup_times.append(setup_time)
        more, more_passes = run.closed_loop(inst, seconds * k / SETUPS - sum(durations))
        durations += more
        passes += more_passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail, percentile, beyond = _tail(durations)
    metrics = {
        "latency_mean_ms": statistics.fmean(durations) * 1000,
        "latency_tail_ms": tail * 1000,
        "answer_tuples": tuples,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    mix = run.workload.mix
    by_query = {}
    for k, d in enumerate(durations):
        by_query.setdefault(mix[k % len(mix)], []).append(d)
    context = {
        "passes": passes,
        "requests_timed": len(durations),
        "latency_p50_ms": statistics.median(durations) * 1000,
        "throughput_qps": len(durations) / sum(durations),
        "query_p50_ms": {i: statistics.median(ds) * 1000 for i, ds in sorted(by_query.items())},
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "setup_runs": SETUPS,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, context


def _traced(run, seconds):
    from tracer import METRICS, ROOT as ROOT_SPAN, Tracer, layer_metrics

    inst = run.setup()[0]
    setup_tracer = Tracer()  # one more set-up, traced apart from the requests
    setup_tracer.install()
    try:
        run.make_instance(run.workload, run.seed, run.size)
    finally:
        setup_tracer.uninstall()
    plain, _ = run.closed_loop(inst, seconds / 2)
    tracer = Tracer()
    root = tracer.wrap(run.run_request, ROOT_SPAN)

    def send(inst, slot):
        tracer.request += 1
        return root(inst, slot)

    def more(passes):
        per_pass = tracer.next_id / passes
        return tracer.next_id + per_pass <= SPAN_CAP

    tracer.install()
    try:
        traced, passes = run.closed_loop(inst, seconds / 2, send, more)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer.reduce(), len(traced), setup_tracer.reduce())
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{run.workload.name}-{run.size}-seed{run.seed}.tsv"
    tracer.write(spans_file)
    context = {
        "untraced_requests": len(plain),
        "traced_requests": len(traced),
        "traced_passes": passes,
        "spans": tracer.next_id,
        "spans_file": os.path.relpath(spans_file, ROOT),
    }
    return {k: (values[k], unit) for k, unit in METRICS.items()}, context


def main(argv=None) -> int:
    if not (SRC / "trpq" / "__init__.py").is_file():
        print(f"perfbench: no trpq sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trpq
    from checks import Checker
    from workloads import WORKLOADS, make_instance, run_request

    if Path(trpq.__file__).resolve().parent != SRC / "trpq":
        print(f"perfbench: imported trpq from {trpq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = _parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, args.seed, args.size)
    run = Run(workload, args.seed, args.size, checker, make_instance, run_request)
    metrics, extra = (_traced if args.trace else _timed)(run, args.seconds)
    failed = run.failed()
    context = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "graph": asdict(workload.spec(args.size)),
        "queries": list(workload.queries),
        "mix": list(workload.mix),
        "steps": [list(s) for s in workload.steps],
        "per_request_parse": workload.parse or workload.ingest,
        "per_request_load": workload.ingest,
        "client": "single-client closed loop",
        "references": run.checker.reference_source,
        "python": platform.python_version(),
        "nproc": _nproc(),
        "commit": _git_commit(),
        **extra,
    }
    print(json.dumps({"context": context}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for name, unit in REPORTED_UNITS.items():
        if name in extra:
            print(f"{name} {extra[name]} {unit} (not gated)")
    print(f"error_rate {failed / run.attempted} ratio ({failed} of {run.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
