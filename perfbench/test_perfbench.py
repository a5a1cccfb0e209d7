"""The benchmark's own test: every workload at a tiny size, no timings asserted.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import trpq  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from gen import DENSE, GraphSpec, graph_text, twin_query, twin_text  # noqa: E402
from workloads import WORKLOADS, make_instance, run_request  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[0])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_checked_at_tiny_size(name, trace, monkeypatch, tmp_path):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.05",
            "--trace", str(trace), "--size", "tiny"]
    code, context, result = _run(argv, monkeypatch, tmp_path)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert context["seed"] == 3 and context["queries"] == list(WORKLOADS[name].queries)
    if trace:
        assert Path(context["spans_file"]).name in {p.name for p in tmp_path.iterdir()}


def test_traced_run_restores_the_original_functions(monkeypatch, tmp_path):
    originals = {(m, f): getattr(sys.modules[f"trpq.{m}"], f) for m, f, *_ in tracer.TARGETS}
    _run(["--workload", "folded", "--seed", "0", "--seconds", "0.01", "--trace", "1",
          "--size", "tiny"], monkeypatch, tmp_path)
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"trpq.{m}"], f) is fn
    assert trpq.evaluate.join_c is trpq.join_c


def test_span_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap(lambda: sum(range(20000)), "compact.greedy_reduce")
    outer = t.wrap(lambda: inner() + inner(), "evaluate.eval_c")
    outer()
    stats = t.reduce()
    assert stats["evaluate.eval_c"]["calls"] == 1 and stats["compact.greedy_reduce"]["calls"] == 2
    spans = [t.spans[k : k + len(tracer.FIELDS)] for k in range(0, len(t.spans), len(tracer.FIELDS))]
    total = {int(s[0]): (s[5] - s[4]) * 1000 for s in spans}
    outer_id = next(int(s[0]) for s in spans if int(s[1]) == -1)
    children = sum(v for k, v in total.items() if k != outer_id)
    assert stats["evaluate.eval_c"]["self_ms"] == pytest.approx(total[outer_id] - children)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.graph.mode != DENSE])
def test_eval_c_unfolds_to_the_oracle_on_tiny_discrete_instances(name, seed):
    w = WORKLOADS[name]
    g = trpq.load_graph(graph_text(w.tiny, seed))
    for text in w.queries:
        q = trpq.parse_query(text)
        assert trpq.unfold_c(trpq.eval_c(g, q)) == trpq.eval_direct(g, q)


@pytest.mark.parametrize("seed", range(6))
def test_dense_answers_on_the_half_step_lattice_match_the_twin_oracle(seed):
    w = WORKLOADS["dense"]
    g = trpq.load_graph(graph_text(w.tiny, seed))
    twin = trpq.load_graph(twin_text(w.tiny, seed))
    for text in w.queries:
        got = checks.lattice_points(trpq.eval_c(g, trpq.parse_query(text)))
        want = trpq.eval_direct(twin, trpq.parse_query(twin_query(text)))
        assert got == {tuple(p) for p in want}


def test_generator_is_seeded_and_dense_endpoints_are_half_integers():
    spec = GraphSpec(nodes=5, edges=9, labels=("e",), domain=10, width=3, mode=DENSE)
    assert graph_text(spec, 4) == graph_text(spec, 4) != graph_text(spec, 5)
    g = trpq.load_graph(graph_text(spec, 4))
    for validity in g.facts.values():
        for interval in validity:
            assert interval.lo.denominator == 2 and interval.hi.denominator == 2
    assert twin_query("(e/T[1,3])[1,_]/(<=5)") == "(e/T[2,6])[1,_]/(<=10)"


@pytest.mark.parametrize("seed", range(4))
def test_generated_graphs_are_balanced(seed):
    spec = GraphSpec(nodes=6, edges=18, labels=("e", "f"), domain=10, width=2)
    facts = [line.split() for line in graph_text(spec, seed).splitlines()[2:]]
    widths = []
    for s, p, o, validity in facts:
        lo, hi = validity.strip("[]").split(",")
        widths.append(int(hi) - int(lo))
    assert sorted({f[0] for f in facts}) == sorted({f[2] for f in facts}) == [f"n{k}" for k in range(6)]
    for column, expected in ((0, 3), (2, 3), (1, 9)):
        assert set(Counter(f[column] for f in facts).values()) == {expected}
    assert Counter(widths) == {0: 6, 1: 6, 2: 6}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_mix_sends_every_query_and_weights_the_middle_one(name):
    w = WORKLOADS[name]
    assert set(w.mix) == set(range(len(w.queries)))
    middle = w.mix[len(w.mix) // 2]
    assert w.mix.count(middle) == 3


def test_checker_rejects_a_wrong_answer():
    w = WORKLOADS["closure"]
    inst = make_instance(w, 1, "tiny")
    outputs = run_request(inst, 0)
    repr_name, answers, rendering = outputs[0]
    assert len(answers) > 0
    wrong = trpq.AnswerSet(answers.kind, answers.mode, answers.tuples[1:])
    checker = checks.Checker(w, 1, "tiny")
    good = checker.note(0, outputs)
    bad = checker.note(0, [(repr_name, wrong, wrong.render())])
    checker.verify_pending()
    assert checker.passed(good) and not checker.passed(bad)


def test_recorded_references_match_the_oracle_and_the_query_lists():
    recorded = checks.load_recorded()
    assert set(recorded) == set(WORKLOADS)
    for name, table in recorded.items():
        n = len(WORKLOADS[name].mix)
        for entry in table.values():
            assert len(entry["points"]) == n
            assert len(entry.get("renders", [None] * n)) == n
    for name in ("closure", "folded"):
        assert recorded[name]["0"]["points"] == checks.oracle_digests(WORKLOADS[name], 0)


def test_bare_directory_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    code = run.main(["--workload", "join", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
