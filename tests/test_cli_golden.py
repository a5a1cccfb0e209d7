"""Golden ``trpq eval`` output on the bundled graphs and queries.

``golden_eval.json`` records, for every bundled graph, query and
representation/compaction flag set below, the exit code, standard output and
standard error of ``trpq eval``.  An optimisation of the evaluators or of
compaction must reproduce every entry byte for byte.  After a deliberate
output change, rewrite the file from a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from trpq.bundled import data_text
from trpq.cli import main

GOLDEN = Path(__file__).with_name("golden_eval.json")

GRAPHS = ("closure.tg", "parallelogram.tg", "running.tg", "running_dense.tg")
# the bundled queries, then the queries the closure and parallelogram graphs name
QUERIES = {"q1": "q1.trpq", "q3": "q3.trpq", "star": "e/(T[2,2])[1,_]", "nav": "e1/T[0,2]/e2"}
FLAGS = (
    ("t",),
    ("t", "--coalesce"),
    ("d",),
    ("d", "--coalesce"),
    ("td",),
    ("td", "--minimize", "greedy"),
    ("c",),
    ("c", "--minimize", "greedy"),
)
CASES = [(g, q, f) for g in GRAPHS for q in QUERIES for f in FLAGS]


def case_id(graph, query_name, flags) -> str:
    """For example ``running-q3-td-minimize-greedy``."""
    return "-".join((graph.removesuffix(".tg"), query_name, *(f.lstrip("-") for f in flags)))


def run_eval(directory: Path, graph, query_name, flags):
    """Exit code, stdout and stderr of one in-process ``trpq eval``."""
    query = QUERIES[query_name]
    query_arg = directory / query if query.endswith(".trpq") else query
    argv = ["eval", "--graph", str(directory / graph), "--query", str(query_arg), "--repr", *flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def bundled_dir(directory: Path) -> Path:
    for name in GRAPHS + tuple(q for q in QUERIES.values() if q.endswith(".trpq")):
        (directory / name).write_text(data_text(name), encoding="utf-8")
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    return bundled_dir(tmp_path_factory.mktemp("bundled"))


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("graph, query_name, flags", CASES, ids=[case_id(*c) for c in CASES])
def test_eval_output_matches_golden(golden, bundled, graph, query_name, flags):
    assert run_eval(bundled, graph, query_name, flags) == golden[case_id(graph, query_name, flags)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = bundled_dir(Path(tmp))
        records = {case_id(*case): run_eval(directory, *case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
