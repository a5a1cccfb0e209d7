"""Golden CLI output on the bundled graphs and queries.

``golden_eval.json`` records, for every bundled graph, query and
representation/compaction flag set below, the exit code, standard output and
standard error of ``trpq eval``.  ``golden_cli.json`` records the same for the
paths that matrix leaves out: ``eval --repr point``, ``eval --minimize exact``
with and without ``--disjoint``, ``plot`` for every representation, and
``stats`` at both scales.  An optimisation or a refactoring of the evaluators,
of compaction or of the CLI must reproduce every entry byte for byte.  After
a deliberate output change, rewrite both files from a checkout with

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

GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")

EXACT_FLAGS = (("point",),) + tuple(
    (r, "--minimize", "exact", *disjoint)
    for r in ("t", "d", "td", "c")
    for disjoint in ((), ("--disjoint",))
)
# one query per graph with a nonempty answer, and a node pair of that answer
PLOTS = (
    ("running.tg", "q3", ("ICDT", "ISWC")),
    ("running.tg", "q1", ("Bob", "Bob")),
    ("running_dense.tg", "q3", ("ICDT", "ISWC")),
    ("running_dense.tg", "q1", ("Bob", "Bob")),
    ("closure.tg", "star", ("n1", "n2")),
    ("parallelogram.tg", "nav", ("n1", "n3")),
)
PLOT_FLAGS = (("point",),) + FLAGS + (
    ("td", "--minimize", "exact"),
    ("c", "--minimize", "exact"),
    ("c", "--minimize", "exact", "--disjoint"),
)
CLI_CASES = (
    [("eval", g, q, ("--repr", *f)) for g in GRAPHS for q in QUERIES for f in EXACT_FLAGS]
    + [("plot", g, q, ("--pair", *pair, "--repr", *f)) for g, q, pair in PLOTS for f in PLOT_FLAGS]
    + [
        ("stats", g, q, ("--scale", scale, "--factors", "1,2,3", "--reprs", "t,d,td,c"))
        for g in GRAPHS
        for q in QUERIES
        for scale in ("graph", "query")
    ]
)


def case_id(graph, query_name, flags) -> str:
    """For example ``running-q3-td-minimize-greedy``."""
    return "-".join((graph.removesuffix(".tg"), query_name, *(f.lstrip("-") for f in flags)))


def cli_case_id(command, graph, query_name, flags) -> str:
    """For example ``plot-running-q3-pair-ICDT-ISWC-repr-c``."""
    return "-".join((command, case_id(graph, query_name, flags)))


def run_eval(directory: Path, graph, query_name, flags):
    """Exit code, stdout and stderr of one in-process ``trpq eval``."""
    return run_cli(directory, "eval", graph, query_name, ("--repr", *flags))


def run_cli(directory: Path, command, graph, query_name, flags):
    """Exit code, stdout and stderr of one in-process ``trpq`` command."""
    query = QUERIES[query_name]
    query_arg = directory / query if query.endswith(".trpq") else query
    argv = [command, "--graph", str(directory / graph), "--query", str(query_arg), *flags]
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
def golden_cli():
    return json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    return bundled_dir(tmp_path_factory.mktemp("bundled"))


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("graph, query_name, flags", CASES, ids=[case_id(*c) for c in CASES])
def test_eval_output_matches_golden(golden, bundled, graph, query_name, flags):
    assert run_eval(bundled, graph, query_name, flags) == golden[case_id(graph, query_name, flags)]


def test_cli_golden_covers_the_matrix(golden_cli):
    assert sorted(golden_cli) == sorted(cli_case_id(*case) for case in CLI_CASES)


@pytest.mark.parametrize(
    "command, graph, query_name, flags", CLI_CASES, ids=[cli_case_id(*c) for c in CLI_CASES]
)
def test_cli_output_matches_golden(golden_cli, bundled, command, graph, query_name, flags):
    expected = golden_cli[cli_case_id(command, graph, query_name, flags)]
    assert run_cli(bundled, command, graph, query_name, flags) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = bundled_dir(Path(tmp))
        records = {case_id(*case): run_eval(directory, *case) for case in CASES}
        cli_records = {cli_case_id(*case): run_cli(directory, *case) for case in CLI_CASES}
    for path, data in ((GOLDEN, records), (GOLDEN_CLI, cli_records)):
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
