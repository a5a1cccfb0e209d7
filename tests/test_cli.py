import os
import subprocess
import sys
from pathlib import Path

import pytest

import trpq
from trpq.bundled import data_text
from trpq.cli import main
from trpq.query import MAX_DEPTH

from nesting import SHAPES


@pytest.fixture
def workdir(tmp_path):
    for name in ("running.tg", "running_dense.tg", "parallelogram.tg", "q3.trpq"):
        (tmp_path / name).write_text(data_text(name), encoding="utf-8")
    (tmp_path / "sweep_query.tg").write_text(
        "mode discrete\ndomain [0,8]\nn loop n [0,0]\n", encoding="utf-8"
    )
    (tmp_path / "sweep_graph.tg").write_text(
        "mode discrete\ndomain [0,8]\na e b [0,1]\n", encoding="utf-8"
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_t_coalesced(workdir, capsys):
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "t", "--coalesce",
    )
    assert code == 0
    assert out == (
        "t ICDT ISWC [100,101] 5\n"
        "t ICDT ISWC [100,102] 4\n"
        "t ICDT ISWC [101,102] 3\n"
        "count: 3\n"
    )


def test_eval_point_seven_tuples(workdir, capsys):
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "point",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 7"
    assert len(lines) == 8


def test_count_line_matches_tuples(workdir, capsys):
    for repr_name in ("point", "t", "d", "td", "c"):
        code, out, _ = run(
            capsys, "eval", "--graph", workdir / "running.tg",
            "--query", workdir / "q3.trpq", "--repr", repr_name,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == f"count: {len(lines) - 1}"


def test_eval_query_inline(workdir, capsys):
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", "(=Bob)/attends", "--repr", "point",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 6"


def test_dense_td_exits_2(workdir, capsys):
    code, out, err = run(
        capsys, "eval", "--graph", workdir / "parallelogram.tg",
        "--query", "e1/T[0,2]/e2", "--repr", "td",
    )
    assert code == 2
    assert "dense time" in err


def test_dense_point_exits_2(workdir, capsys):
    code, _, err = run(
        capsys, "eval", "--graph", workdir / "running_dense.tg",
        "--query", "attends", "--repr", "point",
    )
    assert code == 2


def test_parse_error_exits_1(workdir, capsys):
    code, _, err = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", "attends//", "--repr", "t",
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("graph, query, message", [
    ("domain [0,1]\n", "e", "missing mode header"),
    ("mode discrete\n", "e", "missing domain header"),
    ("mode discrete\ndomain [0,5]\ndomain [0,5]\n", "e", "duplicate domain header (line 3)"),
    ("mode discrete\ndomain foo\n", "e", "bad domain: not an interval literal: 'foo' (line 2)"),
    ("mode discrete\ndomain (0,1)\n", "e",
     "domain is empty over discrete time: interval (0,1) is empty over discrete time"),
    ("mode discrete\ndomain [0,5]\na e b [0,1] x [2,3]\n", "e",
     "unexpected text 'x' in interval list (line 3, column 12)"),
    ("mode discrete\ndomain [0,5]\n", "e & f", "unexpected character '&' (at position 2)"),
    ("mode discrete\ndomain [0,5]\n", "e[x,1]",
     "expected a natural number, got 'x' (at position 2)"),
    ("mode discrete\ndomain [0,5]\n", "e[1.5,2]",
     "expected a natural number, got '1.5' (at position 2)"),
    ("mode discrete\ndomain [0,5]\n", "T[1,2,3]", "expected ']' or ')' (at position 5)"),
], ids=["no-mode", "no-domain", "duplicate-domain", "bad-domain", "empty-domain",
        "text-between-intervals", "ampersand", "name-bound", "decimal-bound", "three-bounds"])
def test_graph_and_query_errors_exit_1_with_their_message(tmp_path, capsys, graph, query, message):
    path = tmp_path / "g.tg"
    path.write_text(graph, encoding="utf-8")
    code, out, err = run(capsys, "eval", "--graph", path, "--query", query, "--repr", "c")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_missing_graph_exits_1(workdir, capsys):
    code, _, _ = run(
        capsys, "eval", "--graph", workdir / "nope.tg", "--query", "e", "--repr", "t"
    )
    assert code == 1


def test_eval_minimize_exact(workdir, capsys):
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "td", "--minimize", "exact",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 2"
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "td", "--minimize", "exact",
        "--disjoint",
    )
    assert out.strip().splitlines()[-1] == "count: 3"


def test_eval_deterministic(workdir, capsys):
    args = (
        "eval", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "c",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_stats_query_scaling(workdir, capsys):
    code, out, _ = run(
        capsys, "stats", "--graph", workdir / "sweep_query.tg", "--query", "T[0,1]",
        "--scale", "query", "--factors", "1,2,3,4", "--reprs", "t,d,c",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "factor,repr,tuple_count"
    rows = {tuple(line.split(",")[:2]): int(line.split(",")[2]) for line in lines[1:]}
    for i in (1, 2, 3, 4):
        assert rows[(str(i), "t")] == i + 1
        assert rows[(str(i), "d")] == 9
        assert rows[(str(i), "c")] == 1


def test_stats_graph_scaling(workdir, capsys):
    code, out, _ = run(
        capsys, "stats", "--graph", workdir / "sweep_graph.tg", "--query", "e",
        "--scale", "graph", "--factors", "1,2,3,4", "--reprs", "t,d,c",
    )
    assert code == 0
    rows = {
        tuple(line.split(",")[:2]): int(line.split(",")[2])
        for line in out.strip().splitlines()[1:]
    }
    for i in (1, 2, 3, 4):
        assert rows[(str(i), "t")] == 1
        assert rows[(str(i), "d")] == i + 1
        assert rows[(str(i), "c")] == 1


def test_stats_empty_factor_list(workdir, capsys):
    code, out, _ = run(
        capsys, "stats", "--graph", workdir / "sweep_graph.tg", "--query", "e",
        "--scale", "graph", "--factors", "",
    )
    assert code == 0
    assert out == "factor,repr,tuple_count\n"


@pytest.mark.parametrize("scale, query, reprs, want", [
    ("graph", "e/T[1/2,1/2]/e + (e + f)[1,_]/T[0,1/2]/(<=7/2)", "c", ["1,c,5", "2,c,5", "3,c,4"]),
    ("query", "e/T[1/2,1/2]/e + (e + f)[1,_]/T[0,1/2]/(<=7/2)", "c", ["1,c,5", "2,c,6", "3,c,6"]),
    ("query", "e/T[1/2,1/2]/e + f^-/(<=5/2)", "t,c", ["1,t,2", "1,c,2", "2,t,2", "2,c,2"]),
], ids=["graph", "query", "query-t"])
def test_stats_on_half_and_third_step_endpoints(tmp_path, capsys, scale, query, reprs, want):
    # counts recorded before dense c queries were evaluated on an integer grid
    path = tmp_path / "steps.tg"
    path.write_text(
        "mode dense\ndomain [0,20]\na e b [1/2,3/2], [4,11/2)\nb e c (3/2,7/2]\nc f a [1/3,5/6]\n",
        encoding="utf-8",
    )
    factors = ",".join(str(k) for k in range(1, len(want) // len(reprs.split(",")) + 1))
    code, out, err = run(
        capsys, "stats", "--graph", path, "--query", query,
        "--scale", scale, "--factors", factors, "--reprs", reprs,
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["factor,repr,tuple_count", *want]


def test_stats_error_cites_the_scaled_interval_in_lowest_terms(tmp_path, capsys):
    path = tmp_path / "steps.tg"
    path.write_text("mode dense\ndomain [0,20]\na e b [4,11/2)\n", encoding="utf-8")
    code, out, err = run(
        capsys, "stats", "--graph", path, "--query", "e", "--scale", "graph", "--factors", "4",
    )
    assert out == "factor,repr,tuple_count\n"
    assert err == "error: scaled interval [16,22) of ('a', 'e', 'b') leaves the domain [0,20]\n"
    assert code == 1


def test_plot_svg_deterministic(workdir, capsys):
    args = (
        "plot", "--graph", workdir / "running.tg", "--query", workdir / "q3.trpq",
        "--repr", "c", "--pair", "ICDT", "ISWC",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert ">t</text>" in first and ">d</text>" in first


def test_plot_rectangle_reprs(workdir, capsys):
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "t", "--coalesce",
        "--pair", "ICDT", "ISWC",
    )
    assert code == 0
    assert out.count('<rect class="box"') == 3
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "td", "--minimize", "exact",
        "--pair", "ICDT", "ISWC",
    )
    assert code == 0
    assert out.count('<rect class="box"') == 2


def test_plot_point_cells(workdir, capsys):
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "point", "--pair", "ICDT", "ISWC",
    )
    assert code == 0
    assert out.count('<rect class="cell"') == 7


def test_plot_empty_answers_axes_only(workdir, capsys):
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", "missing", "--repr", "t", "--pair", "ICDT", "ISWC",
    )
    assert code == 0
    assert "<rect" not in out
    assert out.count('<line class="axis"') == 2


def test_plot_unknown_pair_exits_1(workdir, capsys):
    code, _, err = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "t", "--pair", "ICDT", "Nobody",
    )
    assert code == 1
    assert "Nobody" in err


def test_plot_dense_non_c_exits_2(workdir, capsys):
    code, _, _ = run(
        capsys, "plot", "--graph", workdir / "parallelogram.tg",
        "--query", "e1", "--repr", "t", "--pair", "n1", "n2",
    )
    assert code == 2


def test_plot_dense_c_polygon(workdir, capsys):
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "parallelogram.tg",
        "--query", "e1/T[0,2]/e2", "--repr", "c", "--pair", "n1", "n3",
    )
    assert code == 0
    assert "<polygon" in out


def _plot_e(tmp_path, capsys, mode, domain, validity):
    path = tmp_path / "plot.tg"
    path.write_text(f"mode {mode}\ndomain {domain}\na e b {validity}\n", encoding="utf-8")
    return run(capsys, "plot", "--graph", path, "--query", "e", "--repr", "c", "--pair", "a", "b")


def test_plot_prints_large_fractional_coordinates_in_full(tmp_path, capsys):
    # 40 units per time unit: tau = [100000/3, 100001/3] spans 53.3 units
    code, out, _ = _plot_e(tmp_path, capsys, "dense", "[0,1000000]", "[100000/3,100001/3]")
    assert code == 0
    assert (
        '<polygon class="box" points="1333333.333333,0 1333346.666667,0 '
        '1333346.666667,0 1333333.333333,0"/>'
    ) in out


def test_plot_prints_fractional_coordinates_beyond_float_range(tmp_path, capsys):
    big = 10**400
    code, out, _ = _plot_e(tmp_path, capsys, "dense", f"[0,{big}]", f"[{big}/3,{big}/3]")
    assert code == 0
    x = f"{40 * big // 3}.333333"
    assert f'<polygon class="box" points="{x},0 {x},0 {x},0 {x},0"/>' in out


def test_plot_coordinate_too_long_to_print_exits_1(tmp_path, capsys):
    # the domain end is readable; forty times it is one digit too long to print
    code, out, err = _plot_e(tmp_path, capsys, "discrete", f"[0,{'9' * 4299}]", "[0,1]")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "digits" in err


def test_plot_out_file(workdir, capsys):
    target = workdir / "plot.svg"
    code, out, _ = run(
        capsys, "plot", "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "c", "--pair", "ICDT", "ISWC",
        "--out", target,
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("<svg ")


def test_max_iter_env_var(workdir, capsys, monkeypatch):
    (workdir / "closure.tg").write_text(data_text("closure.tg"), encoding="utf-8")
    monkeypatch.setenv("TRPQ_MAX_ITER", "1")
    code, _, err = run(
        capsys, "eval", "--graph", workdir / "closure.tg",
        "--query", "e/(T[2,2])[1,_]", "--repr", "t",
    )
    assert code == 1
    assert "stabilise" in err
    monkeypatch.setenv("TRPQ_MAX_ITER", "100")
    code, out, _ = run(
        capsys, "eval", "--graph", workdir / "closure.tg",
        "--query", "e/(T[2,2])[1,_]", "--repr", "t", "--coalesce",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 10"


def test_usage_error_exits_1(workdir, capsys):
    code, _, err = run(capsys, "eval", "--graph", workdir / "running.tg")
    assert code == 1


@pytest.mark.parametrize(
    "env, argv",
    [
        ({}, ("stats", "--scale", "query", "--factors", "a")),
        ({}, ("stats", "--scale", "query", "--factors", "0")),
        ({"TRPQ_MAX_ITER": "x"}, ("eval", "--repr", "c")),
        ({}, ("eval", "--repr", "c", "--max-iterations", "0")),
        ({}, ("eval", "--repr", "c", "--max-iterations", "-3")),
        ({"TRPQ_MAX_ITER": "-5"}, ("eval", "--repr", "c")),
    ],
    ids=[
        "factors-not-integer", "factors-zero", "max-iter-env-not-integer",
        "max-iter-flag-zero", "max-iter-flag-negative", "max-iter-env-negative",
    ],
)
def test_bad_numeric_input_exits_1(workdir, capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(
        capsys, *argv, "--graph", workdir / "running.tg", "--query", workdir / "q3.trpq"
    )
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command", [("eval",), ("plot", "--pair", "Alice", "ISWC")], ids=["eval", "plot"]
)
@pytest.mark.parametrize(
    "flags",
    [("--coalesce",), ("--minimize", "greedy"), ("--minimize", "exact")],
    ids=["coalesce", "minimize-greedy", "minimize-exact"],
)
def test_point_rejects_compaction_flags(workdir, capsys, command, flags):
    code, out, err = run(
        capsys, *command, "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", "point", *flags,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_deep_query_exits_1(workdir, capsys):
    # a long chain is one node, so only nesting past the documented limit fails
    graph = workdir / "running.tg"
    chain = "/".join(["T[0,0]"] * 1200)
    code, out, err = run(capsys, "eval", "--graph", graph, "--query", chain, "--repr", "c")
    assert (code, err) == (0, "")
    assert out == run(capsys, "eval", "--graph", graph, "--query", "T[0,0]", "--repr", "c")[1]
    for shape in SHAPES.values():
        nest = shape(MAX_DEPTH + 1)
        code, out, err = run(capsys, "eval", "--graph", graph, "--query", nest, "--repr", "c")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: query nests deeper than {MAX_DEPTH} levels")


@pytest.mark.parametrize("reprs", ["t,x", "point"])
def test_stats_rejects_an_unknown_representation_before_printing(workdir, capsys, reprs):
    code, out, err = run(
        capsys, "stats", "--graph", workdir / "running.tg", "--query", "attends",
        "--scale", "query", "--factors", "1,2", "--reprs", reprs,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: stats supports representations t, d, td, c")


@pytest.mark.parametrize(
    "graph, query, repr_name",
    [
        ("running_dense.tg", "attends/T[0,3]/attends^-", "d"),
        ("running.tg", "q3.trpq", "c"),
    ],
    ids=["dense-d-infeasible", "bundled-q3-c"],
)
def test_eval_output_independent_of_hash_seed(workdir, graph, query, repr_name):
    query_arg = workdir / query if query.endswith(".trpq") else query
    src = str(Path(trpq.__file__).resolve().parents[1])
    results = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "trpq.cli", "eval", "--graph", str(workdir / graph),
             "--query", str(query_arg), "--repr", repr_name],
            capture_output=True, text=True, env=env, timeout=120,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] in (0, 2)


LONG = "9" * 5000  # more digits than the interpreter converts to an integer


@pytest.mark.parametrize(
    "graph, query, where",
    [
        ("mode discrete\ndomain [0,5]\na e b [0,1/0]\n", "e", "line 3"),
        ("mode dense\ndomain [0,5]\na e b [1/0,1]\n", "e", "line 3"),
        (f"mode discrete\ndomain [0,{LONG}]\na e b [0,1]\n", "e", "line 2"),
        (f"mode discrete\ndomain [0,5]\na e b [0,{LONG}]\n", "e", "line 3"),
        (f"mode dense\ndomain [0,5]\na e b [0,1.{LONG}]\n", "e", "line 3"),
        ("mode discrete\ndomain [0,5]\na e b [0,1]\n", "T[0,1/0]", "position 4"),
        ("mode discrete\ndomain [0,5]\na e b [0,1]\n", "(<=1/0)", "position 3"),
        ("mode discrete\ndomain [0,5]\na e b [0,1]\n", f"e[0,{LONG}]", "position 4"),
        ("mode discrete\ndomain [0,5]\na e b [0,1]\n", f"e[{LONG},_]", "position 2"),
        ("mode discrete\ndomain [0,5]\na e b [0,1]\n", f"e/T[-{LONG},1]", "position 5"),
    ],
    ids=[
        "graph-zero-denominator", "graph-dense-zero-denominator", "graph-long-domain-bound",
        "graph-long-fact-bound", "graph-long-decimal", "query-nav-zero-denominator",
        "query-time-bound-zero-denominator", "query-long-repeat-bound",
        "query-long-repeat-lower-bound", "query-long-nav-bound",
    ],
)
def test_bad_numeric_literal_exits_1(tmp_path, capsys, graph, query, where):
    (tmp_path / "g.tg").write_text(graph, encoding="utf-8")
    code, out, err = run(
        capsys, "eval", "--graph", tmp_path / "g.tg", "--query", query, "--repr", "c"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert where in err


@pytest.mark.parametrize("which", ["graph", "query"])
def test_non_utf8_input_exits_1(workdir, capsys, which):
    bad = workdir / "latin1.txt"
    texts = {"graph": "mode discrete\ndomain [0,5]\n# caf\xe9\na e b [0,1]\n", "query": "caf\xe9"}
    bad.write_bytes(texts[which].encode("latin-1"))
    files = {"graph": workdir / "running.tg", "query": workdir / "q3.trpq", which: bad}
    code, out, err = run(
        capsys, "eval", "--graph", files["graph"], "--query", files["query"], "--repr", "c"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "UTF-8" in err


def test_a_byte_order_mark_is_not_part_of_the_input(workdir, capsys):
    # a UTF-8 file may start with a BOM, as some editors write it
    for name in ("running.tg", "q3.trpq"):
        text = (workdir / name).read_text(encoding="utf-8")
        (workdir / f"bom-{name}").write_text("\ufeff" + text, encoding="utf-8")
    outcomes = [
        run(capsys, "eval", "--graph", workdir / f"{prefix}running.tg",
            "--query", workdir / f"{prefix}q3.trpq", "--repr", "t", "--coalesce")
        for prefix in ("", "bom-")
    ]
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0 and outcomes[0][1]


@pytest.mark.parametrize(
    "command", [("eval",), ("plot", "--pair", "ICDT", "ISWC")], ids=["eval", "plot"]
)
@pytest.mark.parametrize(
    "flags",
    [("td",), ("c", "--minimize", "greedy"), ("t", "--coalesce"), ("point",)],
    ids=["td", "c-minimize-greedy", "t-coalesce", "point"],
)
def test_disjoint_requires_minimize_exact(workdir, capsys, command, flags):
    code, out, err = run(
        capsys, *command, "--graph", workdir / "running.tg",
        "--query", workdir / "q3.trpq", "--repr", *flags, "--disjoint",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--disjoint" in err


def test_number_too_long_to_print_exits_1(workdir, capsys):
    # the factor itself is readable; the intervals it scales are too long to print
    code, out, err = run(
        capsys, "stats", "--graph", workdir / "running.tg", "--query", "attends",
        "--scale", "graph", "--factors", "9" * 4299,
    )
    assert code == 1
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.parametrize(
    "flags, named",
    [(("td", "--coalesce"), "--coalesce"), (("t", "--minimize", "greedy"), "--minimize greedy")],
    ids=["td-coalesce", "t-minimize-greedy"],
)
def test_flag_combinations_are_checked_before_evaluating(workdir, capsys, flags, named):
    # one round is too few for this closure: evaluating would end in the cap error
    (workdir / "closure.tg").write_text(data_text("closure.tg"), encoding="utf-8")
    code, out, err = run(
        capsys, "eval", "--graph", workdir / "closure.tg", "--query", "e/(T[2,2])[1,_]",
        "--max-iterations", "1", "--repr", *flags,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err
