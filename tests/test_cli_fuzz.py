"""Fuzzing the CLI's error contract: every input ends in a result or an error line.

``trpq.cli.main`` is called with graph text, query text and flags drawn from
the grammar's tokens.  One test draws well-formed input, so that most examples
reach evaluation, compaction, plotting or stats; its queries include ``/`` and
``+`` chains of up to 300 operands.  The other mixes in input that must be
rejected: zero denominators (``1/0``), digit strings longer than the
interpreter converts, non-UTF-8 bytes, malformed headers, unknown flags,
out-of-range values and queries nested one level past ``MAX_DEPTH``.  Whatever the input, ``main`` must return 0, 1 or 2,
write ``error: ...`` when it does not return 0, and let no exception escape.

The domains stay small (bounds of at most a few units) and ``--max-iterations``
stays at most 50, because nothing yet bounds the size of an answer: a wide
discrete domain under ``eval_t``, ``--repr point`` or ``--minimize exact``
would make single examples run for minutes rather than fail.  Navigation and
repetition bounds may still be huge (``T[-1000000,1000000]``,
``q[m,1000000]``): navigation is clipped to the domain, and bounded
repetition stops at the first round that adds nothing.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from trpq.cli import main
from trpq.query import MAX_DEPTH

from nesting import SHAPES

# stands for a literal of more digits than the interpreter converts to an
# integer; spelt out only when the input is built, so that reports stay short
LONG = "<long>"

NODES = ("a", "b", "c")
LABELS = ("e", "f")
NUMBERS = ("0", "1", "2", "3", "4", "1/2", "3/2", "0.5")
BAD_NUMBERS = ("1/0", "-1", "7", LONG)
BAD_BYTES = (b"\xff", b"\xc3\x28", b"\x80abc", b"\xe9")
HUGE = "1000000"  # a navigation or repetition bound far beyond any domain here


def spell(text: str) -> str:
    return text.replace(LONG, "9" * 4400)


def pick(messy: bool, usual: tuple, unusual: tuple):
    """Values from ``usual``, or from ``usual`` and ``unusual`` when ``messy``."""
    return st.sampled_from(usual + unusual if messy else usual)


@st.composite
def intervals(draw, messy: bool):
    lo, hi = sorted(draw(st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=2)), key=Fraction)
    if messy:
        lo, hi = draw(pick(True, (lo,), BAD_NUMBERS)), draw(pick(True, (hi,), BAD_NUMBERS))
    elif lo == hi:
        return f"[{lo},{hi}]"
    return draw(st.sampled_from("[[(")) + f"{lo},{hi}" + draw(st.sampled_from("]])"))


@st.composite
def graph_bytes(draw, messy: bool):
    mode = draw(pick(messy, ("discrete", "dense"), ("fuzzy",)))
    domain = draw(intervals(messy)) if messy else "[0,4]"
    fact = st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(LABELS),
        st.sampled_from(NODES),
        st.lists(intervals(messy), min_size=1, max_size=2).map(", ".join),
    ).map(" ".join)
    lines = [f"mode {mode}", f"domain {domain}", *draw(st.lists(fact, max_size=5))]
    if messy:
        junk = ("# note", "", "mode dense", "domain [0,2]", "a e", "1x e a [0,1]")
        lines += draw(st.lists(st.sampled_from(junk), max_size=2))
    data = spell("\n".join(lines)).encode("utf-8")
    if messy and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from(BAD_BYTES)) + data[cut:]
    return data


def queries(messy: bool):
    leaves = st.one_of(
        st.sampled_from(LABELS + ("g",)),
        st.sampled_from(LABELS).map("{}^-".format),
        st.sampled_from(NODES).map("(={})".format),
        st.sampled_from(NODES).map("(!={})".format),
        pick(messy, NUMBERS, BAD_NUMBERS).map("(<={})".format),
        intervals(messy).map("T{}".format),
        st.just(f"T[-{HUGE},{HUGE}]"),
    )
    nats = pick(messy, ("0", "1", "2"), (LONG,))
    uppers = st.one_of(nats, st.sampled_from(("_", HUGE)))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map("/".join),
            st.tuples(inner, inner).map(" + ".join),
            inner.map("?({})".format),
            inner.map("!(?({}))".format),
            st.tuples(inner, nats, uppers).map(
                lambda r: "({})[{},{}]".format(*r)
            ),
        )

    # a long "/" or "+" chain is one node, however many operands it has
    operands = st.integers(2, 300).flatmap(lambda n: st.lists(leaves, min_size=n, max_size=n))
    chains = st.tuples(st.sampled_from(("/", " + ")), operands).map(
        lambda chain: chain[0].join(chain[1])
    )
    grammar = st.recursive(st.one_of(leaves, chains), extend, max_leaves=4)
    if not messy:
        return grammar
    # inverse and negation of any subquery, most of which the parser rejects
    grammar = st.one_of(grammar, grammar.map("({})^-".format), grammar.map("!({})".format))
    tokens = ("e", "T", "[", "]", "(", ")", "/", "+", "^-", "?", "!", ",", "_", "=", "<=",
              "1", "1/0", "@", LONG)
    too_deep = st.sampled_from(list(SHAPES.values())).map(lambda shape: shape(MAX_DEPTH + 1))
    return st.one_of(
        grammar, st.lists(st.sampled_from(tokens), max_size=8).map("".join), too_deep
    )


@st.composite
def cli_argv(draw, messy: bool):
    command = draw(st.sampled_from(("eval", "eval", "plot", "stats")))
    flags = ["--max-iterations", draw(pick(messy, ("1", "5", "50"), ("0", "-2", "x", LONG)))]
    if command == "stats":
        flags += ["--scale", draw(pick(messy, ("graph", "query"), ("time",)))]
        flags += ["--factors", draw(pick(messy, ("1,2", "1", ""), ("0", "a", "1/0", LONG)))]
        flags += ["--reprs", draw(pick(messy, ("t,d,c", "td", "t,d,td,c"), ("point", "t,x")))]
        return command, flags
    flags += ["--repr", draw(pick(messy, ("point", "t", "d", "td", "c"), ("q",)))]
    flags += draw(st.sampled_from(((), (), ("--coalesce",))))
    flags += draw(st.sampled_from(((), (), ("--minimize", "greedy"), ("--minimize", "exact"))))
    flags += draw(st.sampled_from(((), (), ("--disjoint",))))
    if command == "plot":
        flags += ["--pair", draw(st.sampled_from(NODES)), draw(st.sampled_from(NODES))]
    return command, flags


def run_main(graph: bytes, query: str, query_file_tail, argv):
    """Exit code and stderr of ``main``; with a tail, the query is passed in a file."""
    command, flags = argv
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp, "g.tg")
        graph_path.write_bytes(graph)
        query_arg = spell(query)
        if query_file_tail is not None:
            query_arg = str(Path(tmp, "q.trpq"))
            Path(query_arg).write_bytes(spell(query).encode("utf-8") + query_file_tail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--graph", str(graph_path), "--query", query_arg,
                         *map(spell, flags)])
    return code, err.getvalue()


FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@FUZZ
@given(
    graph=graph_bytes(messy=False),
    query=queries(messy=False),
    query_file_tail=st.sampled_from((None, b"")),
    argv=cli_argv(messy=False),
)
def test_main_returns_an_exit_code_for_well_formed_input(graph, query, query_file_tail, argv):
    code, err = run_main(graph, query, query_file_tail, argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith("error: ")


@FUZZ
@given(
    graph=graph_bytes(messy=True),
    query=queries(messy=True),
    query_file_tail=st.sampled_from((None, b"") + BAD_BYTES),
    argv=cli_argv(messy=True),
)
def test_main_returns_an_exit_code_for_any_input(graph, query, query_file_tail, argv):
    code, err = run_main(graph, query, query_file_tail, argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith("error: ")
