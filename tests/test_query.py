import random

import pytest

from trpq import format_query, parse_query, power
from trpq import intervals as iv
from trpq.errors import QueryParseError
from trpq.query import (
    MAX_DEPTH,
    Inverse,
    Join,
    Label,
    LeqTime,
    Not,
    Pred,
    Repeat,
    Test,
    TimeNav,
    Union,
    adapt_query,
    depth,
    map_leaves,
    map_times,
    scale_query,
    time_leaves,
)

from nesting import SHAPES
from randgen import random_query


def test_parse_q1():
    # a join chain starting from temporal navigation is one node
    assert parse_query("T[3,5] / attends / attends^-") == Join(
        TimeNav(iv.closed(3, 5)), Label("attends"), Inverse(Label("attends"))
    )


def test_parse_q3():
    assert parse_query("attends^-/(=Alice)/T[3,5]/attends") == Join(
        Inverse(Label("attends")),
        Pred(True, "Alice"),
        TimeNav(iv.closed(3, 5)),
        Label("attends"),
    )


def test_chains_are_one_node_and_groups_stay_apart():
    a, b, c = Label("a"), Label("b"), Label("c")
    assert parse_query("a + b + c") == Union(a, b, c)
    assert parse_query("(a/b)/c") == Join(Join(a, b), c)
    assert parse_query("a/(b/c)") == Join(a, Join(b, c))
    assert parse_query("(a + b) + c") == Union(Union(a, b), c)
    for q in (Join(Join(a, b), c), Join(a, Join(b, c)), Union(Union(a, b), c)):
        assert parse_query(format_query(q)) == q
    assert format_query(Join(Join(a, b), c)) == "(a/b)/c"
    assert depth(parse_query("/".join(["a"] * 5000))) == 1
    assert depth(a) == 0
    assert depth(Join(Join(a, b), c)) == 2
    with pytest.raises(ValueError):
        Join(a)


def test_parse_unbounded_repeat_of_navigation():
    assert parse_query("e/(T[2,2])[1,_]") == Join(
        Label("e"), Repeat(TimeNav(iv.closed(2, 2)), 1, None)
    )


def test_union_binds_loosest():
    assert parse_query("a/b + c") == Union(Join(Label("a"), Label("b")), Label("c"))
    assert parse_query("a + b/c") == Union(Label("a"), Join(Label("b"), Label("c")))


def test_postfix_binds_tightest():
    assert parse_query("a/b[1,2]") == Join(Label("a"), Repeat(Label("b"), 1, 2))
    assert parse_query("a^-/b") == Join(Inverse(Label("a")), Label("b"))
    assert parse_query("a^-^-") == Inverse(Inverse(Label("a")))


def test_parens_override():
    assert parse_query("(a + b)/c") == Join(Union(Label("a"), Label("b")), Label("c"))


def test_repeat_of_group():
    assert parse_query("(a/b)[0,3]") == Repeat(Join(Label("a"), Label("b")), 0, 3)


def test_navigation_delimiters_and_signs():
    assert parse_query("T(0,2]") == TimeNav(iv.Interval(0, 2, False, True))
    assert parse_query("T[-7,0]") == TimeNav(iv.closed(-7, 0))
    assert parse_query("T[1/2,3/2]") == TimeNav(
        iv.Interval(iv.parse_number("1/2"), iv.parse_number("3/2"))
    )


def test_bare_t_is_a_label():
    assert parse_query("T/e") == Join(Label("T"), Label("e"))


def test_predicates_and_time_bound():
    assert parse_query("(=Alice)") == Pred(True, "Alice")
    assert parse_query("(!=Alice)") == Pred(False, "Alice")
    assert parse_query("(<=5)") == LeqTime(5)
    assert parse_query("(<=-3)") == LeqTime(-3)
    assert parse_query("(<=5/2)") == LeqTime(iv.parse_number("5/2"))


def test_test_and_negation():
    assert parse_query("?(attends/(=Alice))") == Test(
        Join(Label("attends"), Pred(True, "Alice"))
    )
    assert parse_query("!( (=Alice) )") == Not(Pred(True, "Alice"))
    assert parse_query("!(=Alice)") == Not(Pred(True, "Alice"))
    assert parse_query("!(?(e))") == Not(Test(Label("e")))
    assert parse_query("!(!(<=3))") == Not(Not(LeqTime(3)))


@pytest.mark.parametrize(
    "text",
    [
        "(a/b)^-",        # inverse of a non-edge
        "!(e)",           # negation of a non-node
        "a[3,2]",         # m > n
        "a[1,_] b",       # trailing garbage
        "a//b",
        "T[5,3]",         # empty navigation interval
        "(=)",
        "a + ",
        "?",
        "<= 3",
    ],
)
def test_parse_errors(text):
    with pytest.raises(QueryParseError):
        parse_query(text)


@pytest.mark.parametrize("text, message, position", [
    ("e & f", "unexpected character '&'", 2),
    ("e[x,1]", "expected a natural number, got 'x'", 2),
    ("e[1.5,2]", "expected a natural number, got '1.5'", 2),
    ("T[1,2,3]", "expected ']' or ')'", 5),
])
def test_token_errors_name_their_position(text, message, position):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_error_position_reported():
    with pytest.raises(QueryParseError) as err:
        parse_query("a/b)")
    assert err.value.position == 3


def test_power():
    q = Label("e")
    assert power(q, 1) == q
    assert power(q, 3) == Join(q, q, q)
    with pytest.raises(ValueError):
        power(q, 0)


def test_round_trip_bundled():
    for text in (
        "T[3,5]/attends/attends^-",
        "attends^-/(=Alice)/T[3,5]/attends",
        "e/(T[2,2])[1,_]",
        "(a + b/c)[2,4]/d^-",
        "?(a/T(0,1])+!(=X)",
    ):
        ast = parse_query(text)
        assert parse_query(format_query(ast)) == ast


def test_round_trip_generated():
    rng = random.Random(11)
    for _ in range(300):
        ast = random_query(rng, 4)
        assert parse_query(format_query(ast)) == ast


def test_adapt_query_discrete_normalises():
    ast = parse_query("T(0,3)/(<=5/2)")
    adapted = adapt_query(ast, discrete=True)
    assert adapted == Join(TimeNav(iv.closed(1, 2)), LeqTime(2))
    assert adapt_query(ast, discrete=False) == ast


def test_adapt_query_discrete_rejects_vanishing_interval():
    from trpq.errors import EmptyIntervalError

    with pytest.raises(EmptyIntervalError):
        adapt_query(parse_query("T(0,1)"), discrete=True)


def test_scale_query():
    ast = parse_query("T[0,1]/(<=2)")
    assert scale_query(ast, 3) == Join(TimeNav(iv.closed(0, 3)), LeqTime(6))
    with pytest.raises(ValueError, match="scale factor must be a positive integer"):
        scale_query(ast, 0)


def test_scale_query_gives_int_for_integral_results():
    scaled = scale_query(parse_query("T[1/2,3/2)/(<=5/2)"), 2)
    assert scaled == Join(TimeNav(iv.Interval(1, 3, True, False)), LeqTime(5))
    assert "Fraction(" not in repr(scaled)
    assert format_query(scale_query(parse_query("(<=1/3)"), 2)) == "(<=2/3)"


def test_time_leaves_walk_left_to_right_into_every_subquery():
    q = parse_query("(T[1,2]/e)[1,_]/?((<=3) + !((<=4))) + e^-/T(5,6] + (e/T[7,8])[0,2]")
    assert list(time_leaves(q)) == [
        TimeNav(iv.closed(1, 2)),
        LeqTime(3),
        LeqTime(4),
        TimeNav(iv.Interval(5, 6, False, True)),
        TimeNav(iv.closed(7, 8)),
    ]
    # not recursive: a tree far deeper than the interpreter's stack
    deep = TimeNav(iv.point(1))
    for _ in range(20_000):
        deep = Test(deep)
    assert list(time_leaves(deep)) == [TimeNav(iv.point(1))]


def test_map_times_rewrites_every_navigation_interval_and_time_bound():
    q = parse_query("(T[1,2]/e)[1,_]/?((<=3) + !((<=4)))")
    seen = []

    def shift(x):
        seen.append(x)
        return iv.shift(x, 10) if isinstance(x, iv.Interval) else x + 10

    assert map_times(q, shift) == parse_query("(T[11,12]/e)[1,_]/?((<=13) + !((<=14)))")
    assert seen == [iv.closed(1, 2), 3, 4]


# --- nesting limit ---------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_is_accepted(shape):
    q = parse_query(SHAPES[shape](MAX_DEPTH))
    assert depth(q) == (0 if shape == "groups" else MAX_DEPTH)
    assert parse_query(format_query(q)) == q
    assert map_leaves(q, lambda leaf: leaf) == q
    assert adapt_query(q, discrete=True) == q  # the leaves are already discrete
    scaled = scale_query(q, 2)
    assert depth(scaled) == depth(q)
    assert parse_query(format_query(scaled)) == scaled
    assert "T[0,1]" not in format_query(scaled) and "(<=1)" not in format_query(scaled)


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 10_000])
@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_past_the_limit_is_rejected(shape, levels):
    with pytest.raises(QueryParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse_query(SHAPES[shape](levels))
