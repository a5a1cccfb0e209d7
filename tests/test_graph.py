import random
from fractions import Fraction

import pytest

from trpq import (
    eval_c,
    eval_d,
    eval_direct,
    eval_t,
    eval_td,
    graph_nodes,
    load_graph,
    parse_query,
    serialize_graph,
)
from trpq.errors import GraphParseError
from trpq.graph import TemporalGraph, scale_graph
from trpq.errors import IntervalDomainError
from trpq import intervals as iv
from trpq.tuples import unfold

from randgen import random_graph


def test_running_example_loads(running):
    assert running.mode == "discrete"
    assert running.domain == iv.closed(100, 112)
    assert len(running.facts) == 4
    assert running.val("Alice", "attends", "ISWC") == (iv.closed(104, 106),)


def test_running_example_nodes(running):
    assert graph_nodes(running) == {"Alice", "Bob", "ICDT", "ISWC", "positive"}


def test_domain_containment_violation():
    doc = "mode discrete\ndomain [100,112]\nAlice attends ICDT [90,95]\n"
    with pytest.raises(GraphParseError) as err:
        load_graph(doc)
    assert "Alice" in str(err.value)


def test_empty_graph_loads():
    g = load_graph("mode discrete\ndomain [0,0]\n")
    assert graph_nodes(g) == frozenset()
    assert g.facts == {}


def test_self_loop_single_node():
    g = load_graph("mode discrete\ndomain [0,5]\na e a [1,2]\n")
    assert graph_nodes(g) == {"a"}


def test_round_trip_is_fixpoint(running):
    text = serialize_graph(running)
    again = load_graph(text)
    assert (again.mode, again.domain, again.facts) == (running.mode, running.domain, running.facts)
    assert serialize_graph(again) == text


def test_validity_sets_coalesced_at_load():
    g = load_graph("mode discrete\ndomain [0,10]\na e b [1,2], [3,4]\na e b [8,9]\n")
    assert g.val("a", "e", "b") == (iv.closed(1, 4), iv.closed(8, 9))


def test_dense_rational_intervals():
    # (1/4,1/2) touches [1/2,3/4] with a closed delimiter: they coalesce
    g = load_graph("mode dense\ndomain [0,2]\na e b [1/2,3/4], (0.25,0.5)\n")
    from fractions import Fraction

    assert g.val("a", "e", "b") == (
        iv.Interval(Fraction(1, 4), Fraction(3, 4), False, True),
    )


def test_comments_and_blank_lines_ignored():
    g = load_graph("# hello\n\nmode discrete\n# again\ndomain [0,3]\n\na e b [0,1]\n")
    assert len(g.facts) == 1


def test_a_tab_separates_a_header_as_it_separates_a_fact():
    tabbed = load_graph("mode\tdiscrete\ndomain\t[0,5]\na\te\tb\t[0,1]\n")
    spaced = load_graph("mode discrete\ndomain [0,5]\na e b [0,1]\n")
    assert (tabbed.mode, tabbed.domain, tabbed.facts) == (spaced.mode, spaced.domain, spaced.facts)


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("domain [0,1]\na e b [0,1]\n", "mode"),
        ("mode discrete\na e b [0,1]\n", "precede"),
        ("mode sometimes\ndomain [0,1]\n", "unknown mode"),
        ("mode discrete\ndomain [1,0]\n", "domain"),
        ("mode discrete\ndomain [0,5]\na e b\n", "expected"),
        ("mode discrete\ndomain [0,5]\na e b [0,1] garbage\n", "garbage"),
        ("mode discrete\ndomain [0,5]\na e! b [0,1]\n", "predicate"),
        ("mode discrete\ndomain [0,5]\nmode discrete\n", "duplicate"),
        ("mode dense\ndomain (0,0]\n", "domain"),
        ("domain [0,1]\n", "missing mode header"),
        ("mode discrete\n", "missing domain header"),
        ("mode discrete\ndomain [0,5]\ndomain [0,5]\n", "duplicate domain header (line 3)"),
        ("mode discrete\ndomain foo\n", "bad domain: not an interval literal: 'foo' (line 2)"),
        (
            "mode discrete\ndomain (0,1)\n",
            "domain is empty over discrete time: interval (0,1) is empty over discrete time",
        ),
        (
            "mode discrete\ndomain [0,5]\na e b [0,1] x [2,3]\n",
            "unexpected text 'x' in interval list (line 3, column 12)",
        ),
    ],
)
def test_parse_errors(doc, needle):
    with pytest.raises(GraphParseError) as err:
        load_graph(doc)
    assert needle in str(err.value)


def test_error_reports_line_number():
    doc = "mode discrete\ndomain [0,5]\na e b [0,1]\na e b [7,8]\n"
    with pytest.raises(GraphParseError) as err:
        load_graph(doc)
    assert err.value.line == 4


def test_nodes_are_subject_and_object_columns():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng)
        expected = {s for s, _, _ in g.facts} | {o for _, _, o in g.facts}
        assert graph_nodes(g) == expected
        assert graph_nodes(g) is graph_nodes(g)  # built once, at construction
        assert g.nodes == tuple(sorted(expected))


def test_triples_with_label_lists_the_label_facts_in_fact_order():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng)
        for label in ("e", "f", "g", "absent"):
            assert list(g.triples_with_label(label)) == [
                (s, o, validity) for (s, p, o), validity in g.facts.items() if p == label
            ]


def test_scale_graph_keeps_domain_fixed():
    g = load_graph("mode discrete\ndomain [0,8]\na e b [0,1]\n")
    scaled = scale_graph(g, 3)
    assert scaled.domain == g.domain
    assert scaled.val("a", "e", "b") == (iv.closed(0, 3),)


def test_scale_graph_rejects_factor_zero():
    g = load_graph("mode discrete\ndomain [0,8]\na e b [0,1]\n")
    with pytest.raises(ValueError, match="scale factor must be a positive integer"):
        scale_graph(g, 0)


def test_scale_graph_rejects_escape():
    g = load_graph("mode discrete\ndomain [0,8]\na e b [0,5]\n")
    with pytest.raises(IntervalDomainError):
        scale_graph(g, 2)


def test_scale_graph_leaves_no_fraction_with_denominator_one():
    g = load_graph("mode dense\ndomain [0,10]\na e b [1/2,3/2], (4,11/2]\nb f a [5/2,7/2)\n")
    scaled = scale_graph(g, 2, include_domain=True)
    assert "Fraction(" not in repr(scaled)
    assert scaled.val("a", "e", "b") == (iv.closed(1, 3), iv.Interval(8, 11, False, True))
    assert all(
        type(x) is int for validity in scaled.facts.values() for i in validity for x in (i.lo, i.hi)
    )


def test_load_graph_normalises_each_discrete_interval_once(monkeypatch):
    # the loader normalises each interval for its checks; coalescing keeps them as they are
    doc = "mode discrete\ndomain (0,20]\na e b [1,3), (2,5], [7,9]\nb e a (3,4]\na f a [1,1]\n"
    want = load_graph(doc)
    calls = []
    original = iv.normalize_discrete

    def counting(interval):
        calls.append(interval)
        return original(interval)

    monkeypatch.setattr(iv, "normalize_discrete", counting)
    got = load_graph(doc)
    assert (got.mode, got.domain, got.facts) == (want.mode, want.domain, want.facts)
    assert len(calls) == 1 + 5  # the domain and each fact interval
    assert got.val("a", "e", "b") == (iv.closed(1, 5), iv.closed(7, 9))


def test_load_graph_reads_each_interval_literal_once(monkeypatch):
    calls = []
    original = iv.parse_interval

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(iv, "parse_interval", counting)
    g = load_graph("mode dense\ndomain [0,10]\na e b [1/2,3/2], (4,11/2]\n")
    assert calls == ["[0,10]"]  # the domain header alone; facts are read off their match
    assert g.val("a", "e", "b") == (
        iv.closed(Fraction(1, 2), Fraction(3, 2)),
        iv.Interval(4, Fraction(11, 2), False, True),
    )


@pytest.mark.parametrize(
    "mode, domain, fact",
    [
        ("dense", iv.Interval(Fraction(-1, 3), 8, False, False), iv.Interval(7, 8, False, True)),
        ("dense", iv.Interval(-1, 8, False, False), iv.Interval(7, 8, False, True)),
        ("discrete", iv.closed(0, 5), iv.closed(4, 9)),
    ],
    ids=["dense-thirds", "dense-integers", "discrete"],
)
def test_graph_built_through_the_api_rejects_a_fact_outside_its_domain(mode, domain, fact):
    with pytest.raises(IntervalDomainError) as err:
        TemporalGraph(mode, domain, {("A", "e", "B"): (fact,)})
    assert str(err.value) == (
        f"interval {fact} of triple (A, e, B) is not contained in the domain {domain}"
    )


def test_graph_built_through_the_api_checks_the_integer_points_of_a_discrete_fact():
    # (-1,11/2) holds the integers 0..5, all in [0,5]: over discrete time it
    # fits, and the graph keeps it in its canonical form
    fact = iv.Interval(-1, Fraction(11, 2), False, False)
    g = TemporalGraph("discrete", iv.closed(0, 5), {("A", "e", "B"): (fact,)})
    assert g.val("A", "e", "B") == (iv.closed(0, 5),)
    with pytest.raises(IntervalDomainError, match=r"interval \[0,6\] of triple \(A, e, B\)"):
        TemporalGraph("discrete", iv.closed(0, 5), {("A", "e", "B"): (iv.closed(0, 6),)})


def test_graph_built_through_the_api_puts_its_facts_in_canonical_form():
    def intervals(*texts):
        return tuple(map(iv.parse_interval, texts))

    g = TemporalGraph("discrete", iv.parse_interval("(0,20]"), {
        ("a", "e", "b"): intervals("(0,3)", "[7,9]", "(2,5]"),
        ("b", "e", "a"): intervals("[4,4]"),
    })
    assert g.domain == iv.closed(1, 20)
    assert g.val("a", "e", "b") == intervals("[1,5]", "[7,9]")
    assert g.val("b", "e", "a") == intervals("[4,4]")
    again = load_graph(serialize_graph(g))
    assert (again.mode, again.domain, again.facts) == (g.mode, g.domain, g.facts)
    dense = TemporalGraph("dense", iv.closed(0, 10), {
        ("a", "e", "b"): intervals("[6,7]", "(1,3)", "[2,4)"),
    })
    assert dense.val("a", "e", "b") == intervals("(1,4)", "[6,7]")


@pytest.mark.parametrize("kind", ["t", "d", "td", "c"])
def test_a_non_canonical_discrete_fact_evaluates_like_the_oracle(kind):
    # (0,3) holds the integers 1 and 2; every evaluator reads it as [1,2]
    g = TemporalGraph("discrete", iv.closed(0, 5),
                      {("a", "e", "b"): (iv.Interval(0, 3, False, False),)})
    evaluate = {"t": eval_t, "d": eval_d, "td": eval_td, "c": eval_c}[kind]
    for text in ("e", "e/e^-", "e/T[0,2]"):
        q = parse_query(text)
        assert unfold(evaluate(g, q), kind) == eval_direct(g, q), text
    assert eval_c(g, parse_query("e")).render() == "c a b [1,2] [0,0] b=1 e=2"


def test_load_graph_reports_a_fact_outside_the_domain_by_line():
    # the loader's own check comes first, with the line number
    with pytest.raises(GraphParseError) as err:
        load_graph("mode discrete\ndomain [0,5]\nA e B [4,9]\n")
    assert str(err.value) == (
        "interval [4,9] of triple (A, e, B) is not contained in the domain [0,5] (line 3)"
    )


@pytest.mark.parametrize("triple", [("", "e", "B"), ("A", "e", ""), ("", "e", "")])
def test_graph_built_through_the_api_rejects_an_empty_node_name(triple):
    # a loaded file cannot hold one (identifiers are nonempty); the evaluators
    # use "" as the placeholder node of a navigation, time bound or node filter
    with pytest.raises(GraphParseError, match="a node name must not be empty"):
        TemporalGraph("discrete", iv.closed(0, 5), {triple: (iv.closed(1, 2),)})
    # a label may still be anything
    g = TemporalGraph("discrete", iv.closed(0, 5), {("A", "", "B"): (iv.closed(1, 2),)})
    assert g.nodes == ("A", "B")


@pytest.mark.parametrize("mode", ["foo", "Dense", ""])
def test_graph_built_through_the_api_rejects_an_unknown_mode(mode):
    # as load_graph rejects its header, so that serialize_graph only writes
    # files that load_graph reads
    with pytest.raises(GraphParseError, match=f"unknown mode {mode!r}"):
        TemporalGraph(mode, iv.closed(0, 10), {("a", "e", "b"): (iv.closed(0, 3),)})
