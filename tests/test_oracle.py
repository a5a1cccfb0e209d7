import random

import pytest

from trpq import PointTuple, eval_direct, induced_relation, parse_query, power
from trpq import intervals as iv
from trpq import oracle
from trpq.errors import DenseInfeasibleError, FixpointLimitError
from trpq.graph import TemporalGraph
from trpq.query import Repeat

from randgen import random_instance


def test_q3_point_answers(running, q3, q3_points):
    out = eval_direct(running, q3)
    assert {(p.n1, p.n2) for p in out} == {("ICDT", "ISWC")}
    assert {(p.t, p.d) for p in out} == q3_points
    assert len(out) == 7


def test_bob_attends(running):
    out = eval_direct(running, parse_query("(=Bob)/attends"))
    assert out == frozenset(
        PointTuple("Bob", "ISWC", t, 0) for t in range(102, 108)
    )
    assert len(out) == 6


def test_negation_of_everything():
    g = TemporalGraph("discrete", iv.closed(0, 3), {("Alice", "e", "Alice"): (iv.closed(0, 1),)})
    assert eval_direct(g, parse_query("!( (=Alice) )")) == frozenset()


def test_induced_relation(running, q3, q3_points):
    out = eval_direct(running, q3)
    rel = induced_relation(out, "ICDT", "ISWC")
    assert rel == {(t, t + d) for (t, d) in q3_points}
    assert induced_relation(frozenset(), "a", "b") == set()
    assert induced_relation({PointTuple("a", "b", 5, 0)}, "a", "b") == {(5, 5)}


def test_union_is_set_union():
    rng = random.Random(3)
    for seed in range(30):
        G, _ = random_instance(seed)
        q1 = parse_query("e")
        q2 = parse_query("T[0,2]")
        combined = eval_direct(G, parse_query("e + T[0,2]"))
        assert combined == eval_direct(G, q1) | eval_direct(G, q2)


def test_bounded_repeat_matches_powers():
    for seed in range(20):
        G, _ = random_instance(seed)
        inner = parse_query("e + T[1,2]")
        got = eval_direct(G, Repeat(inner, 1, 3))
        expected = frozenset().union(
            *(eval_direct(G, power(inner, k)) for k in (1, 2, 3))
        )
        assert got == expected


def test_zero_repeat_includes_identity():
    from trpq.graph import graph_nodes

    for seed in range(10):
        G, _ = random_instance(seed)
        got = eval_direct(G, Repeat(parse_query("e"), 0, 1))
        identity = {
            PointTuple(n, n, t, 0)
            for n in graph_nodes(G)
            for t in iv.iter_points(G.domain)
        }
        assert got == identity | eval_direct(G, parse_query("e"))


def test_answers_stay_in_domain():
    for seed in range(60):
        G, q = random_instance(seed)
        for p in eval_direct(G, q):
            assert iv.contains(G.domain, p.t)
            assert iv.contains(G.domain, p.t + p.d)


def test_inverse_is_converse_with_zero_distance():
    for seed in range(30):
        G, _ = random_instance(seed)
        fwd = eval_direct(G, parse_query("e"))
        bwd = eval_direct(G, parse_query("e^-"))
        assert bwd == frozenset(PointTuple(p.n2, p.n1, p.t, p.d) for p in fwd)
        assert all(p.d == 0 for p in fwd | bwd)


def test_dense_mode_rejected(running_dense, q3):
    with pytest.raises(DenseInfeasibleError):
        eval_direct(running_dense, q3)


def test_time_bound_beyond_domain():
    g = TemporalGraph("discrete", iv.closed(0, 2), {("a", "e", "b"): (iv.closed(0, 1),)})
    everything = eval_direct(g, parse_query("(<=99)"))
    assert everything == frozenset(
        PointTuple(n, n, t, 0) for n in ("a", "b") for t in (0, 1, 2)
    )
    assert eval_direct(g, parse_query("(<=-1)")) == frozenset()


def test_bounded_repeat_stops_once_a_power_adds_nothing(monkeypatch, running):
    calls = []
    compose = oracle._compose

    def counting(A, B):
        calls.append(1)
        return compose(A, B)

    monkeypatch.setattr(oracle, "_compose", counting)
    out = eval_direct(running, parse_query("attends[0,200000]"))
    assert len(calls) == 1  # the second power, attends/attends, is empty
    assert out == eval_direct(running, parse_query("attends[0,1]"))


def test_round_cap_below_the_closure_raises(closure_graph):
    q = parse_query("e/(T[2,2])[1,_]")
    assert len(eval_direct(closure_graph, q, max_iterations=20)) == 10
    with pytest.raises(FixpointLimitError, match=r"^no fixpoint after 1 rounds$"):
        eval_direct(closure_graph, q, max_iterations=1)
