import hashlib
import json
import math
import random
import re
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from trpq import (
    PointTuple,
    bundled_graph,
    bundled_query,
    eval_c,
    eval_d,
    eval_direct,
    eval_t,
    eval_td,
    join_c,
    join_td,
    load_graph,
    parse_query,
)
from trpq import evaluate as ev
from trpq import intervals as iv
from trpq import query as q_
from trpq.compact import coalesce_d, coalesce_t, minimize_exact
from trpq.errors import (
    DenseInfeasibleError,
    EmptyIntervalError,
    FixpointLimitError,
    InvalidTupleError,
    TrpqError,
)
from trpq.graph import TemporalGraph, graph_nodes, scale_graph, serialize_graph
from trpq.query import scale_query
from trpq.tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    admissible_window,
    as_ctuple,
    as_td,
    ctuple_valid,
    delta_at,
    render_tuple,
    tuple_sort_key,
    unfold,
)

from nesting import SHAPES
from randgen import HALF_STEPS, random_instance, random_mixed_interval


def C(lo, hi):
    return iv.closed(lo, hi)


def graph(mode, domain, *facts):
    triples = {}
    for s, p, o, intervals in facts:
        triples[(s, p, o)] = tuple(intervals)
    return TemporalGraph(mode, domain, triples)


# --- U^t ----------------------------------------------------------------------


def test_eval_t_q3_coalesced(running, q3):
    out = coalesce_t(eval_t(running, q3))
    assert set(out) == {
        TTuple("ICDT", "ISWC", C(100, 101), 5),
        TTuple("ICDT", "ISWC", C(100, 102), 4),
        TTuple("ICDT", "ISWC", C(101, 102), 3),
    }


def test_eval_t_closure_example(closure_graph):
    q = parse_query("e/(T[2,2])[1,_]")
    out = coalesce_t(eval_t(closure_graph, q))
    assert set(out) == {
        TTuple("n1", "n2", C(0, 0), d) for d in range(2, 21, 2)
    }
    assert len(out) == 10


def test_eval_t_label_base_case():
    g = graph("discrete", C(100, 112), ("Alice", "attends", "ISWC", [C(104, 106)]))
    assert set(eval_t(g, parse_query("attends"))) == {
        TTuple("Alice", "ISWC", C(104, 106), 0)
    }


def test_eval_t_unfolds_to_direct(running, q3):
    assert unfold(eval_t(running, q3), "t") == eval_direct(running, q3)


def test_eval_t_dense_requires_singleton_navigation(parallelogram):
    with pytest.raises(DenseInfeasibleError):
        eval_t(parallelogram, parse_query("e1/T[0,2]/e2"))


def test_eval_t_dense_singleton_navigation():
    g = graph("dense", C(0, 4), ("a", "e", "b", [iv.Interval(0, 2, True, False)]))
    out = eval_t(g, parse_query("e/T[3/2,3/2]"))
    d = Fraction(3, 2)
    assert set(out) == {TTuple("a", "b", iv.Interval(0, 2, True, False), d)}
    # navigation clipped by the domain boundary
    clipped = eval_t(g, parse_query("e/T[3,3]"))
    assert set(clipped) == {TTuple("a", "b", iv.Interval(0, 1, True, True), 3)}


def test_eval_t_dense_singleton_closure():
    # repeated unit hops over dense time: distances walk 1, 2, 3 until the
    # domain runs out, with the departure window shrinking each round
    g = graph("dense", C(0, 3), ("a", "e", "a", [C(0, 3)]))
    out = eval_t(g, parse_query("(e/T[1,1])[1,_]"))
    by_d = {}
    for u in out:
        if u.n1 == u.n2 == "a":
            by_d.setdefault(u.d, []).append(u.tau)
    assert set(by_d) == {1, 2, 3}
    assert by_d[1] == [C(0, 2)]
    assert by_d[2] == [C(0, 1)]
    assert by_d[3] == [C(0, 0)]


def _has_not(q):
    return isinstance(q, q_.Not) or any(_has_not(child) for child in q_.children(q))


def _grid_relations(answer, embed, grid):
    # (n1, n2) -> the (departure, arrival) grid points of the answer's tuples
    out = {}
    for u in answer:
        out.setdefault((u.n1, u.n2), set()).update(_grid_relation(embed(u), grid))
    return out


def test_dense_eval_t_matches_eval_c_on_the_half_step_grid():
    # random instances made dense, every navigation narrowed to the point [lo, lo]
    def narrow(leaf):
        return q_.TimeNav(iv.point(leaf.delta.lo)) if isinstance(leaf, q_.TimeNav) else leaf

    checked = 0
    for seed in range(150):
        g, q = random_instance(seed)
        if _has_not(q):
            continue
        g = TemporalGraph("dense", g.domain, g.facts)
        q = q_.map_leaves(q, narrow)
        grid = [g.domain.lo + Fraction(k, 2) for k in range(2 * (g.domain.hi - g.domain.lo) + 1)]
        got = _grid_relations(eval_t(g, q), lambda u: as_ctuple(as_td(u)), grid)
        assert got == _grid_relations(eval_c(g, q), lambda u: u, grid), (seed, q)
        checked += bool(got)
    assert checked > 40


# --- U^d ----------------------------------------------------------------------


def test_eval_d_q3_coalesced(running, q3):
    out = coalesce_d(eval_d(running, q3))
    assert set(out) == {
        DTuple("ICDT", "ISWC", 100, C(4, 5)),
        DTuple("ICDT", "ISWC", 101, C(3, 5)),
        DTuple("ICDT", "ISWC", 102, C(3, 4)),
    }


def test_eval_d_fused_navigation_dense(running_dense):
    out = eval_d(running_dense, parse_query("(=positive)/tests^-/T[-7,0]"))
    assert set(out) == {DTuple("positive", "Bob", 112, C(-7, 0))}


def test_eval_d_fused_navigation_clips_to_domain(running_dense):
    out = eval_d(running_dense, parse_query("(=positive)/tests^-/T[-20,0]"))
    assert set(out) == {DTuple("positive", "Bob", 112, C(-12, 0))}


def test_eval_d_pred_base_case():
    g = graph("discrete", C(0, 1), ("a", "e", "b", [C(0, 0)]))
    out = eval_d(g, parse_query("(=Alice)"))
    assert set(out) == {
        DTuple("Alice", "Alice", 0, C(0, 0)),
        DTuple("Alice", "Alice", 1, C(0, 0)),
    }


def test_eval_d_dense_infinite_rejected(running_dense):
    # every rational t in [102,107] would need its own tuple
    with pytest.raises(DenseInfeasibleError):
        eval_d(running_dense, parse_query("(=Bob)/attends"))


def test_eval_d_leading_navigation_dense_rejected(running_dense):
    with pytest.raises(DenseInfeasibleError):
        eval_d(running_dense, parse_query("T[3,5]/attends"))


def test_eval_d_unfolds_to_direct(running, q3):
    assert unfold(eval_d(running, q3), "d") == eval_direct(running, q3)


# --- join_td ------------------------------------------------------------------


def _compose_relations(r1, r2):
    return {(x, z) for (x, y) in r1 for (y2, z) in r2 if y == y2}


def _td_relation(tuples):
    out = set()
    for u in tuples:
        for t in iv.iter_points(u.tau):
            for d in iv.iter_points(u.delta):
                out.add((t, t + d))
    return out


def test_join_td_cropped_slices():
    u1 = TDTuple("a", "b", C(0, 2), C(0, 2))
    u2 = TDTuple("b", "c", C(1, 3), C(0, 0))
    out = join_td(u1, u2)
    by_t = {u.tau.lo: u.delta for u in out}
    assert by_t == {0: C(1, 2), 1: C(0, 2), 2: C(0, 1)}
    assert _td_relation(out) == _compose_relations(_td_relation([u1]), _td_relation([u2]))


def test_join_td_node_mismatch():
    assert join_td(TDTuple("a", "b", C(0, 1), C(0, 1)), TDTuple("x", "c", C(0, 1), C(0, 1))) == ()


def test_join_td_singleton_chain():
    out = join_td(TDTuple("a", "b", C(0, 0), C(5, 5)), TDTuple("b", "c", C(5, 5), C(1, 1)))
    assert set(out) == {TDTuple("a", "c", C(0, 0), C(6, 6))}


def test_join_td_dense_rejected():
    u = TDTuple("a", "b", iv.Interval(0, 1, True, False), C(0, 0))
    with pytest.raises(DenseInfeasibleError):
        join_td(u, TDTuple("b", "c", C(0, 1), C(0, 0)))


def test_join_td_random_against_composition():
    rng = random.Random(17)
    for _ in range(150):
        def rand_rect(n1, n2):
            a, c = rng.randint(-4, 4), rng.randint(-4, 4)
            return TDTuple(n1, n2, C(a, a + rng.randint(0, 4)), C(c, c + rng.randint(0, 4)))

        u1, u2 = rand_rect("a", "b"), rand_rect("b", "c")
        assert _td_relation(join_td(u1, u2)) == _compose_relations(
            _td_relation([u1]), _td_relation([u2])
        )


def _reference_join_td(u1, u2):
    # join_td as it stood with its empty-window and empty-slice checks, kept
    # verbatim to check the one without them
    if u1.n2 != u2.n1:
        return ()
    for interval in (u1.tau, u1.delta, u2.tau, u2.delta):
        if not iv.is_discrete_canonical(interval):
            raise DenseInfeasibleError(
                "dense time: the U^td join expands per time point and is not finite"
            )
    arrivals = iv.intersect(iv.msum(u1.tau, u1.delta), u2.tau)
    if arrivals is None:
        return ()
    window = iv.intersect(iv.mdiff(arrivals, u1.delta), u1.tau)
    if window is None:
        return ()
    b = arrivals.lo - u1.delta.lo
    e = arrivals.hi - u1.delta.hi
    out = []
    for t in iv.iter_points(window):
        lo = u1.delta.lo + max(0, b - t)
        hi = u1.delta.hi - max(0, t - e)
        if lo > hi:
            continue
        out.append(TDTuple(u1.n1, u2.n2, iv.point(t), iv.msum(iv.Interval(lo, hi), u2.delta)))
    return tuple(out)


def test_join_td_matches_the_checked_reference():
    rng = random.Random(20261018)

    def rects(n1, n2):
        shapes = [(a, a + w, c, c + v) for a in range(-6, 7) for w in range(5)
                  for c in range(-3, 4) for v in range(5)]
        return [TDTuple(n1, n2, C(a, b), C(c, d)) for a, b, c, d in shapes]

    lefts, rights, strays = rects("a", "b"), rects("b", "c"), rects("x", "c")
    chained = 0
    for _ in range(200_000):
        u1 = rng.choice(lefts)
        u2 = rng.choice(rights if rng.random() < 0.95 else strays)
        got = join_td(u1, u2)
        assert got == _reference_join_td(u1, u2), (u1, u2)
        chained += bool(got)
    assert 50_000 < chained < 150_000


# --- per-point composition ----------------------------------------------------
#
# join_td, _join_d, U^d navigation and _nav_join_d as they stood with a
# per-time-point loop each, kept verbatim (but for module prefixes) to check
# the ones that compose through _per_departure.  Over dense time the loops
# expand every point of the domain, or of a group's tau, so they raise where
# the departures that land are finitely many


def _sliced_join_td(u1, u2):
    if u1.n2 != u2.n1:
        return ()
    for interval in (u1.tau, u1.delta, u2.tau, u2.delta):
        if not iv.is_discrete_canonical(interval):
            raise DenseInfeasibleError(
                "dense time: the U^td join expands per time point and is not finite"
            )
    arrivals = iv.intersect(iv.msum(u1.tau, u1.delta), u2.tau)
    if arrivals is None:
        return ()
    # arrivals lie within tau1 + delta1, so the window and each slice are nonempty
    window = iv.intersect(iv.mdiff(arrivals, u1.delta), u1.tau)
    b = arrivals.lo - u1.delta.lo
    e = arrivals.hi - u1.delta.hi
    out = []
    for t in iv.iter_points(window):
        lo = u1.delta.lo + max(0, b - t)
        hi = u1.delta.hi - max(0, t - e)
        out.append(TDTuple(u1.n1, u2.n2, iv.point(t), iv.msum(iv.Interval(lo, hi), u2.delta)))
    return tuple(out)


def _looped_join_d(discrete, u1, u2):
    if u1.delta.is_singleton:
        return ev._join_fixed(u1, u2)
    out = []
    for t1 in ev._expand_times(u1.tau, discrete):
        arrivals = iv.intersect(u2.tau, iv.shift(u1.delta, t1))
        if arrivals is None:
            continue
        out.append(
            TDTuple(u1.n1, u2.n2, iv.point(t1), iv.msum(iv.shift(arrivals, -t1), u2.delta))
        )
    return tuple(out)


def _looped_nav_d(G, delta):
    shapes = []
    for t in ev._expand_times(G.domain, G.discrete):
        landing = iv.intersect(iv.shift(delta, t), G.domain)
        if landing is not None:
            shapes.append((iv.point(t), iv.shift(landing, -t)))
    return TDTuple, shapes


def _looped_nav_join_d(groups, delta, G):
    nodes = graph_nodes(G)
    out = set()
    for g in groups if G.discrete else sorted(groups, key=ev.tuple_sort_key):
        if g.n2 not in nodes:
            continue
        extended = iv.msum(g.delta, delta)
        if iv.covers(G.domain, iv.msum(g.tau, extended)):
            out.add(TDTuple(g.n1, g.n2, g.tau, extended))
            continue
        for t in ev._expand_times(g.tau, G.discrete):
            arrivals = iv.intersect(iv.shift(extended, t), G.domain)
            if arrivals is None:
                continue
            out.add(TDTuple(g.n1, g.n2, iv.point(t), iv.shift(arrivals, -t)))
    return out


def _dense_outcome(f, *args):
    try:
        return f(*args)
    except DenseInfeasibleError as exc:
        return str(exc)


def test_per_point_joins_match_their_looped_references():
    rng = random.Random(11)
    shapes = [C(a, a + w) for a in range(-6, 7) for w in range(5)]
    chained = 0
    for _ in range(20_000):
        u1 = TDTuple("a", "b", rng.choice(shapes), rng.choice(shapes))
        u2 = TDTuple("b" if rng.random() < 0.95 else "x", "c", rng.choice(shapes),
                     rng.choice(shapes))
        got = join_td(u1, u2)
        assert got == _sliced_join_td(u1, u2), (u1, u2)
        assert ev._join_d(True, u1, u2) == _looped_join_d(True, u1, u2), (u1, u2)
        chained += bool(got)
    assert 5_000 < chained < 15_000


def _cited(message):
    # the interval a dense-time expansion error cites, at the end of its text
    return iv.parse_interval(message.rsplit(" ", 1)[1])


def _quarter_steps(tau):
    # the points of tau on the quarter-step grid, between the half steps too
    first = math.ceil(tau.lo * 4)
    return [x for x in (Fraction(k, 4) for k in range(first, math.floor(tau.hi * 4) + 1))
            if iv.contains(tau, x)]


def _expanded(tuples):
    # one (n1, n2, t, delta) per time point of each rectangle, over discrete time
    return Counter((u.n1, u.n2, t, u.delta) for u in tuples for t in iv.iter_points(u.tau))


def _deltas_at(tuples, t):
    return [u.delta for u in tuples if iv.contains(u.tau, t)]


def _joined_nav_d(G, delta):
    # U^d navigation as eval_d builds it: (domain, delta) joined with the domain
    return ev._join_d(G.discrete, TDTuple("", "", G.domain, delta),
                      TDTuple("", "", G.domain, C(0, 0)))


@pytest.mark.parametrize("dense", [False, True], ids=["discrete", "dense"])
def test_nav_d_matches_its_looped_reference(dense, monkeypatch):
    # Where the loop raises, navigation raises citing a part of the loop's
    # interval, or answers as the loop does at each departure alone.
    rng = random.Random(f"nav-{dense}")
    outcomes = Counter()
    for _ in range(1_000):
        lo = rng.randint(-6, 0)
        G = graph("dense" if dense else "discrete", _random_span(rng, dense, lo, lo + 6))
        delta = _random_span(rng, dense, -8, 8)
        expected = _dense_outcome(_looped_nav_d, G, delta)
        got = _dense_outcome(_joined_nav_d, G, delta)
        if not isinstance(expected, str):
            constructor, shapes = expected
            expected = [constructor("", "", *shape) for shape in shapes]
            if dense:
                assert set(got) == set(expected), (G.domain, delta)
            else:
                assert _expanded(got) == _expanded(expected), (G.domain, delta)
            outcomes["same" if expected else "empty"] += 1
        elif isinstance(got, str):
            assert iv.covers(_cited(expected), _cited(got)), (G.domain, delta, got)
            outcomes["raises" if got == expected else "raises on less"] += 1
        else:
            for t in _quarter_steps(G.domain):
                with monkeypatch.context() as m:  # the loop at departure t alone
                    m.setattr(ev, "_expand_times", lambda tau, discrete: (t,))
                    shapes = _looped_nav_d(G, delta)[1]
                assert _deltas_at(got, t) == [d for _, d in shapes], (G.domain, delta, t)
            outcomes["answers"] += 1
    assert outcomes["same"] > (20 if dense else 200)
    if dense:
        assert outcomes["raises on less"] > 20 and outcomes["answers"] > 200
    else:
        assert set(outcomes) <= {"same", "empty"}


@pytest.mark.parametrize("dense", [False, True], ids=["discrete", "dense"])
def test_nav_join_d_matches_its_looped_reference(dense):
    # Group by group, as for U^d navigation; a set of groups gives their
    # union, or the first error in canonical order.
    rng = random.Random(f"nav-join-{dense}")
    outcomes = Counter()
    for _ in range(1_000):
        domain = _random_span(rng, dense, -4, 4)
        G = graph("dense" if dense else "discrete", domain, ("a", "e", "b", [domain]))
        groups = set()
        for _group in range(rng.randint(1, 6)):
            tau = _random_span(rng, dense, -4, 4)
            if dense and rng.random() < 0.5:
                tau = iv.point(tau.lo)
            groups.add(TDTuple(rng.choice("ab"), rng.choice("abc"), tau,
                               _random_span(rng, dense, -3, 3)))
        delta = _random_span(rng, dense, -4, 4)
        each = []
        for g in sorted(groups, key=ev.tuple_sort_key):
            expected = _dense_outcome(_looped_nav_join_d, {g}, delta, G)
            got = _dense_outcome(ev._nav_join_d, {g}, delta, G)
            each.append(got)
            if not isinstance(expected, str):
                if dense:
                    assert got == expected, (g, delta)
                else:
                    assert _expanded(got) == _expanded(expected), (g, delta)
                outcomes["same" if expected else "empty"] += 1
            elif isinstance(got, str):
                assert iv.covers(_cited(expected), _cited(got)), (g, delta, got)
                outcomes["raises" if got == expected else "raises on less"] += 1
            else:
                for t in _quarter_steps(g.tau):
                    at_t = _looped_nav_join_d({g._replace(tau=iv.point(t))}, delta, G)
                    assert _deltas_at(got, t) == _deltas_at(at_t, t), (g, delta, t)
                outcomes["answers"] += 1
        errors = [got for got in each if isinstance(got, str)]
        whole = errors[0] if errors else set().union(*each)
        assert _dense_outcome(ev._nav_join_d, groups, delta, G) == whole, (groups, delta)
    assert outcomes["same"] > (100 if dense else 500)
    if dense:
        assert outcomes["raises on less"] > 50 and outcomes["answers"] > 200
    else:
        assert set(outcomes) <= {"same", "empty"}


# --- U^td ---------------------------------------------------------------------


def test_eval_td_q3(running, q3, q3_points):
    out = eval_td(running, q3)
    assert unfold(out, "td") == eval_direct(running, q3)
    assert len(minimize_exact(out, "overlapping")) == 2
    assert len(minimize_exact(out, "disjoint")) == 3


def test_eval_td_label_base_case():
    g = graph("discrete", C(0, 9), ("a", "e", "b", [C(0, 2), C(5, 6)]))
    assert set(eval_td(g, parse_query("e"))) == {
        TDTuple("a", "b", C(0, 2), C(0, 0)),
        TDTuple("a", "b", C(5, 6), C(0, 0)),
    }


def test_eval_td_discrete_parallelogram():
    g = graph(
        "discrete", C(0, 3),
        ("n1", "e1", "n2", [C(0, 2)]),
        ("n2", "e2", "n3", [C(1, 3)]),
    )
    q = parse_query("e1/T[0,2]/e2")
    out = eval_td(g, q)
    assert unfold(out, "td") == eval_direct(g, q)


def test_eval_td_dense_rejected(parallelogram):
    # where U^d's rules must expand a departure window, with U^d's error
    q = parse_query("e1/T[0,2]/e2")
    failed = _outcome(lambda: eval_td(parallelogram, q))
    assert failed == _outcome(lambda: eval_d(parallelogram, q))
    assert failed.startswith("DenseInfeasibleError") and failed.endswith("time point of [0,2]")


@pytest.mark.parametrize("lo, width", [(0, 0), (0, 3), (-2, 6), (5, 1)])
def test_eval_td_navigation_is_the_join_of_navigation_with_the_domain(lo, width):
    # T[a,b] is U^d's join of (domain, [a,b]) with the domain: the points the
    # per-point loop gave, and for T[c,c] one rectangle (D n (D - c), [c,c])
    # per node, not one tuple per departure
    G = graph("discrete", C(lo, lo + width), ("n", "e", "m", [C(lo, lo)]))
    for a in range(-width - 2, width + 3):
        for b in range(a, width + 3):
            constructor, shapes = _looped_nav_d(G, C(a, b))
            want = {constructor(n, n, *shape) for shape in shapes for n in "mn"}
            got = eval_td(G, q_.TimeNav(C(a, b)))
            assert unfold(got, "td") == unfold(want, "td"), (a, b)
            if a == b:
                departures = iv.intersect(G.domain, iv.shift(G.domain, -a))
                rectangles = {TDTuple(n, n, departures, C(a, a)) for n in "mn" if departures}
                assert set(got) == rectangles, a


def test_eval_td_expands_to_eval_d():
    # one rule set: each rectangle of eval_td, read out per time point, is eval_d
    for seed in range(3000):
        G, q = random_instance(seed)
        expanded = {
            DTuple(u.n1, u.n2, t, u.delta) for u in eval_td(G, q) for t in iv.iter_points(u.tau)
        }
        assert expanded == set(eval_d(G, q)), seed


def _eval_td_by_join_td(G, q, *, max_iterations=q_.MAX_ITERATIONS):
    # eval_td as it stood with join_td as its rule, kept verbatim (but for
    # module prefixes) to check the one that shares U^d's rules
    if not G.discrete:
        raise DenseInfeasibleError("dense time: U^td may require infinitely many rectangles")
    q = q_.adapt_query(q, True)
    # join_td is named per call, so rebinding it (as a tracer does) reaches
    # every join, navigation's too
    rules = ev._Rules(join_td)
    return ev.AnswerSet("td", G.mode, ev._evaluate(G, q, rules, max_iterations))


def test_eval_td_unfolds_as_its_join_td_reference():
    instances = [random_instance(seed) for seed in range(3000)]
    for name in ("closure.tg", "running.tg"):  # the discrete bundled graphs
        for query in ("e/(T[2,2])[1,_]", "e1/T[0,2]/e2"):
            instances.append((bundled_graph(name), parse_query(query)))
        for query in ("q1.trpq", "q3.trpq"):
            instances.append((bundled_graph(name), bundled_query(query)))
    for k, (G, q) in enumerate(instances):
        assert unfold(eval_td(G, q), "td") == unfold(_eval_td_by_join_td(G, q), "td"), k


# --- join_c -------------------------------------------------------------------


def test_join_c_navigation_seeds():
    seed1 = CTuple("n", "n", C(100, 107), C(3, 5), 100, 107)
    seed2 = CTuple("n", "n", C(100, 107), C(0, 0), 100, 107)
    out = join_c(seed1, seed2)
    assert out == CTuple("n", "n", C(100, 104), C(3, 5), 100, 102)
    # its unfolding is the direct answer of navigation over that domain
    g = graph("discrete", C(100, 107), ("n", "e", "n", [C(100, 100)]))
    assert unfold({out}, "c") == eval_direct(g, parse_query("T[3,5]"))


def test_join_c_node_mismatch():
    u1 = CTuple("a", "b", C(0, 1), C(0, 0), 0, 1)
    u2 = CTuple("x", "c", C(0, 1), C(0, 0), 0, 1)
    assert join_c(u1, u2) is None


def test_join_c_singleton_chain():
    from trpq import PointTuple

    u1 = CTuple("a", "b", C(5, 5), C(1, 1), 5, 5)
    u2 = CTuple("b", "c", C(6, 6), C(2, 2), 6, 6)
    out = join_c(u1, u2)
    assert out == CTuple("a", "c", C(5, 5), C(3, 3), 5, 5)
    assert unfold({out}, "c") == {PointTuple("a", "c", 5, 3)}


def test_join_c_rejects_invalid_inputs():
    bad = CTuple("a", "b", C(0, 10), C(0, 1), 10, 0)
    good = CTuple("b", "c", C(0, 10), C(0, 1), 0, 10)
    with pytest.raises(InvalidTupleError):
        join_c(bad, good)


def test_join_c_cropped_left_operand():
    # left operand cropped on the lower side: a window computed with one
    # effective distance interval for the whole tuple would wrongly prune
    # departures; (landing ominus delta1) n tau1 keeps them all
    u1 = CTuple("a", "b", C(0, 4), C(0, 4), 4, 4)
    u2 = CTuple("b", "c", C(4, 4), C(0, 0), 4, 4)
    out = join_c(u1, u2)
    assert out is not None and out.tau == C(0, 4)
    want = _compose_relations(_c_relation(u1), _c_relation(u2))
    assert _c_relation(out) == want


def test_join_c_diagonal_left_operand():
    u1 = CTuple("a", "b", C(0, 10), C(0, 10), 10, 0)
    assert ctuple_valid(u1)
    u2 = CTuple("b", "c", C(10, 10), C(0, 0), 10, 10)
    out = join_c(u1, u2)
    assert out is not None
    assert _c_relation(out) == _compose_relations(_c_relation(u1), _c_relation(u2))


def _c_relation(u):
    out = set()
    for t in iv.iter_points(u.tau):
        sl = delta_at(u, t)
        if sl is None:
            continue
        for d in iv.iter_points(sl):
            out.add((t, t + d))
    return out


def _grid_relation(u, grid):
    out = set()
    for x in grid:
        if not iv.contains(u.tau, x):
            continue
        sl = delta_at(u, x)
        if sl is None:
            continue
        for y in grid:
            if iv.contains(sl, y - x):
                out.add((x, y))
    return out


def _random_dense_ctuple(rng, k, n1, n2):
    def num(lo, hi):
        return Fraction(rng.randint(lo * k, hi * k), k)

    while True:
        a = num(-3, 3)
        tau = iv.Interval(a, a + num(0, 3))
        c = num(-3, 3)
        delta = iv.Interval(c, c + num(0, 3))
        u = CTuple(n1, n2, tau, delta, num(-4, 6), num(-4, 6))
        if ctuple_valid(u):
            return u


def test_join_c_grid_composition_sample():
    rng = random.Random(23)
    for _ in range(60):
        k = rng.randint(1, 6)
        u1 = _random_dense_ctuple(rng, k, "a", "b")
        u2 = _random_dense_ctuple(rng, k, "b", "c")
        lo = min(u1.tau.lo, u2.tau.lo, u1.tau.lo + u1.delta.lo, u2.tau.lo + u2.delta.lo) - 1
        hi = max(u1.tau.hi, u2.tau.hi, u1.tau.hi + u1.delta.hi, u2.tau.hi + u2.delta.hi) + 1
        step = Fraction(1, 2 * k)
        grid = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        composed = _compose_relations(_grid_relation(u1, grid), _grid_relation(u2, grid))
        joined = join_c(u1, u2)
        got = _grid_relation(joined, grid) if joined is not None else set()
        assert got == composed


def _reference_join_c(u1, u2):
    # join_c as it stood with the effective-distance detour and the two
    # reachability guards on the crop points, kept verbatim to check the one
    # that reads its arrivals off the crop lines
    for u in (u1, u2):
        if not ctuple_valid(u):
            raise InvalidTupleError(f"not a valid cropped tuple: {render_tuple(u)}")
    if u1.n2 != u2.n1:
        return None
    tau1, d1 = u1.tau, u1.delta
    # effective distance boundaries over the whole tuple (formal pair: the
    # lower one is taken at the earliest departure, the upper at the latest)
    eff_lo = d1.lo + max(0, u1.b - tau1.lo)
    eff_hi = d1.hi - max(0, tau1.hi - u1.e)
    # arrival range; its infimum is attained anywhere on the flat part of the
    # arrival-lower-bound function, hence the b/e disjuncts in the delimiters
    arrivals = iv.Interval(
        tau1.lo + eff_lo,
        tau1.hi + eff_hi,
        d1.left_closed and (tau1.left_closed or u1.b > tau1.lo),
        d1.right_closed and (tau1.right_closed or u1.e < tau1.hi),
    )
    landing = iv.intersect(arrivals, u2.tau)
    if landing is None:
        return None
    # reachability of the landing window past the crop points
    lo_reach = u1.b + d1.lo
    if lo_reach > landing.hi or (
        lo_reach == landing.hi and not (d1.left_closed and landing.right_closed)
    ):
        return None
    hi_reach = u1.e + d1.hi
    if hi_reach < landing.lo or (
        hi_reach == landing.lo and not (d1.right_closed and landing.left_closed)
    ):
        return None
    tau = iv.intersect(iv.mdiff(landing, d1), tau1)
    if tau is None:
        return None
    delta = iv.msum(d1, u2.delta)
    b = max(u1.b, u2.b - d1.lo)
    e = min(u1.e, u2.e - d1.hi)
    # With uniform delimiters the whole window is admissible (join theorem);
    # mixing open and closed operands can leave a window endpoint whose slice
    # is empty because its only point sits on a crop line with a delimiter the
    # tuple cannot carry.  Clip to the admissible times: only crop-line points
    # are affected, which is the representation's documented boundary gap.
    ok = admissible_window(delta, b, e)
    if ok is None:
        return None
    tau = iv.intersect(tau, ok)
    if tau is None:
        return None
    result = CTuple(u1.n1, u2.n2, tau, delta, b, e)
    if not ctuple_valid(result):
        raise InvalidTupleError(f"join produced an invalid tuple: {render_tuple(result)}")
    return result


def _random_crop(rng, tau):
    # on tau's ends, inside it, or past either end (a slide, possibly one
    # that cannot be represented)
    midpoint = iv.scale(tau.lo + tau.hi, Fraction(1, 2))  # exact: an int when integral
    return rng.choice([tau.lo, tau.hi, midpoint, rng.choice(HALF_STEPS) * 2])


def _random_ctuple(rng, n1, n2):
    tau = random_mixed_interval(rng, HALF_STEPS)
    delta = random_mixed_interval(rng, HALF_STEPS[6:19])  # within [-3, 3]
    return CTuple(n1, n2, tau, delta, _random_crop(rng, tau), _random_crop(rng, tau))


def _ctuple_pools(rng, n1, n2, size):
    # valid and invalid tuples; a valid one never keeps a crop point past tau
    pools = {True: [], False: []}
    while min(len(pool) for pool in pools.values()) < size:
        u = _random_ctuple(rng, n1, n2)
        pools[ctuple_valid(u)].append(u)
    return pools


def _join_outcome(join, u1, u2):
    try:
        return join(u1, u2)
    except InvalidTupleError as exc:
        return str(exc)


def test_join_c_matches_the_guarded_reference():
    rng = random.Random(20261018)
    lefts, rights, strays = (
        _ctuple_pools(rng, n1, n2, 2_000) for n1, n2 in [("a", "b"), ("b", "c"), ("x", "c")]
    )
    assert not any(u.b > u.tau.hi or u.e < u.tau.lo for u in lefts[True] + rights[True])
    outcomes = Counter()
    for _ in range(200_000):
        u1 = rng.choice(lefts[True])
        u2 = rng.choice(rights[True] if rng.random() < 0.95 else strays[True])
        got = join_c(u1, u2)
        assert got == _reference_join_c(u1, u2), (u1, u2)
        outcomes[got is None] += 1
    assert min(outcomes.values()) > 50_000
    # invalid operands, among them crop points slid past tau that cannot be
    # represented, raise the same error
    unrepresentable = 0
    for _ in range(5_000):
        u1, u2 = rng.choice(lefts[False]), rng.choice(rights[rng.random() < 0.5])
        if rng.random() < 0.5:
            u1, u2 = rng.choice(lefts[True]), rng.choice(rights[False])
        assert _join_outcome(join_c, u1, u2) == _join_outcome(_reference_join_c, u1, u2)
        unrepresentable += any(u.b > u.tau.hi or u.e < u.tau.lo for u in (u1, u2))
    assert unrepresentable > 1_000


# --- U^c ----------------------------------------------------------------------


def test_eval_c_q3_single_tuple(running, q3):
    out = eval_c(running, q3)
    assert set(out) == {CTuple("ICDT", "ISWC", C(100, 102), C(3, 5), 101, 101)}
    assert unfold(out, "c") == eval_direct(running, q3)
    assert len(minimize_exact(out, "overlapping")) == 1


def test_eval_c_parallelogram_dense(parallelogram):
    out = eval_c(parallelogram, parse_query("e1/T[0,2]/e2"))
    assert len(out) == 1
    (c,) = out
    rng = random.Random(9)
    samples = {Fraction(0), Fraction(2)} | {
        Fraction(rng.randint(0, 48), 24) for _ in range(50)
    }
    for t in samples:
        sl = delta_at(c, t)
        assert sl == iv.closed(max(1 - t, 0), min(3 - t, 2))


def test_eval_c_label_base_case():
    g = graph("dense", C(100, 112), ("Alice", "attends", "ISWC", [C(104, 106)]))
    assert set(eval_c(g, parse_query("attends"))) == {
        CTuple("Alice", "ISWC", C(104, 106), C(0, 0), 104, 106)
    }


def test_eval_c_unfolds_to_direct(running, q3):
    assert unfold(eval_c(running, q3), "c") == eval_direct(running, q3)


def test_eval_c_join_size_bound():
    for seed in range(40):
        G, _ = random_instance(seed)
        q1 = parse_query("e + T[0,2]")
        q2 = parse_query("e^- + T[1,1]")
        joined = eval_c(G, parse_query("(e + T[0,2])/(e^- + T[1,1])"))
        assert len(joined) <= len(eval_c(G, q1)) * len(eval_c(G, q2))


def test_eval_c_scale_invariance_star_free(running, q3):
    base = len(eval_c(running, q3))
    for s in (2, 3, 5):
        scaled_g = scale_graph(running, s, include_domain=True)
        scaled_q = scale_query(q3, s)
        assert len(eval_c(scaled_g, scaled_q)) == base


def test_eval_c_scale_invariance_random_star_free():
    import randgen
    from trpq.query import Repeat as RepeatNode

    def star_free(node):
        if isinstance(node, RepeatNode):
            return False
        return all(star_free(c) for c in q_.children(node))

    checked = 0
    seed = 0
    while checked < 25:
        G, q = random_instance(seed)
        seed += 1
        if not star_free(q):
            continue
        checked += 1
        base = len(eval_c(G, q))
        for s in (2, 3):
            scaled = len(eval_c(scale_graph(G, s, include_domain=True), scale_query(q, s)))
            assert scaled == base, (seed - 1, s)


def test_eval_c_deterministic(running, q3):
    a = eval_c(running, q3).render()
    b = eval_c(running, q3).render()
    assert a == b


def test_fixpoint_cap_exceeded(closure_graph):
    q = parse_query("e/(T[2,2])[1,_]")
    with pytest.raises(FixpointLimitError):
        eval_t(closure_graph, q, max_iterations=2)


def _dense_chain_check(v1, delta, v2, domain, query_text):
    # answers of edge / navigate / edge are characterised pointwise:
    # t in v1, d in delta, t + d in v2 (and inside the domain); compare the
    # cropped tuples against that characterisation on a fine rational grid,
    # including all boundary values, where delimiters matter most
    g = graph("dense", domain, ("n1", "e1", "n2", [v1]), ("n2", "e2", "n3", [v2]))
    out = eval_c(g, parse_query(query_text))
    tuples = [u for u in out if (u.n1, u.n2) == ("n1", "n3")]
    sound = True
    mismatches = []
    grid = [Fraction(i, 4) for i in range(-8, 20)]
    for t in grid:
        for d in grid:
            want = (
                iv.contains(v1, t)
                and iv.contains(delta, d)
                and iv.contains(v2, t + d)
                and iv.contains(domain, t)
                and iv.contains(domain, t + d)
            )
            got = any(
                iv.contains(u.tau, t)
                and (sl := delta_at(u, t)) is not None
                and iv.contains(sl, d)
                for u in tuples
            )
            if got != want:
                mismatches.append((t, d))
            if got and not want:
                sound = False
    bounds = {x.lo for x in (v1, delta, v2, domain)} | {
        x.hi for x in (v1, delta, v2, domain)
    } | {0}
    diagonals = {x + y for x in bounds for y in bounds}
    return mismatches, diagonals, sound


def test_eval_c_dense_closed_chain_exact():
    mismatches, _, _ = _dense_chain_check(
        C(0, 2), C(0, 2), C(1, 3), C(-1, 4), "e1/T[0,2]/e2"
    )
    assert mismatches == []


def test_eval_c_dense_mixed_delimiters_deviate_only_on_boundary_diagonals():
    # a single cropped tuple carries one delimiter pair for all of its
    # slices, so when open and closed intervals mix, the composed relation
    # can differ from the tuple set; the difference is confined to slope -1
    # lines whose intercepts are sums of input boundary values
    mismatches, diagonals, _ = _dense_chain_check(
        iv.Interval(0, 2, False, True),
        iv.Interval(0, 2, False, False),
        iv.Interval(1, 3, True, False),
        C(-1, 4),
        "e1/T(0,2)/e2",
    )
    assert all(t + d in diagonals for t, d in mismatches)


def test_eval_c_dense_diagonal_answer_with_open_navigation():
    # the whole answer is the diagonal t + d = 1; with the navigation
    # interval open on the right the tuple algebra cannot attach the closed
    # delimiter the crops would need, and the answer is dropped rather than
    # over-claimed (sound under-approximation, on a boundary diagonal only)
    mismatches, diagonals, sound = _dense_chain_check(
        C(Fraction(-3, 2), 0),
        iv.Interval(1, 4, True, False),
        C(1, 1),
        C(-4, 7),
        "e1/T[1,4)/e2",
    )
    assert sound
    assert all(t + d in diagonals for t, d in mismatches)
    # the closed-delimiter formulation of the same chain is exact
    exact, _, _ = _dense_chain_check(
        C(Fraction(-3, 2), 0), C(1, 4), C(1, 1), C(-4, 7), "e1/T[1,4]/e2"
    )
    assert exact == []


# --- U^c on a common integer grid ---------------------------------------------

_STEPS = {"half": (2,), "third": (3,), "mixed": (2, 3)}


def _on_steps(rng, x, steps):
    # x moved up by a random multiple, below 1, of 1/k for one k of the steps
    k = rng.choice(steps)
    j = rng.randrange(k)
    return x + Fraction(j, k) if j else x


def _stepped(rng, interval, steps):
    lo, hi = _on_steps(rng, interval.lo, steps), _on_steps(rng, interval.hi, steps)
    if lo >= hi or rng.random() < 0.15:  # singletons are closed on both sides
        return iv.point(lo)
    return iv.Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def _random_stepped_instance(seed, steps):
    """A random instance made dense: endpoints off the integers, random delimiters.

    Each endpoint x of the graph and of the query's navigation intervals and
    time bounds moves up to x + j/k, 0 <= j < k, for a k drawn from
    ``steps``.  The domain grows to hold every moved fact: its upper end is
    one past the old one.  Some queries gain a leading (<=k).
    """
    G, q = random_instance(seed)
    rng = random.Random(seed)
    shift = _on_steps(rng, 0, steps)
    domain = iv.Interval(
        G.domain.lo - shift, G.domain.hi + 1, shift == 0 or rng.random() < 0.5, rng.random() < 0.5
    )
    facts = {
        triple: iv.coalesce([_stepped(rng, x, steps) for x in validity], discrete=False)
        for triple, validity in G.facts.items()
    }

    def step_leaf(leaf):
        if isinstance(leaf, q_.TimeNav):
            return q_.TimeNav(_stepped(rng, leaf.delta, steps))
        if isinstance(leaf, q_.LeqTime):
            return q_.LeqTime(_on_steps(rng, leaf.bound, steps))
        return leaf

    q = q_.map_leaves(q, step_leaf)
    if rng.random() < 0.3:
        q = q_.Join(q_.LeqTime(_on_steps(rng, rng.randint(G.domain.lo, G.domain.hi), steps)), q)
    return TemporalGraph("dense", domain, facts), q


def _outcome(evaluate):
    try:
        return evaluate()
    except (FixpointLimitError, DenseInfeasibleError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _integral_as_int(u):
    # the plain evaluation can leave Fraction(n, 1) where a sum of fractions is whole
    def value(x):
        if isinstance(x, iv.Interval):
            return iv.Interval(value(x.lo), value(x.hi), x.left_closed, x.right_closed)
        return int(x) if iv.is_integral(x) else x

    return u._make((u.n1, u.n2, *map(value, u[2:])))


def _plain_c(G, q, cap):
    return ev.AnswerSet("c", G.mode, ev._evaluate(G, q, ev._C_RULES, cap))


def _plain_t(G, q, cap):
    # eval_t off the grid: the dense check, the recursion and the readout
    ev._check_dense_t_feasible(q)
    rects = ev._evaluate(G, q, ev._T_RULES, cap)
    return ev.AnswerSet("t", G.mode, (TTuple(u.n1, u.n2, u.tau, u.delta.lo) for u in rects))


def _plain_d(G, q, cap):
    # eval_d off the grid: each group in canonical order, expanded per time point
    groups = sorted(ev._evaluate(G, q, ev._D_RULES[False], cap), key=tuple_sort_key)
    return ev.AnswerSet("d", G.mode, (
        DTuple(g.n1, g.n2, t, g.delta) for g in groups for t in ev._expand_times(g.tau, False)
    ))


def _plain_td(G, q, cap):
    return ev.AnswerSet("td", G.mode, ev._evaluate(G, q, ev._D_RULES[False], cap))


_ON_AND_OFF_GRID = {
    "c": (eval_c, _plain_c),
    "t": (eval_t, _plain_t),
    "d": (eval_d, _plain_d),
    "td": (eval_td, _plain_td),
}


def _assert_grid_matches_plain(G, q, cap, kind="c"):
    evaluate, plain = _ON_AND_OFF_GRID[kind]
    got = _outcome(lambda: evaluate(G, q, max_iterations=cap))
    want = _outcome(lambda: plain(G, q, cap))
    assert got == want  # an error by its full text
    if not isinstance(want, str):
        assert got.render() == want.render()
        assert [repr(u) for u in got] == [repr(_integral_as_int(u)) for u in want]


@pytest.mark.parametrize("steps", _STEPS.values(), ids=_STEPS)
def test_eval_c_on_the_integer_grid_matches_the_plain_evaluation(steps):
    # joins, unions, closures, negation, (<=k) and navigation, with open and
    # closed delimiters; the round cap trips at the same round on both paths
    grids, capped = Counter(), 0
    for seed in range(300):
        G, q = _random_stepped_instance(seed, steps)
        for cap in (1, 2, 25):
            _assert_grid_matches_plain(G, q, cap)
        capped += isinstance(_outcome(lambda: eval_c(G, q, max_iterations=1)), str)
        grids.update(G._grids.keys())
    lcm = math.lcm(*steps)
    assert all(lcm % grid == 0 for grid in grids)
    assert grids[lcm] > 150 and capped > 5


@pytest.mark.parametrize("steps", _STEPS.values(), ids=_STEPS)
def test_eval_t_and_eval_d_on_the_integer_grid_match_the_plain_evaluation(steps):
    # the same instances as eval_c's, and the dense U^d errors, which the grid
    # run raises citing its window divided by the grid: the text of the failing
    # pair off the grid; eval_td runs U^d's rules too
    grids, grid_errors = Counter(), 0
    for kind in ("t", "d", "td"):
        for seed in range(300):
            G, q = _random_stepped_instance(seed, steps)
            for cap in (2, 25):
                _assert_grid_matches_plain(G, q, cap, kind)
            grids[kind] += bool(G._grids)
            if kind == "d" and G._grids:
                grid_errors += isinstance(_outcome(lambda: eval_d(G, q)), str)
    assert grids["t"] > 150 and grids["d"] > 250 and grids["td"] > 250 and grid_errors > 100


# the renders, or error texts, of eval_c, eval_d and eval_td on the dense instances above,
# as digests per steps and 100 seeds; after a deliberate output change, rewrite it with
#     PYTHONPATH=src python tests/test_evaluate.py
DENSE_GOLDEN = Path(__file__).with_name("golden_dense.json")


def _dense_digests():
    digests = {}
    for name, steps in _STEPS.items():
        for kind, evaluate in (("c", eval_c), ("d", eval_d), ("td", eval_td)):
            for first in range(0, 1000, 100):
                h = hashlib.sha256()
                for seed in range(first, first + 100):
                    G, q = _random_stepped_instance(seed, steps)
                    h.update(_rendered(evaluate, G, q, max_iterations=25).encode() + b"\0")
                digests[f"{name}-{kind}-{first}"] = h.hexdigest()
    return digests


def test_dense_eval_c_and_eval_d_match_the_recorded_renders():
    # every answer and every dense U^d error on 3,000 instances, byte for byte,
    # in U^c, U^d and U^td
    recorded = json.loads(DENSE_GOLDEN.read_text(encoding="utf-8"))
    assert _dense_digests() == recorded


@pytest.mark.parametrize("source", ["randgen", "chains", "edges"])
def test_dense_eval_d_on_the_half_step_grid_matches_the_plain_evaluation(source):
    grids = 0
    for seed in range(300):
        G, q = _random_dense_d_instance(seed, source)
        _assert_grid_matches_plain(G, q, 25, "d")
        grids += set(G._grids) == {2}
    # randgen's endpoints are integers, so it runs off the grid; the others on half steps
    assert grids == 0 if source == "randgen" else grids > 250


def test_a_dense_u_d_error_on_the_grid_cites_the_unscaled_interval(monkeypatch):
    # on the grid of step 1/2 the departure window is [0,1]; the error cites [0,1/2],
    # and the query is evaluated once, on the grid copy only
    text = "mode dense\ndomain [0,60]\na e b [0,1/2]\nb f c [2,2]\n"
    seen, evaluate = [], ev._evaluate
    monkeypatch.setattr(ev, "_evaluate", lambda G, *rest: seen.append(G) or evaluate(G, *rest))
    for evaluator in (eval_d, eval_td):
        G = load_graph(text)
        seen.clear()
        with pytest.raises(DenseInfeasibleError) as err:
            evaluator(G, parse_query("e/T[3/2,2]/f"))
        assert str(err.value) == (
            "dense time: U^d would need one tuple per rational time point of [0,1/2]"
        )
        assert set(G._grids) == {2}
        assert seen and all(g is G._grids[2] for g in seen)
        # nothing in the traceback, not even a chained error, cites the grid's [0,1]
        shown = "".join(traceback.format_exception(err.value))
        assert "[0,1/2]" in shown and "[0,1]" not in shown
    monkeypatch.undo()
    for evaluate, want in ((eval_t, "t a c [1/2,1/2] 3/2"), (eval_d, "d a c 1/2 [3/2,3/2]")):
        G = load_graph(text)
        assert evaluate(G, parse_query("e/T[3/2,3/2]/f")).render() == want
        assert set(G._grids) == {2}


@pytest.mark.parametrize("text", [
    "attends/T[1/2,1]/attends^-", "attends/(<=207/2)", "attends[1,_]/T(1/3,1/2]"
])
def test_eval_c_on_an_integer_graph_with_a_fractional_query_constant(text):
    G, q = bundled_graph("running_dense.tg"), parse_query(text)
    _assert_grid_matches_plain(G, q, 50)
    assert set(G._grids) == {6 if "1/3" in text else 2}
    assert len(eval_c(G, q)) > 0


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in ("t", "d", "td", "c") for name in ("running.tg", "running_dense.tg")
])
def test_no_evaluator_builds_a_grid_for_integer_endpoints(kind, name):
    # the join, closure and folded workloads are discrete, so they never pay for a grid
    G = bundled_graph(name)
    texts = (
        "attends/T[0,3]/attends^-", "attends/T[2,2]/attends^-",
        "(attends + attends^-)[1,_]/(<=105)", "!((<=104))/attends",
    )
    for text in texts:
        _outcome(lambda: ev.EVALUATORS[kind](G, parse_query(text)))
    assert G._grids == {}


def test_the_graph_keeps_only_its_latest_grid():
    # a long-lived graph asked queries on ever new grids keeps one scaled copy
    G = bundled_graph("running_dense.tg")
    for k in range(2, 42):
        q = parse_query(f"attends/T[1/{k},1/{k}]/attends^-")
        for evaluate in (eval_c, eval_t):
            got = evaluate(G, q)
            assert len(G._grids) == 1
            assert got == evaluate(load_graph(serialize_graph(G)), q), (k, evaluate)
        assert len(got) > 0


# --- time constants: one walker, one rewriter ------------------------------------
#
# The passes over a query's navigation intervals and time bounds as they were
# before one walker (query.time_leaves) and one rewriter (query.map_times)
# served them all, kept verbatim as references.


def _reference_scale_number(x, factor):
    """x * factor, an ``int`` when integral."""
    y = x * factor
    return y if isinstance(y, int) or y.denominator != 1 else y.numerator


def _reference_scale(interval, factor):
    return iv.Interval(
        _reference_scale_number(interval.lo, factor), _reference_scale_number(interval.hi, factor),
        interval.left_closed, interval.right_closed,
    )


def _reference_adapt_query(q, discrete):
    if not discrete:
        return q
    return q_.map_leaves(q, _reference_adapt_leaf)


def _reference_adapt_leaf(q):
    if isinstance(q, q_.TimeNav):
        return q_.TimeNav(iv.normalize_discrete(q.delta))
    if isinstance(q, q_.LeqTime):
        bound = q.bound if iv.is_integral(q.bound) else math.floor(q.bound)
        return q_.LeqTime(int(bound))
    return q


def _reference_scale_query(q, factor):
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")

    def scale_leaf(leaf):
        if isinstance(leaf, q_.TimeNav):
            return q_.TimeNav(_reference_scale(leaf.delta, factor))
        if isinstance(leaf, q_.LeqTime):
            return q_.LeqTime(_reference_scale_number(leaf.bound, factor))
        return leaf

    return q_.map_leaves(q, scale_leaf)


def _reference_denominator(q):
    found, stack = {1}, [q]
    while stack:
        node = stack.pop()
        if isinstance(node, q_.TimeNav):
            found.update((node.delta.lo.denominator, node.delta.hi.denominator))
        elif isinstance(node, q_.LeqTime):
            found.add(node.bound.denominator)
        else:
            stack.extend(q_.children(node))
    return math.lcm(*found)


def _reference_check_dense_t_feasible(q):
    if isinstance(q, q_.TimeNav) and not q.delta.is_singleton:
        raise DenseInfeasibleError(
            "dense time: U^t requires every temporal navigation interval "
            f"to be a singleton, got T{q.delta}"
        )
    for child in q_.children(q):
        _reference_check_dense_t_feasible(child)


def _reference_leq_window(domain, k):
    if k >= domain.hi:
        return domain
    if k < domain.lo or (k == domain.lo and not domain.left_closed):
        return None
    return iv.Interval(domain.lo, k, domain.left_closed, True)


def _repr_outcome(f, *args):
    # the repr of the result, so that int and Fraction(n, 1) differ, or the error
    try:
        return repr(f(*args))
    except (DenseInfeasibleError, EmptyIntervalError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("steps", [None, *_STEPS.values()], ids=["integers", *_STEPS])
def test_time_constant_passes_match_their_references(steps):
    seen = Counter()
    for seed in range(300):
        if steps is None:
            q = random_instance(seed)[1]
        else:
            q = _random_stepped_instance(seed, steps)[1]
        for discrete in (True, False):
            adapted = _repr_outcome(q_.adapt_query, q, discrete)
            assert adapted == _repr_outcome(_reference_adapt_query, q, discrete), (seed, q)
            seen[adapted.startswith("EmptyIntervalError")] += 1
        for factor in range(1, 7):
            scaled = _repr_outcome(scale_query, q, factor)
            assert scaled == _repr_outcome(_reference_scale_query, q, factor)
        assert ev._denominator(q) == _reference_denominator(q)
        feasible = _repr_outcome(ev._check_dense_t_feasible, q)
        assert feasible == _repr_outcome(_reference_check_dense_t_feasible, q)
        seen["wide T"] += feasible.startswith("DenseInfeasibleError")
        seen["off the integers"] += ev._denominator(q) > 1
    assert seen["wide T"] > 50
    if steps is not None:
        assert seen[True] > 10 and seen["off the integers"] > 100


_DOMAINS = [
    iv.closed(0, 5),
    *(iv.Interval(Fraction(-1, 2), 5, lc, rc) for lc in (True, False) for rc in (True, False)),
    *(iv.Interval(1, Fraction(17, 3), lc, rc) for lc in (True, False) for rc in (True, False)),
]


@pytest.mark.parametrize("domain", _DOMAINS, ids=str)
def test_time_bound_leaf_matches_the_reference_window(domain):
    # bounds below, at, between and above both ends of the domain
    G = TemporalGraph("discrete" if domain == iv.closed(0, 5) else "dense", domain,
                      {("a", "e", "b"): (iv.point(domain.hi if domain.right_closed else 3),)})
    ends = (domain.lo, domain.hi)
    bounds = {x + step for x in ends for step in (-1, Fraction(-1, 6), 0, Fraction(1, 6), 1)}
    bounds.add(3)
    if G.discrete:
        bounds = {math.floor(k) for k in bounds}
    for k in sorted(bounds):
        window = _reference_leq_window(domain, k)
        for rules in (ev._T_RULES, ev._C_RULES):
            want = set() if window is None else {rules.flat(n, n, window) for n in G.nodes}
            assert ev._leaf(G, q_.LeqTime(k), rules) == want, k


@pytest.mark.parametrize("text, cited", [
    ("(e/T[1,2])[1,_] + e + T[3,5]", "T[1,2]"),
    ("T[3,5] + e/(T[1,2] + e)[0,2]", "T[3,5]"),
])
def test_dense_u_t_cites_the_first_wide_navigation(text, cited):
    # left to right, into repetitions and unions alike
    G = graph("dense", C(0, 10), ("a", "e", "b", [C(0, 1)]))
    q = parse_query(text)
    with pytest.raises(DenseInfeasibleError) as err:
        eval_t(G, q)
    assert str(err.value) == (
        "dense time: U^t requires every temporal navigation interval "
        f"to be a singleton, got {cited}"
    )
    with pytest.raises(DenseInfeasibleError, match=re.escape(cited)):
        _reference_check_dense_t_feasible(q)


# --- dense U^d joins -------------------------------------------------------------


@pytest.mark.parametrize("arrival, want", [
    ("[50,50]", ""),
    ("[3,3]", "d a c 1 [2,2]"),
    ("[2,2]", None),
], ids=["misses", "one-departure-lands", "infinite"])
def test_dense_eval_d_expands_only_the_departures_that_land(arrival, want):
    # e/T[1,2] departs over [0,1]; only the departures whose arrival meets f count
    G = load_graph(f"mode dense\ndomain [0,60]\na e b [0,1]\nb f c {arrival}\n")
    q = parse_query("e/T[1,2]/f")
    if want is None:
        with pytest.raises(DenseInfeasibleError) as err:
            eval_d(G, q)
        assert str(err.value) == (
            "dense time: U^d would need one tuple per rational time point of [0,1]"
        )
    else:
        assert eval_d(G, q).render() == want


@pytest.mark.parametrize("text, want", [
    ("e/T[10,10]", "d a b 0 [10,10]"),
    ("T[10,10]", "d a a 0 [10,10]\nd b b 0 [10,10]"),
    ("T[0,0]", None),
], ids=["e-then-edge", "edge", "infinite"])
def test_dense_eval_d_navigates_only_from_the_departures_that_land(text, want):
    # only t = 0 lands at 10; T[0,0] holds every point of the domain
    G = load_graph("mode dense\ndomain [0,10]\na e b [0,1]\n")
    if want is None:
        with pytest.raises(DenseInfeasibleError) as err:
            eval_d(G, parse_query(text))
        assert str(err.value).endswith("time point of [0,10]")
    else:
        assert eval_d(G, parse_query(text)).render() == want


def test_dense_u_d_join_fails_on_the_same_pair_whatever_the_bucket_order():
    # both right tuples start at 2 and would make the join fail, each citing
    # its own departure window: [0,2] for tau [2,3], [0,4] for tau [2,6]
    rules = ev._Rules(partial(ev._join_d, False), ordered=True, nav_join=ev._nav_join_d)
    u1 = TDTuple("a", "b", C(0, 4), C(1, 2))
    B = [TDTuple("b", "c", C(2, 6), C(0, 0)), TDTuple("b", "c", C(2, 3), C(0, 0))]
    for right in (B, B[::-1]):
        with pytest.raises(DenseInfeasibleError) as err:
            ev._join_sets([u1], ev._buckets(right), rules)
        assert str(err.value).endswith("time point of [0,2]")


def _closed_half_steps(rng, values, points):
    # a closed interval over ``values``, one point with probability ``points``
    lo, hi = sorted((rng.choice(values), rng.choice(values)))
    return iv.point(lo) if rng.random() < points else iv.closed(lo, hi)


def _random_dense_d_instance(seed, source):
    """A dense graph and query with closed delimiters only, on the half-step lattice.

    ``randgen``: a random instance made dense, with some facts narrowed to a
    point.  ``chains``: e/T[..]/f, or e/T[..]/f/T[..]/e, over half-step facts.
    ``edges``: half-step facts, those labelled p one point each, and queries
    whose every departure window is one point (see ``_edge_query``), so that
    each instance answers.
    """
    rng = random.Random(f"{source}-{seed}")
    if source == "edges":
        facts = {}
        for _ in range(rng.randint(2, 6)):
            triple = (rng.choice("AB"), rng.choice("efp"), rng.choice("AB"))
            points = 1 if triple[1] == "p" else 0.4  # p-facts are points
            facts.setdefault(triple, []).append(_closed_half_steps(rng, HALF_STEPS, points))
        return TemporalGraph("dense", iv.closed(-6, 6), facts), _edge_query(rng, facts)
    if source == "randgen":
        G, q = random_instance(seed)
        facts = {
            triple: [iv.point(x.lo) if rng.random() < 0.5 else x for x in validity]
            for triple, validity in G.facts.items()
        }
        return TemporalGraph("dense", G.domain, facts), q
    facts = {}
    for _ in range(rng.randint(1, 5)):
        triple = (rng.choice("AB"), rng.choice("ef"), rng.choice("AB"))
        facts.setdefault(triple, []).append(_closed_half_steps(rng, HALF_STEPS, 0.4))
    def nav():
        return q_.TimeNav(_closed_half_steps(rng, HALF_STEPS[8:17], 0.2))  # within [-2, 2]

    parts = [q_.Label("e"), nav(), q_.Label("f")]
    if rng.random() < 0.3:
        parts += [nav(), q_.Label("e")]
    return TemporalGraph("dense", iv.closed(-6, 6), facts), q_.Join(*parts)


def _edge_query(rng, facts):
    """A query over the domain [-6, 6] whose every departure window is one point.

    T[12,12] and T[-12,-12] leave from one end of the domain only.  A
    navigation after e reaches the right end from the earliest start x of an
    e-fact, T[6-x, 6-x] or T[6-x, 6-x+k], or the left end from the latest end
    y, T[-6-y, -6-y] or T[-6-y-k, -6-y]; any later e-fact departs too late,
    or too early, to land.  A one-point navigation after the point facts p,
    on its own or in a union, is a fixed hop.
    """
    e_taus = [tau for (_, p, _), taus in facts.items() if p == "e" for tau in taus]
    reach = [q_.TimeNav(iv.point(w)) for w in (12, -12)]
    if e_taus:
        x = min(tau.lo for tau in e_taus)
        y = max(tau.hi for tau in e_taus)
        k = rng.choice(HALF_STEPS[13:])  # a positive half step up to 6
        reach += [q_.TimeNav(iv.point(6 - x)), q_.TimeNav(iv.closed(6 - x, 6 - x + k)),
                  q_.TimeNav(iv.point(-6 - y)), q_.TimeNav(iv.closed(-6 - y - k, -6 - y))]
    hop = q_.TimeNav(iv.point(rng.choice(HALF_STEPS[8:17])))  # within [-2, 2]
    shape = rng.randrange(3)
    if shape == 0:  # from an end of the domain
        parts = [rng.choice(reach[:2])]
    elif shape == 1 and e_taus:  # e, then to an end of the domain
        parts = [q_.Label("e"), rng.choice(reach[2:])]
    else:  # a fixed hop after a point fact, on its own or in a union
        parts = [q_.Label("p"), hop if rng.random() < 0.5 else q_.Union(hop, q_.Label("f"))]
    parts += [q_.Label(rng.choice("ef"))] if rng.random() < 0.5 else []
    return q_.Join(*parts) if len(parts) > 1 else parts[0]


@pytest.mark.parametrize("source", ["randgen", "chains", "edges"])
def test_dense_eval_d_matches_eval_c_on_the_half_step_lattice(source):
    # closed delimiters only: with mixed ones eval_c has its documented crop-line gap
    answered = Counter()
    for seed in range(500):
        G, q = _random_dense_d_instance(seed, source)
        try:
            answer = eval_d(G, q)
        except DenseInfeasibleError:
            assert source != "edges", (seed, q)
            continue
        lo, hi = G.domain.lo, G.domain.hi
        grid = [lo + Fraction(k, 2) for k in range(2 * (hi - lo) + 1)]
        got = _grid_relations(answer, lambda u: as_ctuple(as_td(u)), grid)
        assert got == _grid_relations(eval_c(G, q), lambda u: u, grid), (seed, q)
        answered[bool(got)] += 1
    assert answered[True] > 15 and answered[False] > 100


# --- dense U^td: the groups of U^d ----------------------------------------------


def _lattice_range(interval, N):
    # the integers k with k/N in the interval, as a closed interval, or None
    lo, hi = interval.lo * N, interval.hi * N
    first, last = math.ceil(lo), math.floor(hi)
    first += first == lo and not interval.left_closed
    last -= last == hi and not interval.right_closed
    return C(first, last) if first <= last else None


def _lattice_rows(answer, N):
    # (n1, n2, k) -> the distances at time k/N, on the lattice of step 1/N, as
    # coalesced ranges of k: equal rows hold equal lattice points
    rows = {}
    for u in answer:
        times = _lattice_range(u.tau, N)
        for k in iv.iter_points(times) if times else ():
            sl = delta_at(u, Fraction(k, N)) if isinstance(u, CTuple) else u.delta
            distances = sl and _lattice_range(sl, N)
            if distances:
                rows.setdefault((u.n1, u.n2, k), []).append(distances)
    return {key: iv.coalesce(ranges, discrete=True) for key, ranges in rows.items()}


# eval_c misses (1/2, 9/2) of T[9/2,5) here: the documented mixed-delimiter gap
_EVAL_C_GAP = {("half", 10)}


def test_dense_eval_td_matches_eval_c_on_the_4l_lattice():
    # L is an instance's integer grid; the lattice of step 1/(4L) holds points
    # between its grid points too.  Where eval_d answers, it is eval_td's groups
    # read out per time point; where eval_td fails, eval_d fails alike.
    seen = Counter()
    for name, steps in _STEPS.items():
        for seed in range(1000):
            G, q = _random_stepped_instance(seed, steps)
            groups = _outcome(lambda: eval_td(G, q, max_iterations=25))
            points = _outcome(lambda: eval_d(G, q, max_iterations=25))
            if isinstance(groups, str):
                assert groups == points, (name, seed)
                continue
            N = 4 * math.lcm(G._denominator, ev._denominator(q))
            regions = eval_c(G, q, max_iterations=25)
            same = _lattice_rows(groups, N) == _lattice_rows(regions, N)
            assert same == ((name, seed) not in _EVAL_C_GAP), (name, seed, q)
            if not isinstance(points, str):
                assert list(points) == [DTuple(g.n1, g.n2, g.tau.lo, g.delta) for g in groups]
                seen["eval_d answers"] += 1
            seen["answers"] += 1
    assert seen["answers"] >= 2249 and seen["eval_d answers"] > 1000


def test_dense_u_d_navigation_is_associative():
    # a group that leaves the domain composes with it by U^d's join, so a
    # one-point navigation stays one rectangle however the join is bracketed
    G = load_graph("mode dense\ndomain [0,10]\na e b [0,10]\nb f c [5,5]\n")
    for evaluate, want in ((eval_d, "d a c 4 [1,1]"), (eval_td, "td a c [4,4] [1,1]")):
        for text in ("e/T[1,1]/f", "e/(T[1,1]/f)"):
            assert evaluate(G, parse_query(text)).render() == want, (evaluate, text)
    seen = Counter()
    for steps in _STEPS.values():
        for seed in range(100):
            G = _random_stepped_instance(seed, steps)[0]
            labels = sorted({p for _, p, _ in G.facts})
            for e, f in [(e, f) for e in labels for f in labels]:
                for k in (-2, Fraction(1, 2), Fraction(7, 3)):
                    nav, e_, f_ = q_.TimeNav(iv.point(k)), q_.Label(e), q_.Label(f)
                    left, right = q_.Join(q_.Join(e_, nav), f_), q_.Join(e_, q_.Join(nav, f_))
                    for evaluate in (eval_d, eval_td):
                        got = _rendered(evaluate, G, left)
                        assert got == _rendered(evaluate, G, right), (seed, left, evaluate)
                        seen["error" if "Error" in got else bool(got)] += 1
    assert seen[True] > 1000 and seen["error"] > 500


# --- bucket joins -------------------------------------------------------------


def _reference_join_sets(A, B, join):
    # the plain bucket loop: every tuple of the bucket is probed
    buckets = {}
    for u in B:
        buckets.setdefault(u.n1, []).append(u)
    out = set()
    for u1 in A:
        for u2 in buckets.get(u1.n2, ()):
            out.update(join(u1, u2))
    return out


_JOIN_NODES = ("a", "b", "c")


def _random_span(rng, dense, lo, hi):
    # often zero-width; open ends and half steps only over dense time
    step = Fraction(1, 2) if dense else 1
    a = lo + step * rng.randint(0, int((hi - lo) / step))
    b = min(hi, a + step * rng.choice([0, 0, 1, 2, 4, 6]))
    if a == b or not dense:
        return C(a, b)
    return iv.Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def _random_join_tuple(rng, kind, dense):
    n1, n2 = rng.choice(_JOIN_NODES), rng.choice(_JOIN_NODES)
    if rng.random() < 0.1:  # a domain-wide tau among narrow ones widens its bucket's bound
        tau = C(0, 12)
    else:
        tau = _random_span(rng, dense, 0, 12)
    if kind == "t":
        return TTuple(n1, n2, tau, _random_span(rng, dense, 0, 4).lo)
    delta = _random_span(rng, dense, 0, 4)
    if kind == "td":
        return TDTuple(n1, n2, tau, delta)
    crops = [tau.lo, tau.hi, tau.lo - 2, tau.hi + 2, iv.scale(tau.lo + tau.hi, Fraction(1, 2))]
    return CTuple(n1, n2, tau, delta, rng.choice(crops), rng.choice(crops))


def _random_join_sets(rng, kind, dense):
    sides = []
    for _side in "AB":
        side = []
        size = rng.randint(5, 30)
        while len(side) < size:
            u = _random_join_tuple(rng, kind, dense)
            if kind != "c" or ctuple_valid(u):
                side.append(u)
        sides.append(side)
    return sides


def _shared_shape_sets(rng, kind, dense):
    # A and B draw from four time shapes, each under many node pairs
    pool = []
    while len(pool) < 4:
        u = _random_join_tuple(rng, kind, dense)
        if kind != "c" or ctuple_valid(u):
            pool.append(u)
    return [
        [
            type(u)(rng.choice(_SHARED_NODES), rng.choice(_SHARED_NODES), *u[2:])
            for u in (rng.choice(pool) for _ in range(rng.randint(5, 30)))
        ]
        for _side in "AB"
    ]


_SHARED_NODES = ("a", "b", "c", "d", "e", "f")


@pytest.mark.parametrize("kind, dense, shared", [
    ("t", False, False), ("t", True, False), ("d", False, False), ("td", False, False),
    ("c", False, False), ("c", True, False),
    ("t", False, True), ("t", True, True), ("d", False, True), ("td", False, True),
    ("c", False, True), ("c", True, True), ("join_td", False, False),
], ids=[
    "t", "t-dense", "d", "td", "c", "c-dense",
    "t-shared", "t-dense-shared", "d-shared", "td-shared", "c-shared", "c-dense-shared",
    "join_td",
])
def test_pruned_join_sets_match_plain_bucket_loop(kind, dense, shared):
    rules = {
        "t": ev._T_RULES,
        # every join prunes by the hull of tau + delta; d-shared also walks
        # the pairs in canonical order, as dense U^d does
        "d": ev._Rules(join=partial(ev._join_d, True), ordered=shared),
        "td": ev._D_RULES[True],  # the rules eval_td runs
        "join_td": ev._Rules(join=join_td),  # the public per-departure join
        "c": ev._C_RULES,
    }[kind]
    rng = random.Random(f"{kind}-{dense}-shared" if shared else f"{kind}-{dense}")
    make_sets = _shared_shape_sets if shared else _random_join_sets
    joined = 0
    for _ in range(150):
        # d and join_td join td-shaped groups
        A, B = make_sets(rng, "td" if kind in ("d", "join_td") else kind, dense)
        if kind == "t":  # U^t joins rectangles whose delta is the point [d, d]
            A, B = [as_td(u) for u in A], [as_td(u) for u in B]
        expected = _reference_join_sets(A, B, rules.join)
        assert ev._join_sets(A, ev._buckets(B), rules) == expected
        joined += len(expected)
    assert joined > 500  # the random sets chain often enough to compare something


# --- node-uniform leaves -----------------------------------------------------------


def _per_node_leaf(G, q, rules):
    # the leaf's set made node by node, each node's tuples built at that node
    nodes, domain = G.nodes, G.domain
    if isinstance(q, q_.Not):  # each node's complement, within the domain, of the filter
        taus = {}
        for u in _per_node_leaf(G, q.inner, rules):
            taus.setdefault(u.n1, []).append(u.tau)
        return {
            rules.flat(n, n, gap)
            for n in nodes
            for gap in iv.complement(taus.get(n, ()), domain, discrete=G.discrete)
        }
    if isinstance(q, q_.Pred):
        held = [q.target] if q.equals else [n for n in nodes if n != q.target]
        return {rules.flat(n, n, domain) for n in held}
    if isinstance(q, q_.LeqTime):
        window = _reference_leq_window(domain, q.bound)
        return set() if window is None else {rules.flat(n, n, window) for n in nodes}
    return {  # navigation: (domain, delta) at n composed with the domain at n
        u
        for n in nodes
        for u in rules.join(rules.flat(n, n, domain, delta=q.delta), rules.flat(n, n, domain))
    }


def _uniform_operands(rng, G, steps, singleton):
    # random navigations (one point each over dense time when singleton), a
    # time bound below the domain and one within it, and node filters,
    # negated or not, on a node of G and on the absent node Z
    lo, hi = math.floor(G.domain.lo), math.floor(G.domain.hi)
    out = []
    for _ in range(3):
        a = rng.randint(-3, 3)
        delta = C(a, a + rng.choice([0, 0, 1, 2, 5]))
        if steps:
            delta = iv.point(_on_steps(rng, a, steps)) if singleton else _stepped(rng, delta, steps)
        out.append(q_.TimeNav(delta))
    bound = rng.randint(lo, hi)
    out += [q_.LeqTime(lo - 1), q_.LeqTime(_on_steps(rng, bound, steps) if steps else bound)]
    for target in ("Z", *G.nodes[:1]):
        for equals in (True, False):
            out += [q_.Pred(equals, target), q_.Not(q_.Pred(equals, target))]
    return out


def _set_or_error(compute):
    try:
        return compute()
    except TrpqError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("rules, dense", [
    (ev._T_RULES, False), (ev._T_RULES, True), (ev._D_RULES[True], False),
    (ev._D_RULES[False], True), (ev._C_RULES, False), (ev._C_RULES, True),
], ids=["t", "t-dense", "d", "d-dense", "c", "c-dense"])
def test_node_uniform_operands_join_as_their_per_node_sets(rules, dense):
    # as a join's right operand a navigation, a time bound or a node filter is
    # one bucket shared by its nodes; it must join as its per-node set does
    if dense:
        instances = [
            (_random_stepped_instance(seed, steps), steps)
            for steps in _STEPS.values() for seed in range(100)
        ]
        empty = TemporalGraph("dense", iv.Interval(0, Fraction(11, 2), False, True), {})
    else:
        instances = [(random_instance(seed), None) for seed in range(300)]
        empty = TemporalGraph("discrete", C(0, 5), {})
    instances.append(((empty, q_.Label("e")), (2,) if dense else None))
    rng = random.Random(f"uniform-{dense}")
    seen = Counter()
    for (G, q), steps in instances:
        # every label's tuples, the instance query's answer and a tuple into Z
        left = {rules.flat(G.nodes[0] if G.nodes else "a", "Z", G.domain)}
        for label in {p for _, p, _ in G.facts}:
            left |= ev._evaluate(G, q_.Label(label), rules, 25)
        answer = _set_or_error(lambda: ev._evaluate(G, q, rules, 25))
        left |= set() if isinstance(answer, str) else answer
        singleton = dense and rules is ev._T_RULES  # U^t is checked up front over dense time
        for operand in _uniform_operands(rng, G, steps, singleton):
            want = _set_or_error(lambda: ev._join_sets(
                left, ev._buckets(_per_node_leaf(G, operand, rules)), rules
            ))
            got = _set_or_error(lambda: ev._join_sets(
                left, ev._bucketed(G, operand, rules, 25), rules
            ))
            assert got == want, (G, q, operand)
            expanded = _set_or_error(lambda: ev._evaluate(G, operand, rules, 25))
            assert expanded == _set_or_error(lambda: _per_node_leaf(G, operand, rules))
            seen["error" if isinstance(want, str) else bool(want)] += 1
    assert seen[True] > 1000
    assert seen["error"] > 100 if rules is ev._D_RULES[False] else seen["error"] == 0


def test_discrete_eval_d_sorts_only_its_answer(monkeypatch, running):
    # over discrete time no expansion can fail, so the groups go unsorted: the
    # one sort left is the AnswerSet's, once per output tuple
    calls = []
    original = ev.tuple_sort_key

    def counting(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(ev, "tuple_sort_key", counting)
    q = parse_query("(attends/T[0,6]/attends^-)[1,3]/attends")
    got = eval_d(running, q)
    monkeypatch.undo()
    assert len(got) > 10 and len(calls) == len(got)
    assert all(isinstance(u, DTuple) for u in calls)
    assert unfold(got, "d") == eval_direct(running, q)


def _half_step_graph():
    # 30 e-edges over 8 nodes, their endpoints on halves: the common grid is L = 2
    rng = random.Random(4)
    nodes = [f"n{k}" for k in range(8)]
    facts = {}
    for _ in range(30):
        lo, width = Fraction(rng.randint(0, 30), 2), Fraction(rng.randint(1, 7), 2)
        facts[(rng.choice(nodes), "e", rng.choice(nodes))] = [C(lo, lo + width)]
    return graph("dense", C(0, 20), *[(s, p, o, v) for (s, p, o), v in facts.items()])


def _numbers(u):
    return [x for f in u[2:] for x in ((f.lo, f.hi) if isinstance(f, iv.Interval) else (f,))]


@pytest.mark.parametrize("kind, query", [("c", "e/T[1,3]/e"), ("t", "e/T[1/2,1/2]/e")])
def test_dense_answers_are_ordered_on_the_grid(monkeypatch, kind, query):
    # the grid's answers are sorted once, while every endpoint is an int, and
    # scaled back in that order: no Fraction is hashed or compared to order them
    g, q = _half_step_graph(), parse_query(query)
    evaluate, plain = _ON_AND_OFF_GRID[kind]
    evaluate(g, q)  # g keeps its grid copy: scaling the graph is not timed here
    keyed, hashed = [], []
    original = ev.tuple_sort_key

    def counting(u):
        keyed.append(u)
        return original(u)

    monkeypatch.setattr(ev, "tuple_sort_key", counting)
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or hash(x.numerator))
    got = evaluate(g, q)
    monkeypatch.undo()
    assert len(got) > 10 and len(keyed) == len(got) and not hashed
    assert all(type(x) is int for u in keyed for x in _numbers(u))
    assert any(isinstance(x, Fraction) for u in got for x in _numbers(u))
    assert got.tuples == ev.AnswerSet(kind, "dense", got.tuples).tuples
    assert got == plain(g, q, q_.MAX_ITERATIONS)


def _few_shapes_graph():
    # 40 e-edges over 12 nodes with 4 validity intervals: many node pairs,
    # few time shapes; all end before the domain does, so each meets (<=15)
    rng = random.Random(3)
    nodes = [f"n{k}" for k in range(12)]
    spans = [C(0, 2), C(3, 5), C(4, 9), C(10, 12)]
    facts = {(rng.choice(nodes), "e", rng.choice(nodes)): [rng.choice(spans)] for _ in range(40)}
    g = graph("discrete", C(0, 20), *[(s, p, o, v) for (s, p, o), v in facts.items()])
    left_shapes = {u[2:] for u in eval_c(g, parse_query("e"))}
    assert len(left_shapes) == 4 and len(facts) > 30
    return g, left_shapes


@pytest.mark.parametrize("kind, evaluator", [("t", eval_t), ("td", eval_td), ("c", eval_c)],
                         ids=["t", "td", "c"])
def test_a_uniform_operand_is_joined_once_per_distinct_left_time_shape(monkeypatch, kind,
                                                                       evaluator):
    # (<=15) is one tuple in a bucket that every node shares: each left time
    # shape is joined with it once, however many left tuples have that shape
    g, left_shapes = _few_shapes_graph()
    calls = []
    original = ev._answers

    def counting(G, q, rules, cap):
        def join(u1, u2):
            calls.append(u1)
            return rules.join(u1, u2)
        return original(G, q, rules._replace(join=join), cap)

    monkeypatch.setattr(ev, "_answers", counting)
    got = evaluator(g, parse_query("e/(<=15)"))
    monkeypatch.undo()
    assert Counter(u1[2:4] for u1 in calls) == Counter(shape[:2] for shape in left_shapes)
    assert unfold(got, kind) == eval_direct(g, parse_query("e/(<=15)"))


@pytest.mark.parametrize("query, leaving", [
    ("e/T[1,3]", []),  # every e tuple ends by 12 + 3 <= 20
    ("e/T[1,9]", [C(10, 12)]),  # 12 + 9 leaves the domain [0,20]
    ("e/T[-1,0]", [C(0, 2)]),  # 0 - 1 leaves it below
])
def test_u_c_navigation_joins_only_the_tuples_that_leave_the_domain(monkeypatch, query,
                                                                    leaving):
    # join_c builds the navigation leaf (its one join at the placeholder
    # node "") and joins it once per time shape of a tuple that leaves the
    # domain; every other tuple keeps its crop and extends its distances
    g, _ = _few_shapes_graph()
    calls = []
    original = ev.join_c

    def counting(u1, u2):
        calls.append(u1)
        return original(u1, u2)

    monkeypatch.setattr(ev, "join_c", counting)
    got = eval_c(g, parse_query(query))
    monkeypatch.undo()
    navigation = [u1 for u1 in calls if u1.n1 == ""]
    assert len(navigation) == (1 if leaving else 0)
    assert sorted(u1.tau for u1 in calls if u1.n1 != "") == leaving
    assert unfold(got, "c") == eval_direct(g, parse_query(query))


def _random_nav_ctuple(rng, dense, domain):
    # a valid cropped tuple around the domain, often past one of its ends,
    # with mixed delimiters over dense time; None when the draw is not valid
    tau = _random_span(rng, dense, domain.lo - 1, domain.hi)
    delta = _random_span(rng, dense, -2, 2)
    crops = [tau.lo, tau.hi, tau.lo - 2, tau.hi + 2, iv.scale(tau.lo + tau.hi, Fraction(1, 2))]
    u = CTuple(rng.choice("ab"), rng.choice("abc"), tau, delta, rng.choice(crops),
               rng.choice(crops))
    return u if ctuple_valid(u) else None


@pytest.mark.parametrize("dense", [False, True], ids=["discrete", "dense"])
def test_nav_join_c_matches_the_navigation_leaf_join(dense):
    # the U^c rule against every tuple joined with the navigation leaf, for
    # navigations wide and one point, forward and back; a tuple is kept whole
    # where tau + delta and tau + delta + nav lie within the domain (an open
    # end of a dense domain among them), and left to the leaf join where
    # either leaves it ("before": only tau + delta does)
    rng = random.Random(f"nav-join-c-{dense}")
    branches, navs = Counter(), set()
    for _ in range(2_000):
        lo = _random_span(rng, dense, -4, 0).lo
        domain = C(lo, lo + rng.choice([4, 8, 12]))
        if dense and rng.random() < 0.5:
            domain = iv.Interval(domain.lo, domain.hi, rng.random() < 0.5, rng.random() < 0.5)
        G = graph("dense" if dense else "discrete", domain, ("a", "e", "b", [domain]))
        tuples = {u for u in (_random_nav_ctuple(rng, dense, domain) for _ in range(12)) if u}
        nav = _random_span(rng, dense, -4, 4)
        navs.add((nav.is_singleton, nav.lo < 0))
        leaf = ev._uniform(G, q_.TimeNav(nav), ev._C_RULES)
        got = ev._nav_join_c(tuples, nav, G)
        assert got == ev._join_sets(tuples, leaf, ev._C_RULES), (domain, nav, tuples)
        assert all(ctuple_valid(u) for u in got)
        for u in tuples:
            if u.n2 == "c":
                continue
            arrivals = iv.msum(u.tau, u.delta)
            before = iv.covers(domain, arrivals)
            after = iv.covers(domain, iv.msum(arrivals, nav))
            branches["kept" if before and after else "before" if after else "leaves"] += 1
    assert branches["kept"] > 2_000 and branches["leaves"] > 3_000 and branches["before"] > 400
    assert len(navs) == 4


def test_nav_join_c_checks_the_tuples_it_keeps_whole():
    # an invalid tuple fails as join_c fails on it, whether it stays in the
    # domain or leaves it
    G = graph("discrete", C(0, 20), ("a", "e", "b", [C(0, 20)]))
    invalid = CTuple("a", "b", C(2, 8), C(0, 1), 6, 2)
    assert not ctuple_valid(invalid)
    for nav in (C(1, 3), C(15, 15)):
        with pytest.raises(InvalidTupleError, match="not a valid cropped tuple"):
            ev._nav_join_c({invalid}, nav, G)


def test_a_shared_bucket_fails_at_the_first_left_tuple_in_canonical_order():
    # both groups keep their navigation whole, then expand against (<=15) and
    # fail; the error cites the departures of a's group, first in canonical order
    g = graph("dense", C(0, 20), ("a", "e", "b", [C(8, 12)]), ("c", "e", "d", [C(0, 5)]))
    with pytest.raises(DenseInfeasibleError, match=re.escape("time point of [8,12]")):
        eval_d(g, parse_query("e/T[1,3]/(<=15)"))


@pytest.mark.parametrize("evaluator, mode, query", [
    (eval_t, "dense", "T[2,2]"),
    (eval_d, "dense", "T[1,3]"),
    (eval_td, "discrete", "T[1,3]"),
    (eval_c, "dense", "T[1,3]"),
], ids=["t", "d", "td", "c"])
def test_navigation_on_a_graph_without_nodes_is_empty(evaluator, mode, query):
    # no node to navigate from: no tuple, and no dense-time expansion error
    g = graph(mode, C(0, 10))
    assert len(evaluator(g, parse_query(query))) == 0


def test_dense_u_t_rejects_wide_navigation_without_nodes():
    with pytest.raises(DenseInfeasibleError):
        eval_t(graph("dense", C(0, 10)), parse_query("T[1,3]"))


# --- oracle equivalence (sampled here; the full sweep runs in acceptance) ------


@pytest.mark.parametrize("kind,evaluator", [
    ("t", eval_t), ("d", eval_d), ("td", eval_td), ("c", eval_c),
])
def test_oracle_equivalence_sampled(kind, evaluator):
    for seed in range(120):
        G, q = random_instance(seed)
        assert unfold(evaluator(G, q), kind) == eval_direct(G, q), (
            f"seed {seed}: {kind} diverges"
        )


# --- repetition and navigation rules -------------------------------------------

EVALUATORS = [("t", eval_t), ("d", eval_d), ("td", eval_td), ("c", eval_c)]

# a -e-> b -e-> c -e-> d at every time: the powers of e have 3, 2, 1 and 0 tuples
CHAIN = graph("discrete", C(0, 3), *[(s, "e", o, [C(0, 3)]) for s, o in ("ab", "bc", "cd")])


def _identity_points(G):
    return frozenset(
        PointTuple(n, n, t, 0) for n in graph_nodes(G) for t in iv.iter_points(G.domain)
    )


def _count_join_rounds(monkeypatch):
    calls = []
    join_sets = ev._join_sets

    def counting(*args, **kwargs):
        calls.append(1)
        return join_sets(*args, **kwargs)

    monkeypatch.setattr(ev, "_join_sets", counting)
    return calls


@pytest.mark.parametrize(
    "kind, evaluator", EVALUATORS + [("point", eval_direct)], ids=["t", "d", "td", "c", "oracle"]
)
def test_repeat_zero_zero_is_the_identity(running, kind, evaluator):
    instances = [running, CHAIN] + [random_instance(seed)[0] for seed in range(20)]
    for G in instances:
        for inner in ("e", "attends/T[0,2]", "absent"):
            got = evaluator(G, parse_query(f"({inner})[0,0]"))
            assert (got if kind == "point" else unfold(got, kind)) == _identity_points(G)


@pytest.mark.parametrize("query, rounds", [
    ("e[0,1000000]", 3),  # P2, P3, then an empty P4 ends the loop
    ("e[1,1000000]", 3),
    ("e[2,1000000]", 3),  # one join to reach P2 first
    ("e[1,_]", 3),
    ("e[0,2]", 1),  # n - start rounds when the answer is still growing
    ("e[1,3]", 2),
    ("e[2,2]", 1),
    ("e[0,0]", 0),
    ("absent[0,1000000]", 0),  # an empty base adds nothing in the first round
    ("absent[1,1000000]", 0),
    ("absent[2,1000000]", 1),
])
@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_bounded_repeat_stops_when_a_round_adds_nothing(monkeypatch, kind, evaluator, query,
                                                        rounds):
    calls = _count_join_rounds(monkeypatch)
    got = evaluator(CHAIN, parse_query(query))
    assert len(calls) == rounds
    assert unfold(got, kind) == eval_direct(CHAIN, parse_query(query))


@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_bounded_repeat_far_beyond_the_fixpoint_matches_the_oracle(kind, evaluator):
    for seed in range(40):
        G, q = random_instance(seed)
        for m in (0, 1, 2):
            for n in (m, m + 1, 10**6):
                r = q_.Repeat(q, m, n)
                assert unfold(evaluator(G, r), kind) == eval_direct(G, r), (seed, m, n)


def test_long_bounded_repeat_makes_one_join_round(monkeypatch, running):
    short = eval_c(running, parse_query("attends[0,1]"))
    calls = _count_join_rounds(monkeypatch)
    out = eval_c(running, parse_query("attends[0,200000]"))
    assert len(calls) == 1  # attends/attends is empty
    assert out == short and len(out) == 8


@pytest.mark.parametrize(
    "kind, evaluator", EVALUATORS + [("point", eval_direct)], ids=["t", "d", "td", "c", "oracle"]
)
def test_a_large_repetition_lower_bound_stops_at_a_repeated_power(running, kind, evaluator):
    # base^m stops at a power equal to the one before it: every power of
    # (=Alice) is the first, attends^2 is empty, and on CHAIN the powers of
    # e + (=a) settle from the third on
    cases = [
        (running, "(=Alice)[{m},{m}]", 1), (running, "attends[{m},_]", 2),
        (CHAIN, "(e + (=a))[{m},{m}]", 3), (CHAIN, "(e + (=a))[{m},_]", 3),
    ]
    for G, text, small in cases:
        started = time.perf_counter()
        got = evaluator(G, parse_query(text.format(m=3_000_000)))
        assert time.perf_counter() - started < 1, text
        assert got == evaluator(G, parse_query(text.format(m=small))), text


# e-powers that cycle: with period 2 on a <-> b, and with period 3 after a
# lead-in of one power on y -> x -> a -> b -> c -> a (e^2 = e^5)
TWO_CYCLE = graph("discrete", C(0, 10), ("a", "e", "b", [C(0, 10)]), ("b", "e", "a", [C(0, 10)]))
LEAD_IN = graph("discrete", C(0, 10), *[
    (s, "e", o, [C(0, 10)]) for s, o in ("yx", "xa", "ab", "bc", "ca")])


@pytest.mark.parametrize(
    "kind, evaluator", EVALUATORS + [("point", eval_direct)], ids=["t", "d", "td", "c", "oracle"]
)
def test_a_large_repetition_lower_bound_skips_whole_periods(kind, evaluator):
    # base^m skips whole periods once its powers cycle, and reaches the power
    # of m's residue: the pairs of e^m on the two-node cycle follow m's parity
    for m in (3_000_000, 3_000_001):
        started = time.perf_counter()
        got = evaluator(TWO_CYCLE, parse_query(f"e[{m},{m}]"))
        assert time.perf_counter() - started < 1, m
        pairs = {("a", "a"), ("b", "b")} if m % 2 == 0 else {("a", "b"), ("b", "a")}
        assert {(u.n1, u.n2) for u in got} == pairs
        assert got == evaluator(TWO_CYCLE, parse_query(f"e[{2 - m % 2},{2 - m % 2}]"))
    for text, small in [("e[{m},{m}]", "e[{r},{r}]"), ("e[{m},{n}]", "e[2,4]")]:
        m = 3_000_000
        started = time.perf_counter()
        got = evaluator(LEAD_IN, parse_query(text.format(m=m, n=m + 2)))
        assert time.perf_counter() - started < 1, text
        assert got == evaluator(LEAD_IN, parse_query(small.format(r=2 + (m - 2) % 3))), text


@pytest.mark.parametrize("query, identities", [("e[1,_]", 0), ("e[2,5]", 0), ("e[0,_]", 4)])
def test_repeat_builds_the_node_identity_only_when_m_is_zero(query, identities):
    flats = []

    def flat(*args):
        flats.append(args)
        return ev._uncropped(*args)

    rules = ev._C_RULES._replace(flat=flat)
    ev._evaluate(CHAIN, parse_query(query), rules, ev.MAX_ITERATIONS)
    # one flat tuple per e-fact, and one per node for the k = 0 power alone
    assert len(flats) == len(CHAIN.facts) + identities


@pytest.mark.parametrize("delta", ["T[1,3]", "T[-2,0]", "T[0,50]", "T[-15,-12]", "T[13,20]"])
def test_eval_t_navigation_is_one_tuple_per_node_and_distance(running, delta):
    q = parse_query(delta)
    out = eval_t(running, q)
    domain = running.domain  # [100,112]: distances up to 12 either way
    distances = [d for d in iv.iter_points(q.delta) if -12 <= d <= 12]
    assert sorted((u.n1, u.d) for u in out) == sorted(
        (n, d) for n in graph_nodes(running) for d in distances
    )
    for u in out:
        assert u.n1 == u.n2
        assert u.tau == iv.intersect(domain, iv.shift(domain, -u.d))
    assert unfold(out, "t") == eval_direct(running, q)


def test_eval_t_dense_navigation_spans_a_half_open_domain():
    g = graph("dense", iv.Interval(0, 4, True, False), ("a", "e", "b", [C(0, 1)]))
    assert set(eval_t(g, parse_query("T[3,3]"))) == {
        TTuple(n, n, iv.Interval(0, 1, True, False), 3) for n in ("a", "b")
    }
    assert len(eval_t(g, parse_query("T[4,4]"))) == 0  # 0 + 4 lies outside [0,4)


@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_domain_wide_navigation_equals_navigation_across_the_domain(running, kind, evaluator):
    w = running.domain.hi - running.domain.lo
    for text in ("T[{},{}]", "attends/T[{},{}]/attends^-"):
        wide = evaluator(running, parse_query(text.format(-(10**9), 10**9)))
        assert wide == evaluator(running, parse_query(text.format(-w, w)))


# --- leaf memo -------------------------------------------------------------------


def _two_labels():
    # a new graph each time, so that the labels it keeps start empty
    return graph(
        "discrete", C(0, 6),
        ("a", "e", "b", [C(0, 3)]),
        ("b", "e", "c", [C(1, 4)]),
        ("b", "e", "b", [C(0, 1), C(4, 5)]),
        ("c", "f", "a", [C(2, 6)]),
    )


@pytest.mark.parametrize("query, labels", [
    ("e/e/e", {"e": 1}),
    ("e+e", {"e": 1}),
    ("e^-/e", {"e": 1}),
    ("(e/f)[1,3]/e^-/?(f)/T[0,1]/T[0,1]", {"e": 1, "f": 1}),
])
@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_each_label_leaf_is_built_once_per_evaluation(monkeypatch, kind, evaluator, query,
                                                      labels):
    calls = []
    original = TemporalGraph.triples_with_label

    def counting(self, label):
        calls.append(label)
        return original(self, label)

    monkeypatch.setattr(TemporalGraph, "triples_with_label", counting)
    G, q = _two_labels(), parse_query(query)
    got = evaluator(G, q)
    assert Counter(calls) == labels
    # the graph keeps what it read: t, d and td build the same flat tuples and
    # c its own cropped ones, so a label is read once per graph and flat kind
    flats = {kind == "c"}
    for other, evaluate in [(kind, evaluator), *EVALUATORS]:
        calls.clear()
        evaluate(G, q)
        cropped = other == "c"
        assert Counter(calls) == (Counter() if cropped in flats else labels), other
        flats.add(cropped)
    monkeypatch.undo()
    assert unfold(got, kind) == eval_direct(G, q)


@pytest.mark.parametrize("query, buckets, buckets_d", [
    ("e/T[1,3]/e/T[1,3]/e", 1, 1),  # e; T[1,3]'s nodes share one bucket that _buckets never builds
    ("e/(<=4)/e/!((=a))", 1, 1),  # e; a time bound and a negated node filter share theirs too
    ("e/e + f/e", 1, 1),
    ("e[1,3]/e", 1, 1),
    ("e/(e/f)/(e/f)", 3, 3),  # f once, and the subtree e/f at each of its occurrences
])
@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_each_leaf_is_bucketed_once_per_evaluation(monkeypatch, kind, evaluator, query,
                                                   buckets, buckets_d):
    calls = []
    original = ev._buckets

    def counting(B):
        calls.append(len(B))
        return original(B)

    monkeypatch.setattr(ev, "_buckets", counting)
    G, q = _two_labels(), parse_query(query)
    counts = []
    for _ in range(2):
        calls.clear()
        got = evaluator(G, q)
        counts.append(len(calls))
    monkeypatch.undo()
    # each query buckets one label, which the graph keeps; the subtree e/f is
    # bucketed again in each evaluation
    first = buckets_d if kind in ("d", "td") else buckets
    assert counts == [first, first - 1]
    assert unfold(got, kind) == eval_direct(G, q)


def _rendered(evaluate, G, q, **options):
    try:
        return evaluate(G, q, **options).render()
    except TrpqError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_label_leaves_kept_by_the_graph_change_no_answer():
    # one graph object serves every evaluation, a freshly loaded copy each one
    for seed in range(500):
        G, q = random_instance(seed)
        for evaluate in [eval_c, eval_t, eval_d, eval_td] * 2:
            fresh = load_graph(serialize_graph(G))
            assert _rendered(evaluate, G, q) == _rendered(evaluate, fresh, q), (seed, evaluate)
    # dense c evaluates on the graph's integer-grid copy, which keeps its own labels
    grids = 0
    for steps in _STEPS.values():
        for seed in range(100):
            G, q = _random_stepped_instance(seed, steps)
            for evaluate in [eval_c, eval_d, eval_td] * 2:
                fresh = load_graph(serialize_graph(G))
                got = _rendered(evaluate, G, q, max_iterations=25)
                assert got == _rendered(evaluate, fresh, q, max_iterations=25), (seed, evaluate)
            grids += any(grid._leaves for grid in G._grids.values())
    assert grids > 100


def test_the_graph_keeps_only_the_leaves_of_its_own_labels():
    G = _two_labels()
    navs = [f"T[{a},{a + w}]" for a in range(-5, 5) for w in range(5)]
    queries = ["g", "e/g/f", "g^- + e", "(=a)/g[1,_]", *(f"e/{nav}/f" for nav in navs)]
    for text in queries:
        for _, evaluator in EVALUATORS:
            evaluator(G, parse_query(text))
    assert len(set(navs)) == 50
    assert {q for _, _, q in G._leaves} == {q_.Label("e"), q_.Label("f")}
    assert {flat for flat, _, _ in G._leaves} == {ev._flat_td, ev._uncropped}
    sets = [out for (_, what, _), out in G._leaves.items() if what == "set"]
    assert len(sets) == 4 and all(type(out) is frozenset for out in sets)


@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_the_graph_keeps_the_inverse_and_test_of_its_labels(monkeypatch, kind, evaluator):
    # e^- and ?(f) depend only on G, as e and f do; g^- and ?(g) (g is no
    # label of G) and ?(e/f) (no label) are built again in each evaluation
    G = _two_labels()
    q = parse_query("e^-/?(f)/e^- + g^-/?(g) + ?(e/f)")
    calls = []
    original = ev._evaluate

    def counting(G, q, *args):
        calls.append(q)
        return original(G, q, *args)

    monkeypatch.setattr(ev, "_evaluate", counting)
    got = evaluator(G, q)
    first, kept = Counter(calls), dict(G._leaves)
    calls.clear()
    assert evaluator(G, q) == got
    monkeypatch.undo()
    e, f = q_.Label("e"), q_.Label("f")
    # the second evaluation reaches e^- and ?(f) as often, but builds neither
    # from e or f; it reads them from G, which gains nothing
    second = Counter(calls)
    assert second[q_.Inverse(e)] == first[q_.Inverse(e)] == 2 and second[q_.Test(f)] == 1
    assert first - second == Counter({e: 1, f: 1})
    assert G._leaves.keys() == kept.keys() and all(G._leaves[k] is v for k, v in kept.items())
    assert {q for _, _, q in G._leaves} == {e, f, q_.Inverse(e), q_.Test(f)}
    # e^- is a join's right operand too, so its buckets are kept as well
    assert {what for _, what, q in G._leaves if q == q_.Inverse(e)} == {"set", "buckets"}
    assert unfold(got, kind) == eval_direct(G, q)


@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_a_leaf_with_query_constants_is_built_where_it_occurs(monkeypatch, kind, evaluator):
    # G keeps e alone; each T[1,3] is built at its own occurrence, in every
    # evaluation (U^d and U^td join navigation by nav_join, not by a bucket)
    G, q = _two_labels(), parse_query("e/T[1,3]/e/T[1,3]/e")
    calls = []
    original = ev._uniform

    def counting(G, q, rules):
        calls.append(q)
        return original(G, q, rules)

    monkeypatch.setattr(ev, "_uniform", counting)
    counts = []
    for _ in range(2):
        calls.clear()
        got = evaluator(G, q)
        counts.append(len(calls))
    monkeypatch.undo()
    built = 0 if kind in ("d", "td") else 2
    assert counts == [built, built]
    assert {(what, leaf) for _, what, leaf in G._leaves} == {("set", q_.Label("e")),
                                                            ("buckets", q_.Label("e"))}
    assert unfold(got, kind) == eval_direct(G, q)


@pytest.mark.parametrize("kind, evaluator", EVALUATORS, ids=["t", "d", "td", "c"])
def test_repeated_leaves_match_the_oracle(kind, evaluator):
    # each random query appears more than once, next to label leaves it shares
    e = q_.Label("e")
    for seed in range(40):
        G, q = random_instance(seed)
        for r in (
            q_.Join(q, q),
            q_.Union(q_.Join(q, e), q_.Join(q_.Inverse(e), q)),
            q_.Repeat(q_.Union(q, e), 0, 2),
        ):
            assert unfold(evaluator(G, r), kind) == eval_direct(G, r), (seed, r)


# --- nesting limit ---------------------------------------------------------------


def test_5000_step_navigation_chain_evaluates_through_the_api():
    # a chain is one node however long it is, so no stack frame is spent per step
    chain = parse_query("/".join(["T[0,0]"] * 5000))
    step = parse_query("T[0,0]")
    for kind, evaluator in EVALUATORS:
        assert unfold(evaluator(CHAIN, chain), kind) == unfold(evaluator(CHAIN, step), kind)
    assert eval_direct(CHAIN, chain) == eval_direct(CHAIN, step)


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_evaluates(shape):
    q = parse_query(SHAPES[shape](q_.MAX_DEPTH))
    expected = eval_direct(CHAIN, q)
    assert expected
    for kind, evaluator in EVALUATORS:
        assert unfold(evaluator(CHAIN, q), kind) == expected, kind


if __name__ == "__main__":
    DENSE_GOLDEN.write_text(json.dumps(_dense_digests(), indent=1) + "\n", encoding="utf-8")
