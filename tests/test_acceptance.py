"""Acceptance suite: one test per criterion, exact assertions, no tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from trpq import (
    delta_at,
    eval_c,
    eval_d,
    eval_direct,
    eval_t,
    eval_td,
    join_c,
    parse_query,
)
from trpq import intervals as iv
from trpq.cli import main
from trpq.compact import coalesce_t, coalesce_d, minimize_exact, minimum_covers
from trpq.errors import DenseInfeasibleError
from trpq.evaluate import AnswerSet
from trpq.tuples import CTuple, TDTuple, TTuple, ctuple_valid, unfold

from pointwise import minimize_rows
from randgen import random_instance


def _ok(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def C(lo, hi):
    return iv.closed(lo, hi)


def test_criterion_1_running_example(running, q3, q3_points):
    started = time.time()
    direct = eval_direct(running, q3)
    assert {(p.t, p.d) for p in direct} == q3_points
    assert {(p.n1, p.n2) for p in direct} == {("ICDT", "ISWC")}

    t_compact = coalesce_t(eval_t(running, q3))
    assert set(t_compact) == {
        TTuple("ICDT", "ISWC", C(100, 101), 5),
        TTuple("ICDT", "ISWC", C(100, 102), 4),
        TTuple("ICDT", "ISWC", C(101, 102), 3),
    }

    d_compact = coalesce_d(eval_d(running, q3))
    assert len(d_compact) == 3

    td = eval_td(running, q3)
    assert len(minimize_exact(td, "overlapping")) == 2
    assert len(minimize_exact(td, "disjoint")) == 3

    c_min = minimize_exact(eval_c(running, q3), "overlapping")
    assert len(c_min) == 1
    assert unfold(c_min, "c") == direct

    assert time.time() - started < 1.0
    _ok(1, "running example reproduction")


def test_criterion_2_closure_sizes(closure_graph):
    q = parse_query("e/(T[2,2])[1,_]")
    compact = coalesce_t(eval_t(closure_graph, q))
    assert set(compact) == {
        TTuple("n1", "n2", C(0, 0), d) for d in range(2, 21, 2)
    }
    assert len(compact) == 10
    _ok(2, "closure sizes")


def test_criterion_3_dense_finiteness(parallelogram, tmp_path):
    q = parse_query("e1/T[0,2]/e2")
    answers = eval_c(parallelogram, q)
    assert len(answers) >= 1  # finite by construction; exact shape checked below

    by_pair = [u for u in answers if (u.n1, u.n2) == ("n1", "n3")]
    rng = random.Random(42)
    samples = {Fraction(0), Fraction(1), Fraction(2)}
    while len(samples) < 50:
        samples.add(Fraction(rng.randint(0, 240), 120))
    for t in sorted(samples):
        slices = [
            sl
            for u in by_pair
            if iv.contains(u.tau, t) and (sl := delta_at(u, t)) is not None
        ]
        merged = iv.coalesce(slices, discrete=False)
        assert merged == (iv.closed(max(1 - t, 0), min(3 - t, 2)),)

    with pytest.raises(DenseInfeasibleError):
        eval_td(parallelogram, q)
    from trpq.bundled import data_text

    doc = tmp_path / "parallelogram.tg"
    doc.write_text(data_text("parallelogram.tg"), encoding="utf-8")
    assert main([
        "eval", "--graph", str(doc), "--query", "e1/T[0,2]/e2", "--repr", "td",
    ]) == 2
    _ok(3, "dense finiteness")


def test_criterion_4_oracle_equivalence():
    started = time.time()
    evaluators = (("t", eval_t), ("d", eval_d), ("td", eval_td), ("c", eval_c))
    for seed in range(500):
        G, q = random_instance(seed, depth=4)
        want = eval_direct(G, q)
        for kind, evaluate in evaluators:
            got = unfold(evaluate(G, q), kind)
            assert got == want, f"seed {seed}, representation {kind}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    _ok(4, f"oracle equivalence over 500 instances in {elapsed:.1f}s")


def _random_valid_ctuple(rng, k, n1="a", n2="b"):
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


def test_criterion_5_join_lemma_on_grid():
    rng = random.Random(1234)
    for _ in range(200):
        k = rng.randint(1, 6)
        u1 = _random_valid_ctuple(rng, k, "a", "b")
        u2 = _random_valid_ctuple(rng, k, "b", "c")
        lo = min(u1.tau.lo, u2.tau.lo, u1.tau.lo + u1.delta.lo, u2.tau.lo + u2.delta.lo) - 1
        hi = max(u1.tau.hi, u2.tau.hi, u1.tau.hi + u1.delta.hi, u2.tau.hi + u2.delta.hi) + 1
        step = Fraction(1, 2 * k)
        grid = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
        r1 = _grid_relation(u1, grid)
        r2 = _grid_relation(u2, grid)
        composed = {(x, z) for (x, y) in r1 for (y2, z) in r2 if y2 == y}
        joined = join_c(u1, u2)
        got = _grid_relation(joined, grid) if joined is not None else set()
        assert got == composed
    _ok(5, "join lemma on the half-granularity grid, 200 pairs")


def test_criterion_6_monotonicity_and_validity():
    rng = random.Random(99)
    valid_checked = 0
    agreement_checked = 0
    while valid_checked < 500 or agreement_checked < 500:
        lo = rng.randint(-5, 5)
        tau = C(lo, lo + rng.randint(0, 6))
        dlo = rng.randint(-5, 5)
        delta = C(dlo, dlo + rng.randint(0, 5))
        u = CTuple("a", "b", tau, delta, rng.randint(-8, 12), rng.randint(-8, 12))
        exhaustive = all(
            delta_at(u, t) is not None for t in iv.iter_points(u.tau)
        )
        assert ctuple_valid(u) == exhaustive
        agreement_checked += 1
        if not exhaustive:
            continue
        slices = [(t, delta_at(u, t)) for t in iv.iter_points(u.tau)]
        for (t1, s1), (t2, s2) in zip(slices, slices[1:]):
            assert t1 + s1.lo <= t2 + s2.lo
            assert t1 + s1.hi <= t2 + s2.hi
        valid_checked += 1
    _ok(6, f"monotonicity on {valid_checked} valid tuples, validity agreement on {agreement_checked}")


def test_criterion_7_scaling_table(tmp_path, capsys):
    (tmp_path / "sweep_query.tg").write_text(
        "mode discrete\ndomain [0,8]\nn loop n [0,0]\n", encoding="utf-8"
    )
    (tmp_path / "sweep_graph.tg").write_text(
        "mode discrete\ndomain [0,8]\na e b [0,1]\n", encoding="utf-8"
    )
    factors = "1,2,3,4,5,6,7,8"

    assert main([
        "stats", "--graph", str(tmp_path / "sweep_query.tg"), "--query", "T[0,1]",
        "--scale", "query", "--factors", factors, "--reprs", "t,d,c",
    ]) == 0
    rows = {}
    for line in capsys.readouterr().out.strip().splitlines()[1:]:
        factor, name, count = line.split(",")
        rows[(int(factor), name)] = int(count)
    for i in range(1, 9):
        assert rows[(i, "t")] == i + 1   # linear under query scaling
        assert rows[(i, "d")] == 9       # constant: one tuple per domain point
        assert rows[(i, "c")] == 1       # constant

    assert main([
        "stats", "--graph", str(tmp_path / "sweep_graph.tg"), "--query", "e",
        "--scale", "graph", "--factors", factors, "--reprs", "t,d,c",
    ]) == 0
    rows = {}
    for line in capsys.readouterr().out.strip().splitlines()[1:]:
        factor, name, count = line.split(",")
        rows[(int(factor), name)] = int(count)
    for i in range(1, 9):
        assert rows[(i, "t")] == 1       # constant under graph scaling
        assert rows[(i, "d")] == i + 1   # linear: one tuple per validity point
        assert rows[(i, "c")] == 1       # constant
    _ok(7, "scaling table")


def test_criterion_8_coalescing_uniqueness():
    rng = random.Random(2718)
    for _ in range(200):
        tuples = []
        for _ in range(rng.randint(0, 6)):
            lo = rng.randint(-4, 4)
            tuples.append(
                TTuple(
                    rng.choice(["a", "b"]),
                    rng.choice(["x", "y"]),
                    C(lo, lo + rng.randint(0, 4)),
                    rng.randint(-2, 2),
                )
            )
        s = AnswerSet("t", "discrete", tuples)
        out = coalesce_t(s)
        shuffled = list(tuples)
        rng.shuffle(shuffled)
        assert coalesce_t(AnswerSet("t", "discrete", shuffled)) == out
        assert coalesce_t(out) == out
        assert unfold(out, "t") == unfold(s, "t")
        assert out == minimize_rows(s)  # the pointwise minimum
    _ok(8, "coalescing uniqueness over 200 multisets")


def test_criterion_9_non_uniqueness_witness():
    l_shape = AnswerSet(
        "td",
        "discrete",
        [TDTuple("a", "b", C(0, 1), C(0, 2)), TDTuple("a", "b", C(0, 2), C(0, 1))],
    )
    covers = minimum_covers(l_shape, "overlapping")
    assert all(len(cover) == 2 for cover in covers)
    assert len(covers) >= 2
    region = unfold(l_shape, "td")
    for cover in covers:
        assert unfold(cover, "td") == region
    _ok(9, f"non-uniqueness witness: {len(covers)} distinct minimum covers")
