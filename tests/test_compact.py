import random

import pytest
from hypothesis import given, settings, strategies as st

from trpq import compact, eval_c, eval_direct, eval_t, eval_td, load_graph, parse_query
from trpq import intervals as iv
from trpq.compact import (
    _merge_c,
    _merge_td,
    coalesce_d,
    coalesce_t,
    greedy_reduce,
    minimize_exact,
    minimum_covers,
    remove_subsumed,
)
from trpq.errors import MinimizeGuardError
from trpq.evaluate import AnswerSet
from trpq.tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    c_covers,
    ctuple_valid,
    td_covers,
    tuple_sort_key,
    unfold,
)

from pointwise import minimize_rows
from randgen import random_instance


def C(lo, hi):
    return iv.closed(lo, hi)


def aset(kind, items, mode="discrete"):
    return AnswerSet(kind, mode, items)


# --- coalescing ----------------------------------------------------------------


def test_coalesce_t_q3(running, q3):
    assert len(coalesce_t(eval_t(running, q3))) == 3


def test_coalesce_t_adjacent_runs():
    s = aset("t", [TTuple("a", "b", C(0, 1), 2), TTuple("a", "b", C(2, 4), 2)])
    out = coalesce_t(s)
    assert set(out) == {TTuple("a", "b", C(0, 4), 2)}
    # justified: {0,1} u {2,3,4} is the integer interval [0,4]
    assert unfold(s, "t") == unfold(out, "t")


def test_coalesce_t_singleton_unchanged():
    s = aset("t", [TTuple("a", "b", C(0, 1), 2)])
    assert coalesce_t(s) == s


def test_coalesce_d_examples(running, q3):
    s = aset("d", [DTuple("a", "b", 0, C(1, 2)), DTuple("a", "b", 0, C(2, 5))])
    assert set(coalesce_d(s)) == {DTuple("a", "b", 0, C(1, 5))}
    assert len(coalesce_d(aset("d", []))) == 0


@st.composite
def ttuple_multisets(draw):
    n = draw(st.integers(0, 6))
    out = []
    for _ in range(n):
        lo = draw(st.integers(-4, 4))
        out.append(
            TTuple(
                draw(st.sampled_from(["a", "b"])),
                draw(st.sampled_from(["x", "y"])),
                C(lo, lo + draw(st.integers(0, 4))),
                draw(st.integers(-2, 2)),
            )
        )
    return out


@settings(max_examples=200, deadline=None)
@given(ttuple_multisets(), st.randoms())
def test_coalesce_t_canonical(tuples, rng):
    s = aset("t", tuples)
    out = coalesce_t(s)
    assert coalesce_t(out) == out  # idempotent
    shuffled = list(tuples)
    rng.shuffle(shuffled)
    assert coalesce_t(aset("t", shuffled)) == out  # input order invariant
    assert unfold(s, "t") == unfold(out, "t")  # unfolding preserved
    assert out == minimize_rows(s)  # pointwise minimal
    assert minimize_exact(s, "overlapping") == out


# --- subsumption ----------------------------------------------------------------


def test_remove_subsumed_containment():
    s = aset("td", [TDTuple("a", "b", C(0, 2), C(0, 2)), TDTuple("a", "b", C(0, 1), C(0, 1))])
    assert set(remove_subsumed(s)) == {TDTuple("a", "b", C(0, 2), C(0, 2))}


def test_remove_subsumed_l_shape_kept():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 2)), TDTuple("a", "b", C(0, 2), C(0, 1))])
    assert remove_subsumed(s) == s


def test_remove_subsumed_singleton():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 1))])
    assert remove_subsumed(s) == s


def test_equal_unfoldings_canonicalise_to_one_tuple_before_remove_subsumed():
    # two spellings of one point set: canonicalisation makes them the same
    # tuple, so the answer set holds one tuple before remove_subsumed runs
    u = CTuple("a", "b", C(0, 0), C(0, 5), 0, -5)
    v = CTuple("a", "b", C(0, 0), C(0, 0), 0, 0)
    assert u == v
    s = aset("c", [u, v])
    assert len(s) == 1
    out = remove_subsumed(s)
    assert len(out) == 1
    assert unfold(out, "c") == unfold(s, "c")


# --- exact minimization -----------------------------------------------------------


def test_minimize_q3_counts(running, q3):
    td = eval_td(running, q3)
    assert len(minimize_exact(td, "overlapping")) == 2
    assert len(minimize_exact(td, "disjoint")) == 3
    c = eval_c(running, q3)
    assert len(minimize_exact(c, "overlapping")) == 1
    # all three minimizations still unfold to the same 7 points
    for s in (minimize_exact(td, "overlapping"), minimize_exact(td, "disjoint")):
        assert unfold(s, "td") == eval_direct(running, q3)
    assert unfold(minimize_exact(c, "overlapping"), "c") == eval_direct(running, q3)


def test_minimize_matches_coalesce_for_distances():
    rng = random.Random(6)
    for _ in range(50):
        tuples = []
        for _ in range(rng.randint(0, 6)):
            lo = rng.randint(-4, 4)
            tuples.append(
                DTuple("a", "b", rng.randint(-2, 2), C(lo, lo + rng.randint(0, 4)))
            )
        s = aset("d", tuples)
        assert len(minimize_exact(s, "overlapping")) == len(coalesce_d(s))
        assert unfold(minimize_exact(s, "overlapping"), "d") == unfold(s, "d")
        assert coalesce_d(s) == minimize_rows(s)


def test_minimize_exact_on_rows_is_coalescing_at_any_width(monkeypatch):
    # U^t / U^d rows are minimal once coalesced: no point is enumerated, however wide
    def refuse(*args):
        raise AssertionError("minimize_exact enumerated points")

    monkeypatch.setattr(compact, "cells", refuse)
    monkeypatch.setattr("trpq.tuples.cells", refuse)
    monkeypatch.setattr("trpq.tuples.unfold", refuse)
    g = load_graph("mode discrete\ndomain [0,3000000]\na e b [0,3000000]\n")
    wide_t = eval_t(g, parse_query("e"))
    wide_d = aset("d", [DTuple("a", "b", 0, C(0, 3000000)), DTuple("a", "b", 0, C(5, 9))])
    for s, coalesce in ((wide_t, coalesce_t), (wide_d, coalesce_d)):
        for mode in ("overlapping", "disjoint"):
            assert minimize_exact(s, mode) == coalesce(s)
    assert set(minimize_exact(wide_t)) == {TTuple("a", "b", C(0, 3000000), 0)}
    assert set(minimize_exact(wide_d)) == {DTuple("a", "b", 0, C(0, 3000000))}


def test_minimize_guard():
    s = aset("td", [TDTuple("a", "b", C(0, 9), C(0, 9))])
    with pytest.raises(MinimizeGuardError):
        minimize_exact(s)


def test_minimize_guard_refuses_before_it_enumerates_the_region(monkeypatch):
    # the region of a wide tuple was enumerated in full before its size was checked
    s = aset("td", [TDTuple("a", "b", C(0, 10**9), C(0, 0))])
    enumerated = []
    original = compact.cells

    def counting(u):
        for cell in original(u):
            enumerated.append(cell)
            assert len(enumerated) <= 65, "the guard let more than 65 cells through"
            yield cell

    monkeypatch.setattr(compact, "cells", counting)
    with pytest.raises(MinimizeGuardError) as err:
        minimize_exact(s)
    assert "more than 64 cells" in str(err.value)


def test_minimum_covers_l_shape():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 2)), TDTuple("a", "b", C(0, 2), C(0, 1))])
    covers = minimum_covers(s, "overlapping")
    assert all(len(cover) == 2 for cover in covers)
    assert len(covers) >= 2
    region = unfold(s, "td")
    for cover in covers:
        assert unfold(cover, "td") == region


def test_minimum_covers_disjoint_l_shape_not_unique():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 2)), TDTuple("a", "b", C(0, 2), C(0, 1))])
    covers = minimum_covers(s, "disjoint")
    assert all(len(cover) == 2 for cover in covers)
    assert len(covers) >= 2  # split the L horizontally or vertically


def test_minimum_covers_c_l_shape_not_unique():
    # arms of width two: the inner corner steps by more than one, which no
    # single slope -1 crop can trace, so two cropped tuples are needed
    s = aset("c", [
        CTuple("a", "b", C(0, 1), C(0, 3), 0, 1),
        CTuple("a", "b", C(0, 3), C(0, 1), 0, 3),
    ])
    covers = minimum_covers(s, "overlapping")
    sizes = {len(cover) for cover in covers}
    assert sizes == {2}
    assert len(covers) >= 2


def test_minimum_covers_c_unit_step_is_one_tuple():
    # an L whose step is exactly one unit is a discrete crop line: one tuple
    s = aset("c", [
        CTuple("a", "b", C(0, 1), C(0, 2), 0, 1),
        CTuple("a", "b", C(0, 2), C(0, 1), 0, 2),
    ])
    covers = minimum_covers(s, "overlapping")
    assert {len(cover) for cover in covers} == {1}


def test_minimize_exact_is_deterministic(running, q3):
    td = eval_td(running, q3)
    assert minimize_exact(td, "overlapping") == minimize_exact(td, "overlapping")


# --- greedy reduction ---------------------------------------------------------------


def test_greedy_keeps_minimal_input():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 0)), TDTuple("a", "b", C(3, 4), C(0, 0))])
    assert greedy_reduce(s) == s


def test_greedy_merges_adjacent():
    s = aset("td", [TDTuple("a", "b", C(0, 1), C(0, 0)), TDTuple("a", "b", C(2, 3), C(0, 0))])
    assert set(greedy_reduce(s)) == {TDTuple("a", "b", C(0, 3), C(0, 0))}


def test_greedy_on_eval_c_output(running, q3):
    raw = eval_c(running, q3)
    out = greedy_reduce(raw)
    assert len(out) <= len(raw)
    assert unfold(out, "c") == eval_direct(running, q3)


def test_greedy_merges_cropped_band():
    # two halves of one anti-diagonal band merge back into a single tuple
    whole = CTuple("a", "b", C(0, 4), C(0, 4), 0, 0)
    left = CTuple("a", "b", C(0, 2), C(0, 4), 0, 0)
    right = CTuple("a", "b", C(3, 4), C(0, 1), 3, 3)
    s = aset("c", [left, right])
    assert unfold(s, "c") == unfold(aset("c", [whole]), "c")
    out = greedy_reduce(s)
    assert len(out) == 1
    assert unfold(out, "c") == unfold(s, "c")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(-3, 3),
                          st.integers(0, 3)), max_size=4))
def test_reducers_preserve_unfoldings(specs):
    tuples = [TDTuple("a", "b", C(lo, lo + w1), C(dlo, dlo + w2))
              for lo, w1, dlo, w2 in specs]
    s = aset("td", tuples)
    region = unfold(s, "td")
    assert unfold(remove_subsumed(s), "td") == region
    reduced = greedy_reduce(s)
    assert unfold(reduced, "td") == region
    assert len(reduced) <= len(s)


def test_greedy_reduce_is_permutation_invariant():
    rng = random.Random(13)
    for _ in range(30):
        tuples = []
        for _ in range(rng.randint(2, 6)):
            lo, dlo = rng.randint(-3, 3), rng.randint(-3, 3)
            tuples.append(
                TDTuple("a", "b", C(lo, lo + rng.randint(0, 3)), C(dlo, dlo + rng.randint(0, 3)))
            )
        reference = greedy_reduce(aset("td", tuples))
        shuffled = list(tuples)
        rng.shuffle(shuffled)
        assert greedy_reduce(aset("td", shuffled)) == reference


def test_random_eval_outputs_reduced_but_equal():
    for seed in range(40):
        G, q = random_instance(seed)
        td = eval_td(G, q)
        want = eval_direct(G, q)
        assert unfold(greedy_reduce(remove_subsumed(td)), "td") == want
        c = eval_c(G, q)
        assert unfold(greedy_reduce(remove_subsumed(c)), "c") == want


# --- per-pair compaction against the all-pairs reference ----------------------------


def _reference_remove_subsumed(s):
    """Subsumption removal comparing every tuple with every other, across all pairs."""
    dominates = td_covers if s.kind == "td" else c_covers
    ordered = s.tuples
    kept = []
    for i, u in enumerate(ordered):
        dominated = False
        for j, v in enumerate(ordered):
            if i == j:
                continue
            if dominates(v, u) and (not dominates(u, v) or j < i):
                dominated = True
                break
        if not dominated:
            kept.append(u)
    return AnswerSet(s.kind, s.mode, kept)


def _reference_greedy_reduce(s):
    """Greedy reduction restarting from the first mergeable pair of the whole list.

    It tries every pair, with no stop at a tuple out of reach, and applies the
    node-pair check and the cover rule itself.
    """
    covers, merge = (td_covers, _merge_td) if s.kind == "td" else (c_covers, _merge_c)
    discrete = s.mode == "discrete"
    tuples = list(s.tuples)
    changed = True
    while changed:
        changed = False
        tuples.sort(key=tuple_sort_key)
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                a, b = tuples[i], tuples[j]
                if (a.n1, a.n2) != (b.n1, b.n2):
                    continue
                merged = a if covers(a, b) else b if covers(b, a) else merge(a, b, discrete)
                if merged is None:
                    continue
                del tuples[j]
                del tuples[i]
                tuples.append(merged)
                changed = True
                break
            if changed:
                break
    return AnswerSet(s.kind, s.mode, tuples)


_PAIRS = [("a", "b"), ("a", "c"), ("b", "a"), ("c", "c")]


def _make(kind, n1, n2, tau, delta, b, e):
    if kind == "td":
        return TDTuple(n1, n2, tau, delta)
    u = CTuple(n1, n2, tau, delta, b, e)
    return u if ctuple_valid(u) else None


def _random_pair_tuples(rng, kind):
    """Tuples over 2-4 node pairs: containments, mergeable neighbours, twins in other pairs.

    Twins stand in for ties: a search over random valid tuples found no two
    distinct ones of one pair that cover each other, as the constructors
    canonicalise crop points.
    """
    pairs = rng.sample(_PAIRS, rng.randint(2, 4))
    out = []
    for k in range(rng.randint(len(pairs), 10)):
        n1, n2 = pairs[k] if k < len(pairs) else rng.choice(pairs)
        base = None
        while base is None:
            lo, dlo = rng.randint(-3, 3), rng.randint(0, 3)
            tau, delta = C(lo, lo + rng.randint(0, 3)), C(dlo, dlo + rng.randint(0, 3))
            b, e = rng.randint(tau.lo - 1, tau.hi), rng.randint(tau.lo, tau.hi + 1)
            base = _make(kind, n1, n2, tau, delta, b, e)
        out.append(base)
        variants = [
            # the same shape in another pair: equal unfolding, different pair
            (rng.choice(pairs), tau, delta, b, e),
            # a neighbour sharing delta (and crop) on the next time span
            ((n1, n2), C(tau.hi + 1, tau.hi + 1 + rng.randint(0, 2)), delta, b, e),
            # a neighbour sharing tau on the next distances
            ((n1, n2), tau, C(delta.hi + 1, delta.hi + 2), b, e),
            # a tuple inside this one
            ((n1, n2), C(tau.lo, tau.lo), C(delta.lo, delta.lo), b, e),
            # c: cropped from the start of tau, inside this one; td: a taller rectangle
            ((n1, n2), tau, C(delta.lo, delta.hi + 1), b, tau.lo - 1),
        ]
        for pair, t, d, bb, ee in rng.sample(variants, rng.randint(0, 2)):
            u = _make(kind, *pair, t, d, bb, ee)
            if u is not None:
                out.append(u)
    return out


def test_per_pair_compaction_matches_all_pairs_reference_on_random_lists():
    rng = random.Random(2024)
    for _ in range(300):
        kind = rng.choice(["td", "c"])
        s = aset(kind, _random_pair_tuples(rng, kind), rng.choice(["discrete", "dense"]))
        assert len({(u.n1, u.n2) for u in s}) >= 2
        kept = remove_subsumed(s)
        assert kept == _reference_remove_subsumed(s)
        assert greedy_reduce(s) == _reference_greedy_reduce(s)
        assert greedy_reduce(kept) == _reference_greedy_reduce(kept)


def test_per_pair_compaction_matches_all_pairs_reference_on_eval_output():
    for seed in range(40):
        G, q = random_instance(seed)
        for s in (eval_td(G, q), eval_c(G, q)):
            kept = remove_subsumed(s)
            assert kept == _reference_remove_subsumed(s)
            assert greedy_reduce(kept) == _reference_greedy_reduce(kept)


def _compaction_inputs():
    """Answer sets of td and c: eval output on randgen seeds, then random pair lists."""
    for seed in range(300):
        G, q = random_instance(seed)
        yield eval_td(G, q)
        yield eval_c(G, q)
    rng = random.Random(21)
    for _ in range(300):
        kind = rng.choice(["td", "c"])
        yield aset(kind, _random_pair_tuples(rng, kind), rng.choice(["discrete", "dense"]))


def test_compaction_returns_canonical_sets_and_its_input_when_nothing_changes():
    returned_input = changed = 0
    for s in _compaction_inputs():
        kept = remove_subsumed(s)
        reduced = greedy_reduce(kept)
        assert kept == _reference_remove_subsumed(s)
        assert reduced == _reference_greedy_reduce(kept)
        for before, after in [(s, kept), (kept, reduced)]:
            # every output is canonical: what an AnswerSet of its tuples would hold
            assert after.tuples == AnswerSet(after.kind, after.mode, after.tuples).tuples
            # each drop or merge removes a tuple, so an unchanged size means nothing changed
            assert (after is before) == (len(after) == len(before))
            returned_input += after is before
            changed += after is not before
    assert returned_input > 500 and changed > 300, (returned_input, changed)


def _comb(width):
    """One node, an e-edge at every third time point of [0, width]."""
    facts = "".join(f"a e a [{i},{i}]\n" for i in range(0, width + 1, 3))
    return load_graph(f"mode discrete\ndomain [0,{width}]\n{facts}")


def test_greedy_reduce_on_c_enumerates_no_cells_for_pairs_that_cannot_merge(monkeypatch):
    # e/T[0,7]/e gives one node pair many cropped tuples, most of them far apart
    # in time; their cells were enumerated for every pair, about 88 calls per tuple
    s = remove_subsumed(eval_c(_comb(60), parse_query("e/T[0,7]/e")))
    calls = []
    original = compact.cells

    def counting(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(compact, "cells", counting)
    got = greedy_reduce(s)
    monkeypatch.undo()
    assert len(s) == 60 and got is s
    assert len(calls) < 4 * len(s)


def test_greedy_reduce_compares_a_tuple_only_with_the_tuples_in_its_reach(monkeypatch):
    # a run is in order of lo(tau), so the scan for a tuple stops at the first later
    # one whose tau neither meets nor touches its own; a scan of all pairs made 59
    s = remove_subsumed(eval_c(_comb(60), parse_query("e/T[0,7]/e")))
    calls = []
    original = compact.c_covers

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(compact, "c_covers", counting)
    got = greedy_reduce(s)
    monkeypatch.undo()
    assert len(s) == 60 and got is s
    assert len(calls) < 4 * len(s)


def test_remove_subsumed_compares_a_tuple_only_with_the_tuples_in_its_reach(monkeypatch):
    # the scan of a tuple compared it with every tuple that starts no later: 1,828 calls
    s = eval_c(_comb(60), parse_query("e/T[0,7]/e"))
    calls = []
    original = compact.c_covers

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(compact, "c_covers", counting)
    got = remove_subsumed(s)
    monkeypatch.undo()
    assert len(got) == 60
    assert len(calls) < 4 * len(s)


def test_greedy_reduce_goes_on_after_a_cover_without_sorting_again(monkeypatch):
    # one tuple covers 200 others; restarting and sorting after each cover made 20,100 calls
    wide = TDTuple("a", "b", C(0, 200), C(0, 5))
    s = aset("td", [wide] + [TDTuple("a", "b", C(t, t), C(1, 2)) for t in range(1, 201)])
    calls = []
    original = compact.tuple_sort_key

    def counting(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(compact, "tuple_sort_key", counting)
    got = greedy_reduce(s)
    monkeypatch.undo()
    assert got == aset("td", [wide])
    assert len(calls) < 200


# --- API guards ----------------------------------------------------------------


_T_SET = aset("t", [TTuple("a", "b", C(0, 1), 0)])
_D_SET = aset("d", [DTuple("a", "b", 0, C(0, 1))])


@pytest.mark.parametrize("call, s, message", [
    (coalesce_t, _D_SET, "coalesce_t expects a U^t answer set, got 'd'"),
    (coalesce_d, _T_SET, "coalesce_d expects a U^d answer set, got 't'"),
    (remove_subsumed, _T_SET, "subsumption is defined for U^td and U^c, got 't'"),
    (remove_subsumed, _D_SET, "subsumption is defined for U^td and U^c, got 'd'"),
    (greedy_reduce, _T_SET, "greedy_reduce is defined for U^td and U^c, got 't'"),
    (greedy_reduce, _D_SET, "greedy_reduce is defined for U^td and U^c, got 'd'"),
    (
        lambda s: minimize_exact(s, "maximal"), _T_SET,
        "unknown minimization mode 'maximal'",
    ),
    (
        minimize_exact, aset("point", []),
        "cannot minimize representation 'point' here; expected one of ('t', 'd', 'td', 'c')",
    ),
    (
        minimum_covers, aset("td", [TDTuple("a", "b", C(0, 1), C(0, 0)),
                                    TDTuple("a", "c", C(0, 1), C(0, 0))]),
        "cover enumeration expects a single node pair",
    ),
], ids=[
    "coalesce_t", "coalesce_d", "remove_subsumed-t", "remove_subsumed-d", "greedy_reduce-t",
    "greedy_reduce-d", "minimize_exact-mode", "minimize_exact-kind", "minimum_covers-pairs",
])
def test_compaction_rejects_what_it_is_not_defined_for(call, s, message):
    with pytest.raises(ValueError) as err:
        call(s)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["td", "c"])
def test_minimum_covers_of_an_empty_set_is_the_empty_cover(kind):
    assert minimum_covers(aset(kind, [])) == [aset(kind, [])]


def test_answer_set_rejects_an_unknown_kind():
    with pytest.raises(ValueError) as err:
        AnswerSet("tc", "discrete", [])
    assert str(err.value) == "unknown representation 'tc'"
    # equal sets, whatever the order and repeats of their items, hash equal: one dict key
    items = [
        TDTuple("b", "c", iv.closed(2, 3), iv.point(0)),
        TDTuple("a", "b", iv.closed(0, 1), iv.point(1)),
    ]
    first, second = AnswerSet("td", "discrete", items), AnswerSet("td", "discrete", items[::-1] * 2)
    assert first == second and hash(first) == hash(second)
    assert len({first: 1, second: 2}) == 1
    assert repr(first) == "AnswerSet('td', 'discrete', 2 tuples)"
