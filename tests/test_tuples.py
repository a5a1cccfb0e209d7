import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from trpq import eval_direct, join_c
from trpq import intervals as iv
from trpq.errors import DenseInfeasibleError, EmptyIntervalError, TrpqError
from trpq.intervals import Interval, Number
from trpq.oracle import PointTuple
from trpq.tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    as_ctuple,
    as_td,
    admissible_window,
    arrival_times,
    band,
    c_covers,
    cells,
    ctuple_valid,
    delta_at,
    render_tuple,
    td_covers,
    tuple_sort_key,
    unfold_c,
    unfold_d,
    unfold_t,
    unfold_td,
)

from randgen import HALF_STEPS, random_mixed_interval


def C(lo, hi):
    return iv.closed(lo, hi)


# --- delta_at ---------------------------------------------------------------


def test_delta_at_cropped_square():
    c = CTuple("a", "b", C(0, 2), C(0, 2), 1, 1)
    assert delta_at(c, 0) == C(1, 2)
    assert delta_at(c, 1) == C(0, 2)
    assert delta_at(c, 2) == C(0, 1)


def test_delta_at_uncropped_is_constant():
    c = CTuple("a", "b", C(3, 7), C(1, 4), 3, 7)
    for t in range(3, 8):
        assert delta_at(c, t) == C(1, 4)


def test_delta_at_matches_direct_evaluation(running, q3, q3_points):
    # slices of the single cropped tuple reproduce the query's point answers
    c = CTuple("ICDT", "ISWC", C(100, 102), C(3, 5), 101, 101)
    per_t = {}
    for t, d in q3_points:
        per_t.setdefault(t, set()).add(d)
    directly = {
        (p.t, p.d) for p in eval_direct(running, q3)
    }
    assert {(t, d) for t, ds in per_t.items() for d in ds} == directly
    assert delta_at(c, 100) == C(4, 5)
    assert delta_at(c, 102) == C(3, 4)
    for t, ds in per_t.items():
        assert set(iv.iter_points(delta_at(c, t))) == ds


def test_delta_at_outside_tau():
    c = CTuple("a", "b", C(0, 2), C(0, 2), 1, 1)
    with pytest.raises(ValueError):
        delta_at(c, 5)


def test_delta_at_keeps_delimiters():
    c = CTuple("a", "b", C(0, 2), iv.Interval(0, 2, False, True), 1, 1)
    assert delta_at(c, 0) == iv.Interval(1, 2, False, True)


# --- validity ---------------------------------------------------------------


def test_ctuple_valid_examples():
    assert ctuple_valid(CTuple("a", "b", C(100, 102), C(3, 5), 101, 101))
    # the middle of [0,10] would need the empty slice [1,0]
    assert not ctuple_valid(CTuple("a", "b", C(0, 10), C(0, 1), 10, 0))
    assert ctuple_valid(CTuple("a", "b", C(0, 9), C(0, 4), 0, 9))  # uncropped


def test_ctuple_valid_open_endpoint_edge():
    # the slice dies exactly at the excluded endpoint: still valid
    tau_open = iv.Interval(4, 6, False, False)
    c = CTuple("a", "b", tau_open, iv.Interval(0, 1, True, False), 5, 10)
    assert delta_at(c, Fraction(9, 2)) is not None
    assert ctuple_valid(c)
    closed_at_4 = CTuple("a", "b", C(4, 6), iv.Interval(0, 1, True, False), 5, 10)
    assert delta_at(closed_at_4, 4) is None
    assert not ctuple_valid(closed_at_4)


def _reference_ctuple_valid(c):
    # the definition ctuple_valid implements: tau within the admissible window
    ok = admissible_window(c.delta, c.b, c.e)
    return ok is not None and iv.covers(ok, c.tau)


def test_ctuple_valid_matches_admissible_window_reference():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(20_000):
        tau = random_mixed_interval(rng, HALF_STEPS)
        delta = random_mixed_interval(rng, HALF_STEPS)
        # crop points drawn well past tau on both sides
        b = rng.choice(HALF_STEPS) * 2
        e = rng.choice(HALF_STEPS) * 2
        c = CTuple("a", "b", tau, delta, b, e)
        valid = ctuple_valid(c)
        assert valid == _reference_ctuple_valid(c), c
        outcomes[valid] += 1
    assert min(outcomes.values()) > 2_500


@dataclass(frozen=True, slots=True)
class _ReferenceCTuple:
    # the canonicalisation CTuple made in __post_init__ when it was a frozen
    # dataclass, kept verbatim to check the one it now makes in __new__
    n1: str
    n2: str
    tau: Interval
    delta: Interval
    b: object
    e: object

    def __post_init__(self):
        if self.b < self.tau.lo:
            object.__setattr__(self, "b", self.tau.lo)
        elif self.b > self.tau.hi:
            lo = self.delta.lo + (self.b - self.tau.hi)
            if self._representable(lo, self.delta.hi):
                object.__setattr__(
                    self,
                    "delta",
                    Interval(lo, self.delta.hi, self.delta.left_closed, self.delta.right_closed),
                )
                object.__setattr__(self, "b", self.tau.hi)
        if self.e > self.tau.hi:
            object.__setattr__(self, "e", self.tau.hi)
        elif self.e < self.tau.lo:
            hi = self.delta.hi - (self.tau.lo - self.e)
            if self._representable(self.delta.lo, hi):
                object.__setattr__(
                    self,
                    "delta",
                    Interval(self.delta.lo, hi, self.delta.left_closed, self.delta.right_closed),
                )
                object.__setattr__(self, "e", self.tau.lo)

    def _representable(self, lo, hi) -> bool:
        if lo < hi:
            return True
        return lo == hi and self.delta.left_closed and self.delta.right_closed


def test_ctuple_canonical_form_matches_the_post_init_reference():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(20_000):
        tau = random_mixed_interval(rng, HALF_STEPS)
        delta = random_mixed_interval(rng, HALF_STEPS)
        b = rng.choice(HALF_STEPS) * 2  # crop points often outside tau, on either side
        e = rng.choice(HALF_STEPS) * 2
        got = CTuple("a", "b", tau, delta, b, e)
        ref = _ReferenceCTuple("a", "b", tau, delta, b, e)
        want = (ref.n1, ref.n2, ref.tau, ref.delta, ref.b, ref.e)
        assert tuple(got) == want, (tau, delta, b, e)
        assert [type(x) for x in got] == [type(x) for x in want]
        # the new form is a fixpoint, like the old one
        assert CTuple(*got) == got
        # every branch: clamped, inside, slid with delta, or too narrow to slide
        seen["b", "below" if b < tau.lo else "inside" if b <= tau.hi else
             "slid" if got.b != b else "stays"] += 1
        seen["e", "above" if e > tau.hi else "inside" if e >= tau.lo else
             "slid" if got.e != e else "stays"] += 1
    assert len(seen) == 8 and min(seen.values()) > 1_000, seen


def _valid_ctuple(rng, n1, n2):
    while True:
        tau = random_mixed_interval(rng, HALF_STEPS)
        delta = random_mixed_interval(rng, HALF_STEPS[6:19])  # within [-3, 3]
        u = CTuple(n1, n2, tau, delta, rng.choice(HALF_STEPS), rng.choice(HALF_STEPS))
        if ctuple_valid(u):
            return u


def test_joined_ctuples_copied_to_new_nodes_need_no_canonical_form():
    # a join made once is copied to other node pairs with _make, which skips
    # CTuple's canonical form: that form must never read the nodes
    rng = random.Random(20261019)
    joined = []
    while len(joined) < 1_000:
        u = join_c(_valid_ctuple(rng, "a", "b"), _valid_ctuple(rng, "b", "c"))
        if u is not None:
            joined.append(u)
    nodes = ["a", "c", "n0", "zz", "A"]
    for u in joined:
        for n1 in nodes:
            for n2 in nodes:
                copied, made = u._make((n1, n2, *u[2:])), CTuple(n1, n2, *u[2:])
                assert copied == made and repr(copied) == repr(made), (u, n1, n2)
    cropped = sum(u.b > u.tau.lo or u.e < u.tau.hi for u in joined)
    assert cropped > 250, cropped


@st.composite
def arbitrary_ctuples(draw):
    lo = draw(st.integers(-5, 5))
    tau = C(lo, lo + draw(st.integers(0, 6)))
    dlo = draw(st.integers(-5, 5))
    delta = C(dlo, dlo + draw(st.integers(0, 5)))
    b = draw(st.integers(-8, 12))
    e = draw(st.integers(-8, 12))
    return CTuple("a", "b", tau, delta, b, e)


@settings(max_examples=500, deadline=None)
@given(arbitrary_ctuples())
def test_validity_check_matches_exhaustive_slices(c):
    exhaustive = all(delta_at(c, t) is not None for t in iv.iter_points(c.tau))
    assert ctuple_valid(c) == exhaustive


@settings(max_examples=500, deadline=None)
@given(arbitrary_ctuples())
def test_slice_bounds_monotone_for_valid_tuples(c):
    if not ctuple_valid(c):
        window = admissible_window(c.delta, c.b, c.e)
        assert window is None or not iv.covers(window, c.tau)
        return
    slices = [(t, delta_at(c, t)) for t in iv.iter_points(c.tau)]
    for (t1, s1), (t2, s2) in zip(slices, slices[1:]):
        assert t1 + s1.lo <= t2 + s2.lo
        assert t1 + s1.hi <= t2 + s2.hi


@settings(max_examples=300, deadline=None)
@given(arbitrary_ctuples())
def test_arrival_set_is_contiguous(c):
    if not ctuple_valid(c):
        return
    arrivals = sorted({p.t + p.d for p in unfold_c([c])})
    assert arrivals == list(range(arrivals[0], arrivals[-1] + 1))


# --- unfolding ---------------------------------------------------------------


def test_unfold_t_reproduces_point_answers(q3_points):
    tuples = [
        TTuple("ICDT", "ISWC", C(100, 101), 5),
        TTuple("ICDT", "ISWC", C(100, 102), 4),
        TTuple("ICDT", "ISWC", C(101, 102), 3),
    ]
    assert unfold_t(tuples) == frozenset(
        PointTuple("ICDT", "ISWC", t, d) for t, d in q3_points
    )


def test_unfold_td_degenerate_distance():
    out = unfold_td([TDTuple("a", "b", C(0, 1), C(0, 0))])
    assert out == {PointTuple("a", "b", 0, 0), PointTuple("a", "b", 1, 0)}


def test_unfold_c_equals_direct(running, q3):
    c = CTuple("ICDT", "ISWC", C(100, 102), C(3, 5), 101, 101)
    assert unfold_c([c]) == eval_direct(running, q3)


def test_unfold_d():
    out = unfold_d([DTuple("a", "b", 3, C(1, 2))])
    assert out == {PointTuple("a", "b", 3, 1), PointTuple("a", "b", 3, 2)}


def test_unfold_rejects_dense_sets():
    from trpq.evaluate import AnswerSet

    dense = AnswerSet("t", "dense", [TTuple("a", "b", C(0, 1), 0)])
    with pytest.raises(DenseInfeasibleError):
        unfold_t(dense)


# --- conversions and containment ----------------------------------------------


@given(st.integers(-5, 5), st.integers(0, 4), st.integers(-5, 5))
def test_ttuple_embeds_as_rectangle(lo, width, d):
    u = TTuple("a", "b", C(lo, lo + width), d)
    assert unfold_t([u]) == unfold_td([as_td(u)])


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 4))
def test_dtuple_embeds_as_rectangle(t, dlo, width):
    u = DTuple("a", "b", t, C(dlo, dlo + width))
    assert unfold_d([u]) == unfold_td([as_td(u)])


@given(st.integers(-5, 5), st.integers(0, 4), st.integers(-5, 5), st.integers(0, 4))
def test_rectangle_embeds_as_uncropped(lo, w1, dlo, w2):
    u = TDTuple("a", "b", C(lo, lo + w1), C(dlo, dlo + w2))
    c = as_ctuple(u)
    assert ctuple_valid(c)
    assert unfold_td([u]) == unfold_c([c])


def test_td_covers():
    big = TDTuple("a", "b", C(0, 2), C(0, 2))
    small = TDTuple("a", "b", C(0, 1), C(0, 1))
    assert td_covers(big, small)
    assert not td_covers(small, big)
    assert not td_covers(big, TDTuple("a", "x", C(0, 1), C(0, 1)))


@settings(max_examples=400, deadline=None)
@given(arbitrary_ctuples(), arbitrary_ctuples())
def test_c_covers_matches_unfolding_containment(u, v):
    if not (ctuple_valid(u) and ctuple_valid(v)):
        return
    assert c_covers(u, v) == (unfold_c([v]) <= unfold_c([u]))


def test_c_covers_dense_crop_lines():
    u = CTuple("a", "b", C(0, 4), C(0, 4), 2, 2)
    v = CTuple("a", "b", C(1, 3), C(1, 2), 2, 2)
    assert c_covers(u, v) == (unfold_c([v]) <= unfold_c([u]))
    w = CTuple("a", "b", C(0, 4), iv.Interval(0, 4, True, False), 2, 2)
    assert not c_covers(w, u)  # open upper bound cannot contain the closed one
    assert c_covers(u, w)


def test_c_covers_dense_grid_sampled():
    # delimiter-aware containment against grid-sampled point sets, with open
    # and half-open intervals in play
    import random as random_mod

    rng = random_mod.Random(77)

    def rand_interval(span):
        k = 2
        lo = Fraction(rng.randint(-6, 6), k)
        width = Fraction(rng.randint(0, span), k)
        lc, rc = rng.random() < 0.7, rng.random() < 0.7
        if width == 0:
            lc = rc = True
        return iv.Interval(lo, lo + width, lc, rc)

    def rand_tuple():
        return CTuple("a", "b", rand_interval(6), rand_interval(6),
                      Fraction(rng.randint(-8, 10), 2), Fraction(rng.randint(-8, 10), 2))

    def grid_points(u, grid):
        out = set()
        for t in grid:
            if not iv.contains(u.tau, t):
                continue
            sl = delta_at(u, t)
            if sl is None:
                continue
            for d in grid:
                if iv.contains(sl, d):
                    out.add((t, d))
        return out

    grid = [Fraction(i, 4) for i in range(-40, 60)]
    checked = 0
    while checked < 120:
        u, v = rand_tuple(), rand_tuple()
        if not (ctuple_valid(u) and ctuple_valid(v)):
            continue
        checked += 1
        claim = c_covers(u, v)
        sampled = grid_points(v, grid) <= grid_points(u, grid)
        # countable grid can miss an open-boundary separation, so the claim
        # must imply sampled containment; and on this quarter-step grid the
        # converse holds for quarter-step inputs too
        assert claim == sampled


# The piecewise-linear dominance check c_covers made before it became three
# slab containments, kept verbatim (bar the name) as the reference for it.


def _lower_bound_at(c: CTuple, t: Number) -> Number:
    return c.delta.lo + max(0, c.b - t)


def _upper_bound_at(c: CTuple, t: Number) -> Number:
    return c.delta.hi - max(0, t - c.e)


def _pieces(lo: Number, hi: Number, breaks: Iterable[Number]):
    cuts = sorted({lo, hi, *(x for x in breaks if lo < x < hi)})
    return list(zip(cuts, cuts[1:])) if len(cuts) > 1 else [(lo, hi)]


def _dominates(diff_fn, tau: Interval, breaks, tie_ok: bool) -> bool:
    """Check diff_fn(t) >= 0 for all t in tau, with equality allowed iff tie_ok.

    diff_fn is piecewise linear with the given breakpoints, so it suffices to
    look at the endpoints of each linear piece, minding tau's delimiters.
    """
    for p, q in _pieces(tau.lo, tau.hi, breaks):
        a, b = diff_fn(p), diff_fn(q)
        if a < 0 or b < 0:
            return False
        if tie_ok:
            continue
        if a == 0:
            in_tau = iv.contains(tau, p)
            if in_tau or b == 0:  # zero attained inside tau, or flat zero piece
                return False
        if b == 0 and iv.contains(tau, q):
            return False
    return True


def _reference_c_covers(u: CTuple, v: CTuple) -> bool:
    """True when v's induced point set is contained in u's (both assumed valid).

    Decided analytically: slice bounds are piecewise linear in t, so dominance
    is checked at piece endpoints only; exact over both modes.
    """
    if (u.n1, u.n2) != (v.n1, v.n2):
        return False
    if not iv.covers(u.tau, v.tau):
        return False
    breaks = (u.b, u.e, v.b, v.e)
    lower_ok = _dominates(
        lambda t: _lower_bound_at(v, t) - _lower_bound_at(u, t),
        v.tau,
        breaks,
        tie_ok=u.delta.left_closed or not v.delta.left_closed,
    )
    if not lower_ok:
        return False
    return _dominates(
        lambda t: _upper_bound_at(u, t) - _upper_bound_at(v, t),
        v.tau,
        breaks,
        tie_ok=u.delta.right_closed or not v.delta.right_closed,
    )


_INTEGERS = list(range(-6, 7))
# the half-step lattice scaled by 2: the same shapes in int arithmetic
_DOUBLED_HALF_STEPS = [int(2 * x) for x in HALF_STEPS]


def _random_valid_ctuple(rng, values):
    """A valid cropped tuple: endpoints and crop points from ``values``.

    With ``values`` None it is discrete: closed intervals of ``_INTEGERS``.
    Otherwise each delimiter is random.
    """
    while True:
        if values is None:
            tau, delta = (C(*sorted(rng.sample(_INTEGERS, 2))) for _ in range(2))
            b, e = rng.choice(_INTEGERS), rng.choice(_INTEGERS)
        else:
            tau, delta = random_mixed_interval(rng, values), random_mixed_interval(rng, values)
            b, e = rng.choice(values), rng.choice(values)
        c = CTuple("a", "b", tau, delta, b, e)
        if ctuple_valid(c):
            return c


def _nudged(rng, c, step, flip: bool):
    """A valid tuple near c: an endpoint or crop point moved by ``step``, or a delimiter flipped."""
    while True:
        fields = {"tau": list(c.tau), "delta": list(c.delta), "b": c.b, "e": c.e}
        which = rng.choice(("tau", "delta", "b", "e"))
        if which in ("b", "e"):
            fields[which] += rng.choice((-step, step))
        elif flip and rng.random() < 0.4:
            fields[which][rng.randrange(2, 4)] ^= True
        else:
            fields[which][rng.randrange(2)] += rng.choice((-step, step))
        try:
            tau, delta = Interval(*fields["tau"]), Interval(*fields["delta"])
        except EmptyIntervalError:
            continue
        near = CTuple("a", "b", tau, delta, fields["b"], fields["e"])
        if ctuple_valid(near):
            return near


@pytest.mark.parametrize(
    "values, step, rounds",
    [
        (HALF_STEPS, Fraction(1, 2), 10_000),
        (_DOUBLED_HALF_STEPS, 1, 15_000),
        (None, 1, 25_000),
    ],
    ids=["dense-half-steps", "dense-doubled", "discrete"],
)
def test_c_covers_matches_the_dominance_reference(values, step, rounds):
    # 4 pairs a round, 200,000 over the three cases: half of them random, half
    # a tuple against a near copy of itself, both ways round
    rng = random.Random(f"c_covers {step} {rounds}")
    outcomes = Counter()
    for _ in range(rounds):
        u, v = _random_valid_ctuple(rng, values), _random_valid_ctuple(rng, values)
        near = _nudged(rng, u, step, flip=values is not None)
        for x, y in ((u, v), (v, u), (u, near), (near, u)):
            got = c_covers(x, y)
            assert got == _reference_c_covers(x, y), (x, y)
            outcomes[got] += 1
    assert min(outcomes.values()) > rounds // 2, outcomes


@pytest.mark.parametrize("values", [HALF_STEPS, None], ids=["dense", "discrete"])
def test_slice_window_and_arrivals_are_read_off_the_band(values):
    rng = random.Random(f"band {values is None}")
    quarter = Fraction(1, 4)
    for _ in range(3_000):
        c = _random_valid_ctuple(rng, values)
        s = band(c)
        # the slice at t is delta n (band - t), at every quarter step of tau
        t = c.tau.lo
        while t <= c.tau.hi:
            if iv.contains(c.tau, t):
                assert delta_at(c, t) == iv.intersect(c.delta, iv.shift(s, -t)), (c, t)
            t += quarter
        assert admissible_window(c.delta, c.b, c.e) == iv.mdiff(s, c.delta), c
        assert arrival_times(c) == iv.intersect(s, iv.msum(c.tau, c.delta)), c
        if values is None:
            sums = {t + d for t, d in cells(c)}
            assert sums == set(iv.iter_points(arrival_times(c))), c
        # crop points drawn freely: an empty band leaves no admissible time
        b, e = rng.choice(_INTEGERS), rng.choice(_INTEGERS)
        try:
            raw = iv.Interval(b + c.delta.lo, e + c.delta.hi, *c.delta[2:])
        except EmptyIntervalError:
            assert admissible_window(c.delta, b, e) is None
        else:
            assert admissible_window(c.delta, b, e) == iv.mdiff(raw, c.delta)


# --- rendering ----------------------------------------------------------------


def test_render_formats():
    assert (
        render_tuple(CTuple("ICDT", "ISWC", C(100, 102), C(3, 5), 101, 101))
        == "c ICDT ISWC [100,102] [3,5] b=101 e=101"
    )
    assert render_tuple(TTuple("a", "b", C(0, 1), 2)) == "t a b [0,1] 2"
    assert render_tuple(DTuple("a", "b", 0, C(1, 5))) == "d a b 0 [1,5]"
    assert render_tuple(TDTuple("a", "b", C(0, 1), C(2, 3))) == "td a b [0,1] [2,3]"
    assert render_tuple(PointTuple("a", "b", 1, 2)) == "p a b 1 2"


def _generic_sort_key(u):
    """Nodes, then each field in order, an interval as (lo, open left, hi, open right)."""
    key = []
    for x in u:
        is_interval = isinstance(x, Interval)
        key.extend((x.lo, not x.left_closed, x.hi, not x.right_closed) if is_interval else (x,))
    return tuple(key)


def _generic_render(u):
    """One tuple's line: its kind, its nodes, then each field as an interval or a number."""
    kind = {PointTuple: "p", TTuple: "t", DTuple: "d", TDTuple: "td", CTuple: "c"}[type(u)]
    fields = [str(x) if isinstance(x, Interval) else iv.format_number(x) for x in u[2:]]
    if kind == "c":
        fields[2:] = [f"b={fields[2]}", f"e={fields[3]}"]
    return " ".join([kind, u.n1, u.n2, *fields])


def _random_tuples(rng, count):
    """Tuples of all five kinds over two node pairs, with Fraction and negative endpoints.

    A value pool of few distinct values makes ties on lo with different
    delimiters, and on every field before the last, common.
    """
    values = HALF_STEPS[8:17]  # -2 .. 2 by halves
    out = []
    for _ in range(count):
        n1, n2 = rng.choice([("a", "b"), ("a", "a")])
        tau, delta = (random_mixed_interval(rng, values) for _ in range(2))
        t, d = rng.choice(values), rng.choice(values)
        out += [
            PointTuple(n1, n2, t, d),
            TTuple(n1, n2, tau, d),
            DTuple(n1, n2, t, delta),
            TDTuple(n1, n2, tau, delta),
            CTuple(n1, n2, tau, delta, rng.choice(values), rng.choice(values)),
        ]
    return out


def test_tuple_sort_key_orders_every_kind_as_the_generic_key():
    rng = random.Random(21)
    tuples = _random_tuples(rng, 3_000)
    by_kind = {}
    for u in tuples:
        assert tuple_sort_key(u) == _generic_sort_key(u), u
        by_kind.setdefault(type(u), []).append(u)
    for kind, group in by_kind.items():
        assert sorted(group, key=tuple_sort_key) == sorted(group, key=_generic_sort_key), kind
    # the pool makes the ties the key must break: equal lo, different delimiters
    taus = [u.tau for u in by_kind[TDTuple]]
    assert len({(x.lo, x.left_closed) for x in taus}) > len({x.lo for x in taus})
    assert any(isinstance(x.lo, Fraction) and x.lo < 0 for x in taus)
    with pytest.raises(TypeError):
        tuple_sort_key(("a", "b", 1, 2))


def test_render_tuple_matches_the_generic_render_for_every_kind():
    rng = random.Random(22)
    tuples = _random_tuples(rng, 1_000)
    for u in tuples:
        assert render_tuple(u) == _generic_render(u), u
    assert any("/" in render_tuple(u) and "(" in render_tuple(u) for u in tuples)
    with pytest.raises(TypeError):
        render_tuple(("a", "b", 1, 2))


@pytest.mark.parametrize("x", [10**5000, Fraction(1, 10**5000)], ids=["int", "fraction"])
def test_render_tuple_of_too_many_digits_raises_trpq_error(x):
    # x bare and as an interval endpoint, in every kind: TrpqError, never a ValueError
    holds_x, one = (Interval(0, x) if x > 1 else Interval(x, 1)), C(0, 1)
    tuples = [
        CTuple("a", "b", one, one, x, x),  # b = x kept bare: beyond tau it cannot slide
        CTuple("a", "b", holds_x, one, 0, 0),
        CTuple("a", "b", one, holds_x, 0, 1),
        TDTuple("a", "b", holds_x, one),
        TDTuple("a", "b", one, holds_x),
        TTuple("a", "b", holds_x, 0),
        TTuple("a", "b", one, x),
        DTuple("a", "b", x, one),
        DTuple("a", "b", 0, holds_x),
        PointTuple("a", "b", x, 0),
        PointTuple("a", "b", 0, x),
    ]
    for u in tuples:
        assert any(f == x or isinstance(f, Interval) and x in (f.lo, f.hi) for f in u[2:]), u
        with pytest.raises(TrpqError, match="digits"):
            render_tuple(u)


def test_canonical_parameters_do_not_change_slices():
    # a crop point beyond tau slides onto the boundary with delta adjusted
    raw = CTuple("a", "b", C(0, 2), C(0, 5), 4, 2)
    assert raw.b == 2 and raw.delta == C(2, 5)
    for t in range(0, 3):
        sl = delta_at(raw, t)
        # same slices the original parameters (delta=[0,5], b=4) would give
        assert (sl.lo, sl.hi) == (0 + max(0, 4 - t), 5)
