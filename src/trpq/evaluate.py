"""The four inductive compact evaluators: one recursion, four rule sets.

Each evaluator computes, by structural recursion, a finite set of compact
tuples whose unfolding is exactly the direct answer set:

* ``eval_t``  in U^t  (over dense time only when every temporal navigation
  interval is a singleton);
* ``eval_d``  in U^d  (over dense time, feasible only when no step needs to
  enumerate the points of a non-singleton interval);
* ``eval_td`` in U^td (both modes: the groups of ``eval_d`` as they are);
* ``eval_c``  in U^c  (both modes; the representation closed under join).

All four reach one recursion, ``_evaluate``, through one entry point,
``_answers``, which runs dense time on a common integer grid.  It has two
tuple shapes: cropped rectangles in U^c, plain rectangles (``TDTuple``) in
the others.  A U^t rectangle has the distance side [d, d] and is read out
as (n1, n2, tau, d); a U^d group is read out as one (n1, n2, t, delta) per
time point of tau.
Unions are set unions, a join chain folds its operands left to right,
bucketing each right operand by source node, and repetition iterates join
rounds semi-naively until a round adds nothing, with a round cap against
non-terminating dense closures.  Each representation supplies ``_Rules``,
naming only what differs from the defaults: ``join(u1, u2)`` composes two
tuples into zero or more; ``flat(n1, n2, tau, delta=[0, 0])`` builds an
uncropped tuple: zero-distance for labels, inverses, node filters, negation
gaps and repetition identities, (domain, delta) for navigation.  Every join
probes only the tuples of its bucket whose time interval meets the hull of
tau + delta, where u1 can arrive.  U^c and U^d, whose rules U^td shares,
add ``nav_join``, a join with a trailing navigation as one unary rule that
keeps a tuple whose arrivals stay in the domain whole, and U^d over dense
time ``ordered``: pairs go in canonical order, so that an error always
cites the same interval.

Navigation T[a, b] is built once, with placeholder nodes that the recursion
gives each node n as (n, n), as the paper defines it: (domain, [a, b])
composed with the domain rectangle, ``join(flat(D, [a, b]), flat(D))``.
U^t's join makes one fixed hop per distance that D can span, since its
tuples hold one distance each.  U^d's join, which its ``nav_join`` shares,
composes a wider delta at each departure that lands (``_per_departure``).

Three kinds of work are shared.  The set and buckets of a label of the
graph, its inverse and its test depend only on the graph and ``rules.flat``,
so the graph keeps them for every evaluation: ``e/e/e`` builds and buckets
``e`` once.  Every other leaf is built where it occurs.  Navigation, a time
bound and a node filter, negated or not, have one time shape at every node,
so as a join's right operand they are not copied per node: their nodes share
one bucket of their tuples at the placeholder node "", read as standing at
each left tuple's end node.  Within one join, a result's time fields depend
only on the operands' time fields, so each distinct pair of time shapes is
joined once and copied, canonical form and all, to the other node pairs;
every join actually made still checks operands and result.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from . import intervals as iv
from . import query as q_
from .errors import DenseInfeasibleError, FixpointLimitError, InvalidTupleError
from .graph import TemporalGraph, _on_grid, graph_nodes
from .intervals import Interval, _meet, _new
from .query import MAX_ITERATIONS
from .tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    ctuple_valid,
    render_tuple,
    tuple_sort_key,
)

KINDS = ("point", "t", "d", "td", "c")

_ZERO = iv.point(0)
_flat_td = partial(TDTuple, delta=_ZERO)
_NO_BUCKET = ((), (), 0)  # the bucket of a node that holds no tuple of the right operand


class AnswerSet:
    """A deduplicated, canonically ordered set of answer tuples."""

    __slots__ = ("kind", "mode", "tuples")

    def __init__(self, kind: str, mode: str, items: Iterable):
        if kind not in KINDS:
            raise ValueError(f"unknown representation {kind!r}")
        self.kind = kind
        self.mode = mode
        self.tuples = tuple(sorted(set(items), key=tuple_sort_key))

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)

    def __eq__(self, other):
        return (
            isinstance(other, AnswerSet)
            and (self.kind, self.mode, self.tuples) == (other.kind, other.mode, other.tuples)
        )

    def __hash__(self):
        return hash((self.kind, self.mode, self.tuples))

    def __repr__(self):
        return f"AnswerSet({self.kind!r}, {self.mode!r}, {len(self.tuples)} tuples)"

    def render(self) -> str:
        return "\n".join(render_tuple(u) for u in self.tuples)


def _answer_set(kind: str, G: TemporalGraph, items: Iterable) -> AnswerSet:
    """The AnswerSet of an evaluator's answers; over dense time ``_answers`` ordered them."""
    out = AnswerSet(kind, G.mode, items if G.discrete else ())
    if not G.discrete:  # distinct and in canonical order: not sorted again
        out.tuples = tuple(items)
    return out


class _Rules(NamedTuple):
    """A representation's join, and each other rule it changes (see the module docstring)."""

    join: Callable
    flat: Callable = _flat_td
    ordered: bool = False
    nav_join: Optional[Callable] = None


# --------------------------------------------------------------------------
# the shared recursion
# --------------------------------------------------------------------------


_LEAVES = (q_.Label, q_.Pred, q_.LeqTime, q_.TimeNav)
_UNIFORM = _LEAVES[1:]


def _evaluate(G, q, rules: _Rules, cap: int) -> set:
    """The answer set of q under one representation's rules.

    A label of G, and its inverse or test, is kept in G by value (``_memo``)
    for every later evaluation; every other subquery is built where it
    occurs.  The frozen sets and the buckets that G keeps are shared: no
    caller may change them.
    """
    if isinstance(q, _LEAVES):
        return _memo(G, q, rules, "set", lambda: _leaf(G, q, rules))
    if isinstance(q, (q_.Inverse, q_.Test)):  # each (n1, n2) as (n2, n1), or a test's (n1, n1)
        inner, test = q_.children(q)[0], isinstance(q, q_.Test)
        return _memo(G, q, rules, "set", lambda: frozenset(
            rules.flat(u.n1 if test else u.n2, u.n1, u.tau)
            for u in _evaluate(G, inner, rules, cap)))
    if isinstance(q, q_.Not):
        taus: dict[str, list] = {}
        for u in _evaluate(G, q.inner, rules, cap):
            taus.setdefault(u.n1, []).append(u.tau)
        # the complement, within the domain, of each node's node-form time intervals
        return {
            rules.flat(n, n, gap)
            for n in G.nodes
            for gap in iv.complement(taus.get(n, ()), G.domain, discrete=G.discrete)
        }
    if isinstance(q, q_.Join):
        # left to right: ((p1 / p2) / p3) / ...
        out = _evaluate(G, q.parts[0], rules, cap)
        for part in q.parts[1:]:
            if rules.nav_join is not None and isinstance(part, q_.TimeNav):
                out = rules.nav_join(out, part.delta, G)
            else:
                out = _join_sets(out, _bucketed(G, part, rules, cap), rules)
        return out
    if isinstance(q, q_.Union):
        return set().union(*[_evaluate(G, part, rules, cap) for part in q.parts])
    if isinstance(q, q_.Repeat):
        base = _evaluate(G, q.inner, rules, cap)
        identity = {rules.flat(n, n, G.domain) for n in G.nodes} if q.m == 0 else ()
        buckets = _bucketed(G, q.inner, rules, cap, base)
        join_base = partial(_join_sets, buckets=buckets, rules=rules)
        return _repeat_sets(base, q.m, q.n, identity, join_base, cap)
    raise TypeError(f"not a query node: {q!r}")


def _bucketed(G, q, rules: _Rules, cap: int, out=None) -> dict:
    """``_uniform``'s shared bucket, else ``_buckets`` of q's answers ``out``, kept if ``_kept``."""
    if isinstance(q, _UNIFORM) or isinstance(q, q_.Not) and isinstance(q.inner, q_.Pred):
        return _uniform(G, q, rules)
    out = _evaluate(G, q, rules, cap) if out is None else out
    return _memo(G, q, rules, "buckets", lambda: _buckets(out))


def _kept(G, q) -> bool:
    """Whether q is a label of G or its inverse or test: a set that only G and the rules fix."""
    if isinstance(q, (q_.Inverse, q_.Test)):
        q = q_.children(q)[0]
    return isinstance(q, q_.Label) and q.name in G._by_label


def _memo(G, q, rules: _Rules, what: str, build: Callable):
    """q's ``what``: built once and kept in G if ``_kept``, else built anew."""
    if not _kept(G, q):
        return build()
    key = (rules.flat, what, q)
    if key not in G._leaves:
        G._leaves[key] = build()
    return G._leaves[key]


def _leaf(G, q, rules: _Rules) -> frozenset:
    """The answer set of a leaf subquery; not recursive."""
    if isinstance(q, q_.Label):
        return frozenset(
            rules.flat(s, o, tau)
            for s, o, validity in G.triples_with_label(q.name)
            for tau in validity
        )
    buckets = _uniform(G, q, rules).items()
    return frozenset(u._make((n, n, *u[2:])) for n, (_, group, _) in buckets for u in group)


def _uniform(G, q, rules: _Rules) -> dict:
    """A node-uniform leaf's buckets: each node n that holds its tuples as (n, n) shares the
    ``_bucket`` of them at the placeholder node ""."""
    nodes, domain, flat = G.nodes, G.domain, partial(rules.flat, "", "")
    shapes = [flat(domain)]  # a node filter's
    if isinstance(q, q_.Pred):
        nodes = [q.target] if q.equals else [n for n in nodes if n != q.target]
    elif isinstance(q, q_.Not):  # the complement of a node filter: the domain where it fails
        nodes = [n for n in nodes if (n == q.inner.target) != q.inner.equals]
    elif isinstance(q, q_.LeqTime):  # the part of the domain at or before the bound
        window = iv.intersect(domain, iv.closed(min(domain.lo, q.bound), q.bound))
        shapes = [] if window is None else [flat(window)]
    else:  # navigation: (domain, delta) composed with the domain, if any node navigates
        shapes = list(rules.join(flat(domain, delta=q.delta), flat(domain))) if nodes else []
    return dict.fromkeys(nodes, _bucket(shapes)) if shapes else {}


def _buckets(B) -> dict:
    """B grouped by source node into one ``_bucket`` per node."""
    groups: dict[str, list] = {}
    for u in B:
        groups.setdefault(u.n1, []).append(u)
    return {n: _bucket(group) for n, group in groups.items()}


def _bucket(group: list) -> tuple:
    """``(los, tuples, width)``: ``group`` sorted by lo(tau), those lows, and its widest tau."""
    group.sort(key=lambda u: u.tau.lo)
    return [u.tau.lo for u in group], group, max(u.tau.hi - u.tau.lo for u in group)


def _join_sets(A, buckets, rules: _Rules) -> set:
    """All compositions of a tuple of A with a tuple of B that it chains into.

    ``buckets`` is ``_buckets(B)``, or ``_uniform``'s shared bucket, whose tuples
    stand at "" for (n2 of u1, n2 of u1).  A tuple u1 of A arrives within the
    closed hull [lo, hi] of tau + delta, so only the tuples of its bucket whose
    tau meets that hull are probed: lo(tau) <= hi, bisected from lo minus the
    bucket's widest tau, and hi(tau) >= lo.  With ``rules.ordered`` the pairs
    are probed in canonical order, so that the first join to fail is always
    the same one.

    The time fields of a join depend only on the operands' time fields, never
    on their nodes.  So each distinct pair of time shapes is joined once per
    call, and the other pairs with those shapes take its results with their
    own nodes.
    """
    join, ordered, new = rules.join, rules.ordered, tuple.__new__
    out = set()
    joined: dict = {}  # (time shape of u1, time shape of u2) -> join results
    for u1 in sorted(A, key=tuple_sort_key) if ordered else A:
        los, group, width = buckets.get(u1.n2, _NO_BUCKET)
        lo, hi = u1.tau.lo + u1.delta.lo, u1.tau.hi + u1.delta.hi
        i, j = bisect_left(los, lo - width), bisect_right(los, hi)
        if i == j:
            continue
        n1, shape = u1.n1, u1[2:]
        for u2 in sorted(group[i:j], key=tuple_sort_key) if ordered else group[i:j]:
            if u2.tau.hi >= lo:
                n2, key = u2.n2 or u1.n2, (shape, u2[2:])
                results = joined.get(key)
                if results is None:  # u2 at u1's end node, a placeholder's too
                    results = joined[key] = join(u1, new(type(u2), (u1.n2, n2) + u2[2:]))
                    out.update(results)
                else:  # canonical form never reads the nodes: it is not redone
                    out.update([new(type(u), (n1, n2) + u[2:]) for u in results])
    return out


def _repeat_sets(base, m, n, identity, join_base, cap):
    """Union of the k-fold join powers of ``base`` for m <= k (<= n).

    ``join_base(A)`` joins A with ``base``.  k = 0 contributes ``identity``,
    the node-identity relation, which the caller builds only when m = 0.
    Each power is a function of the one before it, so building base^m stops
    at a power equal to the one before it, and skips whole periods once a
    power equals the one saved at the last power-of-two index (Brent's cycle
    detection): the powers from there on repeat.  Semi-naive iteration: only
    tuples new in the previous round are re-joined, and a round that adds
    none ends the loop, because no later power can add one either.  The
    round cap applies to unbounded repetition only.
    """
    out = set(identity)
    start = max(m, 1)
    if n is not None and n < start:
        return out
    current = saved = set(base)
    k = a = 1  # current is base^k, saved is base^a
    while k < start:
        before, current, k = current, join_base(current), k + 1
        if current == before:
            break  # every later power equals it; an empty power ends here too
        if current == saved:  # the powers cycle with period k - a
            k = start - (start - k) % (k - a)
        if k & (k - 1) == 0:
            saved, a = current, k
    total = set(current)
    delta = current
    rounds = 0
    while delta and (n is None or start + rounds < n):
        rounds += 1
        if n is None and rounds > cap:
            raise FixpointLimitError(
                f"unbounded repetition did not stabilise after {cap} rounds; "
                "raise --max-iterations / TRPQ_MAX_ITER if the query is expected to converge"
            )
        delta = join_base(delta) - total
        total |= delta
    return out | total


def _answers(G: TemporalGraph, q: q_.Trpq, rules: _Rules, cap: int):
    """The answer to q under ``rules``: every evaluator's one call of ``_evaluate``.

    Over dense time that call runs on a common integer grid: L is the lcm of the
    denominators of the domain's, the facts' and the query's time constants.  When
    L > 1, G (which keeps its scaled copy) and q are scaled by L, evaluated in ``int``
    arithmetic, sorted while ``int``, and scaled back by 1/L, as is the window that
    U^d's error cites.  Positive scaling keeps every comparison, so the order and
    canonical form of the tuples, the rounds of each closure, the answer and the
    failing pair are those of G and q as they are.  A dense answer is a list in
    canonical order, a discrete one the set that ``_evaluate`` makes.
    """
    q = q_.adapt_query(q, G.discrete)
    grid = 1 if G.discrete else math.lcm(G._denominator, _denominator(q))
    if grid > 1:
        G, q = _on_grid(G, grid), q_.scale_query(q, grid)
    try:
        out = _evaluate(G, q, rules, cap)
    except DenseInfeasibleError as exc:
        if grid == 1 or not hasattr(exc, "window"):  # nothing to divide: as raised
            raise
        raise _too_many_points(iv.scale(exc.window, Fraction(1, grid))) from None
    if not G.discrete:
        out = sorted(out, key=tuple_sort_key)
    return _scale_back(out, grid) if grid > 1 else out


def _denominator(q: q_.Trpq) -> int:
    """The lcm of the denominators of q's navigation endpoints and time bounds."""
    found = {1}
    for leaf in q_.time_leaves(q):
        if isinstance(leaf, q_.TimeNav):
            found.update((leaf.delta.lo.denominator, leaf.delta.hi.denominator))
        else:
            found.add(leaf.bound.denominator)
    return math.lcm(*found)


def _scale_back(answers: list, grid: int) -> list:
    """The answers, in their order, with each distinct time value divided by ``grid`` once,
    an integral one as ``int``; canonical form and nonempty intervals hold, unchecked."""
    numbers = {x for u in answers for f in u[2:] for x in (f[:2] if type(f) is Interval else (f,))}
    back = {x: k if r == 0 else Fraction(x, grid) for x in numbers for k, r in [divmod(x, grid)]}
    return [_new(type(u), (u[0], u[1], *[
        _new(Interval, (back[f[0]], back[f[1]], f[2], f[3])) if type(f) is Interval else back[f]
        for f in u[2:]])) for u in answers]


# --------------------------------------------------------------------------
# U^t
# --------------------------------------------------------------------------


def _check_dense_t_feasible(q: q_.Trpq):
    for leaf in q_.time_leaves(q):
        if isinstance(leaf, q_.TimeNav) and not leaf.delta.is_singleton:
            raise DenseInfeasibleError(
                "dense time: U^t requires every temporal navigation interval "
                f"to be a singleton, got T{leaf.delta}"
            )


def eval_t(G: TemporalGraph, q: q_.Trpq, *, max_iterations: int = MAX_ITERATIONS) -> AnswerSet:
    """Inductive evaluation folding time points: tuples (n1, n2, tau, d)."""
    if not G.discrete:
        _check_dense_t_feasible(q)
    rects = _answers(G, q, _T_RULES, max_iterations)
    return _answer_set("t", G, (TTuple(u.n1, u.n2, u.tau, u.delta.lo) for u in rects))


def _join_t(u1: TDTuple, u2: TDTuple) -> tuple[TDTuple, ...]:
    """U^t's join: one fixed hop per distance of u1 in tau2 - tau1.

    Only navigation has more than one, over discrete time (dense is checked up front).
    """
    if u1.delta.is_singleton:
        return _join_fixed(u1, u2)
    spans = iv.intersect(u1.delta, iv.mdiff(u2.tau, u1.tau))
    if spans is None:
        return ()
    hops = (u1._replace(delta=iv.point(d)) for d in iv.iter_points(spans))
    return tuple(u for hop in hops for u in _join_fixed(hop, u2))


def _join_fixed(u1: TDTuple, u2: TDTuple) -> tuple[TDTuple, ...]:
    """The join for a u1 whose delta is one point c: its departures are u2's shifted back by c."""
    c = u1.delta.lo
    shared = iv.intersect(u1.tau, iv.shift(u2.tau, -c))
    if shared is None:
        return ()
    return (TDTuple(u1.n1, u2.n2, shared, iv.shift(u2.delta, c)),)


_T_RULES = _Rules(_join_t)


# --------------------------------------------------------------------------
# U^d and U^td
# --------------------------------------------------------------------------
#
# A U^d group (n1, n2, tau, delta) stands for one DTuple per time point of
# tau: it is the U^td rectangle of those points, so ``eval_td`` returns the
# groups that ``eval_d`` expands, in both modes.  Node and edge filters give
# finitely many groups even over dense time; a rule expands a group only where
# it must, a join and a navigation only at the departures that land, which
# over dense time is an error unless they are one point.  There groups are
# expanded in canonical order, so that the error always cites the same interval.


def eval_d(G: TemporalGraph, q: q_.Trpq, *, max_iterations: int = MAX_ITERATIONS) -> AnswerSet:
    """Inductive evaluation folding distances: tuples (n1, n2, t, delta)."""
    groups = _answers(G, q, _D_RULES[G.discrete], max_iterations)
    return _answer_set("d", G, (
        DTuple(g.n1, g.n2, t, g.delta) for g in groups for t in _expand_times(g.tau, G.discrete)))


def eval_td(G: TemporalGraph, q: q_.Trpq, *, max_iterations: int = MAX_ITERATIONS) -> AnswerSet:
    """Inductive evaluation folding both dimensions into plain rectangles: U^d's groups."""
    return _answer_set("td", G, _answers(G, q, _D_RULES[G.discrete], max_iterations))


def _expand_times(tau: Interval, discrete: bool):
    if discrete:
        return iv.iter_points(tau)
    if tau.is_singleton:
        return (tau.lo,)
    raise _too_many_points(tau)


def _too_many_points(window: Interval) -> DenseInfeasibleError:
    text = f"dense time: U^d would need one tuple per rational time point of {window}"
    exc = DenseInfeasibleError(text)
    exc.window = window  # for ``_answers``, which cites it divided by the grid
    return exc


def _per_departure(u1: TDTuple, u2: TDTuple, discrete: bool) -> tuple[TDTuple, ...]:
    """u1 composed with u2 at each departure of u1 that lands in tau2.

    The departures that land are (((tau1 + delta1) n tau2) - delta1) n tau1;
    every arrival lies within tau1 + delta1, so each of them lands.  Each
    departure t gives ([t, t], (tau2 n (t + delta1)) - t + delta2).  The only
    rule that expands a rectangle per time point: over dense time the
    departures must be one point.
    """
    landing = iv.intersect(iv.msum(u1.tau, u1.delta), u2.tau)
    if landing is None:
        return ()
    window = iv.intersect(iv.mdiff(landing, u1.delta), u1.tau)
    out = []
    for t in _expand_times(window, discrete):
        arrivals = iv.intersect(u2.tau, iv.shift(u1.delta, t))
        out.append(TDTuple(u1.n1, u2.n2, iv.point(t), iv.msum(iv.shift(arrivals, -t), u2.delta)))
    return tuple(out)


def _join_d(discrete: bool, u1: TDTuple, u2: TDTuple) -> tuple[TDTuple, ...]:
    if u1.delta.is_singleton:
        return _join_fixed(u1, u2)
    return _per_departure(u1, u2, discrete)


def join_td(u1: TDTuple, u2: TDTuple) -> tuple[TDTuple, ...]:
    """Composition of two rectangles: one tuple per departure time point.

    The arrival window (tau1 + delta1) n tau2 fixes, per departure time t, an
    interval of admissible distances; those slices are not constant in t, so
    the result expands to singleton-time tuples.  Discrete time only.  The
    public composition, not ``eval_td``'s rule, which is ``_join_d``.
    """
    if u1.n2 != u2.n1:
        return ()
    for interval in (u1.tau, u1.delta, u2.tau, u2.delta):
        if not iv.is_discrete_canonical(interval):
            raise DenseInfeasibleError(
                "dense time: the U^td join expands per time point and is not finite"
            )
    return _per_departure(u1, u2, True)


def _nav_join_d(groups, delta: Interval, G) -> set:
    """The unary rule for a join whose right operand is temporal navigation.

    Distances extend by the navigation interval.  A group whose arrivals stay
    in the domain survives whole; any other is composed with the domain by
    U^d's join.  Groups ending at a node absent from the graph have no
    navigation partner.
    """
    nodes = graph_nodes(G)
    out = set()
    for g in groups if G.discrete else sorted(groups, key=tuple_sort_key):
        if g.n2 not in nodes:
            continue
        extended = TDTuple(g.n1, g.n2, g.tau, iv.msum(g.delta, delta))
        if iv.covers(G.domain, iv.msum(g.tau, extended.delta)):
            out.add(extended)
        else:
            out.update(_join_d(G.discrete, extended, _flat_td(g.n2, g.n2, G.domain)))
    return out


_D_RULES = {  # by G.discrete
    True: _Rules(partial(_join_d, True), nav_join=_nav_join_d),
    False: _Rules(partial(_join_d, False), ordered=True, nav_join=_nav_join_d),
}


# --------------------------------------------------------------------------
# U^c
# --------------------------------------------------------------------------


def join_c(u1: CTuple, u2: CTuple) -> Optional[CTuple]:
    """Composition of two cropped rectangles; None when they do not chain.

    u1 lands at its arrivals (``arrival_times``) that lie within tau2.  The
    departure window is (landing ominus delta1) n tau1; it is clipped to the
    times whose slice is nonempty, and the result is again a valid cropped
    rectangle.

    The clip never empties the window.  A landing point is t + d1 with t in
    tau1 and d1 in u1's slice at t, and u2's slice there holds some d2; the
    result's closed slice bounds at t hold d1 + d2, so t lies in the closed
    admissible window.  Were t an end of the open window of an open delta,
    d1 + d2 would be an end of delta, d1 open at its other end, and tau1
    would run on past t (else b - e >= width(delta)): the window meets it.
    """
    for u in (u1, u2):
        if not ctuple_valid(u):
            raise InvalidTupleError(f"not a valid cropped tuple: {render_tuple(u)}")
    if u1.n2 != u2.n1:
        return None
    # on the endpoints, as it runs on every join: only the result's tau and delta are built
    _, _, (lo1, hi1, lc1, rc1), (dlo, dhi, dlc, drc), b1, e1 = u1
    _, _, tau2, (dlo2, dhi2, dlc2, drc2), b2, e2 = u2
    arrivals = b1 + dlo, e1 + dhi, dlc and (lc1 or b1 > lo1), drc and (rc1 or e1 < hi1)
    landing = _meet(*arrivals, *tau2)
    if landing is None:
        return None
    lo, hi, lc, rc = landing
    # every landing point is t + d with t in tau1, so this is never empty
    tau = _meet(lo - dhi, hi - dlo, lc and drc, rc and dlc, lo1, hi1, lc1, rc1)
    b, e = max(b1, b2 - dlo), min(e1, e2 - dhi)
    dlo, dhi, dlc, drc = dlo + dlo2, dhi + dhi2, dlc and dlc2, drc and drc2  # delta1 oplus delta2
    # With uniform delimiters the whole window is admissible (join theorem); with
    # mixed ones a window end can hold only a crop-line point that the tuple cannot
    # carry.  Clip to the admissible times, ``admissible_window``: the documented gap.
    if not (b + dlo < e + dhi or (b + dlo == e + dhi and dlc and drc)):
        return None
    w, closed = dhi - dlo, dlc and drc
    tau = _new(Interval, _meet(*tau, b - w, e + w, closed, closed))  # nonempty: not checked
    result = CTuple(u1.n1, u2.n2, tau, _new(Interval, (dlo, dhi, dlc, drc)), b, e)
    if not ctuple_valid(result):
        raise InvalidTupleError(f"join produced an invalid tuple: {render_tuple(result)}")
    return result


def eval_c(G: TemporalGraph, q: q_.Trpq, *, max_iterations: int = MAX_ITERATIONS) -> AnswerSet:
    """Inductive evaluation with cropped rectangles; finite over both modes."""
    return _answer_set("c", G, _answers(G, q, _C_RULES, max_iterations))


def _uncropped(n1: str, n2: str, tau: Interval, delta: Interval = _ZERO) -> CTuple:
    return CTuple(n1, n2, tau, delta, tau.lo, tau.hi)


def _join_c(u1: CTuple, u2: CTuple) -> tuple[CTuple, ...]:
    # join_c is looked up by its module-level name on every call, so that
    # rebinding it (as a tracer does) reaches every join, navigation's too
    joined = join_c(u1, u2)
    return () if joined is None else (joined,)


def _nav_join_c(tuples, nav: Interval, G) -> set:
    """The unary rule for a join whose right operand is temporal navigation.

    A tuple u whose times t + d lie within the domain before and after the
    navigation, tau + delta and tau + delta + nav, is kept whole with the
    distances delta + nav.  Each slice shifts by nav and no arrival leaves
    the domain, so the join with the navigation leaf would crop nothing.
    The admissible window <| b - w, e + w |> only widens with w, so a valid
    u gives a valid tuple; b and e are unchanged, so it is canonical too.
    u is checked as ``join_c`` checks its operands.  Every other tuple is
    joined with the navigation leaf, as any right operand is: with mixed
    delimiters u can claim an arrival at an open end of the domain, which
    that join trims.  A tuple ending at a node absent from the graph has no
    navigation partner.
    """
    nodes, (lo, hi, lc, rc) = graph_nodes(G), G.domain
    kept: dict = {}  # delta -> (delta + nav, the taus kept whole, or None)
    out, rest = set(), []
    for u in tuples:
        if u.n2 not in nodes:
            continue
        found = kept.get(u.delta)
        if found is None:  # the times t with t + delta and t + delta + nav within the domain
            wide = iv.msum(u.delta, nav)
            window = _meet(*[f for d in (u.delta, wide) for f in (
                lo - d.lo, hi - d.hi, lc or not d.left_closed, rc or not d.right_closed)])
            found = kept[u.delta] = wide, window and _new(Interval, window)
        wide, window = found
        if window is None or not iv.covers(window, u.tau):
            rest.append(u)
        elif not ctuple_valid(u):
            raise InvalidTupleError(f"not a valid cropped tuple: {render_tuple(u)}")
        else:
            out.add(_new(CTuple, (u.n1, u.n2, u.tau, wide, u.b, u.e)))
    if rest:
        out |= _join_sets(rest, _uniform(G, q_.TimeNav(nav), _C_RULES), _C_RULES)
    return out


_C_RULES = _Rules(_join_c, flat=_uncropped, nav_join=_nav_join_c)


EVALUATORS = {"t": eval_t, "d": eval_d, "td": eval_td, "c": eval_c}
