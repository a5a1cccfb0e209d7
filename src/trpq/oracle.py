"""Direct point-wise query evaluation over discrete time.

This is the ground truth: a deliberately plain implementation of the query
semantics by structural recursion, enumerating every integer time point.  It
shares no evaluation code with the compact evaluators so that a bug in one
cannot mask a bug in the other.
"""

from __future__ import annotations

from typing import NamedTuple

from . import intervals as iv
from . import query as q_
from .errors import DenseInfeasibleError, FixpointLimitError
from .graph import TemporalGraph
from .intervals import Number
from .query import MAX_ITERATIONS


class PointTuple(NamedTuple):
    n1: str
    n2: str
    t: Number
    d: Number


PointSet = frozenset[PointTuple]


def eval_direct(G: TemporalGraph, q: q_.Trpq, *, max_iterations: int = MAX_ITERATIONS) -> PointSet:
    """All answers to ``q`` over ``G`` as explicit (n1, n2, t, d) tuples."""
    if not G.discrete:
        raise DenseInfeasibleError(
            "dense time: direct evaluation may yield infinitely many point answers"
        )
    q = q_.adapt_query(q, discrete=True)
    domain_points = list(iv.iter_points(G.domain))
    return frozenset(_eval(G, q, G.nodes, domain_points, max_iterations))


def _compose(A, B) -> set[PointTuple]:
    by_start: dict[tuple[str, Number], list[PointTuple]] = {}
    for b in B:
        by_start.setdefault((b.n1, b.t), []).append(b)
    out = set()
    for a in A:
        for b in by_start.get((a.n2, a.t + a.d), ()):
            out.add(PointTuple(a.n1, b.n2, a.t, a.d + b.d))
    return out


def _identity(nodes, domain_points) -> set[PointTuple]:
    return {PointTuple(n, n, t, 0) for n in nodes for t in domain_points}


def _power(base: set[PointTuple], k: int) -> set[PointTuple]:
    """The k-fold composition of ``base``, k >= 1.

    Each power is a function of the one before it, so once a power equals an
    earlier one the powers from there on cycle, and base^k is read off the cycle.
    """
    powers = [frozenset(base)]  # powers[i] is base^(i + 1)
    index = {powers[0]: 0}
    while len(powers) < k:
        current = frozenset(_compose(powers[-1], base))
        if current in index:
            first = index[current]
            return set(powers[first + (k - 1 - first) % (len(powers) - first)])
        index[current] = len(powers)
        powers.append(current)
    return set(powers[-1])


def _closure(base: set[PointTuple], start: int, max_iterations: int) -> set[PointTuple]:
    """Union of all k-fold compositions of ``base`` for k >= start.

    Semi-naive: only tuples derived in the previous round are re-joined.
    """
    current = _power(base, start)
    total = set(current)
    delta = current
    rounds = 0
    while delta:
        rounds += 1
        if rounds > max_iterations:
            raise FixpointLimitError(f"no fixpoint after {max_iterations} rounds")
        delta = _compose(delta, base) - total
        total |= delta
    return total


def _eval(G, q, nodes, domain_points, cap) -> set[PointTuple]:
    if isinstance(q, q_.Label):
        out = set()
        for s, o, validity in G.triples_with_label(q.name):
            for interval in validity:
                for t in iv.iter_points(interval):
                    out.add(PointTuple(s, o, t, 0))
        return out
    if isinstance(q, q_.Inverse):
        return {PointTuple(u.n2, u.n1, u.t, 0) for u in _eval(G, q.edge, nodes, domain_points, cap)}
    if isinstance(q, q_.Pred):
        if q.equals:
            matching = [q.target]
        else:
            matching = [n for n in nodes if n != q.target]
        return {PointTuple(n, n, t, 0) for n in matching for t in domain_points}
    if isinstance(q, q_.LeqTime):
        return {PointTuple(n, n, t, 0) for n in nodes for t in domain_points if t <= q.bound}
    if isinstance(q, q_.TimeNav):
        out = set()
        for n in nodes:
            for t in domain_points:
                landing = iv.intersect(iv.shift(q.delta, t), G.domain)
                if landing is None:
                    continue
                for t2 in iv.iter_points(landing):
                    out.add(PointTuple(n, n, t, t2 - t))
        return out
    if isinstance(q, q_.Test):
        return {PointTuple(u.n1, u.n1, u.t, 0) for u in _eval(G, q.inner, nodes, domain_points, cap)}
    if isinstance(q, q_.Not):
        inner = _eval(G, q.inner, nodes, domain_points, cap)
        return _identity(nodes, domain_points) - inner
    if isinstance(q, q_.Join):
        out = _eval(G, q.parts[0], nodes, domain_points, cap)
        for part in q.parts[1:]:
            out = _compose(out, _eval(G, part, nodes, domain_points, cap))
        return out
    if isinstance(q, q_.Union):
        out = set()
        for part in q.parts:
            out |= _eval(G, part, nodes, domain_points, cap)
        return out
    if isinstance(q, q_.Repeat):
        base = _eval(G, q.inner, nodes, domain_points, cap)
        out = _identity(nodes, domain_points) if q.m == 0 else set()
        start = max(q.m, 1)
        if q.n is None:
            return out | _closure(base, start, cap)
        current = _power(base, start)
        for k in range(start, q.n + 1):
            if current <= out:
                break  # this power adds nothing new, so no later one can
            out |= current
            if k < q.n:
                current = _compose(current, base)
        return out
    raise TypeError(f"not a query node: {q!r}")


def induced_relation(tuples, n1: str, n2: str) -> set[tuple[Number, Number]]:
    """The binary temporal relation {(t, t+d)} of the answers for one node pair."""
    return {(u.t, u.t + u.d) for u in tuples if u.n1 == n1 and u.n2 == n2}
