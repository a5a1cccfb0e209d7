"""The four compact answer-tuple kinds and their unfoldings.

* ``TTuple``  folds time points:     (n1, n2, tau, d)
* ``DTuple``  folds distances:       (n1, n2, t, delta)
* ``TDTuple`` folds both:            (n1, n2, tau, delta), a rectangle in the
  time-by-distance plane
* ``CTuple``  a cropped rectangle:   (n1, n2, tau, delta, b, e); the two extra
  time points locate the slope -1 lines that crop the rectangle's lower-left
  and upper-right corners.

A cropped tuple's region is the rectangle tau x delta cut by one slab on
t + d, its band <| b + lo(delta), e + hi(delta) |> with delta's delimiters.
The rest is exact interval arithmetic, over dense time with any delimiters
(``oplus``/``ominus`` are the Minkowski sum and difference, ``n`` meets):

* the slice at t is delta_t = delta n (band - t);
* the admissible window, the times whose slice is nonempty, is
  band ominus delta, and the tuple is valid iff tau lies within it;
* the arrivals, the values of t + d over the region, are band n (tau oplus delta);
* a valid v lies within u iff each of u's three slabs holds v's projection
  onto it: tau(u) covers tau(v), delta(u) covers
  delta(v) n (band(v) ominus tau(v)), and band(u) covers the arrivals of v.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import intervals as iv
from .errors import DenseInfeasibleError
from .intervals import Interval, Number, _render
from .oracle import PointTuple


class TTuple(NamedTuple):
    n1: str
    n2: str
    tau: Interval
    d: Number


class DTuple(NamedTuple):
    n1: str
    n2: str
    t: Number
    delta: Interval


class TDTuple(NamedTuple):
    n1: str
    n2: str
    tau: Interval
    delta: Interval


class _CTupleFields(NamedTuple):
    # the fields alone: a NamedTuple may not override __new__, its subclass may
    n1: str
    n2: str
    tau: Interval
    delta: Interval
    b: Number
    e: Number


class CTuple(_CTupleFields):
    __slots__ = ()

    def __new__(cls, n1: str, n2: str, tau: Interval, delta: Interval, b: Number, e: Number):
        # Canonical form, so that structurally distinct tuples differ in their
        # slices.  A crop point outside tau either never bites (clamp it to
        # the boundary) or bites everywhere (only the crop-line intercept
        # b + lo(delta) is observable on tau: slide the point onto the
        # boundary and move delta's bound by the same amount).  Slices at
        # every t in tau are unchanged; without this, repeated joins can walk
        # the parameters forever while the unfolding stands still.
        if b < tau.lo:
            b = tau.lo
        elif b > tau.hi:
            lo = delta.lo + (b - tau.hi)
            if _representable(delta, lo, delta.hi):
                delta = Interval(lo, delta.hi, delta.left_closed, delta.right_closed)
                b = tau.hi
        if e > tau.hi:
            e = tau.hi
        elif e < tau.lo:
            hi = delta.hi - (tau.lo - e)
            if _representable(delta, delta.lo, hi):
                delta = Interval(delta.lo, hi, delta.left_closed, delta.right_closed)
                e = tau.lo
        return tuple.__new__(cls, (n1, n2, tau, delta, b, e))


def _representable(delta: Interval, lo: Number, hi: Number) -> bool:
    """Whether [lo, hi] with delta's delimiters is nonempty."""
    if lo < hi:
        return True
    return lo == hi and delta.left_closed and delta.right_closed


def band(c: CTuple) -> Interval:
    """The values of t + d that c's crop lines admit, with delta's delimiters."""
    delta = c.delta
    return Interval(c.b + delta.lo, c.e + delta.hi, delta.left_closed, delta.right_closed)


def arrival_times(c: CTuple) -> Interval:
    """The values of t + d over a valid c's region: band n (tau oplus delta).

    Made on the endpoints, as ``join_c`` makes it too: the canonical form keeps
    lo(tau) <= b and e <= hi(tau), so tau's delimiter counts only at b = lo(tau)
    and e = hi(tau).
    """
    tau, delta = c.tau, c.delta
    return Interval(
        c.b + delta.lo,
        c.e + delta.hi,
        delta.left_closed and (tau.left_closed or c.b > tau.lo),
        delta.right_closed and (tau.right_closed or c.e < tau.hi),
    )


def delta_at(c: CTuple, t: Number) -> Optional[Interval]:
    """The slice delta n (band - t) of distances at time ``t``; None when empty."""
    if not iv.contains(c.tau, t):
        raise ValueError(f"time point {iv.format_number(t)} lies outside {c.tau}")
    delta = c.delta
    lo = delta.lo + max(0, c.b - t)
    hi = delta.hi - max(0, t - c.e)
    if not _representable(delta, lo, hi):
        return None
    return Interval(lo, hi, delta.left_closed, delta.right_closed)


def admissible_window(delta: Interval, b: Number, e: Number) -> Optional[Interval]:
    """band ominus delta, the times whose slice is nonempty; None when the band is empty.

    Made on the endpoints, as ``join_c`` makes it too: <| b - width, e + width |>.
    """
    if not _representable(delta, b + delta.lo, e + delta.hi):
        return None
    w = delta.hi - delta.lo
    closed = delta.left_closed and delta.right_closed
    return Interval(b - w, e + w, closed, closed)


def ctuple_valid(c: CTuple) -> bool:
    """Whether every slice over tau is nonempty: tau within band ominus delta.

    The same test as tau lying within ``admissible_window(c.delta, c.b, c.e)``,
    made on the endpoints directly: it runs on every join, so it builds no
    interval.
    """
    delta, tau = c.delta, c.tau
    w = delta.hi - delta.lo
    first, last = c.b - w, c.e + w  # the admissible window's endpoints
    if delta.left_closed and delta.right_closed:
        return w >= c.b - c.e and tau.lo >= first and tau.hi <= last
    return (
        w > c.b - c.e
        and (tau.lo > first or (tau.lo == first and not tau.left_closed))
        and (tau.hi < last or (tau.hi == last and not tau.right_closed))
    )


def as_td(u: TTuple | DTuple) -> TDTuple:
    """Embed a single-dimension tuple as a rectangle with one degenerate side."""
    if isinstance(u, TTuple):
        return TDTuple(u.n1, u.n2, u.tau, iv.point(u.d))
    return TDTuple(u.n1, u.n2, iv.point(u.t), u.delta)


def as_ctuple(u: TDTuple) -> CTuple:
    """Embed a rectangle as an uncropped cropped-rectangle tuple."""
    return CTuple(u.n1, u.n2, u.tau, u.delta, u.tau.lo, u.tau.hi)


# --- unfoldings (discrete time only) ----------------------------------------


def cells(u: TTuple | DTuple | TDTuple | CTuple):
    """The (t, d) points of one tuple, by increasing t then d (discrete time only).

    A ``t``, ``d`` or ``td`` tuple is embedded as an uncropped cropped rectangle
    first, so that one slice rule serves all four kinds.
    """
    if not isinstance(u, CTuple):
        u = as_ctuple(u if isinstance(u, TDTuple) else as_td(u))
    for t in iv.iter_points(u.tau):
        sl = delta_at(u, t)
        if sl is not None:
            for d in iv.iter_points(sl):
                yield t, d


def unfold(tuples, kind: str) -> frozenset[PointTuple]:
    """The point tuples of a set of ``t``, ``d``, ``td`` or ``c`` tuples, or of an AnswerSet."""
    items = getattr(tuples, "tuples", tuples)
    if getattr(tuples, "mode", "discrete") != "discrete":
        raise DenseInfeasibleError(f"dense time: unfolding a U^{kind} set is infinite")
    return frozenset(PointTuple(u.n1, u.n2, t, d) for u in items for t, d in cells(u))


def unfold_t(tuples: Iterable[TTuple]) -> frozenset[PointTuple]:
    return unfold(tuples, "t")


def unfold_d(tuples: Iterable[DTuple]) -> frozenset[PointTuple]:
    return unfold(tuples, "d")


def unfold_td(tuples: Iterable[TDTuple]) -> frozenset[PointTuple]:
    return unfold(tuples, "td")


def unfold_c(tuples: Iterable[CTuple]) -> frozenset[PointTuple]:
    return unfold(tuples, "c")


# --- containment ------------------------------------------------------------


def td_covers(u: TDTuple, v: TDTuple) -> bool:
    """True when v's unfolding is contained in u's."""
    return (
        (u.n1, u.n2) == (v.n1, v.n2)
        and iv.covers(u.tau, v.tau)
        and iv.covers(u.delta, v.delta)
    )


def c_covers(u: CTuple, v: CTuple) -> bool:
    """True when v's region is contained in u's (both assumed valid).

    u is the intersection of its tau-, delta- and band slabs, so v lies
    within u iff v's projection onto each of those axes lies within u's
    slab there; exact over both modes.
    """
    if (u.n1, u.n2) != (v.n1, v.n2) or not iv.covers(u.tau, v.tau):
        return False
    distances = iv.intersect(v.delta, iv.mdiff(band(v), v.tau))
    return iv.covers(u.delta, distances) and iv.covers(band(u), arrival_times(v))


# --- rendering and ordering ---------------------------------------------------


def render_tuple(u) -> str:
    kind = type(u)
    try:  # numbers as iv.format_number prints them
        if kind is CTuple:
            n1, n2, tau, delta, b, e = u
            return f"c {n1} {n2} {_render(tau)} {_render(delta)} b={b} e={e}"
        if kind is TDTuple:
            return f"td {u.n1} {u.n2} {_render(u.tau)} {_render(u.delta)}"
        if kind is TTuple:
            return f"t {u.n1} {u.n2} {_render(u.tau)} {u.d}"
        if kind is DTuple:
            return f"d {u.n1} {u.n2} {u.t} {_render(u.delta)}"
        if kind is PointTuple:
            return f"p {u.n1} {u.n2} {u.t} {u.d}"
    except ValueError:
        raise iv._too_many_digits() from None
    raise TypeError(f"not an answer tuple: {u!r}")


def tuple_sort_key(u):
    """(n1, n2) and then each field, an interval as its ``iv.sort_key``."""
    kind = type(u)
    if kind is CTuple:
        n1, n2, (t0, t1, tl, tr), (d0, d1, dl, dr), b, e = u
        return (n1, n2, t0, not tl, t1, not tr, d0, not dl, d1, not dr, b, e)
    if kind is TDTuple:
        n1, n2, (t0, t1, tl, tr), (d0, d1, dl, dr) = u
        return (n1, n2, t0, not tl, t1, not tr, d0, not dl, d1, not dr)
    if kind is TTuple:
        n1, n2, (t0, t1, tl, tr), d = u
        return (n1, n2, t0, not tl, t1, not tr, d)
    if kind is DTuple:
        n1, n2, t, (d0, d1, dl, dr) = u
        return (n1, n2, t, d0, not dl, d1, not dr)
    if kind is PointTuple:
        return u  # (n1, n2, t, d) already
    raise TypeError(f"not an answer tuple: {u!r}")
