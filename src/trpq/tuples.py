"""The four compact answer-tuple kinds and their unfoldings.

* ``TTuple``  folds time points:     (n1, n2, tau, d)
* ``DTuple``  folds distances:       (n1, n2, t, delta)
* ``TDTuple`` folds both:            (n1, n2, tau, delta), a rectangle in the
  time-by-distance plane
* ``CTuple``  a cropped rectangle:   (n1, n2, tau, delta, b, e); the two extra
  time points locate the slope -1 lines that crop the rectangle's lower-left
  and upper-right corners.

For a cropped tuple the admissible distances at time t are

    delta_t = <| lo(delta) + max(0, b - t),  hi(delta) - max(0, t - e) |>

with delta's own delimiters.  A cropped tuple is valid iff delta_t is
nonempty for every t in tau; since the slack hi - lo is concave piecewise
linear in t, validity reduces to an endpoint check, implemented here as
containment of tau in the analytically derived admissible-time interval
(which also handles open delimiters over dense time exactly).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import intervals as iv
from .errors import DenseInfeasibleError
from .intervals import Interval, Number
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


def _lower_bound_at(c: CTuple, t: Number) -> Number:
    return c.delta.lo + max(0, c.b - t)


def _upper_bound_at(c: CTuple, t: Number) -> Number:
    return c.delta.hi - max(0, t - c.e)


def delta_at(c: CTuple, t: Number) -> Optional[Interval]:
    """The slice of admissible distances at time ``t``; None when empty."""
    if not iv.contains(c.tau, t):
        raise ValueError(f"time point {iv.format_number(t)} lies outside {c.tau}")
    lo, hi = _lower_bound_at(c, t), _upper_bound_at(c, t)
    if lo > hi or (lo == hi and not (c.delta.left_closed and c.delta.right_closed)):
        return None
    return Interval(lo, hi, c.delta.left_closed, c.delta.right_closed)


def admissible_window(delta: Interval, b: Number, e: Number) -> Optional[Interval]:
    """The interval of times t whose slice delta_t is nonempty."""
    w = delta.hi - delta.lo
    strict = not (delta.left_closed and delta.right_closed)
    gap = b - e
    if strict:
        if w <= gap:
            return None
        return Interval(b - w, e + w, False, False)
    if w < gap:
        return None
    return Interval(b - w, e + w, True, True)


def ctuple_valid(c: CTuple) -> bool:
    """Endpoint check: delta_t nonempty for every t in tau.

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
    """The point tuples of a set of ``kind`` tuples, or of an AnswerSet."""
    items = getattr(tuples, "tuples", tuples)
    if kind == "point":
        return frozenset(items)
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


def c_covers(u: CTuple, v: CTuple) -> bool:
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


# --- rendering and ordering ---------------------------------------------------


def render_tuple(u) -> str:
    if isinstance(u, PointTuple):
        return f"p {u.n1} {u.n2} {iv.format_number(u.t)} {iv.format_number(u.d)}"
    if isinstance(u, TTuple):
        return f"t {u.n1} {u.n2} {u.tau} {iv.format_number(u.d)}"
    if isinstance(u, DTuple):
        return f"d {u.n1} {u.n2} {iv.format_number(u.t)} {u.delta}"
    if isinstance(u, TDTuple):
        return f"td {u.n1} {u.n2} {u.tau} {u.delta}"
    if isinstance(u, CTuple):
        return (
            f"c {u.n1} {u.n2} {u.tau} {u.delta} "
            f"b={iv.format_number(u.b)} e={iv.format_number(u.e)}"
        )
    raise TypeError(f"not an answer tuple: {u!r}")


def tuple_sort_key(u):
    if isinstance(u, PointTuple):
        return (u.n1, u.n2, u.t, u.d)
    if isinstance(u, TTuple):
        return (u.n1, u.n2, *iv.sort_key(u.tau), u.d)
    if isinstance(u, DTuple):
        return (u.n1, u.n2, u.t, *iv.sort_key(u.delta))
    if isinstance(u, TDTuple):
        return (u.n1, u.n2, *iv.sort_key(u.tau), *iv.sort_key(u.delta))
    if isinstance(u, CTuple):
        return (u.n1, u.n2, *iv.sort_key(u.tau), *iv.sort_key(u.delta), u.b, u.e)
    raise TypeError(f"not an answer tuple: {u!r}")
