"""Exact arithmetic on time points and delimited intervals.

Time points are exact numbers: plain ``int`` over discrete time, arbitrary
precision ``fractions.Fraction`` over dense time (never floats, so boundary
arithmetic in tests and golden values stays exact).  An :class:`Interval` is
bounded, nonempty and delimiter-aware.  Discrete-time callers normalise to
closed integer bounds with :func:`normalize_discrete`; over the integers every
nonempty interval has that form, which makes equality and coalescing canonical.
:func:`scale` multiplies a number or an interval by a positive factor and
returns an integral value as an ``int``; every evaluator uses it to move a
dense evaluation onto a common integer grid, so that ``int`` arithmetic
replaces ``Fraction``; ``evaluate._scale_back`` divides the answers back.

>>> msum(closed(100, 101), closed(3, 5))
Interval(103, 106)
>>> mdiff(closed(6, 8), closed(3, 5))
Interval(1, 5)
>>> intersect(closed(0, 2), closed(3, 5)) is None
True
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .errors import EmptyIntervalError, IntervalDomainError, ModeError, TrpqError

Number = int | Fraction

# an unsigned number literal as parse_number reads it: integer, p/q or decimal
NUMBER_PATTERN = r"\d+(?:/\d+|\.\d+)?"
# an interval literal; its groups are the two delimiters and the two bounds
INTERVAL_PATTERN = rf"([\[(])\s*(-?{NUMBER_PATTERN})\s*,\s*(-?{NUMBER_PATTERN})\s*([\])])"
_INTERVAL_RE = re.compile(rf"\s*{INTERVAL_PATTERN}\s*")


def parse_number(text: str) -> Number:
    """Parse an exact number: integer, ``p/q`` rational, or decimal literal.

    A zero denominator, a malformed literal, or one with more digits than the
    interpreter converts to an integer (4,300 by default) raises TrpqError.
    """
    text = text.strip()
    try:
        if "/" in text or "." in text:
            value = Fraction(text)
            return int(value) if value.denominator == 1 else value
        return int(text)
    except (ZeroDivisionError, ValueError) as exc:
        shown = text if len(text) <= 40 else f"{text[:20]}...{text[-10:]} ({len(text)} characters)"
        if isinstance(exc, ZeroDivisionError):
            raise TrpqError(f"number {shown} has a zero denominator") from None
        raise TrpqError(f"cannot read number {shown}: malformed, or too many digits") from None


def format_number(x: Number) -> str:
    """The exact text of a number, as ``str`` prints it: an integer, or ``p/q``.

    More digits than the interpreter converts to text (4,300 by default) raise TrpqError."""
    try:
        return str(x)
    except ValueError:
        raise _too_many_digits() from None


def _too_many_digits() -> TrpqError:
    return TrpqError(f"cannot print a number of more than {sys.get_int_max_str_digits():,} digits")


def is_integral(x: Number) -> bool:
    return isinstance(x, int) or x.denominator == 1


def _render(iv: tuple) -> str:
    """The text of an Interval, or of the four fields it would be built from."""
    lo, hi, left_closed, right_closed = iv
    try:  # as format_number prints them
        return f"{'[' if left_closed else '('}{lo},{hi}{']' if right_closed else ')'}"
    except ValueError:
        raise _too_many_digits() from None


class _IntervalFields(NamedTuple):
    # the fields alone: a NamedTuple may not override __new__, its subclass may
    lo: Number
    hi: Number
    left_closed: bool
    right_closed: bool


class Interval(_IntervalFields):
    """A bounded, nonempty interval with per-side delimiters."""

    __slots__ = ()

    def __new__(cls, lo: Number, hi: Number, left_closed: bool = True, right_closed: bool = True):
        if lo > hi or (lo == hi and not (left_closed and right_closed)):
            fields = (lo, hi, left_closed, right_closed)
            raise EmptyIntervalError(f"empty interval {_render(fields)}")
        return tuple.__new__(cls, (lo, hi, left_closed, right_closed))

    def __repr__(self):
        if self.left_closed and self.right_closed:
            return f"Interval({self.lo!r}, {self.hi!r})"
        return f"Interval.parse({_render(self)!r})"

    __str__ = _render

    def __contains__(self, t: Number) -> bool:
        return contains(self, t)

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    @staticmethod
    def parse(text: str) -> "Interval":
        return parse_interval(text)


# builds an Interval known to be nonempty, without Interval.__new__'s check
_new = tuple.__new__


def parse_interval(text: str) -> Interval:
    m = _INTERVAL_RE.fullmatch(text)
    if m is None:
        raise EmptyIntervalError(f"not an interval literal: {text!r}")
    left, lo, hi, right = m.groups()
    return Interval(parse_number(lo), parse_number(hi), left == "[", right == "]")


def closed(lo: Number, hi: Number) -> Interval:
    return Interval(lo, hi, True, True)


def point(v: Number) -> Interval:
    return Interval(v, v, True, True)


def contains(iv: Interval, t: Number) -> bool:
    """Membership respecting delimiters."""
    if t < iv.lo or (t == iv.lo and not iv.left_closed):
        return False
    if t > iv.hi or (t == iv.hi and not iv.right_closed):
        return False
    return True


def covers(outer: Interval, inner: Interval) -> bool:
    """Set containment ``inner`` within ``outer``, respecting delimiters."""
    if inner.lo < outer.lo or (inner.lo == outer.lo and inner.left_closed and not outer.left_closed):
        return False
    if inner.hi > outer.hi or (inner.hi == outer.hi and inner.right_closed and not outer.right_closed):
        return False
    return True


def shift(iv: Interval, d: Number) -> Interval:
    """Pointwise translation: {t + d | t in iv}; delimiters preserved."""
    return _new(Interval, (iv.lo + d, iv.hi + d, iv.left_closed, iv.right_closed))


def scale(x: Number | Interval, factor: Number) -> Number | Interval:
    """x * factor for a number; pointwise for an interval, delimiters preserved.

    The factor is positive.  An integral result comes out as an ``int``,
    never as ``Fraction(n, 1)``.
    """
    if isinstance(x, Interval):
        return Interval(scale(x.lo, factor), scale(x.hi, factor), x.left_closed, x.right_closed)
    y = x * factor
    return y if isinstance(y, int) or y.denominator != 1 else y.numerator


def msum(a: Interval, b: Interval) -> Interval:
    """Minkowski sum {x + y | x in a, y in b}.

    Each resulting delimiter is closed iff both contributing delimiters are.
    """
    return _new(Interval, (
        a.lo + b.lo,
        a.hi + b.hi,
        a.left_closed and b.left_closed,
        a.right_closed and b.right_closed,
    ))


def mdiff(a: Interval, b: Interval) -> Interval:
    """Minkowski difference {x - y | x in a, y in b}."""
    return _new(Interval, (
        a.lo - b.hi,
        a.hi - b.lo,
        a.left_closed and b.right_closed,
        a.right_closed and b.left_closed,
    ))


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """Set intersection; ``None`` signals the empty result."""
    fields = _meet(*a, *b)
    return None if fields is None else _new(Interval, fields)


def _meet(alo, ahi, alc, arc, blo, bhi, blc, brc) -> Optional[tuple]:
    """The fields of the intersection of two intervals given by theirs; None when empty.

    At shared endpoints the tighter (open) delimiter wins.  On raw fields, so that
    a caller can compose intervals on their endpoints and build only the last one.
    """
    if alo > blo or (alo == blo and not alc):
        lo, lc = alo, alc
    else:
        lo, lc = blo, blc
    if ahi < bhi or (ahi == bhi and not arc):
        hi, rc = ahi, arc
    else:
        hi, rc = bhi, brc
    if lo < hi or (lo == hi and lc and rc):
        return lo, hi, lc, rc
    return None


def hull(a: Interval, b: Interval) -> Interval:
    """Smallest interval containing both operands."""
    if a.lo < b.lo or (a.lo == b.lo and a.left_closed):
        lo, lc = a.lo, a.left_closed
    else:
        lo, lc = b.lo, b.left_closed
    if lo == a.lo == b.lo:
        lc = a.left_closed or b.left_closed
    if a.hi > b.hi or (a.hi == b.hi and a.right_closed):
        hi, rc = a.hi, a.right_closed
    else:
        hi, rc = b.hi, b.right_closed
    if hi == a.hi == b.hi:
        rc = a.right_closed or b.right_closed
    return Interval(lo, hi, lc, rc)


def union_is_interval(a: Interval, b: Interval, *, discrete: bool) -> bool:
    """True when the set union of the two intervals is itself an interval.

    Over the integers, touching closed intervals like [1,2] and [3,4] merge
    because {1,2,3,4} is an interval of Z.
    """
    if discrete:
        a, b = normalize_discrete(a), normalize_discrete(b)
        if a.lo > b.lo:
            a, b = b, a
        return b.lo <= a.hi + 1
    if a.lo > b.lo:  # two nonempty intervals with one low always make an interval
        a, b = b, a
    if b.lo < a.hi:
        return True
    if b.lo == a.hi and (a.right_closed or b.left_closed):
        return True
    return False


def sort_key(iv: Interval):
    return (iv.lo, not iv.left_closed, iv.hi, not iv.right_closed)


def coalesce(items: Iterable[Interval], *, discrete: bool) -> tuple[Interval, ...]:
    """The unique minimal canonical set of intervals with the same union.

    Output is pairwise disjoint, non-adjacent and sorted by lower bound;
    idempotent and invariant under input order.  O(n log n).
    """
    if discrete:
        # intervals already in canonical form, as the graph loader makes them, stay as they are
        items = [iv if is_discrete_canonical(iv) else normalize_discrete(iv) for iv in items]
    ordered = sorted(items, key=sort_key)
    out: list[Interval] = []
    for iv in ordered:
        # in order by lower bound, canonical integer intervals merge when they touch
        if out and (
            iv.lo <= out[-1].hi + 1 if discrete else union_is_interval(out[-1], iv, discrete=False)
        ):
            out[-1] = hull(out[-1], iv)
        else:
            out.append(iv)
    return tuple(out)


def complement(items: Iterable[Interval], bound: Interval, *, discrete: bool) -> tuple[Interval, ...]:
    """Maximal intervals whose union is ``bound`` minus the union of ``items``.

    Every input interval must be contained in ``bound``.
    """
    if discrete:
        bound = normalize_discrete(bound)
    items = list(items)
    for iv in items:
        chk = normalize_discrete(iv) if discrete else iv
        if not covers(bound, chk):
            raise IntervalDomainError(f"{_render(iv)} is not contained in {_render(bound)}")
    gaps: list[Interval] = []
    cur_lo, cur_lc = bound.lo, bound.left_closed
    for iv in coalesce(items, discrete=discrete):
        if cur_lo < iv.lo or (cur_lo == iv.lo and cur_lc and not iv.left_closed):
            gaps.append(Interval(cur_lo, iv.lo, cur_lc, not iv.left_closed))
        cur_lo, cur_lc = iv.hi, not iv.right_closed
    if cur_lo < bound.hi or (cur_lo == bound.hi and cur_lc and bound.right_closed):
        gaps.append(Interval(cur_lo, bound.hi, cur_lc, bound.right_closed))
    if discrete:
        # discretely coalesced items are at least one integer apart, so no gap is empty
        return tuple(normalize_discrete(gap) for gap in gaps)
    return tuple(gaps)


def normalize_discrete(iv: Interval) -> Interval:
    """Canonical closed-closed integer form of ``iv`` over discrete time.

    Open bounds move inward by one; fractional bounds round inward.  Raises
    :class:`EmptyIntervalError` when no integer survives, e.g. (0,1) over Z.
    """
    lo, hi = iv.lo, iv.hi
    if is_integral(lo):
        lo = int(lo) + (0 if iv.left_closed else 1)
    else:
        lo = math.ceil(lo)
    if is_integral(hi):
        hi = int(hi)
        if not iv.right_closed:
            hi -= 1
    else:
        hi = math.floor(hi)
    if lo > hi:
        raise EmptyIntervalError(f"interval {_render(iv)} is empty over discrete time")
    return Interval(lo, hi, True, True)


def is_discrete_canonical(iv: Interval) -> bool:
    return (
        isinstance(iv.lo, int)
        and isinstance(iv.hi, int)
        and iv.left_closed
        and iv.right_closed
    )


def iter_points(iv: Interval) -> range:
    """Integer points of a discrete-canonical interval, in increasing order."""
    if not is_discrete_canonical(iv):
        raise ModeError(f"cannot enumerate points of non-canonical interval {_render(iv)}")
    return range(iv.lo, iv.hi + 1)
