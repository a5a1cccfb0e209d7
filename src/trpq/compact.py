"""Compaction of answer sets.

Coalescing gives the unique minimal form in U^t / U^d.  For the rectangle
representations there is no unique minimum; this module provides subsumption
removal, a deterministic greedy reducer (no optimality claim), and an
exponential exact minimizer for tiny discrete instances that serves as a test
oracle (overlapping covers or disjoint ones).  Subsumption removal and greedy
reduction return their input when they drop or merge nothing.  Both run one
scan per node pair, in order of lo(tau), that compares a tuple only with the
later ones whose taus meet or touch its own, as only those cover or merge; a
cover keeps the scan going, a merge restarts it.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations_with_replacement, groupby, product
from typing import Optional

from . import intervals as iv
from .errors import DenseInfeasibleError, MinimizeGuardError
from .evaluate import AnswerSet
from .intervals import Interval
from .tuples import (
    CTuple,
    DTuple,
    TDTuple,
    TTuple,
    band,
    c_covers,
    cells,
    ctuple_valid,
    td_covers,
    tuple_sort_key,
)

_MAX_CELLS = 64
_MAX_COVERS = 256


def coalesce_t(s: AnswerSet) -> AnswerSet:
    """The unique compact form in U^t: per (n1, n2, d), coalesced time intervals."""
    return _coalesce_rows(s, "t", TTuple, fixed="d", folded="tau")


def coalesce_d(s: AnswerSet) -> AnswerSet:
    """The unique compact form in U^d: per (n1, n2, t), coalesced distance intervals."""
    return _coalesce_rows(s, "d", DTuple, fixed="t", folded="delta")


def _coalesce_rows(s: AnswerSet, kind: str, make, *, fixed: str, folded: str) -> AnswerSet:
    """Group the tuples by (n1, n2, ``fixed``) and coalesce each group's ``folded`` intervals."""
    if s.kind != kind:
        raise ValueError(f"coalesce_{kind} expects a U^{kind} answer set, got {s.kind!r}")
    rows: dict[tuple, list[Interval]] = {}
    for u in s:
        rows.setdefault((u.n1, u.n2, getattr(u, fixed)), []).append(getattr(u, folded))
    discrete = s.mode == "discrete"
    return AnswerSet(kind, s.mode, [
        make(n1=n1, n2=n2, **{fixed: value, folded: x})
        for (n1, n2, value), xs in rows.items()
        for x in iv.coalesce(xs, discrete=discrete)
    ])


def _pairwise(s: AnswerSet, what: str):
    """The cover test and the merge rule of ``s``'s kind; ``what`` names the caller in errors."""
    if s.kind == "td":
        return td_covers, _merge_td
    if s.kind == "c":
        return c_covers, _merge_c
    raise ValueError(f"{what} is defined for U^td and U^c, got {s.kind!r}")


def _pair_runs(s: AnswerSet):
    """The tuples of each node pair (n1, n2), one list per pair, in canonical order.

    Tuples of different pairs never cover or merge, and ``tuple_sort_key`` starts
    with (n1, n2, lo(tau)): each pair is one contiguous run, in order of lo(tau).
    """
    for _, run in groupby(s.tuples, key=lambda u: (u.n1, u.n2)):
        yield list(run)


def _reduce(s: AnswerSet, covers, merge) -> AnswerSet:
    """Drop covered tuples and, unless ``merge`` is None, merge pairs, per node pair.

    The scan tries each tuple ``a`` of a run with the later tuples ``b`` in reach.
    A cover deletes the covered tuple (on a mutual cover ``a`` stays) and the scan
    goes on, as the pairs it passed stay inert; a merge inserts the merged tuple
    in order and the scan restarts.  Each action leaves one tuple fewer.
    """
    discrete = s.mode == "discrete"
    touch = 1 if discrete else 0
    out = []
    for run in _pair_runs(s):
        i = 0
        while i < len(run) - 1:  # the last tuple has no later one to try
            a, j = run[i], i + 1
            # past the first b whose tau starts after a's ends (+ touch), none meets a's
            while j < len(run) and run[j].tau.lo <= a.tau.hi + touch:
                b = run[j]
                if covers(a, b):
                    del run[j]
                    continue
                if covers(b, a):
                    del run[i]
                    break
                merged = merge(a, b, discrete) if merge else None
                if merged is not None:
                    del run[j], run[i]
                    insort(run, merged, key=tuple_sort_key)
                    i = 0
                    break
                j += 1
            else:
                i += 1
        out += run
    return s if len(out) == len(s) else AnswerSet(s.kind, s.mode, out)


def remove_subsumed(s: AnswerSet) -> AnswerSet:
    """Drop tuples whose unfolding is contained in a single other tuple's.

    Of two tuples with equal unfoldings the earlier one in canonical order stays.
    """
    return _reduce(s, _pairwise(s, "subsumption")[0], None)


# --------------------------------------------------------------------------
# greedy reduction
# --------------------------------------------------------------------------


def _merge_td(a: TDTuple, b: TDTuple, discrete: bool) -> Optional[TDTuple]:
    if a.delta == b.delta and iv.union_is_interval(a.tau, b.tau, discrete=discrete):
        return TDTuple(a.n1, a.n2, iv.hull(a.tau, b.tau), a.delta)
    if a.tau == b.tau and iv.union_is_interval(a.delta, b.delta, discrete=discrete):
        return TDTuple(a.n1, a.n2, a.tau, iv.hull(a.delta, b.delta))
    return None


def _merge_c(a: CTuple, b: CTuple, discrete: bool) -> Optional[CTuple]:
    same_crop = (a.delta, a.b, a.e) == (b.delta, b.b, b.e)
    if same_crop and iv.union_is_interval(a.tau, b.tau, discrete=discrete):
        merged = CTuple(a.n1, a.n2, iv.hull(a.tau, b.tau), a.delta, a.b, a.e)
        if ctuple_valid(merged):
            return merged
    if not discrete:
        return None
    # hull of the rectangles and of the bands, verified cellwise
    tau = iv.hull(a.tau, b.tau)
    delta = iv.hull(a.delta, b.delta)
    sums = iv.hull(band(a), band(b))
    merged = CTuple(a.n1, a.n2, tau, delta, sums.lo - delta.lo, sums.hi - delta.hi)
    if ctuple_valid(merged) and set(cells(merged)) == {*cells(a), *cells(b)}:
        return merged
    return None


def greedy_reduce(s: AnswerSet) -> AnswerSet:
    """Deterministic pairwise merging to a local fixpoint, one node pair at a time.

    Unfolding-preserving and never larger than the input; makes no claim of
    minimality (exact minimization is intractable for these representations).
    """
    return _reduce(s, *_pairwise(s, "greedy_reduce"))


# --------------------------------------------------------------------------
# exact minimization (test oracle for tiny discrete instances)
# --------------------------------------------------------------------------


def _regions_by_pair(s: AnswerSet) -> dict[tuple[str, str], set]:
    """The cells of each node pair, refused as soon as one pair passes ``_MAX_CELLS``."""
    regions: dict[tuple[str, str], set] = {}
    for u in s:
        region = regions.setdefault((u.n1, u.n2), set())
        for cell in cells(u):
            region.add(cell)
            if len(region) > _MAX_CELLS:
                raise MinimizeGuardError(f"answer region for {(u.n1, u.n2)} has more than "
                                         f"{_MAX_CELLS} cells (the exact minimizer's limit)")
    return regions


def _candidates(
    kind: str, region: set, n1: str, n2: str
) -> list[tuple[frozenset, TDTuple | CTuple]]:
    """Every rectangle (U^td) or cropped rectangle (U^c) whose cells lie in the region.

    Corners are taken from the region's coordinates and crop lines from the
    t+d sums occurring in it, which is where any useful crop line must sit.
    Of the candidates with the same cells the first in canonical order stays.
    """
    ts = sorted({t for t, _ in region})
    ds = sorted({d for _, d in region})
    sums = sorted({t + d for t, d in region})
    by_cells: dict[frozenset, TDTuple | CTuple] = {}
    corners = product(combinations_with_replacement(ts, 2), combinations_with_replacement(ds, 2))
    for (t1, t2), (d1, d2) in corners:
        for cand in _shapes(kind, n1, n2, iv.closed(t1, t2), iv.closed(d1, d2), sums):
            body = frozenset(cells(cand))
            if not body or not body <= region:
                continue
            kept = by_cells.get(body)
            if kept is None or tuple_sort_key(cand) < tuple_sort_key(kept):
                by_cells[body] = cand
    return list(by_cells.items())


def _shapes(kind: str, n1: str, n2: str, tau: Interval, delta: Interval, sums: list):
    """The candidates on one rectangle: itself in U^td, its valid crops in U^c."""
    if kind == "td":
        yield TDTuple(n1, n2, tau, delta)
        return
    for low in sums:
        if low > tau.hi + delta.hi:
            break
        for high in sums:
            if high >= low:
                cand = CTuple(n1, n2, tau, delta, low - delta.lo, high - delta.hi)
                if ctuple_valid(cand):
                    yield cand


def _search_covers(region: frozenset, candidates: list, disjoint: bool) -> list[frozenset]:
    """All minimum-cardinality covers of the region, as frozensets of tuples.

    Branch and bound on the least uncovered cell; candidates must each be a
    subset of the region.
    """
    best = [len(region) + 1]
    found: list[frozenset] = []
    order = sorted(candidates, key=lambda c: (-len(c[0]), tuple_sort_key(c[1])))

    def search(uncovered: frozenset, chosen: tuple):
        if not uncovered:
            size = len(chosen)
            if size < best[0]:
                best[0] = size
                found.clear()
            if size == best[0]:
                cover = frozenset(chosen)
                if cover not in found and len(found) < _MAX_COVERS:
                    found.append(cover)
            return
        if len(chosen) + 1 > best[0]:
            return
        pivot = min(uncovered)
        for cells, cand in order:
            if pivot not in cells:
                continue
            if disjoint and not cells <= uncovered:
                continue
            search(uncovered - cells, chosen + (cand,))

    search(region, ())
    return found


def _check_exact(s: AnswerSet, mode: str, kinds: tuple[str, ...]) -> None:
    if mode not in ("overlapping", "disjoint"):
        raise ValueError(f"unknown minimization mode {mode!r}")
    if s.mode != "discrete":
        raise DenseInfeasibleError("dense time: exact minimization works on discrete regions")
    if s.kind not in kinds:
        raise ValueError(f"cannot minimize representation {s.kind!r} here; expected one of {kinds}")


def _pair_covers(s: AnswerSet, pair: tuple[str, str], region: set, mode: str) -> list[frozenset]:
    """All minimum covers of one node pair's region by candidate tuples of ``s.kind``."""
    candidates = _candidates(s.kind, region, *pair)
    return _search_covers(frozenset(region), candidates, mode == "disjoint")


def minimum_covers(s: AnswerSet, mode: str = "overlapping") -> list[AnswerSet]:
    """All minimum covers of a single-node-pair answer region (tiny instances).

    ``mode`` is ``overlapping`` or ``disjoint``.  Returns one AnswerSet per
    distinct minimum cover, canonically ordered.
    """
    _check_exact(s, mode, ("td", "c"))
    regions = _regions_by_pair(s)
    if len(regions) > 1:
        raise ValueError("cover enumeration expects a single node pair")
    if not regions:
        return [AnswerSet(s.kind, s.mode, ())]
    (pair, region), = regions.items()
    covers = _pair_covers(s, pair, region, mode)
    answer_sets = [AnswerSet(s.kind, s.mode, cover) for cover in covers]
    answer_sets.sort(key=lambda a: tuple(tuple_sort_key(u) for u in a.tuples))
    return answer_sets


def minimize_exact(s: AnswerSet, mode: str = "overlapping") -> AnswerSet:
    """A minimum-cardinality answer set with the same unfolding (brute force).

    For U^t / U^d the minimum is the per-row run count, which coalescing
    gives: it is ``coalesce_t`` / ``coalesce_d``, at any width.  For U^td /
    U^c candidate rectangles (cropped rectangles) are generated from region
    coordinates and a minimum set cover is found by branch and bound, per
    node pair.  Guarded to tiny discrete instances.
    """
    _check_exact(s, mode, ("t", "d", "td", "c"))
    if s.kind in ("t", "d"):
        return coalesce_t(s) if s.kind == "t" else coalesce_d(s)
    chosen = []
    for pair, region in sorted(_regions_by_pair(s).items()):
        covers = _pair_covers(s, pair, region, mode)
        chosen.extend(min(covers, key=lambda cover: tuple(sorted(map(tuple_sort_key, cover)))))
    return AnswerSet(s.kind, s.mode, chosen)
