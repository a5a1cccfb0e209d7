"""Compaction of answer sets.

Coalescing gives the unique minimal form in U^t / U^d.  For the rectangle
representations there is no unique minimum; this module provides subsumption
removal, a deterministic greedy reducer (no optimality claim), and an
exponential exact minimizer for tiny discrete instances that serves as a test
oracle (overlapping covers or disjoint ones).
"""

from __future__ import annotations

from itertools import groupby
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
    c_covers,
    coalesce_d_tuples,
    coalesce_t_tuples,
    ctuple_valid,
    delta_at,
    td_covers,
    tuple_sort_key,
    unfold,
)

_MAX_CELLS = 64
_MAX_COVERS = 256


def coalesce_t(s: AnswerSet) -> AnswerSet:
    """The unique compact form in U^t: per (n1, n2, d), coalesced time intervals."""
    if s.kind != "t":
        raise ValueError(f"coalesce_t expects a U^t answer set, got {s.kind!r}")
    return AnswerSet("t", s.mode, coalesce_t_tuples(s.tuples, discrete=s.mode == "discrete"))


def coalesce_d(s: AnswerSet) -> AnswerSet:
    """The unique compact form in U^d: per (n1, n2, t), coalesced distance intervals."""
    if s.kind != "d":
        raise ValueError(f"coalesce_d expects a U^d answer set, got {s.kind!r}")
    return AnswerSet("d", s.mode, coalesce_d_tuples(s.tuples, discrete=s.mode == "discrete"))


def _covers_fn(kind: str):
    if kind == "td":
        return td_covers
    if kind == "c":
        return c_covers
    raise ValueError(f"subsumption is defined for U^td and U^c, got {kind!r}")


def _pair_runs(s: AnswerSet):
    """The tuples of each node pair (n1, n2), one list per pair, in canonical order.

    Tuples of different pairs never cover or merge with each other, and
    ``tuple_sort_key`` starts with (n1, n2), so each pair is one contiguous run.
    """
    for _, run in groupby(s.tuples, key=lambda u: (u.n1, u.n2)):
        yield list(run)


def remove_subsumed(s: AnswerSet) -> AnswerSet:
    """Drop tuples whose unfolding is contained in a single other tuple's.

    Of two tuples with equal unfoldings the earlier one in canonical order stays.
    """
    dominates = _covers_fn(s.kind)
    kept = []
    for run in _pair_runs(s):
        for i, u in enumerate(run):
            dominated = False
            for j, v in enumerate(run):
                if i == j:
                    continue
                if dominates(v, u) and (not dominates(u, v) or j < i):
                    dominated = True
                    break
            if not dominated:
                kept.append(u)
    return AnswerSet(s.kind, s.mode, kept)


# --------------------------------------------------------------------------
# greedy reduction
# --------------------------------------------------------------------------


def _cells_c(u: CTuple) -> frozenset:
    out = set()
    for t in iv.iter_points(u.tau):
        sl = delta_at(u, t)
        if sl is None:
            continue
        for d in iv.iter_points(sl):
            out.add((t, d))
    return frozenset(out)


def _try_merge_td(a: TDTuple, b: TDTuple, discrete: bool) -> Optional[TDTuple]:
    if (a.n1, a.n2) != (b.n1, b.n2):
        return None
    if td_covers(a, b):
        return a
    if td_covers(b, a):
        return b
    if a.delta == b.delta and iv.union_is_interval(a.tau, b.tau, discrete=discrete):
        return TDTuple(a.n1, a.n2, iv.hull(a.tau, b.tau), a.delta)
    if a.tau == b.tau and iv.union_is_interval(a.delta, b.delta, discrete=discrete):
        return TDTuple(a.n1, a.n2, a.tau, iv.hull(a.delta, b.delta))
    return None


def _try_merge_c(a: CTuple, b: CTuple, discrete: bool) -> Optional[CTuple]:
    if (a.n1, a.n2) != (b.n1, b.n2):
        return None
    if c_covers(a, b):
        return a
    if c_covers(b, a):
        return b
    if (
        a.delta == b.delta
        and a.b == b.b
        and a.e == b.e
        and iv.union_is_interval(a.tau, b.tau, discrete=discrete)
    ):
        merged = CTuple(a.n1, a.n2, iv.hull(a.tau, b.tau), a.delta, a.b, a.e)
        if ctuple_valid(merged):
            return merged
    if not discrete:
        return None
    # hull of the rectangles and of the anti-diagonal bands, verified cellwise
    tau = iv.hull(a.tau, b.tau)
    delta = iv.hull(a.delta, b.delta)
    low = min(a.b + a.delta.lo, b.b + b.delta.lo)
    high = max(a.e + a.delta.hi, b.e + b.delta.hi)
    merged = CTuple(a.n1, a.n2, tau, delta, low - delta.lo, high - delta.hi)
    if ctuple_valid(merged) and _cells_c(merged) == _cells_c(a) | _cells_c(b):
        return merged
    return None


def greedy_reduce(s: AnswerSet) -> AnswerSet:
    """Deterministic pairwise merging to a local fixpoint, one node pair at a time.

    Unfolding-preserving and never larger than the input; makes no claim of
    minimality (exact minimization is intractable for these representations).
    """
    if s.kind == "td":
        merge = _try_merge_td
    elif s.kind == "c":
        merge = _try_merge_c
    else:
        raise ValueError(f"greedy_reduce is defined for U^td and U^c, got {s.kind!r}")
    discrete = s.mode == "discrete"
    out = []
    for tuples in _pair_runs(s):
        changed = True
        while changed:
            changed = False
            tuples.sort(key=tuple_sort_key)
            for i in range(len(tuples)):
                for j in range(i + 1, len(tuples)):
                    merged = merge(tuples[i], tuples[j], discrete)
                    if merged is None:
                        continue
                    del tuples[j]
                    del tuples[i]
                    tuples.append(merged)
                    changed = True
                    break
                if changed:
                    break
        out.extend(tuples)
    return AnswerSet(s.kind, s.mode, out)


# --------------------------------------------------------------------------
# exact minimization (test oracle for tiny discrete instances)
# --------------------------------------------------------------------------


def _regions_by_pair(s: AnswerSet) -> dict[tuple[str, str], set]:
    regions: dict[tuple[str, str], set] = {}
    for p in unfold(s, s.kind):
        regions.setdefault((p.n1, p.n2), set()).add((p.t, p.d))
    for pair, cells in regions.items():
        if len(cells) > _MAX_CELLS:
            raise MinimizeGuardError(
                f"answer region for {pair} has {len(cells)} cells "
                f"(the exact minimizer is guarded at {_MAX_CELLS})"
            )
    return regions


def _candidate_rects(cells: set) -> list[tuple[frozenset, Interval, Interval]]:
    ts = sorted({t for t, _ in cells})
    ds = sorted({d for _, d in cells})
    out = []
    for i, t1 in enumerate(ts):
        for t2 in ts[i:]:
            for k, d1 in enumerate(ds):
                for d2 in ds[k:]:
                    rect = {
                        (t, d)
                        for t in range(t1, t2 + 1)
                        for d in range(d1, d2 + 1)
                    }
                    if rect <= cells:
                        out.append((frozenset(rect), iv.closed(t1, t2), iv.closed(d1, d2)))
    return out


def _candidates_td(cells: set, n1: str, n2: str) -> dict[frozenset, TDTuple]:
    by_cells: dict[frozenset, TDTuple] = {}
    for rect, tau, delta in _candidate_rects(cells):
        cand = TDTuple(n1, n2, tau, delta)
        if rect not in by_cells or tuple_sort_key(cand) < tuple_sort_key(by_cells[rect]):
            by_cells[rect] = cand
    return by_cells


def _candidates_c(cells: set, n1: str, n2: str) -> dict[frozenset, CTuple]:
    """Cropped-rectangle candidates: rectangles clipped to anti-diagonal bands.

    Bands are generated from the t+d sums occurring in the region, which is
    where any useful crop line must sit.
    """
    ts = sorted({t for t, _ in cells})
    ds = sorted({d for _, d in cells})
    sums = sorted({t + d for t, d in cells})
    by_cells: dict[frozenset, CTuple] = {}
    for i, t1 in enumerate(ts):
        for t2 in ts[i:]:
            for k, d1 in enumerate(ds):
                for d2 in ds[k:]:
                    for low in sums:
                        if low > t2 + d2:
                            break
                        for high in sums:
                            if high < low:
                                continue
                            cand = CTuple(
                                n1, n2,
                                iv.closed(t1, t2),
                                iv.closed(d1, d2),
                                low - d1,
                                high - d2,
                            )
                            if not ctuple_valid(cand):
                                continue
                            body = _cells_c(cand)
                            if not body or not body <= cells:
                                continue
                            if body not in by_cells or tuple_sort_key(cand) < tuple_sort_key(
                                by_cells[body]
                            ):
                                by_cells[body] = cand
    return by_cells


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


def _minimize_rows(s: AnswerSet) -> AnswerSet:
    """Minimum covers in U^t / U^d: count maximal runs per row of the region.

    Independent of the coalescing implementation: works on the unfolded
    points directly.
    """
    points = unfold(s, s.kind)
    rows: dict[tuple, list[int]] = {}
    for p in points:
        if s.kind == "t":
            rows.setdefault((p.n1, p.n2, p.d), []).append(p.t)
        else:
            rows.setdefault((p.n1, p.n2, p.t), []).append(p.d)
    out = []
    for key, values in rows.items():
        values = sorted(set(values))
        run_start = prev = values[0]
        runs = []
        for v in values[1:]:
            if v == prev + 1:
                prev = v
                continue
            runs.append((run_start, prev))
            run_start = prev = v
        runs.append((run_start, prev))
        n1, n2, fixed = key
        for lo, hi in runs:
            if s.kind == "t":
                out.append(TTuple(n1, n2, iv.closed(lo, hi), fixed))
            else:
                out.append(DTuple(n1, n2, fixed, iv.closed(lo, hi)))
    return AnswerSet(s.kind, s.mode, out)


def minimum_covers(s: AnswerSet, mode: str = "overlapping") -> list[AnswerSet]:
    """All minimum covers of a single-node-pair answer region (tiny instances).

    ``mode`` is ``overlapping`` or ``disjoint``.  Returns one AnswerSet per
    distinct minimum cover, canonically ordered.
    """
    if mode not in ("overlapping", "disjoint"):
        raise ValueError(f"unknown minimization mode {mode!r}")
    if s.mode != "discrete":
        raise DenseInfeasibleError("dense time: exact minimization works on discrete regions")
    if s.kind not in ("td", "c"):
        raise ValueError("cover enumeration is defined for U^td and U^c")
    regions = _regions_by_pair(s)
    if len(regions) > 1:
        raise ValueError("cover enumeration expects a single node pair")
    if not regions:
        return [AnswerSet(s.kind, s.mode, ())]
    (pair, cells), = regions.items()
    gen = _candidates_td if s.kind == "td" else _candidates_c
    candidates = list(gen(cells, *pair).items())
    covers = _search_covers(frozenset(cells), candidates, mode == "disjoint")
    answer_sets = [AnswerSet(s.kind, s.mode, cover) for cover in covers]
    answer_sets.sort(key=lambda a: tuple(tuple_sort_key(u) for u in a.tuples))
    return answer_sets


def minimize_exact(s: AnswerSet, mode: str = "overlapping") -> AnswerSet:
    """A minimum-cardinality answer set with the same unfolding (brute force).

    For U^t / U^d the minimum is the per-row run count and coincides with
    coalescing; for U^td / U^c candidate rectangles (cropped rectangles) are
    generated from region coordinates and a minimum set cover is found by
    branch and bound, per node pair.  Guarded to tiny discrete instances.
    """
    if mode not in ("overlapping", "disjoint"):
        raise ValueError(f"unknown minimization mode {mode!r}")
    if s.mode != "discrete":
        raise DenseInfeasibleError("dense time: exact minimization works on discrete regions")
    if s.kind in ("t", "d"):
        return _minimize_rows(s)
    if s.kind not in ("td", "c"):
        raise ValueError(f"cannot minimize representation {s.kind!r}")
    regions = _regions_by_pair(s)
    gen = _candidates_td if s.kind == "td" else _candidates_c
    chosen = []
    for pair, cells in sorted(regions.items()):
        candidates = list(gen(cells, *pair).items())
        covers = _search_covers(frozenset(cells), candidates, mode == "disjoint")
        best = min(
            covers,
            key=lambda cover: tuple(sorted(tuple_sort_key(u) for u in cover)),
        )
        chosen.extend(best)
    return AnswerSet(s.kind, s.mode, chosen)
