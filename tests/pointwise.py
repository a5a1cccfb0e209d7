"""Pointwise referees: compact forms computed from the unfolded points alone."""

from __future__ import annotations

from trpq import intervals as iv
from trpq.evaluate import AnswerSet
from trpq.tuples import DTuple, TTuple, unfold


def minimize_rows(s: AnswerSet) -> AnswerSet:
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
