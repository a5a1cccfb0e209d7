"""Correctness of every request, checked outside the timed region.

Each answer is reduced to a digest of its point set and compared with the
reference digest of its query:

* over discrete time, the digest of the unfolded point set, so an equivalent
  answer that splits its cover differently still passes;
* over dense time, the digest of the answer's points on the half-step lattice
  (doubled to integers), plus, where a reference rendering was recorded, the
  digest of the canonical rendering itself.

References come from ``references.json``, recorded with the benchmark by
``record.py``.  For a seed that has none, they are computed with the
point-wise oracle (``eval_direct``), on the discrete twin for dense graphs.
Unfolding and the oracle can be costly, so each distinct rendering is checked
once and later requests with the same rendering reuse the verdict.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import trpq

from gen import DENSE, graph_text, twin_query, twin_text
from workloads import Workload, graph_index, graph_seeds

REFERENCES = Path(__file__).resolve().parent / "references.json"

_UNFOLD = {"t": "unfold_t", "d": "unfold_d", "td": "unfold_td", "c": "unfold_c"}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def points_digest(points) -> str:
    """Digest of a set of (n1, n2, t, d) tuples with integer t and d."""
    lines = sorted(f"{n1} {n2} {t} {d}" for n1, n2, t, d in points)
    return text_digest("\n".join(lines))


def lattice_points(answers) -> set:
    """The points of a dense ``c`` answer on the half-step grid, doubled."""
    out = set()
    for u in answers:
        for t2 in range(math.ceil(2 * u.tau.lo), math.floor(2 * u.tau.hi) + 1):
            t = Fraction(t2, 2)
            if t not in u.tau:
                continue
            sl = trpq.delta_at(u, t)
            if sl is None:
                continue
            for d2 in range(math.ceil(2 * sl.lo), math.floor(2 * sl.hi) + 1):
                if Fraction(d2, 2) in sl:
                    out.add((u.n1, u.n2, t2, d2))
    return out


def answer_digest(workload: Workload, repr_name: str, answers) -> str:
    if workload.graph.mode == DENSE:
        return points_digest(lattice_points(answers))
    return points_digest(getattr(trpq, _UNFOLD[repr_name])(answers))


def oracle_digests(workload: Workload, seed: int, size: str = "full") -> list[str]:
    """Reference point digests per request slot, from the point-wise oracle."""
    spec = workload.spec(size)
    dense = spec.mode == DENSE
    digests = {}
    out = []
    for slot, i in enumerate(workload.mix):
        g = graph_index(workload, slot)
        if (g, i) not in digests:
            graph_seed = graph_seeds(workload, seed)[g]
            text = twin_text(spec, graph_seed) if dense else graph_text(spec, graph_seed)
            query = twin_query(workload.queries[i]) if dense else workload.queries[i]
            answer = trpq.eval_direct(trpq.load_graph(text), trpq.parse_query(query))
            digests[g, i] = points_digest(answer)
        out.append(digests[g, i])
    return out


def load_recorded() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


class Checker:
    """Holds one run's references and the verdict on each distinct rendering."""

    def __init__(self, workload: Workload, seed: int, size: str = "full"):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.reference_source = None
        self.points: list[str] = []
        self.renders: list[str] | None = None
        self._pending: dict[tuple, object] = {}
        self._verdict: dict[tuple, bool] = {}

    def note(self, slot: int, outputs) -> tuple:
        """Keep what checking the outputs of ``slot``'s request needs; returns its keys."""
        keys = []
        for repr_name, answers, rendering in outputs:
            key = (slot, repr_name, text_digest(rendering))
            if key not in self._verdict and key not in self._pending:
                self._pending[key] = answers
            keys.append(key)
        return tuple(keys)

    def _load_references(self):
        recorded = load_recorded().get(self.workload.name, {}).get(str(self.seed))
        if recorded is not None and self.size == "full":
            self.reference_source = "recorded"
            self.points = recorded["points"]
            self.renders = recorded.get("renders")
        else:
            self.reference_source = "oracle"
            self.points = oracle_digests(self.workload, self.seed, self.size)

    def verify_pending(self):
        """Check every rendering seen so far that has no verdict yet."""
        if self.reference_source is None:
            self._load_references()
        for key, answers in self._pending.items():
            slot, repr_name, render_digest = key
            ok = answer_digest(self.workload, repr_name, answers) == self.points[slot]
            if self.renders is not None:
                ok = ok and render_digest == self.renders[slot]
            self._verdict[key] = ok
        self._pending.clear()

    def passed(self, keys: tuple) -> bool:
        return all(self._verdict[k] for k in keys)
