"""Temporal graph model and its flat-file loader.

A graph is a bounded effective temporal domain plus a finite map from triples
(subject, predicate, object) to coalesced sets of validity intervals.  The
file format is line-oriented UTF-8; see :func:`load_graph`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import intervals as iv
from .errors import EmptyIntervalError, GraphParseError, IntervalDomainError, TrpqError
from .intervals import Interval

DISCRETE = "discrete"
DENSE = "dense"

Triple = tuple[str, str, str]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INTERVAL_TOKEN_RE = re.compile(iv.INTERVAL_PATTERN)


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """A temporal graph; its facts must not change after construction.

    The graph puts its own facts in canonical form: over discrete time the
    domain and each fact interval take their closed integer form, and each
    validity set is coalesced.  Every fact interval must lie in the domain.
    The nodes and a label index are derived from the facts once, here, so
    that evaluation never rescans them.  So is, over dense time, the lcm of
    the denominators of all its endpoints: the graph's share of the integer
    grid that every evaluator runs on.  ``_grids`` keeps the graph scaled onto
    the latest grid used, ``_leaves`` a label's, inverse's and test's set and buckets.
    """

    mode: str
    domain: Interval
    facts: dict[Triple, tuple[Interval, ...]] = field(default_factory=dict)
    nodes: tuple[str, ...] = field(init=False, repr=False)  # sorted
    _node_set: frozenset[str] = field(init=False, repr=False)
    _by_label: dict[str, tuple] = field(init=False, repr=False)
    _denominator: int = field(init=False, repr=False, compare=False)
    _grids: dict[int, "TemporalGraph"] = field(init=False, repr=False, compare=False)
    _leaves: dict[tuple, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (DISCRETE, DENSE):
            raise GraphParseError(f"unknown mode {self.mode!r}")
        by_label: dict[str, list] = {}
        facts: dict[Triple, tuple[Interval, ...]] = {}
        discrete, domain = self.discrete, self.domain
        if discrete and not iv.is_discrete_canonical(domain):
            domain = iv.normalize_discrete(domain)
            object.__setattr__(self, "domain", domain)
        for (s, p, o), validity in self.facts.items():
            # over discrete time coalescing normalises each interval first; a
            # coalesced interval lies in the domain iff each of its parts does
            validity = facts[s, p, o] = iv.coalesce(validity, discrete=discrete)
            for i in validity:
                if not iv.covers(domain, i):
                    raise IntervalDomainError(
                        f"interval {i} of triple ({s}, {p}, {o}) "
                        f"is not contained in the domain {domain}"
                    )
            by_label.setdefault(p, []).append((s, o, validity))
        object.__setattr__(self, "facts", facts)
        node_set = frozenset(x for s, _, o in self.facts for x in (s, o))
        if "" in node_set:  # the evaluators' placeholder for any node
            raise GraphParseError("a node name must not be empty")
        object.__setattr__(self, "nodes", tuple(sorted(node_set)))
        object.__setattr__(self, "_node_set", node_set)
        object.__setattr__(self, "_by_label", {p: tuple(v) for p, v in by_label.items()})
        denominators = {1}
        if not self.discrete:
            intervals = (self.domain, *(i for validity in self.facts.values() for i in validity))
            denominators = {x.denominator for i in intervals for x in (i.lo, i.hi)}
        object.__setattr__(self, "_denominator", math.lcm(*denominators))
        object.__setattr__(self, "_grids", {})
        object.__setattr__(self, "_leaves", {})

    @property
    def discrete(self) -> bool:
        return self.mode == DISCRETE

    def val(self, s: str, p: str, o: str) -> tuple[Interval, ...]:
        return self.facts.get((s, p, o), ())

    def triples_with_label(self, label: str) -> tuple[tuple[str, str, tuple[Interval, ...]], ...]:
        """The (subject, object, validity) of every fact with this label, in fact order."""
        return self._by_label.get(label, ())


def _on_grid(g: TemporalGraph, factor: int) -> TemporalGraph:
    """``scale_graph(g, factor, include_domain=True)``; g keeps the latest grid's copy only."""
    if factor not in g._grids:
        g._grids.clear()
        g._grids[factor] = scale_graph(g, factor, include_domain=True)
    return g._grids[factor]


def graph_nodes(g: TemporalGraph) -> frozenset[str]:
    """All subjects and objects appearing in the graph's facts, collected when it was built."""
    return g._node_set


def _check_identifier(token: str, line_no: int, what: str) -> str:
    if not _IDENT_RE.fullmatch(token):
        raise GraphParseError(f"invalid {what} identifier {token!r}", line=line_no)
    return token


def _parse_intervals(rest: str, line_no: int, offset: int) -> list[Interval]:
    found = []
    cursor = 0
    for m in _INTERVAL_TOKEN_RE.finditer(rest):
        between = rest[cursor : m.start()]
        if between.strip() not in ("", ","):
            raise GraphParseError(
                f"unexpected text {between.strip()!r} in interval list",
                line=line_no,
                column=offset + cursor + 1,
            )
        left, lo, hi, right = m.groups()  # read off the match, not parsed again
        try:
            lo, hi = iv.parse_number(lo), iv.parse_number(hi)
            found.append(Interval(lo, hi, left == "[", right == "]"))
        except TrpqError as exc:
            raise GraphParseError(str(exc), line=line_no, column=offset + m.start() + 1) from None
        cursor = m.end()
    if rest[cursor:].strip():
        raise GraphParseError(
            f"unexpected trailing text {rest[cursor:].strip()!r}",
            line=line_no,
            column=offset + cursor + 1,
        )
    # never empty: rest is not blank, and text holding no interval is trailing text
    return found


def load_graph(text: str) -> TemporalGraph:
    """Parse and validate a graph document.

    Format: two header lines ``mode <discrete|dense>`` and
    ``domain <interval>`` (either order), then one line per fact::

        <subject> <predicate> <object> <interval>(, <interval>)*

    Lines starting with ``#`` are comments; blank lines are ignored.
    Every interval must be contained in the domain; the graph coalesces each
    validity set.
    """
    mode: str | None = None
    domain: Interval | None = None
    raw_facts: dict[Triple, list[Interval]] = {}
    fact_lines: list[tuple[int, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split(None, 1)[0]  # at any whitespace, as a fact line is split
        rest = line[len(head) + 1:]
        if head == "mode":
            if mode is not None:
                raise GraphParseError("duplicate mode header", line=line_no)
            value = rest.strip()
            if value not in (DISCRETE, DENSE):
                raise GraphParseError(f"unknown mode {value!r}", line=line_no)
            mode = value
            continue
        if head == "domain":
            if domain is not None:
                raise GraphParseError("duplicate domain header", line=line_no)
            try:
                domain = iv.parse_interval(rest)
            except TrpqError as exc:
                raise GraphParseError(f"bad domain: {exc}", line=line_no) from exc
            continue
        if mode is None or domain is None:
            raise GraphParseError(
                "mode and domain headers must precede facts", line=line_no
            )
        fact_lines.append((line_no, line))

    if mode is None:
        raise GraphParseError("missing mode header")
    if domain is None:
        raise GraphParseError("missing domain header")
    discrete = mode == DISCRETE
    if discrete:
        try:
            domain = iv.normalize_discrete(domain)
        except EmptyIntervalError as exc:
            raise GraphParseError(f"domain is empty over discrete time: {exc}") from exc

    for line_no, line in fact_lines:
        parts = line.split(None, 3)
        if len(parts) < 4:
            raise GraphParseError(
                "expected: <subject> <predicate> <object> <interval>...", line=line_no
            )
        s, p, o, rest = parts
        triple = (
            _check_identifier(s, line_no, "subject"),
            _check_identifier(p, line_no, "predicate"),
            _check_identifier(o, line_no, "object"),
        )
        for interval in _parse_intervals(rest, line_no, line.rfind(rest)):
            if discrete:
                try:
                    interval = iv.normalize_discrete(interval)
                except EmptyIntervalError as exc:
                    raise GraphParseError(str(exc), line=line_no) from exc
            if not iv.covers(domain, interval):
                raise GraphParseError(
                    f"interval {interval} of triple ({s}, {p}, {o}) "
                    f"is not contained in the domain {domain}",
                    line=line_no,
                )
            raw_facts.setdefault(triple, []).append(interval)

    return TemporalGraph(mode=mode, domain=domain, facts=dict(sorted(raw_facts.items())))


def serialize_graph(g: TemporalGraph) -> str:
    """Canonical textual form; load -> serialize -> load is a fixpoint."""
    lines = [f"mode {g.mode}", f"domain {g.domain}"]
    for (s, p, o), validity in sorted(g.facts.items()):
        rendered = ", ".join(str(x) for x in validity)
        lines.append(f"{s} {p} {o} {rendered}")
    return "\n".join(lines) + "\n"


def scale_graph(g: TemporalGraph, factor: int, *, include_domain: bool = False) -> TemporalGraph:
    """Multiply every validity-interval endpoint by ``factor``.

    The effective domain is scaled only when ``include_domain`` is set; sweep
    harnesses keep it fixed so that scaled validity stays inside it.
    """
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    domain = iv.scale(g.domain, factor) if include_domain else g.domain
    facts = {}
    for triple, validity in g.facts.items():
        scaled = []
        for interval in validity:
            interval = iv.scale(interval, factor)
            if not iv.covers(domain, interval):
                raise IntervalDomainError(
                    f"scaled interval {interval} of {triple} leaves the domain {domain}"
                )
            scaled.append(interval)
        facts[triple] = scaled
    return TemporalGraph(mode=g.mode, domain=domain, facts=facts)
