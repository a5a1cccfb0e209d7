"""Seeded synthetic temporal graphs and query texts.

A scalable cousin of ``tests/randgen.py``: the graph's size, labels, domain
width, interval width and temporal mode are parameters, and the seed is the
only source of randomness.  trpq receives nothing but the text produced here.

Dense graphs draw every validity interval with a half-integer start, so all
endpoints are ``Fraction``s with denominator 2.  Their discrete *twin* is the
same graph with every time value doubled; over closed intervals the dense
answer restricted to the half-step lattice equals the twin's discrete answer,
which is how dense answers are checked against the point-wise oracle.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

DISCRETE = "discrete"
DENSE = "dense"


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of one synthetic graph; the domain is ``[0, domain]``."""

    nodes: int
    edges: int
    labels: tuple[str, ...]
    domain: int
    width: int  # validity interval widths are drawn uniformly from 0..width
    mode: str = DISCRETE

    def __post_init__(self):
        if self.mode not in (DISCRETE, DENSE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.nodes < 1 or self.edges < 1 or not self.labels:
            raise ValueError("a graph needs at least one node, edge and label")
        # a dense start is k + 1/2 with k <= domain - width - 1
        if not 0 <= self.width <= self.domain - (1 if self.mode == DENSE else 0):
            raise ValueError(f"interval width {self.width} does not fit the domain")


def _balanced(rng, values, count: int) -> list:
    """``count`` values that hold each of ``values`` equally often (to within one),
    in random order."""
    out = [values[k % len(values)] for k in range(count)]
    rng.shuffle(out)
    return out


def _facts(spec: GraphSpec, seed):
    """Edge ``k`` leaves node ``k mod nodes``; targets, labels and widths are shuffled
    balanced lists, so every node's in- and out-degree, every label's edge count and
    every width's share are the same for every seed.  The seed decides which node
    an edge reaches, its label, its width and where its interval starts: the
    workload's cost stays nearly the same from seed to seed."""
    rng = random.Random(seed)
    targets = _balanced(rng, range(spec.nodes), spec.edges)
    labels = _balanced(rng, spec.labels, spec.edges)
    widths = _balanced(rng, range(spec.width + 1), spec.edges)
    for k in range(spec.edges):
        w = widths[k]
        if spec.mode == DENSE:
            lo = rng.randint(0, spec.domain - w - 1) + Fraction(1, 2)
        else:
            lo = rng.randint(0, spec.domain - w)
        yield f"n{k % spec.nodes}", labels[k], f"n{targets[k]}", lo, lo + w


def _num(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _text(mode: str, domain, facts) -> str:
    lines = [f"mode {mode}", f"domain [0,{_num(domain)}]"]
    lines += [f"{s} {p} {o} [{_num(lo)},{_num(hi)}]" for s, p, o, lo, hi in facts]
    return "\n".join(lines) + "\n"


def graph_text(spec: GraphSpec, seed) -> str:
    """The graph document for ``spec`` and ``seed`` (an int or a str)."""
    return _text(spec.mode, spec.domain, _facts(spec, seed))


def twin_text(spec: GraphSpec, seed) -> str:
    """The discrete twin of a dense graph: every time value doubled."""
    if spec.mode != DENSE:
        raise ValueError("only dense graphs have a discrete twin")
    doubled = ((s, p, o, 2 * lo, 2 * hi) for s, p, o, lo, hi in _facts(spec, seed))
    return _text(DISCRETE, 2 * spec.domain, doubled)


_NAV_RE = re.compile(r"T([\[(])(\d+),(\d+)([\])])")
_LEQ_RE = re.compile(r"<=(\d+)")


def twin_query(text: str) -> str:
    """Double every time value of a query, to run it on a discrete twin.

    Covers the forms the dense workload uses: ``T[a,b]`` and ``(<=k)``.
    Repetition bounds such as ``[1,_]`` are counts, not times, and stay.
    """
    text = _NAV_RE.sub(
        lambda m: f"T{m[1]}{2 * int(m[2])},{2 * int(m[3])}{m[4]}", text
    )
    return _LEQ_RE.sub(lambda m: f"<={2 * int(m[1])}", text)
