"""Command-line front end.

Subcommands:

* ``eval``  evaluate a query and print the canonical tuple listing plus a
  trailing ``count: N`` line;
* ``stats`` run a scaling sweep and print ``factor,repr,tuple_count`` CSV;
* ``plot``  render the answer region of one node pair as an SVG document.

Exit codes: 0 success, 1 parse/load/usage errors, 2 representation infeasible
for the graph's temporal mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import compact
from . import intervals as iv
from .errors import DenseInfeasibleError, TrpqError
from .evaluate import EVALUATORS, KINDS, AnswerSet
from .graph import TemporalGraph, graph_nodes, load_graph, scale_graph
from .oracle import eval_direct
from .query import MAX_ITERATIONS, parse_query, scale_query
from .tuples import as_td, band, cells, render_tuple

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError as exc:
        raise TrpqError(f"{path} is not UTF-8 text: {exc}") from None


def _read_graph(path: str) -> TemporalGraph:
    return load_graph(_read_text(path))


def _read_query(value: str):
    # a value naming an existing file is read from disk, else parsed directly
    if os.path.exists(value):
        value = _read_text(value).strip()
    return parse_query(value)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{what} must be an integer, got {text!r}") from None


def _max_iterations(args) -> int:
    cap, source = args.max_iterations, "--max-iterations"
    if cap is None:
        source = "TRPQ_MAX_ITER"
        cap = _int(os.environ.get(source, str(MAX_ITERATIONS)), source)
    if cap < 1:
        raise _UsageError(f"{source} must be a positive integer, got {cap}")
    return cap


def _coalesce(answers: AnswerSet) -> AnswerSet:
    return compact.coalesce_t(answers) if answers.kind == "t" else compact.coalesce_d(answers)


def _reduce(answers: AnswerSet) -> AnswerSet:
    return compact.greedy_reduce(compact.remove_subsumed(answers))


def _evaluate(G, q, args) -> AnswerSet:
    cap = _max_iterations(args)
    if args.disjoint and args.minimize != "exact":
        raise _UsageError("--disjoint applies only with --minimize exact")
    if args.repr == "point" and (args.coalesce or args.minimize):
        raise _UsageError("--coalesce and --minimize do not apply to --repr point")
    if args.coalesce and args.repr not in ("t", "d"):
        raise _UsageError("--coalesce applies to --repr t or d")
    if args.minimize == "greedy" and args.repr not in ("td", "c"):
        raise _UsageError("--minimize greedy applies to --repr td or c")
    if args.repr == "point":
        return AnswerSet("point", G.mode, eval_direct(G, q, max_iterations=cap))
    answers = EVALUATORS[args.repr](G, q, max_iterations=cap)
    if args.coalesce:
        answers = _coalesce(answers)
    if args.minimize:
        if args.minimize == "exact":
            answers = compact.minimize_exact(
                answers, "disjoint" if args.disjoint else "overlapping"
            )
        else:
            answers = _reduce(answers)
    return answers


def _cmd_eval(args) -> int:
    G = _read_graph(args.graph)
    q = _read_query(args.query)
    answers = _evaluate(G, q, args)
    for u in answers:
        print(render_tuple(u))
    print(f"count: {len(answers)}")
    return EXIT_OK


def _compact_count(G, q, repr_name, cap) -> int:
    answers = EVALUATORS[repr_name](G, q, max_iterations=cap)
    # coalescing gives the unique minimal form in U^t and U^d; rectangles are reduced greedily
    return len(_coalesce(answers) if repr_name in ("t", "d") else _reduce(answers))


def _cmd_stats(args) -> int:
    G = _read_graph(args.graph)
    q = _read_query(args.query)
    reprs = [r.strip() for r in args.reprs.split(",") if r.strip()]
    factors = [_int(f, "--factors") for f in args.factors.split(",") if f.strip()]
    if any(f < 1 for f in factors):
        raise _UsageError(f"--factors must be positive integers, got {args.factors!r}")
    for repr_name in reprs:
        if repr_name not in EVALUATORS:
            raise _UsageError(f"stats supports representations t, d, td, c; got {repr_name!r}")
    cap = _max_iterations(args)
    print("factor,repr,tuple_count")
    for factor in factors:
        if args.scale == "graph":
            Gf, qf = scale_graph(G, factor), q
        else:
            Gf, qf = G, scale_query(q, factor)
        for repr_name in reprs:
            print(f"{factor},{repr_name},{_compact_count(Gf, qf, repr_name, cap)}")
    return EXIT_OK


# --------------------------------------------------------------------------
# plotting
# --------------------------------------------------------------------------

_CELL = 40  # SVG user units per time/distance unit


def _num(x) -> str:
    """x as an SVG number: an integer in full, else rounded to six places, never via float."""
    if iv.is_integral(x):
        return iv.format_number(int(x))
    whole, part = divmod(abs(round(x * 10**6)), 10**6)
    sign = "-" if x < 0 and (whole or part) else ""
    return f"{sign}{iv.format_number(whole)}.{part:06d}".rstrip("0").rstrip(".")


def _rect(x0, y0, x1, y1, cls) -> str:
    return (
        f'<rect class="{cls}" x="{_num(x0 * _CELL)}" y="{_num(y0 * _CELL)}" '
        f'width="{_num((x1 - x0) * _CELL)}" height="{_num((y1 - y0) * _CELL)}"/>'
    )


def _clip_band(rect_pts, sums):
    """Clip a polygon to lo(sums) <= x + y <= hi(sums) (two slope -1 half planes)."""

    def clip(points, keep, boundary):
        out = []
        for i, p in enumerate(points):
            q = points[(i + 1) % len(points)]
            pin, qin = keep(p), keep(q)
            if pin:
                out.append(p)
            if pin != qin:
                # intersection with x + y = boundary along segment p -> q
                (x1, y1), (x2, y2) = p, q
                t = Fraction(boundary - x1 - y1) / ((x2 - x1) + (y2 - y1))
                out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
        return out

    pts = clip(rect_pts, lambda p: p[0] + p[1] >= sums.lo, sums.lo)
    if pts:
        pts = clip(pts, lambda p: p[0] + p[1] <= sums.hi, sums.hi)
    return pts


def _cells_outline(cells) -> str:
    """Boundary segments of a union of unit cells, as one SVG path."""
    segs = []
    cellset = set(cells)
    for (t, d) in sorted(cellset):
        if (t, d - 1) not in cellset:
            segs.append(((t, d), (t + 1, d)))
        if (t, d + 1) not in cellset:
            segs.append(((t, d + 1), (t + 1, d + 1)))
        if (t - 1, d) not in cellset:
            segs.append(((t, d), (t, d + 1)))
        if (t + 1, d) not in cellset:
            segs.append(((t + 1, d), (t + 1, d + 1)))
    parts = [
        f"M{_num(ax * _CELL)} {_num(ay * _CELL)} L{_num(bx * _CELL)} {_num(by * _CELL)}"
        for (ax, ay), (bx, by) in segs
    ]
    return '<path class="edge" d="' + " ".join(parts) + '"/>'


def _plot_shapes(answers: AnswerSet, pair, discrete: bool) -> tuple[list[str], list]:
    n1, n2 = pair
    tuples = [u for u in answers if (u.n1, u.n2) == (n1, n2)]
    pad = 1 if discrete else 0
    shapes, extents = [], []

    def note(t0, t1, d0, d1):
        extents.append((t0, t1, d0, d1))

    for u in tuples:
        if answers.kind == "point":
            shapes.append(_rect(u.t, u.d, u.t + 1, u.d + 1, "cell"))
            note(u.t, u.t + 1, u.d, u.d + 1)
            continue
        box = u if answers.kind in ("td", "c") else as_td(u)
        note(box.tau.lo, box.tau.hi + pad, box.delta.lo, box.delta.hi + pad)
        if answers.kind != "c":
            shapes.append(
                _rect(box.tau.lo, box.delta.lo, box.tau.hi + pad, box.delta.hi + pad, "box")
            )
        elif discrete:
            body = list(cells(u))  # increasing (t, d), no repeats
            shapes.extend(_rect(t, d, t + 1, d + 1, "fill") for t, d in body)
            shapes.append(_cells_outline(body))
        else:
            rect = [
                (u.tau.lo, u.delta.lo),
                (u.tau.hi, u.delta.lo),
                (u.tau.hi, u.delta.hi),
                (u.tau.lo, u.delta.hi),
            ]
            pts = _clip_band(rect, band(u))
            if pts:
                rendered = " ".join(f"{_num(x * _CELL)},{_num(y * _CELL)}" for x, y in pts)
                shapes.append(f'<polygon class="box" points="{rendered}"/>')
    return shapes, extents


def render_svg(answers: AnswerSet, pair, domain) -> str:
    discrete = answers.mode == "discrete"
    shapes, extents = _plot_shapes(answers, pair, discrete)
    pad = 1 if discrete else 0
    t_min, t_max = domain.lo, domain.hi + pad
    if extents:
        d_min = min(e[2] for e in extents)
        d_max = max(e[3] for e in extents)
        t_min = min(t_min, min(e[0] for e in extents))
        t_max = max(t_max, max(e[1] for e in extents))
    else:
        d_min, d_max = 0, 1
    x0 = (t_min - 1) * _CELL
    y0 = (d_min - 1) * _CELL
    width = (t_max - t_min + 2) * _CELL
    height = (d_max - d_min + 2) * _CELL
    axis_y = d_min * _CELL if d_min > 0 else 0
    axes = [
        f'<line class="axis" x1="{_num(t_min * _CELL)}" y1="{_num(axis_y)}" '
        f'x2="{_num(t_max * _CELL)}" y2="{_num(axis_y)}"/>',
        f'<line class="axis" x1="{_num(t_min * _CELL)}" y1="{_num(d_min * _CELL)}" '
        f'x2="{_num(t_min * _CELL)}" y2="{_num(d_max * _CELL)}"/>',
    ]
    # y grows upward: shapes and axis lines live in a flipped group, labels
    # are placed outside it with negated y so the glyphs stay upright
    labels = [
        f'<text class="label" x="{_num(t_max * _CELL + 8)}" y="{_num(-axis_y)}">t</text>',
        f'<text class="label" x="{_num(t_min * _CELL - 16)}" y="{_num(-(d_max * _CELL))}">d</text>',
    ]
    body = "\n".join(axes + shapes)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(x0)} {_num(-(y0 + height))} {_num(width)} {_num(height)}">\n'
        "<style>\n"
        ".cell{fill:#ccc;stroke:#000;stroke-width:1.5}\n"
        ".box{fill:#ccc;fill-opacity:0.55;stroke:#000;stroke-width:1.5}\n"
        ".fill{fill:#ccc;stroke:none}\n"
        ".edge{fill:none;stroke:#000;stroke-width:1.5}\n"
        ".axis{stroke:#000;stroke-width:1.5}\n"
        ".label{font:italic 16px serif}\n"
        "</style>\n"
        '<g transform="scale(1,-1)">\n'
        f"{body}\n"
        "</g>\n"
        + "\n".join(labels)
        + "\n</svg>\n"
    )


def _cmd_plot(args) -> int:
    G = _read_graph(args.graph)
    q = _read_query(args.query)
    if not G.discrete and args.repr != "c":
        raise DenseInfeasibleError(
            "dense time: only the cropped-rectangle representation can be plotted"
        )
    nodes = graph_nodes(G)
    for n in args.pair:
        if n not in nodes:
            raise TrpqError(f"unknown node {n!r}")
    answers = _evaluate(G, q, args)
    svg = render_svg(answers, tuple(args.pair), G.domain)
    if args.out:
        Path(args.out).write_text(svg, encoding="utf-8")
    else:
        sys.stdout.write(svg)
    return EXIT_OK


# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="trpq", description="Temporal path query evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="graph document path")
        p.add_argument("--query", required=True, help="query string or file path")
        p.add_argument("--max-iterations", type=int, default=None,
                       help=f"fixpoint round cap (default: env TRPQ_MAX_ITER or {MAX_ITERATIONS})")

    def answer_form(p):
        p.add_argument("--repr", required=True, choices=KINDS)
        p.add_argument("--coalesce", action="store_true",
                       help="coalesce the answer set (repr t or d)")
        p.add_argument("--minimize", choices=("exact", "greedy"), default=None)
        p.add_argument("--disjoint", action="store_true",
                       help="forbid overlapping rectangles in exact minimization")

    p_eval = sub.add_parser("eval", help="evaluate a query")
    common(p_eval)
    answer_form(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="scaling sweep, CSV output")
    common(p_stats)
    p_stats.add_argument("--scale", required=True, choices=("graph", "query"),
                         help="which intervals the factors scale")
    p_stats.add_argument("--factors", required=True,
                         help="comma-separated integer factors (may be empty)")
    p_stats.add_argument("--reprs", default="t,d,c",
                         help="comma-separated representations to count")
    p_stats.set_defaults(func=_cmd_stats)

    p_plot = sub.add_parser("plot", help="SVG rendering of one pair's answer region")
    common(p_plot)
    answer_form(p_plot)
    p_plot.add_argument("--pair", required=True, nargs=2, metavar=("N1", "N2"))
    p_plot.add_argument("--out", default=None, help="output file (default: stdout)")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DenseInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (TrpqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
