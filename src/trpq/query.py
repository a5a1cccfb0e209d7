"""Query abstract syntax and concrete-syntax parser.

Concrete syntax (EBNF, also shipped in the README):

    query    = union ;
    union    = join { "+" join } ;                 (* one Union of all operands *)
    join     = postfix { "/" postfix } ;           (* one Join of all operands *)
    postfix  = atom { "^-" | "[" nat "," ( nat | "_" ) "]" } ;
    atom     = timenav | label | test | negation | predicate
             | timebound | "(" query ")" ;
    timenav  = "T" interval ;                      (* stay on a node, move in time *)
    test     = "?(" query ")" ;
    negation = "!(" nodeform ")" ;                 (* nodeform: predicate, timebound,
                                                      test or negation *)
    predicate = "(" ( "=" | "!=" ) name ")" ;
    timebound = "(" "<=" number ")" ;
    interval = ( "[" | "(" ) number "," number ( "]" | ")" ) ;

Postfix operators bind tightest, then "/", then "+"; parentheses override.
Inverse ``^-`` applies to edge expressions only (labels and their inverses),
and negation applies to node filters only, mirroring the query grammar.

A chain ``a/b/c`` or ``a + b + c`` is one n-ary node, so the depth of the
syntax tree follows grouping and postfix nesting only.  ``parse_query``
rejects a query that nests deeper than ``MAX_DEPTH`` levels, counting both
tree levels and open groups; every recursion over a parsed query (the
evaluators, the oracle, the printer, ``map_leaves``) stays within Python's
stack because of that one bound.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union as TUnion

from . import intervals as iv
from .errors import EmptyIntervalError, QueryParseError, TrpqError
from .intervals import Interval, Number

MAX_ITERATIONS = 10_000  # default cap on the rounds of unbounded repetition q[m,_]
MAX_DEPTH = 200  # the deepest nesting parse_query accepts, in tree levels and in open groups


@dataclass(frozen=True, slots=True)
class Label:
    name: str


@dataclass(frozen=True, slots=True)
class Inverse:
    edge: "Trpq"


@dataclass(frozen=True, slots=True)
class Pred:
    equals: bool
    target: str


@dataclass(frozen=True, slots=True)
class LeqTime:
    bound: Number


@dataclass(frozen=True, slots=True)
class TimeNav:
    delta: Interval


@dataclass(frozen=True, slots=True)
class Test:
    __test__ = False  # keep pytest collection away from this AST node

    inner: "Trpq"


@dataclass(frozen=True, slots=True)
class Not:
    inner: "Trpq"


class _Chain:
    """An n-ary node, built from its operands: ``Join(a, b, c)``."""

    __slots__ = ()

    def __init__(self, *parts: "Trpq"):
        if len(parts) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True, slots=True, init=False)
class Join(_Chain):
    """Composition of the operands, left to right."""

    parts: tuple["Trpq", ...]


@dataclass(frozen=True, slots=True, init=False)
class Union(_Chain):
    """Union of the operands."""

    parts: tuple["Trpq", ...]


@dataclass(frozen=True, slots=True)
class Repeat:
    inner: "Trpq"
    m: int
    n: Optional[int]  # None means unbounded ("_")


Trpq = TUnion[Label, Inverse, Pred, LeqTime, TimeNav, Test, Not, Join, Union, Repeat]

# the subquery field of each unary node type; Join and Union hold ``parts``,
# every other type is a leaf
_INNER_FIELD = {Inverse: "edge", Test: "inner", Not: "inner", Repeat: "inner"}


def children(q: Trpq) -> tuple[Trpq, ...]:
    """The direct subqueries of ``q``, left to right; empty for a leaf."""
    if isinstance(q, _Chain):
        return q.parts
    field = _INNER_FIELD.get(type(q))
    return () if field is None else (getattr(q, field),)


def map_leaves(q: Trpq, fn: Callable[[Trpq], Trpq]) -> Trpq:
    """``q`` rebuilt with every leaf replaced by ``fn(leaf)``, left to right."""
    if isinstance(q, _Chain):
        return type(q)(*[map_leaves(part, fn) for part in q.parts])
    field = _INNER_FIELD.get(type(q))
    if field is None:
        return fn(q)
    return replace(q, **{field: map_leaves(getattr(q, field), fn)})


def depth(q: Trpq) -> int:
    """How many nodes enclose the deepest leaf of ``q``: 0 for a leaf.

    A chain counts once: ``a/b/c`` has depth 1 and ``(a/b)/c`` depth 2.  Not
    recursive, so it measures a tree of any depth.
    """
    deepest, stack = 0, [(q, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(node))
    return deepest


def is_edge_form(q: Trpq) -> bool:
    return isinstance(q, (Label, Inverse))


def is_node_form(q: Trpq) -> bool:
    return isinstance(q, (Pred, LeqTime, Test, Not))


def power(q: Trpq, k: int) -> Trpq:
    """k-fold self-join as one chain: power(q, 3) = Join(q, q, q); power(q, 1) = q.

    k = 0 is rejected; the repetition operator handles the zero case through
    the node-identity relation instead.
    """
    if k < 1:
        raise ValueError("power requires k >= 1")
    return q if k == 1 else Join(*[q] * k)


# --- lexer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<number>{iv.NUMBER_PATTERN})
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<inv>\^-)
  | (?P<neq>!=)
  | (?P<leq><=)
  | (?P<sym>[/+()\[\],=?!-])
    """,
    re.VERBOSE,
)

_SYMBOL_KINDS = {"inv": "^-", "neq": "!=", "leq": "<="}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", position=pos)
        kind = m.lastgroup
        if kind != "ws":
            if kind in _SYMBOL_KINDS:
                tokens.append((_SYMBOL_KINDS[kind], m.group(0), pos))
            elif kind == "sym":
                tokens.append((m.group(0), m.group(0), pos))
            else:
                tokens.append((kind, m.group(0), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_TOO_DEEP = f"query nests deeper than {MAX_DEPTH} levels"


def _chain(node_type, parts: list) -> Trpq:
    return parts[0] if len(parts) == 1 else node_type(*parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.groups = 0  # groups open at the current token; each costs parser frames

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise QueryParseError(
                f"expected {kind!r}, got {tok[1] or 'end of input'!r}", position=tok[2]
            )
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise QueryParseError(message, position=tok[2])

    def parse_query(self) -> Trpq:
        """A "+" chain of "/" chains of postfix expressions; each chain is one node.

        Both chain levels are parsed in this one frame, so that each open
        group costs the parser three frames: this one, parse_postfix and
        parse_atom.
        """
        joins = []
        while True:
            parts = [self.parse_postfix()]
            while self.peek()[0] == "/":
                self.next()
                parts.append(self.parse_postfix())
            joins.append(_chain(Join, parts))
            if self.peek()[0] != "+":
                return _chain(Union, joins)
            self.next()

    def parse_postfix(self) -> Trpq:
        node = self.parse_atom()
        while True:
            kind = self.peek()[0]
            if kind == "^-":
                tok = self.next()
                if not is_edge_form(node):
                    raise QueryParseError(
                        "inverse ^- applies only to edge expressions", position=tok[2]
                    )
                node = Inverse(node)
            elif kind == "[":
                node = self.parse_repeat(node)
            else:
                return node

    def parse_repeat(self, inner: Trpq) -> Repeat:
        self.expect("[")
        m = self.parse_nat()
        self.expect(",")
        kind, value, pos = self.peek()
        if kind == "name" and value == "_":
            self.next()
            n = None
        else:
            n = self.parse_nat()
            if m > n:
                raise QueryParseError(f"repeat bounds {m} > {n}", position=pos)
        self.expect("]")
        return Repeat(inner, m, n)

    def parse_nat(self) -> int:
        tok = self.next()
        if tok[0] != "number" or not tok[1].isdigit():
            raise QueryParseError(f"expected a natural number, got {tok[1]!r}", position=tok[2])
        return self.number(tok)

    def parse_number(self) -> Number:
        negative = False
        if self.peek()[0] == "-":
            self.next()
            negative = True
        value = self.number(self.expect("number"))
        return -value if negative else value

    def number(self, tok: tuple[str, str, int]) -> Number:
        try:
            return iv.parse_number(tok[1])
        except TrpqError as exc:
            raise QueryParseError(str(exc), position=tok[2]) from None

    def parse_interval(self) -> Interval:
        open_tok = self.next()  # "[" or "(", seen by the caller
        lo = self.parse_number()
        self.expect(",")
        hi = self.parse_number()
        close_tok = self.next()
        if close_tok[0] not in ("]", ")"):
            raise QueryParseError("expected ']' or ')'", position=close_tok[2])
        try:
            return Interval(lo, hi, open_tok[0] == "[", close_tok[0] == "]")
        except EmptyIntervalError as exc:
            raise QueryParseError(str(exc), position=open_tok[2]) from exc

    def parse_atom(self) -> Trpq:
        kind, value, pos = self.peek()
        if kind == "name":
            if value == "T" and self.peek(1)[0] in ("[", "("):
                self.next()
                return TimeNav(self.parse_interval())
            self.next()
            return Label(value)
        if kind == "?":
            self.next()
            self.open_group(pos)
            inner = self.parse_query()
            self.close_group()
            return Test(inner)
        if kind == "!":
            self.next()
            self.open_group(pos)
            inner = self.parse_node_form()
            self.close_group()
            return Not(inner)
        if kind == "(":
            nxt = self.peek(1)[0]
            if nxt in ("=", "!=", "<="):
                self.next()
                return self.parse_predicate_body()
            self.open_group(pos)
            inner = self.parse_query()
            self.close_group()
            return inner
        self.fail(f"expected a query atom, got {value or 'end of input'!r}")

    def open_group(self, pos: int):
        """Consume the "(" of a group; the parser recurses once per open group."""
        self.expect("(")
        self.groups += 1
        if self.groups > MAX_DEPTH:
            raise QueryParseError(_TOO_DEEP, position=pos)

    def close_group(self):
        self.expect(")")
        self.groups -= 1

    def parse_predicate_body(self) -> Trpq:
        """Body of a predicate form, after its opening parenthesis."""
        node = self.parse_predicate_inline()
        self.expect(")")
        return node

    def parse_predicate_inline(self) -> Trpq:
        kind = self.next()[0]  # "=", "!=" or "<=", seen by the caller
        if kind == "=":
            return Pred(True, self.expect("name")[1])
        if kind == "!=":
            return Pred(False, self.expect("name")[1])
        return LeqTime(self.parse_number())

    def parse_node_form(self) -> Trpq:
        kind = self.peek()[0]
        if kind in ("=", "!=", "<="):
            # convenience: !(=X) without the inner parentheses
            return self.parse_predicate_inline()
        node = self.parse_atom()
        if not is_node_form(node):
            self.fail("negation !() applies only to node filters")
        return node


def parse_query(text: str) -> Trpq:
    """The query ``text`` as a syntax tree, each ``/`` or ``+`` chain one node.

    >>> q = parse_query("a/b/c")
    >>> q == Join(Label("a"), Label("b"), Label("c"))
    True
    >>> format_query(q)
    'a/b/c'
    >>> parse_query(format_query(q)) == q
    True

    A grouped chain stays a node of its own, and prints with its parentheses:

    >>> format_query(parse_query("(a/b)/c"))
    '(a/b)/c'

    A query nesting deeper than ``MAX_DEPTH`` tree levels or open groups is
    rejected with ``QueryParseError``.
    """
    parser = _Parser(text)
    node = parser.parse_query()
    tok = parser.peek()
    if tok[0] != "end":
        raise QueryParseError(f"unexpected trailing input {tok[1]!r}", position=tok[2])
    if depth(node) > MAX_DEPTH:
        raise QueryParseError(_TOO_DEEP)
    return node


# --- printer ---------------------------------------------------------------

_PREC_UNION, _PREC_JOIN, _PREC_POSTFIX, _PREC_ATOM = 1, 2, 3, 4


def _prec(q: Trpq) -> int:
    if isinstance(q, Union):
        return _PREC_UNION
    if isinstance(q, Join):
        return _PREC_JOIN
    if isinstance(q, (Repeat, Inverse)):
        return _PREC_POSTFIX
    return _PREC_ATOM


def _fmt(q: Trpq, required: int) -> str:
    if isinstance(q, Label):
        body = q.name
    elif isinstance(q, Inverse):
        body = _fmt(q.edge, _PREC_POSTFIX) + "^-"
    elif isinstance(q, Pred):
        body = f"(={q.target})" if q.equals else f"(!={q.target})"
    elif isinstance(q, LeqTime):
        body = f"(<={iv.format_number(q.bound)})"
    elif isinstance(q, TimeNav):
        body = f"T{q.delta}"
    elif isinstance(q, Test):
        body = f"?({_fmt(q.inner, _PREC_UNION)})"
    elif isinstance(q, Not):
        body = f"!({_fmt(q.inner, _PREC_UNION)})"
    elif isinstance(q, Join):
        # an operand that is itself a chain keeps its parentheses
        body = "/".join([_fmt(part, _PREC_POSTFIX) for part in q.parts])
    elif isinstance(q, Union):
        body = " + ".join([_fmt(part, _PREC_JOIN) for part in q.parts])
    elif isinstance(q, Repeat):
        upper = "_" if q.n is None else str(q.n)
        body = f"{_fmt(q.inner, _PREC_POSTFIX)}[{q.m},{upper}]"
    else:  # pragma: no cover
        raise TypeError(f"not a query node: {q!r}")
    if _prec(q) < required:
        return f"({body})"
    return body


def format_query(q: Trpq) -> str:
    """Canonical rendering; parse(format_query(q)) == q."""
    return _fmt(q, _PREC_UNION)


# --- time constants: walking, adapting and scaling -------------------------


def time_leaves(q: Trpq) -> Iterator[TimeNav | LeqTime]:
    """The navigation and time-bound leaves of ``q``, left to right; not recursive."""
    stack = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, (TimeNav, LeqTime)):
            yield node
        stack.extend(reversed(children(node)))


def map_times(q: Trpq, fn: Callable[[Interval | Number], Interval | Number]) -> Trpq:
    """``q`` rebuilt with ``fn`` applied to every navigation interval and time bound."""

    def leaf(node: Trpq) -> Trpq:
        if isinstance(node, TimeNav):
            return TimeNav(fn(node.delta))
        if isinstance(node, LeqTime):
            return LeqTime(fn(node.bound))
        return node

    return map_leaves(q, leaf)


def adapt_query(q: Trpq, discrete: bool) -> Trpq:
    """Normalise query intervals for the graph's temporal mode.

    Over discrete time, temporal-navigation intervals take their canonical
    closed integer form and time bounds round down to integers; an interval
    with no integer point (for example ``T(0,1)``) is rejected.
    """
    if not discrete:
        return q
    return map_times(
        q, lambda x: iv.normalize_discrete(x) if isinstance(x, Interval) else math.floor(x)
    )


def scale_query(q: Trpq, factor: int) -> Trpq:
    """Multiply every interval endpoint and time bound in the query by ``factor``.

    An integral result is an ``int``, never ``Fraction(n, 1)``.
    """
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    return map_times(q, lambda x: iv.scale(x, factor))
