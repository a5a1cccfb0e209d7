"""Query texts that nest a given number of levels, one builder per shape.

``SHAPES[name](k)`` nests ``k`` levels in the sense of ``query.MAX_DEPTH``:
``k`` tree levels, or ``k`` open groups for plain parentheses, which add no
tree level.  The leaves are the label ``e``, navigation ``T[0,1]`` and the
time bound ``(<=1)``, so that adapting and scaling change something.
"""


def _alternating(levels: int) -> str:
    # a union and a join per group: (e + e/(e + e/(...)))
    text = "T[0,1]"
    for level in range(levels):
        text = f"e/({text})" if level % 2 == 0 else f"e + {text}"
    return text


SHAPES = {
    "groups": lambda levels: "(" * levels + "T[0,1]" + ")" * levels,
    "test": lambda levels: "?(" * levels + "T[0,1]" + ")" * levels,
    "negation": lambda levels: "!(" * levels + "(<=1)" + ")" * levels,
    "repeat": lambda levels: "T[0,1]" + "[1,1]" * levels,
    "alternating": _alternating,
}
