import doctest
from pathlib import Path

import trpq
import trpq.intervals
import trpq.query


def test_interval_module_doctests():
    results = doctest.testmod(trpq.intervals)
    assert results.failed == 0
    assert results.attempted >= 3


def test_query_module_doctests():
    results = doctest.testmod(trpq.query)
    assert results.failed == 0
    assert results.attempted >= 3


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start():
    # the calls of README "Quick start", with the results it lists
    text = README.read_text(encoding="utf-8")
    start = text.index("## Quick start")
    block = text[text.index("```python", start) : text.index("```\n", start + 20)]
    assert 'trpq.parse_query("attends^-/(=Alice)/T[3,5]/attends")' in block
    assert "# c ICDT ISWC [100,102] [3,5] b=101 e=101" in block

    g = trpq.running_example()
    q = trpq.parse_query("attends^-/(=Alice)/T[3,5]/attends")
    assert len(trpq.eval_direct(g, q)) == 7
    assert len(trpq.coalesce_t(trpq.eval_t(g, q))) == 3
    assert trpq.eval_c(g, q).render() == "c ICDT ISWC [100,102] [3,5] b=101 e=101"
    assert trpq.eval_c(g, q, max_iterations=50) == trpq.eval_c(g, q)
