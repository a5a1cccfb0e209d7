import doctest

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
