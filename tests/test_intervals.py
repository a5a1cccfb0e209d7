import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trpq import intervals as iv
from trpq.errors import EmptyIntervalError, IntervalDomainError, TrpqError
from trpq.intervals import Interval


def C(lo, hi):
    return iv.closed(lo, hi)


def points(interval):
    return set(iv.iter_points(interval))


small_ints = st.integers(min_value=-10, max_value=10)


@st.composite
def discrete_intervals(draw):
    lo = draw(small_ints)
    return C(lo, lo + draw(st.integers(min_value=0, max_value=6)))


@st.composite
def dense_intervals(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    lo = Fraction(draw(st.integers(min_value=-12, max_value=12)), k)
    width = Fraction(draw(st.integers(min_value=0, max_value=10)), k)
    lc = draw(st.booleans())
    rc = draw(st.booleans())
    if width == 0 and not (lc and rc):
        lc = rc = True
    return Interval(lo, lo + width, lc, rc)


# --- construction and parsing ------------------------------------------------


def test_empty_constructions_rejected():
    with pytest.raises(EmptyIntervalError):
        Interval(3, 1)
    with pytest.raises(EmptyIntervalError):
        Interval(2, 2, True, False)
    with pytest.raises(EmptyIntervalError):
        Interval(2, 2, False, False)


@pytest.mark.parametrize("args, text", [
    ((3, 1), "[3,1]"),
    ((2, 2, True, False), "[2,2)"),
    ((2, 2, False, False), "(2,2)"),
    ((Fraction(1, 2), Fraction(1, 3), False, True), "(1/2,1/3]"),
    ((Fraction(7, 2), Fraction(7, 2), False, True), "(7/2,7/2]"),
])
def test_empty_interval_error_names_the_interval(args, text):
    with pytest.raises(EmptyIntervalError) as err:
        Interval(*args)
    assert str(err.value) == f"empty interval {text}"


def test_interval_repr_str_and_equality():
    assert repr(Interval(0, 1)) == "Interval(0, 1)"
    assert repr(Interval(0, Fraction(1, 2))) == "Interval(0, Fraction(1, 2))"
    assert repr(Interval(Fraction(1, 2), 1, False, True)) == "Interval.parse('(1/2,1]')"
    assert repr(Interval(-1, 3, True, False)) == "Interval.parse('[-1,3)')"
    assert str(Interval(Fraction(1, 2), 1, False, True)) == "(1/2,1]"
    assert str(Interval(100, 112)) == "[100,112]"
    open_interval = Interval(2, 5, False, False)
    assert eval(repr(open_interval), {"Interval": Interval}) == open_interval
    assert Interval(0, 1) == Interval(0, 1, True, True)
    assert hash(Interval(0, 1)) == hash(Interval(0, Fraction(1)))
    assert Interval(0, 1) != Interval(0, 1, True, False)
    assert (Interval(0, 1).lo, Interval(0, 1).hi) == (0, 1)
    assert not hasattr(Interval(0, 1), "__dict__")


def test_parse_and_format_round_trip():
    for text in ("[100,112]", "(1,3]", "[0,2)", "(-7,0)", "[1/2,3/2]", "[-3/4,2]"):
        assert str(iv.parse_interval(text)) == text


def test_parse_decimal_is_exact():
    parsed = iv.parse_interval("[0.5,1.25]")
    assert parsed.lo == Fraction(1, 2)
    assert parsed.hi == Fraction(5, 4)


# --- shift -------------------------------------------------------------------


def test_shift_translates_pointwise():
    assert iv.shift(C(100, 102), 3) == C(103, 105)


def test_shift_identity():
    assert iv.shift(C(0, 2), 0) == C(0, 2)


def test_shift_preserves_delimiters_dense():
    assert iv.shift(Interval(1, 3, False, True), -1) == Interval(0, 2, False, True)


@given(discrete_intervals(), small_ints)
def test_shift_round_trip(a, d):
    assert iv.shift(iv.shift(a, d), -d) == a


def test_scale_gives_int_for_integral_endpoints():
    scaled = iv.scale(Interval(Fraction(1, 2), Fraction(5, 6), False, True), 6)
    assert scaled == Interval(3, 5, False, True)
    assert repr(scaled) == "Interval.parse('(3,5]')"
    back = iv.scale(C(3, 4), Fraction(1, 2))
    assert back == C(Fraction(3, 2), 2) and type(back.hi) is int


# --- msum / mdiff ------------------------------------------------------------


def test_msum_matches_enumerated_sums():
    a, b = C(100, 101), C(3, 5)
    sums = {x + y for x in points(a) for y in points(b)}
    expected = C(min(sums), max(sums))
    assert sums == points(expected)  # the sum set really is an interval
    assert iv.msum(a, b) == expected == C(103, 106)


def test_msum_zero_identity():
    a = C(-2, 7)
    assert iv.msum(a, C(0, 0)) == a


def test_msum_dense_half_open():
    a = Interval(1, 2, True, False)
    b = Interval(0, 1, True, False)
    out = iv.msum(a, b)
    assert out == Interval(1, 3, True, False)
    # membership matches an exists-decomposition searched on a fine grid
    grid = [Fraction(i, 32) for i in range(-16, 33 * 4)]
    for t in [Fraction(i, 16) for i in range(0, 16 * 4)]:
        witness = any(
            iv.contains(a, x) and iv.contains(b, t - x) for x in grid
        )
        assert witness == iv.contains(out, t)


@given(discrete_intervals(), discrete_intervals())
def test_msum_membership_brute_force(a, b):
    sums = {x + y for x in points(a) for y in points(b)}
    out = iv.msum(a, b)
    lo = a.lo + b.lo - 2
    hi = a.hi + b.hi + 2
    for t in range(lo, hi + 1):
        assert (t in sums) == iv.contains(out, t)


def test_mdiff_matches_enumerated_differences():
    a, b = C(6, 8), C(3, 5)
    diffs = {x - y for x in points(a) for y in points(b)}
    assert iv.mdiff(a, b) == C(min(diffs), max(diffs)) == C(1, 5)
    assert diffs == points(C(1, 5))


def test_mdiff_zero_identity():
    a = C(4, 9)
    assert iv.mdiff(a, C(0, 0)) == a


def test_mdiff_reach_characterisation():
    # mdiff(beta, alpha) = {t | (t + alpha) n beta nonempty}, brute forced
    alpha, beta = C(3, 5), C(10, 12)
    reach = {
        t
        for t in range(-30, 31)
        if iv.intersect(iv.shift(alpha, t), beta) is not None
    }
    assert reach == points(iv.mdiff(beta, alpha)) == points(C(5, 9))


@given(discrete_intervals(), discrete_intervals())
def test_mdiff_reach_property(alpha, beta):
    out = iv.mdiff(beta, alpha)
    for t in range(out.lo - 2, out.hi + 3):
        reaches = iv.intersect(iv.shift(alpha, t), beta) is not None
        assert reaches == iv.contains(out, t)


# --- intersect ---------------------------------------------------------------


def test_intersect_overlap():
    assert iv.intersect(C(0, 5), C(3, 8)) == C(3, 5)


def test_intersect_touching_closed():
    assert iv.intersect(C(0, 2), C(2, 4)) == C(2, 2)


def test_intersect_open_endpoint_empty():
    assert iv.intersect(Interval(0, 2, True, False), C(2, 4)) is None


def test_intersect_tighter_delimiter_wins():
    out = iv.intersect(Interval(0, 2, False, True), Interval(0, 2, True, False))
    assert out == Interval(0, 2, False, False)


# --- complement --------------------------------------------------------------


def test_complement_discrete():
    assert iv.complement([C(2, 3)], C(0, 5), discrete=True) == (C(0, 1), C(4, 5))


def test_complement_dense():
    out = iv.complement([C(2, 3)], C(0, 5), discrete=False)
    assert out == (Interval(0, 2, True, False), Interval(3, 5, False, True))


def test_complement_of_nothing():
    assert iv.complement([], C(0, 5), discrete=True) == (C(0, 5),)


def test_complement_of_everything():
    assert iv.complement([C(0, 5)], C(0, 5), discrete=True) == ()


def test_complement_containment_checked():
    with pytest.raises(IntervalDomainError):
        iv.complement([C(-1, 2)], C(0, 5), discrete=True)


@given(st.lists(discrete_intervals(), max_size=4), discrete_intervals())
def test_complement_partitions_discrete(items, bound):
    clipped = [
        got for x in items if (got := iv.intersect(x, bound)) is not None
    ]
    gaps = iv.complement(clipped, bound, discrete=True)
    covered = {t for x in clipped for t in points(x)}
    gap_points = {t for g in gaps for t in points(g)}
    assert covered | gap_points == points(bound)
    assert not covered & gap_points


def _loose(rng, a, b):
    # an interval whose integer points are a..b, often with an open end or a
    # half-step endpoint, which complement normalises
    if rng.random() < 0.5:
        return C(a, b)
    left = rng.choice([(a, True), (a - 1, False), (a - Fraction(1, 2), True)])
    right = rng.choice([(b, True), (b + 1, False), (b + Fraction(1, 2), True)])
    return Interval(left[0], right[0], left[1], right[1])


def _runs(values):
    # the maximal runs of consecutive integers, as closed intervals
    runs = []
    for t in sorted(values):
        if runs and runs[-1][1] == t - 1:
            runs[-1][1] = t
        else:
            runs.append([t, t])
    return tuple(C(a, b) for a, b in runs)


def test_complement_discrete_matches_pointwise_reference():
    rng = random.Random(9)
    split = 0
    for _ in range(5_000):
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 12)
        draws = range(rng.randint(0, 5))
        spans = [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for _ in draws]
        items = [_loose(rng, a, b) for a, b in spans]
        got = iv.complement(items, _loose(rng, lo, hi), discrete=True)
        covered = {t for a, b in spans for t in range(a, b + 1)}
        assert got == _runs(points(C(lo, hi)) - covered), (items, lo, hi)
        split += len(got) > 1
    assert split > 500


def _sample_points(intervals):
    values = set()
    for x in intervals:
        values.update((x.lo, x.hi))
    values = sorted(values)
    samples = set(values)
    for a, b in zip(values, values[1:]):
        samples.add(a + Fraction(b - a, 2))
    samples.add(values[0] - 1)
    samples.add(values[-1] + 1)
    return samples


@given(st.lists(dense_intervals(), max_size=4), dense_intervals())
def test_complement_partitions_dense(items, bound):
    clipped = [
        got for x in items if (got := iv.intersect(x, bound)) is not None
    ]
    gaps = iv.complement(clipped, bound, discrete=False)
    for t in _sample_points([bound, *clipped, *gaps]):
        in_bound = iv.contains(bound, t)
        in_items = any(iv.contains(x, t) for x in clipped)
        in_gaps = any(iv.contains(g, t) for g in gaps)
        assert in_gaps == (in_bound and not in_items)


# --- coalesce ----------------------------------------------------------------


def test_coalesce_overlap():
    assert iv.coalesce([C(1, 3), C(2, 5)], discrete=True) == (C(1, 5),)


def test_coalesce_adjacency_depends_on_mode():
    items = [C(1, 2), C(3, 4)]
    merged = iv.coalesce(items, discrete=True)
    assert merged == (C(1, 4),)
    assert {t for x in merged for t in points(x)} == {1, 2, 3, 4}
    assert iv.coalesce(items, discrete=False) == (C(1, 2), C(3, 4))


def test_coalesce_empty():
    assert iv.coalesce([], discrete=True) == ()


@given(st.lists(discrete_intervals(), max_size=5))
def test_coalesce_is_canonical_discrete(items):
    out = iv.coalesce(items, discrete=True)
    assert iv.coalesce(list(out), discrete=True) == out  # idempotent
    assert iv.coalesce(list(reversed(items)), discrete=True) == out  # order free
    union = {t for x in items for t in points(x)}
    assert union == {t for x in out for t in points(x)}  # union preserved
    for a, b in zip(out, out[1:]):
        assert a.hi + 1 < b.lo  # disjoint and non-adjacent


@given(st.lists(dense_intervals(), max_size=5))
def test_coalesce_dense_union_preserved(items):
    out = iv.coalesce(items, discrete=False)
    for t in _sample_points(items or [C(0, 0)]):
        assert any(iv.contains(x, t) for x in items) == any(
            iv.contains(x, t) for x in out
        )
    for a, b in zip(out, out[1:]):
        assert not iv.union_is_interval(a, b, discrete=False)


def _random_delimited(rng, step, lo=None):
    # a nonempty interval on multiples of ``step``, with random delimiters
    while True:
        a = step * rng.randint(-4, 4) if lo is None else lo
        try:
            x = Interval(a, a + step * rng.randint(0, 4), rng.random() < 0.5, rng.random() < 0.5)
            if step == 1:
                iv.normalize_discrete(x)
            return x
        except EmptyIntervalError:
            continue


def _covered(a, b, discrete):
    # whether a and b leave no point of their hull uncovered: over dense time,
    # checked at the quarter steps, which hold every one-point gap of half steps
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    if discrete:
        held = points(iv.normalize_discrete(a)) | points(iv.normalize_discrete(b))
        return held == set(range(min(held), max(held) + 1))
    steps = (lo + Fraction(k, 4) for k in range(1, int(4 * (hi - lo))))
    return all(iv.contains(a, t) or iv.contains(b, t) for t in steps)


@pytest.mark.parametrize("discrete", [True, False], ids=["discrete", "dense"])
def test_union_is_interval_is_symmetric_and_exact(discrete):
    # both operand orders, and half the pairs share their low, often with
    # different delimiters
    rng = random.Random(f"union-{discrete}")
    step = 1 if discrete else Fraction(1, 2)
    seen = {"lower": 0, "one low, two delimiters": 0}
    for _ in range(4_000):
        a = _random_delimited(rng, step)
        b = _random_delimited(rng, step, a.lo if rng.random() < 0.5 else None)
        got = iv.union_is_interval(a, b, discrete=discrete)
        assert got == iv.union_is_interval(b, a, discrete=discrete), (a, b)
        assert got == _covered(a, b, discrete), (a, b)
        seen["lower"] += b.lo < a.lo
        seen["one low, two delimiters"] += a.lo == b.lo and a.left_closed != b.left_closed
    assert min(seen.values()) > 500


# --- contains ----------------------------------------------------------------


def test_contains_examples():
    assert iv.contains(C(0, 2), 2)
    assert not iv.contains(Interval(0, 2, True, False), 2)
    assert iv.contains(Interval(1, 2, False, False), Fraction(3, 2))


def test_normalize_discrete():
    assert iv.normalize_discrete(Interval(0, 3, False, False)) == C(1, 2)
    assert iv.normalize_discrete(Interval(Fraction(1, 2), Fraction(5, 2))) == C(1, 2)
    with pytest.raises(EmptyIntervalError):
        iv.normalize_discrete(Interval(0, 1, False, False))


@pytest.mark.parametrize(
    "x",
    [10**5000, -(10**5000), Fraction(1, 10**5000), Fraction(10**5000 + 1, 2)],
    ids=["int", "negative-int", "denominator", "numerator"],
)
def test_format_number_too_long_to_print_raises(x):
    with pytest.raises(TrpqError, match="digits"):
        iv.format_number(x)


def test_format_number_prints_every_number_type():
    # int takes a fast path ahead of the Fraction check; the rest must print as before
    assert iv.format_number(0) == "0" and iv.format_number(-7) == "-7"
    assert iv.format_number(Fraction(6, 3)) == "2" and iv.format_number(Fraction(-1, 2)) == "-1/2"
    assert iv.format_number(2.5) == "2.5"  # floats reach error messages, never answers
    assert iv.format_number(True) == "True"
    limit = sys.get_int_max_str_digits()  # 4,300 by default
    assert iv.format_number(-(10 ** (limit - 1))) == "-1" + "0" * (limit - 1)
    with pytest.raises(TrpqError, match=f"more than {limit:,} digits"):
        iv.format_number(10**limit)
