import random
from fractions import Fraction as F
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.errors import DomainError
from flagein.polyalg.poly import parse_polynomial
from flagein.polyalg.realroots import (
    IsolatingInterval,
    coprime,
    deflate,
    interval_eval,
    refine_root,
    sturm_isolate,
)

DEG14 = [
    28431, -589032, 5435343, -29379024, 100757208, -224163176, 336260186,
    -371473808, 339968604, -262478048, 152856152, -69550016, 35706576,
    -17407872, 3888000,
]


def dense(descending):
    return [F(c) for c in reversed(descending)]


def positive(coeffs):
    return [iv for iv in sturm_isolate(coeffs) if iv.hi > 0]


def mid(iv):
    return (iv.lo + iv.hi) / 2


def sympy_count(coeffs):
    """Distinct real roots by sympy, an independent reference."""
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x).count_roots()


def test_sqrt2():
    intervals = positive(parse_polynomial("x^2 - 2", ("x",)).univariate_in("x"))
    assert len(intervals) == 1
    tight = refine_root(intervals[0], F(1, 10**12))
    assert abs(float(mid(tight)) - 2**0.5) < 1e-11


def test_rootless_quadratic_certified():
    assert sturm_isolate(parse_polynomial("15*x^2 - 20*x + 9", ("x",)).univariate_in("x")) == []


def test_known_cubic():
    poly = parse_polynomial("x^3 - 7*x + 6", ("x",)).univariate_in("x")  # roots -3, 1, 2
    mids = sorted(
        float(mid(refine_root(iv, F(1, 10**10)))) for iv in sturm_isolate(poly)
    )
    assert len(mids) == 3
    for got, want in zip(mids, (-3.0, 1.0, 2.0)):
        assert abs(got - want) < 1e-9
    assert len(positive(poly)) == 2


@pytest.mark.parametrize(
    "text, roots",
    [
        pytest.param("x^3 - 3*x + 2", (1, -2), id="cubic"),  # (x - 1)^2 (x + 2)
        # (x^2 - 4)^2: the square-free quotient has an interior zero coefficient
        pytest.param("x^4 - 8*x^2 + 16", (-2, 2), id="quartic"),
    ],
)
def test_repeated_roots_squarefreed(text, roots):
    intervals = sturm_isolate(parse_polynomial(text, ("x",)).univariate_in("x"))
    assert len(intervals) == 2
    for r in roots:
        assert sum(1 for iv in intervals if iv.lo <= r <= iv.hi) == 1


def test_zero_polynomial_rejected():
    for entry in (sturm_isolate, lambda c: deflate(c, F(1))):
        for coeffs in ([F(0)], []):
            with pytest.raises(DomainError, match="^zero polynomial$"):
                entry(coeffs)


def test_deg14_positive_roots():
    intervals = positive(dense(DEG14))
    assert len(intervals) == 2
    values = [float(mid(refine_root(iv, F(1, 10**12)))) for iv in intervals]
    assert abs(values[0] - 0.7440) < 1e-4
    assert abs(values[1] - 1.7896) < 1e-4
    assert len(sturm_isolate(dense(DEG14))) == 2
    # at the solver's precision the float midpoints no longer depend on the
    # bisection points that started the refinement
    tight = [float(mid(refine_root(iv, F(1, 10**40)))) for iv in intervals]
    assert tight == [0.7440347799024186, 1.7896006223103744]


def test_refinement_no_op_when_tight():
    iv = IsolatingInterval(F(1), F(1), (F(-1), F(1)))
    assert refine_root(iv, F(1, 1000)) == iv
    bracket = positive(parse_polynomial("x^2 - 2", ("x",)).univariate_in("x"))[0]
    wide = refine_root(bracket, F(2))
    assert wide.hi - wide.lo <= bracket.hi - bracket.lo


def test_refinement_precision_rejected():
    iv = IsolatingInterval(F(0), F(2), (F(-2), F(0), F(1)))
    with pytest.raises(DomainError):
        refine_root(iv, 0)


def _poly_from_roots(roots):
    coeffs = [F(1)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def test_constructed_rational_roots_recovered():
    rng = random.Random(11)
    for _ in range(100):
        roots = sorted(
            {F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))}
        )
        coeffs = _poly_from_roots(roots)
        intervals = sturm_isolate(coeffs)
        assert len(intervals) == len(roots)
        for iv, r in zip(intervals, roots):
            tight = refine_root(iv, F(1, 10**9))
            assert tight.lo <= r <= tight.hi


def test_roots_closer_than_the_recursion_limit():
    # separating the roots takes about 1200 bisection levels
    roots = [F(1, 3), F(1, 3) + F(1, 2**1200)]
    intervals = sturm_isolate(_poly_from_roots(roots))
    assert len(intervals) == 2
    assert intervals[0].hi <= intervals[1].lo
    for iv, r in zip(intervals, roots):
        assert iv.lo <= r <= iv.hi


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
def test_random_polynomials_certified(coeffs):
    if not any(coeffs[1:]) or not any(coeffs):
        return
    dense_coeffs = [F(c) for c in coeffs]
    while dense_coeffs and dense_coeffs[-1] == 0:
        dense_coeffs.pop()
    if len(dense_coeffs) < 2:
        return
    intervals = sturm_isolate(dense_coeffs)
    # disjoint and ordered
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi <= b.lo or (a.is_exact and a.lo < b.lo) or (b.is_exact and a.hi < b.lo)
    assert len(intervals) == sympy_count(dense_coeffs)
    # each bracket really contains a sign change of the square-free part
    for iv in intervals:
        if not iv.is_exact:
            lo_val = _eval(iv.poly, iv.lo)
            hi_val = _eval(iv.poly, iv.hi)
            assert lo_val * hi_val < 0


def _eval(coeffs, x):
    total = F(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


@st.composite
def _rational_coefficients(draw):
    """Dense coefficients with denominators up to 2^20 and a non-zero lead."""
    numerators = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    numerators.append(draw(st.integers(-9, 9).filter(bool)))
    denominators = draw(st.lists(st.integers(1, 2**20), min_size=len(numerators), max_size=len(numerators)))
    return [F(n, d) for n, d in zip(numerators, denominators)]


def sympy_square_free(coeffs):
    """sympy's square-free part of dense ascending *coeffs*, primitive over
    the integers with a positive lead, dense ascending."""
    part = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).sqf_part()
    _, primitive = part.clear_denoms()[1].primitive()
    if primitive.LC() < 0:
        primitive = -primitive
    return tuple(F(int(c)) for c in reversed(primitive.all_coeffs()))


@settings(max_examples=200, deadline=None)
@given(_rational_coefficients())
def test_random_rational_polynomials_certified(coeffs):
    # sign tests clear the denominators first; the Fraction reference below
    # evaluates the square-free part as it stands
    intervals = sturm_isolate(coeffs)
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi <= b.lo or (a.is_exact and a.lo < b.lo) or (b.is_exact and a.hi < b.lo)
    assert len(intervals) == sympy_count(coeffs)
    reference = sympy_square_free(coeffs)
    for iv in intervals:
        # the part keeps the sign rational division gives it
        assert iv.poly in (reference, tuple(-v for v in reference))
        if iv.is_exact:
            assert _eval(iv.poly, iv.lo) == 0
        else:
            assert _eval(iv.poly, iv.lo) * _eval(iv.poly, iv.hi) < 0


def _from_roots(roots, lead):
    return [lead * c for c in _poly_from_roots(roots)]


# The square-free factors are those of the Fraction implementation of the
# root layer, recorded before its sign tests moved to integers; the intervals
# are the Descartes isolator's dyadic bisection points, and the refined ones
# follow from them.  None may move by one bit.
_PINNED_POLYS = {
    "deg14": dense(DEG14),
    "rational": [F(-3, 7), F(5, 11), F(2, 3), F(-1, 5), F(7, 13)],
    "on_grid": _from_roots([F(0), F(1, 2), F(3, 4), F(-1)], F(-5, 3)),
    "repeated": _from_roots([F(1, 3), F(1, 3), F(-2, 5), F(-2, 5), F(-2, 5), F(2)], F(-7, 9)),
    # -x^4/5 + x: a root at 0 under a negative lead
    "sparse": [F(0), F(1), F(0), F(0), F(-1, 5)],
}
_PINNED_SQUARE_FREE = {
    "deg14": tuple(reversed(DEG14)),
    "rational": (-6435, 6825, 10010, -3003, 8085),
    "on_grid": (0, -3, 7, 2, -8),
    "repeated": (-4, 4, 29, -15),
    "sparse": (0, 5, 0, 0, -1),
}
_PINNED_INTERVALS = [
    # (polynomial, [(lo, hi), ...])
    ("deg14", [("1/2", "1"), ("1", "2")]),
    ("rational", [("-4", "0"), ("0", "4")]),
    # every root is a bisection point, so each comes back exact
    ("on_grid", [("-1", "-1"), ("0", "0"), ("1/2", "1/2"), ("3/4", "3/4")]),
    ("repeated", [("-4", "0"), ("0", "1"), ("2", "2")]),
    ("sparse", [("0", "0"), ("1", "2")]),
]
# The roots the solver keeps, hi > 0, are those of an isolation on the open
# range (0, inf); these rows keep the test ids they had when that range was
# an argument of sturm_isolate.
_PINNED_POSITIVE = [
    # (test id, polynomial, [(lo, hi), ...])
    ("deg14-rng1-bounds1", "deg14", [("1/2", "1"), ("1", "2")]),
    # the exact root at 0 is not positive
    ("sparse-rng9-bounds9", "sparse", [("1", "2")]),
]
_PINNED_REFINED = [
    # (polynomial, precision, [(lo, hi), ...])
    (
        "deg14",
        F(1, 10**40),
        [
            (
                "4050910655627112168523587061419401419549/5444517870735015415413993718908291383296",
                "8101821311254224337047174122838802839099/10889035741470030830827987437816582766592",
            ),
            (
                "19487025139294676244808371842324400491857/10889035741470030830827987437816582766592",
                "9743512569647338122404185921162200245929/5444517870735015415413993718908291383296",
            ),
        ],
    ),
    (
        "rational",
        F(1, 10**20),
        [
            ("-120964838277171958031/147573952589676412928", "-60482419138585979015/73786976294838206464"),
            ("38408863510577983237/73786976294838206464", "76817727021155966475/147573952589676412928"),
        ],
    ),
    ("on_grid", F(1, 10**12), [("-1", "-1"), ("0", "0"), ("1/2", "1/2"), ("3/4", "3/4")]),
    (
        "repeated",
        F(1, 10**12),
        [
            ("-439804651111/1099511627776", "-219902325555/549755813888"),
            ("366503875925/1099511627776", "183251937963/549755813888"),
            ("2", "2"),
        ],
    ),
    ("sparse", F(1, 10**12), [("0", "0"), ("470034609147/274877906944", "1880138436589/1099511627776")]),
]


@pytest.mark.parametrize("name, count", [("deg14", 2), ("rational", 2), ("on_grid", 4), ("repeated", 3), ("sparse", 2)])
def test_sturm_counts_are_pinned(name, count):
    assert len(sturm_isolate(_PINNED_POLYS[name])) == count


def test_root_at_zero_is_exact_and_alone():
    # x (3x - 1)(2x + 1)(x - 3): the interval (0, b) would have a root at its
    # left end, which breaks the sign certificate refine_root reads
    poly = _poly_from_roots([F(0), F(1, 3), F(-1, 2), F(3)])
    intervals = sturm_isolate(poly)
    assert len(intervals) == 4
    assert [iv for iv in intervals if iv.lo <= 0 <= iv.hi] == [IsolatingInterval(F(0), F(0), intervals[0].poly)]
    for iv in intervals:
        if iv.is_exact:
            assert _eval(iv.poly, iv.lo) == 0
        else:
            assert _eval(iv.poly, iv.lo) * _eval(iv.poly, iv.hi) < 0
    for iv, root in zip(intervals, (F(-1, 2), F(0), F(1, 3), F(3))):
        assert iv.lo <= root <= iv.hi
    # hi > 0 keeps the roots an isolation on the open range (0, inf) found
    positive_counts = {"deg14": 2, "rational": 1, "on_grid": 2, "repeated": 2, "sparse": 1}
    assert {name: len(positive(poly)) for name, poly in _PINNED_POLYS.items()} == positive_counts


def _pinned(name, bounds):
    sf = tuple(F(v) for v in _PINNED_SQUARE_FREE[name])
    return repr([IsolatingInterval(F(lo), F(hi), sf) for lo, hi in bounds])


@pytest.mark.parametrize(
    "name, positive_only, bounds",
    [pytest.param(name, False, bounds, id=f"{name}-bounds{i}") for i, (name, bounds) in enumerate(_PINNED_INTERVALS)]
    + [pytest.param(name, True, bounds, id=test_id) for test_id, name, bounds in _PINNED_POSITIVE],
)
def test_isolation_output_is_pinned(name, positive_only, bounds):
    isolate = positive if positive_only else sturm_isolate
    assert repr(isolate(_PINNED_POLYS[name])) == _pinned(name, bounds)


@pytest.mark.parametrize("name, precision, bounds", _PINNED_REFINED)
def test_refinement_output_is_pinned(name, precision, bounds):
    refined = [refine_root(iv, precision) for iv in sturm_isolate(_PINNED_POLYS[name])]
    assert repr(refined) == _pinned(name, bounds)


@pytest.mark.parametrize("name", sorted(_PINNED_POLYS))
def test_square_free_part_is_pinned(name):
    # every pinned polynomial has a real root, and each interval carries the part
    assert {repr(iv.poly) for iv in sturm_isolate(_PINNED_POLYS[name])} == {
        repr(tuple(F(v) for v in _PINNED_SQUARE_FREE[name]))
    }


def test_deflate_splits_known_roots_on_integers():
    # (3x - 2)(x + 5) * DEG14, ascending
    product = [0] * (len(DEG14) + 2)
    for i, a in enumerate(reversed(DEG14)):
        for j, b in enumerate((-10, 13, 3)):
            product[i + j] += a * b
    once = deflate([F(v) for v in product], F(2, 3))
    assert once[-1] == DEG14[0] and all(type(v) is int for v in once)
    deg14 = deflate(once, F(-5))
    assert deg14 == list(reversed(DEG14))
    assert repr(positive(deg14)) == _pinned("deg14", _PINNED_INTERVALS[0][1])
    with pytest.raises(DomainError, match="expected rational root 3/4 missing"):
        deflate(deg14, F(3, 4))


def _sympy_coprime(a, b):
    """gcd(a, b) is a non-zero constant, by sympy, an independent reference."""
    x = sympy.Symbol("x")
    polys = [sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)] or [0], x) for p in (a, b)]
    g = sympy.gcd(*polys)
    return not g.is_zero and g.degree() == 0


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


_SMALL = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(lambda c: [F(v) for v in c])


@settings(max_examples=300, deadline=None)
@given(_SMALL, _SMALL, _SMALL)
def test_coprime_agrees_with_sympy_gcd(a, b, common):
    # the products share every root of *common*; a constant or zero one
    # shares nothing or everything, and squares repeat roots
    for u, v in ((a, b), (_times(a, common), _times(b, common)), (_times(a, a), b), (a, _times(b, _times(b, common)))):
        assert coprime(u, v) == _sympy_coprime(u, v) == coprime(v, u)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        pytest.param([-2, 0, 1], [-1, 1], True, id="x^2-2,x-1"),
        pytest.param([-2, 0, 1], [3], True, id="x^2-2,3"),
        pytest.param([F(2, 3)], [-5], True, id="2/3,-5"),
        pytest.param([1, 0, 1], [-1, 0, 0, 0, 1], False, id="x^2+1,x^4-1"),
        # (x - 1)^2 against (x - 1)^2 (x + 1): a repeated common root
        pytest.param([1, -2, 1], [1, -1, -1, 1], False, id="repeated"),
        pytest.param([-2, 0, 1], [0], False, id="x^2-2,0"),
        pytest.param([5], [0, 0], True, id="5,0"),
        pytest.param([0], [0], False, id="0,0"),
    ],
)
def test_coprime_on_constants_zero_and_repeated_roots(a, b, expected):
    a, b = [F(v) for v in a], [F(v) for v in b]
    assert coprime(a, b) is expected
    assert coprime(b, a) is expected
    assert _sympy_coprime(a, b) is expected


def test_interval_eval_encloses_true_range():
    coeffs = dense(DEG14)
    lo, hi = interval_eval(coeffs, F(74, 100), F(75, 100))
    for k in range(11):
        x = F(74, 100) + F(k, 1000)
        assert lo <= _eval(coeffs, x) <= hi


def test_isqrt_consistency_of_integer_square_roots():
    # perfect squares give exact rational roots
    for n in (4, 9, 49, 144):
        poly = parse_polynomial(f"x^2 - {n}", ("x",)).univariate_in("x")
        intervals = positive(poly)
        assert len(intervals) == 1
        tight = refine_root(intervals[0], F(1, 10**6))
        assert tight.lo <= isqrt(n) <= tight.hi
