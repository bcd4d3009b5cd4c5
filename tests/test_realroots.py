import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.errors import DomainError
from flagein.polyalg.poly import MultiPoly, parse_polynomial
from flagein.polyalg.realroots import (
    IsolatingInterval,
    interval_eval,
    refine_root,
    root_count,
    square_free_part,
    sturm_chain,
    sturm_isolate,
)

DEG14 = [
    28431, -589032, 5435343, -29379024, 100757208, -224163176, 336260186,
    -371473808, 339968604, -262478048, 152856152, -69550016, 35706576,
    -17407872, 3888000,
]


def dense(descending):
    return [F(c) for c in reversed(descending)]


def test_sqrt2():
    intervals = sturm_isolate(parse_polynomial("x^2 - 2", ("x",)), rng=(F(0), None))
    assert len(intervals) == 1
    tight = refine_root(intervals[0], F(1, 10**12))
    assert abs(float(tight.midpoint()) - 2**0.5) < 1e-11


def test_rootless_quadratic_certified():
    assert sturm_isolate(parse_polynomial("15*x^2 - 20*x + 9", ("x",))) == []


def test_known_cubic():
    poly = parse_polynomial("x^3 - 7*x + 6", ("x",))  # roots -3, 1, 2
    mids = sorted(
        float(refine_root(iv, F(1, 10**10)).midpoint()) for iv in sturm_isolate(poly)
    )
    assert len(mids) == 3
    for got, want in zip(mids, (-3.0, 1.0, 2.0)):
        assert abs(got - want) < 1e-9
    assert len(sturm_isolate(poly, rng=(F(0), None))) == 2
    # range bounds are open
    assert len(sturm_isolate(poly, rng=(F(1), None))) == 1
    assert len(sturm_isolate(poly, rng=(F(-3), F(2)))) == 1


@pytest.mark.parametrize(
    "text, roots",
    [
        pytest.param("x^3 - 3*x + 2", (1, -2), id="cubic"),  # (x - 1)^2 (x + 2)
        # (x^2 - 4)^2: the square-free quotient has an interior zero coefficient
        pytest.param("x^4 - 8*x^2 + 16", (-2, 2), id="quartic"),
    ],
)
def test_repeated_roots_squarefreed(text, roots):
    intervals = sturm_isolate(parse_polynomial(text, ("x",)))
    assert len(intervals) == 2
    for r in roots:
        assert sum(1 for iv in intervals if iv.lo <= r <= iv.hi) == 1


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        sturm_isolate(MultiPoly(("x",)))


def test_multivariate_rejected():
    with pytest.raises(DomainError):
        sturm_isolate(parse_polynomial("x*y", ("x", "y")))


def test_deg14_positive_roots():
    intervals = sturm_isolate(dense(DEG14), rng=(F(0), None))
    assert len(intervals) == 2
    values = [float(refine_root(iv, F(1, 10**12)).midpoint()) for iv in intervals]
    assert abs(values[0] - 0.7440) < 1e-4
    assert abs(values[1] - 1.7896) < 1e-4
    assert len(sturm_isolate(dense(DEG14))) == 2


def test_refinement_no_op_when_tight():
    iv = IsolatingInterval(F(1), F(1), (F(-1), F(1)))
    assert refine_root(iv, F(1, 1000)) == iv
    bracket = sturm_isolate(parse_polynomial("x^2 - 2", ("x",)), rng=(F(0), None))[0]
    wide = refine_root(bracket, F(2))
    assert wide.width <= bracket.width


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
    # certified count equals the Sturm variation difference over the full line
    sf = square_free_part(dense_coeffs)
    chain = sturm_chain(sf)
    assert len(intervals) == root_count(chain, "-inf", "+inf")
    # each bracket really contains a sign change of the square-free part
    for iv in intervals:
        if not iv.is_exact:
            lo_val = _eval(sf, iv.lo)
            hi_val = _eval(sf, iv.hi)
            assert lo_val * hi_val < 0


def _eval(coeffs, x):
    total = F(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def test_interval_eval_encloses_true_range():
    coeffs = dense(DEG14)
    lo, hi = interval_eval(coeffs, F(74, 100), F(75, 100))
    for k in range(11):
        x = F(74, 100) + F(k, 1000)
        assert lo <= _eval(coeffs, x) <= hi


def test_isqrt_consistency_of_integer_square_roots():
    # perfect squares give exact rational roots
    for n in (4, 9, 49, 144):
        poly = parse_polynomial(f"x^2 - {n}", ("x",))
        intervals = sturm_isolate(poly, rng=(F(0), None))
        assert len(intervals) == 1
        tight = refine_root(intervals[0], F(1, 10**6))
        assert tight.lo <= isqrt(n) <= tight.hi
