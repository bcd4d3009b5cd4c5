"""Certified real-root isolation for univariate rational polynomials.

Sturm sequences give exact root counts on any interval; bisection with exact
sign tests refines isolating intervals to arbitrary width.  Interval
endpoints are Fractions, but every sign test runs on integers: a polynomial
is scaled once per call to integer coefficients by the positive lcm of its
denominators, and for q > 0 the integer q^n f(p/q) has the sign of f(p/q).
The square-free part and the Sturm chain are built with primitive
pseudo-remainders scaled by |lc|^(delta+1), which preserves every sign, so
the intervals and certificates are exactly those of rational arithmetic.
A known rational root p/q is split off by exact integer division by q x - p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..errors import DomainError

Coeffs = list[Fraction]  # dense, ascending
IntCoeffs = list[int]  # dense, ascending, a positive multiple of a Coeffs


def _strip(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _derivative(c: list) -> list:
    return [i * coeff for i, coeff in enumerate(c)][1:]


def _integer(c) -> IntCoeffs:
    """Rational coefficients times the positive lcm of their denominators,
    trailing zeros stripped; the zero polynomial is a ``DomainError``."""
    den = lcm(*(v.denominator for v in c))
    c = _strip([v.numerator * (den // v.denominator) for v in c])
    if not c:
        raise DomainError("zero polynomial")
    return c


def _primitive(c: IntCoeffs) -> IntCoeffs:
    """Divide by the positive content; sign is preserved (Sturm needs it)."""
    g = gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _remainder(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """A positive multiple of the remainder of a / b, primitive.

    Each division step scales the running remainder by |lc(b)| / g, where g
    is the gcd of lc(b) and the term being cancelled, so the pseudo-remainder
    is the true remainder times a divisor of |lc(b)|^(delta+1) > 0.
    """
    r = _strip(list(a))
    db = len(b) - 1
    lc = b[-1]
    while len(r) - 1 >= db:
        shift = len(r) - 1 - db
        lead = r.pop()
        g = gcd(lead, lc)
        keep = abs(lc) // g
        take = lead // g if lc > 0 else -lead // g
        if keep != 1:
            r = [keep * v for v in r]
        for i, coeff in enumerate(b[:-1]):
            r[shift + i] -= take * coeff
        _strip(r)
    return _primitive(r)


def _exact_quotient(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """a / b for a primitive b that divides a; integral by Gauss's lemma."""
    r = list(a)
    db = len(b) - 1
    q = [0] * (len(r) - db)
    for shift in range(len(q) - 1, -1, -1):
        factor = r[shift + db] // b[-1]
        q[shift] = factor
        for i, coeff in enumerate(b):
            r[shift + i] -= factor * coeff
    return q


def _square_free(c: IntCoeffs) -> IntCoeffs:
    """Primitive square-free part of c (lead non-zero) with the sign that
    rational division gives."""
    a, b = c, _derivative(c)
    while b:
        a, b = b, _remainder(a, b)
    if len(a) <= 1:
        return _primitive(c)
    return _primitive(_exact_quotient(c, _primitive(a)))


def _sturm_chain(c: IntCoeffs) -> list[IntCoeffs]:
    """Sturm chain of c (lead non-zero); the members after c' are primitive."""
    chain = [c, _derivative(c)]
    while chain[-1]:
        chain.append([-v for v in _remainder(chain[-2], chain[-1])])
    chain.pop()
    return chain


def square_free_part(c: Coeffs) -> Coeffs:
    """Primitive integer square-free part of c, as Fractions."""
    return [Fraction(v) for v in _square_free(_integer(c))]


def _powers(q: int, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * q)
    return out


def _scaled_value(c: IntCoeffs, p: int, q_powers: list[int]) -> int:
    """q^n c(p/q) for the q whose powers are given; n = deg c and q > 0, so
    the result has the sign of c(p/q)."""
    total = c[-1]
    for coeff, qk in zip(c[-2::-1], q_powers[1:]):
        total = total * p + coeff * qk
    return total


def deflate(c: Coeffs, root: Fraction) -> IntCoeffs:
    """The integer quotient of c by q x - p for a root p/q of c, a positive
    multiple of c / (x - p/q); the root is checked by the sign test."""
    c = _integer(c)
    p, q = root.numerator, root.denominator
    if _scaled_value(c, p, _powers(q, len(c) - 1)):
        raise DomainError(f"expected rational root {root} missing from the elimination polynomial")
    return _exact_quotient(c, [-p, q])


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _variations(values: list[int]) -> int:
    """Sign changes along *values*, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _evaluate(chain: list[IntCoeffs], x: Fraction) -> tuple[int, int]:
    """The sign of chain[0] and the chain's sign variations at x, from one
    evaluation of the chain."""
    p, powers = x.numerator, _powers(x.denominator, len(chain[0]) - 1)
    values = [_scaled_value(poly, p, powers) for poly in chain]
    return _sign(values[0]), _variations(values)


def real_root_count(poly: Coeffs) -> int:
    """Distinct real roots of *poly*: its Sturm chain's sign variations at
    -inf less those at +inf, read off the leading coefficients."""
    chain = _sturm_chain(_integer(poly))
    at_minus_inf = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _variations(at_minus_inf) - _variations([c[-1] for c in chain])


@dataclass(frozen=True)
class IsolatingInterval:
    """Exactly one real root of the square-free *poly* lies in [lo, hi].

    Either poly(lo) * poly(hi) < 0 or lo == hi is itself the (rational) root.
    """

    lo: Fraction
    hi: Fraction
    poly: tuple[Fraction, ...]  # square-free factor, dense ascending

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def sturm_isolate(
    poly: Coeffs,
    rng: tuple[Fraction | None, Fraction | None] | None = None,
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all real roots in the open range *rng*.

    The count is certified by Sturm sign variations; roots hit exactly by a
    bisection point come back as zero-width intervals.  rng bounds of None
    mean unbounded on that side.
    """
    coeffs = _integer(poly)
    if len(coeffs) == 1:
        return []
    sf = _square_free(coeffs)
    frozen = tuple(Fraction(v) for v in sf)
    chain = _sturm_chain(sf)
    # Cauchy bound on root magnitude
    bound = 1 + Fraction(max(abs(c) for c in sf[:-1]), abs(sf[-1]))
    lo_req, hi_req = rng if rng else (None, None)
    lo = -bound if lo_req is None else max(Fraction(lo_req), -bound)
    hi = bound if hi_req is None else min(Fraction(hi_req), bound)
    if lo >= hi:
        return []

    out: list[IsolatingInterval] = []

    def emit_exact_if_inside(x: Fraction):
        # requested range is open, so roots at its endpoints are excluded
        if (lo_req is None or x > lo_req) and (hi_req is None or x < hi_req):
            out.append(IsolatingInterval(x, x, frozen))

    def gap_around(x: Fraction, radius: Fraction) -> tuple[Fraction, int, int]:
        """Radius d <= radius with x the only root in [x-d, x+d], endpoints
        nonzero, and the chain's variations at x-d and at x+d."""
        d = radius
        while True:
            sign_lo, v_lo = _evaluate(chain, x - d)
            if sign_lo:
                sign_hi, v_hi = _evaluate(chain, x + d)
                if sign_hi and v_lo - v_hi == 1:
                    return d, v_lo, v_hi
            d /= 2

    # move endpoints off roots before bisection starts
    sign, v_lo = _evaluate(chain, lo)
    if not sign:
        emit_exact_if_inside(lo)
        d, _, v_lo = gap_around(lo, (hi - lo) / 4)
        lo = lo + d
    sign, v_hi = _evaluate(chain, hi)
    if not sign:
        emit_exact_if_inside(hi)
        d, v_hi, _ = gap_around(hi, (hi - lo) / 4)
        hi = hi - d
    # bisect with an explicit stack: close roots need one level per bit of
    # their separation, far deeper than the interpreter's recursion limit
    # allows.  Every pending (a, va, b, vb) has sf(a) != 0 and sf(b) != 0 and
    # carries the chain's variations va at a and vb at b, so each point is
    # evaluated once.
    pending = [(lo, v_lo, hi, v_hi)] if lo < hi else []
    while pending:
        a, va, b, vb = pending.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            out.append(IsolatingInterval(a, b, frozen))
            continue
        mid = (a + b) / 2
        sign, vm = _evaluate(chain, mid)
        if not sign:
            emit_exact_if_inside(mid)
            d, v_left, v_right = gap_around(mid, (b - a) / 4)
            pending += [(a, va, mid - d, v_left), (mid + d, v_right, b, vb)]
        else:
            pending += [(a, va, mid, vm), (mid, vm, b, vb)]
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def refine_root(interval: IsolatingInterval, precision: Fraction | float) -> IsolatingInterval:
    """Bisect with exact sign tests until the width is below *precision*."""
    precision = Fraction(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    lo, hi = interval.lo, interval.hi
    if interval.is_exact or hi - lo < precision:
        return interval
    coeffs = _integer(interval.poly)
    # [lo, hi] = [a, b] / den; each halving doubles den, so the midpoint is
    # (a + b) / den afterwards and no step takes a gcd
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    powers = _powers(den, len(coeffs) - 1)
    sign_lo = _sign(_scaled_value(coeffs, a, powers))
    while (b - a) * precision.denominator >= precision.numerator * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        powers = [qk << j for j, qk in enumerate(powers)]
        sign = _sign(_scaled_value(coeffs, mid, powers))
        if not sign:
            x = Fraction(mid, den)
            return IsolatingInterval(x, x, interval.poly)
        if sign == sign_lo:
            a = mid
        else:
            b = mid
    return IsolatingInterval(Fraction(a, den), Fraction(b, den), interval.poly)


def interval_eval(coeffs: Coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Range enclosure of a univariate polynomial over [lo, hi] by Horner
    with interval arithmetic; exact rational endpoints."""
    rlo = rhi = Fraction(0)
    for coeff in reversed(coeffs):
        products = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo, rhi = min(products) + coeff, max(products) + coeff
    return rlo, rhi
