"""Certified real-root isolation for univariate rational polynomials.

Roots are isolated by Vincent-Collins-Akritas bisection: Descartes' rule of
signs bounds the number of roots on an open interval by the sign variations
of a transformed coefficient list, and 0 or 1 variations is an exact count.
Bisection with exact sign tests then refines isolating intervals to
arbitrary width.  Interval endpoints are Fractions, but every sign test runs
on integers: a polynomial is scaled once per call to integer coefficients by
the positive lcm of its denominators, and for q > 0 the integer q^n f(p/q)
has the sign of f(p/q).  The square-free part is built with primitive
pseudo-remainders scaled by |lc|^(delta+1), which preserves every sign, so
the intervals and certificates are exactly those of rational arithmetic.
A known rational root p/q is split off by exact integer division by q x - p.
``coprime`` decides whether two polynomials share a complex root by the
same pseudo-remainder sequence: they do not exactly when it ends in a
non-zero constant.
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
    """Divide by the positive content; every sign is preserved."""
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


def _gcd(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """A multiple of gcd(a, b), non-zero unless a = b = 0, by Euclid's
    algorithm on primitive integer pseudo-remainders: each is a non-zero
    multiple of the true remainder, so the last non-zero one is a multiple
    of the gcd."""
    while b:
        a, b = b, _remainder(a, b)
    return a


def coprime(a: Coeffs, b: Coeffs) -> bool:
    """Whether gcd(a, b) is a non-zero constant, that is, a and b have no
    common complex root.  The zero polynomial is divisible by everything, so
    it is coprime only to a non-zero constant."""
    a, b = (_integer(c) if any(c) else [] for c in (a, b))
    return len(_gcd(a, b)) == 1


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
    g = _gcd(c, _derivative(c))
    if len(g) <= 1:
        return _primitive(c)
    return _primitive(_exact_quotient(c, _primitive(g)))


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


def _variations(coeffs: IntCoeffs) -> int:
    """Sign changes along the coefficients, zeros skipped."""
    signs = [v > 0 for v in coeffs if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@dataclass(frozen=True)
class IsolatingInterval:
    """Exactly one real root of the square-free *poly* lies in [lo, hi].

    Either poly(lo) * poly(hi) < 0, certified by Descartes' rule, or lo == hi
    is itself the (rational) root.
    """

    lo: Fraction
    hi: Fraction
    poly: tuple[Fraction, ...]  # square-free factor, dense ascending

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


def _taylor_shift(c: IntCoeffs) -> IntCoeffs:
    """Coefficients of c(x + 1)."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _positive_roots(c: IntCoeffs) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi) of the positive roots of the square-free
    c, and (m, m) for a root m hit exactly by a bisection point.

    Every positive root lies in (0, 2^k) by the Cauchy bound.  Each pending
    subinterval [lo, lo + width] carries the integer q with q(t) a positive
    multiple of c(lo + width t), so its roots in the open subinterval are
    those of q in (0, 1), and Descartes' rule bounds their number by the sign
    variations of (t + 1)^n q(1 / (t + 1)).  Bisection keeps an explicit
    stack: close roots need one level per bit of their separation, far
    deeper than the interpreter's recursion limit allows.
    """
    n = len(c) - 1
    k = (-(-max(abs(v) for v in c[:-1]) // abs(c[-1]))).bit_length()  # 2^k > ceil(max/lead)
    out: list[tuple[Fraction, Fraction]] = []
    pending = [(Fraction(0), Fraction(2**k), [v << (k * i) for i, v in enumerate(c)])]
    while pending:
        lo, width, q = pending.pop()
        count = _variations(_taylor_shift(q[::-1]))
        if not count:
            continue
        # q(0) and q(1) are the values at the ends; a root there breaks the
        # sign certificate, so such an interval is bisected further
        if count == 1 and q[0] and sum(q):
            out.append((lo, lo + width))
            continue
        width /= 2
        left = [v << (n - i) for i, v in enumerate(q)]  # 2^n q(t / 2)
        right = _taylor_shift(left)
        # a root on the midpoint is the left end of the right child only
        if not right[0]:
            out.append((lo + width, lo + width))
        pending += [(lo, width, left), (lo + width, width, right)]
    return out


def sturm_isolate(poly: Coeffs) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all real roots of *poly*, sorted.

    The count is certified by Descartes' rule of signs.  A root at 0 comes
    back as [0, 0] and no other interval contains 0, so the positive roots
    are the intervals with hi > 0.
    """
    coeffs = _integer(poly)
    if len(coeffs) == 1:
        return []
    sf = _square_free(coeffs)
    frozen = tuple(Fraction(v) for v in sf)
    reflected = [-v if i % 2 else v for i, v in enumerate(sf)]  # sf(-x)
    bounds = _positive_roots(sf) + [(-hi, -lo) for lo, hi in _positive_roots(reflected)]
    if not sf[0]:
        bounds.append((Fraction(0), Fraction(0)))
    return [IsolatingInterval(lo, hi, frozen) for lo, hi in sorted(bounds)]


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
