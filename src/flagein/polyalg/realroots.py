"""Certified real-root isolation for univariate rational polynomials.

Sturm sequences give exact root counts on any interval; bisection with exact
sign tests refines isolating intervals to arbitrary width.  All arithmetic is
over Fraction, so every certificate is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError
from .poly import MultiPoly, content

Coeffs = list[Fraction]  # dense, ascending


def _strip(c: Coeffs) -> Coeffs:
    while c and not c[-1]:
        c.pop()
    return c


def _eval(c: Coeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def _derivative(c: Coeffs) -> Coeffs:
    return [i * coeff for i, coeff in enumerate(c)][1:]


def divide(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Exact quotient and remainder of a / b; b must have a non-zero lead."""
    r = _strip(list(a))
    db = len(b) - 1
    q = [Fraction(0)] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        shift = len(r) - 1 - db
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, coeff in enumerate(b):
            r[shift + i] -= factor * coeff
        r.pop()
        _strip(r)
    return q, r


def _primitive_signed(c: Coeffs) -> Coeffs:
    """Divide by the positive content; sign is preserved (Sturm needs it)."""
    factor = content(c)
    return [v / factor for v in c]


def _gcd_poly(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = list(a), list(b)
    while _strip(b):
        a, b = b, divide(a, b)[1]
    return _primitive_signed(a)


def square_free_part(c: Coeffs) -> Coeffs:
    d = _derivative(c)
    if not _strip(list(d)):
        return _primitive_signed(list(c))
    g = _gcd_poly(c, d)
    if len(g) <= 1:
        return _primitive_signed(list(c))
    return _primitive_signed(divide(c, g)[0])


def sturm_chain(c: Coeffs) -> list[Coeffs]:
    chain = [list(c), _derivative(c)]
    while _strip(chain[-1]):
        nxt = [-v for v in divide(chain[-2], chain[-1])[1]]
        chain.append(_primitive_signed(_strip(nxt)))
    chain.pop()
    return chain


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _variations(chain: list[Coeffs], x) -> int:
    """Sign variations at a point; x may be a Fraction or +-infinity ('inf')."""
    signs = []
    for poly in chain:
        if x == "+inf":
            s = _sign(poly[-1])
        elif x == "-inf":
            s = _sign(poly[-1]) * (1 if (len(poly) - 1) % 2 == 0 else -1)
        else:
            s = _sign(_eval(poly, x))
        if s:
            signs.append(s)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _as_coeffs(p: MultiPoly | Coeffs) -> Coeffs:
    if isinstance(p, MultiPoly):
        names = p.support_vars()
        if len(names) > 1:
            raise DomainError("polynomial is not univariate")
        return p.univariate_in(names[0] if names else p.vars[0])
    return [Fraction(v) for v in p]


def root_count(chain: list[Coeffs], lo, hi) -> int:
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_isolate(
    poly: MultiPoly | Coeffs,
    rng: tuple[Fraction | None, Fraction | None] | None = None,
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all real roots in the open range *rng*.

    The count is certified by Sturm sign variations; roots hit exactly by a
    bisection point come back as zero-width intervals.  rng bounds of None
    mean unbounded on that side.
    """
    coeffs = _strip(_as_coeffs(poly))
    if not coeffs:
        raise DomainError("zero polynomial")
    if len(coeffs) == 1:
        return []
    sf = square_free_part(coeffs)
    frozen = tuple(sf)
    chain = sturm_chain(sf)
    # Cauchy bound on root magnitude
    bound = 1 + max(abs(c) for c in sf[:-1]) / abs(sf[-1]) if len(sf) > 1 else Fraction(1)
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

    def gap_around(x: Fraction, radius: Fraction) -> Fraction:
        """Radius d <= radius with x the only root in [x-d, x+d], endpoints nonzero."""
        d = radius
        while (
            _eval(sf, x - d) == 0
            or _eval(sf, x + d) == 0
            or root_count(chain, x - d, x + d) != 1
        ):
            d /= 2
        return d

    # move endpoints off roots before bisection starts
    if _eval(sf, lo) == 0:
        emit_exact_if_inside(lo)
        lo = lo + gap_around(lo, (hi - lo) / 4)
    if _eval(sf, hi) == 0:
        emit_exact_if_inside(hi)
        hi = hi - gap_around(hi, (hi - lo) / 4)
    # bisect with an explicit stack: close roots need one level per bit of
    # their separation, far deeper than the interpreter's recursion limit
    # allows.  Every pending (a, b) has sf(a) != 0 and sf(b) != 0.
    pending = [(lo, hi)] if lo < hi else []
    while pending:
        a, b = pending.pop()
        count = root_count(chain, a, b)
        if count == 0:
            continue
        if count == 1:
            out.append(IsolatingInterval(a, b, frozen))
            continue
        mid = (a + b) / 2
        if _eval(sf, mid) == 0:
            emit_exact_if_inside(mid)
            d = gap_around(mid, (b - a) / 4)
            pending += [(a, mid - d), (mid + d, b)]
        else:
            pending += [(a, mid), (mid, b)]
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
    coeffs = list(interval.poly)
    sign_lo = _sign(_eval(coeffs, lo))
    while hi - lo >= precision:
        mid = (lo + hi) / 2
        value = _eval(coeffs, mid)
        if value == 0:
            return IsolatingInterval(mid, mid, interval.poly)
        if _sign(value) == sign_lo:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi, interval.poly)


def interval_eval(coeffs: Coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Range enclosure of a univariate polynomial over [lo, hi] by Horner
    with interval arithmetic; exact rational endpoints."""
    rlo = rhi = Fraction(0)
    for coeff in reversed(coeffs):
        products = (rlo * lo, rlo * hi, rhi * lo, rhi * hi)
        rlo, rhi = min(products) + coeff, max(products) + coeff
    return rlo, rhi
