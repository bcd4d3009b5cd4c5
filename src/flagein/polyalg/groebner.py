"""Groebner bases by Buchberger's algorithm, with elimination and saturation.

The pair loop uses the normal selection strategy (smallest leading-term lcm
under the active order, ties by age) and the Gebauer-Moeller update (JSC
1988; Becker-Weispfenning, "Groebner Bases", UPDATE).  A new generator drops
the queued pairs whose lcm its lead divides strictly (B_k), pairs with the
active generators only, one per lcm (F) and only at the minimal lcms (M),
skips coprime leads (the product criterion), and retires the active
generators whose lead its lead divides: they stay reducers.

Requesting a lex basis of a zero-dimensional ideal takes the standard fast
route: a grevlex basis first, then exact FGLM conversion, which reduces each
monomial it visits from the normal form of the monomial it came from
(Faugere-Gianni-Lazard-Mora, JSC 1993) and eliminates on those normal forms
as sparse rows, whatever the size of the staircase.  Both routes produce the
same object, the unique reduced basis, normalized to integer-primitive
generators with positive leading coefficients, so identical inputs give
bit-identical output.

Two rules stop work whose answer is already decided.  A reduction that
leaves a non-zero constant, in the input interreduction or in the pair loop,
shows the unit ideal, and the computation returns [1] at once.  A finished
pair loop drops every generator whose leading monomial another one's divides
(keeping the first of equal leads), which leaves a minimal basis, and
tail-reduces the rest in one pass: that is the reduced basis (Cox, Little and
O'Shea, "Ideals, Varieties, and Algorithms", section 2.7).

All arithmetic runs in one integer kernel (Monagan-Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): each monomial is packed into one int whose integer order is the term
order, coefficients are ints, and reduction is fraction-free.  A reduction
holds its coefficients in one list indexed through a monomial -> slot dict,
so rescaling the whole polynomial is one list pass, and divides out their
content whenever the scale's bit length has doubled (at least every 64
bits).  A pair loop or an FGLM conversion only ever appends to its reducers,
so it remembers, per monomial, how far the search for a dividing leading
term got and resumes there.  The public functions take and return
MultiPoly; they convert once on entry and once on exit.

A budget (pair count, coefficient bit size) turns runaway computations into a
recoverable 'budget_exceeded' status instead of a hang.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from ..errors import DomainError
from .poly import Exponent, MultiPoly, TermOrder


@dataclass(frozen=True)
class GroebnerBudget:
    """Resource limits for a single basis computation."""

    max_pairs: int = 100_000
    max_coeff_bits: int = 1_000_000


@dataclass
class GroebnerStats:
    pairs_processed: int = 0
    pairs_discarded: int = 0
    basis_size: int = 0
    max_coeff_bits: int = 0
    budget_limit: str | None = None  # "pairs" or "coeff_bits" once a budget trips


@dataclass
class GroebnerBasis:
    """Result of a basis computation; complete exactly when no budget tripped."""

    generators: list[MultiPoly]
    order: TermOrder
    stats: GroebnerStats = field(default_factory=GroebnerStats)

    @property
    def complete(self) -> bool:
        return self.stats.budget_limit is None

    @property
    def status(self) -> str:
        return "complete" if self.complete else "budget_exceeded"


class _BudgetExceeded(Exception):
    def __init__(self, limit: str):
        super().__init__(limit)
        self.limit = limit


# smallest field width; a field holds a total degree (grevlex) or an exponent
# (lex) up to 2**bits - 1.  Every divisor of a standard monomial is standard,
# so FGLM's monomials (standard ones times a variable) have degrees at most
# the quotient dimension; a larger quotient overflows and raises DomainError
_MIN_FIELD_BITS = 15


class _Monomials:
    """Packed monomials for one term order over a fixed variable list.

    A monomial is one int of fields *bits* wide, each with a zero guard bit
    above it.  The low n fields, the exponent block, hold e0..e(n-1).  Lex
    stores e0 most significant, which already sorts as the term order.
    Grevlex stores e0 lowest and puts a degree block of n more fields above:
    field n+k holds e0+...+ek, so the top field holds the degree, and the
    degree block alone sorts as grevlex.  Both layouts are additive
    (multiplying monomials adds ints), an overflow shows as a set guard bit,
    and divisibility of the exponent fields is one subtraction and a mask.

    The degree block is the exponent block times the sum of 2**(k*stride)
    over k = n..2n-1, masked to fields n..2n-1: field n+k of the product
    sums e0..ek.  No sum carries into the next field while the degree stays
    below 2**(bits+1), which holds for the lcm of two packed monomials and,
    once its degree is checked, for a packed exponent; a degree past
    field_max then shows as a set guard bit.
    """

    def __init__(self, order: TermOrder, bits: int):
        self.order = order
        self.n = n = len(order.variables)
        self.bits = bits
        self.stride = stride = bits + 1
        self.field_max = (1 << bits) - 1
        self.grevlex = order.kind == "grevlex"
        fields = 2 * n if self.grevlex else n
        self.div_guard = sum(1 << (k * stride + bits) for k in range(n))
        self.guard = sum(1 << (k * stride + bits) for k in range(fields))
        self.values = sum(self.field_max << (k * stride) for k in range(fields))
        self.exponents = sum(self.field_max << (k * stride) for k in range(n))
        # exponent block -> monomial: the block itself plus its degree block
        self.spread = 1 + sum(1 << (k * stride) for k in range(n, fields))
        self.mask = (1 << (fields * stride)) - 1

    def with_degrees(self, low: int) -> int:
        m = (low * self.spread) & self.mask
        if m & self.guard:
            raise self.overflow()
        return m

    def pack(self, exp: Exponent) -> int:
        if (sum(exp) if self.grevlex else max(exp, default=0)) > self.field_max:
            raise self.overflow()
        low = 0
        for e in reversed(exp) if self.grevlex else exp:
            low = (low << self.stride) | e
        return self.with_degrees(low)

    def unpack(self, m: int) -> Exponent:
        out = []
        for _ in range(self.n):
            out.append(m & self.field_max)
            m >>= self.stride
        return tuple(out) if self.grevlex else tuple(reversed(out))

    def divides(self, a: int, b: int) -> bool:
        g = self.div_guard
        return ((b | g) - a) & g == g

    def fieldwise_max(self, a: int, b: int) -> int:
        g = self.guard
        ge = ((a | g) - b) & g  # guard bit set where a's field >= b's
        mask = ge - (ge >> self.bits)
        return (a & mask) | (b & (self.values ^ mask))

    def lcm(self, a: int, b: int) -> int:
        # the degree fields of a lcm are not the maxima of the degree fields
        return self.with_degrees(self.fieldwise_max(a, b) & self.exponents)

    def mul(self, a: int, b: int) -> int:
        m = a + b
        if m & self.guard:
            raise self.overflow()
        return m

    def overflow(self) -> DomainError:
        return DomainError(f"exponent overflows the {self.bits}-bit monomial field")

    def variable(self, i: int) -> int:
        return self.pack(tuple(int(k == i) for k in range(self.n)))


class _Poly(NamedTuple):
    """A polynomial prepared as a reducer: leading monomial and coefficient,
    the tail in descending order, and the fieldwise maximum of the tail's
    monomials (one overflow test covers a whole multiple of the tail)."""

    lead: int
    lc: int
    tail: list[tuple[int, int]]
    top: int


def _reducer(terms: dict[int, int], ring: _Monomials) -> _Poly:
    ordered = sorted(terms.items(), reverse=True)
    lead, lc = ordered[0]
    top = 0
    for m, _ in ordered[1:]:
        top = ring.fieldwise_max(top, m)
    return _Poly(lead, lc, ordered[1:], top)


def _primitive(terms: dict[int, int]) -> dict[int, int]:
    """Divide by the content, signed so the leading coefficient is positive."""
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return {m: c // g for m, c in terms.items()}


def _terms(p: _Poly) -> dict[int, int]:
    work = dict(p.tail)
    work[p.lead] = p.lc
    return work


def _field_bits(polys: list[MultiPoly]) -> int:
    """Field width for a computation on *polys*: room for four times their
    largest total degree, and never below _MIN_FIELD_BITS."""
    degree = max((sum(e) for p in polys for e in p.terms), default=0)
    return max(_MIN_FIELD_BITS, (4 * degree).bit_length())


def _to_kernel(poly: MultiPoly, ring: _Monomials) -> tuple[dict[int, int], int]:
    """Integer terms and a positive denominator d with poly = terms / d."""
    if poly.vars != ring.order.variables:
        poly = poly.with_variables(ring.order.variables)
    den = lcm(*(c.denominator for c in poly.terms.values()))
    return {ring.pack(e): c.numerator * (den // c.denominator) for e, c in poly.terms.items()}, den


def _from_kernel(terms, ring: _Monomials, scale: int = 1) -> MultiPoly:
    return MultiPoly(
        ring.order.variables, {ring.unpack(m): Fraction(c, scale) for m, c in terms}
    )


def _poly_from(poly: MultiPoly, ring: _Monomials) -> _Poly:
    return _reducer(_primitive(_to_kernel(poly, ring)[0]), ring)


def _poly_to(p: _Poly, ring: _Monomials) -> MultiPoly:
    return _from_kernel([(p.lead, p.lc), *p.tail], ring)


def _repack(p: _Poly, source: _Monomials, target: _Monomials) -> _Poly:
    """The same polynomial under *target*'s order, primitive there."""
    return _reducer(_primitive({target.pack(source.unpack(m)): c for m, c in _terms(p).items()}), target)


def _combine(keep: int, x, take: int, y) -> dict[int, int]:
    """keep*x - take*y over (monomial, coefficient) pairs, zero entries dropped;
    keep and take are nonzero, and neither input repeats a monomial."""
    out = {m: keep * c for m, c in x}
    for m, c in y:
        s = out.get(m, 0) - take * c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _s_poly(f: _Poly, g: _Poly, ring: _Monomials) -> dict[int, int]:
    """lc(g) x^mf f - lc(f) x^mg g, whose leading terms cancel."""
    tau = ring.lcm(f.lead, g.lead)
    mf = tau - f.lead
    mg = tau - g.lead
    ring.mul(f.top, mf)  # raises if a shifted tail term overflows
    ring.mul(g.top, mg)
    return _combine(g.lc, ((t + mf, c) for t, c in f.tail), f.lc, ((t + mg, c) for t, c in g.tail))


class _Reducers:
    """Reducers that only grow by appending, with their divisor lookups
    remembered.

    A monomial's first reducer whose leading monomial divides it cannot
    change when reducers are appended, and the leads that do not divide it
    stay ruled out.  So *resume* maps each monomial looked up so far to the
    index its next lookup starts from: that of its first divisor, or the
    number of leads it had been checked against.  A pair loop or an FGLM
    conversion keeps one for its whole run; other callers make one per
    reduction.
    """

    def __init__(self, polys: list[_Poly]):
        self.polys = list(polys)
        self.leads = [p.lead for p in self.polys]  # scanned without unpacking each reducer
        self.resume: dict[int, int] = {}

    def append(self, p: _Poly) -> None:
        self.polys.append(p)
        self.leads.append(p.lead)


# least scale growth, in bits, between two content removals in _reduce
_CONTENT_STEP_BITS = 64


def _reduce(
    work: dict[int, int],
    scale: int,
    reducers: _Reducers,
    ring: _Monomials,
    max_bits: int | None = None,
) -> tuple[dict[int, int], int]:
    """Full normal form of work / scale against *reducers*, fraction-free.

    Each step picks the largest remaining monomial and the first reducer
    whose leading monomial divides it, then sets W <- (l/g) W - (a/g) x^s tail
    with g = gcd(a, l), so W / scale stays the exact rational remainder.
    Returns (remainder, scale) with the remainder equal to remainder / scale.

    The coefficients of W and of the remainder found so far share one list,
    indexed through a monomial -> slot dict, so a rescale by l/g is one pass
    over that list; a monomial whose coefficient cancels keeps its slot.  The
    common content of the list and the scale is divided out each time the
    scale's bit length has doubled since the last removal (by at least
    _CONTENT_STEP_BITS).

    With *max_bits* set, a reduction factor a / (scale l) whose reduced
    numerator or denominator is longer than that aborts the reduction via
    _BudgetExceeded; a single reduction can otherwise run far past any
    pair-level budget check.
    """
    div_guard = ring.div_guard
    overflow = ring.guard
    polys, leads, resume = reducers.polys, reducers.leads, reducers.resume
    count = len(leads)
    slot = {m: i for i, m in enumerate(work)}
    coeffs = list(work.values())
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: list[tuple[int, int]] = []  # (monomial, slot), largest first
    bits = scale.bit_length()
    content_at = bits + max(bits, _CONTENT_STEP_BITS)
    while heap:
        m = -heapq.heappop(heap)
        i = slot[m]
        a = coeffs[i]
        if not a:
            continue
        mg = m | div_guard
        k = resume.get(m, 0)
        while k < count and (mg - leads[k]) & div_guard != div_guard:
            k += 1
        resume[m] = k
        if k == count:
            remainder.append((m, i))
            continue
        coeffs[i] = 0
        lead, l, tail, top = polys[k]
        shift = m - lead
        if (top + shift) & overflow:
            raise ring.overflow()
        g = gcd(a, l)
        a //= g
        lg = l // g
        if max_bits is not None and (
            a.bit_length() > max_bits or (scale * lg).bit_length() > max_bits
        ):
            h = gcd(a, scale)  # a / (scale lg) in lowest terms
            if (a // h).bit_length() > max_bits or (scale * lg // h).bit_length() > max_bits:
                raise _BudgetExceeded("coeff_bits")
        if lg != 1:
            scale *= lg
            coeffs = [v * lg for v in coeffs]
        for t, c in tail:
            target = t + shift
            j = slot.get(target)
            if j is None:
                slot[target] = len(coeffs)
                coeffs.append(-a * c)
                heapq.heappush(heap, -target)
            else:
                coeffs[j] -= a * c
        if scale.bit_length() > content_at:
            h = gcd(scale, *coeffs)
            if h > 1:
                scale //= h
                coeffs = [v // h for v in coeffs]
            bits = scale.bit_length()
            content_at = bits + max(bits, _CONTENT_STEP_BITS)
    return {m: coeffs[i] for m, i in remainder}, scale


def reduce_poly(poly: MultiPoly, basis: list[MultiPoly], order: TermOrder) -> MultiPoly:
    """Full multivariate division remainder of *poly* by *basis* under *order*."""
    ring = _Monomials(order, _field_bits([poly, *basis]))
    reducers = _Reducers([_poly_from(g, ring) for g in basis if not g.is_zero()])
    work, den = _to_kernel(poly, ring)
    remainder, scale = _reduce(work, den, reducers, ring)
    return _from_kernel(remainder.items(), ring, scale)


def _interreduce(polys: list[_Poly], ring: _Monomials, max_bits: int) -> list[_Poly]:
    """Reduce each generator against the others until stable; drop zeros.
    *max_bits* bounds each reduction as in _reduce.  A reduction that leaves
    a constant returns [1]: the ideal is the unit ideal.

    Whether a term is reducible depends only on the leading terms, so a pass
    that changes none of them (it may drop generators or change tails)
    leaves every generator reduced, and no further pass is needed."""
    current = list(polys)
    leads_changed = True
    while leads_changed:
        leads_changed = False
        current.sort(key=lambda p: p.lead)
        result: list[_Poly] = []
        for i, p in enumerate(current):
            others = result + current[i + 1:]
            if others:
                remainder, _ = _reduce(_terms(p), 1, _Reducers(others), ring, max_bits)
                if not remainder:
                    continue
                r = _reducer(_primitive(remainder), ring)
                if not r.lead:
                    return [r]
                leads_changed |= r.lead != p.lead
                p = r
            result.append(p)
        current = result
    return current


def _buchberger_loop(
    polys: list[_Poly],
    ring: _Monomials,
    budget: GroebnerBudget,
    stats: GroebnerStats,
) -> list[_Poly]:
    """Core pair loop over primitive polynomials, which may be any generating
    set; returns the reduced basis or raises _BudgetExceeded.

    A pair whose remainder is a non-zero constant ends the loop at once with
    [1], the reduced basis of the unit ideal.  A finished loop keeps a
    minimal basis, dropping each generator whose leading monomial another
    one's divides (the first of equal leads stays), and tail-reduces it in
    one pass, which changes no lead."""
    basis = _Reducers(polys)
    leads = basis.leads

    age = 0
    queue: list = []
    alive: dict[tuple[int, int], int] = {}  # pair -> lcm of its leading monomials
    active: list[int] = []  # generators whose leading monomial no later one divides
    guard = ring.div_guard

    def update_pairs(r: int):
        """Gebauer-Moeller update for new generator index r."""
        nonlocal age
        new_lead = leads[r]
        taus = [ring.lcm(lead, new_lead) for lead in leads[:r]]
        # B_k: drop queued pairs strictly covered by the new generator
        for (i, j), tau_ij in list(alive.items()):
            if ((tau_ij | guard) - new_lead) & guard == guard and taus[i] != tau_ij and taus[j] != tau_ij:
                del alive[(i, j)]
                stats.pairs_discarded += 1
        # candidate pairs with the active generators, the first one per lcm (F)
        first: dict[int, int] = {}
        for i in active:
            first.setdefault(taus[i], i)
        # M: proper divisors sort first, so keep each lcm no kept lcm divides
        minimal_lcms: list[int] = []
        for tau in sorted(first):
            above = tau | guard
            for t in minimal_lcms:
                if (above - t) & guard == guard:
                    break
            else:
                minimal_lcms.append(tau)
                i = first[tau]
                # coprime leading terms reduce to zero; skip
                if tau == leads[i] + new_lead:
                    stats.pairs_discarded += 1
                    continue
                age += 1
                heapq.heappush(queue, (tau, age, i, r))
                alive[(i, r)] = tau
        # retire those whose lead the new lead divides; their queued pairs stay
        active[:] = [i for i in active if ((leads[i] | guard) - new_lead) & guard != guard]
        active.append(r)

    for j in range(len(leads)):
        update_pairs(j)

    while queue:
        if stats.pairs_processed >= budget.max_pairs:
            raise _BudgetExceeded("pairs")
        if stats.max_coeff_bits > budget.max_coeff_bits:
            raise _BudgetExceeded("coeff_bits")
        _, _, i, j = heapq.heappop(queue)
        if alive.pop((i, j), None) is None:
            continue
        stats.pairs_processed += 1
        s_poly = _s_poly(basis.polys[i], basis.polys[j], ring)
        remainder, _ = _reduce(s_poly, 1, basis, ring, budget.max_coeff_bits)
        if not remainder:
            continue
        terms = _primitive(remainder)
        new_poly = _reducer(terms, ring)
        if not new_poly.lead:
            return [new_poly]
        bits = max(c.bit_length() for c in terms.values())
        if bits > stats.max_coeff_bits:
            stats.max_coeff_bits = bits
        basis.append(new_poly)
        update_pairs(len(leads) - 1)

    minimal = [
        p
        for i, p in enumerate(basis.polys)
        if not any(
            ring.divides(lead, p.lead) and (lead != p.lead or j < i) for j, lead in enumerate(leads) if j != i
        )
    ]
    return _interreduce(minimal, ring, budget.max_coeff_bits)


def _is_zero_dimensional(basis: list[_Poly], ring: _Monomials) -> bool:
    """Every variable must have a pure power among the leading terms."""
    if not basis:
        return False
    covered = [False] * ring.n
    for p in basis:
        nonzero = [i for i, e in enumerate(ring.unpack(p.lead)) if e]
        if len(nonzero) == 1:
            covered[nonzero[0]] = True
        elif len(nonzero) == 0:
            return True  # ideal is the whole ring
    return all(covered)


def _fglm(
    basis: list[_Poly],
    ring: _Monomials,
    target: _Monomials,
    budget: GroebnerBudget,
    stats: GroebnerStats,
) -> list[_Poly]:
    """Convert a zero-dimensional reduced basis to *target*'s order by linear algebra.

    Monomials are visited in increasing *target* order.  Normal forms under a
    Groebner basis are unique, so NF(x_i m) = NF(x_i NF(m)): each queued
    monomial carries its parent's normal form and the variable step, and is
    reduced from that shifted normal form rather than from scratch.  A
    parent's normal form is held only by its queued children.

    A row is a normal form as _reduce returns it, a sparse dict keyed by
    *ring*-packed monomials, and its pivot is its largest monomial.  Rows are
    kept fraction-free: each row R carries an integer combination C of
    already visited monomials with NF(C) = R, and eliminating against a row
    scales by the reduced ratio of the two pivot entries.  A row is primitive,
    so a normal form's scale does not change it.

    The budget's bit limit bounds each normal form, as in _reduce, and each
    generator emitted; the generators' bits count in *stats*.
    """
    reducers = _Reducers(basis)
    # pivot -> (row, combination keyed by target-packed monomials)
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    new_leads: list[int] = []
    out: list[_Poly] = []

    def eliminated(row: dict[int, int], combo: dict[int, int]):
        # a pivot row holds only monomials below its pivot, so clearing the
        # row's pivots largest first never brings back one already cleared
        todo = [-m for m in row if m in pivots]
        heapq.heapify(todo)
        while todo:
            p = -heapq.heappop(todo)
            if p not in row:
                continue  # cancelled meanwhile, or queued twice
            pivot_row, pivot_combo = pivots[p]
            g = gcd(row[p], pivot_row[p])
            keep, take = pivot_row[p] // g, row[p] // g
            for m in pivot_row:
                if m != p and m in pivots and m not in row:
                    heapq.heappush(todo, -m)
            row = _combine(keep, row.items(), take, pivot_row.items())
            combo = _combine(keep, combo.items(), take, pivot_combo.items())
        h = gcd(*row.values(), *combo.values())
        return {m: c // h for m, c in row.items()}, {m: c // h for m, c in combo.items()}

    # (target key, parent's remainder and scale, step); keys are queued once,
    # so the heap never compares further
    heap: list = []
    queued = set()
    steps = [(ring.variable(i), target.variable(i)) for i in range(ring.n)]

    def push(key: int, parent: tuple[dict[int, int], int], step: int):
        if key not in queued:
            queued.add(key)
            heapq.heappush(heap, (key, parent, step))

    # the monomial 1 enters the same way: the normal form 1 times the empty step
    push(0, ({0: 1}, 1), 0)
    while heap:
        key, (parent, parent_scale), step = heapq.heappop(heap)
        if any(target.divides(l, key) for l in new_leads):
            continue
        shifted = {ring.mul(m, step): c for m, c in parent.items()}
        remainder, scale = _reduce(shifted, parent_scale, reducers, ring, budget.max_coeff_bits)
        row, combo = eliminated(remainder, {key: scale})
        if not row:
            # NF(combo) = 0: a new generator with leading monomial key
            generator = _primitive(combo)
            stats.max_coeff_bits = max(stats.max_coeff_bits, *(c.bit_length() for c in generator.values()))
            if stats.max_coeff_bits > budget.max_coeff_bits:
                raise _BudgetExceeded("coeff_bits")
            out.append(_reducer(generator, target))
            new_leads.append(key)
        else:
            pivots[max(row)] = (row, combo)
            normal_form = (remainder, scale)
            for ring_step, target_step in steps:
                push(target.mul(key, target_step), normal_form, ring_step)
    # each generator is its lead minus target-standard monomials, in lead
    # order: the reduced basis as it stands
    return out


def buchberger(
    generators: list[MultiPoly],
    order: TermOrder,
    budget: GroebnerBudget | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by *generators*.

    The first pass interreduces the input once and runs the pair loop on it,
    under grevlex when a lex basis of more than one variable is requested.
    If that grevlex basis shows the ideal is zero-dimensional, FGLM converts
    it, whatever its quotient dimension, and its output, reduced by
    construction, is the result.  Otherwise the pair loop runs under lex
    starting from the grevlex basis as it stands.  Either way the result is
    the unique reduced basis.

    The budget bounds the whole call: every pass counts against the same
    pairs and coefficient bits, and a pass that runs out returns
    'budget_exceeded' at once, with its stats and the limit that tripped.
    """
    if not generators:
        raise DomainError("empty generator list")
    budget = budget or GroebnerBudget()
    stats = GroebnerStats()
    bits = _field_bits(generators)
    ring = _Monomials(order, bits)
    first = ring
    if order.kind == "lex" and ring.n > 1:
        first = _Monomials(TermOrder("grevlex", order.variables), bits)
    try:
        seeds = [_poly_from(g, first) for g in generators if not g.is_zero()]
        final = _buchberger_loop(_interreduce(seeds, first, budget.max_coeff_bits), first, budget, stats)
        if first is not ring:
            if _is_zero_dimensional(final, first):
                final = _fglm(final, first, ring, budget, stats)
            else:
                final = _buchberger_loop([_repack(p, first, ring) for p in final], ring, budget, stats)
    except _BudgetExceeded as exc:
        stats.budget_limit = exc.limit
        return GroebnerBasis([], order, stats)
    stats.basis_size = len(final)
    return GroebnerBasis([_poly_to(p, ring) for p in final], order, stats)


def saturate(
    generators: list[MultiPoly],
    nonvanishing: list[MultiPoly],
    budget: GroebnerBudget | None = None,
) -> GroebnerBasis:
    """Basis of the ideal saturated by the product of *nonvanishing*.

    Adds t * product - 1 for an auxiliary variable t named ``_t``, which no
    polynomial text can spell (a parsed name starts with a letter), computes
    a lex basis with t eliminated first, and keeps the t-free generators.
    Because the remaining variables keep their given order, the result is
    itself a lex basis of the saturation ideal.  An empty list is the product
    1 and a non-zero constant c gives c t - 1: both leave the ideal as it is.
    A zero product is a ``DomainError``, since t * 0 - 1 would certify the
    unit ideal.
    """
    if not generators:
        raise DomainError("empty generator list")
    variables = generators[0].vars
    order = TermOrder("lex", variables)
    extended = ("_t",) + tuple(variables)
    product = MultiPoly.constant(1, extended)
    for c in nonvanishing:
        product = product * c.with_variables(extended)
    if product.is_zero():
        raise DomainError("saturation by zero")
    trick = MultiPoly.variable("_t", extended) * product - MultiPoly.constant(1, extended)
    lifted = [g.with_variables(extended) for g in generators] + [trick]
    result = buchberger(lifted, TermOrder("lex", extended), budget)
    # an overrun has no generators; the kernel's are primitive with a positive
    # lead, and on t-free generators lex over (t, variables) is lex over variables
    kept = [g.with_variables(variables) for g in result.generators if all(exp[0] == 0 for exp in g.terms)]
    return GroebnerBasis(kept, order, result.stats)
