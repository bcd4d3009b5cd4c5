"""Einstein polynomial systems for K/T: exact case analysis and numeric oracle.

The Einstein condition r_1 = ... = r_s becomes a polynomial system once the
pairwise differences are cleared of their monomial denominators.  The G2
case analysis is data: each ``Branch`` row fixes a slice of the system and
the factors it assumes non-zero, and one engine (``solve_branches``)
saturates each slice by those factors, certifies the ones a row marks as
units instead of saturating by them, isolates the real roots of its
univariate generator (certified by Descartes' rule), and back-substitutes.  The
symmetric-ansatz table (x1 = x5 = 1, x4 = x3) closes exactly; the general
branch is a stretch that ends in 'budget_exceeded' at desk-scale budgets.
A multi-start damped Newton oracle solves the same cleared systems in
floating point as an independent check.  Solutions are classified up to isometry by scale
normalization and the Weyl-induced coordinate permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .curvature import (
    EinsteinSolution,
    InvariantMetric,
    _ricci_values,
    apply_permutation,
    einstein_residual,
    kaehler_einstein_metric,
)
from .errors import ConfigurationError, DomainError
from .isotropy import TripleTensor, triple_tensor
from .polyalg.groebner import GroebnerBudget, reduce_poly, saturate
from .polyalg.poly import Exponent, LaurentPoly, MultiPoly, TermOrder, parse_polynomial
from .polyalg.realroots import (
    coprime,
    deflate,
    interval_eval,
    refine_root,
    sturm_isolate,
)
from .rootsys import RootSystemSpec, positive_roots, weyl_orbit_permutations


@dataclass(frozen=True)
class EinsteinSystem:
    """Cleared polynomial system r_i = r_j over the free metric variables.

    Each polynomial is one non-zero difference r_i - r_j times the monomial
    that clears its denominators, scaled to coprime integer coefficients
    with a positive grevlex lead."""

    variables: tuple[str, ...]
    polynomials: tuple[MultiPoly, ...]
    assignments: dict[str, Fraction]
    identifications: dict[str, str]
    all_variables: tuple[str, ...]

    def metric_values(self, point: dict[str, Fraction | float]) -> tuple:
        """Rebuild the full per-root vector from free-variable values."""
        resolved = (self.identifications.get(v, v) for v in self.all_variables)
        return tuple(self.assignments[t] if t in self.assignments else point[t] for t in resolved)


@dataclass
class CaseRecord:
    """One branch of the case analysis, for the run log: what the branch
    found, not what it saturated by, which its ``Branch`` row says."""

    name: str
    elimination_degree: int | None = None
    real_roots: int | None = None
    positive_roots: int | None = None
    status: str = "complete"
    notes: str = ""


@dataclass
class SolutionSet:
    """Solutions and the case log behind them, which alone decides the status."""

    group: str
    normalization: str
    solutions: list[EinsteinSolution] = field(default_factory=list)
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def status(self) -> str:
        """The first case status that is not 'complete', else 'complete'."""
        return next((c.status for c in self.cases if c.status != "complete"), "complete")


def _metric_variables(count: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(count))


def build_system(
    spec: RootSystemSpec,
    normalization: dict[str, Fraction | int],
    equalities: dict[str, str] | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> EinsteinSystem:
    """Clear denominators of r_i - r_j for the given pairs (consecutive by
    default) after pinning variables per *normalization* and identifying
    variables per *equalities*, whose targets must not be identified too.

    A difference that vanishes identically is dropped.  When no variable is
    left free, every difference must vanish: the result is the empty system,
    and a non-zero difference is a ``DomainError``."""
    s = len(positive_roots(spec))
    names = _metric_variables(s)
    assignments: dict[str, Fraction] = {}
    for key, value in normalization.items():
        if key not in names:
            raise DomainError(f"unknown metric variable {key!r}")
        value = Fraction(value)
        if value <= 0:
            raise DomainError("metric normalization must be positive")
        assignments[key] = value
    identifications: dict[str, str] = {}
    for key, target in (equalities or {}).items():
        if key not in names or target not in names:
            raise DomainError(f"unknown metric variable in equality {key}={target}")
        if key in assignments:
            raise DomainError(f"{key} is both assigned and identified")
        identifications[key] = target
    if any(target in identifications for target in identifications.values()):
        raise DomainError("an identification target must not itself be identified")
    if not assignments:
        raise DomainError("normalization must assign at least one variable (scale gauge)")

    free = tuple(v for v in names if v not in assignments and v not in identifications)
    atoms = [
        LaurentPoly.constant(assignments[t], free) if t in assignments else LaurentPoly.variable(t, free)
        for t in (identifications.get(v, v) for v in names)
    ]
    r = _ricci_values(atoms, triple_tensor(spec))
    if pairs is None:
        pairs = [(i, i + 1) for i in range(s - 1)]
    polys: list[MultiPoly] = []
    order = TermOrder("grevlex", free)
    for i, j in pairs:
        diff = r[i] - r[j]
        if diff.is_zero():
            continue
        if not free:
            raise DomainError("normalization makes the system inconsistent")
        cleared, _ = diff.cleared()
        content = cleared.content()
        _, lead = order.leading(cleared)
        if lead < 0:
            content = -content
        polys.append(MultiPoly(free, {e: c / content for e, c in cleared.terms.items()}))
    return EinsteinSystem(
        variables=free,
        polynomials=tuple(polys),
        assignments=assignments,
        identifications=identifications,
        all_variables=names,
    )


def _linear_solve_on_interval(
    poly: MultiPoly,
    var: str,
    enclosure: tuple[Fraction, Fraction],
    eliminated: str,
) -> tuple[Fraction, Fraction]:
    """Solve A(t) * var + B(t) = 0 over an interval enclosure of t, the
    *eliminated* variable; a zero-width enclosure gives the exact value."""
    if poly.degree_in(var) != 1:
        raise DomainError(f"generator is not linear in {var}")
    a = poly.derivative(var)
    a_coeffs = a.univariate_in(eliminated)
    b_coeffs = (poly - MultiPoly.variable(var, poly.vars) * a).univariate_in(eliminated)
    lo, hi = enclosure
    a_lo, a_hi = interval_eval(a_coeffs, lo, hi)
    b_lo, b_hi = interval_eval(b_coeffs, lo, hi)
    if a_lo <= 0 <= a_hi:
        raise DomainError("coefficient interval straddles zero; refine the root first")
    # var = -B/A; endpoints of the quotient interval
    candidates = [-b / a for b in (b_lo, b_hi) for a in (a_lo, a_hi)]
    return min(candidates), max(candidates)


# relative tolerance under which two canonical vectors are one isometry class
_CLASS_TOL = 1e-6


def _close(p, q) -> bool:
    """The class predicate on one entry: equality when both are exact,
    agreement to _CLASS_TOL (relative to max(1, |q|)) otherwise."""
    if isinstance(p, Fraction) and isinstance(q, Fraction):
        return p == q
    return abs(p - q) <= _CLASS_TOL * max(1.0, abs(q))


def canonical_vector(permutations: tuple[tuple[int, ...], ...], values: tuple) -> tuple:
    """Scale so the largest entry is 1, then take the lexicographically smallest
    vector over *permutations*, the ``weyl_orbit_permutations`` of the group;
    a caller with many vectors derives them once.

    Ties are decided by ``_close``: coordinate by coordinate, only the
    candidates close to that coordinate's minimum stay, so rounding noise on a
    repeated entry cannot pick another orbit element.  For exact input this is
    the plain lexicographic minimum."""
    top = max(values)
    scaled = tuple(v / top for v in values)
    candidates = [apply_permutation(sigma, scaled) for sigma in permutations]
    for i in range(len(scaled)):
        if len(candidates) == 1:
            break
        low = min(c[i] for c in candidates)
        candidates = [c for c in candidates if _close(c[i], low)]
    return min(candidates)


def _class_id(canonical: tuple) -> str:
    return ",".join(format(float(v), ".9g") for v in canonical)


def _group(canons: list[tuple]) -> list[list[int]]:
    """Indices of *canons* grouped into classes in first-seen order; a vector
    joins the first class whose first member it is ``_close`` to entry by entry."""
    groups: list[list[int]] = []
    for i, canon in enumerate(canons):
        for group in groups:
            if all(map(_close, canon, canons[group[0]])):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def classify(solutions: list[EinsteinSolution], spec: RootSystemSpec) -> list[EinsteinSolution]:
    """Merge solutions into isometry classes (scale + Weyl orbit) and return
    one representative per class, sorted by canonical vector: an exact member
    if the class has one, under the class id of the class's first member."""
    permutations = weyl_orbit_permutations(spec)
    canons = [canonical_vector(permutations, sol.metric.x) for sol in solutions]
    reps = []
    for group in sorted(_group(canons), key=lambda g: canons[g[0]]):
        rep = next((solutions[i] for i in group if solutions[i].metric.is_exact), solutions[group[0]])
        reps.append(replace(rep, isometry_class=_class_id(canons[group[0]])))
    return reps


@dataclass(frozen=True)
class _RootData:
    """What a solution record needs from the root system; a call that makes
    records derives it once."""

    triples: TripleTensor
    permutations: tuple[tuple[int, ...], ...]
    kaehler: InvariantMetric
    kaehler_canon: tuple


def _root_data(spec: RootSystemSpec) -> _RootData:
    permutations = weyl_orbit_permutations(spec)
    kaehler = kaehler_einstein_metric(spec)
    return _RootData(triple_tensor(spec), permutations, kaehler, canonical_vector(permutations, kaehler.x))


def _solution_from_metric(data: _RootData, metric: InvariantMetric, provenance: str) -> EinsteinSolution:
    """A record whose class id and Kaehler flag both come from its canonical
    vector: it is Kaehler when it is in the Kaehler-Einstein class."""
    k, residual = einstein_residual(metric, data.triples)
    canon = canonical_vector(data.permutations, metric.x)
    return EinsteinSolution(
        metric=metric,
        k=k,
        kaehler=all(map(_close, canon, data.kaehler_canon)),
        isometry_class=_class_id(canon),
        provenance=provenance,
        residual=residual,
    )


def kaehler_einstein_solution(spec: RootSystemSpec) -> EinsteinSolution:
    """The closed-form Kaehler-Einstein metric as an exact solution record."""
    data = _root_data(spec)
    return _solution_from_metric(data, data.kaehler, "algebraic")


@dataclass(frozen=True)
class Branch:
    """One case of an exact case analysis, as data.

    The slice is the Einstein system that *normalization*, *equalities* and
    *pairs* give to ``build_system``.  Every coordinate, every one of the
    *factors* and every one of the *units* (polynomial text) is assumed
    non-zero.  The slice is saturated by all of them but the units, in one
    ``saturate`` call, under lex over the slice's free variables in index
    order with *eliminate* moved last.  Each unit u is then certified
    instead: the saturation J plus <u> is the unit ideal, so saturating J by
    u changes nothing (sat(I, f u) = sat(sat(I, f), u)) and J is the
    saturation by the whole product.  A unit that fails the check is a
    ``DomainError``.

    With *eliminate* set, J is zero-dimensional with a univariate generator
    h in that variable, and every root of h lifts to a point of V(J).  The
    check reduces u by J to its normal form r, which must be univariate in
    the same variable, and asks gcd(h, r) = 1: then a h + b r = 1 and b u is
    1 modulo J.  The known *rational_roots* of h are then split off (each
    solved exactly), its other positive real roots are isolated and
    refined, and the remaining coordinates are back-substituted through
    generators linear in them.  Without *eliminate* the saturation must be
    the unit ideal, which certifies every unit at once: no solution on the
    slice has every coordinate and factor non-zero.  Saturating by a part of
    the product proves more, since I : f^oo lies in I : (f g)^oo.

    ``solve_branches`` runs every row under the one ``CASE_BUDGET``.
    """

    name: str
    normalization: dict[str, Fraction | int]
    equalities: dict[str, str]
    pairs: tuple[tuple[int, int], ...] | None
    factors: tuple[str, ...] = ()
    eliminate: str | None = None
    rational_roots: tuple[Fraction, ...] = ()
    units: tuple[str, ...] = ()


# width below which the exact branches refine each isolated root
_REFINE_PRECISION = Fraction(1, 10**40)

# the Groebner limits of every case-analysis row: the ansatz rows finish
# within 90 pairs and 800 coefficient bits; the general row overruns them
CASE_BUDGET = GroebnerBudget(max_pairs=250, max_coeff_bits=2500)

_ANSATZ_PAIRS = ((0, 1), (1, 2), (2, 5))
G2_SYMMETRIC_ANSATZ = (
    Branch("x6 = 1", {"x1": 1, "x5": 1, "x6": 1}, {"x4": "x3"}, _ANSATZ_PAIRS, eliminate="x2"),
    # saturating by x3 (x6 - 1) alone gives the same basis as the whole
    # product, in 89 pairs and 187 coefficient bits instead of 107 and 775
    Branch(
        "x6 != 1",
        {"x1": 1, "x5": 1},
        {"x4": "x3"},
        _ANSATZ_PAIRS,
        ("x6 - 1",),
        "x6",
        units=("x2", "x6"),
    ),
    # x4 x6 (x3 - x4) already gives [1], in 50 pairs instead of 65
    Branch("x4 = x3 consistency", {"x1": 1, "x5": 1}, {}, None, ("x3 - x4",), units=("x2", "x3")),
)
G2_GENERAL_CASE = (
    Branch(
        "(x1 - x5)(x1 - x6)(x5 - x6) != 0",
        {"x1": 1},
        {},
        # the published cleared system pairs r1 with r6 rather than r5 with r6
        ((0, 1), (1, 2), (2, 3), (3, 4), (0, 5)),
        ("1 - x5", "1 - x6", "x5 - x6"),
        "x6",
        # the Kaehler-Einstein orbit
        tuple(Fraction(r) for r in ("3", "2", "3/2", "1/2", "2/3", "1/3")),
    ),
)


def solve_branches(
    spec: RootSystemSpec,
    normalization: str,
    branches: tuple[Branch, ...],
    budget: GroebnerBudget = CASE_BUDGET,
) -> SolutionSet:
    """Run each branch of a G2 case analysis under *budget* and collect its
    case log.

    A branch that runs out of budget is logged with the limit it hit and
    makes the status 'budget_exceeded'; the other branches still run.
    """
    if spec.type_label != "G2":
        raise ConfigurationError("the case analysis tables are specific to G2")
    result = SolutionSet(group=spec.type_label, normalization=normalization)
    data = _root_data(spec)
    for branch in branches:
        record, solutions = _solve_branch(spec, data, branch, budget)
        result.cases.append(record)
        result.solutions.extend(solutions)
    return result


def _solve_branch(
    spec: RootSystemSpec,
    data: _RootData,
    branch: Branch,
    budget: GroebnerBudget,
) -> tuple[CaseRecord, list[EinsteinSolution]]:
    system = build_system(spec, branch.normalization, branch.equalities, branch.pairs)
    var = branch.eliminate
    order = tuple(v for v in system.variables if v != var) + ((var,) if var else ())
    units = [parse_polynomial(u, order) for u in branch.units]
    constraints = [p for p in (parse_polynomial(t, order) for t in (*order, *branch.factors)) if p not in units]
    basis = saturate([p.with_variables(order) for p in system.polynomials], constraints, budget)
    record = CaseRecord(name=branch.name, status=basis.status)
    if not basis.complete:
        stats = basis.stats
        record.notes = (
            f"exact elimination exceeded its {stats.budget_limit} budget after "
            f"{stats.pairs_processed} pairs ({stats.pairs_discarded} discarded, "
            f"{stats.max_coeff_bits} coefficient bits); the numeric oracle covers this region"
        )
        return record, []
    if var is None:
        # J = [1] makes J + <u> = [1] for every unit u: nothing is left to check
        factors = ", ".join(branch.factors)
        if basis.generators != [MultiPoly.constant(1, order)]:
            raise DomainError(f"{branch.name}: saturating the slice by {factors} does not give the unit ideal")
        record.notes = f"saturating the slice by {factors} gives the unit ideal"
        return record, []

    univariate = next((g for g in basis.generators if g.support_vars() == (var,)), None)
    if univariate is None:
        raise DomainError(f"expected a univariate generator in {var}")
    eliminant = univariate.univariate_in(var)
    for text, unit in zip(branch.units, units):
        remainder = reduce_poly(unit, basis.generators, basis.order)
        if remainder.support_vars() not in ((), (var,)):
            raise DomainError(f"{branch.name}: the normal form of {text} is not univariate in {var}")
        if not coprime(eliminant, remainder.univariate_in(var)):
            raise DomainError(f"{branch.name}: {text} is not a unit modulo the saturated slice")
    record.elimination_degree = univariate.degree_in(var)
    remaining = eliminant
    for root in branch.rational_roots:
        remaining = deflate(remaining, root)
    roots = sturm_isolate(remaining)
    record.real_roots = len(roots)
    positive = [iv for iv in roots if iv.hi > 0]
    record.positive_roots = len(positive)

    # an exact root is the zero-width enclosure of itself
    enclosures = [(iv.lo, iv.hi) for iv in (refine_root(iv, _REFINE_PRECISION) for iv in positive)]
    enclosures += [(root, root) for root in branch.rational_roots]
    solutions: list[EinsteinSolution] = []
    rejected = 0
    for lo, hi in enclosures:
        # var's root is positive: no kept interval has hi <= 0 or contains
        # 0; only the back-substituted coordinates can leave the orthant
        bounds = {}
        for v in order:
            if v != var:
                gen = next(g for g in basis.generators if v in g.support_vars())
                bounds[v] = _linear_solve_on_interval(gen, v, (lo, hi), var)
        if any(v_hi <= 0 for _, v_hi in bounds.values()):
            rejected += 1
            continue
        unsure = [v for v, (v_lo, _) in bounds.items() if v_lo <= 0]
        if unsure:
            raise DomainError(f"{branch.name}: the enclosure of {unsure[0]} contains 0; refine the root further")
        bounds[var] = (lo, hi)
        values = system.metric_values({v: a if a == b else float((a + b) / 2) for v, (a, b) in bounds.items()})
        metric = InvariantMetric.exact(values) if lo == hi else InvariantMetric.floating(values)
        solutions.append(_solution_from_metric(data, metric, "algebraic"))

    notes = []
    if branch.rational_roots:
        notes.append(
            f"{len(branch.rational_roots)} rational roots split off; residual factor degree {len(remaining) - 1}"
        )
    if not (record.real_roots or branch.rational_roots):
        notes.append("no real roots; branch contributes no metrics")
    if rejected:
        notes.append(f"{rejected} positive-{var} roots rejected for a nonpositive coordinate")
    record.notes = "; ".join(notes)
    return record, solutions


def solve_symmetric_ansatz(
    spec: RootSystemSpec,
    budget: GroebnerBudget = CASE_BUDGET,
) -> SolutionSet:
    """The x1 = x5 = 1, x4 = x3 branch of the G2 case analysis.

    Case x6 = 1 closes with a certified root-free quadratic; case x6 != 1
    saturates by x3 (x6 - 1), eliminates to a degree-14 polynomial h in x6,
    certifies x2 and x6 as units by the gcd of h with their normal forms,
    isolates the two positive roots of h, and back-substitutes through the
    triangular basis.  The x4 = x3 identification is then certified on the
    whole x1 = x5 = 1 slice, x6 = 1 included: the slice system saturated by
    x4, x6 and x3 - x4 is the unit ideal, so no solution there with x4, x6
    and x3 - x4 non-zero exists, let alone one with every coordinate
    non-zero.
    """
    return solve_branches(spec, "x1 = x5 = 1, x4 = x3", G2_SYMMETRIC_ANSATZ, budget)


def solve_general_case(
    spec: RootSystemSpec,
    budget: GroebnerBudget = CASE_BUDGET,
) -> SolutionSet:
    """The x1 = 1 branch with x1, x5, x6 pairwise distinct.

    Exact elimination here is far beyond the symmetric case; when the budget
    runs out the result carries status 'budget_exceeded' and classification
    falls back to the numeric oracle for this region.
    """
    return solve_branches(spec, "x1 = 1", G2_GENERAL_CASE, budget)


# Newton outcome of one start; all but the first are rejection reasons
_OUTCOMES = ("convergent", "non-finite", "singular Jacobian", "iteration cap", "non-positive coordinate")
_CONVERGED, _NON_FINITE, _SINGULAR, _ITERATION_CAP, _NON_POSITIVE = range(len(_OUTCOMES))


def check_oracle_run(starts: int, seed: int, tol: float) -> None:
    """Reject an oracle run that could not give a meaningful result: ``tol``
    outside (0, 1), fewer than one start or a negative seed."""
    if not (0 < tol < 1):
        raise ConfigurationError("precision must lie in (0, 1)")
    if starts < 1:
        raise ConfigurationError("starts must be >= 1")
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")


def newton_oracle(
    spec: RootSystemSpec,
    starts: int,
    seed: int,
    tol: float = 1e-10,
) -> SolutionSet:
    """Damped Newton on the group's cleared system in the x1 = 1 chart, square
    as each r_i - r_{i+1} keeps its 1/(2 x_{i+1}) term, from log-uniform
    random starts in [1e-2, 1e2]^dim drawn from ``random.Random(seed)``; a row
    is rejected as soon as a coordinate falls to ``tol``, and converged points
    are deduplicated up to scale and Weyl permutation.  Deterministic for a
    fixed seed.

    The case note counts the starts rejected for each reason and the points
    that reached each class (its basin hits), in class order."""
    check_oracle_run(starts, seed, tol)
    import numpy as np

    system = build_system(spec, {"x1": 1})
    data = _root_data(spec)
    result = SolutionSet(group=spec.type_label, normalization="x1 = 1")
    dim = len(system.variables)
    if dim == 0:
        metric = InvariantMetric.exact(system.metric_values({}))
        _, residual = einstein_residual(metric, data.triples)
        if float(residual) < tol:
            result.solutions.append(_solution_from_metric(data, metric, "numeric"))
        return result

    polys = list(system.polynomials)
    jacobian = [[p.derivative(v) for v in system.variables] for p in polys]
    monomials: dict[Exponent, int] = {}

    def rows(p: MultiPoly):
        out = []
        for e, c in p.terms.items():
            if e not in monomials:
                monomials[e] = len(monomials)
            out.append((monomials[e], float(c)))
        return out

    def term_table(row_lists):
        """Terms of several polynomials grouped by position.  Polynomials are
        taken longest first, so position t covers a prefix of them."""
        order = sorted(range(len(row_lists)), key=lambda a: -len(row_lists[a]))
        steps = []
        for t in range(max(len(r) for r in row_lists)):
            members = [row_lists[a][t] for a in order if len(row_lists[a]) > t]
            idx = np.array([m for m, _ in members])
            coeff = np.array([c for _, c in members])[:, None]
            steps.append((len(members), idx, coeff))
        return np.argsort(order), steps

    poly_terms = term_table([rows(p) for p in polys])
    residual_exponents = np.array(list(monomials), dtype=np.int64)  # F's monomials only
    jac_terms = term_table([rows(d) for row in jacobian for d in row])
    exponents = np.array(list(monomials), dtype=np.int64)  # (M, dim): F's, then J's

    def monomial_matrix(X: "np.ndarray", exps: "np.ndarray") -> "np.ndarray":
        """(monomial, point) values; one contiguous row per monomial."""
        N = X.shape[0]
        mono = np.ones((len(exps), N))
        for v in range(dim):
            top = exps[:, v].max()
            powers = np.empty((top + 1, N))
            powers[0] = 1.0
            for e in range(1, top + 1):
                powers[e] = powers[e - 1] * X[:, v]
            mono *= powers[exps[:, v]]
        return mono

    def combine(mono: "np.ndarray", table) -> "np.ndarray":
        """(polynomial, point) values; each polynomial sums its terms in
        its own order, starting from zero."""
        inverse, steps = table
        acc = np.zeros((len(inverse), mono.shape[1]))
        for k, idx, coeff in steps:
            acc[:k] += coeff * mono[idx]
        return acc[inverse]

    def residual_norm(X: "np.ndarray") -> "np.ndarray":
        """max |F_i| per row, from F's own monomials."""
        return np.abs(combine(monomial_matrix(X, residual_exponents), poly_terms)).max(axis=0)

    max_iter = 60
    newton_tol = 1e-12
    halvings = 25  # line-search step lengths 2^0 .. 2^-24

    def iterate(X: "np.ndarray") -> "np.ndarray":
        """Damped Newton on the rows of X in place; each row ends with one
        outcome code.  Rows are independent, so any split of X into blocks
        gives the same iterates."""
        # rows still iterating carry _ITERATION_CAP, which is final after
        # max_iter; a row converges only with every coordinate above tol
        outcome = np.full(X.shape[0], _ITERATION_CAP, dtype=np.int8)
        for _ in range(max_iter):
            idx = np.flatnonzero(outcome == _ITERATION_CAP)
            # a row at the positivity cutoff is rejected before its next step
            boundary = (X[idx] <= tol).any(axis=1)
            outcome[idx[boundary]] = _NON_POSITIVE
            idx = idx[~boundary]
            if idx.size == 0:
                break
            mono = monomial_matrix(X[idx], exponents)
            F = combine(mono, poly_terms).T
            norm = np.abs(F).max(axis=1)
            good = np.isfinite(norm)
            converged = good & (norm < newton_tol)
            outcome[idx[converged]] = _CONVERGED
            outcome[idx[~good]] = _NON_FINITE
            live = np.flatnonzero(good & ~converged)  # positions in idx
            mono = mono[:, live]
            J = combine(mono, jac_terms).T.reshape(live.size, len(polys), dim)
            solvable = np.abs(np.linalg.det(J)) > 1e-280
            outcome[idx[live[~solvable]]] = _SINGULAR
            live = live[solvable]
            if live.size == 0:
                continue
            step = np.linalg.solve(J[solvable], F[live][..., None])[..., 0]
            del mono, J  # the line search sets the oracle's memory peak
            Xa = X[idx[live]]
            # each row takes the first length 2^-k, k < halvings, at which
            # its residual is finite and no larger than at Xa; a row that
            # accepts none takes 2^-halvings
            lam = np.ones(live.size)
            rejected = np.arange(live.size)
            for k in range(1, halvings + 1):
                trial = residual_norm(Xa[rejected] - lam[rejected, None] * step[rejected])
                rejected = rejected[~np.isfinite(trial) | (trial > norm[live[rejected]])]
                if rejected.size == 0:
                    break
                lam[rejected] = np.ldexp(1.0, -k)
            X[idx[live]] = Xa - lam[:, None] * step
        return outcome

    # draws are taken row-major, so the stream does not depend on the blocks
    rng = random.Random(seed)
    block = 2048  # rows per draw and Newton pass; bounds the working arrays
    found: list[tuple[float, ...]] = []
    outcomes = np.zeros(len(_OUTCOMES), dtype=np.int64)
    for lo in range(0, starts, block):
        rows_here = min(block, starts - lo)
        u = np.array([rng.random() for _ in range(rows_here * dim)]).reshape(rows_here, dim)
        X = 10.0 ** (4.0 * u - 2.0)
        outcome = iterate(X)
        outcomes += np.bincount(outcome, minlength=len(_OUTCOMES))
        for row in X[outcome == _CONVERGED]:
            found.append(tuple(float(v) for v in row))

    metrics: list[InvariantMetric] = []
    canons: list[tuple] = []
    spurious = 0
    for point in sorted(found):
        metric = InvariantMetric.floating(system.metric_values(dict(zip(system.variables, point))))
        _, residual = einstein_residual(metric, data.triples)
        if float(residual) >= tol:
            spurious += 1
            continue
        metrics.append(metric)
        canons.append(canonical_vector(data.permutations, metric.x))
    groups = _group(canons)
    # each class is represented by its first point
    result.solutions = [_solution_from_metric(data, metrics[group[0]], "numeric") for group in groups]
    reasons = [f"{outcomes[code]} {_OUTCOMES[code]}" for code in range(1, len(_OUTCOMES))]
    reasons.append(f"{spurious} residual >= tol")
    basins = " / ".join(str(len(group)) for group in groups) or "none"
    result.cases.append(
        CaseRecord(
            name="newton oracle",
            notes=(
                f"{starts} starts, seed {seed}, {len(found)} convergent, {len(groups)} classes; "
                f"rejected: {', '.join(reasons)}; basin hits per class: {basins}"
            ),
        )
    )
    return result


def classify_full(
    spec: RootSystemSpec,
    starts: int,
    seed: int,
    tol: float = 1e-10,
    budget: GroebnerBudget = CASE_BUDGET,
) -> SolutionSet:
    """Combine the exact case analysis with the numeric oracle and classify.

    For G2 this reproduces the full classification; for other groups the
    result is a search, not a completeness claim.
    """
    # before the exact branches, so a bad oracle run fails at once
    check_oracle_run(starts, seed, tol)
    kaehler = kaehler_einstein_solution(spec)
    parts = [solve_symmetric_ansatz(spec, budget), solve_general_case(spec, budget)] if spec.type_label == "G2" else []
    parts.append(newton_oracle(spec, starts=starts, seed=seed, tol=tol))
    return SolutionSet(
        group=spec.type_label,
        normalization="x1 = 1 (oracle); see case log",
        solutions=classify([kaehler, *(s for part in parts for s in part.solutions)], spec),
        cases=[case for part in parts for case in part.cases],
    )


def json_scalar(v) -> str:
    """An exact rational as a 'p/q' string, a float at 15 significant digits."""
    if isinstance(v, Fraction):
        return str(v)
    return format(float(v), ".15g")


def solution_set_to_dict(result: SolutionSet) -> dict:
    """JSON-ready dictionary, scalars through ``json_scalar``."""
    return {
        "group": result.group,
        "normalization": result.normalization,
        "status": result.status,
        "cases": [
            {
                "name": c.name,
                "eliminationDegree": c.elimination_degree,
                "realRoots": c.real_roots,
                "positiveRoots": c.positive_roots,
                "status": c.status,
                "notes": c.notes,
            }
            for c in result.cases
        ],
        "solutions": [
            {
                "x": [json_scalar(v) for v in s.metric.x],
                "k": json_scalar(s.k),
                "kaehler": s.kaehler,
                "class": s.isometry_class,
                "provenance": s.provenance,
                "residual": json_scalar(s.residual),
            }
            for s in result.solutions
        ],
    }
