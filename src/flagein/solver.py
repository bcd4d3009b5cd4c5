"""Einstein polynomial systems for K/T: exact case analysis and numeric oracle.

The Einstein condition r_1 = ... = r_s becomes a polynomial system once the
pairwise differences are cleared of their monomial denominators.  For G2 the
case analysis runs a symmetric-ansatz branch (x1 = x5 = 1, x4 = x3) solved
exactly by lex elimination and certified root isolation, plus a stretch
general branch; a multi-start damped Newton oracle solves the same cleared
systems in floating point as an independent check.  Solutions are classified
up to isometry by scale normalization and the Weyl-induced coordinate
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .curvature import (
    EinsteinSolution,
    InvariantMetric,
    apply_permutation,
    einstein_residual,
    is_kaehler,
    kaehler_einstein_metric,
)
from .errors import ConfigurationError, DomainError, FlageinError
from .isotropy import triple_tensor
from .polyalg.groebner import GroebnerBudget, saturate
from .polyalg.poly import Exponent, LaurentPoly, MultiPoly, TermOrder
from .polyalg.realroots import interval_eval, refine_root, sturm_isolate
from .rootsys import RootSystemSpec, positive_roots, weyl_orbit_permutations


class BudgetExceededError(FlageinError):
    """A required elimination ran out of budget."""


@lru_cache(maxsize=32)
def _saturate_cached(
    generators: tuple[MultiPoly, ...],
    constraints: tuple[MultiPoly, ...],
    budget: GroebnerBudget,
):
    """Eliminations are deterministic and reused across pipeline calls."""
    return saturate(list(generators), list(constraints), budget)


@dataclass(frozen=True)
class EinsteinSystem:
    """Cleared polynomial system r_i = r_j over the free metric variables."""

    group: str
    variables: tuple[str, ...]
    polynomials: tuple[MultiPoly, ...]
    assignments: dict[str, Fraction]
    identifications: dict[str, str]
    nonvanishing: tuple[MultiPoly, ...]
    pairs: tuple[tuple[int, int], ...]
    clearings: tuple[tuple[Exponent, Fraction], ...]
    all_variables: tuple[str, ...]

    def metric_values(self, point: dict[str, Fraction | float]) -> tuple:
        """Rebuild the full per-root vector from free-variable values."""
        out = []
        for v in self.all_variables:
            if v in self.assignments:
                out.append(self.assignments[v])
            elif v in self.identifications:
                target = self.identifications[v]
                out.append(point[target] if target in point else self.assignments[target])
            else:
                out.append(point[v])
        return tuple(out)


@dataclass
class CaseRecord:
    """One branch of the case analysis, for the run log."""

    name: str
    assignments: dict[str, str]
    saturations: list[str]
    elimination_degree: int | None = None
    real_roots: int | None = None
    positive_roots: int | None = None
    status: str = "complete"
    notes: str = ""


@dataclass
class SolutionSet:
    group: str
    normalization: str
    solutions: list[EinsteinSolution] = field(default_factory=list)
    cases: list[CaseRecord] = field(default_factory=list)
    status: str = "complete"


def _metric_variables(count: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(count))


def build_system(
    spec: RootSystemSpec,
    normalization: dict[str, Fraction | int] | None = None,
    equalities: dict[str, str] | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> EinsteinSystem:
    """Clear denominators of r_i - r_j for the given pairs (consecutive by
    default) after pinning variables per *normalization* and identifying
    variables per *equalities*."""
    s = len(positive_roots(spec))
    names = _metric_variables(s)
    assignments: dict[str, Fraction] = {}
    for key, value in (normalization or {}).items():
        if key not in names:
            raise DomainError(f"unknown metric variable {key!r}")
        value = Fraction(value)
        if value <= 0:
            raise DomainError("metric normalization must be positive")
        if key in assignments and assignments[key] != value:
            raise DomainError(f"inconsistent normalization for {key}")
        assignments[key] = value
    identifications: dict[str, str] = {}
    for key, target in (equalities or {}).items():
        if key not in names or target not in names:
            raise DomainError(f"unknown metric variable in equality {key}={target}")
        if key in assignments:
            raise DomainError(f"{key} is both assigned and identified")
        identifications[key] = target
    # resolve chains and reject cycles
    for key in list(identifications):
        seen = {key}
        target = identifications[key]
        while target in identifications:
            target = identifications[target]
            if target in seen:
                raise DomainError("cyclic variable identification")
            seen.add(target)
        identifications[key] = target
    if not assignments:
        raise DomainError("normalization must assign at least one variable (scale gauge)")

    free = tuple(v for v in names if v not in assignments and v not in identifications)
    atoms: list[LaurentPoly | Fraction] = []
    for v in names:
        if v in assignments:
            atoms.append(LaurentPoly.constant(assignments[v], free) if free else assignments[v])
        elif v in identifications:
            target = identifications[v]
            if target in assignments:
                atoms.append(LaurentPoly.constant(assignments[target], free) if free else assignments[target])
            else:
                atoms.append(LaurentPoly.variable(target, free))
        else:
            atoms.append(LaurentPoly.variable(v, free))

    from .curvature import _ricci_values

    r = _ricci_values(atoms, triple_tensor(spec))
    if pairs is None:
        pairs = [(i, i + 1) for i in range(s - 1)]
    polys: list[MultiPoly] = []
    clearings: list[tuple[Exponent, Fraction]] = []
    kept_pairs: list[tuple[int, int]] = []
    order = TermOrder("grevlex", free) if free else None
    for i, j in pairs:
        diff = r[i] - r[j]
        if isinstance(diff, Fraction):
            if diff != 0:
                raise DomainError("normalization makes the system inconsistent")
            continue
        if diff.is_zero():
            continue
        cleared, shift = diff.cleared()
        gcd_exp = cleared.monomial_gcd()
        cleared = cleared.divide_monomial(gcd_exp)
        content = cleared.content()
        _, lead = order.leading(cleared)
        if lead < 0:
            content = -content
        polys.append(MultiPoly(free, {e: c / content for e, c in cleared.terms.items()}))
        # poly == (r_i - r_j) * x^(shift - gcd_exp) / content
        clearings.append((tuple(a - b for a, b in zip(shift, gcd_exp)), content))
        kept_pairs.append((i, j))
    nonvanishing = tuple(MultiPoly.variable(v, free) for v in free)
    return EinsteinSystem(
        group=spec.type_label,
        variables=free,
        polynomials=tuple(polys),
        assignments=assignments,
        identifications=identifications,
        nonvanishing=nonvanishing,
        pairs=tuple(kept_pairs),
        clearings=tuple(clearings),
        all_variables=names,
    )


def _linear_solve_on_interval(
    poly: MultiPoly,
    var: str,
    x6_enclosure: tuple[Fraction, Fraction],
    x6_name: str,
) -> tuple[Fraction, Fraction]:
    """Solve A(x6) * var + B(x6) = 0 over an interval enclosure of x6."""
    if poly.degree_in(var) != 1:
        raise DomainError(f"generator is not linear in {var}")
    i = poly.vars.index(var)
    a_terms: dict[Exponent, Fraction] = {}
    b_terms: dict[Exponent, Fraction] = {}
    for exp, c in poly.terms.items():
        reduced = list(exp)
        if exp[i] == 1:
            reduced[i] = 0
            a_terms[tuple(reduced)] = c
        else:
            b_terms[tuple(reduced)] = c
    a_coeffs = MultiPoly(poly.vars, a_terms).univariate_in(x6_name)
    b_coeffs = MultiPoly(poly.vars, b_terms).univariate_in(x6_name)
    lo, hi = x6_enclosure
    a_lo, a_hi = interval_eval(a_coeffs, lo, hi)
    b_lo, b_hi = interval_eval(b_coeffs, lo, hi)
    if a_lo <= 0 <= a_hi:
        raise DomainError("coefficient interval straddles zero; refine the root first")
    # var = -B/A; endpoints of the quotient interval
    candidates = [-b / a for b in (b_lo, b_hi) for a in (a_lo, a_hi)]
    return min(candidates), max(candidates)


def _canonical_scaled(values: tuple) -> tuple:
    top = max(values)
    return tuple(v / top for v in values)


def canonical_vector(spec: RootSystemSpec, values: tuple) -> tuple:
    """Scale so the largest entry is 1, then take the lexicographically smallest
    vector over the Weyl-induced permutations."""
    scaled = _canonical_scaled(values)
    return min(apply_permutation(sigma, scaled) for sigma in weyl_orbit_permutations(spec))


def _class_id(canonical: tuple) -> str:
    return ",".join(format(float(v), ".9g") for v in canonical)


def _close(a: tuple, b: tuple, tol: float) -> bool:
    return all(abs(float(p) - float(q)) <= tol * max(1.0, abs(float(q))) for p, q in zip(a, b))


def classify(
    solutions: list[EinsteinSolution],
    spec: RootSystemSpec,
    tol: float = 1e-6,
) -> SolutionSet:
    """Merge solutions into isometry classes (scale + Weyl orbit); one
    representative per class, exact representatives preferred."""
    classes: list[tuple[tuple, EinsteinSolution]] = []
    for sol in solutions:
        canon = canonical_vector(spec, sol.metric.x)
        canon_f = tuple(float(v) for v in canon)
        for idx, (existing, rep) in enumerate(classes):
            if _close(canon_f, existing, tol):
                if sol.metric.is_exact and not rep.metric.is_exact:
                    classes[idx] = (existing, _with_class(sol, _class_id(existing), spec))
                break
        else:
            classes.append((canon_f, _with_class(sol, _class_id(canon_f), spec)))
    ordered = sorted(classes, key=lambda item: item[0])
    result = SolutionSet(group=spec.type_label, normalization="per-solution gauge")
    result.solutions = [rep for _, rep in ordered]
    return result


def _with_class(sol: EinsteinSolution, class_id: str, spec: RootSystemSpec) -> EinsteinSolution:
    kaehler, _ = is_kaehler(sol.metric, spec)
    return EinsteinSolution(
        metric=sol.metric,
        k=sol.k,
        kaehler=kaehler,
        isometry_class=class_id,
        provenance=sol.provenance,
        residual=sol.residual,
    )


def _solution_from_metric(spec: RootSystemSpec, metric: InvariantMetric, provenance: str) -> EinsteinSolution:
    triples = triple_tensor(spec)
    k, residual = einstein_residual(metric, triples)
    kaehler, _ = is_kaehler(metric, spec)
    return EinsteinSolution(
        metric=metric,
        k=k,
        kaehler=kaehler,
        isometry_class=_class_id(tuple(float(v) for v in canonical_vector(spec, metric.x))),
        provenance=provenance,
        residual=residual,
    )


def kaehler_einstein_solution(spec: RootSystemSpec) -> EinsteinSolution:
    """The closed-form Kaehler-Einstein metric as an exact solution record."""
    return _solution_from_metric(spec, kaehler_einstein_metric(spec), "algebraic")


def _univariate_generator(basis: list[MultiPoly], var: str) -> MultiPoly | None:
    for g in basis:
        if g.support_vars() == (var,):
            return g
    return None


def solve_symmetric_ansatz(
    spec: RootSystemSpec,
    budget: GroebnerBudget | None = None,
    precision: Fraction = Fraction(1, 10**40),
) -> SolutionSet:
    """The x1 = x5 = 1, x4 = x3 branch of the G2 case analysis.

    Case x6 = 1 closes with a certified root-free quadratic; case x6 != 1
    eliminates to a degree-14 polynomial in x6, isolates its two positive
    roots, and back-substitutes through the triangular basis.  The x4 = x3
    identification is then certified on the whole x1 = x5 = 1 slice, x6 = 1
    included: the slice system saturated by the coordinates and x3 - x4 is
    the unit ideal, so no solution there with non-zero coordinates has
    x3 != x4.
    """
    if spec.type_label != "G2":
        raise ConfigurationError("the symmetric ansatz case analysis is specific to G2")
    budget = budget or GroebnerBudget()
    system = build_system(
        spec,
        normalization={"x1": 1, "x5": 1},
        equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    result = SolutionSet(group=spec.type_label, normalization="x1 = x5 = 1, x4 = x3")

    # branch x6 = 1
    sub_vars = ("x3", "x2")
    substituted = [
        p.substitute({"x6": 1}).with_variables(sub_vars) for p in system.polynomials
    ]
    branch = _saturate_cached(
        tuple(substituted),
        tuple(MultiPoly.variable(v, sub_vars) for v in sub_vars),
        budget,
    )
    record = CaseRecord(
        name="x6 = 1",
        assignments={"x1": "1", "x5": "1", "x4": "x3", "x6": "1"},
        saturations=["x2", "x3"],
        status=branch.status,
    )
    if branch.complete:
        quadratic = _univariate_generator(branch.generators, "x2")
        if quadratic is None:
            raise DomainError("expected a univariate generator in x2")
        roots = sturm_isolate(quadratic)
        record.elimination_degree = quadratic.degree_in("x2")
        record.real_roots = len(roots)
        record.positive_roots = len(sturm_isolate(quadratic, rng=(Fraction(0), None)))
        record.notes = "no real roots; branch contributes no metrics"
    result.cases.append(record)
    if not branch.complete:
        result.status = branch.status
        raise BudgetExceededError("x6 = 1 branch exceeded the Groebner budget")

    # branch x6 != 1
    constraints = [MultiPoly.variable(v, system.variables) for v in system.variables]
    constraints.append(
        MultiPoly.variable("x6", system.variables) - MultiPoly.constant(1, system.variables)
    )
    elimination = _saturate_cached(system.polynomials, tuple(constraints), budget)
    record = CaseRecord(
        name="x6 != 1",
        assignments={"x1": "1", "x5": "1", "x4": "x3"},
        saturations=["x2", "x3", "x6", "x6 - 1"],
        status=elimination.status,
    )
    result.cases.append(record)
    if not elimination.complete:
        result.status = elimination.status
        raise BudgetExceededError("symmetric-ansatz elimination exceeded the Groebner budget")
    univariate = _univariate_generator(elimination.generators, "x6")
    if univariate is None:
        raise DomainError("expected a univariate generator in x6")
    record.elimination_degree = univariate.degree_in("x6")
    intervals = sturm_isolate(univariate)
    record.real_roots = len(intervals)
    positive = sturm_isolate(univariate, rng=(Fraction(0), None))
    record.positive_roots = len(positive)

    gen_x2 = next(g for g in elimination.generators if "x2" in g.support_vars())
    gen_x3 = next(g for g in elimination.generators if "x3" in g.support_vars())
    triples = triple_tensor(spec)
    for interval in positive:
        tight = refine_root(interval, precision)
        enclosure = (tight.lo, tight.hi) if not tight.is_exact else (tight.lo, tight.lo)
        x2_lo, x2_hi = _linear_solve_on_interval(gen_x2, "x2", enclosure, "x6")
        x3_lo, x3_hi = _linear_solve_on_interval(gen_x3, "x3", enclosure, "x6")
        x6 = float(tight.midpoint())
        x2 = float((x2_lo + x2_hi) / 2)
        x3 = float((x3_lo + x3_hi) / 2)
        metric = InvariantMetric.floating((1.0, x2, x3, x3, 1.0, x6))
        metric.require_positive()
        result.solutions.append(_solution_from_metric(spec, metric, "algebraic"))

    # x4 = x3 on the whole x1 = x5 = 1 slice: by the Rabinowitsch trick the
    # saturation by x3 - x4 is [1] exactly when no solution there has x3 != x4
    wide = build_system(spec, normalization={"x1": 1, "x5": 1})
    wide_constraints = [MultiPoly.variable(v, wide.variables) for v in wide.variables]
    wide_constraints.append(
        MultiPoly.variable("x3", wide.variables) - MultiPoly.variable("x4", wide.variables)
    )
    certificate = _saturate_cached(wide.polynomials, tuple(wide_constraints), budget)
    check = CaseRecord(
        name="x4 = x3 consistency",
        assignments={"x1": "1", "x5": "1"},
        saturations=["x2", "x3", "x4", "x6", "x3 - x4"],
        status=certificate.status,
    )
    if certificate.complete:
        if certificate.generators != [MultiPoly.constant(1, wide.variables)]:
            raise DomainError("x3 = x4 is not implied on the x1 = x5 slice")
        check.notes = "saturating the slice by x3 - x4 gives the unit ideal"
    else:
        check.notes = "budget exceeded; identification kept as an ansatz"
    result.cases.append(check)
    return result


_GENERAL_LINEAR_FACTORS = ((1, -3), (1, -2), (2, -3), (2, -1), (3, -2), (3, -1))


def solve_general_case(
    spec: RootSystemSpec,
    budget: GroebnerBudget | None = None,
    precision: Fraction = Fraction(1, 10**40),
) -> SolutionSet:
    """The x1 = 1 branch with x1, x5, x6 pairwise distinct.

    Exact elimination here is far beyond the symmetric case; when the budget
    runs out the result carries status 'budget_exceeded' and classification
    falls back to the numeric oracle for this region.
    """
    if spec.type_label != "G2":
        raise ConfigurationError("the general case analysis is specific to G2")
    budget = budget or GroebnerBudget(max_pairs=250, max_coeff_bits=2500)
    # the published cleared system pairs r1 with r6 rather than r5 with r6
    system = build_system(
        spec, normalization={"x1": 1}, pairs=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
    )
    result = SolutionSet(group=spec.type_label, normalization="x1 = 1")
    names = system.variables
    constraints = [MultiPoly.variable(v, names) for v in names]
    one = MultiPoly.constant(1, names)
    x5 = MultiPoly.variable("x5", names)
    x6 = MultiPoly.variable("x6", names)
    constraints.extend([one - x5, one - x6, x5 - x6])
    elimination = _saturate_cached(system.polynomials, tuple(constraints), budget)
    record = CaseRecord(
        name="(x1 - x5)(x1 - x6)(x5 - x6) != 0",
        assignments={"x1": "1"},
        saturations=[*(str(v) for v in names), "1 - x5", "1 - x6", "x5 - x6"],
        status=elimination.status,
    )
    result.cases.append(record)
    if not elimination.complete:
        stats = elimination.stats
        record.notes = (
            f"exact elimination exceeded its {stats.budget_limit} budget after "
            f"{stats.pairs_processed} pairs ({stats.pairs_discarded} discarded, "
            f"{stats.max_coeff_bits} coefficient bits); the numeric oracle covers this region"
        )
        result.status = "budget_exceeded"
        return result

    univariate = _univariate_generator(elimination.generators, "x6")
    if univariate is None:
        raise DomainError("expected a univariate generator in x6")
    record.elimination_degree = univariate.degree_in("x6")
    coeffs = univariate.univariate_in("x6")
    # divide out the six rational solution factors
    remaining = coeffs
    for a, b in _GENERAL_LINEAR_FACTORS:
        quotient, rem = _divide_linear(remaining, Fraction(a), Fraction(b))
        if rem != 0:
            raise DomainError("expected linear factor missing from the elimination polynomial")
        remaining = quotient
    record.notes = f"six rational roots split off; residual factor degree {len(remaining) - 1}"
    positive = sturm_isolate(remaining, rng=(Fraction(0), None))
    record.real_roots = len(sturm_isolate(remaining))
    record.positive_roots = len(positive)

    shape = {
        v: next(g for g in elimination.generators if v in g.support_vars())
        for v in ("x2", "x3", "x4", "x5")
    }
    rejected = 0
    for interval in positive:
        tight = refine_root(interval, precision)
        enclosure = (tight.lo, tight.hi)
        values: dict[str, float] = {"x6": float(tight.midpoint())}
        nonpositive = False
        for v, gen in shape.items():
            lo, hi = _linear_solve_on_interval(gen, v, enclosure, "x6")
            values[v] = float((lo + hi) / 2)
            if hi <= 0:
                nonpositive = True
        if nonpositive:
            rejected += 1
            continue
        metric = InvariantMetric.floating(system.metric_values(values))
        result.solutions.append(_solution_from_metric(spec, metric, "algebraic"))
    record.notes += f"; {rejected} positive-x6 roots rejected for a nonpositive coordinate"

    # the six rational roots are the Kaehler-Einstein orbit
    for a, b in _GENERAL_LINEAR_FACTORS:
        x6_value = Fraction(-b, a)
        point: dict[str, Fraction] = {"x6": x6_value}
        for v, gen in shape.items():
            point[v] = _solve_linear_exact(gen, v, "x6", x6_value)
        metric = InvariantMetric.exact(system.metric_values(point))
        result.solutions.append(_solution_from_metric(spec, metric, "algebraic"))
    return result


def _divide_linear(coeffs: list[Fraction], a: Fraction, b: Fraction) -> tuple[list[Fraction], Fraction]:
    """Divide by (a*x + b); returns (quotient ascending, remainder)."""
    quotient = [Fraction(0)] * (len(coeffs) - 1)
    rem = Fraction(0)
    for i in range(len(coeffs) - 1, -1, -1):
        current = coeffs[i] + rem
        if i == 0:
            return quotient, current
        quotient[i - 1] = current / a
        rem = -quotient[i - 1] * b
    return quotient, rem


def _solve_linear_exact(poly: MultiPoly, var: str, x6_name: str, x6_value: Fraction) -> Fraction:
    i = poly.vars.index(var)
    a = Fraction(0)
    b = Fraction(0)
    for exp, c in poly.terms.items():
        value = c * x6_value ** exp[poly.vars.index(x6_name)]
        if exp[i] == 1:
            a += value
        else:
            b += value
    if a == 0:
        raise DomainError("degenerate linear generator")
    return -b / a


# Newton outcome of one start; all but the first are rejection reasons
_OUTCOMES = ("convergent", "non-finite", "singular Jacobian", "iteration cap", "non-positive coordinate")
_CONVERGED, _NON_FINITE, _SINGULAR, _ITERATION_CAP, _NON_POSITIVE = range(len(_OUTCOMES))


def newton_oracle(
    system: EinsteinSystem,
    starts: int = 100_000,
    seed: int = 0,
    tol: float = 1e-10,
    initial_points: list[tuple[float, ...]] | None = None,
) -> SolutionSet:
    """Damped Newton on the cleared system from log-uniform random starts in
    [1e-2, 1e2]^dim; converged positive points are deduplicated up to scale
    and Weyl permutation.  Deterministic for a fixed seed.  Explicit
    *initial_points* (free-variable vectors) are iterated before the random
    starts; a point already at a solution is a fixed point of the iteration.

    The case note counts the starts rejected for each reason and the points
    that reached each class (its basin hits), in class order."""
    import numpy as np

    if starts < 1:
        raise ConfigurationError("starts must be >= 1")
    from .rootsys import root_system

    spec = root_system(system.group)
    result = SolutionSet(group=system.group, normalization=_normalization_text(system))
    dim = len(system.variables)
    if dim == 0 or not system.polynomials:
        values = system.metric_values({})
        metric = (
            InvariantMetric.exact(values)
            if all(isinstance(v, Fraction) for v in values)
            else InvariantMetric.floating(values)
        )
        _, residual = einstein_residual(metric, triple_tensor(spec))
        if float(residual) < tol:
            result.solutions.append(_solution_from_metric(spec, metric, "numeric"))
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
    probe = 256  # trial points per line-search round once few rows remain

    def iterate(X: "np.ndarray") -> "np.ndarray":
        """Damped Newton on the rows of X in place; each row ends with one
        outcome code.  Rows are independent, so any split of X into blocks
        gives the same iterates."""
        # rows still iterating carry _ITERATION_CAP, which is final after max_iter
        outcome = np.full(X.shape[0], _ITERATION_CAP, dtype=np.int8)
        for _ in range(max_iter):
            idx = np.flatnonzero(outcome == _ITERATION_CAP)
            if idx.size == 0:
                break
            mono = monomial_matrix(X[idx], exponents)
            F = combine(mono, poly_terms).T
            norm = np.abs(F).max(axis=1)
            good = np.isfinite(norm)
            converged = good & (norm < newton_tol)
            outcome[idx[converged]] = _CONVERGED
            outcome[idx[~good]] = _NON_FINITE
            keep_mask = ~converged & good
            sub = idx[keep_mask]
            if sub.size == 0:
                continue
            mono = mono[:, keep_mask]
            J = combine(mono, jac_terms).T.reshape(sub.size, len(polys), dim)
            dets = np.linalg.det(J)
            solvable = np.abs(dets) > 1e-280
            outcome[sub[~solvable]] = _SINGULAR
            sub = sub[solvable]
            if sub.size == 0:
                continue
            step = np.linalg.solve(J[solvable], F[keep_mask][solvable][..., None])[..., 0]
            base_norm = norm[keep_mask][solvable]
            lam = np.ones(sub.size)
            Xa = X[sub]
            # backtracking; lam = 2^-halvings when every length fails.  An
            # accepted step never changes, so each round tests only the rows
            # rejected so far; when few remain, a round tests several halvings
            trial = np.arange(sub.size)
            tried = 0
            while trial.size and tried < halvings:
                width = min(halvings - tried, max(1, probe // trial.size))
                scales = np.ldexp(1.0, -np.arange(tried, tried + width))
                at = np.repeat(trial, width)
                lam_try = np.tile(scales, trial.size)
                trial_norm = residual_norm(Xa[at] - lam_try[:, None] * step[at])
                bad = (~np.isfinite(trial_norm) | (trial_norm > base_norm[at])).reshape(-1, width)
                failed = bad.all(axis=1)
                passed = ~failed
                lam[trial[passed]] = scales[bad[passed].argmin(axis=1)]
                tried += width
                trial = trial[failed]
                lam[trial] = np.ldexp(1.0, -tried)
            X[sub] = Xa - lam[:, None] * step
        return outcome

    rng = np.random.default_rng(seed)
    chunk = 16384  # rows per random draw
    block = 2048  # rows per Newton pass; bounds the working arrays
    found: list[tuple[float, ...]] = []
    outcomes = np.zeros(len(_OUTCOMES), dtype=np.int64)

    pending = [np.asarray(initial_points, dtype=float)] if initial_points else []
    remaining = starts
    while remaining > 0 or pending:
        if pending:
            X = pending.pop()
        else:
            n = min(chunk, remaining)
            remaining -= n
            X = 10.0 ** rng.uniform(-2.0, 2.0, size=(n, dim))
        for lo in range(0, X.shape[0], block):
            Xb = X[lo : lo + block]
            outcome = iterate(Xb)
            positive = (Xb > tol).all(axis=1)
            outcome[(outcome == _CONVERGED) & ~positive] = _NON_POSITIVE
            outcomes += np.bincount(outcome, minlength=len(_OUTCOMES))
            for row in Xb[outcome == _CONVERGED]:
                found.append(tuple(float(v) for v in row))

    triples = triple_tensor(spec)
    accepted: list[EinsteinSolution] = []
    reps: list[tuple] = []
    hits: list[int] = []  # points per class, in class order
    spurious = 0
    for point in sorted(found):
        values = system.metric_values(dict(zip(system.variables, point)))
        metric = InvariantMetric.floating(values)
        _, residual = einstein_residual(metric, triples)
        if float(residual) >= tol:
            spurious += 1
            continue
        canon = tuple(float(v) for v in canonical_vector(spec, metric.x))
        match = next((k for k, rep in enumerate(reps) if _close(canon, rep, 1e-6)), None)
        if match is not None:
            hits[match] += 1
            continue
        reps.append(canon)
        hits.append(1)
        accepted.append(_solution_from_metric(spec, metric, "numeric"))
    result.solutions = accepted
    reasons = [f"{outcomes[code]} {_OUTCOMES[code]}" for code in range(1, len(_OUTCOMES))]
    reasons.append(f"{spurious} residual >= tol")
    basins = " / ".join(str(h) for h in hits) or "none"
    result.cases.append(
        CaseRecord(
            name="newton oracle",
            assignments={k: str(v) for k, v in system.assignments.items()},
            saturations=[],
            status="complete",
            notes=(
                f"{starts} starts, seed {seed}, {len(found)} convergent, {len(accepted)} classes; "
                f"rejected: {', '.join(reasons)}; basin hits per class: {basins}"
            ),
        )
    )
    return result


def _normalization_text(system: EinsteinSystem) -> str:
    parts = [f"{k} = {v}" for k, v in system.assignments.items()]
    parts.extend(f"{k} = {v}" for k, v in system.identifications.items())
    return ", ".join(parts) if parts else "none"


def classify_full(
    spec: RootSystemSpec,
    starts: int = 100_000,
    seed: int = 0,
    tol: float = 1e-10,
    budget: GroebnerBudget | None = None,
) -> SolutionSet:
    """Combine the exact case analysis with the numeric oracle and classify.

    For G2 this reproduces the full classification; for other groups the
    result is a search, not a completeness claim.
    """
    solutions: list[EinsteinSolution] = [kaehler_einstein_solution(spec)]
    cases: list[CaseRecord] = []
    status = "complete"
    if spec.type_label == "G2":
        ansatz = solve_symmetric_ansatz(spec, budget)
        solutions.extend(ansatz.solutions)
        cases.extend(ansatz.cases)
        general = solve_general_case(spec, budget)
        solutions.extend(general.solutions)
        cases.extend(general.cases)
        if general.status != "complete":
            status = general.status
    system = build_system(spec, normalization={"x1": 1})
    oracle = newton_oracle(system, starts=starts, seed=seed, tol=tol)
    solutions.extend(oracle.solutions)
    cases.extend(oracle.cases)
    combined = classify(solutions, spec)
    combined.cases = cases
    combined.status = status
    combined.normalization = "x1 = 1 (oracle); see case log"
    return combined


def solution_set_to_dict(result: SolutionSet) -> dict:
    """JSON-ready dictionary; exact rationals as 'p/q' strings, floats at 15
    significant digits."""

    def scalar(v):
        if isinstance(v, Fraction):
            return str(v)
        return format(float(v), ".15g")

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
                "x": [scalar(v) for v in s.metric.x],
                "k": scalar(s.k),
                "kaehler": s.kaehler,
                "class": s.isometry_class,
                "provenance": s.provenance,
                "residual": scalar(s.residual),
            }
            for s in result.solutions
        ],
    }
