import random
import re
from collections import Counter
from pathlib import Path
from dataclasses import replace
from fractions import Fraction as F

import pytest

from flagein.curvature import InvariantMetric, apply_permutation, einstein_residual, kaehler_einstein_metric, ricci
from flagein.errors import ConfigurationError, DomainError
from flagein.isotropy import triple_tensor
from flagein.polyalg.groebner import GroebnerBudget, reduce_poly
from flagein.polyalg.poly import (
    LaurentPoly,
    MultiPoly,
    TermOrder,
    format_polynomial,
    parse_polynomial,
    parse_polynomial_file,
)
from flagein.rootsys import root_system, weyl_orbit_permutations
from flagein import solver
from flagein.solver import (
    G2_GENERAL_CASE,
    G2_SYMMETRIC_ANSATZ,
    Branch,
    SolutionSet,
    build_system,
    canonical_vector,
    classify,
    kaehler_einstein_solution,
    newton_oracle,
    solution_set_to_dict,
    solve_branches,
    solve_general_case,
    solve_symmetric_ansatz,
)

from conftest import at_x6_equal_one

ANSATZ_VALUES = [
    # x6, x2, x3, k as published, to four decimals
    (0.7440, 0.2173, 1.0234, 0.4269),
    (1.7896, 0.2762, 1.0347, 0.3560),
]


def _canonical(p):
    c = p.content()
    _, lead = TermOrder("grevlex", p.vars).leading(p)
    if lead < 0:
        c = -c
    return MultiPoly(p.vars, {e: v / c for e, v in p.terms.items()})


def test_symmetric_system_matches_golden(g2):
    system = build_system(
        g2, normalization={"x1": 1, "x5": 1}, equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    assert system.variables == ("x2", "x3", "x6")
    golden = parse_polynomial_file(
        open("tests/data/g2_symmetric_system.txt").read(), system.variables
    )
    assert {format_polynomial(_canonical(p)) for p in system.polynomials} == {
        format_polynomial(_canonical(p)) for p in golden
    }


def test_general_system_matches_golden(g2):
    system = build_system(
        g2, normalization={"x1": 1}, pairs=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
    )
    assert system.variables == ("x2", "x3", "x4", "x5", "x6")
    golden = parse_polynomial_file(
        open("tests/data/g2_general_system.txt").read(), system.variables
    )
    assert {format_polynomial(_canonical(p)) for p in system.polynomials} == {
        format_polynomial(_canonical(p)) for p in golden
    }


def test_cleared_polynomials_reexpand(g2):
    """Each cleared polynomial equals (r_i - r_j) times its clearing monomial."""
    system = build_system(g2, normalization={"x1": 1})
    free = system.variables
    atoms = {}
    for v in system.all_variables:
        if v in system.assignments:
            atoms[v] = LaurentPoly.constant(system.assignments[v], free)
        else:
            atoms[v] = LaurentPoly.variable(v, free)
    # rebuild each component over the free variables with x1 pinned
    from flagein.curvature import _ricci_values

    values = _ricci_values([atoms[v] for v in system.all_variables], triple_tensor(g2))
    # the default pairs are consecutive, and none of their differences vanishes
    assert len(system.polynomials) == len(values) - 1
    order = TermOrder("grevlex", free)
    for i, poly in enumerate(system.polynomials):
        diff = values[i] - values[i + 1]
        # a monomial multiple keeps the order of terms, so the leading terms
        # give the clearing monomial and the scale
        (d_exp, d_coeff), (p_exp, p_coeff) = (order.leading(p) for p in (diff, poly))
        monomial = LaurentPoly(free, {tuple(p - d for p, d in zip(p_exp, d_exp)): F(1)})
        lhs = LaurentPoly(free, {tuple(e): c for e, c in poly.terms.items()})
        assert diff * monomial == lhs * (d_coeff / p_coeff)


@pytest.mark.parametrize("pair", [(0, 5), (4, 5)])
def test_other_long_coincidences_are_weyl_images_of_x1_eq_x5(g2, pair):
    """x1 = x6 and x5 = x6 need no branch of their own: a Weyl permutation
    carries each of these hyperplanes onto x1 = x5, and the Ricci map
    commutes with it, so their Einstein metrics are isometric to metrics
    with x1 = x5."""
    # the image apply_permutation(sigma, x) has x[sigma[0]] and x[sigma[4]] in slots 0 and 4
    carriers = [s for s in weyl_orbit_permutations(g2) if {s[0], s[4]} == set(pair)]
    assert len(carriers) == 2
    triples = triple_tensor(g2)
    x = [F(2), F(3), F(5), F(7), F(11), F(13)]
    x[pair[1]] = x[pair[0]]
    r = ricci(InvariantMetric.exact(x), triples).r
    for sigma in carriers:
        image = apply_permutation(sigma, tuple(x))
        assert image[0] == image[4] != image[5]
        assert ricci(InvariantMetric.exact(image), triples).r == apply_permutation(sigma, r)


def test_build_system_validation(g2):
    with pytest.raises(DomainError):
        build_system(g2, normalization={})
    with pytest.raises(DomainError):
        build_system(g2, normalization={"x9": 1})
    with pytest.raises(DomainError):
        build_system(g2, normalization={"x1": 0})
    with pytest.raises(DomainError):
        build_system(g2, normalization={"x1": 1}, equalities={"x1": "x2"})
    with pytest.raises(DomainError):
        build_system(g2, normalization={"x1": 1}, equalities={"x3": "x4", "x4": "x3"})
    with pytest.raises(DomainError, match="must not itself be identified"):
        build_system(g2, normalization={"x1": 1}, equalities={"x4": "x3", "x3": "x2"})


def test_build_system_trivial_rank_one():
    a1 = root_system("A1")
    system = build_system(a1, normalization={"x1": 1})
    assert system.polynomials == ()
    assert system.variables == ()


@pytest.mark.parametrize(
    "group, pairs",
    [
        ("A1", 0), ("A2", 2), ("A3", 5), ("A4", 9), ("A5", 14), ("B2", 3), ("B3", 8),
        ("B4", 15), ("C3", 8), ("C4", 15), ("D4", 11), ("D5", 19), ("G2", 5),
    ],
)
def test_oracle_chart_is_square(group, pairs):
    # each r_i - r_{i+1} keeps its 1/(2 x_{i+1}) term, so none drops out
    system = build_system(root_system(group), {"x1": 1})
    assert len(system.polynomials) == len(system.variables) == pairs


def test_build_system_with_every_variable_assigned(g2):
    """A fully assigned slice is the empty system when the assigned metric is
    Einstein, and inconsistent otherwise."""
    ke = dict(zip(("x1", "x2", "x3", "x4", "x5", "x6"), (3, 1, 4, 5, 6, 9)))
    system = build_system(g2, normalization=ke)
    assert (system.variables, system.polynomials) == ((), ())
    assert system.metric_values({}) == (3, 1, 4, 5, 6, 9)
    normal = {f"x{i}": 1 for i in range(1, 7)}
    with pytest.raises(DomainError, match="^normalization makes the system inconsistent$"):
        build_system(g2, normalization=normal)


def test_metric_values_reconstruction(g2):
    system = build_system(
        g2, normalization={"x1": 1, "x5": 1}, equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    values = system.metric_values({"x2": F(1, 2), "x3": F(2), "x6": F(3)})
    assert values == (F(1), F(1, 2), F(2), F(2), F(1), F(3))
    # an identification whose target is assigned takes the assigned value
    system = build_system(g2, normalization={"x1": 1}, equalities={"x4": "x1"})
    values = system.metric_values({"x2": F(2), "x3": F(3), "x5": F(5), "x6": F(6)})
    assert values == (F(1), F(2), F(3), F(1), F(5), F(6))


def test_symmetric_ansatz_case_log(ansatz_result):
    names = [c.name for c in ansatz_result.cases]
    assert names == ["x6 = 1", "x6 != 1", "x4 = x3 consistency"]
    first, second, check = ansatz_result.cases
    assert first.elimination_degree == 2
    assert first.real_roots == 0
    assert first.positive_roots == 0
    assert second.elimination_degree == 14
    assert second.real_roots == 2
    assert second.positive_roots == 2
    assert check.notes == "saturating the slice by x3 - x4 gives the unit ideal"


def test_symmetric_ansatz_solutions(ansatz_result):
    assert len(ansatz_result.solutions) == 2
    by_x6 = sorted(ansatz_result.solutions, key=lambda s: s.metric.x[5])
    for solution, (x6, x2, x3, k) in zip(by_x6, ANSATZ_VALUES):
        xs = [float(v) for v in solution.metric.x]
        assert xs[0] == 1.0 and xs[4] == 1.0
        assert abs(xs[5] - x6) < 1e-4
        assert abs(xs[1] - x2) < 1e-4
        assert abs(xs[2] - x3) < 1e-4
        assert xs[2] == xs[3]
        assert abs(float(solution.k) - k) < 1e-4
        assert float(solution.residual) < 1e-10
        assert not solution.kaehler
        assert solution.provenance == "algebraic"


def test_symmetric_ansatz_group_guard():
    with pytest.raises(Exception):
        solve_symmetric_ansatz(root_system("A2"))


def test_x6_equal_one_branch_quadratic(g2):
    """The degenerate branch reduces to a rootless quadratic."""
    from flagein.polyalg.groebner import saturate
    from flagein.polyalg.realroots import sturm_isolate

    golden = parse_polynomial_file(
        open("tests/data/g2_symmetric_system.txt").read(), ("x2", "x3", "x6")
    )
    basis = saturate(
        [at_x6_equal_one(p) for p in golden], [MultiPoly.variable(v, ("x3", "x2")) for v in ("x3", "x2")]
    )
    assert basis.complete
    stats = basis.stats
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (13, 8, 3)
    assert stats.max_coeff_bits == 13
    forms = {format_polynomial(_canonical(g)) for g in basis.generators}
    assert "15*x2^2 - 20*x2 + 9" in forms
    assert "x3 - x2" in forms
    quadratic = next(g for g in basis.generators if g.support_vars() == ("x2",))
    assert sturm_isolate(quadratic.univariate_in("x2")) == []


def test_x4_x3_consistency_saturation_stats(g2):
    """The slice saturation behind the x4 = x3 check; pins the kernel's path."""
    from flagein.polyalg.groebner import saturate

    wide = build_system(g2, normalization={"x1": 1, "x5": 1})
    names = wide.variables
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(MultiPoly.variable("x6", names) - MultiPoly.constant(1, names))
    basis = saturate(list(wide.polynomials), constraints)
    assert basis.complete
    stats = basis.stats
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (206, 199, 5)
    assert stats.max_coeff_bits == 1378
    # x3 - x4 lies in the saturated slice ideal, which is not the unit ideal
    gap = MultiPoly.variable("x3", names) - MultiPoly.variable("x4", names)
    assert reduce_poly(gap, basis.generators, basis.order).is_zero()
    assert basis.generators != [MultiPoly.constant(1, names)]


def test_x4_x3_certificate_is_unit_ideal(g2, fglm_calls):
    """Saturating the x1 = x5 = 1 slice by x3 - x4 too leaves the unit ideal."""
    from flagein.polyalg.groebner import saturate

    wide = build_system(g2, normalization={"x1": 1, "x5": 1})
    names = wide.variables
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(MultiPoly.variable("x3", names) - MultiPoly.variable("x4", names))
    basis = saturate(list(wide.polynomials), constraints)
    assert basis.complete
    assert basis.generators == [MultiPoly.constant(1, names)]
    stats = basis.stats
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (65, 48, 1)
    assert stats.max_coeff_bits == 285
    assert len(fglm_calls) == 1


def test_x4_x3_row_saturates_by_a_part_of_the_product(g2, monkeypatch):
    """The row saturates by x4 x6 (x3 - x4) alone and still gets [1], which
    certifies x2 and x3 as units with no further work."""
    calls = _saturate_spy(monkeypatch)
    result = solve_branches(g2, "x1 = x5 = 1", (G2_SYMMETRIC_ANSATZ[2],))
    [(names, nonvanishing, basis)] = calls
    assert names == ("x2", "x3", "x4", "x6")
    assert [format_polynomial(p) for p in nonvanishing] == ["x4", "x6", "x3 - x4"]
    assert basis.generators == [MultiPoly.constant(1, names)]
    stats = basis.stats
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size, stats.max_coeff_bits) == (50, 58, 1, 285)
    assert result.cases[0].notes == "saturating the slice by x3 - x4 gives the unit ideal"


def test_x4_x3_certificate_rejects_non_unit_ideal(g2, monkeypatch):
    """A complete saturation that is not the unit ideal refutes the ansatz."""
    from flagein import solver
    from flagein.polyalg.groebner import GroebnerBasis, GroebnerStats

    real_saturate = solver.saturate

    def fake_saturate(generators, nonvanishing, budget=None):
        names = generators[0].vars
        if names == ("x2", "x3", "x4", "x6"):
            gap = MultiPoly.variable("x3", names) - MultiPoly.variable("x4", names)
            return GroebnerBasis([gap], TermOrder("lex", names), GroebnerStats(budget_limit=None))
        return real_saturate(generators, nonvanishing, budget)

    monkeypatch.setattr(solver, "saturate", fake_saturate)
    with pytest.raises(DomainError, match="does not give the unit ideal"):
        solve_symmetric_ansatz(g2, GroebnerBudget(99_999, 2500))


def test_x4_x3_overrun_makes_status_budget_exceeded(g2, monkeypatch):
    """An overrun in any branch is logged in its case and in the status."""
    from flagein import solver
    from flagein.polyalg.groebner import GroebnerBasis, GroebnerStats

    real_saturate = solver.saturate
    # the first, middle and last row overrun in turn; the x6 = 1 row has no
    # solutions, so only an overrun in the x6 != 1 row loses the two metrics
    for row, overrun, found in ((0, ("x3", "x2"), 2), (1, ("x2", "x3", "x6"), 0), (2, ("x2", "x3", "x4", "x6"), 2)):

        def fake_saturate(generators, nonvanishing, budget=None, overrun=overrun):
            names = generators[0].vars
            if names == overrun:
                stats = GroebnerStats(pairs_processed=50, pairs_discarded=7, max_coeff_bits=99, budget_limit="pairs")
                return GroebnerBasis([], TermOrder("lex", names), stats)
            return real_saturate(generators, nonvanishing, budget)

        monkeypatch.setattr(solver, "saturate", fake_saturate)
        result = solve_symmetric_ansatz(g2)
        assert result.status == "budget_exceeded"
        statuses = ["complete"] * 3
        statuses[row] = "budget_exceeded"
        assert [c.status for c in result.cases] == statuses
        assert result.cases[row].notes.startswith(
            "exact elimination exceeded its pairs budget after 50 pairs (7 discarded, 99 coefficient bits)"
        )
        assert len(result.solutions) == found


@pytest.mark.parametrize(
    "budget, expected",
    [
        (None, GroebnerBudget(250, 2500)),
        (GroebnerBudget(60, 2500), GroebnerBudget(60, 2500)),
    ],
)
def test_budget_overrides_the_branch_default(g2, monkeypatch, budget, expected):
    """Every row of both tables runs under the one case-analysis budget when
    none is given (None), and under a given budget as it stands."""
    from flagein import solver
    from flagein.polyalg.groebner import GroebnerBasis, GroebnerStats

    seen = []

    def fake_saturate(generators, nonvanishing, budget=None):
        seen.append(budget)
        return GroebnerBasis([], TermOrder("lex", generators[0].vars), GroebnerStats(budget_limit="pairs"))

    monkeypatch.setattr(solver, "saturate", fake_saturate)
    given = () if budget is None else (budget,)
    assert solve_symmetric_ansatz(g2, *given).status == "budget_exceeded"
    assert solve_general_case(g2, *given).status == "budget_exceeded"
    assert seen == [expected] * (len(G2_SYMMETRIC_ANSATZ) + len(G2_GENERAL_CASE))


def test_branch_engine_solves_rational_roots_exactly(g2):
    """A known rational root is split off and back-substituted exactly."""
    branch = Branch(
        "x1 = 1, x2 = 1/3, x3 = 4/3 slice",
        {"x1": 1, "x2": F(1, 3), "x3": F(4, 3)},
        {},
        ((1, 2), (2, 3), (3, 4)),
        eliminate="x6",
        rational_roots=(F(3),),
    )
    result = solve_branches(g2, "slice", (branch,))
    case = result.cases[0]
    assert result.status == "complete"
    assert (case.elimination_degree, case.real_roots, case.positive_roots) == (18, 5, 4)
    assert case.notes == (
        "1 rational roots split off; residual factor degree 17; "
        "4 positive-x6 roots rejected for a nonpositive coordinate"
    )
    [ke] = result.solutions
    assert ke.metric.x == (1, F(1, 3), F(4, 3), F(5, 3), 2, 3)
    assert ke.metric.is_exact and ke.kaehler and ke.residual == 0


def test_branch_engine_rejects_missing_rational_root(g2):
    branch = Branch(
        "slice", {"x1": 1, "x2": F(1, 3), "x3": F(4, 3)}, {}, None,
        eliminate="x6", rational_roots=(F(2),),
    )
    with pytest.raises(DomainError, match="rational root 2 missing"):
        solve_branches(g2, "slice", (branch,))


def test_branch_engine_checks_each_rational_root_exactly(g2):
    # x6 = 1 is excluded by saturation, so it cannot divide the eliminant
    branch = replace(G2_SYMMETRIC_ANSATZ[1], rational_roots=(F(1),))
    with pytest.raises(DomainError, match="^expected rational root 1 missing from the elimination polynomial$"):
        solve_branches(g2, "x1 = x5 = 1", (branch,))


def _saturate_spy(monkeypatch, overrun=False):
    """Record every saturate call the engine makes as (variables, factors
    saturated by, result); with *overrun* a call reports a pair-budget overrun
    at once instead of running."""
    from flagein.polyalg.groebner import GroebnerBasis, GroebnerStats

    calls = []
    real_saturate = solver.saturate

    def spy(generators, nonvanishing, budget=None):
        names = generators[0].vars
        if overrun:
            basis = GroebnerBasis([], TermOrder("lex", names), GroebnerStats(budget_limit="pairs"))
        else:
            basis = real_saturate(generators, nonvanishing, budget)
        calls.append((names, nonvanishing, basis))
        return basis

    monkeypatch.setattr(solver, "saturate", spy)
    return calls


def test_x6_ne_1_units_leave_the_full_saturation(g2, monkeypatch):
    """Saturating by x3 (x6 - 1) and certifying x2 and x6 as units gives the
    basis that saturating by all four factors gives."""
    from flagein.polyalg.groebner import saturate

    calls = _saturate_spy(monkeypatch)
    result = solve_branches(g2, "x1 = x5 = 1, x4 = x3", (G2_SYMMETRIC_ANSATZ[1],))
    [(names, nonvanishing, basis)] = calls
    assert names == ("x2", "x3", "x6")
    stats = basis.stats
    assert (stats.pairs_processed, stats.max_coeff_bits) == (89, 187)
    golden = parse_polynomial_file(open("tests/data/g2_symmetric_system.txt").read(), names)
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(MultiPoly.variable("x6", names) - MultiPoly.constant(1, names))
    full = saturate(golden, constraints)
    assert full.stats.pairs_processed == 107
    assert basis.generators == full.generators
    # the row saturates by x3 (x6 - 1) alone
    assert nonvanishing == [constraints[1], constraints[-1]]
    assert len(result.solutions) == 2


@pytest.mark.parametrize(
    "factors, unit, is_unit",
    [
        (("x3", "x6 - 1"), "x2", True),
        (("x3", "x6 - 1"), "x3", True),
        (("x3", "x6 - 1"), "x6", True),
        (("x3", "x6 - 1"), "x6 - 1", True),
        # the x6 = 1 points survive saturating by the coordinates alone
        (("x2", "x3", "x6"), "x6 - 1", False),
    ],
)
def test_gcd_unit_check_agrees_with_the_groebner_certificate(g2, factors, unit, is_unit):
    """gcd(h, NF(u)) = 1 exactly when a basis of J + <u> is [1], for the
    saturation J of the x6 != 1 slice and its univariate generator h."""
    from flagein.polyalg.groebner import buchberger, saturate
    from flagein.polyalg.realroots import coprime

    row = G2_SYMMETRIC_ANSATZ[1]
    system = build_system(g2, row.normalization, row.equalities, row.pairs)
    names = system.variables
    J = saturate(list(system.polynomials), [parse_polynomial(t, names) for t in factors])
    u = parse_polynomial(unit, names)
    [h] = [g for g in J.generators if g.support_vars() == ("x6",)]
    remainder = reduce_poly(u, J.generators, J.order)
    assert remainder.support_vars() in ((), ("x6",))
    by_gcd = coprime(h.univariate_in("x6"), remainder.univariate_in("x6"))
    by_groebner = buchberger(J.generators + [u], TermOrder("grevlex", names)).generators == [MultiPoly.constant(1, names)]
    assert by_gcd == by_groebner == is_unit


def test_unit_check_rejects_a_factor_that_is_not_a_unit(g2):
    # the x6 = 1 points survive saturating by the coordinates alone
    branch = replace(G2_SYMMETRIC_ANSATZ[1], factors=(), units=("x6 - 1",))
    with pytest.raises(DomainError, match="^x6 != 1: x6 - 1 is not a unit modulo the saturated slice$"):
        solve_branches(g2, "x1 = x5 = 1", (branch,))


def test_unit_check_rejects_a_normal_form_that_is_not_univariate(g2, monkeypatch):
    """The gcd certificate needs a normal form in the eliminated variable
    alone; here x2 is its own normal form modulo [x2 x6 - 1, x6^2 - 2]."""
    from flagein.polyalg.groebner import GroebnerBasis, GroebnerStats

    def fake_saturate(generators, nonvanishing, budget=None):
        names = generators[0].vars
        basis = [parse_polynomial(t, names) for t in ("x2*x6 - 1", "x6^2 - 2")]
        return GroebnerBasis(basis, TermOrder("lex", names), GroebnerStats())

    monkeypatch.setattr(solver, "saturate", fake_saturate)
    with pytest.raises(DomainError, match="^x6 != 1: the normal form of x2 is not univariate in x6$"):
        solve_branches(g2, "x1 = x5 = 1, x4 = x3", (G2_SYMMETRIC_ANSATZ[1],))


def test_each_row_makes_one_saturate_call(g2, monkeypatch):
    """The unit checks take no Groebner basis, so each row is one saturation.
    Its variables are the slice's free variables with the eliminated one
    last: the tuples by which the benchmark's span recorder names the rows."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import BRANCHES

    keys = list(BRANCHES)
    ansatz = [["x3", "x2"], ["x3", "x6 - 1"], ["x4", "x6", "x3 - x4"]]
    general = [["x2", "x3", "x4", "x5", "x6", "-x5 + 1", "-x6 + 1", "x5 - x6"]]
    # the general row reports an overrun at once instead of its seconds-long attempt
    for branches, status, names, factors in (
        (G2_SYMMETRIC_ANSATZ, "complete", keys[:3], ansatz),
        (G2_GENERAL_CASE, "budget_exceeded", keys[3:], general),
    ):
        calls = _saturate_spy(monkeypatch, overrun=branches is G2_GENERAL_CASE)
        assert solve_branches(g2, "slice", branches).status == status
        assert [variables for variables, _, _ in calls] == names
        assert [[format_polynomial(p) for p in nonvanishing] for _, nonvanishing, _ in calls] == factors


def _x3_enclosure(monkeypatch, enclosure):
    """Make every back-substituted x3 enclosure *enclosure*."""
    real = solver._linear_solve_on_interval

    def fake(poly, var, interval, eliminated):
        return enclosure if var == "x3" else real(poly, var, interval, eliminated)

    monkeypatch.setattr(solver, "_linear_solve_on_interval", fake)


@pytest.mark.parametrize("enclosure", [(F(-2), F(-1)), (F(-1), F(0))])
def test_back_substitution_rejects_a_certainly_nonpositive_coordinate(g2, monkeypatch, enclosure):
    _x3_enclosure(monkeypatch, enclosure)
    result = solve_branches(g2, "x1 = x5 = 1, x4 = x3", (G2_SYMMETRIC_ANSATZ[1],))
    assert result.solutions == []
    assert result.cases[0].notes == "2 positive-x6 roots rejected for a nonpositive coordinate"


@pytest.mark.parametrize("enclosure", [(F(-1), F(1)), (F(0), F(1))])
def test_back_substitution_refuses_an_enclosure_that_contains_zero(g2, monkeypatch, enclosure):
    _x3_enclosure(monkeypatch, enclosure)
    with pytest.raises(DomainError, match="^x6 != 1: the enclosure of x3 contains 0; refine the root further$"):
        solve_branches(g2, "x1 = x5 = 1, x4 = x3", (G2_SYMMETRIC_ANSATZ[1],))


def test_general_case_budget_status(g2):
    result = solve_general_case(g2, GroebnerBudget(60, 2500))
    assert result.status == "budget_exceeded"
    assert result.solutions == []
    assert result.cases[0].status == "budget_exceeded"
    notes = result.cases[0].notes
    assert "oracle" in notes
    assert "pairs budget after 60 pairs" in notes


_PRECISION = r"^precision must lie in \(0, 1\)$"


@pytest.mark.parametrize("tol", [0.0, 1.0])
def test_oracle_rejects_a_tolerance_outside_the_unit_interval(tol):
    with pytest.raises(ConfigurationError, match=_PRECISION):
        newton_oracle(root_system("A2"), 10, seed=1, tol=tol)


def test_oracle_a1():
    a1 = root_system("A1")
    result = newton_oracle(a1, starts=10, seed=3)
    assert len(result.solutions) == 1
    assert float(result.solutions[0].residual) == 0.0


def test_oracle_a2(a2):
    result = newton_oracle(a2, starts=20_000, seed=1)
    assert len(result.solutions) == 2
    kaehler = [s for s in result.solutions if s.kaehler]
    normal = [s for s in result.solutions if not s.kaehler]
    assert len(kaehler) == 1 and len(normal) == 1
    # the non-Kaehler class is the normal metric
    xs = [float(v) for v in normal[0].metric.x]
    assert all(abs(v - xs[0]) < 1e-9 for v in xs)


def test_oracle_and_classify_full_find_one_kaehler_class_on_a3():
    a3 = root_system("A3")
    oracle = newton_oracle(a3, 3000, seed=1)
    assert sum(s.kaehler for s in oracle.solutions) == 1
    full = solver.classify_full(a3, 3000, seed=1)
    [ke] = [s for s in full.solutions if s.kaehler]
    assert ke.provenance == "algebraic"


def test_oracle_matches_ansatz(g2, ansatz_result):
    oracle = newton_oracle(g2, starts=20_000, seed=1)
    assert len(oracle.solutions) == 3
    oracle_classes = {s.isometry_class for s in oracle.solutions}
    for sol in ansatz_result.solutions:
        assert sol.isometry_class in oracle_classes
    # coordinates agree with the exact pipeline to oracle precision
    for sol in ansatz_result.solutions:
        twin = min(
            oracle.solutions,
            key=lambda s: max(abs(float(a) - float(b)) for a, b in zip(s.metric.x, sol.metric.x)),
        )
        assert all(
            abs(float(a) - float(b)) < 1e-6 for a, b in zip(twin.metric.x, sol.metric.x)
        )


def test_oracle_output_is_pinned(g2):
    # recorded from random.Random(1) starts, rows stopping at the positivity
    # cutoff; the kernel works row by row, so iterates and convergent points
    # must not move by one bit
    result = newton_oracle(g2, starts=2000, seed=1)
    assert result.cases[0].notes.startswith("2000 starts, seed 1, 390 convergent, 3 classes;")
    pinned = [
        (
            "0.333333333,0.111111111,0.444444444,0.555555556,0.666666667,1",
            "(1.0, 0.16666666666665259, 0.8333333333333137, 0.6666666666666164, 0.49999999999993694, 1.5000000000000009)",
            "3.086420008457935e-14",
        ),
        (
            "0.727003339,1,1,0.212394631,0.977109349,0.977109349",
            "(1.0, 0.21737038078158807, 1.023426908102568, 1.0234269081025675, 0.9999999999999989, 0.7440347799024186)",
            "4.996003610813204e-16",
        ),
        (
            "0.558783892,0.15435849,0.578187834,0.578187834,0.558783892,1",
            "(1.0, 0.276240048924203, 1.0347253080006078, 1.03472530800059, 0.9999999999999468, 1.7896006223103245)",
            "1.7763568394002505e-15",
        ),
    ]
    assert [(s.isometry_class, repr(s.metric.x), repr(s.residual)) for s in result.solutions] == pinned


def test_oracle_note_accounts_for_every_start(g2):
    result = newton_oracle(g2, starts=10_000, seed=1)
    notes = result.cases[0].notes
    assert notes == (
        "10000 starts, seed 1, 1932 convergent, 3 classes; rejected: 0 non-finite, "
        "0 singular Jacobian, 0 iteration cap, 8068 non-positive coordinate, "
        "437 residual >= tol; basin hits per class: 795 / 450 / 250"
    )
    # every start is convergent or rejected before the residual check; every
    # convergent point is a residual rejection or a basin hit
    starts, _seed, convergent, classes, *rest = (int(n) for n in re.findall(r"\d+", notes))
    newton, residual, hits = rest[:4], rest[4], rest[5:]
    assert len(hits) == classes
    assert convergent + sum(newton) == starts
    assert residual + sum(hits) == convergent


@pytest.mark.parametrize(
    "run, message",
    [
        ({"seed": -1}, "^seed must be >= 0$"),
        ({"starts": 0}, "^starts must be >= 1$"),
        ({"tol": 0.0}, _PRECISION),
        ({"tol": 1.0}, _PRECISION),
    ],
    ids=["seed", "starts", "tol0", "tol1"],
)
def test_classify_full_checks_the_oracle_run_before_the_exact_branches(g2, monkeypatch, run, message):
    # the oracle would reject the run too, but only after the ansatz and the
    # budgeted general attempt
    def reached(*args, **kwargs):
        raise AssertionError("the exact branches ran before the oracle run was checked")

    monkeypatch.setattr(solver, "solve_symmetric_ansatz", reached)
    with pytest.raises(ConfigurationError, match=message):
        solver.classify_full(g2, **{"starts": 5, "seed": 1, **run})


def test_record_making_calls_derive_the_root_data_once(g2, monkeypatch):
    # each call that makes solution records derives the triples, the Weyl
    # permutations and the Kaehler-Einstein metric once, not once per record
    counts = Counter()

    def counted(name):
        derive = getattr(solver, name)

        def wrapper(spec):
            counts[name] += 1
            return derive(spec)

        return wrapper

    for name in ("triple_tensor", "weyl_orbit_permutations", "kaehler_einstein_metric"):
        monkeypatch.setattr(solver, name, counted(name))
    once = {"triple_tensor": 1, "weyl_orbit_permutations": 1, "kaehler_einstein_metric": 1}
    oracle = newton_oracle(g2, starts=2000, seed=1)
    assert len(oracle.solutions) == 3
    # build_system derives the triples of the oracle's x1 = 1 chart
    assert counts == once | {"triple_tensor": 2}
    counts.clear()
    ansatz = solve_symmetric_ansatz(g2)
    assert len(ansatz.solutions) == 2
    # build_system derives the triples of each branch's slice
    assert counts == once | {"triple_tensor": 1 + len(G2_SYMMETRIC_ANSATZ)}
    counts.clear()
    classify(oracle.solutions + ansatz.solutions, g2)
    assert counts == {"weyl_orbit_permutations": 1}


def test_classify_merges_weyl_copies(g2):
    ke = kaehler_einstein_solution(g2)
    copies = []
    for sigma in weyl_orbit_permutations(g2):
        moved = apply_permutation(sigma, ke.metric.x)
        scale = moved[0]
        gauge = tuple(v / scale for v in moved)
        metric = InvariantMetric.exact(gauge)
        k, residual = einstein_residual(metric, triple_tensor(g2))
        copies.append(
            ke.__class__(
                metric=metric, k=k, kaehler=True, isometry_class="",
                provenance="algebraic", residual=residual,
            )
        )
    merged = classify(copies, g2)
    assert len(merged) == 1
    assert merged[0].kaehler


def test_classify_prefers_an_exact_member_under_the_first_members_id(g2):
    ke = kaehler_einstein_solution(g2)
    # 3e-8 relative moves the 9-digit class id but not the 1e-6 class
    nudged = InvariantMetric.floating((float(ke.metric.x[0]) * (1 + 3e-8),) + ke.metric.x[1:])
    k, residual = einstein_residual(nudged, triple_tensor(g2))
    copy = ke.__class__(
        metric=nudged, k=k, kaehler=True, isometry_class="", provenance="numeric", residual=residual,
    )
    copy_id = classify([copy], g2)[0].isometry_class
    assert copy_id != ke.isometry_class
    merged = classify([copy, ke], g2)
    assert len(merged) == 1
    rep = merged[0]
    assert rep.metric == ke.metric
    assert rep.provenance == "algebraic"
    assert rep.isometry_class == copy_id


def test_classify_keeps_distinct_classes(g2, ansatz_result):
    merged = classify(list(ansatz_result.solutions) + [kaehler_einstein_solution(g2)], g2)
    assert len(merged) == 3
    assert sum(1 for s in merged if s.kaehler) == 1


def test_canonical_vector_is_permutation_invariant(g2):
    values = (1.0, 0.2762, 1.0347, 1.0347, 1.0, 1.7896)
    permutations = weyl_orbit_permutations(g2)
    base = canonical_vector(permutations, values)
    for sigma in permutations:
        moved = apply_permutation(sigma, values)
        assert canonical_vector(permutations, moved) == base


@pytest.mark.parametrize("label", ["G2", "A3", "B3", "C3"])
def test_canonical_vector_is_stable_under_rounding_noise(label):
    """Noise on a repeated entry must not pick another orbit element."""
    spec = root_system(label)
    permutations = weyl_orbit_permutations(spec)
    exact = kaehler_einstein_metric(spec).x
    target = canonical_vector(permutations, exact)
    rng = random.Random(1)
    for _ in range(200):
        noisy = tuple(float(v) * (1 + 1e-12 * rng.uniform(-1, 1)) for v in exact)
        canon = canonical_vector(permutations, noisy)
        assert all(abs(p - q) <= solver._CLASS_TOL for p, q in zip(canon, target))


def test_solution_set_serialization(ansatz_result):
    payload = solution_set_to_dict(ansatz_result)
    assert payload["group"] == "G2"
    assert {c["name"] for c in payload["cases"]} >= {"x6 = 1", "x6 != 1"}
    assert len(payload["solutions"]) == 2
    for record in payload["solutions"]:
        assert set(record) == {"x", "k", "kaehler", "class", "provenance", "residual"}
        assert len(record["x"]) == 6
    solutions = classify([kaehler_einstein_solution(root_system("G2"))], root_system("G2"))
    ke = solution_set_to_dict(SolutionSet("G2", "per-solution gauge", solutions))
    assert ke["solutions"][0]["x"] == ["3", "1", "4", "5", "6", "9"]
    assert ke["solutions"][0]["k"] == "1/12"
    assert ke["solutions"][0]["residual"] == "0"
