import re
from fractions import Fraction as F

import pytest

from flagein.curvature import InvariantMetric, apply_permutation, einstein_residual
from flagein.errors import DomainError
from flagein.isotropy import triple_tensor
from flagein.polyalg.groebner import GroebnerBudget, reduce_poly
from flagein.polyalg.poly import (
    LaurentPoly,
    MultiPoly,
    TermOrder,
    format_polynomial,
    parse_polynomial_file,
)
from flagein.rootsys import positive_roots, root_system, weyl_orbit_permutations
from flagein.solver import (
    build_system,
    canonical_vector,
    classify,
    kaehler_einstein_solution,
    newton_oracle,
    solution_set_to_dict,
    solve_general_case,
    solve_symmetric_ansatz,
)

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
    from flagein.curvature import ricci_symbolic

    system = build_system(g2, normalization={"x1": 1})
    free = system.variables
    atoms = {}
    for v in system.all_variables:
        if v in system.assignments:
            atoms[v] = LaurentPoly.constant(system.assignments[v], free)
        else:
            atoms[v] = LaurentPoly.variable(v, free)
    r = ricci_symbolic(g2, tuple(system.all_variables))
    # rebuild each component over the free variables with x1 pinned
    from flagein.curvature import _ricci_values

    values = _ricci_values([atoms[v] for v in system.all_variables], triple_tensor(g2))
    for (i, j), poly, (shift, content) in zip(system.pairs, system.polynomials, system.clearings):
        lhs = LaurentPoly(free, {tuple(e): c for e, c in poly.terms.items()})
        monomial = LaurentPoly(free, {shift: F(1)})
        assert (values[i] - values[j]) * monomial == lhs * content


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


def test_build_system_trivial_rank_one():
    a1 = root_system("A1")
    system = build_system(a1, normalization={"x1": 1})
    assert system.polynomials == ()
    assert system.variables == ()


def test_metric_values_reconstruction(g2):
    system = build_system(
        g2, normalization={"x1": 1, "x5": 1}, equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    values = system.metric_values({"x2": F(1, 2), "x3": F(2), "x6": F(3)})
    assert values == (F(1), F(1, 2), F(2), F(2), F(1), F(3))


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
    assert "x3 - x4" in check.saturations
    assert "x6 - 1" not in check.saturations


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
    substituted = [p.substitute({"x6": 1}).with_variables(("x3", "x2")) for p in golden]
    basis = saturate(
        substituted, [MultiPoly.variable(v, ("x3", "x2")) for v in ("x3", "x2")]
    )
    assert basis.complete
    stats = basis.stats
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (16, 5, 3)
    assert stats.max_coeff_bits == 13
    forms = {format_polynomial(_canonical(g)) for g in basis.generators}
    assert "15*x2^2 - 20*x2 + 9" in forms
    assert "x3 - x2" in forms
    quadratic = next(g for g in basis.generators if g.support_vars() == ("x2",))
    assert sturm_isolate(quadratic) == []


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
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (263, 142, 5)
    assert stats.max_coeff_bits == 1378
    # x3 - x4 lies in the saturated slice ideal, which is not the unit ideal
    gap = MultiPoly.variable("x3", names) - MultiPoly.variable("x4", names)
    assert reduce_poly(gap, basis.generators, basis.order).is_zero()
    assert basis.generators != [MultiPoly.constant(1, names)]


def test_x4_x3_certificate_is_unit_ideal(g2):
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
    assert (stats.pairs_processed, stats.pairs_discarded, stats.basis_size) == (73, 79, 1)
    assert stats.max_coeff_bits == 285
    assert stats.conversion == "grevlex+fglm"


def test_x4_x3_certificate_rejects_non_unit_ideal(g2, monkeypatch):
    """A complete saturation that is not the unit ideal refutes the ansatz."""
    from flagein import solver
    from flagein.polyalg.groebner import GroebnerBasis

    real_saturate = solver.saturate

    def fake_saturate(generators, nonvanishing, budget=None):
        names = generators[0].vars
        if names == ("x2", "x3", "x4", "x6"):
            gap = MultiPoly.variable("x3", names) - MultiPoly.variable("x4", names)
            return GroebnerBasis([gap], TermOrder("lex", names))
        return real_saturate(generators, nonvanishing, budget)

    monkeypatch.setattr(solver, "saturate", fake_saturate)
    # a budget no other call uses, so no earlier result is reused
    with pytest.raises(DomainError, match="x3 = x4 is not implied"):
        solve_symmetric_ansatz(g2, GroebnerBudget(max_pairs=99_999))


def test_general_case_budget_status(g2):
    result = solve_general_case(g2, GroebnerBudget(max_pairs=60, max_coeff_bits=2500))
    assert result.status == "budget_exceeded"
    assert result.solutions == []
    assert result.cases[0].status == "budget_exceeded"
    notes = result.cases[0].notes
    assert "oracle" in notes
    assert "pairs budget after 60 pairs" in notes


def test_oracle_a1():
    a1 = root_system("A1")
    system = build_system(a1, normalization={"x1": 1})
    result = newton_oracle(system, starts=10, seed=3)
    assert len(result.solutions) == 1
    assert float(result.solutions[0].residual) == 0.0


def test_oracle_a2(a2):
    system = build_system(a2, normalization={"x1": 1})
    result = newton_oracle(system, starts=20_000, seed=1)
    assert len(result.solutions) == 2
    kaehler = [s for s in result.solutions if s.kaehler]
    normal = [s for s in result.solutions if not s.kaehler]
    assert len(kaehler) == 1 and len(normal) == 1
    # the non-Kaehler class is the normal metric
    xs = [float(v) for v in normal[0].metric.x]
    assert all(abs(v - xs[0]) < 1e-9 for v in xs)


def test_oracle_matches_ansatz(g2, ansatz_result):
    system = build_system(g2, normalization={"x1": 1})
    oracle = newton_oracle(system, starts=20_000, seed=1)
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


def test_oracle_fixed_point_at_exact_solution(g2):
    system = build_system(g2, normalization={"x1": 1})
    point = (1 / 3, 4 / 3, 5 / 3, 2.0, 3.0)  # gauge-fixed Kaehler-Einstein values
    result = newton_oracle(system, starts=1, seed=0, tol=1e-12, initial_points=[point])
    ke = next(s for s in result.solutions if s.kaehler)
    assert all(abs(float(a) - b) < 1e-9 for a, b in zip(ke.metric.x, (1.0,) + point))


def test_oracle_output_is_pinned(g2):
    # recorded before the Newton kernel was vectorized; the kernel works row
    # by row, so iterates and convergent points must not move by one bit
    result = newton_oracle(build_system(g2, normalization={"x1": 1}), starts=2000, seed=1)
    assert result.cases[0].notes.startswith("2000 starts, seed 1, 409 convergent, 3 classes;")
    pinned = [
        (
            "0.333333333,0.111111111,0.444444444,0.555555556,0.666666667,1",
            "(1.0, 0.16666666666663854, 0.833333333333286, 0.6666666666665844, 0.4999999999998876, 1.4999999999999762)",
            "3.086420008457935e-14",
        ),
        (
            "0.727003339,1,1,0.212394631,0.977109349,0.977109349",
            "(1.0, 0.21737038078158796, 1.0234269081025682, 1.023426908102568, 0.9999999999999994, 0.7440347799024191)",
            "5.551115123125783e-16",
        ),
        (
            "0.558783892,0.15435849,0.578187834,0.578187834,0.558783892,1",
            "(1.0, 0.27624004892420795, 1.0347253080006227, 1.034725308000619, 0.9999999999999893, 1.7896006223103664)",
            "4.440892098500626e-16",
        ),
    ]
    assert [(s.isometry_class, repr(s.metric.x), repr(s.residual)) for s in result.solutions] == pinned


def test_oracle_note_accounts_for_every_start(g2):
    result = newton_oracle(build_system(g2, normalization={"x1": 1}), starts=10_000, seed=1)
    notes = result.cases[0].notes
    assert notes == (
        "10000 starts, seed 1, 2027 convergent, 3 classes; rejected: 0 non-finite, "
        "0 singular Jacobian, 10 iteration cap, 7963 non-positive coordinate, "
        "567 residual >= tol; basin hits per class: 774 / 431 / 255"
    )
    # every start is convergent or rejected before the residual check; every
    # convergent point is a residual rejection or a basin hit
    starts, _seed, convergent, classes, *rest = (int(n) for n in re.findall(r"\d+", notes))
    newton, residual, hits = rest[:4], rest[4], rest[5:]
    assert len(hits) == classes
    assert convergent + sum(newton) == starts
    assert residual + sum(hits) == convergent


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
    assert len(merged.solutions) == 1
    assert merged.solutions[0].kaehler


def test_classify_keeps_distinct_classes(g2, ansatz_result):
    merged = classify(list(ansatz_result.solutions) + [kaehler_einstein_solution(g2)], g2)
    assert len(merged.solutions) == 3
    assert sum(1 for s in merged.solutions if s.kaehler) == 1


def test_canonical_vector_is_permutation_invariant(g2):
    values = (1.0, 0.2762, 1.0347, 1.0347, 1.0, 1.7896)
    base = canonical_vector(g2, values)
    for sigma in weyl_orbit_permutations(g2):
        moved = apply_permutation(sigma, values)
        assert canonical_vector(g2, moved) == base


def test_solution_set_serialization(ansatz_result):
    payload = solution_set_to_dict(ansatz_result)
    assert payload["group"] == "G2"
    assert {c["name"] for c in payload["cases"]} >= {"x6 = 1", "x6 != 1"}
    assert len(payload["solutions"]) == 2
    for record in payload["solutions"]:
        assert set(record) == {"x", "k", "kaehler", "class", "provenance", "residual"}
        assert len(record["x"]) == 6
    ke = solution_set_to_dict(
        classify([kaehler_einstein_solution(root_system("G2"))], root_system("G2"))
    )
    assert ke["solutions"][0]["x"] == ["3", "1", "4", "5", "6", "9"]
    assert ke["solutions"][0]["k"] == "1/12"
    assert ke["solutions"][0]["residual"] == "0"
