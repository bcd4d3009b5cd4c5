"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`."""

import json
import random
import time
from fractions import Fraction as F

import sympy

from flagein.cli import main as cli_main
from flagein.curvature import (
    InvariantMetric,
    _ricci_values,
    apply_permutation,
    einstein_residual,
    kaehler_einstein_metric,
    ricci,
)
from flagein.isotropy import triple_tensor
from flagein.polyalg.groebner import (
    GroebnerBudget,
    buchberger,
    reduce_poly,
    saturate,
)
from flagein.polyalg.poly import (
    LaurentPoly,
    MultiPoly,
    TermOrder,
    parse_polynomial_file,
)
from flagein.polyalg.realroots import sturm_isolate
from flagein.rootsys import (
    killing_form,
    positive_roots,
    root_system,
    weyl_orbit_permutations,
)
from flagein.solver import (
    G2_GENERAL_CASE,
    build_system,
    classify_full,
    solve_general_case,
)

from conftest import all_roots, at_x6_equal_one, s_polynomial

GROUPS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")

_state: dict = {}


def _report(number: int, ok: bool, detail: str):
    print(f"\nacceptance criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _cli_json(capsys, *argv) -> tuple[int, dict]:
    code = cli_main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_exact_structure_constants(capsys):
    t0 = time.time()
    code, payload = _cli_json(capsys, "triples", "G2")
    elapsed = time.time() - t0
    values = {tuple(r["indices"]): r["value"] for r in payload["triples"]}
    ok = (
        code == 0
        and values == {
            (1, 2, 3): "1/4",
            (2, 4, 5): "1/4",
            (3, 4, 6): "1/4",
            (1, 5, 6): "1/4",
            (2, 3, 4): "1/3",
        }
        and elapsed < 1.0
    )
    _report(1, ok, f"five exact triples in {elapsed:.3f}s")


def test_criterion_02_kaehler_einstein_reproduction(capsys):
    t0 = time.time()
    code_a, kaehler = _cli_json(capsys, "kaehler", "G2")
    code_b, ricci_report = _cli_json(capsys, "ricci", "G2", "--metric", "3,1,4,5,6,9")
    elapsed = time.time() - t0
    ok = (
        code_a == 0
        and code_b == 0
        and kaehler["metric"] == ["3", "1", "4", "5", "6", "9"]
        and ricci_report["ricci"] == ["1/12"] * 6
        and ricci_report["residual"] == "0"
        and elapsed < 1.0
    )
    _report(2, ok, f"metric (3,1,4,5,6,9), all r_i = 1/12, residual 0, {elapsed:.3f}s")


def _closed_form_components(xs):
    x1, x2, x3, x4, x5, x6 = xs
    return [
        F(1, 2) / x1
        + F(1, 16) * (x1 / (x2 * x3) - x2 / (x1 * x3) - x3 / (x1 * x2))
        + F(1, 16) * (x1 / (x5 * x6) - x5 / (x1 * x6) - x6 / (x1 * x5)),
        F(1, 2) / x2
        + F(1, 16) * (x2 / (x1 * x3) - x1 / (x2 * x3) - x3 / (x1 * x2))
        + F(1, 12) * (x2 / (x3 * x4) - x3 / (x2 * x4) - x4 / (x2 * x3))
        + F(1, 16) * (x2 / (x4 * x5) - x4 / (x2 * x5) - x5 / (x2 * x4)),
        F(1, 2) / x3
        + F(1, 16) * (x3 / (x1 * x2) - x2 / (x1 * x3) - x1 / (x2 * x3))
        + F(1, 12) * (x3 / (x2 * x4) - x2 / (x3 * x4) - x4 / (x2 * x3))
        + F(1, 16) * (x3 / (x4 * x6) - x4 / (x3 * x6) - x6 / (x3 * x4)),
        F(1, 2) / x4
        + F(1, 12) * (x4 / (x2 * x3) - x2 / (x3 * x4) - x3 / (x2 * x4))
        + F(1, 16) * (x4 / (x2 * x5) - x2 / (x4 * x5) - x5 / (x2 * x4))
        + F(1, 16) * (x4 / (x3 * x6) - x3 / (x4 * x6) - x6 / (x3 * x4)),
        F(1, 2) / x5
        + F(1, 16) * (x5 / (x1 * x6) - x1 / (x5 * x6) - x6 / (x1 * x5))
        + F(1, 16) * (x5 / (x2 * x4) - x2 / (x4 * x5) - x4 / (x2 * x5)),
        F(1, 2) / x6
        + F(1, 16) * (x6 / (x1 * x5) - x1 / (x5 * x6) - x5 / (x1 * x6))
        + F(1, 16) * (x6 / (x3 * x4) - x3 / (x4 * x6) - x4 / (x3 * x6)),
    ]


def test_criterion_03_symbolic_ricci_identity():
    t0 = time.time()
    names = tuple(f"x{i + 1}" for i in range(6))
    atoms = [LaurentPoly.variable(v, names) for v in names]
    printed = _closed_form_components(atoms)
    computed = _ricci_values(atoms, triple_tensor(root_system("G2")))
    identity = True
    for a, b in zip(computed, printed):
        difference, _ = (a - b).cleared()
        identity = identity and difference.is_zero()
    elapsed = time.time() - t0
    ok = identity and elapsed < 10.0
    _report(3, ok, f"six symbolic components match the closed forms exactly, {elapsed:.3f}s")


EXPECTED_DEG14 = [
    28431, -589032, 5435343, -29379024, 100757208, -224163176, 336260186,
    -371473808, 339968604, -262478048, 152856152, -69550016, 35706576,
    -17407872, 3888000,
]


def _fresh_symmetric_elimination():
    system = build_system(
        root_system("G2"),
        normalization={"x1": 1, "x5": 1},
        equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    names = system.variables
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(MultiPoly.variable("x6", names) - MultiPoly.constant(1, names))
    return saturate(list(system.polynomials), constraints, GroebnerBudget())


def test_criterion_04_elimination_polynomial():
    t0 = time.time()
    basis = _fresh_symmetric_elimination()
    elapsed = time.time() - t0
    univariate = [g for g in basis.generators if g.support_vars() == ("x6",)]
    ok = basis.complete and len(univariate) == 1
    if ok:
        coeffs = [int(c) for c in reversed(univariate[0].univariate_in("x6"))]
        ok = coeffs == EXPECTED_DEG14 and elapsed < 60.0
    _report(4, ok, f"degree-14 polynomial, 15 exact integer coefficients, {elapsed:.1f}s")


def test_criterion_05_isolated_metrics(ansatz_result):
    solutions = sorted(ansatz_result.solutions, key=lambda s: s.metric.x[5])
    expected = [
        (0.7440, 0.2173, 1.0234, 0.4269),
        (1.7896, 0.2762, 1.0347, 0.3560),
    ]
    ok = len(solutions) == 2
    details = []
    for solution, (x6, x2, x3, k) in zip(solutions, expected):
        xs = [float(v) for v in solution.metric.x]
        ok = ok and abs(xs[5] - x6) < 1e-4
        ok = ok and abs(xs[1] - x2) < 1e-4
        ok = ok and abs(xs[2] - x3) < 1e-4
        ok = ok and abs(float(solution.k) - k) < 1e-4
        ok = ok and float(solution.residual) < 1e-10
        details.append(f"x6={xs[5]:.4f} k={float(solution.k):.4f}")
    _report(5, ok, "two isolated metrics: " + "; ".join(details))


def test_criterion_06_degenerate_branch():
    golden = parse_polynomial_file(
        open("tests/data/g2_symmetric_system.txt").read(), ("x2", "x3", "x6")
    )
    basis = saturate(
        [at_x6_equal_one(p) for p in golden], [MultiPoly.variable(v, ("x3", "x2")) for v in ("x3", "x2")]
    )
    quadratic = next(
        (g for g in basis.generators if g.support_vars() == ("x2",)), None
    )
    ok = basis.complete and quadratic is not None
    if ok:
        coeffs = quadratic.univariate_in("x2")
        content = quadratic.content()
        normalized = [c / content for c in coeffs]
        ok = normalized == [F(9), F(-20), F(15)]
        ok = ok and sturm_isolate(coeffs) == []
    _report(6, ok, "x6 = 1 branch gives 15*x2^2 - 20*x2 + 9 with zero certified real roots")


def test_criterion_07_full_classification():
    t0 = time.time()
    result = classify_full(root_system("G2"), starts=100_000, seed=1)
    elapsed = time.time() - t0
    _state["classification"] = result
    kaehler = sum(1 for s in result.solutions if s.kaehler)
    ok = (
        len(result.solutions) == 3
        and kaehler == 1
        and elapsed < 600.0
    )
    _report(
        7,
        ok,
        f"{len(result.solutions)} isometry classes ({kaehler} Kaehler), "
        f"100000 oracle starts, {elapsed:.0f}s",
    )


def test_criterion_08_simply_laced_sanity():
    a2 = root_system("A2")
    g2 = root_system("G2")
    _, residual_a2 = einstein_residual(InvariantMetric.exact([1, 1, 1]), triple_tensor(a2))
    ke_a2 = kaehler_einstein_metric(a2)
    _, residual_g2 = einstein_residual(InvariantMetric.exact([1] * 6), triple_tensor(g2))
    ok = (
        residual_a2 == 0
        and ke_a2.x == (F(1), F(1), F(2))
        and residual_g2 == F(1, 12)
    )
    _report(8, ok, "A2 normal metric Einstein, KE = (1,1,2); G2 normal residual exactly 1/12")


def test_criterion_09a_killing_identity_suite():
    rng = random.Random(901)
    cases = 0
    for _ in range(200):
        spec = root_system(rng.choice(GROUPS))
        form = killing_form(spec)
        roots = all_roots(spec)
        alpha = rng.choice(roots)
        assert sum(form.pair_roots(alpha, beta) ** 2 for beta in roots) == form.length_sq(alpha)
        cases += 1
    _report(9, cases >= 200, f"Killing identity: {cases} randomized cases (part a)")


def test_criterion_09b_triple_symmetry_and_weyl_invariance():
    rng = random.Random(902)
    cases = 0
    for _ in range(200):
        spec = root_system(rng.choice(GROUPS))
        entries = triple_tensor(spec).entries
        # one entry per unordered triple: keys are strictly increasing
        assert all(list(key) == sorted(set(key)) for key, _ in entries)
        sigma = rng.choice(weyl_orbit_permutations(spec))
        assert tuple(sorted((tuple(sorted(sigma[i] for i in key)), v) for key, v in entries)) == entries
        cases += 1
    _report(9, cases >= 200, f"triple symmetry + Weyl invariance: {cases} cases (part b)")


def test_criterion_09c_ricci_homogeneity():
    rng = random.Random(903)
    cases = 0
    for _ in range(200):
        spec = root_system(rng.choice(GROUPS))
        s = len(positive_roots(spec))
        triples = triple_tensor(spec)
        x = [F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(s)]
        c = F(rng.randint(1, 40), rng.randint(1, 40))
        base = ricci(InvariantMetric.exact(x), triples).r
        scaled = ricci(InvariantMetric.exact([c * v for v in x]), triples).r
        assert scaled == tuple(v / c for v in base)
        cases += 1
    _report(9, cases >= 200, f"Ricci homogeneity r(cx) = r(x)/c: {cases} cases (part c)")


def test_criterion_09d_weyl_equivariance_of_solutions():
    rng = random.Random(904)
    cases = 0
    for _ in range(200):
        spec = root_system(rng.choice(GROUPS) if rng.random() < 0.5 else "G2")
        s = len(positive_roots(spec))
        triples = triple_tensor(spec)
        x = tuple(F(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(s))
        sigma = rng.choice(weyl_orbit_permutations(spec))
        base = ricci(InvariantMetric.exact(x), triples).r
        moved = ricci(InvariantMetric.exact(apply_permutation(sigma, x)), triples).r
        assert moved == apply_permutation(sigma, base)
        cases += 1
    _report(9, cases >= 200, f"Weyl equivariance of Ricci components: {cases} cases (part d)")


def test_criterion_09e_groebner_certificates():
    rng = random.Random(905)
    variables = ("x", "y")
    order = TermOrder("lex", variables)
    cases = 0
    while cases < 200:
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 2), rng.randint(0, 2))
                coeff = F(rng.randint(-4, 4))
                if coeff:
                    terms[exp] = terms.get(exp, F(0)) + coeff
            poly = MultiPoly(variables, terms)
            if not poly.is_zero():
                gens.append(poly)
        if not gens:
            continue
        basis = buchberger(gens, order, GroebnerBudget(max_pairs=3000))
        if not basis.complete:
            continue
        for g in gens:
            assert reduce_poly(g, basis.generators, order).is_zero()
        for a in range(len(basis.generators)):
            for b in range(a + 1, len(basis.generators)):
                s = s_polynomial(basis.generators[a], basis.generators[b], order)
                assert reduce_poly(s, basis.generators, order).is_zero()
        assert buchberger(basis.generators, order).generators == basis.generators
        cases += 1
    _report(9, cases >= 200, f"Groebner self-reduction + S-polynomial vanishing: {cases} cases (part e)")


def test_criterion_09f_sturm_certificates():
    rng = random.Random(906)
    x = sympy.Symbol("x")
    cases = 0
    while cases < 200:
        degree = rng.randint(1, 6)
        coeffs = [F(rng.randint(-9, 9)) for _ in range(degree)] + [F(rng.randint(1, 9))]
        if all(c == 0 for c in coeffs):
            continue
        intervals = sturm_isolate(coeffs)
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi <= b.lo
        assert len(intervals) == sympy.Poly([int(c) for c in reversed(coeffs)], x).count_roots()
        for iv in intervals:
            if not iv.is_exact:
                lo = sum(c * iv.lo**n for n, c in enumerate(iv.poly))
                hi = sum(c * iv.hi**n for n, c in enumerate(iv.poly))
                assert lo * hi < 0
        cases += 1
    _report(9, cases >= 200, f"Descartes disjointness + count against sympy: {cases} cases (part f)")


PUBLISHED_POSITIVE_X6 = [
    0.1101296649906623, 0.1276467609933986, 0.1654266507070432,
    0.2010643285289733, 0.3065328288396123, 0.5181203151843693,
    0.5477334830916693, 1.82570544045531482, 1.93005363946047411,
    3.26229332037786929, 4.97353263662529741, 6.04497519429874693,
    7.83411966130276958, 9.08020559296887189,
]


def test_criterion_10_stretch_general_case():
    # criterion 7's classify_full already ran the general branch; reuse its record
    classification = _state.get("classification")
    if classification is None:
        classification = classify_full(root_system("G2"), starts=100_000, seed=1)
    record = next(c for c in classification.cases if c.name == G2_GENERAL_CASE[0].name)
    if record.status == "complete":
        # the degree-90 check needs the branch's own solutions, before classification merges them
        result = solve_general_case(root_system("G2"))
        record = result.cases[0]
        ok = record.elimination_degree == 90 and record.positive_roots == 14
        # the surviving exact solutions are the six Kaehler-Einstein copies
        exact = [s for s in result.solutions if s.metric.is_exact]
        ok = ok and len(exact) == 6 and all(s.kaehler for s in exact)
        detail = "exact elimination completed; six rational solutions, 14 rejected roots"
    else:
        ok = record.status == "budget_exceeded"
        ok = ok and "oracle" in record.notes
        ok = ok and len(classification.solutions) == 3
        detail = (
            "budget status emitted and documented; classification still finds 3 classes "
            "via the oracle (stretch elimination not desk-scale)"
        )
    _report(10, ok, detail)
