import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from flagein.errors import DomainError
from flagein.polyalg import groebner
from flagein.polyalg.groebner import (
    _MIN_FIELD_BITS,
    GroebnerBudget,
    GroebnerStats,
    _fglm,
    _Monomials,
    _poly_from,
    _poly_to,
    buchberger,
    reduce_poly,
    saturate,
)
from flagein.polyalg.poly import (
    MultiPoly,
    TermOrder,
    format_polynomial,
    parse_polynomial,
    parse_polynomial_file,
)

from conftest import s_polynomial

VARS = ("x", "y")
LEX = TermOrder("lex", VARS)


def test_linear_triangular_system():
    basis = buchberger(
        [parse_polynomial("x - 1", VARS), parse_polynomial("y - x", VARS)], LEX
    )
    assert sorted(format_polynomial(g, LEX) for g in basis.generators) == ["x - 1", "y - 1"]


def test_already_a_basis():
    f = parse_polynomial("x^2 + 1", ("x",))
    basis = buchberger([f], TermOrder("lex", ("x",)))
    assert basis.generators == [f]


def test_single_step_reduction():
    r = reduce_poly(
        parse_polynomial("x^2*y", VARS), [parse_polynomial("x*y - 1", VARS)], LEX
    )
    assert format_polynomial(r, LEX) == "x"


def test_empty_generators_rejected():
    with pytest.raises(DomainError):
        buchberger([], LEX)


def test_classic_intersection():
    # two conics with two intersection points: lex basis is triangular
    f = parse_polynomial("x^2 + y^2 - 4", VARS)
    g = parse_polynomial("x*y - 1", VARS)
    basis = buchberger([f, g], LEX)
    assert basis.complete
    univariate = [p for p in basis.generators if p.support_vars() == ("y",)]
    assert len(univariate) == 1
    assert univariate[0].degree_in("y") == 4


def _random_ideal(rng, n_gens=3, max_degree=2):
    gens = []
    for _ in range(n_gens):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, max_degree), rng.randint(0, max_degree))
            coeff = F(rng.randint(-4, 4))
            if coeff:
                terms[exp] = terms.get(exp, F(0)) + coeff
        poly = MultiPoly(VARS, terms)
        if not poly.is_zero():
            gens.append(poly)
    return gens or [MultiPoly.constant(1, VARS)]


@pytest.mark.parametrize("order_kind", ["lex", "grevlex"])
def test_groebner_certificates_randomized(order_kind):
    """S-polynomials reduce to zero, inputs are members, bases are reduced."""
    order = TermOrder(order_kind, VARS)
    rng = random.Random(20240 + (order_kind == "lex"))
    checked = 0
    while checked < 200:
        gens = _random_ideal(rng)
        basis = buchberger(gens, order, GroebnerBudget(max_pairs=3000))
        if not basis.complete:
            continue
        checked += 1
        for g in gens:
            assert reduce_poly(g, basis.generators, order).is_zero()
        for i in range(len(basis.generators)):
            for j in range(i + 1, len(basis.generators)):
                s = s_polynomial(basis.generators[i], basis.generators[j], order)
                assert reduce_poly(s, basis.generators, order).is_zero()
        # reduced: no term of a generator is divisible by another leading term
        leads = [order.leading(g)[0] for g in basis.generators]
        for n, g in enumerate(basis.generators):
            for exp in g.terms:
                for m, lead in enumerate(leads):
                    if m != n:
                        assert not all(a >= b for a, b in zip(exp, lead))


def test_idempotence():
    rng = random.Random(7)
    for _ in range(50):
        gens = _random_ideal(rng)
        basis = buchberger(gens, LEX, GroebnerBudget(max_pairs=3000))
        if not basis.complete:
            continue
        again = buchberger(basis.generators, LEX)
        assert again.generators == basis.generators


def test_determinism():
    gens = [
        parse_polynomial("x^2*y - 2*x + 1", VARS),
        parse_polynomial("x*y^2 + y - 3", VARS),
    ]
    first = buchberger(gens, LEX)
    second = buchberger([MultiPoly(p.vars, dict(p.terms)) for p in gens], LEX)
    assert [p.terms for p in first.generators] == [p.terms for p in second.generators]


def test_budget_exceeded_status():
    gens = [
        parse_polynomial("x^3*y^2 - x + 1", VARS),
        parse_polynomial("x^2*y^3 + y - 2", VARS),
        parse_polynomial("x^4 - y^4 + x*y", VARS),
    ]
    result = buchberger(gens, LEX, GroebnerBudget(max_pairs=1))
    assert result.status == "budget_exceeded"
    assert not result.complete


def test_budget_names_the_limit():
    gens = [
        parse_polynomial("x^3*y^2 - x + 1", VARS),
        parse_polynomial("x^2*y^3 + y - 2", VARS),
    ]
    assert buchberger(gens, LEX).stats.budget_limit is None
    assert buchberger(gens, LEX, GroebnerBudget(max_pairs=1)).stats.budget_limit == "pairs"
    tight = buchberger(gens, LEX, GroebnerBudget(max_coeff_bits=1))
    assert tight.status == "budget_exceeded"
    assert tight.stats.budget_limit == "coeff_bits"
    assert tight.stats.max_coeff_bits > 1


def _interreduction_ideal():
    xyz = ("x", "y", "z")
    return [
        parse_polynomial("4*x^2*z - 2*x*z^2 - 2*y", xyz),
        parse_polynomial("x^2*y^2*z^2 + 5*x^2*y*z^2 - 5/3*x*y*z^2 - 2*x^2*y", xyz),
        parse_polynomial("-1/2*x^2*z^2 + 4*x^2*z + x*z^2 - 2*y*z", xyz),
    ]


def test_budget_bounds_interreduction():
    # the grevlex pass finishes at once on this non-zero-dimensional ideal; the
    # lex pass starts from that basis as it stands, so every step of it counts
    # against the budget, and it completes within it
    gens = _interreduction_ideal()
    started = time.perf_counter()
    result = buchberger(gens, TermOrder("lex", ("x", "y", "z")), GroebnerBudget(max_pairs=60, max_coeff_bits=200))
    assert time.perf_counter() - started < 10.0
    assert result.complete
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    exprs = [sympy.sympify(format_polynomial(g).replace("^", "**")) for g in gens]
    ours = sorted(sorted(_monic(dict(g.terms)).items()) for g in result.generators)
    theirs = sorted(
        sorted(_monic({e: F(int(c.p), int(c.q)) for e, c in p.terms()}).items())
        for p in sympy.groebner(exprs, x, y, z, order="lex").polys
    )
    assert ours == theirs


def test_bit_budget_bounds_the_lex_pass():
    started = time.perf_counter()
    result = buchberger(
        _interreduction_ideal(), TermOrder("lex", ("x", "y", "z")), GroebnerBudget(max_pairs=60, max_coeff_bits=20)
    )
    assert time.perf_counter() - started < 10.0
    assert result.status == "budget_exceeded"
    assert result.stats.budget_limit == "coeff_bits"
    assert result.stats.max_coeff_bits > 20


_FGLM_BITS_IDEAL = (
    "20*x*z + 23*y + 9 + 24*z + 16*z^2",
    "21*x^2 + 15 + 10*z + 19*z^2 + 20*x",
    "25*x*z + 12*z^2 + 28 + 20*y^2 + 9*z",
)


@pytest.mark.parametrize(
    "max_coeff_bits, status, stat",
    [
        # a normal form inside FGLM trips the limit before any generator, on
        # a 25-bit reduction factor
        (24, "budget_exceeded", 25),
        # the last generator FGLM emits has 100-bit coefficients
        (99, "budget_exceeded", 100),
        (100, "complete", 100),
    ],
)
def test_bit_budget_bounds_the_fglm_pass(max_coeff_bits, status, stat, fglm_calls):
    # the grevlex pass takes 2 pairs at 12 bits; FGLM's output counts too
    gens = [parse_polynomial(t, XYZ) for t in _FGLM_BITS_IDEAL]
    basis = buchberger(gens, TermOrder("lex", XYZ), GroebnerBudget(max_coeff_bits=max_coeff_bits))
    assert (basis.status, basis.stats.max_coeff_bits, len(fglm_calls)) == (status, stat, 1)
    assert basis.stats.pairs_processed == 2
    # an overrun reports the bits that tripped it, more than its limit
    assert basis.complete or basis.stats.max_coeff_bits > max_coeff_bits


def test_pair_budget_bounds_the_lex_pass(ansatz_generators):
    # the grevlex pass stops at 24 pairs on this non-zero-dimensional ideal;
    # the lex pass must hit the pair budget, not run unbounded before it
    started = time.perf_counter()
    result = buchberger(ansatz_generators, TermOrder("lex", ("x2", "x3", "x6")), GroebnerBudget(max_pairs=40))
    assert time.perf_counter() - started < 5.0
    assert result.status == "budget_exceeded"
    assert result.stats.budget_limit == "pairs"


def test_lex_pass_from_the_grevlex_basis_is_complete(ansatz_generators, fglm_calls):
    order = TermOrder("lex", ("x2", "x3", "x6"))
    result = buchberger(ansatz_generators, order)
    assert result.complete
    assert fglm_calls == []
    basis = result.generators
    for g in ansatz_generators:
        assert reduce_poly(g, basis, order).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce_poly(s_polynomial(basis[i], basis[j], order), basis, order).is_zero()


@pytest.mark.parametrize("op", ["reduce", "buchberger"])
def test_exponent_overflow_raises(op):
    # x^256 modulo x - y^256 is y^65536, past the packed field width that
    # inputs of degree 256 get
    x_power = parse_polynomial("x^256", VARS)
    relation = parse_polynomial("x - y^256", VARS)
    with pytest.raises(DomainError):
        if op == "reduce":
            reduce_poly(x_power, [relation], LEX)
        else:
            buchberger([x_power - parse_polynomial("1", VARS), relation], LEX)


def _monic(terms):
    lead = terms[max(terms)]
    return {e: c / lead for e, c in terms.items()}


@pytest.mark.parametrize("order_kind", ["lex", "grevlex"])
def test_bases_match_sympy(order_kind):
    """Reduced bases agree with an independent implementation."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    order = TermOrder(order_kind, VARS)
    rng = random.Random(99 + (order_kind == "lex"))
    for _ in range(60):
        gens = _random_ideal(rng)
        basis = buchberger(gens, order, GroebnerBudget(max_pairs=3000))
        if not basis.complete:
            continue
        ours = sorted(
            sorted(_monic({order.key(e): c for e, c in g.terms.items()}).items())
            for g in basis.generators
        )
        exprs = [sum(c * x**e[0] * y**e[1] for e, c in g.terms.items()) for g in gens]
        theirs = sorted(
            sorted(
                _monic({order.key(e): F(int(c.p), int(c.q)) for e, c in p.terms()}).items()
            )
            for p in sympy.groebner(exprs, x, y, order=order_kind).polys
        )
        assert ours == theirs


def test_saturation_textbook():
    sat = saturate([parse_polynomial("x*y", VARS)], [parse_polynomial("x", VARS)])
    assert [format_polynomial(g) for g in sat.generators] == ["y"]


def test_saturation_by_unit_is_identity_ideal():
    f = parse_polynomial("x^2 - y", VARS)
    sat = saturate([f], [MultiPoly.constant(5, VARS)])
    assert sat.generators == buchberger([f], LEX).generators


def test_saturation_by_nothing():
    f = parse_polynomial("x^2 - y", VARS)
    assert saturate([f], []).generators == buchberger([f], LEX).generators


def test_saturation_by_zero_is_rejected():
    # t * 0 - 1 would make every ideal the unit ideal
    f = parse_polynomial("x^2 - y", VARS)
    with pytest.raises(DomainError, match="^saturation by zero$"):
        saturate([f], [parse_polynomial("x", VARS), MultiPoly(VARS)])


def test_saturation_removes_component():
    # V(x * (y - 1)) saturated by x leaves y = 1
    f = parse_polynomial("x*y - x", VARS)
    sat = saturate([f], [parse_polynomial("x", VARS)])
    assert [format_polynomial(g) for g in sat.generators] == ["y - 1"]


@pytest.fixture(scope="module")
def ansatz_generators():
    text = open("tests/data/g2_symmetric_system.txt").read()
    return parse_polynomial_file(text, ("x2", "x3", "x6"))


def _eliminate_ansatz(generators):
    names = ("x2", "x3", "x6")
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(parse_polynomial("x6 - 1", names))
    return saturate(generators, constraints)


@pytest.fixture(scope="module")
def ansatz_elimination(ansatz_generators):
    return _eliminate_ansatz(ansatz_generators)


def _stats_tuple(basis):
    s = basis.stats
    return (s.pairs_processed, s.pairs_discarded, s.basis_size, s.max_coeff_bits)


def test_ansatz_elimination_stats(ansatz_generators, fglm_calls):
    # computed afresh: the module fixture would run before the spy is in place
    assert _stats_tuple(_eliminate_ansatz(ansatz_generators)) == (107, 47, 4, 775)
    assert len(fglm_calls) == 1


@pytest.mark.parametrize(
    "max_pairs, max_coeff_bits, pinned",
    [
        (40, 2500, GroebnerStats(40, 7, 0, 93, budget_limit="pairs")),
        (60, 2500, GroebnerStats(60, 7, 0, 117, budget_limit="pairs")),
        (80, 2500, GroebnerStats(80, 7, 0, 191, budget_limit="pairs")),
        # the check inside a reduction tripped on a 502-bit reduction
        # factor, before any basis element reached 500 bits
        (250, 500, GroebnerStats(89, 7, 0, 502, budget_limit="coeff_bits")),
    ],
    ids=["pairs40", "pairs60", "pairs80", "bits500"],
)
def test_general_system_budget_stats(max_pairs, max_coeff_bits, pinned):
    """One budget bounds the whole call: the grevlex pass stops it.  Every
    budget decision rests on rational values, so no change to how the kernel
    stores or scales its integers may move these stats."""
    names = ("x2", "x3", "x4", "x5", "x6")
    gens = parse_polynomial_file(open("tests/data/g2_general_system.txt").read(), names)
    constraints = [MultiPoly.variable(v, names) for v in names] + [
        parse_polynomial(text, names) for text in ("1 - x5", "1 - x6", "x5 - x6")
    ]
    result = saturate(gens, constraints, GroebnerBudget(max_pairs, max_coeff_bits))
    assert result.status == "budget_exceeded"
    assert result.stats == pinned
    if result.stats.budget_limit == "coeff_bits":
        assert result.stats.max_coeff_bits > max_coeff_bits


def test_ansatz_elimination_degree_14(ansatz_elimination):
    assert ansatz_elimination.complete
    univariate = [g for g in ansatz_elimination.generators if g.support_vars() == ("x6",)]
    assert len(univariate) == 1
    golden = parse_polynomial_file(open("tests/data/g2_elimination_deg14.txt").read(), ("x6",))
    target = golden[0].with_variables(("x2", "x3", "x6"))
    assert univariate[0] == target


def test_ansatz_elimination_is_lex_basis(ansatz_elimination, ansatz_generators):
    order = ansatz_elimination.order
    basis = ansatz_elimination.generators
    # membership both ways certifies the conversion path
    for g in basis:
        assert not g.is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            assert reduce_poly(s, basis, order).is_zero()
    t = ("t",) + order.variables
    lifted = [g.with_variables(t) for g in ansatz_generators]
    for g in lifted:
        # original generators lie in the saturated ideal
        assert reduce_poly(
            g.with_variables(order.variables), basis, order
        ).is_zero()


def test_buchberger_on_saturated_ansatz_is_stable(ansatz_elimination):
    basis = buchberger(ansatz_elimination.generators, ansatz_elimination.order)
    assert basis.generators == ansatz_elimination.generators


def _primitive_integer(terms, order):
    """Coprime integer coefficients with a positive leading one under *order*."""
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    g = gcd(*ints.values())
    if ints[max(ints, key=order.key)] < 0:
        g = -g
    return {e: F(c // g) for e, c in ints.items()}


def _assert_basis_matches_sympy(gens, basis, kind="lex", **options):
    """Our reduced basis is sympy's, generator for generator, once both are
    scaled to primitive integer generators with a positive lead."""
    sympy = pytest.importorskip("sympy")
    names = gens[0].vars
    order = TermOrder(kind, names)
    syms = sympy.symbols(names)
    table = dict(zip(names, syms))
    exprs = [sympy.sympify(format_polynomial(g).replace("^", "**"), locals=table) for g in gens]
    ours = [g.terms for g in basis.generators]
    assert [_primitive_integer(t, order) for t in ours] == ours
    theirs = [
        _primitive_integer({e: F(int(c.p), int(c.q)) for e, c in p.terms()}, order)
        for p in sympy.groebner(exprs, *syms, order=kind, **options).polys
    ]
    assert sorted(sorted(t.items()) for t in ours) == sorted(sorted(t.items()) for t in theirs)


XYZ = ("x", "y", "z")


def _random_terms(rng, bounds):
    """A few terms with exponents below *bounds* and small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randrange(b) for b in bounds)
        terms[exp] = terms.get(exp, F(0)) + F(rng.randint(-5, 5), rng.randint(1, 3))
    return {e: c for e, c in terms.items() if c}


def _triangular_ideal(rng):
    """x^a + p(x, y, z), y^b + q(y, z), z^c + r(z) with each tail below its
    lead's degree in that variable: zero-dimensional, a lex basis as given
    but far from the reduced grevlex one."""
    a, b, c = (rng.randint(1, 3) for _ in range(3))
    gens = []
    for lead, bounds in (((a, 0, 0), (a, b, c)), ((0, b, 0), (1, b, c)), ((0, 0, c), (1, 1, c))):
        terms = _random_terms(rng, bounds)
        terms[lead] = F(rng.choice([-3, -1, 1, 2]))
        gens.append(MultiPoly(XYZ, terms))
    return gens


def _pure_power_ideal(rng):
    """v^d plus terms of lower total degree for each variable v: the grevlex
    leads are the pure powers, so the ideal is zero-dimensional."""
    gens = []
    for i in range(3):
        d = rng.randint(2, 3)
        terms = {e: c for e, c in _random_terms(rng, (d, d, d)).items() if sum(e) < d}
        lead = tuple(d if k == i else 0 for k in range(3))
        terms[lead] = F(1)
        gens.append(MultiPoly(XYZ, terms))
    return gens


def _unit_ideal(rng):
    """a, b and 1 - c a - d b for random a, b, c, d: the unit ideal, shown
    by the input interreduction or by a pair, depending on the draw."""
    a, b, c, d = (MultiPoly(XYZ, _random_terms(rng, (3, 3, 3))) for _ in range(4))
    return [a, b, MultiPoly.constant(1, XYZ) - c * a - d * b]


@pytest.mark.parametrize("make", [_triangular_ideal, _pure_power_ideal, _unit_ideal])
def test_fglm_bases_match_sympy(make, fglm_calls):
    rng = random.Random(1993)
    for _ in range(12):
        gens = make(rng)
        basis = buchberger(gens, TermOrder("lex", XYZ))
        assert basis.complete
        assert len(fglm_calls) == 1
        fglm_calls.clear()
        _assert_basis_matches_sympy(gens, basis)


def test_fglm_on_the_saturation_input_matches_sympy(ansatz_generators, fglm_calls):
    # the Rabinowitsch lift that saturate builds for the x6 != 1 branch, its
    # auxiliary variable _t spelled t
    names = ("t", "x2", "x3", "x6")
    lifted = [g.with_variables(names) for g in ansatz_generators]
    lifted.append(parse_polynomial("t*x2*x3*x6^2 - t*x2*x3*x6 - 1", names))
    # 107 pairs; one reduction in the FGLM pass needs 2500 to 3000 bits
    basis = buchberger(lifted, TermOrder("lex", names), GroebnerBudget(max_pairs=250, max_coeff_bits=10_000))
    assert basis.complete
    assert len(fglm_calls) == 1
    assert _stats_tuple(basis) == (107, 47, 4, 775)
    # sympy's default Buchberger takes several times longer on this ideal
    # than its F5B; both return the same reduced basis
    _assert_basis_matches_sympy(lifted, basis, method="f5b")


@pytest.mark.parametrize("y_degree, fits", [(4, True), (5, False)])
def test_fglm_staircase_at_the_field_width(y_degree, fits, fglm_calls):
    # A 3-bit grevlex field holds total degrees up to 7.  The lex walk visits
    # y^0, y^1, ..., and their normal forms run over the grevlex staircase of
    # x^4 + y, y^b + x up to its corner x^3 y^(b-1); shifting that normal form
    # by y reaches total degree b + 3, inside the field for b = 4 and one past
    # it for b = 5.  (The public functions size the field from the input
    # degrees, which keeps the degrees of small quotients inside it, so this
    # builds the ring directly.)
    names = ("x", "y")
    gens = [parse_polynomial(text, names) for text in ("x^4 + y", f"y^{y_degree} + x")]
    ring = _Monomials(TermOrder("grevlex", names), 3)
    target = _Monomials(TermOrder("lex", names), _MIN_FIELD_BITS)
    basis = [_poly_from(g, ring) for g in gens]  # coprime leads: already reduced
    stats = GroebnerStats()
    if not fits:
        with pytest.raises(DomainError):
            _fglm(basis, ring, target, GroebnerBudget(), stats)
        return
    lex = groebner._fglm(basis, ring, target, GroebnerBudget(), stats)
    assert len(fglm_calls) == 1
    # the lex staircase is y^0..y^15, well past total degree 7: only its
    # normal forms, which stay under the grevlex staircase, meet the 3-bit ring
    assert [_poly_to(p, target) for p in lex] == buchberger(gens, TermOrder("lex", names)).generators


@pytest.mark.parametrize(
    "texts, expected",
    [
        (("x^150", "y^150"), ["y^150", "x^150"]),
        (("x^60 + y", "y^60 + x"), ["y^3600 + y", "x + y^60"]),
    ],
)
def test_fglm_converts_large_staircases(texts, expected, fglm_calls):
    # 22,500 and 3600 standard monomials: FGLM converts any zero-dimensional
    # ideal, whatever the size of its staircase
    basis = buchberger([parse_polynomial(t, VARS) for t in texts], LEX)
    assert len(fglm_calls) == 1
    assert [format_polynomial(g, LEX) for g in basis.generators] == expected


def _divide(f, divisors, order):
    """Remainder of f by the textbook division over Fractions: take the largest
    monomial left; cancel it with the first divisor whose leading monomial
    divides it, or move it to the remainder."""
    work = dict(f.terms)
    divisors = [g for g in divisors if not g.is_zero()]
    leads = [order.leading(g) for g in divisors]
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for g, (lead, lc) in zip(divisors, leads):
            if all(a >= b for a, b in zip(m, lead)):
                shift = tuple(a - b for a, b in zip(m, lead))
                for e, v in g.terms.items():
                    if e != lead:
                        t = tuple(a + b for a, b in zip(e, shift))
                        work[t] = work.get(t, 0) - c / lc * v
                        if not work[t]:
                            del work[t]
                break
        else:
            remainder[m] = c
    return MultiPoly(f.vars, remainder)


def _xyz_polys(max_degree, max_size):
    # non-monic, with numerators and denominators large enough that the
    # fraction-free scale and the remainder's unremoved content grow over
    # many reduction steps
    coefficient = st.fractions(min_value=-1000, max_value=1000, max_denominator=60).filter(bool)
    exponent = st.tuples(*(st.integers(0, max_degree) for _ in XYZ))
    return st.dictionaries(exponent, coefficient, min_size=1, max_size=max_size).map(
        lambda terms: MultiPoly(XYZ, terms)
    )


@seed(2007)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["lex", "grevlex"]),
    _xyz_polys(8, 16),
    st.lists(_xyz_polys(2, 3), min_size=1, max_size=4),
)
def test_reduce_poly_matches_rational_division(kind, f, divisors):
    order = TermOrder(kind, XYZ)
    assert reduce_poly(f, divisors, order) == _divide(f, divisors, order)


def _ruled_out_then_found(monkeypatch):
    """Patch _reduce to record each monomial whose divisor lookup had ruled
    out every reducer of an earlier call and now finds one appended since."""
    found = []
    reduce = groebner._reduce

    def spy(work, scale, reducers, ring, max_bits=None):
        count = len(reducers.leads)
        # lookups that stopped at the end of a shorter reducer list
        stale = {
            m: k for m, k in reducers.resume.items() if k < count and not ring.divides(reducers.leads[k], m)
        }
        out = reduce(work, scale, reducers, ring, max_bits)
        found.extend(m for m, k in stale.items() if k < reducers.resume[m] < count)
        return out

    monkeypatch.setattr(groebner, "_reduce", spy)
    return found


def _four_terms(rng):
    """Up to four terms with exponents below 4 and non-zero coefficients."""
    terms = {
        tuple(rng.randrange(4) for _ in XYZ): F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))
        for _ in range(4)
    }
    return MultiPoly(XYZ, terms)


def test_divisor_memo_bases_match_sympy(monkeypatch):
    # two generators in three variables: positive-dimensional ideals, so the
    # grevlex pair loop runs to the end without FGLM
    found = _ruled_out_then_found(monkeypatch)
    order = TermOrder("grevlex", XYZ)
    rng = random.Random(1998)
    for _ in range(40):
        gens = [_four_terms(rng), _four_terms(rng)]
        # these ideals take at most 34 pairs and 65 coefficient bits
        basis = buchberger(gens, order, GroebnerBudget(max_pairs=100, max_coeff_bits=200))
        assert basis.complete
        _assert_basis_matches_sympy(gens, basis, "grevlex")
    assert found


@pytest.mark.parametrize(
    "texts, redundant",
    [
        pytest.param(["x^2 + y^2 + z^2 - 1", "x*y - z", "y*z - x"], 0, id="texts0"),
        # the pair loop ends with two redundant generators
        pytest.param(["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"], 2, id="texts1"),
    ],
)
def test_finished_grevlex_basis_interreduces_in_one_pass(monkeypatch, texts, redundant):
    # the finished pair loop drops the generators whose leading term another
    # one's divides, and the final interreduction then changes tails but no
    # leading term, so one pass (one reduction per generator) finishes
    interreduce, reduce = groebner._interreduce, groebner._reduce
    inputs = []
    grown = []  # the pair loop's basis: the only reducers appended to

    class Recorded(groebner._Reducers):
        def append(self, p):
            grown.append(self)
            super().append(p)

    def record(polys, ring, max_bits):
        inputs.append((list(polys), ring))
        return interreduce(polys, ring, max_bits)

    monkeypatch.setattr(groebner, "_Reducers", Recorded)
    monkeypatch.setattr(groebner, "_interreduce", record)
    basis = buchberger([parse_polynomial(t, XYZ) for t in texts], TermOrder("grevlex", XYZ))
    finished, ring = inputs[-1]
    leads = [p.lead for p in finished]
    assert not any(ring.divides(a, b) for a in leads for b in leads if a != b)
    assert len(finished) == len(grown[-1].polys) - redundant
    calls = []

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counted)
    finish = interreduce(finished, ring, GroebnerBudget().max_coeff_bits)
    assert [_poly_to(p, ring) for p in finish] == basis.generators
    assert len(calls) == len(finished)


def test_constant_remainder_ends_the_pair_loop(monkeypatch):
    # the input interreduction leaves no constant; the fifth pair's remainder
    # is one while pairs are still queued, and the loop stops there
    gens = [parse_polynomial(t, XYZ) for t in ["x^2", "x*y^2 - y*z^2 - 2", "3*x^2*y^2*z + 2*x*y^2*z + 2*y*z^2"]]
    order = TermOrder("grevlex", XYZ)
    reduce = groebner._reduce
    remainders = []

    def recorded(*args):
        out = reduce(*args)
        remainders.append(out[0])
        return out

    monkeypatch.setattr(groebner, "_reduce", recorded)
    basis = buchberger(gens, order)
    assert basis.generators == [MultiPoly.constant(1, XYZ)]
    assert (basis.stats.pairs_processed, basis.stats.basis_size) == (5, 1)
    constant = [i for i, r in enumerate(remainders) if list(r) == [0]]
    assert constant == [len(remainders) - 1]
    # the exit comes before the loop looks at its queue again, so a pair
    # budget spent on that pair does not trip
    assert buchberger(gens, order, GroebnerBudget(max_pairs=5)).complete
    assert not buchberger(gens, order, GroebnerBudget(max_pairs=4)).complete


def _exponents(data, ring):
    """n exponents that pack: each at most field_max, and under grevlex a
    degree at most field_max too."""
    left = ring.field_max
    exp = []
    for _ in range(ring.n):
        e = data.draw(st.integers(0, left))
        exp.append(e)
        left -= e * ring.grevlex
    return tuple(data.draw(st.permutations(exp)))


@seed(1988)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["lex", "grevlex"]), st.integers(1, 6), st.integers(1, 16), st.data())
def test_packed_monomials_follow_the_term_order(kind, n, bits, data):
    order = TermOrder(kind, tuple(f"v{i}" for i in range(n)))
    ring = _Monomials(order, bits)
    a, b = _exponents(data, ring), _exponents(data, ring)
    pa, pb = ring.pack(a), ring.pack(b)
    assert (ring.unpack(pa), ring.unpack(pb)) == (a, b)
    assert (pa < pb, pa == pb) == (order.key(a) < order.key(b), a == b)
    top = tuple(map(max, a, b))
    if sum(top) > ring.field_max and ring.grevlex:
        with pytest.raises(DomainError):
            ring.lcm(pa, pb)
    else:
        assert ring.lcm(pa, pb) == ring.pack(top)
    # the largest exponent (lex) or degree (grevlex) a field holds, and one past it
    i = data.draw(st.integers(0, n - 1))
    edge = list(a)
    edge[i] += ring.field_max - (sum(a) if ring.grevlex else a[i])
    assert ring.unpack(ring.pack(tuple(edge))) == tuple(edge)
    edge[i] += 1
    with pytest.raises(DomainError):
        ring.pack(tuple(edge))


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_retired_generators_leave_the_basis_unchanged(kind, monkeypatch):
    # a generator whose lead a newer lead divides forms no further pairs, and
    # the bases still match sympy's.  A grevlex pair loop starts from
    # interreduced generators, so a new lead that divides an older one
    # retires at least that one
    loop = groebner._buchberger_loop
    rings = []
    retiring = []

    def spy(polys, ring, budget, stats):
        rings.append(ring)
        return loop(polys, ring, budget, stats)

    class Recorded(groebner._Reducers):
        def append(self, p):
            ring = rings[-1]
            if ring.grevlex and any(ring.divides(p.lead, lead) for lead in self.leads):
                retiring.append(p)
            super().append(p)

    monkeypatch.setattr(groebner, "_buchberger_loop", spy)
    monkeypatch.setattr(groebner, "_Reducers", Recorded)
    rng = random.Random(1988 + (kind == "lex"))
    checked = 0
    while checked < 20:
        gens = [MultiPoly(XYZ, _random_terms(rng, (3, 3, 3))) for _ in range(3)]
        basis = buchberger(gens, TermOrder(kind, XYZ), GroebnerBudget(200, 200))
        if basis.complete:
            checked += 1
            _assert_basis_matches_sympy(gens, basis, kind)
    assert retiring
