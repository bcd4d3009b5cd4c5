from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.errors import DomainError, ParseError
from flagein.polyalg.poly import (
    LaurentPoly,
    MultiPoly,
    TermOrder,
    format_polynomial,
    parse_polynomial,
    parse_polynomial_file,
)

VARS = ("x", "y")


def random_polys(variables=VARS, max_degree=3):
    coefficient = st.fractions(min_value=-8, max_value=8)
    exponent = st.tuples(*(st.integers(0, max_degree) for _ in variables))
    return st.dictionaries(exponent, coefficient, max_size=6).map(
        lambda terms: MultiPoly(variables, terms)
    )


@settings(max_examples=200, deadline=None)
@given(random_polys(), random_polys(), random_polys())
def test_ring_axioms(f, g, h):
    assert (f + g) - g == f
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=200, deadline=None)
@given(random_polys())
def test_additive_identity(f):
    zero = MultiPoly(VARS)
    assert f + zero == f
    assert f * MultiPoly.constant(1, VARS) == f
    assert (f - f).is_zero()


def test_product_of_conjugates():
    x_plus_y = parse_polynomial("x + y", VARS)
    x_minus_y = parse_polynomial("x - y", VARS)
    assert x_plus_y * x_minus_y == parse_polynomial("x^2 - y^2", VARS)


def test_variable_mismatch_rejected():
    f = parse_polynomial("x + 1", ("x",))
    g = parse_polynomial("y + 1", ("y",))
    with pytest.raises(DomainError):
        f + g


def test_content():
    f = parse_polynomial("6*x^2 - 4*x", ("x",))
    assert f.content() == F(2)


def test_derivative():
    f = parse_polynomial("x^3*y - 4*x*y^2 + 7", VARS)
    assert f.derivative("x") == parse_polynomial("3*x^2*y - 4*y^2", VARS)
    assert f.derivative("y") == parse_polynomial("x^3 - 8*x*y", VARS)


def test_univariate_view():
    f = parse_polynomial("2*x^3 - x + 5", ("x",))
    assert f.univariate_in("x") == [F(5), F(-1), F(0), F(2)]
    g = parse_polynomial("x*y", VARS)
    with pytest.raises(DomainError):
        g.univariate_in("x")


def test_term_orders_disagree():
    # x^3 vs x*y^2: lex prefers x^3, grevlex compares total degree first
    variables = ("x", "y")
    f = parse_polynomial("x^3 + x*y^2", variables)
    lex = TermOrder("lex", variables)
    assert lex.leading(f)[0] == (3, 0)
    g = parse_polynomial("x^2 + x*y^2", variables)
    grevlex = TermOrder("grevlex", variables)
    assert grevlex.leading(g)[0] == (1, 2)
    assert lex.leading(g)[0] == (2, 0)


@pytest.mark.parametrize("variables", [("x", "x"), ("x", "y", "x"), ("x", ""), ("",)])
def test_term_order_rejects_repeated_or_empty_names(variables):
    with pytest.raises(DomainError, match="repeated variable name|empty variable name"):
        TermOrder("lex", variables)


def test_grevlex_classic_order():
    variables = ("x", "y", "z")
    order = TermOrder("grevlex", variables)
    monomials = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ranked = sorted(monomials, key=order.key, reverse=True)
    assert ranked == monomials


@settings(max_examples=200, deadline=None)
@given(random_polys())
def test_format_parse_round_trip(f):
    text = format_polynomial(f)
    assert parse_polynomial(text, VARS) == f


def test_parse_examples():
    f = parse_polynomial("-3*x2^2*x3*x6 + 24*x2*x3^2", ("x2", "x3", "x6"))
    assert f.terms == {(2, 1, 1): F(-3), (1, 2, 0): F(24)}
    g = parse_polynomial("1/2*x - 3/4", ("x",))
    assert g.terms == {(1,): F(1, 2), (0,): F(-3, 4)}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("+x", "x"),
        ("- x", "-x"),
        ("x ^ 2", "x^2"),
        ("0", "0"),
        ("0*x", "0"),
        ("x^0", "1"),
        ("x*x", "x^2"),
        (" 2 * x ^ 3 * y - 1/2 ", "2*x^3*y - 1/2"),
    ],
)
def test_parse_examples_with_optional_sign_and_spacing(text, expected):
    assert format_polynomial(parse_polynomial(text, VARS)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x + ",
        "x^",
        "x^-2",
        "x + z",
        "3 @ x",
        # a sign inside a term
        "x*-y",
        "x*+y",
        # implicit products
        "2x",
        "x y",
        "x^2y",
        # doubled operators
        "x**y",
        "--x",
        "x + -y",
        "1/0*x",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_polynomial(text, VARS)


def test_parse_file_reports_line_numbers():
    try:
        parse_polynomial_file("x + 1\nx +\n")
    except ParseError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_parse_file_infers_natural_variable_order():
    polys = parse_polynomial_file("x10 + x2\nx3^2\n")
    assert polys[0].vars == ("x2", "x3", "x10")


def test_parse_file_keeps_names_whose_terms_vanish():
    polys = parse_polynomial_file("x^0 + y\nz - z\n")
    assert [p.vars for p in polys] == [("x", "y", "z")] * 2
    assert polys[1].is_zero()


def test_laurent_division_and_clearing():
    names = ("a", "b")
    a = LaurentPoly.variable("a", names)
    b = LaurentPoly.variable("b", names)
    expr = F(1, 2) / a + a / (b * b) - b
    cleared, shift = expr.cleared()
    assert shift == (1, 2)
    expected = parse_polynomial("1/2*b^2 + a^2 - a*b^3", names)
    assert cleared == expected
    # a common monomial factor is divided out: the shift may be negative
    assert (a * b + a).cleared() == (parse_polynomial("b + 1", names), (-1, 0))
    with pytest.raises(DomainError):
        expr / (a + b)


def test_laurent_matches_fraction_arithmetic():
    names = ("u",)
    u = LaurentPoly.variable("u", names)
    expr = (F(3) / u - u) * u
    assert expr == LaurentPoly(names, {(0,): F(3), (2,): F(-1)})


def test_laurent_rejects_unknown_variable_and_wrong_width():
    with pytest.raises(DomainError):
        LaurentPoly.variable("z", ("x", "y"))
    with pytest.raises(DomainError):
        LaurentPoly(("x", "y"), {(1,): 1})


def test_number_operands_keep_the_polynomial_type():
    u = LaurentPoly.variable("u", ("u",))
    quotient = F(1, 2) / u
    assert type(quotient) is LaurentPoly
    assert quotient == LaurentPoly(("u",), {(-1,): F(1, 2)})
    doubled = 2 * parse_polynomial("x + y", VARS)
    assert type(doubled) is MultiPoly
    assert doubled == parse_polynomial("2*x + 2*y", VARS)


def test_multipoly_and_laurent_with_equal_terms_differ():
    terms = {(1, 0): F(1), (0, 2): F(-3)}
    assert MultiPoly(VARS, terms) != LaurentPoly(VARS, terms)
    assert LaurentPoly(VARS, terms) != MultiPoly(VARS, terms)
