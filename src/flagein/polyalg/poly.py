"""Sparse multivariate polynomials with exact rational coefficients.

Exponent vectors are integer tuples aligned with an ordered variable list;
zero coefficients are never stored.  MultiPoly and LaurentPoly share one
sparse core for storage and ring arithmetic.  LaurentPoly additionally allows
negative exponents and exists to express Ricci components symbolically before
their denominators are cleared; it adds only division by a single term and
clearing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..errors import DomainError, ParseError

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: 'lex' or 'grevlex' over an explicit variable priority."""

    kind: str
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex"):
            raise DomainError(f"unknown term order kind {self.kind!r}")
        if "" in self.variables:
            raise DomainError("empty variable name")
        if len(set(self.variables)) != len(self.variables):
            raise DomainError(f"repeated variable name in {', '.join(self.variables)}")

    def key(self, exp: Exponent):
        """Sort key; larger key = larger monomial."""
        if self.kind == "lex":
            return exp
        return (sum(exp), tuple(-e for e in reversed(exp)))

    def sorted_terms(self, poly: "MultiPoly") -> list[tuple[Exponent, Fraction]]:
        return sorted(poly.terms.items(), key=lambda t: self.key(t[0]), reverse=True)

    def leading(self, poly: "MultiPoly") -> tuple[Exponent, Fraction]:
        if not poly.terms:
            raise DomainError("zero polynomial has no leading term")
        exp = max(poly.terms, key=self.key)
        return exp, poly.terms[exp]


def _mul_exp(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def content(values) -> Fraction:
    """Positive rational c such that the values divided by c are coprime
    integers; 1 when every value is zero."""
    num = 0
    den = 1
    for v in values:
        num = gcd(num, abs(v.numerator))
        den = lcm(den, v.denominator)
    return Fraction(num, den) if num else Fraction(1)


class _SparsePoly:
    """Sparse {exponent: coefficient} storage and the ring operations shared
    by MultiPoly and LaurentPoly.  Every operation returns the operand's own
    type; a number operand acts as a constant."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict[Exponent, Fraction] | None = None):
        self.vars = tuple(variables)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            width = len(self.vars)
            for exp, coeff in terms.items():
                if len(exp) != width:
                    raise DomainError("exponent width does not match variable list")
                self._check_exponent(exp)
                c = Fraction(coeff)
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    def _check_exponent(self, exp: Exponent):
        """Hook for exponent restrictions beyond the width."""

    @classmethod
    def constant(cls, value, variables: tuple[str, ...]):
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: tuple[str, ...]):
        exp = tuple(1 if v == name else 0 for v in variables)
        if sum(exp) != 1:
            raise DomainError(f"variable {name!r} not in {variables}")
        return cls(variables, {exp: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other):
        if not isinstance(other, type(self)):
            return self.constant(other, self.vars)
        if self.vars != other.vars:
            raise DomainError(f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return type(self)(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            c = Fraction(other)
            return type(self)(self.vars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mul_exp(e1, e2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return type(self)(self.vars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))


class MultiPoly(_SparsePoly):
    """Polynomial in an ordered variable list, stored as {exponent: coefficient}."""

    __slots__ = ()

    def _check_exponent(self, exp: Exponent):
        if any(e < 0 for e in exp):
            raise DomainError("negative exponent in polynomial")

    # basic predicates

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def support_vars(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def __repr__(self):
        return f"MultiPoly({format_polynomial(self)})"

    # normalization

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        return content(self.terms.values())

    # variable management

    def with_variables(self, variables: tuple[str, ...]) -> "MultiPoly":
        """Re-express over a variable list containing at least the used variables."""
        position = {v: i for i, v in enumerate(variables)}
        missing = [v for v in self.support_vars() if v not in position]
        if missing:
            raise DomainError(f"target variables missing {missing}")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * len(variables)
            for v, e in zip(self.vars, exp):
                if e:
                    new[position[v]] = e
            out[tuple(new)] = c
        return MultiPoly(variables, out)

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[i]:
                new = list(exp)
                new[i] -= 1
                out[tuple(new)] = coeff * exp[i]
        return MultiPoly(self.vars, out)

    # univariate views

    def univariate_in(self, name: str) -> list[Fraction]:
        """Dense ascending coefficient list; requires all other variables absent."""
        i = self.vars.index(name)
        coeffs = [Fraction(0)] * (self.degree_in(name) + 1)
        for exp, c in self.terms.items():
            if any(e for j, e in enumerate(exp) if j != i):
                raise DomainError(f"polynomial is not univariate in {name}")
            coeffs[exp[i]] = c
        return coeffs


class LaurentPoly(_SparsePoly):
    """Polynomial with integer (possibly negative) exponents; denominators are
    always monomials, which is exactly what Ricci components need."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if len(other.terms) != 1:
            raise DomainError("Laurent division only by a single term")
        (exp, coeff), = other.terms.items()
        inv = tuple(-e for e in exp)
        return LaurentPoly(self.vars, {_mul_exp(t, inv): c / coeff for t, c in self.terms.items()})

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def cleared(self) -> tuple[MultiPoly, Exponent]:
        """The monomial multiple whose smallest exponent in each variable is 0.

        That multiple is unique: the shift of each variable is minus its
        smallest exponent, so it is negative where every term has that
        variable.  Returns (polynomial, shift) with polynomial ==
        self * x^shift; the zero polynomial has shift 0.
        """
        shift = tuple(-min(col) for col in zip(*self.terms)) if self.terms else (0,) * len(self.vars)
        out = {tuple(e + s for e, s in zip(exp, shift)): c for exp, c in self.terms.items()}
        return MultiPoly(self.vars, out), shift

    def __repr__(self):
        inner = " + ".join(f"{c}*{exp}" for exp, c in sorted(self.terms.items()))
        return f"LaurentPoly({inner or '0'})"


# text format: one polynomial per line, terms like -3*x2^2*x3*x6 + 24*x2*x3^2.
# A term is a number, number*powers or powers; powers are name or name^digits
# joined by '*'; every term but the first starts with one '+' or '-'.

_NUMBER = r"\d+(?:/\d+)?"
_POWER = r"[a-zA-Z][a-zA-Z0-9]*(?:\s*\^\s*\d+)?"
_TERM = re.compile(
    rf"\s*([+-]?)\s*((?:{_NUMBER}\s*\*\s*)?{_POWER}(?:\s*\*\s*{_POWER})*|{_NUMBER})\s*"
)
_FACTOR = re.compile(r"(\d+)(?:/(\d+))?|([a-zA-Z][a-zA-Z0-9]*)(?:\s*\^\s*(\d+))?")


def _natural_var_key(name: str):
    m = re.fullmatch(r"([a-zA-Z]+)(\d*)", name)
    if m:
        head, digits = m.groups()
        return (head, int(digits) if digits else -1)
    return (name, -1)


def _terms(text: str) -> list[tuple[Fraction, dict[str, int]]]:
    """The terms of one polynomial as (coefficient, {name: exponent})."""
    terms = []
    pos = 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        if m is None or (terms and not m[1]):
            col = len(text) - len(text[pos:].lstrip()) + 1
            found = repr(text[col - 1]) if col <= len(text) else "end of text"
            raise ParseError(f"unexpected {found} at column {col}")
        coeff = Fraction(-1 if m[1] == "-" else 1)
        powers: dict[str, int] = {}
        for f in _FACTOR.finditer(m[2]):
            num, den, name, exp = f.groups()
            if name:
                powers[name] = powers.get(name, 0) + int(exp or 1)
            elif den and not int(den):
                raise ParseError(f"zero denominator at column {m.start(2) + f.start() + 1}")
            else:
                coeff *= Fraction(int(num), int(den or 1))
        terms.append((coeff, powers))
        pos = m.end()
    return terms


def _build(terms: list[tuple[Fraction, dict[str, int]]], variables: tuple[str, ...]) -> MultiPoly:
    """The polynomial with these terms over *variables*; other names are errors."""
    unknown = {name for _, powers in terms for name in powers} - set(variables)
    if unknown:
        raise ParseError(f"unknown variables {sorted(unknown)}")
    out: dict[Exponent, Fraction] = {}
    for coeff, powers in terms:
        exp = tuple(powers.get(v, 0) for v in variables)
        out[exp] = out.get(exp, Fraction(0)) + coeff
    return MultiPoly(variables, out)


def _names(terms) -> tuple[str, ...]:
    return tuple(sorted({name for _, powers in terms for name in powers}, key=_natural_var_key))


def parse_polynomial(text: str, variables: tuple[str, ...] | None = None) -> MultiPoly:
    """Parse one polynomial.  With *variables* given, unknown names are errors;
    otherwise variables are collected and ordered naturally (x2 before x10)."""
    terms = _terms(text)
    return _build(terms, _names(terms) if variables is None else variables)


def format_polynomial(poly: MultiPoly, order: TermOrder | None = None) -> str:
    """Canonical text form: terms descending under *order* (grevlex default)."""
    if poly.is_zero():
        return "0"
    order = order or TermOrder("grevlex", poly.vars)
    pieces: list[str] = []
    for exp, coeff in order.sorted_terms(poly):
        factors = []
        for v, e in zip(poly.vars, exp):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


def parse_polynomial_file(text: str, variables: tuple[str, ...] | None = None) -> list[MultiPoly]:
    """One polynomial per line; blank lines are ignored.  Variables are shared:
    when not given, the union over all lines is used, naturally ordered."""
    numbered = []
    try:
        for n, line in enumerate(text.splitlines(), 1):
            if line.strip():
                numbered.append((n, _terms(line)))
        if variables is None:
            variables = _names(term for _, terms in numbered for term in terms)
        polys = []
        for n, terms in numbered:
            polys.append(_build(terms, variables))
    except ParseError as exc:
        raise ParseError(str(exc), line=n) from None
    return polys
