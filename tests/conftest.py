import pytest

from flagein.polyalg import groebner
from flagein.polyalg.poly import MultiPoly
from flagein.rootsys import positive_roots, root_system
from flagein.solver import solve_symmetric_ansatz

SMALL_GROUPS = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")


@pytest.fixture(scope="session")
def g2():
    return root_system("G2")


@pytest.fixture(scope="session")
def a2():
    return root_system("A2")


@pytest.fixture(scope="session")
def ansatz_result(g2):
    """The exact symmetric-ansatz pipeline, shared across tests (a few seconds)."""
    return solve_symmetric_ansatz(g2)


@pytest.fixture
def fglm_calls(monkeypatch):
    """One entry per call of ``groebner._fglm`` from here on, a call that
    raises included: empty when every basis came straight from the pair loop."""
    calls = []
    convert = groebner._fglm

    def spy(*args):
        calls.append(args)
        return convert(*args)

    monkeypatch.setattr(groebner, "_fglm", spy)
    return calls


def all_roots(spec):
    """The positive roots of *spec* followed by their negatives."""
    pos = positive_roots(spec)
    return pos + tuple(-r for r in pos)


def s_polynomial(f, g, order):
    """lc(g) (tau / lm(f)) f - lc(f) (tau / lm(g)) g for tau the lcm of the
    leading monomials: the S-polynomial from MultiPoly arithmetic and
    ``TermOrder.leading`` alone, so it certifies the kernel's pair loop
    without sharing its code."""
    (ef, cf), (eg, cg) = order.leading(f), order.leading(g)
    tau = tuple(map(max, ef, eg))

    def times(exp, c):
        return MultiPoly(f.vars, {tuple(t - e for t, e in zip(tau, exp)): c})

    return times(ef, cg) * f - times(eg, cf) * g


def at_x6_equal_one(p):
    """p(x2, x3, 1) over the variables (x3, x2), for p over (x2, x3, x6)."""
    terms = {}
    for (e2, e3, _), c in p.terms.items():
        terms[(e3, e2)] = terms.get((e3, e2), 0) + c
    return MultiPoly(("x3", "x2"), terms)
