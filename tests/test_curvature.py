from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.curvature import (
    InvariantMetric,
    _ricci_values,
    apply_permutation,
    einstein_residual,
    kaehler_einstein_metric,
    ricci,
)
from flagein.errors import DomainError
from flagein.isotropy import triple_tensor
from flagein.polyalg.poly import LaurentPoly
from flagein.rootsys import positive_roots, root_system, weyl_orbit_permutations
from flagein import solver

from conftest import SMALL_GROUPS

positive_fractions = st.fractions(min_value=F(1, 20), max_value=20)


@pytest.fixture(scope="module")
def g2_triples():
    return triple_tensor(root_system("G2"))


def test_g2_kaehler_einstein_is_exact_einstein(g2_triples):
    metric = kaehler_einstein_metric(root_system("G2"))
    assert metric.x == (F(3), F(1), F(4), F(5), F(6), F(9))
    components = ricci(metric, g2_triples)
    assert components.r == (F(1, 12),) * 6
    k, residual = einstein_residual(metric, g2_triples)
    assert (k, residual) == (F(1, 12), F(0))


def test_g2_normal_metric_components(g2_triples):
    components = ricci(InvariantMetric.exact([1] * 6), g2_triples)
    assert components.r == (F(3, 8), F(7, 24), F(7, 24), F(7, 24), F(3, 8), F(3, 8))
    _, residual = einstein_residual(InvariantMetric.exact([1] * 6), g2_triples)
    assert residual == F(1, 12)


def test_scaling_by_two(g2_triples):
    base = ricci(InvariantMetric.exact([1] * 6), g2_triples)
    doubled = ricci(InvariantMetric.exact([2] * 6), g2_triples)
    assert doubled.r == tuple(v / 2 for v in base.r)
    assert doubled.r[0] == F(3, 16)
    assert doubled.r[1] == F(7, 48)


def test_nonpositive_metric_rejected(g2_triples):
    with pytest.raises(DomainError):
        ricci(InvariantMetric.exact([0, 1, 1, 1, 1, 1]), g2_triples)
    with pytest.raises(DomainError):
        InvariantMetric.exact([])


@pytest.mark.parametrize(
    "metric, message",
    [
        # the length is checked first: a zero entry in a short metric is
        # reported as the wrong length
        (InvariantMetric.exact([0, 1, 1]), "^metric needs 6 entries, got 3$"),
        (InvariantMetric.exact([0, 1, 1, 1, 1, 1]), "^metric entries must be positive$"),
        (InvariantMetric.floating([1, 1, 1, 1, 1, -0.5]), "^metric entries must be positive$"),
    ],
    ids=["short", "zero", "negative float"],
)
def test_ricci_checks_length_then_positivity(g2_triples, metric, message):
    with pytest.raises(DomainError, match=message):
        ricci(metric, g2_triples)


def test_scalar_curvature_definition(g2_triples):
    components = ricci(InvariantMetric.exact([3, 1, 4, 5, 6, 9]), g2_triples)
    assert components.scalar_curvature == 2 * sum(components.r) == F(1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(positive_fractions, min_size=6, max_size=6),
    positive_fractions,
)
def test_ricci_homogeneity(values, c):
    triples = triple_tensor(root_system("G2"))
    base = ricci(InvariantMetric.exact(values), triples).r
    scaled = ricci(InvariantMetric.exact([c * v for v in values]), triples).r
    assert scaled == tuple(v / c for v in base)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_weyl_equivariance(label, data):
    spec = root_system(label)
    triples = triple_tensor(spec)
    s = len(positive_roots(spec))
    values = tuple(
        data.draw(positive_fractions) for _ in range(s)
    )
    sigma = data.draw(st.sampled_from(weyl_orbit_permutations(spec)))
    base = ricci(InvariantMetric.exact(values), triples).r
    moved = ricci(InvariantMetric.exact(apply_permutation(sigma, values)), triples).r
    assert moved == apply_permutation(sigma, base)


@pytest.mark.parametrize(
    "label,expected",
    [("G2", (3, 1, 4, 5, 6, 9)), ("A2", (1, 1, 2)), ("A1", (1,))],
)
def test_kaehler_einstein_values(label, expected):
    assert kaehler_einstein_metric(root_system(label)).x == tuple(map(F, expected))


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_kaehler_einstein_always_einstein(label):
    spec = root_system(label)
    metric = kaehler_einstein_metric(spec)
    _, residual = einstein_residual(metric, triple_tensor(spec))
    assert residual == 0


def test_a2_normal_metric_is_einstein():
    spec = root_system("A2")
    _, residual = einstein_residual(InvariantMetric.exact([1, 1, 1]), triple_tensor(spec))
    assert residual == 0


def _kaehler_flag(spec, metric):
    """The Kaehler flag a solution record derives for *metric*."""
    return solver._solution_from_metric(solver._root_data(spec), metric, "algebraic").kaehler


def test_is_kaehler_scaled_copy():
    g2 = root_system("G2")
    assert _kaehler_flag(g2, InvariantMetric.exact([1, F(1, 3), F(4, 3), F(5, 3), 2, 3]))


def test_is_kaehler_permuted_copy():
    g2 = root_system("G2")
    assert _kaehler_flag(g2, InvariantMetric.exact([1, F(4, 3), F(1, 3), F(5, 3), 3, 2]))


def test_is_kaehler_rejects_other_metrics():
    g2 = root_system("G2")
    assert not _kaehler_flag(g2, InvariantMetric.floating([1, 0.2762, 1.0347, 1.0347, 1, 1.7896]))


def test_is_kaehler_identity_witness():
    for label in SMALL_GROUPS:
        spec = root_system(label)
        assert _kaehler_flag(spec, kaehler_einstein_metric(spec))


def _known_g2_components(xs):
    """The six closed-form Ricci components, written out term by term."""
    x1, x2, x3, x4, x5, x6 = xs
    r1 = (F(1, 2) / x1
          + F(1, 16) * (x1 / (x2 * x3) - x2 / (x1 * x3) - x3 / (x1 * x2))
          + F(1, 16) * (x1 / (x5 * x6) - x5 / (x1 * x6) - x6 / (x1 * x5)))
    r2 = (F(1, 2) / x2
          + F(1, 16) * (x2 / (x1 * x3) - x1 / (x2 * x3) - x3 / (x1 * x2))
          + F(1, 12) * (x2 / (x3 * x4) - x3 / (x2 * x4) - x4 / (x2 * x3))
          + F(1, 16) * (x2 / (x4 * x5) - x4 / (x2 * x5) - x5 / (x2 * x4)))
    r3 = (F(1, 2) / x3
          + F(1, 16) * (x3 / (x1 * x2) - x2 / (x1 * x3) - x1 / (x2 * x3))
          + F(1, 12) * (x3 / (x2 * x4) - x2 / (x3 * x4) - x4 / (x2 * x3))
          + F(1, 16) * (x3 / (x4 * x6) - x4 / (x3 * x6) - x6 / (x3 * x4)))
    r4 = (F(1, 2) / x4
          + F(1, 12) * (x4 / (x2 * x3) - x2 / (x3 * x4) - x3 / (x2 * x4))
          + F(1, 16) * (x4 / (x2 * x5) - x2 / (x4 * x5) - x5 / (x2 * x4))
          + F(1, 16) * (x4 / (x3 * x6) - x3 / (x4 * x6) - x6 / (x3 * x4)))
    r5 = (F(1, 2) / x5
          + F(1, 16) * (x5 / (x1 * x6) - x1 / (x5 * x6) - x6 / (x1 * x5))
          + F(1, 16) * (x5 / (x2 * x4) - x2 / (x4 * x5) - x4 / (x2 * x5)))
    r6 = (F(1, 2) / x6
          + F(1, 16) * (x6 / (x1 * x5) - x1 / (x5 * x6) - x5 / (x1 * x6))
          + F(1, 16) * (x6 / (x3 * x4) - x3 / (x4 * x6) - x4 / (x3 * x6)))
    return [r1, r2, r3, r4, r5, r6]


def test_g2_symbolic_components_match_closed_form():
    names = tuple(f"x{i + 1}" for i in range(6))
    atoms = [LaurentPoly.variable(v, names) for v in names]
    expected = _known_g2_components(atoms)
    computed = _ricci_values(atoms, triple_tensor(root_system("G2")))
    assert computed == expected


def test_g2_symbolic_matches_exact_evaluation():
    values = (F(3), F(1), F(4), F(5), F(6), F(9))
    expected = _known_g2_components(list(values))
    assert expected == [F(1, 12)] * 6


def test_symmetric_slice_identities():
    # with x1 = x5 and x4 = x3 the components collapse pairwise
    triples = triple_tensor(root_system("G2"))
    for x2, x3, x6 in [(F(1, 3), F(5, 7), F(2)), (F(3, 2), F(1, 9), F(4, 5))]:
        r = ricci(InvariantMetric.exact([1, x2, x3, x3, 1, x6]), triples).r
        assert r[0] == r[4]
        assert r[2] == r[3]


def test_float_mode_matches_exact():
    triples = triple_tensor(root_system("G2"))
    exact = ricci(InvariantMetric.exact([3, 1, 4, 5, 6, 9]), triples).r
    floats = ricci(InvariantMetric.floating([3, 1, 4, 5, 6, 9]), triples).r
    assert all(abs(a - float(b)) < 1e-15 for a, b in zip(floats, exact))


def test_float_ricci_values_match_per_term_weights():
    # the weight c/4 is taken once per triple (as a float for float entries);
    # the values must equal the per-term Fraction expression bit for bit
    triples = triple_tensor(root_system("G2"))
    x = [1.0, 0.21737038078158796, 1.0234269081025682, 0.3, 0.9999999999999994, 1e-3]
    expected = [F(1, 2) / v for v in x]
    eighth, quarter = F(1, 8), F(1, 4)
    for (i, j, k), c in triples.entries:
        for a, b, d in ((i, j, k), (j, i, k), (k, i, j)):
            expected[a] = expected[a] + 2 * eighth * c * (x[a] / (x[b] * x[d]))
            expected[a] = expected[a] - quarter * c * (x[d] / (x[a] * x[b]) + x[b] / (x[a] * x[d]))
    values = _ricci_values(x, triples)
    assert all(type(v) is float for v in values)
    assert [v.hex() for v in values] == [v.hex() for v in expected]
