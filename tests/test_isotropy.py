from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.errors import DomainError
from flagein.isotropy import n_squared, root_string, triple_tensor
from flagein.rootsys import (
    killing_form,
    positive_roots,
    root_system,
    weyl_orbit_permutations,
)

from conftest import SMALL_GROUPS, all_roots


@pytest.fixture(scope="module")
def g2_data():
    spec = root_system("G2")
    return spec, positive_roots(spec), frozenset(r.coeffs for r in all_roots(spec)), killing_form(spec)


def test_g2_root_strings(g2_data):
    _, pos, roots, _ = g2_data
    s = root_string(pos[1], pos[0], roots)
    assert (s.p, s.q) == (0, 3)
    s = root_string(pos[0], pos[1], roots)
    assert (s.p, s.q) == (0, 1)
    s = root_string(pos[1], pos[4], roots)
    assert (s.p, s.q) == (3, 0)


def test_root_string_rejects_proportional(g2_data):
    _, pos, roots, _ = g2_data
    with pytest.raises(DomainError):
        root_string(pos[0], pos[0], roots)
    with pytest.raises(DomainError):
        root_string(pos[0], -pos[0], roots)


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_string_cartan_relation(label):
    # p - q = 2 Q(alpha, beta) / Q(alpha, alpha) for every root pair
    spec = root_system(label)
    roots = all_roots(spec)
    coeffs = frozenset(r.coeffs for r in roots)
    form = killing_form(spec)
    for alpha in roots:
        for beta in roots:
            if beta.coeffs in (alpha.coeffs, (-alpha).coeffs):
                continue
            s = root_string(alpha, beta, coeffs)
            assert F(s.p - s.q) == 2 * form.pair_roots(alpha, beta) / form.length_sq(alpha)


def test_g2_n_squared_values(g2_data):
    _, pos, roots, form = g2_data
    assert n_squared(pos[0], pos[1], form, roots) == F(1, 8)
    assert n_squared(pos[1], pos[2], form, roots) == F(1, 6)


def test_n_squared_zero_when_sum_not_a_root(g2_data):
    _, pos, roots, form = g2_data
    # a1 + (a1 + a2) is not a root
    assert n_squared(pos[0], pos[2], form, roots) == 0


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_n_squared_symmetric(label):
    spec = root_system(label)
    pos = positive_roots(spec)
    roots = frozenset(r.coeffs for r in all_roots(spec))
    form = killing_form(spec)
    for i in range(len(pos)):
        for j in range(len(pos)):
            if i == j:
                continue
            assert n_squared(pos[i], pos[j], form, roots) == n_squared(pos[j], pos[i], form, roots)


def test_g2_triple_tensor_exact_values():
    tensor = triple_tensor(root_system("G2"))
    assert dict(tensor.entries) == {
        (0, 1, 2): F(1, 4),
        (1, 2, 3): F(1, 3),
        (1, 3, 4): F(1, 4),
        (0, 4, 5): F(1, 4),
        (2, 3, 5): F(1, 4),
    }


def test_a2_triple_tensor():
    tensor = triple_tensor(root_system("A2"))
    assert dict(tensor.entries) == {(0, 1, 2): F(1, 3)}


def test_a1_triple_tensor_empty():
    assert triple_tensor(root_system("A1")).entries == ()


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_zero_pattern(label):
    # entry {i,j,k} exists exactly when the roots close up additively
    spec = root_system(label)
    pos = positive_roots(spec)
    tensor = triple_tensor(spec)
    index = {r.coeffs: n for n, r in enumerate(pos)}
    expected = set()
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            total = tuple(a + b for a, b in zip(pos[i].coeffs, pos[j].coeffs))
            if total in index:
                expected.add(tuple(sorted((i, j, index[total]))))
    assert {key for key, _ in tensor.entries} == expected
    assert all(v > 0 for _, v in tensor.entries)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_weyl_invariance(label, data):
    spec = root_system(label)
    entries = triple_tensor(spec).entries
    sigma = data.draw(st.sampled_from(weyl_orbit_permutations(spec)))
    assert tuple(sorted((tuple(sorted(sigma[i] for i in key)), v) for key, v in entries)) == entries


def test_tensor_records_are_exact_strings():
    records = triple_tensor(root_system("G2")).to_records()
    assert {"indices": [1, 2, 3], "value": "1/4"} in records
    assert {"indices": [2, 3, 4], "value": "1/3"} in records
