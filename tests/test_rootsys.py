from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagein.errors import ConfigurationError, DomainError
from flagein.rootsys import (
    Root,
    killing_form,
    long_short_split,
    positive_roots,
    root_system,
    weyl_orbit_permutations,
    weyl_reflect,
)

from conftest import SMALL_GROUPS, all_roots


def test_g2_positive_roots_ordered():
    pos = positive_roots(root_system("G2"))
    assert [r.coeffs for r in pos] == [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]


def test_a1_single_root():
    assert [r.coeffs for r in positive_roots(root_system("A1"))] == [(1,)]


def test_a2_three_roots():
    assert [r.coeffs for r in positive_roots(root_system("A2"))] == [(1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize(
    "label,count",
    [("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6)],
)
def test_positive_root_counts(label, count):
    assert len(positive_roots(root_system(label))) == count


def test_unknown_group_rejected():
    for label in ("H9", "G3", "X1", "A0"):
        with pytest.raises(ConfigurationError):
            root_system(label)


def test_root_closure_under_addition():
    for label in SMALL_GROUPS:
        pos = positive_roots(root_system(label))
        members = {r.coeffs for r in pos}
        everything = {r.coeffs for r in all_roots(root_system(label))}
        for a in pos:
            for b in pos:
                total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
                if total in everything:
                    assert total in members


def test_g2_cartan_matrix():
    assert root_system("G2").cartan_matrix == ((2, -1), (-3, 2))


def test_g2_killing_values():
    form = killing_form(root_system("G2"))
    assert form.gram[1][1] == F(1, 12)
    assert form.gram[0][0] == F(1, 4)
    assert form.gram[0][1] == F(-1, 8)


def test_a2_killing_values():
    form = killing_form(root_system("A2"))
    assert form.gram[0][0] == F(1, 3)
    assert form.gram[1][1] == F(1, 3)


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_killing_identity_exact(label):
    spec = root_system(label)
    form = killing_form(spec)
    roots = all_roots(spec)
    for alpha in roots:
        assert sum(form.pair_roots(alpha, beta) ** 2 for beta in roots) == form.length_sq(alpha)


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_gram_positive_definite(label):
    # leading principal minors of the gram matrix are positive
    gram = killing_form(root_system(label)).gram
    n = len(gram)
    for size in range(1, n + 1):
        minor = [[gram[i][j] for j in range(size)] for i in range(size)]
        assert _det(minor) > 0


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = F(0)
    for j in range(len(m)):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(sub)
    return total


def test_g2_simple_reflections():
    g2 = root_system("G2")
    form = killing_form(g2)
    a1, a2 = positive_roots(g2)[:2]
    assert weyl_reflect(a1, a2, form).coeffs == (1, 3)
    assert weyl_reflect(a1, a1, form).coeffs == (-1, 0)
    assert weyl_reflect(a2, a2, form).coeffs == (0, -1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_reflection_involution_and_isometry(label, data):
    spec = root_system(label)
    form = killing_form(spec)
    roots = all_roots(spec)
    v = data.draw(st.sampled_from(roots))
    mirror = data.draw(st.sampled_from(roots))
    image = weyl_reflect(v, mirror, form)
    assert weyl_reflect(image, mirror, form) == v
    assert form.length_sq(image) == form.length_sq(v)


def test_zero_root_rejected():
    with pytest.raises(DomainError):
        Root((0, 0))


def _positive_root_sum(spec):
    """2 delta, the sum of the positive roots."""
    return Root(tuple(map(sum, zip(*(r.coeffs for r in positive_roots(spec))))))


def test_delta_all_ones():
    # every fundamental-weight coordinate of delta is 1, i.e.
    # 2 (delta, a_i) = (a_i, a_i) for every simple root a_i
    for label in SMALL_GROUPS:
        spec = root_system(label)
        form = killing_form(spec)
        two_delta = _positive_root_sum(spec)
        # the first rank positive roots are the simple roots
        for simple in positive_roots(spec)[: spec.rank]:
            assert form.pair_roots(two_delta, simple) == form.length_sq(simple)


def test_g2_delta_pairings():
    g2 = root_system("G2")
    form = killing_form(g2)
    two_delta = _positive_root_sum(g2)
    pos = positive_roots(g2)
    assert form.pair_roots(two_delta, pos[3]) == F(5, 12)
    assert form.pair_roots(two_delta, pos[5]) == F(9, 12)


def test_g2_orbit_permutations_match_known_set():
    perms = weyl_orbit_permutations(root_system("G2"))
    one_based = {tuple(i + 1 for i in p) for p in perms}
    assert one_based == {
        (1, 2, 3, 4, 5, 6),
        (5, 2, 4, 3, 1, 6),
        (6, 3, 4, 2, 1, 5),
        (1, 3, 2, 4, 6, 5),
        (5, 4, 2, 3, 6, 1),
        (6, 4, 3, 2, 5, 1),
    }


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_orbit_permutations_form_a_group(label):
    spec = root_system(label)
    perms = set(weyl_orbit_permutations(spec))
    identity = tuple(range(len(positive_roots(spec))))
    assert identity in perms
    for p in perms:
        for q in perms:
            assert tuple(p[q[i]] for i in range(len(p))) in perms


@pytest.mark.parametrize("label", SMALL_GROUPS)
def test_orbit_permutations_preserve_lengths(label):
    spec = root_system(label)
    form = killing_form(spec)
    pos = positive_roots(spec)
    lengths = [form.length_sq(r) for r in pos]
    for sigma in weyl_orbit_permutations(spec):
        assert [lengths[sigma[i]] for i in range(len(pos))] == lengths


def test_g2_long_short_split():
    long_idx, short_idx = long_short_split(root_system("G2"))
    assert long_idx == (0, 4, 5)
    assert short_idx == (1, 2, 3)


def test_mixed_sign_vector_is_not_a_root():
    with pytest.raises(DomainError):
        Root((1, -1))
