import itertools

import pytest
from conftest import class_sums, in_span

from orecohom.fields import QQ, cyclotomic_minpoly, extension_field, prime_field
from orecohom.kalgebra import (
    AlgebraError,
    AlgebraK,
    Endo,
    algebra_validate,
    char_power,
    character_from_values,
    character_kernel,
    character_order,
    cyclic_group,
    endo_from_character,
    group_algebra,
    group_from_presentation_gh4,
    identity_endo,
    quaternion_algebra,
    twisted_invariants_k,
    validate_character,
)
from orecohom.linalg import Mat


def test_dim_one_algebra():
    K = AlgebraK.from_structure_constants(QQ, 1, ["1"], (QQ.one,), [(0, 0, 0, QQ.one)])
    assert algebra_validate(K).ok


@pytest.mark.parametrize("x", ["h", {"h": 1}, {"g": 1, "h": 2}], ids=["label", "dict", "dict-partly-known"])
def test_elem_of_an_unknown_label_names_it(x):
    K = group_algebra(cyclic_group(2), QQ)
    with pytest.raises(AlgebraError, match=r"^unknown basis label 'h'; K's labels are \['1', 'g'\]$"):
        K.elem(x)
    assert K.elem("g") == K.elem({"g": 1}) == K.basis_elem(1)


def test_group_algebra_c2():
    K = group_algebra(cyclic_group(2), QQ)
    assert K.dim == 2
    assert algebra_validate(K).ok
    g = K.elem("g")
    assert K.kmul(g, g) == K.unit


def test_corrupted_constants_fail():
    # dim-1 case: e*e = 2e breaks the unit law at the only basis vector
    K1 = AlgebraK.from_structure_constants(QQ, 1, ["1"], (QQ.one,), [(0, 0, 0, QQ.from_int(2))])
    rep = algebra_validate(K1)
    assert not rep.ok and "unit law" in rep.failures[0]
    # C3 table with g*g redirected to 1: (g g) g^2 != g (g g^2)
    quads = [(a, b, (a + b) % 3, QQ.one) for a in range(3) for b in range(3)]
    quads[quads.index((1, 1, 2, QQ.one))] = (1, 1, 0, QQ.one)
    K2 = AlgebraK.from_structure_constants(QQ, 3, ["1", "g", "g^2"], (QQ.one, QQ.zero, QQ.zero), quads)
    rep = algebra_validate(K2)
    assert not rep.ok
    assert any("associativity fails at triple" in f for f in rep.failures)


def test_corrupted_constants_name_the_first_triple():
    # the C3 table above with g*g redirected to 1: the unit law holds, and in
    # lexicographic order the first triple that breaks is (g, g, g^2), where
    # (g g) g^2 = g^2 but g (g g^2) = g
    quads = [(a, b, (a + b) % 3, QQ.one) for a in range(3) for b in range(3)]
    quads[quads.index((1, 1, 2, QQ.one))] = (1, 1, 0, QQ.one)
    K = AlgebraK.from_structure_constants(QQ, 3, ["1", "g", "g^2"], (QQ.one, QQ.zero, QQ.zero), quads)
    assert algebra_validate(K).failures == ("associativity fails at triple (1,1,2)",)


def test_gh4_group():
    G = group_from_presentation_gh4(3)
    assert G.order == 12
    g = G.labels.index("g")
    h = G.labels.index("h")
    assert G.conj(h, g) == G.inverses[g]
    # class of g is {g, g^-1}
    cls = next(c for c in G.conj_classes() if g in c)
    assert sorted(cls) == sorted([g, G.inverses[g]])
    assert group_from_presentation_gh4(1).order == 4
    assert group_from_presentation_gh4(2).order == 8


def test_gh4_algebra_center_dim_is_class_count():
    G = group_from_presentation_gh4(3)
    K = group_algebra(G, QQ)
    assert algebra_validate(K).ok
    Z = K.center_basis()
    assert Z.cols == len(G.conj_classes())
    for s in class_sums(K):
        assert in_span(Z, s)


def test_class_sums_central():
    G = group_from_presentation_gh4(2)
    K = group_algebra(G, QQ)
    for s in class_sums(K):
        for i in range(K.dim):
            e = K.basis_elem(i)
            assert K.kmul(s, e) == K.kmul(e, s)


def test_character_sign_on_c2():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -QQ.one})
    assert validate_character(G, chi).ok
    alpha = endo_from_character(K, chi)
    assert alpha.matrix == Mat(QQ, [[QQ.one, QQ.zero], [QQ.zero, -QQ.one]])
    assert alpha.is_automorphism
    assert alpha.validate().ok
    assert character_order(G, chi) == 2
    assert character_kernel(G, chi) == [0]


def test_character_power_consistency():
    Qi = extension_field(QQ, cyclotomic_minpoly(4), "i")
    G = cyclic_group(4)
    K = group_algebra(G, Qi)
    chi = character_from_values(G, Qi, {"g": Qi.gen})
    alpha = endo_from_character(K, chi)
    for r in range(5):
        ar = endo_from_character(K, char_power(chi, r))
        assert alpha.power_matrix(r) == ar.matrix
    assert character_order(G, chi) == 4


def test_gh4_character():
    Qi = extension_field(QQ, [1, 0, 1], "i")
    G = group_from_presentation_gh4(3)
    chi = character_from_values(G, Qi, {"g": Qi.one, "h": Qi.gen})
    assert validate_character(G, chi).ok
    # chi(g^j h^l) = i^l
    for j, l in itertools.product(range(3), range(4)):
        g = G.labels.index("g")
        h = G.labels.index("h")
        e = G.identity
        for _ in range(j):
            e = G.mul(e, g)
        for _ in range(l):
            e = G.mul(e, h)
        assert chi[e] == Qi.gen ** l
    K = group_algebra(G, Qi)
    alpha = endo_from_character(K, chi)
    assert alpha.validate().ok and alpha.order == 4


def test_bad_character_rejected():
    G = cyclic_group(2)
    with pytest.raises(AlgebraError):
        character_from_values(G, QQ, {"g": QQ.from_int(2)})  # 2^2 != 1
    K = group_algebra(G, QQ)
    bad = [QQ.one, QQ.zero]
    assert not validate_character(G, bad).ok
    with pytest.raises(AlgebraError):
        endo_from_character(K, bad)


def test_quaternions():
    H, alpha = quaternion_algebra(QQ, -QQ.one, QQ.zero, QQ.zero, QQ.one)
    assert algebra_validate(H).ok
    i, j, k = H.elem("i"), H.elem("j"), H.elem("k")
    assert H.kmul(i, j) == k
    assert H.kmul(j, i) == H.elem({"k": -1})
    assert H.kmul(i, i) == H.elem(-1)
    # theta = pi: i -> -i, j -> -j, k -> k
    assert alpha.apply(i) == H.elem({"i": -1})
    assert alpha.apply(j) == H.elem({"j": -1})
    assert alpha.apply(k) == k
    assert H.center_basis().cols == 1
    with pytest.raises(AlgebraError):
        quaternion_algebra(QQ, QQ.one, QQ.one, QQ.one, QQ.zero)


def test_quaternion_half_angle_sqrt2():
    F = extension_field(QQ, [-2, 0, 1], "s")  # s = sqrt(2)
    t = F.gen / 2
    H, alpha = quaternion_algebra(F, F.zero, F.one, t, t)
    assert alpha.validate().ok
    assert alpha.order == 4


def test_twisted_invariants_group_algebra():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -QQ.one})
    alpha = endo_from_character(K, chi)
    # u g = -g u forces u = 0 in a commutative algebra; r = 0 gives everything
    inv0 = twisted_invariants_k(K, alpha, 0)
    inv1 = twisted_invariants_k(K, alpha, 1)
    assert inv0.cols == 2 and inv1.cols == 0
    assert twisted_invariants_k(K, alpha, 2).cols == 2


def test_quotient_group():
    G = cyclic_group(8)
    sub = G.subgroup_generated([G.labels.index("g^4")])
    Q, proj = G.quotient_group(sub)
    assert Q.order == 4
    assert proj[G.labels.index("g^4")] == Q.identity
    with pytest.raises(AlgebraError):
        H = group_from_presentation_gh4(3)
        H.quotient_group(H.subgroup_generated([H.labels.index("h")]))  # not normal


def test_identity_endo():
    K = group_algebra(cyclic_group(3), QQ)
    e = identity_endo(K)
    assert e.validate().ok and e.order == 1
