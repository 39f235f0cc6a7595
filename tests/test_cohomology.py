import pytest
from conftest import CANNED, in_span, twist_period, unfolded_complex, unfolded_dims

from orecohom.cohomology import (
    Bimodule,
    CohomologyError,
    SmallComplex,
    classes_equal,
    cohomology_dims,
    cohomology_group,
    complex_report,
    twisted_invariants,
)
from orecohom.fields import QQ, prime_field
from orecohom.instances import gh4_instance, taft
from orecohom.kalgebra import (
    AlgebraK,
    Endo,
    character_from_values,
    cyclic_group,
    endo_from_character,
    group_algebra,
    identity_endo,
    scalar_algebra,
)
from orecohom.linalg import Mat
from orecohom.monogenic import MonogenicAlgebra


@pytest.fixture(scope="module")
def sweedler():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -1})
    alpha = endo_from_character(K, chi)
    return MonogenicAlgebra(K, alpha, [{}, {}])


@pytest.fixture(scope="module")
def sweedler_complex(sweedler):
    M = Bimodule.regular(sweedler)
    return SmallComplex(sweedler, M, 6)


def line_algebra(f_tail):
    K = scalar_algebra(QQ)
    return MonogenicAlgebra(K, identity_endo(K), f_tail)


@pytest.fixture(scope="module")
def gh4_complex(gh4_u3):
    return gh4_u3[2]


def test_regular_bimodule_validates(sweedler):
    M = Bimodule.regular(sweedler)
    rep = M.validate()
    assert rep.ok, rep.failures


def test_corrupted_actions_rejected(sweedler):
    M = Bimodule.regular(sweedler)
    with pytest.raises(CohomologyError, match="x-relation|commute|zero"):
        Bimodule.from_actions(sweedler, M.L_k, M.Rx, M.R_k, M.Lx)


def taft37_actions():
    """The actions of the regular bimodule of Taft n = 3 over GF(7): dim K = 3,
    dim A = 9."""
    alg = taft(3, 7, 2)[0]
    M = Bimodule.regular(alg)
    return alg, {"L_k": list(M.L_k), "Lx": M.Lx, "R_k": list(M.R_k), "Rx": M.Rx}


def test_from_actions_accepts_the_regular_actions():
    alg, actions = taft37_actions()
    M = Bimodule.from_actions(alg, **actions)
    assert (len(M.L_k), len(M.R_k), M.dim) == (3, 3, 9)


@pytest.mark.parametrize("change, message", [
    (lambda a: {"L_k": a["L_k"][:-1]}, "2 left actions of K's basis, expected dim K = 3"),
    (lambda a: {"R_k": a["R_k"] + a["R_k"][:1]}, "4 right actions of K's basis, expected dim K = 3"),
    (lambda a: {"L_k": [a["L_k"][0], Mat.identity(a["Lx"].field, 2), a["L_k"][2]]},
     "L_k[1] is 2x2, expected 9x9"),
    (lambda a: {"Rx": Mat.zero(a["Lx"].field, 9, 3)}, "Rx is 9x3, expected 9x9"),
], ids=["left-short", "right-extra", "small-action", "rx-shape"])
def test_from_actions_checks_count_and_shapes(change, message):
    alg, actions = taft37_actions()
    with pytest.raises(CohomologyError) as info:
        Bimodule.from_actions(alg, **{**actions, **change(actions)})
    assert str(info.value) == message


def test_sweedler_cochain_spaces(sweedler, sweedler_complex):
    C = sweedler_complex
    assert [C.dim_cochain(r) for r in range(6)] == [2] * 6
    assert [C.twist(r) for r in range(5)] == [0, 1, 2, 3, 4]
    one = sweedler.one.coords
    g = sweedler.k_embed("g").coords
    x = sweedler.x.coords
    gx = sweedler.monomial("g", 1).coords
    for v in (one, g):
        assert in_span(C.bases[0], v)
        assert not in_span(C.bases[1], v)
    for v in (x, gx):
        assert in_span(C.bases[1], v)
        assert not in_span(C.bases[0], v)


def test_twisted_invariants_depend_on_parity(sweedler):
    M = Bimodule.regular(sweedler)
    even = twisted_invariants(M, 0)
    odd = twisted_invariants(M, 1)
    assert even.cols == 2 and odd.cols == 2
    assert twisted_invariants(M, 2) == even
    assert twisted_invariants(M, 3) == odd


def test_sweedler_differentials(sweedler, sweedler_complex):
    C = sweedler_complex
    g = sweedler.k_embed("g")
    gx = sweedler.monomial("g", 1)
    # odd target: m -> xm - mx
    image = C.d_ambient(1, g.coords)
    assert image == ((-2) * gx).coords
    assert C.d_ambient(1, sweedler.one.coords) == sweedler.zero_elem().coords
    # even target with f = x^2: m -> xm + mx, zero on x-degree-1 elements
    assert C.d_ambient(2, sweedler.x.coords) == sweedler.zero_elem().coords
    assert C.d_ambient(2, gx.coords) == sweedler.zero_elem().coords


def test_sweedler_cohomology(sweedler, sweedler_complex):
    C = sweedler_complex
    assert cohomology_dims(C, 5) == [1, 1, 1, 1, 1, 1]
    H1 = cohomology_group(C, 1)
    gx = sweedler.monomial("g", 1).coords
    x = sweedler.x.coords
    assert H1.is_coboundary(gx)
    assert not H1.is_coboundary(x)
    assert not classes_equal(C, 1, x, gx)
    shifted = sweedler.x + 3 * sweedler.monomial("g", 1)
    assert classes_equal(C, 1, shifted.coords, x)


def test_sweedler_noncocycle_rejected(sweedler, sweedler_complex):
    H0 = cohomology_group(sweedler_complex, 0)
    with pytest.raises(CohomologyError, match="cocycle"):
        H0.class_coords(sweedler.k_embed("g").coords)


def test_truncated_square():
    A = line_algebra([0, 0])  # f = x^2 over the rationals
    C = SmallComplex(A, Bimodule.regular(A), 5)
    assert [C.dim_cochain(r) for r in range(5)] == [2] * 5
    # even differential is multiplication by 2x
    assert C.d_ambient(2, A.one.coords) == (2 * A.x).coords
    assert C.d_ambient(1, A.x.coords) == A.zero_elem().coords
    assert cohomology_dims(C, 4) == [2, 1, 1, 1, 1]


def test_unit_quadratic():
    A = line_algebra([0, -1])  # f = x^2 - 1, derivative invertible
    C = SmallComplex(A, Bimodule.regular(A), 5)
    assert cohomology_dims(C, 4) == [2, 0, 0, 0, 0]


def test_gf3_truncated_cube():
    K = scalar_algebra(prime_field(3))
    A = MonogenicAlgebra(K, identity_endo(K), [0, 0, 0])  # f = x^3 in char 3
    C = SmallComplex(A, Bimodule.regular(A), 5)
    assert [C.dim_cochain(r) for r in range(5)] == [3] * 5
    assert all(C.dmats[r].is_zero() for r in range(1, 6))
    assert cohomology_dims(C, 4) == [3, 3, 3, 3, 3]


def test_gh4_cochain_dims(gh4_complex):
    C = gh4_complex
    assert [C.dim_cochain(r) for r in range(8)] == [6, 6, 2, 2, 6, 6, 2, 2]


def test_gh4_cohomology_dims(gh4_complex):
    assert cohomology_dims(gh4_complex, 6) == [2, 2, 1, 1, 2, 2, 1]


def test_gh4_degree_two_class(gh4_complex):
    C = gh4_complex
    A = C.alg
    w = A.k_embed("g") - A.k_embed("g^2")
    H2 = cohomology_group(C, 2)
    coords = H2.class_coords(w.coords)
    assert any(not c.is_zero() for c in coords)
    assert H2.dim == 1


def test_gh4_periodicity_on_the_nose(gh4_complex):
    """The unfolded complex repeats with period 4, and the folded one equals
    it entry for entry.  The folded ``C.dmats[r + 4]`` is ``C.dmats[r]``
    itself, so only the unfolded build can show the period."""
    C = gh4_complex
    bases, dmats = unfolded_complex(C.alg, C.max_degree)
    for r in range(4):
        assert bases[r] == bases[r + 4] == C.bases[r + 4]
    for r in range(1, 4):
        assert dmats[r] == dmats[r + 4] == C.dmats[r + 4]


@pytest.mark.parametrize("name", ["gh4_u2", "sweedler", "taft37", "c4_sign", "pair_swap"])
def test_folded_complex_equals_unfolded(name):
    """Through three periods of the twist, every folded basis and
    differential equals the one built on a fresh bimodule in its own
    degree, and so do the cohomology dimensions."""
    alg = CANNED[name]()
    top = 3 * twist_period(alg)
    C = SmallComplex(alg, Bimodule.regular(alg), top)
    bases, dmats = unfolded_complex(alg, top)
    assert C.bases == bases
    for r in range(1, top + 1):
        assert C.dmats[r].data == dmats[r].data, r
    assert cohomology_dims(C, top - 1) == unfolded_dims(bases, dmats, top - 1)


def dual_numbers_doubling():
    """K = Q[t]/(t^2) twisted by t -> 2t, with f = x^2: alpha has infinite
    order, so no two twists alpha^r are equal matrices."""
    K = AlgebraK.from_structure_constants(
        QQ, 2, ["1", "t"], (1, 0), [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    )
    alpha = Endo(K, Mat(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.scalar(2)]]))
    return MonogenicAlgebra(K, alpha, [{}, {}])


def test_infinite_order_twist_compiles_every_degree():
    alg = dual_numbers_doubling()
    assert alg.alpha.order is None
    top = 8
    C = SmallComplex(alg, Bimodule.regular(alg), top)
    assert len({id(B) for B in C.bases}) == top + 1
    assert len({id(d) for d in C.dmats[1:]}) == top
    bases, dmats = unfolded_complex(alg, top)
    assert C.bases == bases
    assert [d.data for d in C.dmats[1:]] == [d.data for d in dmats[1:]]
    assert cohomology_dims(C, top - 1) == unfolded_dims(bases, dmats, top - 1)
    assert len({id(cohomology_group(C, r).core) for r in range(top)}) == top


@pytest.fixture(scope="module")
def gh4_u2_deep():
    alg = gh4_instance(2)[0]
    return SmallComplex(alg, Bimodule.regular(alg), 32)


def test_fold_shares_differentials_and_group_cores(gh4_u2_deep):
    """gh4(2)'s twist has order 4 and n = 2, so degree 32 needs four
    differentials, one per residue of r mod 4, and five group cores: H^0 and
    one per residue for r >= 1."""
    C = gh4_u2_deep
    rows = complex_report(C)
    assert len({id(d) for d in C.dmats[1:]}) == 4
    assert len({id(cohomology_group(C, r).core) for r in range(32)}) == 5
    for r in range(5, 32):
        assert C.dmats[r] is C.dmats[r - 4]
        assert rows[r]["representatives"] == rows[r - 4]["representatives"]
    bases, dmats = unfolded_complex(C.alg, 32)
    assert [row["dim_H"] for row in rows] == unfolded_dims(bases, dmats, 31)


def aliased_test_vectors(C, r):
    """Cocycles of degree r: class representatives, coboundaries and their
    sums."""
    reps = cohomology_group(C, r).reps_ambient
    bounds = [C.d_ambient(r, v) for v in C.bases[r - 1].columns_list()]
    sums = [tuple(a + b for a, b in zip(rep, bd)) for rep in reps for bd in bounds]
    return reps + bounds + sums


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_aliased_degrees_give_the_same_classes(gh4_u2_deep, r):
    C = gh4_u2_deep
    H, H4 = cohomology_group(C, r), cohomology_group(C, r + 4)
    assert H is not H4 and H.core is H4.core
    assert (H.degree, H4.degree) == (r, r + 4)
    for v in aliased_test_vectors(C, r):
        assert H.class_coords(v) == H4.class_coords(v)
        assert H.is_coboundary(v) == H4.is_coboundary(v)
        assert classes_equal(C, r, v, v) and classes_equal(C, r + 4, v, v)


def outside_vector(C, r):
    """An ambient unit vector outside the degree-r cochain space."""
    for i in range(C.M.dim):
        v = tuple(C.field.one if j == i else C.field.zero for j in range(C.M.dim))
        if not in_span(C.bases[r], v):
            return v
    raise AssertionError(f"C^{r} is all of M")


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_aliased_errors_name_the_degree_asked_for(gh4_u2_deep, r):
    C = gh4_u2_deep
    v = outside_vector(C, r)
    for s in (r, r + 4, r + 8):
        with pytest.raises(CohomologyError, match=f"degree-{s} cochain space"):
            C.to_sub(s, v)
        with pytest.raises(CohomologyError, match=f"degree-{s} cochain space"):
            cohomology_group(C, s).class_coords(v)


def test_report_bookkeeping(sweedler_complex, gh4_complex):
    for C in (sweedler_complex, gh4_complex):
        rows = complex_report(C)
        for entry in rows:
            assert entry["dim_H"] == (
                entry["dim_cochain"] - entry["rank_out"] - entry["rank_in"]
            )
            assert len(entry["representatives"]) == entry["dim_H"]


def test_report_encodes_representatives(sweedler_complex):
    rows = complex_report(sweedler_complex)
    field = sweedler_complex.field
    top = rows[0]["representatives"][0]
    decoded = [field.decode(c) for c in top]
    assert len(decoded) == sweedler_complex.M.dim


def test_degree_needs_headroom(sweedler_complex):
    with pytest.raises(CohomologyError, match="degree"):
        cohomology_group(sweedler_complex, sweedler_complex.max_degree)


def test_ambient_roundtrip(sweedler_complex):
    C = sweedler_complex
    for r in range(3):
        for j in range(C.dim_cochain(r)):
            v = C.bases[r].column(j)
            sub = C.to_sub(r, v)
            assert C.to_ambient(r, sub) == v


def test_wrong_space_rejected(sweedler, sweedler_complex):
    with pytest.raises(CohomologyError, match="cochain space"):
        sweedler_complex.to_sub(0, sweedler.x.coords)
