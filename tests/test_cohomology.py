import pytest
from conftest import in_span

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
from orecohom.kalgebra import (
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
    C = gh4_complex
    for r in range(4):
        assert C.bases[r] == C.bases[r + 4]
    for r in range(1, 4):
        assert C.dmats[r] == C.dmats[r + 4]


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
