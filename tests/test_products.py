import itertools
import json
from pathlib import Path

import pytest
from conftest import (
    bracket_bar,
    circle_j,
    compose_place_small,
    cup_bar,
    identity_one_cochain,
    phi_psi_class_identity,
)

from orecohom import cli, instances, products
from orecohom.cohomology import (
    Bimodule,
    SmallComplex,
    build_small_complex,
    classes_equal,
    cohomology_group,
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
from orecohom.monogenic import AElem, MonogenicAlgebra
from orecohom.specio import load_instance
from orecohom.products import (
    BarCochain,
    BarOracle,
    ComparisonMaps,
    ProductsError,
    ProductStore,
    SmallCochain,
    all_bar_indices,
    bar_differential,
    bracket_class_table,
    bracket_small_closed,
    bracket_small_generic,
    chain_map_report,
    cup_class_table,
    cup_small,
    cup_small_oracle,
    phi_closed,
    phi_eval,
    psi_eval,
)

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


@pytest.fixture(scope="module")
def sweedler():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -1})
    alpha = endo_from_character(K, chi)
    return MonogenicAlgebra(K, alpha, [{}, {}])


@pytest.fixture(scope="module")
def sweedler_complex(sweedler):
    return SmallComplex(sweedler, Bimodule.regular(sweedler), 6)


@pytest.fixture(scope="module")
def gf3_cubic():
    K = scalar_algebra(prime_field(3))
    return MonogenicAlgebra(K, identity_endo(K), [0, 0, 0])


@pytest.fixture(scope="module")
def gf3_complex(gf3_cubic):
    return SmallComplex(gf3_cubic, Bimodule.regular(gf3_cubic), 6)


@pytest.fixture(scope="module")
def line_cubic():
    K = scalar_algebra(QQ)
    return MonogenicAlgebra(K, identity_endo(K), [1, 2, 1])


@pytest.fixture(scope="module")
def line_cubic_complex(line_cubic):
    return SmallComplex(line_cubic, Bimodule.regular(line_cubic), 5)


@pytest.fixture(scope="module")
def c4_sign():
    G = cyclic_group(4)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -1})
    alpha = endo_from_character(K, chi)
    return MonogenicAlgebra(K, alpha, [{}, {"1": 1, "g^2": -1}])


@pytest.fixture(scope="module")
def c4_complex(c4_sign):
    return SmallComplex(c4_sign, Bimodule.regular(c4_sign), 6)


# -- comparison maps on cochains ----------------------------------------------


def test_psi_low_degrees(sweedler):
    A = sweedler
    g = A.k_embed(A.K.elem("g"))
    gx = A.monomial(A.K.elem("g"), 1)
    assert psi_eval(SmallCochain(A, 0, g)).table == {(): g}
    assert psi_eval(SmallCochain.from_kx(A, 1, "g")).table == {(1,): gx}
    assert psi_eval(SmallCochain.from_k(A, 2, 1)).table == {(1, 1): A.one}
    assert psi_eval(SmallCochain.from_kx(A, 3, "g")).table == {(1, 1, 1): gx}


def test_psi_even_support_pattern(gf3_cubic):
    A = gf3_cubic
    mu = SmallCochain.from_k(A, 2, 2)
    t = psi_eval(mu)
    two = A.k_embed(A.K.elem(2))
    assert t.at((1, 2)) == two
    assert t.at((2, 1)) == two
    assert t.at((1, 1)).is_zero()
    # outside the flat patterns the division quotient itself appears
    assert t.at((2, 2)) == A.monomial(A.K.elem(2), 1)
    quad = psi_eval(SmallCochain.from_k(A, 4, 1))
    assert quad.at((1, 2, 1, 2)) == A.one
    assert quad.at((1, 2, 2, 1)) == A.one
    assert quad.at((1, 2, 1, 1)).is_zero()
    assert quad.at((1, 1, 1, 2)).is_zero()


def test_psi_odd_support_pattern(gf3_cubic):
    A = gf3_cubic
    mux = SmallCochain.from_kx(A, 3, 2)
    t = psi_eval(mux)
    assert t.at((1, 2, 1)) == A.monomial(A.K.elem(2), 1)
    assert t.at((1, 1, 1)).is_zero()
    # last index free: the twisted partial sum scales x^l (here alpha = id)
    assert t.at((2, 1, 2)) == A.monomial(A.K.elem(4), 2)
    assert t.at((2, 1, 1)) == A.monomial(A.K.elem(2), 1)
    assert t.at((1, 1, 2)).is_zero()


def test_psi_output_is_twisted_invariant(sweedler):
    m = SmallCochain.from_kx(sweedler, 3, "g")
    t = psi_eval(m)
    BarCochain(sweedler, 3, t.table, check=True)


def test_phi_low_degrees(sweedler):
    A = sweedler
    g = A.k_embed(A.K.elem("g"))
    gx = A.monomial(A.K.elem("g"), 1)
    assert phi_eval(BarCochain(A, 0, {(): g})).value == g
    assert phi_eval(BarCochain(A, 1, {(1,): gx})).value == gx
    assert phi_eval(BarCochain(A, 2, {(1, 1): g})).value == g


def test_phi_psi_fix_cohomology_classes(sweedler_complex, gf3_complex, c4_complex):
    for C in (sweedler_complex, gf3_complex, c4_complex):
        for r in range(5):
            assert phi_psi_class_identity(C, r), (C.alg.n, r)


def test_phi_psi_fix_classes_line_cubic(line_cubic_complex):
    for r in range(4):
        assert phi_psi_class_identity(line_cubic_complex, r)


# -- bar differential and chain maps ------------------------------------------


def test_bar_differential_of_constant_unit_vanishes(sweedler):
    b = bar_differential(BarCochain(sweedler, 0, {(): sweedler.one}))
    assert b.is_zero()


def test_bar_differential_squares_to_zero(line_cubic):
    A = line_cubic
    g = BarCochain(A, 1, {(1,): A.xpow(2), (2,): A.one + A.xpow(1)})
    assert bar_differential(bar_differential(g)).is_zero()


def test_chain_maps_commute(sweedler_complex, gf3_complex, c4_complex):
    for C in (sweedler_complex, gf3_complex, c4_complex):
        rep = chain_map_report(C, 3)
        assert rep.ok, rep.failures


def test_chain_maps_commute_line_cubic(line_cubic_complex):
    rep = chain_map_report(line_cubic_complex, 3)
    assert rep.ok, rep.failures


def test_chain_map_report_needs_headroom(sweedler):
    M = Bimodule.regular(sweedler)
    sub = SmallComplex(sweedler, M, 2)
    with pytest.raises(ProductsError, match="built"):
        chain_map_report(sub, 3)


# -- resolution-level comparison maps ------------------------------------------


def test_comparison_closed_matches_recursion(sweedler, gf3_cubic, c4_sign):
    for alg in (sweedler, gf3_cubic, c4_sign):
        rep = ComparisonMaps(alg, 5).comparison_report(4)
        assert rep.ok, rep.failures


def test_comparison_closed_matches_recursion_line_cubic(line_cubic):
    rep = ComparisonMaps(line_cubic, 5).comparison_report(4)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("name, degree", [("psi_terms", 3), ("phi_terms", 4)])
def test_comparison_report_sees_a_dropped_closed_term(line_cubic, monkeypatch, name, degree):
    """The closed maps and their `_eval` forms share one term generator; the
    recursion is a second computation, so losing one closed term in one
    degree makes the report fail there."""
    terms = getattr(products, name)

    def dropped(alg, at):
        out = list(terms(alg, at))
        return out[:-1] if (len(at) if isinstance(at, tuple) else at) == degree else out

    monkeypatch.setattr(products, name, dropped)
    rep = ComparisonMaps(line_cubic, 5).comparison_report(4)
    assert not rep.ok
    assert rep.failures[0].startswith(f"{name[:3]} mismatch at degree {degree}")


def test_phi_closed_low_degrees(line_cubic):
    A = line_cubic
    assert phi_closed(A, 0) == {(): A.one}
    assert phi_closed(A, 1) == {(1,): A.one}
    # entries from the two blocks with slot room: the x^1 coefficient of f
    # contributes 1 to key (1,1), the leading block adds x there and 1 at (1,2)
    d2 = phi_closed(A, 2)
    assert set(d2) == {(1, 1), (1, 2)}
    assert d2[(1, 1)] == A.one + A.xpow(1)
    assert d2[(1, 2)] == A.one


# -- cup products ---------------------------------------------------------------


def test_cup_with_unit_is_identity(sweedler):
    A = sweedler
    one0 = SmallCochain.from_k(A, 0, 1)
    for b in (
        SmallCochain.from_k(A, 0, "g"),
        SmallCochain.from_kx(A, 1, "g"),
        SmallCochain.from_k(A, 2, 1),
    ):
        assert cup_small(one0, b).value == b.value
        assert cup_small(b, one0).value == b.value


def test_cup_odd_odd_vanishes_for_square_zero(sweedler):
    A = sweedler
    x1 = SmallCochain.from_kx(A, 1, 1)
    assert cup_small(x1, x1).value.is_zero()


def test_cup_odd_odd_unit_obstruction(c4_sign):
    A = c4_sign
    x1 = SmallCochain.from_kx(A, 1, 1)
    expect = A.k_embed(A.K.elem({"1": -1, "g^2": 1}))
    assert cup_small(x1, x1).value == expect


def test_cup_obstruction_is_a_coboundary(c4_sign, c4_complex):
    A = c4_sign
    val = cup_small(SmallCochain.from_kx(A, 1, 1), SmallCochain.from_kx(A, 1, 1))
    H2 = cohomology_group(c4_complex, 2)
    assert H2.is_coboundary(val.value.coords)


def test_cup_closed_matches_bar_oracle(sweedler):
    A = sweedler
    basis = {
        0: [SmallCochain.from_k(A, 0, 1), SmallCochain.from_k(A, 0, "g")],
        1: [SmallCochain.from_kx(A, 1, 1), SmallCochain.from_kx(A, 1, "g")],
        2: [SmallCochain.from_k(A, 2, 1), SmallCochain.from_k(A, 2, "g")],
    }
    for p in range(3):
        for q in range(3):
            for a in basis[p]:
                for b in basis[q]:
                    assert cup_small(a, b) == cup_small_oracle(a, b)


def test_cup_closed_matches_bar_oracle_nonzero_tail(c4_sign):
    A = c4_sign
    basis = {
        0: [SmallCochain.from_k(A, 0, 1), SmallCochain.from_k(A, 0, "g")],
        1: [SmallCochain.from_kx(A, 1, 1), SmallCochain.from_kx(A, 1, "g")],
        2: [SmallCochain.from_k(A, 2, 1), SmallCochain.from_k(A, 2, "g")],
    }
    for p in range(3):
        for q in range(3):
            for a in basis[p]:
                for b in basis[q]:
                    assert cup_small(a, b) == cup_small_oracle(a, b)


def test_cup_bar_is_associative(gf3_cubic):
    A = gf3_cubic
    g = BarCochain(A, 1, {(1,): A.xpow(1), (2,): A.xpow(2)})
    h = BarCochain(A, 1, {(2,): A.one + A.xpow(1)})
    k = BarCochain(A, 2, {(1, 2): A.xpow(2)})
    assert cup_bar(cup_bar(g, h), k) == cup_bar(g, cup_bar(h, k))


def test_cup_graded_commutative_on_classes(sweedler_complex):
    C = sweedler_complex
    A = C.alg
    for p in range(3):
        for q in range(3):
            Hp, Hq = cohomology_group(C, p), cohomology_group(C, q)
            for av in Hp.reps_ambient:
                for bv in Hq.reps_ambient:
                    a = SmallCochain(A, p, AElem(A, av), check=False)
                    b = SmallCochain(A, q, AElem(A, bv), check=False)
                    ab = cup_small(a, b).value
                    ba = cup_small(b, a).value
                    if p * q % 2:
                        ba = -ba
                    assert classes_equal(C, p + q, ab.coords, ba.coords)


def test_cup_respects_coboundary_shift(sweedler, sweedler_complex):
    A = sweedler
    x1 = SmallCochain.from_kx(A, 1, 1)
    shifted = SmallCochain(A, 1, x1.value + A.monomial(A.K.elem({"g": -2}), 1))
    b = SmallCochain.from_k(A, 2, 1)
    lhs = cup_small(x1, b).value
    rhs = cup_small(shifted, b).value
    assert classes_equal(sweedler_complex, 3, lhs.coords, rhs.coords)


# -- composition and brackets on the bar side ----------------------------------


def test_circle_with_identity_cochain(gf3_cubic):
    A = gf3_cubic
    ident = identity_one_cochain(A)
    g = BarCochain(A, 2, {(1, 2): A.xpow(2), (2, 2): A.one})
    assert circle_j(g, ident, 1) == g
    assert circle_j(g, ident, 2) == g


def test_circle_slot_out_of_range(sweedler):
    g = psi_eval(SmallCochain.from_kx(sweedler, 1, 1))
    with pytest.raises(ProductsError, match="slot"):
        circle_j(g, g, 2)
    with pytest.raises(ProductsError, match="slot"):
        circle_j(g, g, 0)


def test_degree_zero_composition_consumes_no_slots(sweedler):
    A = sweedler
    g = psi_eval(SmallCochain.from_kx(A, 1, "g"))
    h = BarCochain(A, 0, {(): A.k_embed(A.K.elem("g"))})
    out = circle_j(g, h, 1)
    assert out.degree == 0
    # the substituted value lies in K, so normalization kills the slot
    assert out.at(()).is_zero()


def test_degree_zero_composition_with_x_part(gf3_cubic):
    A = gf3_cubic
    g = BarCochain(A, 1, {(1,): A.one, (2,): A.xpow(2)})
    h = BarCochain(A, 0, {(): A.xpow(2) + A.k_embed(A.K.elem(1))})
    out = circle_j(g, h, 1)
    assert out.degree == 0
    assert out.at(()) == A.xpow(2)


def test_slotwise_values_even_into_odd(sweedler):
    A = sweedler
    a2 = SmallCochain.from_k(A, 2, "g")
    b1 = SmallCochain.from_kx(A, 1, "g")
    assert compose_place_small(a2, b1, 1).value == A.one
    assert compose_place_small(a2, b1, 2).value == -A.one


def test_slotwise_values_odd_into_odd(sweedler):
    A = sweedler
    a3 = SmallCochain.from_kx(A, 3, "g")
    b1 = SmallCochain.from_kx(A, 1, "g")
    x = A.x
    assert compose_place_small(a3, b1, 1).value == x
    assert compose_place_small(a3, b1, 2).value == -x
    assert compose_place_small(a3, b1, 3).value == x


def test_slotwise_even_inputs_vanish(sweedler):
    A = sweedler
    b0 = SmallCochain.from_k(A, 0, "g")
    a2 = SmallCochain.from_k(A, 2, "g")
    a3 = SmallCochain.from_kx(A, 3, "g")
    for j in (1, 2):
        assert compose_place_small(a2, b0, j).value.is_zero()
    for j in (1, 2, 3):
        assert compose_place_small(a3, b0, j).value.is_zero()


# -- Gerstenhaber bracket --------------------------------------------------------


def test_bracket_of_degree_zero_pair_is_zero(sweedler):
    A = sweedler
    a = SmallCochain.from_k(A, 0, "g")
    out = bracket_small_generic(a, a)
    assert out.degree == 0 and out.value.is_zero()


def test_bracket_degree_bound_enforced(sweedler):
    a = SmallCochain.from_kx(sweedler, 3, "g")
    with pytest.raises(ProductsError, match="bound"):
        bracket_small_generic(a, a, bound=4)


def test_bracket_odd_self_vanishes(sweedler):
    A = sweedler
    x1 = SmallCochain.from_kx(A, 1, 1)
    assert bracket_small_generic(x1, x1).value.is_zero()


def test_delta_sum(sweedler):
    """The orbit sums of the closed bracket, read off `Endo.norm`."""
    K = sweedler.K
    alpha = sweedler.alpha
    assert alpha.norm(0).matvec(K.elem("g")) == K.elem(0)
    assert alpha.norm(2).matvec(K.elem("g")) == K.elem(0)
    assert alpha.norm(3).matvec(K.elem("g")) == K.elem("g")
    assert alpha.norm(3).matvec(K.elem(1)) == K.elem(3)


def test_closed_bracket_formulas(sweedler):
    A = sweedler
    K = A.K
    two_g = bracket_small_closed(
        SmallCochain.from_k(A, 2, "g"), SmallCochain.from_kx(A, 1, 1), witness=True
    )
    assert two_g.value == A.k_embed(K.elem({"g": 2}))
    zero = bracket_small_closed(
        SmallCochain.from_k(A, 0, "g"), SmallCochain.from_kx(A, 1, "g"), witness=True
    )
    assert zero.value.is_zero()
    ee = bracket_small_closed(
        SmallCochain.from_k(A, 2, "g"), SmallCochain.from_k(A, 2, 1), witness=True
    )
    assert ee.degree == 3 and ee.value.is_zero()


def test_closed_bracket_requires_witness(sweedler):
    a = SmallCochain.from_k(sweedler, 2, "g")
    b = SmallCochain.from_kx(sweedler, 1, 1)
    with pytest.raises(ProductsError, match="witness"):
        bracket_small_closed(a, b, witness=None)


def test_closed_bracket_requires_canonical_inputs(sweedler):
    A = sweedler
    mixed = SmallCochain(A, 2, A.one + A.monomial(A.K.elem({"g": 1}), 1), check=False)
    with pytest.raises(ProductsError, match="canonical"):
        bracket_small_closed(mixed, SmallCochain.from_kx(A, 1, 1), witness=True)


def _canonical(alg, parity, m, lam):
    if parity == 0:
        return SmallCochain.from_k(alg, 2 * m, lam)
    return SmallCochain.from_kx(alg, 2 * m + 1, lam)


def test_generic_bracket_matches_closed_sweedler(sweedler):
    A = sweedler
    for pa in (0, 1):
        for ma in (0, 1):
            for pb in (0, 1):
                for mb in (0, 1):
                    for la in ("1", "g"):
                        for lb in ("1", "g"):
                            a = _canonical(A, pa, ma, la)
                            b = _canonical(A, pb, mb, lb)
                            got = bracket_small_generic(a, b)
                            want = bracket_small_closed(a, b, witness=True)
                            assert got == want, (pa, ma, pb, mb, la, lb)


def test_generic_bracket_matches_closed_c4(c4_sign):
    A = c4_sign
    for pa in (0, 1):
        for ma in (0, 1):
            for pb in (0, 1):
                for mb in (0, 1):
                    for la, lb in (("1", "g"), ("g", "g"), ("g", "1"), ("1", "1")):
                        a = _canonical(A, pa, ma, la)
                        b = _canonical(A, pb, mb, lb)
                        got = bracket_small_generic(a, b)
                        want = bracket_small_closed(a, b, witness=True)
                        assert got == want, (pa, ma, pb, mb, la, lb)


def test_odd_odd_closed_bracket_carries_x(sweedler):
    A = sweedler
    a = SmallCochain.from_kx(A, 1, 1)
    b = SmallCochain.from_kx(A, 3, "g")
    out = bracket_small_closed(a, b, witness=True)
    # (delta_1(g) - delta_3(1) g) x = (g - 3g) x
    assert out.value == A.monomial(A.K.elem({"g": -2}), 1)
    assert bracket_small_generic(a, b) == out


def test_even_classes_bracket_to_zero(sweedler_complex):
    C = sweedler_complex
    A = C.alg
    for p in (0, 2):
        for q in (0, 2):
            deg = p + q - 1
            if deg < 0:
                continue
            Hd = cohomology_group(C, deg)
            for av in cohomology_group(C, p).reps_ambient:
                for bv in cohomology_group(C, q).reps_ambient:
                    a = SmallCochain(A, p, AElem(A, av), check=False)
                    b = SmallCochain(A, q, AElem(A, bv), check=False)
                    out = bracket_small_generic(a, b)
                    assert Hd.is_coboundary(out.value.coords)


def test_second_kind_bracket_on_unit_pair(c4_sign):
    A = c4_sign
    x1 = SmallCochain.from_kx(A, 1, 1)
    gx = SmallCochain.from_kx(A, 1, "g")
    assert bracket_small_generic(x1, gx).value.is_zero()
    assert bracket_small_closed(x1, gx, witness=True).value.is_zero()


# -- serialized class tables ------------------------------------------------------


def test_cup_class_table_shape(sweedler_complex):
    rows = cup_class_table(sweedler_complex, 2)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {
            "deg_a",
            "deg_b",
            "basis_index_a",
            "basis_index_b",
            "result_class_coords",
        }
    F = sweedler_complex.field
    by_deg = {(r["deg_a"], r["deg_b"]): r for r in rows}
    unit_sq = by_deg[(0, 0)]
    assert any(not F.decode(c).is_zero() for c in unit_sq["result_class_coords"])
    odd_sq = by_deg[(1, 1)]
    assert all(F.decode(c).is_zero() for c in odd_sq["result_class_coords"])


def test_bracket_class_table_even_rows_vanish(sweedler_complex):
    rows = bracket_class_table(sweedler_complex, 3)
    assert rows
    F = sweedler_complex.field
    for row in rows:
        if row["deg_a"] % 2 == 0 and row["deg_b"] % 2 == 0:
            assert all(F.decode(c).is_zero() for c in row["result_class_coords"])


# -- validation edges --------------------------------------------------------------


def test_small_cochain_rejects_untwisted_value(sweedler):
    with pytest.raises(ProductsError, match="invariant"):
        SmallCochain(sweedler, 0, sweedler.x)


def test_canonical_constructor_parity(sweedler):
    with pytest.raises(ProductsError, match="even"):
        SmallCochain.from_k(sweedler, 1, 1)
    with pytest.raises(ProductsError, match="odd"):
        SmallCochain.from_kx(sweedler, 2, 1)


def test_bar_cochain_rejects_bad_index(sweedler):
    with pytest.raises(ProductsError, match="index"):
        BarCochain(sweedler, 1, {(2,): sweedler.one})


def test_bar_cochain_invariance_check(sweedler):
    with pytest.raises(ProductsError, match="invariant"):
        BarCochain(sweedler, 1, {(1,): sweedler.one}, check=True)


# -- the run's bar oracle ------------------------------------------------------


def cochain_key(m: SmallCochain) -> tuple:
    return m.degree, m.value.coords


@pytest.fixture
def oracle_work(monkeypatch):
    """Records the oracle's work while a test runs: each psi evaluation as
    (cochain key, bar index), each alternating sum of slot compositions as
    (ordered pair of cochain keys, bar index), each pair
    ``bracket_small_generic`` evaluates, each pair a ``BarOracle`` is asked
    to bracket, and each oracle built."""
    work = {"lift": [], "compose": [], "bracket": [], "asked": [], "oracles": []}
    psi, generic = products.psi_value, products.bracket_small_generic
    composition, ask, init = BarOracle._composition, BarOracle.bracket, BarOracle.__init__

    def psi_wrapper(alg, value, idx):
        # the degree of a lift is the length of its index
        work["lift"].append(((len(idx), value.coords), idx))
        return psi(alg, value, idx)

    def composition_wrapper(self, ia, ib, key):
        pair = cochain_key(self._cochains[ia]), cochain_key(self._cochains[ib])
        work["compose"].append((pair, key))
        return composition(self, ia, ib, key)

    def generic_wrapper(a, b, bound=5, oracle=None):
        work["bracket"].append((cochain_key(a), cochain_key(b)))
        return generic(a, b, bound, oracle)

    def ask_wrapper(self, a, b, bound=5):
        work["asked"].append((cochain_key(a), cochain_key(b)))
        return ask(self, a, b, bound)

    def init_wrapper(self, alg):
        work["oracles"].append(self)
        init(self, alg)

    monkeypatch.setattr(products, "psi_value", psi_wrapper)
    monkeypatch.setattr(products, "bracket_small_generic", generic_wrapper)
    monkeypatch.setattr(BarOracle, "_composition", composition_wrapper)
    monkeypatch.setattr(BarOracle, "bracket", ask_wrapper)
    monkeypatch.setattr(BarOracle, "__init__", init_wrapper)
    return work


@pytest.mark.parametrize("name", ["sweedler.json", "c4_sign.json"])
def test_products_run_does_each_oracle_piece_once(name, oracle_work, capsys):
    assert cli.main(["products", str(SPECS / name)]) == 0
    capsys.readouterr()
    lifts, compositions = oracle_work["lift"], oracle_work["compose"]
    brackets, asked = oracle_work["bracket"], oracle_work["asked"]
    [oracle] = oracle_work["oracles"]
    # one psi evaluation per (cochain, bar index)
    assert lifts and len(lifts) == len(set(lifts))
    # one oracle bracket per distinct pair: the run's product store asks the
    # oracle once per pair, and the agreement reads the stored class
    assert len(brackets) == len(set(brackets))
    assert set(brackets) == set(asked) and len(asked) == len(brackets)
    # one composition per (ordered pair, key): (a, b) and (b, a) share theirs,
    # and each pair is evaluated at the keys of phi in its degree and no other
    assert len(compositions) == len(set(compositions))
    needed = {pair for a, b in brackets if a[0] + b[0] > 0 for pair in ((a, b), (b, a))}
    assert {pair for pair, _ in compositions} == needed
    for a, b in needed:
        keys = {key for pair, key in compositions if pair == (a, b)}
        assert keys == set(phi_closed(oracle.alg, a[0] + b[0] - 1))


def test_each_run_builds_its_own_oracle(oracle_work, capsys):
    for _ in range(2):
        assert cli.main(["products", str(SPECS / "sweedler.json")]) == 0
    capsys.readouterr()
    first, second = oracle_work["oracles"]
    assert first is not second
    lifts = oracle_work["lift"]
    half = len(lifts) // 2
    assert lifts[:half] == lifts[half:]


def test_oracle_rejects_a_cochain_of_another_algebra(sweedler, c4_sign):
    oracle = BarOracle(sweedler)
    own = SmallCochain.from_kx(sweedler, 1, "g")
    foreign = SmallCochain.from_kx(c4_sign, 1, "g")
    with pytest.raises(ProductsError, match="another algebra"):
        oracle.bracket(foreign, own)
    with pytest.raises(ProductsError, match="another algebra"):
        oracle.bracket(own, foreign)
    with pytest.raises(ProductsError, match="another algebra"):
        bracket_small_generic(own, foreign, 5, oracle)
    with pytest.raises(ProductsError, match="another algebra"):
        cup_small_oracle(foreign, foreign, oracle)
    with pytest.raises(ProductsError, match="another algebra"):
        cup_small_oracle(own, foreign, oracle)


def test_oracle_keys_lifts_on_degree(gf3_cubic):
    """Cochains with one value in two degrees are two cochains, and each
    lift at every bar index is ``psi_eval``'s value there, computed once."""
    A = gf3_cubic
    oracle = BarOracle(A)
    a = SmallCochain(A, 0, A.one)
    b = SmallCochain.from_k(A, 2, 1)
    c = SmallCochain(A, 3, A.one + A.xpow(2), check=False)
    assert a.value.coords == b.value.coords
    ids = [oracle._id(m) for m in (a, b, c)]
    assert len(set(ids)) == 3 and [oracle._id(m) for m in (a, b, c)] == ids
    for m, i in zip((a, b, c), ids):
        full = psi_eval(m)
        for idx in all_bar_indices(A, m.degree):
            got = oracle._lift(i, idx)
            assert got == full.at(idx), (m.degree, idx)
            assert oracle._lift(i, idx) is got


def test_oracle_bound_gates_a_known_pair(sweedler):
    oracle = BarOracle(sweedler)
    a = SmallCochain.from_k(sweedler, 2, 1)
    b = SmallCochain.from_kx(sweedler, 3, "g")
    got = oracle.bracket(a, b, 5)
    assert got == bracket_small_generic(a, b, 5)
    assert oracle.bracket(a, b, 4) is got
    with pytest.raises(ProductsError, match="exceeds bound 3"):
        oracle.bracket(a, b, 3)


def assert_oracle_matches_the_eager_route(C, top: int):
    """The oracle's cup and bracket of every pair of class representatives
    whose product lands in degree at most ``top`` equal phi of the eager
    ``cup_bar`` and ``bracket_bar`` of the full lifts."""
    oracle = BarOracle(C.alg)
    lifts = {}

    def lift(m):
        key = cochain_key(m)
        if key not in lifts:
            lifts[key] = psi_eval(m)
        return lifts[key]

    reps = ProductStore(C, oracle).reps
    for p in range(top + 1):
        for q in range(top + 2 - p):
            for a, b in itertools.product(reps(p), reps(q)):
                if p + q <= top:
                    want = phi_eval(cup_bar(lift(a), lift(b)))
                    assert cup_small_oracle(a, b, oracle) == want, ("cup", p, q)
                if p + q:
                    want = phi_eval(bracket_bar(lift(a), lift(b)))
                    assert oracle.bracket(a, b, top) == want, ("bracket", p, q)


def test_oracle_matches_the_unshared_bar_route(sweedler_complex, c4_complex):
    for C in (sweedler_complex, c4_complex):
        assert_oracle_matches_the_eager_route(C, 4)


WELL_FORMED = sorted(p for p in SPECS.glob("*.json") if p.stem != "sweedler_bad")


@pytest.mark.parametrize("path", WELL_FORMED, ids=[p.stem for p in WELL_FORMED])
def test_oracle_matches_the_eager_route_on_every_spec(path):
    """Through degree 5, the default oracle bound."""
    alg = load_instance(str(path)).algebra()
    C = build_small_complex(alg, Bimodule.regular(alg), 7)
    assert_oracle_matches_the_eager_route(C, 5)


@pytest.mark.parametrize("n, p, zeta, top", [(4, 5, 2, 4), (6, 7, 3, 3)])
def test_oracle_matches_the_eager_route_on_taft(n, p, zeta, top):
    alg = instances.taft(n, p, zeta)[0]
    C = build_small_complex(alg, Bimodule.regular(alg), top + 2)
    assert_oracle_matches_the_eager_route(C, top)


def test_taft6_run_lifts_only_where_phi_reads(oracle_work, capsys, tmp_path):
    """`products --max-degree 6` on the Taft algebra with n = 6 (oracle bound
    5) evaluates psi only at bar indices a key of phi reaches: a cup reads
    key[:p] and key[p:], slot j of a composition reads the slice it fills and
    the slice's complement around each x-degree e.  In degree 5 that is 19 of
    the 3,125 indices."""
    spec = tmp_path / "taft6.json"
    spec.write_text(json.dumps({
        "field": {"kind": "Fp", "p": 7},
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 6}, "character": {"g": 3}},
        "f": {"n": 6, "coeffs": [[0] * 6] * 6},
    }))
    assert cli.main(["products", str(spec), "--max-degree", "6"]) == 0
    capsys.readouterr()
    [oracle] = oracle_work["oracles"]
    alg = oracle.alg
    reached = set()
    for d in range(6):
        for key in phi_closed(alg, d):
            reached.update(key[:p] for p in range(d + 1))
            reached.update(key[p:] for p in range(d + 1))
            for r in range(1, d + 2):
                rp = d + 1 - r
                for j in range(1, r + 1):
                    pre, post = key[: j - 1], key[j - 1 + rp :]
                    reached.add(key[j - 1 : j - 1 + rp])
                    reached.update(pre + (e,) + post for e in range(1, alg.n))
    lifts = oracle_work["lift"]
    assert len(lifts) == len(set(lifts)) == 96
    assert {idx for _, idx in lifts} <= reached
    in_five = {idx for _, idx in lifts if len(idx) == 5}
    assert len(in_five) == 19 and len(list(all_bar_indices(alg, 5))) == 3125
