"""Closed-form tables checked end to end against the generic pipeline."""

import json

import pytest
from conftest import (
    CASES,
    SPECS,
    unfolded_annihilator_table,
    unfolded_collapsed_cohomology,
    unfolded_collapsed_differentials,
    unfolded_collapsed_spaces,
    unfolded_diagonalizable,
    unfolded_group_cohomology,
    unfolded_membership_period,
)

from orecohom.fields import QQ
from orecohom.kalgebra import (
    Endo,
    char_power,
    character_order,
    cyclic_group,
    endo_from_character,
    group_algebra,
    identity_endo,
    quaternion_algebra,
)
from orecohom.linalg import Mat, span_equal
from orecohom.monogenic import MonogenicAlgebra, MonogenicError, validate_f
from orecohom.cohomology import (
    Bimodule,
    CohomologyError,
    CohomologyGroup,
    SmallComplex,
    build_small_complex,
    cohomology_dims,
    cohomology_group,
)
from orecohom.products import SmallCochain, cup_small
from orecohom.closedforms import (
    ClosedFormError,
    character_of,
    certify_diagonalizable,
    character_class_basis,
    check_collapsed_cochain_spaces,
    check_collapsed_differentials,
    class_membership_period,
    cohomology_periodicity,
    collapsed_cohomology_table,
    cyclic_group_cohomology,
    diagonalizable_cohomology_table,
    find_witness,
    group_algebra_cohomology_table,
    presentation_report,
    quaternion_companion,
    quaternion_rotation_report,
    rank_one_f,
    rank_one_hopf_report,
    rank_one_quotient_report,
    untwisted_annihilator_table,
    untwisted_model_check,
    witness_check,
)
from orecohom import cli, closedforms, instances
from orecohom.specio import load_instance


def complex_of(alg, d):
    return build_small_complex(alg, Bimodule.regular(alg), d)


@pytest.fixture(scope="module")
def sweedler():
    alg, chi = instances.sweedler()
    return alg, chi, complex_of(alg, 6)


@pytest.fixture(scope="module")
def sweedler_inv():
    alg, chi = instances.sweedler_invertible()
    return alg, chi, complex_of(alg, 6)


@pytest.fixture(scope="module")
def taft3():
    alg, chi = instances.taft(3, 7, 2)
    return alg, chi, complex_of(alg, 6)


@pytest.fixture(scope="module")
def c4s():
    alg, chi, g1 = instances.c4_sign()
    return alg, chi, complex_of(alg, 6)


@pytest.fixture(scope="module")
def shift3():
    alg = instances.qq_triple_shift()
    return alg, complex_of(alg, 6)


# -- witnesses -------------------------------------------------------------


def test_witness_sweedler(sweedler):
    alg, _, _ = sweedler
    w = find_witness(alg)
    assert w
    assert w.value == alg.K.elem("g")


def test_witness_check_flags(sweedler):
    alg, _, _ = sweedler
    w = witness_check(alg, "1")
    assert w.central and w.power_fixed and not w.differences_regular
    assert not w


def test_witness_none_for_pair_swap():
    alg = instances.qq_pair_swap(3)
    assert find_witness(alg) is None


def test_witness_triple_shift(shift3):
    alg, _ = shift3
    w = find_witness(alg)
    assert w


def test_nonzero_middle_rejected_under_witness(sweedler):
    alg, _, _ = sweedler
    with pytest.raises(MonogenicError):
        MonogenicAlgebra(alg.K, alg.alpha, [{"1": 1}, {}])


def quaternion_half_turn():
    F, cos, sin, ch, sh, fc = instances.quaternion_half_turn_data()
    K, alpha = quaternion_algebra(F, cos, sin, ch, sh)
    return MonogenicAlgebra(K, alpha, fc)


@pytest.mark.parametrize(
    "build, witnessed",
    [
        pytest.param(lambda: instances.sweedler()[0], True, id="sweedler"),
        pytest.param(lambda: instances.sweedler_invertible()[0], True, id="sweedler_invertible"),
        pytest.param(lambda: instances.taft(3, 7, 2)[0], True, id="taft37"),
        pytest.param(lambda: instances.c4_sign()[0], True, id="c4_sign"),
        pytest.param(lambda: instances.gh4_instance(2)[0], True, id="gh4_u2"),
        pytest.param(instances.qq_triple_shift, True, id="triple_shift"),
        pytest.param(instances.qq_pair_swap, False, id="pair_swap"),
        pytest.param(instances.line_cubic, False, id="line_cubic"),
        pytest.param(instances.untwisted_square, False, id="untwisted_square"),
        pytest.param(instances.gf3_cubic, False, id="gf3_cubic"),
        pytest.param(quaternion_half_turn, False, id="quaternion_half_turn"),
    ],
)
def test_witness_forces_middle_coefficients_to_zero(build, witnessed, admissible_space):
    """A collapse witness leaves no admissible nonzero middle coefficient;
    the argument is in docs/middle_coefficients.md."""
    alg = build()
    if not witnessed:
        assert find_witness(alg) is None
        return
    assert find_witness(alg) is not None
    K, alpha, n = alg.K, alg.alpha, alg.n
    for i in range(1, n):
        assert admissible_space(K, alpha, i).cols == 0
        for b in range(K.dim):
            coeffs = [{}] * n
            coeffs[i - 1] = K.basis_elem(b)
            assert not validate_f(K, alpha, coeffs).ok


# -- collapsed cochain spaces and differentials -----------------------------


def test_collapsed_spaces_sweedler(sweedler):
    alg, _, C = sweedler
    rep = check_collapsed_cochain_spaces(C)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2] * 7


def test_collapsed_spaces_gh4(gh4_u3):
    alg, _, C = gh4_u3
    rep = check_collapsed_cochain_spaces(C, up_to=6)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [6, 6, 2, 2, 6, 6, 2]


def test_collapsed_differentials(sweedler, c4s, shift3):
    for C in (sweedler[2], c4s[2], shift3[1]):
        rep = check_collapsed_differentials(C)
        assert rep["match"], rep["mismatches"]


def test_collapsed_cohomology_sweedler(sweedler):
    _, _, C = sweedler
    rep = collapsed_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [1, 1, 1, 1, 1, 1]


def test_collapsed_cohomology_c4_sign(c4s):
    _, _, C = c4s
    rep = collapsed_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2, 1, 1, 1, 1, 1]


def test_collapsed_cohomology_shift3(shift3):
    _, C = shift3
    rep = collapsed_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [1, 0, 0, 0, 0, 0]


def test_block_elements_commute_with_constant(c4s, gh4_u3, sweedler_inv):
    from orecohom.kalgebra import twisted_invariants_k

    for alg in (c4s[0], gh4_u3[0], sweedler_inv[0]):
        K, n = alg.K, alg.n
        lam_n = alg.f_terms[0]
        for m in range(3):
            W = twisted_invariants_k(K, alg.alpha, m * n)
            for j in range(W.cols):
                u = W.column(j)
                lhs = K.kmul(u, lam_n)
                rhs = K.kmul(alg.alpha.apply_power(n, u), lam_n)
                assert lhs == rhs


# -- cyclic-group comparison -------------------------------------------------


def test_cyclic_comparison_sweedler_invertible(sweedler_inv):
    _, _, C = sweedler_inv
    rep = cyclic_group_cohomology(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [1, 0, 0, 0, 0, 0]


def test_cyclic_comparison_shift3(shift3):
    _, C = shift3
    rep = cyclic_group_cohomology(C, up_to=5)
    assert rep["match"], rep["mismatches"]


def test_cyclic_comparison_needs_invertible_constant(sweedler):
    _, _, C = sweedler
    with pytest.raises(ClosedFormError):
        cyclic_group_cohomology(C, up_to=4)


def center_left_by_the_twist(monkeypatch):
    """`_w_space` with span(1 + g) at m = 0 in place of the center of Q[C2]:
    alpha - id sends 1 + g to -2g, which leaves it."""
    w_space = closedforms._w_space

    def seeded(alg, m):
        if m:
            return w_space(alg, m)
        return Mat.from_columns(alg.field, [alg.K.elem({"1": 1, "g": 1})], alg.K.dim)

    monkeypatch.setattr(closedforms, "_w_space", seeded)


def test_cyclic_comparison_on_a_center_the_twist_leaves_is_an_error(monkeypatch, sweedler_inv):
    """alpha - id and the norm preserve the center once alpha^n = id, so an
    image outside it is a fault, not an unmet hypothesis."""
    _, _, C = sweedler_inv
    center_left_by_the_twist(monkeypatch)
    with pytest.raises(CohomologyError, match="operator does not preserve the subspace"):
        cyclic_group_cohomology(C, up_to=5)


def test_cyclic_comparison_fault_exits_1(monkeypatch, tmp_path, capsys):
    """The same seeded center through the CLI, on the spec of
    `instances.sweedler_invertible` (f = x^2 - 1): an error, not a skip."""
    path = tmp_path / "sweedler_invertible.json"
    path.write_text(json.dumps({
        "field": {"kind": "Q"},
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 2}, "character": {"g": -1}},
        "f": {"n": 2, "coeffs": [[0, 0], [-1, 0]]},
    }))
    assert cli.main(["theorems", str(path), "--which", "cyclic-comparison"]) == 0
    center_left_by_the_twist(monkeypatch)
    assert cli.main(["theorems", str(path), "--which", "cyclic-comparison"]) == 1
    assert capsys.readouterr().err == "error: operator does not preserve the subspace\n"


# -- diagonalizable twists -----------------------------------------------------


def test_certify_diagonal_cases(sweedler):
    alg, _, _ = sweedler
    assert certify_diagonalizable(alg.alpha)

    pair = instances.qq_pair_swap(3)
    assert certify_diagonalizable(pair.alpha)

    F = QQ
    K = pair.K
    jordan = Endo(K, Mat(F, [[F.one, F.one], [F.zero, F.one]]))
    assert not certify_diagonalizable(jordan)

    shift = instances.qq_triple_shift()
    assert not certify_diagonalizable(shift.alpha)

    from orecohom.kalgebra import cyclic_group, group_algebra

    Fi = instances.gaussian_rationals()
    Ki = group_algebra(cyclic_group(2), Fi)
    two = Fi.from_int(2)
    elusive = Endo(Ki, Mat(Fi, [[Fi.zero, two], [Fi.one, Fi.zero]]))
    with pytest.raises(ClosedFormError):
        certify_diagonalizable(elusive)


def test_diagonalizable_table_sweedler(sweedler):
    _, _, C = sweedler
    rep = diagonalizable_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [1, 1, 1, 1, 1, 1]
    assert rep["closed_table"]["odd_cup_rule"] == "zero"


def test_diagonalizable_table_c4_sign(c4s):
    _, _, C = c4s
    rep = diagonalizable_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2, 1, 1, 1, 1, 1]


def test_diagonalizable_table_gh4(gh4_u3):
    _, _, C = gh4_u3
    rep = diagonalizable_cohomology_table(C, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2, 2, 1, 1, 2, 2]


def test_odd_cup_rule_on_classes(c4s):
    from orecohom.monogenic import AElem

    alg, _, C = c4s
    H1 = cohomology_group(C, 1)
    H2 = cohomology_group(C, 2)
    assert H1.dim == 1 and H2.dim == 1
    for va in H1.reps_ambient:
        for vb in H1.reps_ambient:
            a = SmallCochain(alg, 1, AElem(alg, va))
            b = SmallCochain(alg, 1, AElem(alg, vb))
            prod = cup_small(a, b)
            assert all(c.is_zero() for c in H2.class_coords(prod.value.coords))


# -- identity twist ------------------------------------------------------------


def test_untwisted_model_line_cubic():
    alg = instances.line_cubic()
    C = complex_of(alg, 5)
    rep = untwisted_model_check(C)
    assert rep["match"], rep["mismatches"]


def test_untwisted_model_gf3_cubic():
    alg = instances.gf3_cubic()
    C = complex_of(alg, 5)
    rep = untwisted_model_check(C)
    assert rep["match"], rep["mismatches"]


def test_untwisted_rejects_twisted(sweedler):
    _, _, C = sweedler
    with pytest.raises(ClosedFormError):
        untwisted_model_check(C)


def test_untwisted_annihilator_line_cubic():
    alg = instances.line_cubic()
    C = complex_of(alg, 5)
    rep = untwisted_annihilator_table(C, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [3, 0, 0, 0, 0]


def test_untwisted_annihilator_gf3_cubic():
    alg = instances.gf3_cubic()
    C = complex_of(alg, 5)
    rep = untwisted_annihilator_table(C, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [3, 3, 3, 3, 3]


def test_untwisted_annihilator_squares():
    alg = instances.untwisted_square(1)
    C = complex_of(alg, 5)
    rep = untwisted_annihilator_table(C, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2, 0, 0, 0, 0]

    alg0 = instances.untwisted_square(0)
    C0 = complex_of(alg0, 5)
    rep0 = untwisted_annihilator_table(C0, up_to=4)
    assert rep0["match"], rep0["mismatches"]
    assert rep0["closed_table"]["dims"] == [2, 1, 1, 1, 1]


# -- character-class bases ------------------------------------------------------


def test_character_class_basis_gh4(gh4_u3):
    alg, chi, _ = gh4_u3
    K = alg.K
    at0 = character_class_basis(K, chi, 0)
    assert all(at0["eligible"]) and at0["basis"].cols == 6
    assert at0["matches_generic"]

    at1 = character_class_basis(K, chi, 1)
    assert not any(at1["eligible"]) and at1["basis"].cols == 0
    assert at1["matches_generic"]

    at2 = character_class_basis(K, chi, 2)
    assert sum(at2["eligible"]) == 2 and at2["basis"].cols == 2
    assert at2["matches_generic"]


def test_character_class_basis_taft(taft3):
    alg, chi, _ = taft3
    rep = character_class_basis(alg.K, chi, 1)
    assert rep["basis"].cols == 0 and rep["matches_generic"]


def test_character_class_subspaces_match_all_r(gh4_u3):
    alg, chi, _ = gh4_u3
    for r in range(2 * alg.n * 3 + 1):
        assert character_class_basis(alg.K, chi, r)["matches_generic"]


def test_character_class_basis_refuses_a_non_multiplicative_character(gh4_u3):
    """chi(h) = 2 with chi(h^3) = -i kept: h and h^3 both conjugate g to g^-1,
    with squared weights 4 and -1, so the class of g, eligible at r = 2,
    propagates inconsistently.  Only a fault gets there: an error, not a skip."""
    alg, chi, _ = gh4_u3
    bad = list(chi)
    bad[alg.K.group.labels.index("h")] = alg.field.from_int(2)
    with pytest.raises(CohomologyError, match="class coefficient propagation is inconsistent"):
        character_class_basis(alg.K, bad, 2)


# -- group-algebra tables --------------------------------------------------------


def test_group_table_gh4(gh4_u3):
    _, chi, C = gh4_u3
    rep = group_algebra_cohomology_table(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [2, 2, 1, 1, 2, 2]


def test_group_table_taft3(taft3):
    _, chi, C = taft3
    rep = group_algebra_cohomology_table(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["closed_table"]["dims"] == [1, 1, 1, 1, 1, 1]


def test_gh4_symmetry_spaces(gh4_u3):
    alg, _, C = gh4_u3
    K = alg.K
    F = K.field
    sym = [K.elem("1"), K.elem({"g": 1, "g^2": 1})]
    anti = [K.elem({"g": 1, "g^2": -1})]

    def embed(cols, xdeg):
        out = []
        for u in cols:
            v = [F.zero] * alg.adim
            for b, c in enumerate(u):
                v[alg.idx(b, xdeg)] = c
            out.append(tuple(v))
        return Mat.from_columns(F, out, alg.adim)

    H0 = cohomology_group(C, 0)
    assert span_equal(
        embed(sym, 0), Mat.from_columns(F, H0.reps_ambient, alg.adim)
    )

    H2 = cohomology_group(C, 2)
    assert H2.dim == 1
    cls = H2.class_coords(embed(anti, 0).column(0))
    assert any(not c.is_zero() for c in cls)

    H1 = cohomology_group(C, 1)
    x_cls = H1.class_coords(alg.monomial(K.unit, 1).coords)
    assert any(not c.is_zero() for c in x_cls)


def test_gh4_even_strictly_smaller(gh4_u3):
    _, _, C = gh4_u3
    dims = cohomology_dims(C, 2)
    assert dims[2] < dims[0]


# -- periods and presentation ----------------------------------------------------


def test_class_membership_period_gh4(gh4_u3):
    alg, chi, _ = gh4_u3
    rep = class_membership_period(alg.K, chi, alg.n)
    assert rep["match"]
    by_class = {row["class"]: row["m0"] for row in rep["rows"]}
    assert by_class["1"] == 2
    assert by_class["g"] == 1
    assert by_class["h"] == 2


def test_periodicity_gh4(gh4_u3):
    _, chi, C = gh4_u3
    rep = cohomology_periodicity(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["period"] == 4
    assert rep["dims"] == [2, 2, 1, 1, 2, 2]


def test_periodicity_taft3(taft3):
    _, chi, C = taft3
    rep = cohomology_periodicity(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["period"] == 2


def test_presentation_gh4(gh4_u3):
    _, chi, C = gh4_u3
    rep = presentation_report(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    kinds = {(g["degree"], g["kind"]): g["count"] for g in rep["generators"]}
    assert kinds[(0, "degree-zero ring")] == 2
    assert kinds[(1, "odd module generators")] == 2
    assert kinds[(2, "even module generators")] == 1
    assert kinds[(4, "unit class")] == 1
    assert rep["exterior_pattern"] is None


def test_presentation_below_the_period_degree_is_a_skip(taft3):
    _, chi, C = taft3
    with pytest.raises(ClosedFormError, match="period degree"):
        presentation_report(C, chi, up_to=1)


def raising(exc):
    def method(self, *args):
        raise exc

    return method


def test_only_cohomology_errors_become_mismatches(sweedler, monkeypatch):
    """A representative outside the cocycles is a mismatch; any other error in
    the engine is a bug and propagates."""
    _, _, C = sweedler
    monkeypatch.setattr(CohomologyGroup, "class_coords", raising(CohomologyError("not a cocycle")))
    rep = diagonalizable_cohomology_table(C, up_to=3)
    assert not rep["match"] and "is not a cocycle" in rep["mismatches"][0]
    monkeypatch.setattr(CohomologyGroup, "class_coords", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError):
        diagonalizable_cohomology_table(C, up_to=3)


def test_only_cohomology_errors_leave_the_cochain_space(sweedler, monkeypatch):
    _, _, C = sweedler
    monkeypatch.setattr(SmallComplex, "to_sub", raising(CohomologyError("outside")))
    rep = check_collapsed_differentials(C)
    assert not rep["match"] and "leaves the cochain space" in rep["mismatches"][0]
    monkeypatch.setattr(SmallComplex, "to_sub", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError):
        check_collapsed_differentials(C)


def test_presentation_taft3_exterior(taft3):
    _, chi, C = taft3
    rep = presentation_report(C, chi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["exterior_pattern"] is not None and rep["exterior_pattern"]["holds"]


def c2_identity_unit_square():
    """QQ[C2] with the identity twist and f = x^2 - 1, which has no collapse
    witness."""
    K = group_algebra(cyclic_group(2), QQ)
    return MonogenicAlgebra(K, identity_endo(K), [{}, {"1": -1}])


# Instances where n lambda_n is a unit of K; every cyclic case of CASES has
# f = x^n - 1.
UNIT_N_LAMBDA = {
    "sweedler_invertible": lambda: instances.sweedler_invertible()[0],
    "c2_identity": c2_identity_unit_square,
    **{name: make for name, make in CASES.items() if name.startswith("cyclic:")},
}


@pytest.mark.parametrize("name", sorted(UNIT_N_LAMBDA))
def test_presentation_skips_when_n_lambda_is_a_unit(name):
    """The claim has no period generator to make: the check skips, and the
    generic H^{2v} it would have read is 0."""
    alg = UNIT_N_LAMBDA[name]()
    C = complex_of(alg, 6)
    with pytest.raises(ClosedFormError, match="n times the constant coefficient is invertible"):
        presentation_report(C, up_to=5)
    chi = closedforms.character_of(alg.K, alg.alpha)
    v = character_order(alg.K.group, char_power(chi, alg.n))
    assert cohomology_group(C, 2 * v).dim == 0
    if name == "c2_identity":
        assert find_witness(alg) is None


def test_presentation_skips_when_a_is_separable():
    """linear-g: f = x^2 + g x over QQ[C2] has coprime factors x and x + g, so
    A = K x K is separable over K.  n lambda_n = 0 is not a unit, yet the unit
    class and every positive-degree group vanish: no period generator."""
    C = complex_of(CASES["linear-g"](), 6)
    assert cohomology_dims(C, 5) == [4, 0, 0, 0, 0, 0]
    with pytest.raises(ClosedFormError, match="every positive-degree group vanish"):
        presentation_report(C, up_to=5)


def test_presentation_runs_when_n_lambda_is_a_unit_but_f_is_not_separable():
    """f = (x - 1)^2 (x + 1) over QQ[C2], identity twist: n lambda_n = 3 is a
    unit, yet H^2 = A/f'A is not zero and the unit class generates it, so the
    check runs and cup by the unit class is the periodicity isomorphism."""
    K = group_algebra(cyclic_group(2), QQ)
    alg = MonogenicAlgebra(K, identity_endo(K), [{"1": -1}, {"1": -1}, {"1": 1}])
    C = complex_of(alg, 6)
    rep = presentation_report(C, up_to=5)
    assert rep["period"] == 2 and cohomology_group(C, 2).dim == 2
    assert rep["dims"] == [6, 2, 2, 2, 2, 2]
    assert rep["match"] and rep["mismatches"] == []


# -- rank-one extensions -----------------------------------------------------------


def rank_one_complex(F, G, chi, g1, n, xi, d):
    """The complex through degree d of k[G][x; alpha] / (x^n - xi (g1^n - 1))."""
    K = group_algebra(G, F)
    f = rank_one_f(F, G, G.labels.index(g1), n, F.scalar(xi))
    return complex_of(MonogenicAlgebra(K, endo_from_character(K, chi), f), d)


def test_rank_one_broken_raises():
    F, G, chi, g1, n = instances.rank_one_broken_data()
    with pytest.raises(ClosedFormError):
        rank_one_quotient_report(F, G, chi, g1, n, 1, up_to=3)


def test_rank_one_case1():
    F, G, chi, g1, n = instances.rank_one_case1_data()
    rep = rank_one_quotient_report(F, G, chi, g1, n, 1, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["case"] == "monogenic over the quotient group algebra"
    assert rep["quotient_group_order"] == 4
    assert rep["quotient_table"]["closed_table"]["dims"] == [1, 1, 0, 0, 1, 1]
    admissibility = [
        h for h in rep["hypotheses"] if "not admissible" in h["name"]
    ]
    assert admissibility and admissibility[0]["holds"]
    assert {"name": "n-th power of the distinguished element is not 1", "holds": True} in rep["hypotheses"]


def test_rank_one_with_trivial_distinguished_power_is_admissible(tmp_path, capsys):
    """C4 over GF(13), chi(g) = 5, g1 = g^2 and n = 2: chi^2 is nontrivial
    but g1^2 = 1, so f = x^2 is admissible over k[G].  The rank-one check
    records g1^n = 1 and expects no inadmissibility; every check passes."""
    from orecohom.cli import main

    spec = tmp_path / "c4_gf13.json"
    spec.write_text(json.dumps({
        "field": {"kind": "Fp", "p": 13},
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 4}, "character": {"g": 5}},
        "f": {"n": 2, "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0]]},
        "options": {"g1": "g^2", "xi": 1},
    }))
    assert main(["theorems", str(spec), "--format", "json"]) == 0
    checks = {c["which"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    rank_one = checks["rank-one-hopf"]
    assert rank_one["status"] == "ok"
    hypotheses = rank_one["result"]["hypotheses"]
    assert {"name": "n-th power of the distinguished element is not 1", "holds": False} in hypotheses
    assert not any("not admissible" in h["name"] for h in hypotheses)


def test_rank_one_case2():
    F, G, chi, g1, n, xi = instances.rank_one_case2_data()
    rep = rank_one_hopf_report(rank_one_complex(F, G, chi, g1, n, xi, 6), chi, g1, xi, up_to=5)
    assert rep["match"], rep["mismatches"]
    assert rep["case"] == "monogenic over the group algebra"
    assert rep["dims"] == [2, 1, 1, 1, 1, 1]
    assert rep["dims"][1:] == rep["quotient_dims"][1:]
    rows = rep["bracket_rows"]
    assert rows and all(row["closed_matches_oracle"] for row in rows)
    low = [row for row in rows if row["degrees"] == [1, 1]]
    assert low and all(row["matches_commutator_class"] for row in low)


def test_rank_one_lifts_each_representative_once(monkeypatch, capsys):
    """The odd-odd bracket rows of c4_sign's rank-one check share the run's
    oracle, so psi evaluates each distinct class representative once at
    each bar index it reads."""
    from pathlib import Path

    from orecohom import products
    from orecohom.cli import main

    lifted, psi_value = [], products.psi_value

    def counting(alg, value, idx):
        lifted.append((len(idx), value.coords, idx))
        return psi_value(alg, value, idx)

    monkeypatch.setattr(products, "psi_value", counting)
    spec = Path(__file__).resolve().parent.parent / "demos" / "specs" / "c4_sign.json"
    assert main(["theorems", str(spec), "--which", "rank-one-hopf", "--format", "json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["checks"]
    assert entry["status"] == "ok"
    cochains = {(degree, coords) for degree, coords, _ in lifted}
    assert lifted and len(entry["result"]["bracket_rows"]) > len(cochains)
    assert len(lifted) == len(set(lifted))


def test_mixed_degree_bracket_keeps_trace_terms(c4s):
    from orecohom.monogenic import AElem
    from orecohom.products import bracket_small_generic

    alg, _, C = c4s
    H1 = cohomology_group(C, 1)
    H3 = cohomology_group(C, 3)
    a = SmallCochain(alg, 1, AElem(alg, H1.reps_ambient[0]))
    b = SmallCochain(alg, 3, AElem(alg, H3.reps_ambient[0]))
    got = bracket_small_generic(a, b)
    cls = H3.class_coords(got.value.coords)
    assert any(not c.is_zero() for c in cls)


def test_rank_one_degenerate_distinguished_square():
    from orecohom.kalgebra import character_from_values, cyclic_group

    G = cyclic_group(2)
    chi = character_from_values(G, QQ, {"g": -1})
    rep = rank_one_hopf_report(rank_one_complex(QQ, G, chi, "g", 2, 1, 5), chi, "g", 1, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["case"] == "monogenic over the group algebra"
    assert rep["dims"] == rep["quotient_dims"]


def test_rank_one_reads_its_top_degree_not_the_complex_depth():
    """On a complex deeper than the table, the bracket rows stop at up_to."""
    F, G, chi, g1, n, xi = instances.rank_one_case2_data()
    deep = rank_one_hopf_report(rank_one_complex(F, G, chi, g1, n, xi, 8), chi, g1, xi, up_to=2)
    exact = rank_one_hopf_report(rank_one_complex(F, G, chi, g1, n, xi, 3), chi, g1, xi, up_to=2)
    assert deep == exact
    assert deep["bracket_rows"] and all(row["degrees"] == [1, 1] for row in deep["bracket_rows"])


@pytest.mark.parametrize(
    "xi, chi_g, reason",
    [(2, -1, "the run's f differs"), (1, 1, "the run's twist differs")],
    ids=["f", "twist"],
)
def test_rank_one_on_another_algebra_raises(xi, chi_g, reason):
    from orecohom.kalgebra import character_from_values

    F, G, chi, g1, n, _ = instances.rank_one_case2_data()
    C = rank_one_complex(F, G, chi, g1, n, 1, 3)
    with pytest.raises(ClosedFormError, match=reason):
        rank_one_hopf_report(C, character_from_values(G, F, {"g": chi_g}), g1, xi)


# -- quaternions under rotation ------------------------------------------------------


def quaternion_complex(rho, d):
    """The half-turn complex of x^2 - rho through degree d, and its rotation data."""
    F, cos, sin, ch, sh, fc = instances.quaternion_half_turn_data(rho)
    K, alpha = quaternion_algebra(F, cos, sin, ch, sh)
    return complex_of(MonogenicAlgebra(K, alpha, fc), d), (cos, sin, ch, sh)


def test_quaternion_half_turn_unit():
    C, data = quaternion_complex(1, 5)
    rep = quaternion_rotation_report(C, *data, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["generic_table"]["dims"] == [2, 0, 0, 0, 0]
    F = QQ
    assert [F.decode(c) for c in rep["companion_coefficients"]] == [F.zero, F.one]


def test_quaternion_half_turn_nilpotent():
    C, data = quaternion_complex(0, 5)
    rep = quaternion_rotation_report(C, *data, up_to=4)
    assert rep["match"], rep["mismatches"]
    assert rep["generic_table"]["dims"] == [2, 1, 1, 1, 1]


def test_quaternion_ineligible_coefficient():
    F, cos, sin, ch, sh, _ = instances.quaternion_half_turn_data(1)
    K, _ = quaternion_algebra(F, cos, sin, ch, sh)
    with pytest.raises(ClosedFormError):
        quaternion_companion(K, ch, sh, [{"i": 1}, {}])


def test_quaternion_reads_its_top_degree_not_the_complex_depth():
    deep, data = quaternion_complex(0, 8)
    exact, _ = quaternion_complex(0, 3)
    assert quaternion_rotation_report(deep, *data, up_to=2) == quaternion_rotation_report(
        exact, *data, up_to=2
    )


def test_quaternion_on_another_twist_raises():
    C, _ = quaternion_complex(1, 3)
    one, zero = QQ.one, QQ.zero
    with pytest.raises(ClosedFormError, match="the run's twist differs"):
        quaternion_rotation_report(C, one, zero, one, zero)


# -- every dimension table compares with the generic dims -----------------------


@pytest.fixture(scope="module")
def gf3():
    alg = instances.gf3_cubic()
    return alg, complex_of(alg, 5)


@pytest.mark.parametrize(
    "table, fixture",
    [
        (collapsed_cohomology_table, "sweedler"),
        (cyclic_group_cohomology, "sweedler_inv"),
        (diagonalizable_cohomology_table, "c4s"),
        (untwisted_annihilator_table, "gf3"),
        (group_algebra_cohomology_table, "taft3"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_dimension_tables_report_a_generic_mismatch(monkeypatch, request, table, fixture):
    """A generic dimension table off by one in degree 1 turns each closed
    dimension table into a mismatch, recorded after every other one."""
    C = request.getfixturevalue(fixture)[-1]
    assert table(C, up_to=4)["match"]
    original = closedforms.cohomology_dims

    def off_by_one(C, up_to):
        dims = list(original(C, up_to))
        dims[1] += 1
        return dims

    monkeypatch.setattr(closedforms, "cohomology_dims", off_by_one)
    rep = table(C, up_to=4)
    assert not rep["match"]
    assert rep["mismatches"][-1] == "dimension tables differ"


# -- the folded tables against their per-degree references ---------------------


def _outcome(table):
    try:
        return table()
    except ClosedFormError as exc:
        return "skipped", str(exc)


def folded_and_unfolded_tables(alg, D: int) -> dict:
    """Each table whose per-degree work is folded, as (folded, reference)
    outcomes on the complex of alg through D + 1; a skip is its reason."""
    C = complex_of(alg, D + 1)
    w = find_witness(alg)
    K, n = alg.K, alg.n

    def membership(period):
        return lambda: period(K, character_of(K, alg.alpha), n)

    pairs = {
        "collapsed-spaces": (lambda: check_collapsed_cochain_spaces(C, w, D),
                             lambda: unfolded_collapsed_spaces(C, w, D)),
        "collapsed-differentials": (lambda: check_collapsed_differentials(C, w, D),
                                    lambda: unfolded_collapsed_differentials(C, w, D)),
        "collapsed-cohomology": (lambda: collapsed_cohomology_table(C, w, D),
                                 lambda: unfolded_collapsed_cohomology(C, w, D)),
        "diagonalizable": (lambda: diagonalizable_cohomology_table(C, w, D),
                           lambda: unfolded_diagonalizable(C, w, D)),
        "group-cohomology": (lambda: group_algebra_cohomology_table(C, None, D, w),
                             lambda: unfolded_group_cohomology(C, None, D, w)),
        "untwisted-annihilator": (lambda: untwisted_annihilator_table(C, D),
                                  lambda: unfolded_annihilator_table(C, D)),
        "membership-period": (membership(class_membership_period),
                              membership(unfolded_membership_period)),
    }
    return {name: (_outcome(folded), _outcome(ref)) for name, (folded, ref) in pairs.items()}


FOLD_INSTANCES = {
    **{p.stem: (lambda p=p: load_instance(str(p)).algebra()) for p in SPECS
       if p.stem != "sweedler_bad"},
    "gh4_u4": lambda: instances.gh4_instance(4)[0],
}


@pytest.mark.parametrize("name", sorted(FOLD_INSTANCES))
def test_folded_tables_equal_their_per_degree_references(name):
    """At D = 8 every folded table equals, row for row and mismatch for
    mismatch, the table computed afresh in each degree.  sweedler_bad is left
    out: its f is not admissible, so no complex is built for it."""
    tables = folded_and_unfolded_tables(FOLD_INSTANCES[name](), 8)
    for table, (folded, reference) in tables.items():
        assert folded == reference, table
    if name.startswith("gh4"):  # every table but the identity-twist one runs
        assert [t for t, (folded, _) in tables.items() if isinstance(folded, tuple)] == [
            "untwisted-annihilator"]


def test_seeded_fold_key_without_the_block_space_is_caught(monkeypatch):
    """A fold that keys the per-degree work without the identity of the
    block space W of ``_w_space`` makes degrees of different blocks share
    their closed data: the comparison with the references turns red."""
    alg = instances.gh4_instance(4)[0]
    blocks = {id(closedforms._w_space(alg, m)) for m in range(6)}
    once = closedforms._once

    def without_w(memo, key, work):
        return once(memo, tuple(k for k in key if k not in blocks), work)

    monkeypatch.setattr(closedforms, "_once", without_w)
    tables = folded_and_unfolded_tables(alg, 8)
    assert any(folded != reference for folded, reference in tables.values())
