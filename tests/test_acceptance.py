"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every check is exact; there are no tolerances anywhere in this file.
"""

import time

import pytest

from orecohom import (
    Bimodule,
    ClosedFormError,
    MonogenicAlgebra,
    MonogenicError,
    Resolution,
    SmallCochain,
    ComparisonMaps,
    bracket_small_closed,
    bracket_small_generic,
    build_small_complex,
    chain_map_report,
    character_from_values,
    classes_equal,
    cohomology_dims,
    cohomology_group,
    cohomology_periodicity,
    collapsed_cohomology_table,
    cup_small,
    cyclic_group,
    endo_from_character,
    find_witness,
    group_algebra,
    group_algebra_cohomology_table,
    quaternion_algebra,
    quaternion_companion,
    quaternion_rotation_report,
    rank_one_hopf_report,
    rank_one_quotient_report,
    twisted_invariants_k,
    untwisted_annihilator_table,
    QQ,
)
from orecohom.instances import (
    c4_sign,
    gaussian_rationals,
    gf3_cubic,
    qq_pair_swap,
    qq_triple_shift,
    quaternion_half_turn_data,
    sweedler,
    taft,
    untwisted_square,
)
from orecohom.linalg import Mat, rank, span_equal


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def quaternion_pi(rho=1) -> MonogenicAlgebra:
    F, cos, sin, ch, sh, fc = quaternion_half_turn_data(rho)
    K, alpha = quaternion_algebra(F, cos, sin, ch, sh)
    return MonogenicAlgebra(K, alpha, fc)


def c4_quotient_model():
    """Order-4 cyclic group over the Gaussian rationals with a faithful
    character and x squaring to zero."""
    F = gaussian_rationals()
    G = cyclic_group(4)
    chi = character_from_values(G, F, {"g": F.gen})
    K = group_algebra(G, F)
    return MonogenicAlgebra(K, endo_from_character(K, chi), [{}, {}]), chi


@pytest.fixture(scope="module")
def flagships(gh4_u3):
    a1, _ = sweedler()
    a2, _ = taft(3, 7, 2)
    a3, chi3, _ = gh4_u3
    a4 = quaternion_pi(1)
    return {
        "sweedler": a1,
        "taft3": a2,
        "gh4_u3": a3,
        "quaternion_pi": a4,
        "gh4_chi": chi3,
    }


@pytest.fixture(scope="module")
def complexes(flagships, gh4_u3):
    built = {
        name: build_small_complex(alg, Bimodule.regular(alg), 7)
        for name, alg in flagships.items()
        if name not in ("gh4_u3", "gh4_chi")
    }
    return {**built, "gh4_u3": gh4_u3[2]}


def class_of(C, r, cochain):
    return cohomology_group(C, r).class_coords(cochain.value.coords)


def classes_span(C, r, cochains) -> bool:
    H = cohomology_group(C, r)
    if H.dim == 0:
        return all(all(c.is_zero() for c in class_of(C, r, v)) for v in cochains)
    rows = [list(class_of(C, r, v)) for v in cochains]
    return rank(Mat(C.field, rows)) == H.dim


def canonical_basis(alg, r):
    """Pure coefficient cochains (even degree) or pure x-line cochains (odd)
    over a basis of the matching twisted-invariant space."""
    cols = twisted_invariants_k(alg.K, alg.alpha, (r // 2) * alg.n).columns_list()
    if r % 2 == 0:
        return [SmallCochain(alg, r, alg.k_embed(c), check=False) for c in cols]
    return [SmallCochain(alg, r, alg.monomial(c, 1), check=False) for c in cols]


def d_compose_zero(C, through: int) -> bool:
    for r in range(1, through + 1):
        prod = C.dmats[r + 1].matmul(C.dmats[r])
        if any(not e.is_zero() for row in prod.data for e in row):
            return False
    return True


# -- 1: the resolution is contractible ----------------------------------------


def test_criterion_01_resolution_contractible(flagships):
    ok = True
    for name in ("sweedler", "taft3", "gh4_u3", "quaternion_pi"):
        start = time.perf_counter()
        rep = Resolution(flagships[name], 6).contraction_check()
        elapsed = time.perf_counter() - start
        ok = ok and rep.ok and elapsed < 5.0
    verdict(1, "contracting homotopy identities hold through degree 6 on all four flagships", ok)


# -- 2: differentials square to zero and comparison maps are chain maps -------


def test_criterion_02_chain_maps(flagships, complexes):
    ok = True
    for name in ("sweedler", "taft3", "gh4_u3", "quaternion_pi"):
        C = complexes[name]
        ok = ok and d_compose_zero(C, 5)
        ok = ok and chain_map_report(C, 5).ok
        ok = ok and ComparisonMaps(flagships[name], 5).comparison_report(4).ok
    verdict(2, "d^2 = 0 and both comparison maps commute with differentials through degree 5", ok)


# -- 3: cyclic group with faithful character, zero constant term --------------


def test_criterion_03_faithful_cyclic_dimensions(complexes):
    ok = True
    for name in ("sweedler", "taft3"):
        C = complexes[name]
        alg = C.alg
        ok = ok and cohomology_dims(C, 6) == [1] * 7
        x = SmallCochain(alg, 1, alg.monomial(alg.K.unit, 1), check=False)
        xx = class_of(C, 2, cup_small(x, x))
        ok = ok and all(c.is_zero() for c in xx)
        y = SmallCochain(alg, 2, alg.k_embed(cohomology_group(C, 2).reps_ambient[0][: alg.K.dim]), check=False)
        for m in range(5):
            h = SmallCochain(alg, m, type(alg.one)(alg, cohomology_group(C, m).reps_ambient[0]), check=False)
            image = class_of(C, m + 2, cup_small(y, h))
            ok = ok and any(not c.is_zero() for c in image)
    verdict(3, "faithful cyclic instances have one-dimensional cohomology with x*x = 0 and an invertible degree-2 generator", ok)


# -- 4: identity twist reduces to the annihilator of the derivative -----------


def test_criterion_04_identity_twist_tables():
    expected = {
        "square_zero": (untwisted_square(0), [2, 1, 1, 1, 1]),
        "square_one": (untwisted_square(1), [2, 0, 0, 0, 0]),
        "cubic_gf3": (gf3_cubic(), [3, 3, 3, 3, 3]),
    }
    ok = True
    for alg, dims in expected.values():
        C = build_small_complex(alg, Bimodule.regular(alg), 5)
        table = untwisted_annihilator_table(C, 4)
        ok = ok and table["match"]
        ok = ok and table["closed_table"]["dims"] == dims
        ok = ok and cohomology_dims(C, 4) == dims
    verdict(4, "identity-twist dimension tables match closed form and generic pipeline", ok)


# -- 5: the order-12 two-generator instance -----------------------------------


def test_criterion_05_gh4_generators(flagships, complexes):
    C = complexes["gh4_u3"]
    alg = C.alg
    K = alg.K
    chi = flagships["gh4_chi"]
    dims = cohomology_dims(C, 6)
    ok = dims[:4] == [2, 2, 1, 1]
    period = cohomology_periodicity(C, chi, 6)
    ok = ok and period["match"] and period["period"] == 4

    one = SmallCochain(alg, 0, alg.one, check=False)
    a = SmallCochain(alg, 0, alg.k_embed(K.elem({"g": 1, "g^2": 1}).coords), check=False)
    x = SmallCochain(alg, 1, alg.monomial(K.unit, 1), check=False)
    b = SmallCochain(alg, 2, alg.k_embed(K.elem({"g": 1, "g^2": -1}).coords), check=False)
    c = SmallCochain(alg, 4, alg.k_embed(K.unit), check=False)

    ax = cup_small(a, x)
    ok = ok and classes_span(C, 0, [one, a])
    ok = ok and classes_span(C, 1, [x, ax])
    ok = ok and classes_span(C, 2, [b])
    ok = ok and classes_span(C, 3, [cup_small(b, x)])
    ok = ok and classes_span(C, 4, [c, cup_small(c, a)])
    ok = ok and classes_span(C, 5, [cup_small(c, x), cup_small(c, ax)])
    ok = ok and classes_span(C, 6, [cup_small(c, b)])
    for m in range(3):
        H = cohomology_group(C, m)
        images = [
            cup_small(c, SmallCochain(alg, m, type(alg.one)(alg, v), check=False))
            for v in H.reps_ambient
        ]
        ok = ok and cohomology_group(C, m + 4).dim == H.dim
        ok = ok and classes_span(C, m + 4, images)
    verdict(5, "order-12 instance has dims (2,2,1,1), period 4, and the stated generator set with an invertible degree-4 class", ok)


# -- 6: extensions of a group algebra by one skew generator -------------------


def test_criterion_06_skew_group_extensions():
    F = gaussian_rationals()
    G8 = cyclic_group(8)
    chi8 = character_from_values(G8, F, {"g": F.gen})
    case1 = rank_one_quotient_report(F, G8, chi8, "g^2", 2, 1, up_to=5)
    ok = case1["match"]
    hyp = {h["name"]: h["holds"] for h in case1["hypotheses"]}
    ok = ok and hyp["defining polynomial is not admissible over the full group algebra"]
    quotient_dims = case1["quotient_table"]["generic_table"]["dims"]
    model, _ = c4_quotient_model()
    Cq = build_small_complex(model, Bimodule.regular(model), 6)
    ok = ok and quotient_dims == cohomology_dims(Cq, 5) == [1, 1, 0, 0, 1, 1]

    alg2, chi2, g1 = c4_sign(1)
    C2 = build_small_complex(alg2, Bimodule.regular(alg2), 7)
    case2 = rank_one_hopf_report(C2, chi2, g1, 1, up_to=5)
    ok = ok and case2["match"]
    ok = ok and case2["dims"] == [2, 1, 1, 1, 1, 1]
    ok = ok and case2["quotient_dims"] == [1, 1, 1, 1, 1, 1]
    ok = ok and case2["dims"][1:6] == case2["quotient_dims"][1:6]

    ok = ok and group_algebra_cohomology_table(C2, chi2, 5)["match"]
    odd_reps = {
        r: [
            SmallCochain(alg2, r, type(alg2.one)(alg2, v), check=False)
            for v in cohomology_group(C2, r).reps_ambient
        ]
        for r in (1, 3, 5)
    }
    for ra, reps_a in odd_reps.items():
        for rb, reps_b in odd_reps.items():
            if ra + rb > 6:
                continue
            for a in reps_a:
                for b in reps_b:
                    cls = class_of(C2, ra + rb, cup_small(a, b))
                    ok = ok and all(e.is_zero() for e in cls)
    K2 = alg2.K
    for a in odd_reps[1]:
        la = a.canonical_kx()
        for b in odd_reps[1]:
            lb = b.canonical_kx()
            comm = tuple(
                p - q
                for p, q in zip(K2.kmul(lb.coords, la.coords), K2.kmul(la.coords, lb.coords))
            )
            want = alg2.monomial(comm, 1).coords
            got = bracket_small_generic(a, b, 5).value.coords
            ok = ok and classes_equal(C2, 1, got, want)
    verdict(6, "both skew extension cases match quotient models, with vanishing odd cups and commutator brackets in degree one", ok)


# -- 7: bracket closed form against the bar-complex oracle --------------------


def test_criterion_07_bracket_cross_validation():
    targets = [sweedler()[0], c4_quotient_model()[0], c4_sign(1)[0]]
    ok = True
    for alg in targets:
        C = build_small_complex(alg, Bimodule.regular(alg), 7)
        w = find_witness(alg)
        ok = ok and w is not None
        for ra in range(4):
            for rb in range(4):
                deg = max(ra + rb - 1, 0)
                for a in canonical_basis(alg, ra):
                    for b in canonical_basis(alg, rb):
                        got = bracket_small_generic(a, b, 5).value.coords
                        want = bracket_small_closed(a, b, w).value.coords
                        ok = ok and classes_equal(C, deg, got, want)
                        if ra % 2 == 0 and rb % 2 == 0:
                            zero = tuple(C.field.zero for _ in got)
                            ok = ok and classes_equal(C, deg, got, zero)
    verdict(7, "closed bracket equals the oracle on all low canonical pairs and even-even classes vanish", ok)


# -- 8: quaternion coefficients under the half-turn rotation ------------------


def test_criterion_08_quaternion_half_turn():
    data = QQ.scalar(-1), QQ.zero, QQ.zero, QQ.one
    C1, C0 = (build_small_complex(alg, Bimodule.regular(alg), 5) for alg in (quaternion_pi(1), quaternion_pi(0)))
    rho1 = quaternion_rotation_report(C1, *data, up_to=4)
    rho0 = quaternion_rotation_report(C0, *data, up_to=4)
    ok = rho1["match"] and rho0["match"]
    ok = ok and rho1["closed_table"]["dims"] == [2, 0, 0, 0, 0]
    ok = ok and rho0["closed_table"]["dims"] == [2, 1, 1, 1, 1]
    ok = ok and rho1["companion_table"]["match"] and rho0["companion_table"]["match"]
    K, _ = quaternion_algebra(QQ, *data)
    for bad in ({"i": 1}, {"j": 1}, {"k": 1}):
        with pytest.raises(ClosedFormError):
            quaternion_companion(K, data[2], data[3], [{}, bad])
    with pytest.raises(ClosedFormError):
        quaternion_companion(K, data[2], data[3], [{"i": 1}, {}])
    verdict(8, "half-turn rotation accepts exactly scalar constant terms and matches the companion tables", ok)


# -- 9: independence from the middle coefficients ----------------------------


def test_criterion_09_middle_coefficient_independence(admissible_space):
    # A collapse witness forces every middle coefficient of f to vanish
    # (docs/middle_coefficients.md), so the closed forms, which read only the
    # constant term, cover every admissible f on a witnessed instance.
    alg = qq_triple_shift()
    assert find_witness(alg) is not None
    K, alpha, n = alg.K, alg.alpha, alg.n
    ok = all(admissible_space(K, alpha, i).cols == 0 for i in range(1, n))
    for i in range(1, n):
        for b in range(K.dim):
            coeffs = [{}] * n
            coeffs[i - 1] = K.basis_elem(b).coords
            with pytest.raises(MonogenicError, match=f"coefficient {i} "):
                MonogenicAlgebra(K, alpha, coeffs)

    # the admissible constant terms are the scalars, so x^3 and x^3 - 1
    # stand for every admissible f up to a nonzero scale
    constants = admissible_space(K, alpha, n)
    ok = ok and span_equal(constants, Mat.from_columns(K.field, [K.unit], K.dim))
    for lam_n, dims in (({}, [1, 1, 1, 1, 1, 1]), (-1, [1, 0, 0, 0, 0, 0])):
        f_alg = MonogenicAlgebra(K, alpha, [{}] * (n - 1) + [lam_n])
        C = build_small_complex(f_alg, Bimodule.regular(f_alg), 6)
        table = collapsed_cohomology_table(C, None, 5)
        ok = ok and table["match"]
        ok = ok and table["closed_table"]["dims"] == dims == cohomology_dims(C, 5)

    # negative control: without a witness a nonzero middle coefficient exists
    swap = qq_pair_swap(3)
    assert find_witness(swap) is None
    ok = ok and admissible_space(swap.K, swap.alpha, 2).cols > 0
    MonogenicAlgebra(swap.K, swap.alpha, [{}, 1, {}])
    verdict(
        9,
        "a witnessed cubic admits no nonzero middle coefficient, and the closed form matches the generic tables for every admissible constant term",
        ok,
    )


# -- 10: negative control without a witness -----------------------------------


def test_criterion_10_swap_negative_control():
    alg = qq_pair_swap(3)
    ok = find_witness(alg) is None
    C = build_small_complex(alg, Bimodule.regular(alg), 7)
    with pytest.raises(ClosedFormError):
        collapsed_cohomology_table(C, None, 6)
    ok = ok and d_compose_zero(C, 5)
    sign = {0: 1}
    for p in range(3):
        for q in range(3):
            if p + q + 1 > C.max_degree:
                continue
            for av in cohomology_group(C, p).reps_ambient:
                a = SmallCochain(alg, p, type(alg.one)(alg, av), check=False)
                for bv in cohomology_group(C, q).reps_ambient:
                    b = SmallCochain(alg, q, type(alg.one)(alg, bv), check=False)
                    ab = cup_small(a, b).value.coords
                    ba = cup_small(b, a).value.coords
                    if p * q % 2:
                        ba = tuple(-c for c in ba)
                    ok = ok and classes_equal(C, p + q, ab, ba)
    verdict(10, "swap instance has no witness, skips closed forms, and keeps a consistent graded-commutative generic table", ok)
