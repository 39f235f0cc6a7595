import json
import random

import pytest
from conftest import (
    SPECS,
    OrePoly,
    admissible_coefficients,
    f_ore,
    from_ore,
    ore_check_compiled,
    ore_divmod,
    ore_mul,
    ore_normality_check,
    to_ore,
    unfolded_contraction_check,
)

from orecohom import instances
from orecohom.fields import QQ, prime_field
from orecohom.kalgebra import (
    AlgebraError,
    AlgebraK,
    Endo,
    algebra_validate,
    character_from_values,
    cyclic_group,
    endo_from_character,
    group_algebra,
    identity_endo,
    quaternion_algebra,
)
from orecohom.linalg import Mat, kernel_basis, vadd, vscale
from orecohom.monogenic import (
    AElem,
    MonogenicAlgebra,
    MonogenicError,
    Resolution,
    TensorElem,
    derivation_tensor,
    normality_check,
    twist_exponent,
    validate_f,
)
from orecohom.cli import main
from orecohom.specio import load_instance


@pytest.fixture(scope="module")
def sweedler_base():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    chi = character_from_values(G, QQ, {"g": -QQ.one})
    alpha = endo_from_character(K, chi)
    return K, alpha


@pytest.fixture(scope="module")
def sweedler(sweedler_base):
    K, alpha = sweedler_base
    return MonogenicAlgebra(K, alpha, [[0, 0], [0, 0]])  # f = x^2


@pytest.fixture(scope="module")
def rational_line():
    K = group_algebra(cyclic_group(1), QQ)
    return K, identity_endo(K)


def test_ore_commutation(sweedler_base):
    K, alpha = sweedler_base
    x = OrePoly.monomial(K, alpha, K.unit, 1)
    g = OrePoly.monomial(K, alpha, K.elem("g"), 0)
    xg = ore_mul(x, g)
    # x g = alpha(g) x = -g x
    assert xg == OrePoly.monomial(K, alpha, K.elem({"g": -1}), 1)
    assert ore_mul(x, x) == OrePoly.monomial(K, alpha, K.unit, 2)
    one = OrePoly.monomial(K, alpha, K.unit, 0)
    P = xg + g
    assert ore_mul(P, one) == P


def test_ore_divmod_examples(rational_line):
    K, ide = rational_line
    x2 = OrePoly.monomial(K, ide, K.unit, 2)
    x3 = OrePoly.monomial(K, ide, K.unit, 3)
    one = OrePoly.monomial(K, ide, K.unit, 0)
    q, r = ore_divmod(x3, x2)
    assert q == OrePoly.monomial(K, ide, K.unit, 1) and r.is_zero()
    q, r = ore_divmod(x2 + one, x2)
    assert q == one and r == one
    f = x2 - one  # x^2 - 1
    q, r = ore_divmod(x3, f)
    x1 = OrePoly.monomial(K, ide, K.unit, 1)
    assert q == x1 and r == x1
    assert ore_mul(q, f) + r == x3


def test_ore_divmod_random_reconstruction(sweedler_base):
    K, alpha = sweedler_base
    A = MonogenicAlgebra(K, alpha, [[0, 0], [0, 0]])
    f = f_ore(A)
    rng = random.Random(5)
    for _ in range(200):
        deg = rng.randint(0, 4)
        P = OrePoly(
            K, alpha,
            [[QQ.random_element(rng, 4) for _ in range(2)] for _ in range(deg + 1)],
        )
        q, r = ore_divmod(P, f)
        assert ore_mul(q, f) + r == P
        assert r.is_zero() or r.degree < 2


def test_validate_f(sweedler_base):
    K, alpha = sweedler_base
    assert validate_f(K, alpha, [[0, 0], [0, 0]]).ok
    # lambda_1 = g is not alpha-fixed under the sign twist
    bad = validate_f(K, alpha, [K.elem("g"), [0, 0]])
    assert not bad.ok and "alpha-fixed" in bad.failures[0]
    with pytest.raises(MonogenicError):
        MonogenicAlgebra(K, alpha, [K.elem("g"), [0, 0]])
    assert not validate_f(K, alpha, [[0, 0]]).ok  # n = 1 rejected


def test_checked_build_refuses_a_k_without_unit(tmp_path, capsys):
    """Q x Q with the idempotent e1 declared as the unit: a checked build
    raises the first failure of `algebra_validate`, the message the CLI gives
    for the same K, before it compiles a table that trusts the unit law."""
    K = AlgebraK.from_structure_constants(QQ, 2, ["e1", "e2"], [1, 0], [(0, 0, 0, 1), (1, 1, 1, 1)])
    f = [[0, 0], [0, 0]]
    with pytest.raises(AlgebraError) as exc:
        MonogenicAlgebra(K, identity_endo(K), f)
    assert str(exc.value) == algebra_validate(K).failures[0] == "unit law fails at basis 1 (e2)"
    spec = tmp_path / "bad_unit.json"
    spec.write_text(json.dumps({
        "field": {"kind": "Q"},
        "K": {"kind": "table", "dim": 2, "basis": ["e1", "e2"], "unit": [1, 0],
              "mul": [[0, 0, 0, 1], [1, 1, 1, 1]]},
        "alpha": {"kind": "identity"},
        "f": {"coeffs": f},
    }))
    assert main(["cohomology", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_aelem_repr_names_each_k_coordinate(sweedler):
    """The form of the untwisted-model `derivative` string: each nonzero
    K-coefficient as a sum of (c)*basis terms, the one at x^0 bare."""
    A = sweedler
    u = A.k_embed(A.K.elem("g")) + A.monomial(A.K.elem({"1": 2, "g": -1}), 1)
    assert repr(u) == "((1)*g) + ((2)*1 + (-1)*g)*x^1"
    assert repr(A.zero_elem()) == "0"


def test_a_mul_sweedler(sweedler):
    A = sweedler
    x, g = A.x, A.k_embed(A.K.elem("g"))
    assert A.a_mul(x, x).is_zero()
    assert A.a_mul(g, x) == A.monomial(A.K.elem("g"), 1)
    assert A.a_mul(x, g) == A.monomial(A.K.elem({"g": -1}), 1)
    assert A.a_mul(A.one, x) == x


def test_a_mul_matches_ore_route(sweedler):
    A = sweedler
    rng = random.Random(11)
    for _ in range(500):
        a = AElem(A, [QQ.random_element(rng, 3) for _ in range(A.adim)])
        b = AElem(A, [QQ.random_element(rng, 3) for _ in range(A.adim)])
        via_table = A.a_mul(a, b)
        via_ore = from_ore(A, ore_mul(to_ore(A, a), to_ore(A, b)))
        assert via_table == via_ore


def test_a_mul_associative_random(sweedler):
    A = sweedler
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = (
            AElem(A, [QQ.random_element(rng, 3) for _ in range(A.adim)])
            for _ in range(3)
        )
        assert A.a_mul(A.a_mul(a, b), c) == A.a_mul(a, A.a_mul(b, c))


def test_truncated_family_x_square():
    K = group_algebra(cyclic_group(1), QQ)
    A = MonogenicAlgebra(K, identity_endo(K), [[0], [-1]])  # f = x^2 - 1
    assert A.a_mul(A.x, A.x) == A.one
    bar = A.xpow_bar(3)  # x^3 = x * f + x
    assert bar == A.x
    assert A.xpow_bar(1).is_zero()
    assert A.xpow_bar(2) == A.one


def test_derivation_tensor(sweedler):
    A = sweedler
    assert derivation_tensor(A, 0).is_zero()
    t1 = derivation_tensor(A, 1)
    assert t1 == TensorElem.from_aelem(A.one, 0, 1)
    t2 = derivation_tensor(A, 2)
    expect = TensorElem.from_aelem(A.x, 0, 1) + TensorElem.from_aelem(A.one, 1, 1)
    assert t2 == expect


def test_tensor_actions(sweedler):
    A = sweedler
    g = A.K.elem("g")
    t = TensorElem.from_aelem(A.one, 0, 1)  # 1 (x) 1 at twist 1
    # (1 (x) 1).g = alpha(g) (x) 1 = -g (x) 1
    got = t.rightmul_k(g)
    assert got == TensorElem.from_aelem(-A.k_embed(g), 0, 1)
    # (1 (x) x).x = 1 (x) x^2 = 0 since f = x^2
    assert t.rightmul_x().rightmul_x().is_zero()
    # left and right A-action compose with the product
    a = A.monomial(g, 1)
    assert t.leftmul(a).left_factor(0) == a


def test_twist_exponent():
    assert [twist_exponent(r, 2) for r in range(6)] == [0, 1, 2, 3, 4, 5]
    assert [twist_exponent(r, 3) for r in range(6)] == [0, 1, 3, 4, 6, 7]


def test_normality_check(sweedler):
    assert normality_check(sweedler).ok


def test_resolution_sweedler(sweedler):
    R = Resolution(sweedler, 6)
    rep = R.contraction_check()
    assert rep.ok, rep.failures
    # sigma_even sends 1 (x) x^{n-1} to 1 (x) 1
    t = TensorElem.from_aelem(sweedler.one, sweedler.n - 1, R.twist(1))
    assert R.apply_s(2, t) == TensorElem.from_aelem(sweedler.one, 0, R.twist(2))


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_folded_contraction_check_matches_every_degree(path):
    """Through D = 24, the check made once per (r mod 2, alpha^{t(r-1)})
    gives the report of the check made in every degree; the f of
    sweedler_bad is not admissible, so its failure string is compared."""
    alg = load_instance(str(path)).algebra(check=False)
    folded = Resolution(alg, 24).contraction_check()
    assert folded == unfolded_contraction_check(Resolution(alg, 24))
    assert folded.ok == (path.stem != "sweedler_bad")


def not_invertible_twist(n: int) -> MonogenicAlgebra:
    """QQ[C2] with alpha(g) = 1, so alpha^t = alpha for every t >= 1, and
    f = x^n, built unchecked: f is admissible, but a checked build refuses a
    twist that is not invertible."""
    K = group_algebra(cyclic_group(2), QQ)
    alpha = Endo(K, Mat(QQ, [[QQ.one, QQ.one], [QQ.zero, QQ.zero]]))
    assert not alpha.is_automorphism
    return MonogenicAlgebra(K, alpha, [{}] * n, check=False)


@pytest.mark.parametrize("n", [2, 3])
def test_folded_contraction_check_on_a_twist_that_is_not_invertible(n):
    """The fold must not assume that alpha has an inverse."""
    alg = not_invertible_twist(n)
    folded = Resolution(alg, 24).contraction_check()
    assert folded.ok and folded == unfolded_contraction_check(Resolution(alg, 24))


def degree_d_column(res: Resolution, r: int, flat: int) -> TensorElem:
    """d'_r on e_i (x) x^c, flat = c*adim + i, built in degree r itself."""
    c, i = divmod(flat, res.alg.adim)
    return res.d_generator(r).leftmul(res.alg.basis_vector(i)).rightmul_xpow(c)


def degree_s_column(res: Resolution, r: int, flat: int) -> TensorElem:
    """sigma_r on e_i (x) x^c by its formula, in degree r itself: minus e_i
    times the divided difference of x^c for odd r; e_i (x) 1 at c = n - 1
    and zero below it for even r."""
    alg = res.alg
    c, i = divmod(flat, alg.adim)
    if r % 2:
        col = -derivation_tensor(alg, c).leftmul(alg.basis_vector(i))
    else:
        col = TensorElem.from_aelem(alg.basis_vector(i), 0, 0) if c == alg.n - 1 else TensorElem.zero(alg, 0)
    return TensorElem(alg, res.twist(r), col.coords)


def sweedler_cubed_bad() -> MonogenicAlgebra:
    """QQ[C2] with alpha(g) = -g and f = x^3 + g x^2, built unchecked: g is
    not alpha-fixed, so x^3 = -g x^2 wraps through alpha^t(-g) = (-1)^t (-g),
    and t(r - 1) takes both parities within each parity of r."""
    sweedler = instances.sweedler()[0]
    return MonogenicAlgebra(sweedler.K, sweedler.alpha, [[0, 1], [0, 0], [0, 0]], check=False)


FOLD_CASES = {  # name -> (algebra, its fold classes of degrees 1 .. 25)
    **{p.stem: (lambda p=p: load_instance(str(p)).algebra(check=False), [0, 1] * 12 + [0])
       for p in SPECS},
    "not_invertible_n2": (lambda: not_invertible_twist(2), [0, 1] * 12 + [0]),
    "not_invertible_n3": (lambda: not_invertible_twist(3), [0, 1] * 12 + [0]),
    "taft4": (lambda: instances.taft(4, 5, 2)[0], [0, 1] * 12 + [0]),
    "sweedler_cubed_bad": (sweedler_cubed_bad, [0, 1, 2, 3] * 6 + [0]),
}


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_folded_columns_equal_the_columns_of_each_degree(name):
    """The premise of the fold: through D = 24, every column of d'_r and
    sigma_r that the check reads (r <= D + 1), served from the first degree
    of its class, equals the column built in degree r itself.  An admissible
    f has the two classes of the parities, and so has sweedler_bad, whose
    alpha^{t(r-1)}(kappa_1) depends on r only through its parity; the
    unadmissible cubic separates four classes."""
    build, classes = FOLD_CASES[name]
    res = Resolution(build(), 24)
    for r in range(1, 26):
        for flat in range(res.tdim):
            assert res.d_column(r, flat) == degree_d_column(res, r, flat), (r, flat)
            assert res.s_column(r, flat) == degree_s_column(res, r, flat), (r, flat)
    assert [res._fold(r) for r in range(1, 26)] == classes


def test_folded_contraction_check_reports_a_broken_column(gh4_u3, monkeypatch):
    """One column of sigma_r doubled in the even degrees r, which form one
    key class; degree 1's identity reads sigma_2, and both checks report the
    same failure."""
    alg = gh4_u3[0]
    s_column = Resolution.s_column

    def broken(self, r, flat):
        col = s_column(self, r, flat)
        return col + col if r % 2 == 0 and flat == alg.adim else col

    monkeypatch.setattr(Resolution, "s_column", broken)
    folded = Resolution(alg, 24).contraction_check()
    assert folded == unfolded_contraction_check(Resolution(alg, 24))
    assert folded.failures == (f"homotopy identity fails in degree 1 at basis {alg.adim}",)


def test_folded_check_builds_each_column_once_per_class(gh4_u3, monkeypatch):
    """On gh4_u3 (n = 2, alpha of order 4, f = x^2) at D = 6 the check's
    classes are the two parities, starting in degrees 1 and 2, and degree 5,
    whose d' it reads last, is in degree 1's class: its columns are degree
    1's, re-tagged with its twist, not built again.  Each built column calls
    `d_generator` once."""
    alg = gh4_u3[0]
    built = []
    d_generator = Resolution.d_generator

    def counting(self, r):
        built.append(r)
        return d_generator(self, r)

    monkeypatch.setattr(Resolution, "d_generator", counting)
    res = Resolution(alg, 6)
    assert res.contraction_check().ok
    assert sorted(set(built)) == [1, 2]
    assert all(built.count(r) == res.tdim for r in set(built))
    for flat in range(res.tdim):
        five, one = res.d_column(5, flat), res.d_column(1, flat)
        assert five.coords == one.coords
        assert (five.twist, one.twist) == (res.twist(4), res.twist(0)) == (4, 0)
        assert res.s_column(5, flat).twist == res.twist(5)
    assert len(built) == 2 * res.tdim


def test_resolution_truncated_gf3():
    F3 = prime_field(3)
    K = group_algebra(cyclic_group(1), F3)
    A = MonogenicAlgebra(K, identity_endo(K), [[0], [0], [0]])  # f = x^3 over GF(3)
    rep = Resolution(A, 6).contraction_check()
    assert rep.ok, rep.failures


def test_resolution_nontrivial_f():
    K = group_algebra(cyclic_group(1), QQ)
    A = MonogenicAlgebra(K, identity_endo(K), [[0], [-1]])
    rep = Resolution(A, 6).contraction_check()
    assert rep.ok, rep.failures


# -- normality on coefficient lists against the Ore route ----------------------


def twisted_group(F, order, root):
    G = cyclic_group(order)
    K = group_algebra(G, F)
    return K, endo_from_character(K, character_from_values(G, F, {"g": root}))


def normality_bases():
    """Coefficient algebras with twists over QQ, GF(7) and QQ(i): commutative
    and quaternion, twisted and not."""
    QI = instances.gaussian_rationals()
    line = group_algebra(cyclic_group(1), QQ)
    return {
        "QQ:line": (line, identity_endo(line)),
        "QQ:sign": twisted_group(QQ, 2, -1),
        "QQ:quaternion": quaternion_algebra(*instances.quaternion_half_turn_data()[:5]),
        "GF7:C3": twisted_group(prime_field(7), 3, 2),
        "QQ(i):C4": twisted_group(QI, 4, QI.gen),
    }


def random_combination(F, basis: Mat, rng) -> tuple:
    out = (F.zero,) * basis.rows
    for j in range(basis.cols):
        out = vadd(out, vscale(F.random_element(rng, 3), basis.column(j)))
    return out


def random_f(K, alpha, n, rng, admissible):
    """lambda_1 .. lambda_n: from the admissible spaces, or else each one
    alpha-fixed or arbitrary at random."""
    F = K.field
    if admissible:
        return [random_combination(F, admissible_coefficients(K, alpha, i), rng) for i in range(1, n + 1)]
    fixed = kernel_basis(alpha.matrix.add(Mat.identity(F, K.dim).scale(-F.one)))
    return [
        random_combination(F, fixed, rng) if rng.random() < 0.5
        else tuple(F.random_element(rng, 3) for _ in range(K.dim))
        for _ in range(n)
    ]


def compile_outcome(check, alg):
    try:
        check(alg)
    except MonogenicError as exc:
        return str(exc)
    return None


def assert_normality_matches_ore(alg):
    assert compile_outcome(MonogenicAlgebra.check_compiled, alg) == compile_outcome(ore_check_compiled, alg)
    assert normality_check(alg) == ore_normality_check(alg)
    return compile_outcome(MonogenicAlgebra.check_compiled, alg)


@pytest.mark.parametrize("base", sorted(normality_bases()))
def test_normality_on_coefficients_matches_ore(base):
    """``check_compiled`` raises the message the Ore-product check raises, or
    none, and ``normality_check`` gives the Ore route's report, on random
    admissible f and on random f compiled unchecked."""
    K, alpha = normality_bases()[base]
    rng = random.Random(base)
    outcomes = set()
    for n in (2, 3):
        for admissible in (True, False):
            for _ in range(4):
                alg = MonogenicAlgebra(K, alpha, random_f(K, alpha, n, rng, admissible), check=False)
                outcome = assert_normality_matches_ore(alg)
                assert outcome is None or not admissible
                outcomes.add(outcome)
    assert None in outcomes


def test_normality_failures_match_ore():
    """Each failure message appears in the comparison: x f != f x on sweedler
    with lambda_1 = g, f mu != alpha^n(mu) f with lambda_1 = 1, and a twist that
    does not fix the unit."""
    K, alpha = twisted_group(QQ, 2, -1)
    got = [
        assert_normality_matches_ore(MonogenicAlgebra(K, alpha, f, check=False))
        for f in ([K.elem("g"), (QQ.zero,) * 2], [K.unit, (QQ.zero,) * 2])
    ]
    assert got == ["f does not commute with x", "f lambda = alpha^n(lambda) f fails at basis 1"]
    # K = QQ x QQ with alpha(e1) = e1 and alpha(e2) = 0, so alpha(1) = e1
    idem = AlgebraK.from_structure_constants(
        QQ, 2, ["e1", "e2"], (QQ.one, QQ.one), [(0, 0, 0, QQ.one), (1, 1, 1, QQ.one)]
    )
    shrink = Endo(idem, Mat(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]]))
    got = [
        assert_normality_matches_ore(MonogenicAlgebra(idem, shrink, f, check=False))
        for f in ([(QQ.zero,) * 2] * 2, [idem.unit, idem.unit])
    ]
    assert got == [None, "f does not commute with x"]
