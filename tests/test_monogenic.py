import json
import random

import pytest
from conftest import (
    SPECS,
    OrePoly,
    admissible_coefficients,
    dense_vadd,
    dense_vscale,
    derivation_tensor,
    entrywise_d_column,
    entrywise_rightmul_k,
    entrywise_s_column,
    f_ore,
    from_ore,
    mutate_columns,
    ore_check_compiled,
    ore_divmod,
    ore_mul,
    ore_normality_check,
    tensor_contraction_check,
    to_ore,
    unfolded_contraction_check,
)
from bar_reference import TensorElem, apply_s, d_column, leftmul, rightmul_xpow, s_column

from orecohom import instances, monogenic
from orecohom.fields import QQ, Scalar, extension_field, prime_field
from orecohom.kalgebra import (
    AlgebraError,
    AlgebraK,
    Endo,
    algebra_validate,
    character_from_values,
    cyclic_group,
    endo_from_character,
    group_algebra,
    group_from_presentation_gh4,
    identity_endo,
    quaternion_algebra,
)
from orecohom.linalg import Mat, kernel_basis
from orecohom.monogenic import (
    AElem,
    MonogenicAlgebra,
    MonogenicError,
    Resolution,
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
    got = entrywise_rightmul_k(t, g)
    assert got == TensorElem.from_aelem(-A.k_embed(g), 0, 1)
    # (1 (x) x).x = 1 (x) x^2 = 0 since f = x^2
    assert rightmul_xpow(t, 2).is_zero()
    # left and right A-action compose with the product
    a = A.monomial(g, 1)
    assert leftmul(t, a).left_factor(0) == a


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
    assert apply_s(R, 2, t) == TensorElem.from_aelem(sweedler.one, 0, R.twist(2))


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
    gen = TensorElem._of(res.alg, res.twist(r - 1), res.d_generator(r))
    return rightmul_xpow(leftmul(gen, res.alg.basis_vector(i)), c)


def degree_s_column(res: Resolution, r: int, flat: int) -> TensorElem:
    """sigma_r on e_i (x) x^c by its formula, in degree r itself: minus e_i
    times the divided difference of x^c for odd r; e_i (x) 1 at c = n - 1
    and zero below it for even r."""
    alg = res.alg
    c, i = divmod(flat, alg.adim)
    if r % 2:
        col = -leftmul(derivation_tensor(alg, c), alg.basis_vector(i))
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
            assert d_column(res, r, flat) == degree_d_column(res, r, flat), (r, flat)
            assert s_column(res, r, flat) == degree_s_column(res, r, flat), (r, flat)
    assert [res._fold(r) for r in range(1, 26)] == classes


def test_folded_contraction_check_reports_a_broken_column(gh4_u3, monkeypatch):
    """One column of sigma_r doubled in the even degrees r, which form one
    key class; degree 1's identity reads sigma_2, and both checks report the
    same failure."""
    alg = gh4_u3[0]
    mutate_columns(monkeypatch, "s", lambda res, r, flat, col: col + col if r % 2 == 0 and flat == alg.adim else col)
    folded = Resolution(alg, 24).contraction_check()
    assert folded == unfolded_contraction_check(Resolution(alg, 24))
    assert folded.failures == (f"homotopy identity fails in degree 1 at basis {alg.adim}",)


def test_folded_check_builds_each_column_once_per_class(gh4_u3, monkeypatch):
    """On gh4_u3 (n = 2, alpha of order 4, f = x^2) at D = 6 the check's
    classes are the two parities, starting in degrees 1 and 2, and degree 5,
    whose d' it reads last, is in degree 1's class: its columns are degree
    1's, re-tagged with its twist, not built again.  Each class reads
    `d_generator` once, for all of its columns."""
    alg = gh4_u3[0]
    built = []
    d_generator = Resolution.d_generator

    def counting(self, r):
        built.append(r)
        return d_generator(self, r)

    monkeypatch.setattr(Resolution, "d_generator", counting)
    res = Resolution(alg, 6)
    assert res.contraction_check().ok
    assert built == [1, 2]
    for flat in range(res.tdim):
        five, one = d_column(res, 5, flat), d_column(res, 1, flat)
        assert five.coords == one.coords
        assert (five.twist, one.twist) == (res.twist(4), res.twist(0)) == (4, 0)
        assert s_column(res, 5, flat).twist == res.twist(5)
    assert built == [1, 2]


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
        out = dense_vadd(out, dense_vscale(F.random_element(rng, 3), basis.column(j)))
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


# -- the payload route of the resolution and of the checks of A -----------------


@pytest.mark.parametrize("top", [0, -1])
def test_contraction_check_refuses_a_top_degree_below_one(sweedler, top):
    """The check reads degrees 1 and 2 whatever the top degree; below 1 it
    names that degree, where it raised a bare KeyError."""
    with pytest.raises(MonogenicError, match="reads degrees 1 and up"):
        Resolution(sweedler, top).contraction_check()


def test_contraction_check_builds_no_tensor_and_boxes_no_scalar(gh4_u3, monkeypatch):
    """Past the generator image of each class, which the small complex reads
    too, a gh4_u3 check builds no TensorElem and no AElem; it sums once per
    basis tensor of its first degrees (the degree-0 identity, then the
    homotopy and d.d identities of degrees 1 and 2), and once its columns
    are built, a second check boxes no Scalar."""
    alg = gh4_u3[0]
    res = Resolution(alg, 6)
    for r in (1, 2):
        res.d_generator(r)
    made, sums = [], []

    def counting(log, original):
        def wrapped(*args, **kwargs):
            log.append(args[0])
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(TensorElem, "__init__", counting(made, TensorElem.__init__))
    monkeypatch.setattr(AElem, "__init__", counting(made, AElem.__init__))
    monkeypatch.setattr(AElem, "_of", classmethod(counting(made, AElem._of.__func__)))
    monkeypatch.setattr(monogenic, "row_sum", counting(sums, monogenic.row_sum))
    assert res.contraction_check().ok
    assert made == [] and len(sums) == 5 * res.tdim
    monkeypatch.setattr(Scalar, "__init__", counting(made, Scalar.__init__))
    assert res.contraction_check().ok
    assert made == [] and len(sums) == 10 * res.tdim


GF9 = extension_field(prime_field(3), [1, 0, 1], "t")
QI = instances.gaussian_rationals()
TWIST_ROOTS = {  # field -> (field, order and root of the Taft twist, image of h in gh4)
    "QQ": (QQ, 2, -1, -1),
    "GF7": (prime_field(7), 3, 2, -1),
    "QQ(i)": (QI, 4, QI.gen, QI.gen),
    "GF9": (GF9, 4, GF9.gen, GF9.gen),
}


def random_instance(field: str, family: str, n: int, admissible: bool, rng) -> MonogenicAlgebra:
    """A Taft algebra (the cyclic group twisted by a root of unity) or a
    gh4(2) algebra (g fixed, h sent to a root of unity) over ``field``,
    with a random f of degree n, compiled unchecked."""
    F, m, root, h = TWIST_ROOTS[field]
    G = cyclic_group(m) if family == "taft" else group_from_presentation_gh4(2)
    values = {"g": root} if family == "taft" else {"g": F.one, "h": h}
    K = group_algebra(G, F)
    alpha = endo_from_character(K, character_from_values(G, F, values))
    return MonogenicAlgebra(K, alpha, random_f(K, alpha, n, rng, admissible), check=False)


def break_table(alg: MonogenicAlgebra, rng) -> None:
    """One product of two basis elements in A's compiled table doubled, or
    moved by the first basis element."""
    key, F = rng.choice(sorted(alg.mul_table)), alg.field
    terms = alg.mul_table[key]
    if rng.random() < 0.5:
        alg.mul_table[key] = [(k, F._add(p, p)) for k, p in terms]
    else:
        alg.mul_table[key] = [*terms, (0, F.one.v)]


def test_payload_route_matches_the_boxed_routes():
    """A derandomized hypothesis test on random Taft and gh4(2) instances
    over QQ, GF(7), QQ(i) and GF(9), with admissible and unadmissible f of
    degree 2 and 3, and at random one product of the compiled table broken:
    the columns of d' and sigma in degrees 1 to 3 equal the entrywise ones,
    ``contraction_check`` gives the report of its TensorElem route, and
    ``check_compiled`` and ``normality_check`` the outcomes of their Ore
    routes.  Passing and failing outcomes of each check are both drawn."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(TWIST_ROOTS)), st.sampled_from(["taft", "gh4"]),
                      st.sampled_from([2, 3]), st.booleans(), st.booleans(), st.integers(0, 2**16))
    def agrees(field, family, n, admissible, broken, seed):
        rng = random.Random(seed)
        alg = random_instance(field, family, n, admissible, rng)
        if broken:
            break_table(alg, rng)
        compiled = compile_outcome(MonogenicAlgebra.check_compiled, alg)
        assert compiled == compile_outcome(ore_check_compiled, alg)
        normal = normality_check(alg)
        assert normal == ore_normality_check(alg)
        res = Resolution(alg, 4)
        for r in (1, 2, 3):
            for flat in range(res.tdim):
                assert d_column(res, r, flat) == entrywise_d_column(res, r, flat), (r, flat)
                assert s_column(res, r, flat) == entrywise_s_column(res, r, flat), (r, flat)
        contraction = res.contraction_check()
        assert contraction == tensor_contraction_check(Resolution(alg, 4))
        seen.update({("compiled", compiled is None), ("normal", normal.ok), ("contraction", contraction.ok)})

    agrees()
    assert seen == {(check, ok) for check in ("compiled", "normal", "contraction") for ok in (True, False)}
