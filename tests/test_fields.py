import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import LegacyExtensionField, legacy_payload, poly_xgcd

from orecohom.fields import (
    QQ,
    FieldError,
    RationalField,
    Scalar,
    _certify_irreducible,
    _rational_sqrt,
    cyclotomic_minpoly,
    extension_field,
    make_field,
    poly_divmod,
    poly_gcd,
    poly_mul,
    polynomial_roots,
    prime_field,
)


def test_rationals_basic():
    half = QQ.scalar(Fraction(1, 2))
    assert half * 2 == QQ.one
    assert (QQ.from_int(2)).inv() == half
    assert QQ.from_int(0) + QQ.from_int(5) == 5
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inv()


DECODE_FIELDS = {
    "QQ": lambda: QQ,
    "GF7": lambda: prime_field(7),
    "QQ(i)": lambda: extension_field(QQ, [1, 0, 1], "i"),
    "GF9": lambda: extension_field(prime_field(3), [1, 0, 1], "t"),
}


@pytest.mark.parametrize("name", DECODE_FIELDS)
def test_decode_rejects_booleans(name):
    F = DECODE_FIELDS[name]()
    assert F.decode(1) == F.one
    for obj in (True, False):
        with pytest.raises(FieldError, match="booleans are not field elements"):
            F.decode(obj)
    if F.deg > 1:
        with pytest.raises(FieldError, match="booleans are not field elements"):
            F.decode([True, 0])


def test_prime_field_basic():
    F7 = prime_field(7)
    assert F7.from_int(3) * F7.from_int(5) == F7.one
    assert F7.from_int(3).inv() == F7.from_int(5)
    assert F7.from_int(10) == F7.from_int(3)
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(ZeroDivisionError):
        F7.zero.inv()


def test_gaussian_extension():
    F = extension_field(QQ, [1, 0, 1], "i")
    i = F.gen
    assert i * i == -F.one
    one_plus_i = F.one + i
    inv = one_plus_i.inv()
    assert inv == (F.one - i) / 2
    assert one_plus_i * (F.one - i) == F.from_int(2)
    assert one_plus_i * inv == F.one


def test_extension_reducible_rejected():
    with pytest.raises(FieldError):
        extension_field(QQ, [-1, 0, 1], "s")  # t^2 - 1 = (t-1)(t+1)
    with pytest.raises(FieldError):
        extension_field(prime_field(5), [1, 0, 1], "i")  # t^2+1 splits mod 5


def test_towers_rejected():
    F = extension_field(QQ, [1, 0, 1], "i")
    with pytest.raises(FieldError):
        extension_field(F, [F.gen, F.zero, F.one], "j")


def test_cross_field_mix_rejected():
    with pytest.raises(FieldError):
        QQ.one + prime_field(3).one


def test_cyclotomic():
    assert cyclotomic_minpoly(1) == [-1, 1]
    assert cyclotomic_minpoly(2) == [1, 1]
    assert cyclotomic_minpoly(3) == [1, 1, 1]
    assert cyclotomic_minpoly(4) == [1, 0, 1]
    assert cyclotomic_minpoly(6) == [1, -1, 1]
    assert cyclotomic_minpoly(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_minpoly(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
def test_cyclotomic_root_primitive(n):
    F = extension_field(QQ, cyclotomic_minpoly(n), "z")
    z = F.gen
    assert z ** n == F.one
    for k in range(1, n):
        assert z ** k != F.one


def test_irreducibility_certificates():
    # decidable over GF(p) in any degree
    F3 = prime_field(3)
    mk = lambda cs, K: [K.from_int(c) for c in cs]
    assert _certify_irreducible(mk([1, 0, 1], prime_field(3)), F3) is True  # t^2+1 mod 3
    assert _certify_irreducible(mk([-1, 0, 1], F3), F3) is False
    assert _certify_irreducible(mk([1, 2, 0, 1], F3), F3) is True  # t^3+2t+1 mod 3
    # quartics over the rationals
    assert _certify_irreducible(mk([1, 0, 0, 0, 1], QQ), QQ) is True  # t^4+1
    assert _certify_irreducible(mk([1, 0, -1, 0, 1], QQ), QQ) is True
    assert _certify_irreducible(mk([4, 0, 5, 0, 1], QQ), QQ) is False  # (t^2+1)(t^2+4)
    assert _certify_irreducible(mk([1, 0, 1, 0, 1], QQ), QQ) is False  # (t^2+t+1)(t^2-t+1)
    assert _certify_irreducible(mk([1, 0, 3, 0, 1], QQ), QQ) is True
    assert _certify_irreducible(mk([-2, 0, 0, 0, 1], QQ), QQ) is True  # t^4-2
    # degree 5 is out of scope
    assert _certify_irreducible(mk([1, 1, 0, 0, 0, 1], QQ), QQ) is None


@pytest.mark.parametrize(
    "field",
    [QQ, prime_field(7), extension_field(QQ, [1, 0, 1], "i"),
     extension_field(prime_field(3), [1, 2, 0, 1], "w")],
    ids=["QQ", "GF7", "Q(i)", "GF27"],
)
def test_field_axioms_random(field):
    rng = random.Random(12345)
    for _ in range(1000):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if not a.is_zero():
            assert a * a.inv() == field.one


def test_polynomial_roots_rational():
    # (t-2)(t+1/3)(t^2+1)
    f = [QQ.scalar(Fraction(c)) for c in "1 1 1 1".split()]
    f = poly_mul(
        poly_mul([QQ.from_int(-2), QQ.one], [QQ.scalar(Fraction(1, 3)), QQ.one], QQ),
        [QQ.one, QQ.zero, QQ.one],
        QQ,
    )
    roots, complete = polynomial_roots(f, QQ)
    vals = sorted(r.v for r in roots)
    assert vals == [Fraction(-1, 3), Fraction(2)]
    assert not complete
    g = poly_mul([QQ.from_int(-2), QQ.one], [QQ.zero, QQ.one], QQ)
    roots, complete = polynomial_roots(g, QQ)
    assert sorted(r.v for r in roots) == [0, 2]
    assert complete


def test_polynomial_roots_gfp():
    F5 = prime_field(5)
    f = [F5.from_int(c) for c in (4, 0, 1)]  # t^2 + 4 = (t-1)(t+1)
    roots, complete = polynomial_roots(f, F5)
    assert complete and sorted(r.v for r in roots) == [1, 4]


def test_poly_xgcd():
    rng = random.Random(17)
    for _ in range(30):
        a = [QQ.random_element(rng, 4) for _ in range(rng.randint(1, 5))]
        b = [QQ.random_element(rng, 4) for _ in range(rng.randint(1, 5))]
        g, u, v = poly_xgcd(a, b, QQ)
        from orecohom.fields import poly_add, poly_trim

        total = poly_add(poly_mul(u, a, QQ), poly_mul(v, b, QQ), QQ)
        assert total == poly_trim(g)
        assert poly_gcd(a, b, QQ) == g


def test_divmod_example():
    # the cyclotomic pipeline divides t^4 - 1 by (t-1)(t+1)
    num = [QQ.from_int(c) for c in (-1, 0, 0, 0, 1)]
    den = [QQ.from_int(c) for c in (-1, 0, 1)]
    q, r = poly_divmod(num, den, QQ)
    assert [c.v for c in q] == [1, 0, 1] and not r


def test_json_roundtrip():
    for field in (QQ, prime_field(7), extension_field(QQ, [1, 0, 1], "i")):
        rebuilt = make_field(field.describe())
        assert rebuilt is field
        rng = random.Random(7)
        for _ in range(50):
            s = field.random_element(rng)
            assert field.decode(field.encode(s)) == s
    assert QQ.encode(QQ.scalar(Fraction(-3, 4))) == "-3/4"
    F7 = prime_field(7)
    assert F7.encode(F7.from_int(10)) == 3
    Qi = extension_field(QQ, [1, 0, 1], "i")
    assert Qi.encode(Qi.gen) == ["0/1", "1/1"]


def test_make_field_errors():
    with pytest.raises(FieldError):
        make_field({"kind": "nope"})
    with pytest.raises(FieldError):
        make_field(42)


def test_scalar_hash_and_repr():
    Qi = extension_field(QQ, [1, 0, 1], "i")
    s = Qi.one + Qi.gen
    assert repr(s) == "1 + i"
    d = {s: 1}
    assert d[Qi.one + Qi.gen] == 1


# -- extensions against the base-payload tuples they replaced -----------------

# The cubic's minpoly has non-integer coefficients, so its reduction table
# has a common denominator other than 1.  The finite fields are compared on
# every element and every pair of elements.
NUMBER_FIELDS = {
    "QQ(i)": (QQ, [1, 0, 1], "i"),
    "QQ(sqrt2)": (QQ, [-2, 0, 1], "s"),
    "cubic": (QQ, [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), 1], "w"),
    "GF9": (prime_field(3), [1, 0, 1], "t"),
    "GF27": (prime_field(3), [1, 2, 0, 1], "t"),
    "GF25": (prime_field(5), [3, 0, 1], "t"),
    "GF16": (prime_field(2), [1, 1, 0, 0, 1], "t"),
}


@pytest.fixture(params=sorted(NUMBER_FIELDS))
def number_field(request):
    """The field and the old `ExtensionField` (kept in conftest.py) on the
    same minpoly, with matching elements of both: 0, 1, -1 and the
    generator, then every element in `elements()` order over GF(p), and
    over QQ 40 random ones built from the same coordinates, some of them
    with zero coordinates."""
    base, minpoly, symbol = NUMBER_FIELDS[request.param]
    F, L = extension_field(base, minpoly, symbol), LegacyExtensionField(base, minpoly, symbol)
    pairs = [(F.zero, L.zero), (F.one, L.one), (-F.one, -L.one), (F.gen, L.gen)]
    if F.char:
        pairs += zip(F.elements(), L.elements(), strict=True)
        return F, L, pairs
    rng = random.Random(11)
    for _ in range(40):
        coords = [QQ.random_element(rng, 4) if rng.random() < 0.7 else QQ.zero for _ in range(F.deg)]
        pairs.append((F.scalar(coords), L.scalar(coords)))
    return F, L, pairs


def assert_normalised(F, x):
    """x's payload is in the one form its field allows for its value."""
    if F is QQ:
        v = x.v
        assert type(v) in (int, Fraction), v
        # an int exactly when the value is integral, else denominator > 1
        assert (type(v) is int) == (Fraction(v).denominator == 1), v
        return
    nums, den = x.v
    assert type(den) is int and den > 0, x.v
    assert len(nums) == F.deg and all(type(n) is int for n in nums), x.v
    assert gcd(den, *nums) == 1, x.v
    assert any(nums) or x.v == ((0,) * F.deg, 1), x.v
    if F.char:
        assert den == 1 and all(0 <= n < F.char for n in nums), x.v


def test_number_field_payloads_match_legacy(number_field):
    F, L, pairs = number_field
    if F.char == 0 and F.deg == 3:
        assert F._tden > 1
    if F.char:
        assert len(pairs) == 4 + F.char ** F.deg
    for x, y in pairs:
        assert_normalised(F, x)
        if F.char == 0:
            for c in F._coords(x.v):
                assert_normalised(QQ, Scalar(QQ, c))
        assert legacy_payload(F, x) == y.v
        assert x.is_zero() == y.is_zero() == (x == F.zero)
        assert repr(x) == repr(y)
        assert F.encode(x) == L.encode(y)
        assert F.decode(F.encode(x)) == x and F.decode(F.encode(x)).v == x.v
        assert legacy_payload(F, -x) == (-y).v
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
            with pytest.raises(ZeroDivisionError):
                y.inv()
        else:
            assert_normalised(F, x.inv())
            assert legacy_payload(F, x.inv()) == y.inv().v
            assert x * x.inv() == F.one


def test_number_field_arithmetic_matches_legacy(number_field):
    F, L, pairs = number_field
    for x1, y1 in pairs:
        for x2, y2 in pairs:
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                out = op(x1, x2)
                assert_normalised(F, out)
                assert legacy_payload(F, out) == op(y1, y2).v
            assert (x1 == x2) == (y1 == y2)
            # equal values built two ways have equal payloads, so equal hashes
            for a, b in (((x1 + x2) - x2, x1), (x1 * x2, x2 * x1)):
                assert a == b and a.v == b.v and hash(a) == hash(b)
        assert (x1 - x1).v == F.zero.v == ((0,) * F.deg, 1)


def test_number_field_non_invertible_element():
    # (t^2 + 1)(t^3 + 2): degree 5, so irreducibility is not certified
    minpoly = [2, 0, 2, 1, 0, 1]
    F, L = extension_field(QQ, minpoly, "t"), LegacyExtensionField(QQ, minpoly, "t")
    divisor = [1, 0, 1]
    with pytest.raises(FieldError):
        F.scalar(divisor).inv()
    with pytest.raises(FieldError):
        L.scalar(divisor).inv()
    unit = F.scalar([1, 1])
    assert legacy_payload(F, unit.inv()) == L.scalar([1, 1]).inv().v


def test_prime_extension_non_invertible_determinant():
    # over GF(p) a Bareiss determinant divisible by p is a non-unit norm,
    # which a certified minpoly rules out; the normalisation still refuses it
    F = extension_field(prime_field(3), [1, 0, 1], "t")
    with pytest.raises(FieldError, match="non-invertible element"):
        F._normal((1, 2), 6)
    assert F._normal((4, -1), 2) == ((2, 1), 1)


# -- QQ payloads: an int when integral, a Fraction only otherwise ---------------


def qq_entry_points() -> list[Scalar]:
    """Rationals made through every way into QQ, integral and not."""
    rng = random.Random(4)
    made = [QQ.zero, QQ.one, QQ.from_int(-3), QQ.from_int(12)]
    made += [QQ.scalar(q) for q in (Fraction(6, 3), Fraction(-1, 2), Fraction(0, 7), Fraction(5, -10))]
    made += [QQ.scalar(t) for t in ("4/2", "-3/6", "5", "0/9", "-7/7")]
    made += [QQ.decode(obj) for obj in ("8/4", "1/3", "-2/1", "0/1", 3)]
    made += [QQ.random_element(rng, 4) for _ in range(40)]
    made += [_rational_sqrt(QQ.scalar(q)) for q in (Fraction(0), Fraction(4), Fraction(9, 4), Fraction(1, 9))]
    return made


def check_qq_payloads():
    """Every entry point, then -, inv, +, -, *, / and int or Fraction
    operands through `_coerce`, keeps the QQ payload normalised and its value
    equal to the value of the same operation on Fractions."""
    made = qq_entry_points()
    out = list(made)
    for x in made:
        q = Fraction(x.v)
        out += [-x, x + 2, 3 - x, x * Fraction(4, 2), Fraction(1, 2) * x, x - Fraction(3, 3)]
        assert [v.v for v in out[-6:]] == [-q, q + 2, 3 - q, q * 2, q / 2, q - 1]
        if x:
            out += [x.inv(), 2 / x, x / Fraction(-1, 3)]
            assert [v.v for v in out[-3:]] == [1 / q, 2 / q, -3 * q]
        for y in made[::3]:
            r = Fraction(y.v)
            out += [x + y, x - y, x * y]
            assert [v.v for v in out[-3:]] == [q + r, q - r, q * r]
            if y:
                out.append(x / y)
                assert out[-1].v == q / r
    for x in out:
        assert_normalised(QQ, x)
    return made, out


def test_qq_payload_is_an_int_exactly_when_integral():
    made, out = check_qq_payloads()
    assert len(out) > 500
    # both forms occur, from the random elements too
    for group in (made, made[-44:-4], out):
        assert {type(x.v) for x in group} == {int, Fraction}


def test_seeded_unnormalised_product_is_caught(monkeypatch):
    """`_mul` returning Fraction(n, 1) for an integral product must turn the
    payload check red."""
    monkeypatch.setattr(RationalField, "_mul", lambda self, a, b: Fraction(a) * b)
    with pytest.raises(AssertionError):
        check_qq_payloads()


def test_qq_integral_values_are_one_key():
    a, b = QQ.scalar(Fraction(6, 3)), QQ.from_int(2)
    assert a == b and hash(a) == hash(b) and a.v == b.v == 2
    assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"
    # by the numeric tower an int and its Fraction compare and hash alike,
    # so the payload form does not change equality or hashing
    old = Scalar(QQ, Fraction(2))
    assert old == b and hash(old) == hash(b) and {old: 1}[b] == 1
    assert QQ.encode(b) == "2/1" and repr(b) == "2" and repr(QQ.scalar("-1/2")) == "-1/2"


def test_qq_matches_fractions():
    """QQ arithmetic, == and hash against fractions.Fraction on random
    rationals, with 0 and ±1 drawn often."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
        st.fractions(max_denominator=30),
        st.integers(-50, 50).map(Fraction),
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(rationals, rationals)
    def check(p, q):
        a, b = QQ.scalar(p), QQ.scalar(q)
        results = {p + q: a + b, p - q: a - b, p * q: a * b, -p: -a}
        if q:
            results[p / q] = a / b
        if p:
            results[1 / p] = a.inv()
        for exact, x in results.items():
            assert_normalised(QQ, x)
            assert x.v == exact and x == QQ.scalar(exact) and hash(x.v) == hash(exact)
        assert (a == b) == (p == q) and (a == p) and (a != b) == (p != q)
        if p == q:
            assert hash(a) == hash(b)
        assert bool(a) == bool(p) and QQ.decode(QQ.encode(a)) == a

    check()


@pytest.mark.parametrize("name", DECODE_FIELDS)
def test_power_matches_repeated_products(name):
    """`Scalar.__pow__` squares and multiplies; it equals |e| repeated
    products by x (by its inverse for e < 0) for e in -5..20 on random
    nonzero x, 1 and -1; 0 ** e is 1 at e = 0 and 0 above, and 0 ** -1
    raises ZeroDivisionError."""
    F, rng = DECODE_FIELDS[name](), random.Random(17)
    xs = [F.one, -F.one] + [x for x in (F.random_element(rng, 5) for _ in range(8)) if x]
    for x, e in ((x, e) for x in xs for e in range(-5, 21)):
        want, base = F.one, x.inv() if e < 0 else x
        for _ in range(abs(e)):
            want = want * base
        got = x ** e
        assert got == want and got.v == want.v and got.field is F, (x, e)
    assert F.zero ** 0 == F.one and all(F.zero ** e == F.zero for e in range(1, 21))
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


@pytest.mark.parametrize("name", DECODE_FIELDS)
def test_encoder_matches_encode_and_shares_no_list(name):
    """`Field.encoder()` encodes a payload as `encode` does, and each call
    returns a list of its own over an extension field, so changing one
    coordinate of an output leaves every other one as it was."""
    F, rng = DECODE_FIELDS[name](), random.Random(5)
    code = F.encoder()
    xs = [F.zero, F.one, -F.one] + [F.random_element(rng, 5) for _ in range(6)]
    for x in xs + xs:
        assert code(x.v) == F.encode(x)
    first, second = code(F.one.v), code(F.one.v)
    assert first == second
    if isinstance(first, list):
        assert first is not second
        first.append("changed")
        assert code(F.one.v) == F.encode(F.one)
