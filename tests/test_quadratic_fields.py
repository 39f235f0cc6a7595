"""The straight-line arithmetic of degree-2 extensions of QQ against its
references: products against the schoolbook product folded by the
reduction table (`full_product`) and against the legacy field, sums against
the generic `ExtensionField._add` and the legacy field, inverses against
fraction-free elimination (`_bareiss_inv`) and `encode` against the boxed
encoder it replaced (both kept in conftest.py).  Seeded mistakes in each
formula turn the property red, and a guard pins which class serves which
field."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import LegacyExtensionField, boxed_encode, full_product, legacy_payload, mutant

from orecohom.fields import (
    QQ,
    ExtensionField,
    Scalar,
    _PrimeExtensionField,
    _QuadraticField,
    extension_field,
    make_field,
    prime_field,
)

# name -> minpoly over QQ, constant-first; the last two have the reduction
# denominators 2 and 15, and Q(zeta3) and the last one a nonzero t coefficient
QUADRATIC = {
    "QQ(i)": [1, 0, 1],
    "QQ(zeta3)": [1, 1, 1],
    "QQ(sqrt2)": [-2, 0, 1],
    "QQ(sqrt1/2)": [Fraction(-1, 2), 0, 1],
    "t^2+t/3+1/5": [Fraction(1, 5), Fraction(1, 3), 1],
}


def quadratic_property():
    """A derandomized hypothesis test: on each field, with 0, +-1, +-t, 1/t,
    base-field values and non-integral coordinates drawn often, products,
    sums, inverses and encodings equal their references."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = {}
    for name, minpoly in QUADRATIC.items():
        F = extension_field(QQ, minpoly, "t")
        coord = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6))
        special = [F.zero, F.one, -F.one, F.gen, -F.gen, F.gen.inv()]
        in_base = coord.map(lambda c, F=F: F.scalar([c]))
        drawn = st.lists(coord, min_size=2, max_size=2).map(F.scalar)
        elements = st.one_of(st.sampled_from(special), in_base, drawn)
        fields[name] = F, LegacyExtensionField(QQ, minpoly, "t"), elements
    assert {F._tden for F, _, _ in fields.values()} == {1, 2, 15}

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(fields)), st.data())
    def check(name, data):
        F, L, elements = fields[name]
        a, b = data.draw(elements), data.draw(elements)
        la, lb = Scalar(L, legacy_payload(F, a)), Scalar(L, legacy_payload(F, b))
        assert (a * b).v == full_product(F, a.v, b.v)
        assert legacy_payload(F, a * b) == (la * lb).v
        assert (a + b).v == ExtensionField._add(F, a.v, b.v)
        assert legacy_payload(F, a + b) == (la + lb).v
        if not a.is_zero():
            assert a.inv().v == F._bareiss_inv(a.v)
        assert F.encode(a) == boxed_encode(F, a)

    return check


def test_quadratic_arithmetic_matches_references():
    quadratic_property()()


@pytest.mark.parametrize("owner, name, old, new", [
    # r1 with the wrong sign in the product
    (_QuadraticField, "_mul", "D * (a0 * b1 + a1 * b0) + r1 * p", "D * (a0 * b1 + a1 * b0) - r1 * p"),
    # the norm without the sign flip
    (_QuadraticField, "_inv", "if N < 0:", "if False:"),
    # encode without the gcd
    (ExtensionField, "encode", "g = gcd(x, den)", "g = 1"),
], ids=["product-r1-sign", "inverse-unflipped-norm", "encode-no-gcd"])
def test_seeded_mistakes_are_caught(monkeypatch, owner, name, old, new):
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name), old, new))
    with pytest.raises(AssertionError):
        quadratic_property()()


def test_each_field_is_served_by_its_class():
    """Degree 2 over QQ gets the straight-line class, through the spec reader
    and through `extension_field`; degree 3 over QQ and GF(9) keep the
    generic classes; and `extension_field` still returns one cached object
    per field."""
    gh4 = json.loads((Path(__file__).resolve().parent.parent / "demos" / "specs" / "gh4_u3.json").read_text())
    assert type(make_field(gh4["field"])) is _QuadraticField
    for minpoly in QUADRATIC.values():
        F = extension_field(QQ, minpoly, "t")
        assert type(F) is _QuadraticField
        assert extension_field(QQ, minpoly, "t") is F
    assert type(extension_field(QQ, [-2, 0, 0, 1], "c")) is ExtensionField
    assert type(extension_field(prime_field(3), [1, 0, 1], "t")) is _PrimeExtensionField
