"""Where raw values become Scalars: `Field.scalar`, `decode`, `AlgebraK.elem`,
`AlgebraK.from_structure_constants` and the scalar multiplications coerce;
`KElem`, `AElem`, `Mat` and `AlgebraK` hold the Scalars they are
given, and a Scalar of another field fails at its first use."""

import contextlib
import io
import operator
from pathlib import Path

import pytest

from orecohom import fields
from orecohom.cli import main
from orecohom.fields import QQ, FieldError, extension_field, prime_field
from orecohom.kalgebra import AlgebraK, KElem, character_from_values, cyclic_group, endo_from_character, group_algebra
from orecohom.linalg import Mat
from orecohom.monogenic import AElem, MonogenicAlgebra
from orecohom.products import BarCochain

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"
GF7 = prime_field(7)
QI = extension_field(QQ, [1, 0, 1], "i")


@pytest.fixture(scope="module")
def sweedler():
    G = cyclic_group(2)
    K = group_algebra(G, QQ)
    alpha = endo_from_character(K, character_from_values(G, QQ, {"g": -1}))
    return MonogenicAlgebra(K, alpha, [{}, {}])


def test_report_coerces_few_scalars(monkeypatch):
    """The engine's containers, and `MonogenicAlgebra.monomial`, take
    engine-built coordinates as given: one `report` made 8,413 `Field.scalar`
    calls on sweedler when each container coerced every entry again, and
    9,036 on gh4_u3 when `monomial` sent its Scalar tuples back through
    `AlgebraK.elem`."""
    calls = []
    original = fields.Field.scalar

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(fields.Field, "scalar", counting)
    for name, bound in [("sweedler.json", 1000), ("gh4_u3.json", 3500)]:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["report", str(SPECS / name)]) == 0
        assert len(calls) < bound, name


def foreign_and_other(sweedler, kind):
    """A QQ container with a GF(7) entry, and a QQ container of the same
    shape whose entries are all nonzero."""
    K, A = sweedler.K, sweedler
    three, one = GF7.from_int(3), QQ.one
    if kind == "KElem":
        return KElem(K, (three, QQ.zero)), KElem(K, (one, one))
    if kind == "AElem":
        return AElem(A, (three,) + (QQ.zero,) * 3), AElem(A, (one,) * 4)
    return Mat(QQ, [[three, QQ.zero]]), Mat(QQ, [[one, one]])


@pytest.mark.parametrize("kind", ["KElem", "AElem", "Mat"])
@pytest.mark.parametrize("op", ["+", "=="])
def test_foreign_scalar_fails_at_first_use(sweedler, kind, op):
    bad, other = foreign_and_other(sweedler, kind)
    with pytest.raises(FieldError, match="cannot mix scalars"):
        if op == "+":
            bad.add(other) if kind == "Mat" else bad + other
        else:
            bad == other


@pytest.mark.parametrize("field", [QQ, GF7, QI])
def test_structure_constants_from_ints_build_the_same_algebra(field):
    quads = [(a, b, (a + b) % 2, 1) for a in range(2) for b in range(2)]
    K = AlgebraK.from_structure_constants(field, 2, ["1", "g"], [1, 0], quads)
    G = group_algebra(cyclic_group(2), field)
    assert K.unit == G.unit == (field.one, field.zero)
    assert all(c.field is field for c in K.unit)
    assert K.mul_table == G.mul_table
    assert K.elem("g") * K.elem("g") == K.one


# each entry point, fed True somewhere, on the sweedler algebra A
TRUE_ENTRIES = {
    "Field.scalar": lambda A: QQ.scalar(True),
    "QQ.decode": lambda A: QQ.decode(True),
    "GF(7).decode": lambda A: GF7.decode(True),
    "QQ(i).decode": lambda A: QI.decode(True),
    "QQ(i).decode coordinate": lambda A: QI.decode([True, 0]),
    "elem": lambda A: A.K.elem(True),
    "elem coordinates": lambda A: A.K.elem([True, 0]),
    "elem dict": lambda A: A.K.elem({"g": True}),
    "structure constant": lambda A: AlgebraK.from_structure_constants(QQ, 1, ["1"], [1], [(0, 0, 0, True)]),
    "unit": lambda A: AlgebraK.from_structure_constants(QQ, 1, ["1"], [True], [(0, 0, 0, 1)]),
    "KElem * True": lambda A: A.K.one * True,
    "True * KElem": lambda A: True * A.K.one,
    "AElem * True": lambda A: A.one * True,
    "True * AElem": lambda A: True * A.one,
    "BarCochain.scale": lambda A: BarCochain(A, 0, {(): A.one}).scale(True),
}


@pytest.mark.parametrize("entry", TRUE_ENTRIES.values(), ids=TRUE_ENTRIES.keys())
def test_true_is_rejected_at_every_entry(sweedler, entry):
    with pytest.raises(FieldError, match="booleans are not field elements"):
        entry(sweedler)


@pytest.mark.parametrize("field", [QQ, GF7, QI], ids=["QQ", "GF(7)", "QQ(i)"])
@pytest.mark.parametrize("op", [operator.add, operator.mul, operator.eq], ids=["+", "*", "=="])
def test_scalar_operators_reject_true(field, op):
    with pytest.raises(FieldError, match="booleans are not field elements"):
        op(field.one, True)
    with pytest.raises(FieldError, match="booleans are not field elements"):
        op(True, field.one)
