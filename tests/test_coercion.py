"""Where raw values become Scalars: `Field.scalar`, `decode`, `AlgebraK.elem`,
`AlgebraK.from_structure_constants` and the scalar multiplications coerce;
K's coordinate tuples, `AElem`, `Mat` and `AlgebraK` hold the Scalars they
are given, and a Scalar of another field fails at its first use, in the
operators and in every loop that runs on payloads."""

import contextlib
import io
import operator
from pathlib import Path

import pytest

from orecohom import fields
from orecohom.cli import main
from orecohom.fields import QQ, FieldError, extension_field, prime_field
from orecohom.kalgebra import AlgebraK, character_from_values, cyclic_group, endo_from_character, group_algebra
from orecohom.linalg import EchelonTracker, LinSolver, Mat, combine
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
    shape whose entries are all nonzero.  An element of K is its
    coordinate tuple, so the "KElem" pair is two tuples."""
    A = sweedler
    three, one = GF7.from_int(3), QQ.one
    if kind == "KElem":
        return (three, QQ.zero), (one, one)
    if kind == "AElem":
        return AElem(A, (three,) + (QQ.zero,) * 3), AElem(A, (one,) * 4)
    return Mat(QQ, [[three, QQ.zero]]), Mat(QQ, [[one, one]])


@pytest.mark.parametrize("kind", ["KElem", "AElem", "Mat"])
@pytest.mark.parametrize("op", ["+", "=="])
def test_foreign_scalar_fails_at_first_use(sweedler, kind, op):
    """On K's coordinate tuples "+" stands for `K.kmul`, the product K
    defines on them."""
    bad, other = foreign_and_other(sweedler, kind)
    add = {"KElem": sweedler.K.kmul, "Mat": Mat.add}.get(kind, operator.add)
    with pytest.raises(FieldError, match="cannot mix scalars"):
        if op == "+":
            add(bad, other)
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
    assert K.kmul(K.elem("g"), K.elem("g")) == K.unit


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


# each loop that runs on payloads, fed a QQ container with a GF(7) entry, on
# the sweedler algebra A
THREE = GF7.from_int(3)
PAYLOAD_LOOPS = {
    "combine coefficient": lambda A: combine([(QQ.one, {0: QQ.one}), (THREE, {0: QQ.one})]),
    "combine entry": lambda A: combine([(QQ.one, {0: QQ.one, 1: THREE})]),
    "Mat.matvec vector": lambda A: Mat(QQ, [[QQ.one, QQ.one]]).matvec((QQ.one, THREE)),
    "Mat.matvec matrix": lambda A: Mat(QQ, [[THREE, QQ.one]]).matvec((QQ.one, QQ.one)),
    "Mat.matmul": lambda A: Mat(QQ, [[THREE, QQ.one]]).matmul(Mat.identity(QQ, 2)),
    "EchelonTracker.add": lambda A: EchelonTracker(QQ, 2).add((THREE, QQ.zero)),
    "EchelonTracker.add reduced": lambda A: EchelonTracker.of_columns(Mat.identity(QQ, 2)).add((QQ.one, THREE)),
    "LinSolver.solve": lambda A: LinSolver(Mat.identity(QQ, 2)).solve((QQ.one, THREE)),
    "AlgebraK.kmul": lambda A: A.K.kmul((QQ.one, THREE), A.K.unit),
    "AlgebraK.left_mult_matrix": lambda A: A.K.left_mult_matrix((QQ.one, THREE)),
    "a_mul": lambda A: A.a_mul(A.one, AElem(A, (QQ.one, THREE, QQ.zero, QQ.zero))),
    "AElem ==": lambda A: AElem(A, (THREE,) + (QQ.zero,) * 3) == A.x + A.one,
}


@pytest.mark.parametrize("loop", PAYLOAD_LOOPS.values(), ids=PAYLOAD_LOOPS.keys())
def test_foreign_scalar_fails_in_every_payload_loop(sweedler, loop):
    with pytest.raises(FieldError, match="cannot mix scalars"):
        loop(sweedler)
