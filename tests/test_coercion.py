"""Where raw values become Scalars: `Field.scalar`, `decode`, `AlgebraK.elem`,
`AlgebraK.from_structure_constants` and the scalar multiplications coerce.
K's elements, `Mat`, `AElem`, `TensorElem` and the tables hold payloads: the
Scalars they are given are unboxed with a field check each (for K's
elements, in `AlgebraK.elem`), and the operators check the field of each
operand once.  A Scalar or container of another field fails at
its first use: where it enters a container, in the operators and in every
loop that runs on payloads, also under ``python -O``."""

import contextlib
import io
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest
from bar_reference import BarCochain

from orecohom import fields, instances
from orecohom.cli import main
from orecohom.cohomology import Bimodule, build_small_complex, classes_equal, cohomology_group
from orecohom.fields import QQ, FieldError, extension_field, prime_field
from orecohom.kalgebra import AlgebraK, character_from_values, cyclic_group, endo_from_character, group_algebra
from orecohom.linalg import LinSolver, Mat
from orecohom.monogenic import AElem, MonogenicAlgebra

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


def test_report_constructs_few_scalars(monkeypatch):
    """Matrices, elements of A and of K, tensors and both tables hold
    payloads, and the products, their class coordinates and the closed-form
    checks read payload rows, so a gh4_u3 `report` boxes a Scalar only where
    one leaves a container or the closed forms do scalar algebra: 423
    constructions in a fresh process, where 824 were made while K's elements
    were tuples of Scalars, 1,609 while class coordinates were and 4,574
    while the containers held Scalars."""
    made = []
    init = fields.Scalar.__init__

    def counting(self, field, v):
        made.append(v)
        init(self, field, v)

    monkeypatch.setattr(fields.Scalar, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", str(SPECS / "gh4_u3.json")]) == 0
    assert 0 < len(made) < 470


def foreign_and_other(sweedler, kind):
    """A QQ container with a GF(7) entry, and a QQ container of the same
    shape whose entries are all nonzero.  `K.elem`, an `AElem` and a `Mat`
    each refuse the GF(7) entry as it is built."""
    A = sweedler
    three, one = GF7.from_int(3), QQ.one
    if kind == "KElem":
        return A.K.elem((three, QQ.zero)), A.K.elem((one, one))
    if kind == "AElem":
        return AElem(A, (three,) + (QQ.zero,) * 3), AElem(A, (one,) * 4)
    return Mat(QQ, [[three, QQ.zero]]), Mat(QQ, [[one, one]])


@pytest.mark.parametrize("kind", ["KElem", "AElem", "Mat"])
@pytest.mark.parametrize("op", ["+", "=="])
def test_foreign_scalar_fails_at_first_use(sweedler, kind, op):
    """On K's elements "+" stands for `K.kmul`, the product K defines on
    them."""
    add = {"KElem": sweedler.K.kmul, "Mat": Mat.add}.get(kind, operator.add)
    with pytest.raises(FieldError, match="cannot mix scalars"):
        bad, other = foreign_and_other(sweedler, kind)
        if op == "+":
            add(bad, other)
        else:
            bad == other


@pytest.mark.parametrize("field", [QQ, GF7, QI])
def test_structure_constants_from_ints_build_the_same_algebra(field):
    quads = [(a, b, (a + b) % 2, 1) for a in range(2) for b in range(2)]
    K = AlgebraK.from_structure_constants(field, 2, ["1", "g"], [1, 0], quads)
    G = group_algebra(cyclic_group(2), field)
    assert K.unit == G.unit == K.elem([1, 0]) == {0: field.one.v}
    assert K.mul_table == G.mul_table
    assert K.kmul(K.elem("g"), K.elem("g")) == K.unit


def test_monomial_takes_raw_values_through_elem(sweedler):
    """`monomial` and `k_embed` read a coordinate tuple, a basis label and
    the payload row alike: raw values go through `K.elem`, which returns an
    element of K as given."""
    A, row = sweedler, sweedler.K.elem("g")
    for a in range(A.n):
        want = A.monomial(row, a)
        assert want.nz == {a * A.K.dim + 1: QQ.one.v}
        assert A.monomial((0, 1), a) == A.monomial("g", a) == want
    assert A.k_embed((1, 0)) == A.k_embed("1") == A.k_embed(A.K.unit) == A.one


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


# each container and each loop that runs on payloads, fed a GF(7) entry or
# operand where QQ is expected, on the sweedler algebra A; the reads of the
# small complex of A are fed x of taft(2, 7, 6), an element of A's shape over
# GF(7)
THREE = GF7.from_int(3)


def complex_of(A):
    return build_small_complex(A, Bimodule.regular(A), 3)


def gf7_x():
    return instances.taft(2, 7, 6)[0].x


PAYLOAD_LOOPS = {
    "Mat": lambda A: Mat(QQ, [[THREE, QQ.one]]),
    "Mat.from_columns": lambda A: Mat.from_columns(QQ, [(QQ.one, THREE)], 2),
    "AElem": lambda A: AElem(A, (QQ.one, THREE, QQ.zero, QQ.zero)),
    "Mat.scale coefficient": lambda A: Mat.identity(QQ, 2).scale(THREE),
    "Mat.add operand": lambda A: Mat.identity(QQ, 2).add(Mat.identity(GF7, 2)),
    "Mat.matvec vector": lambda A: Mat(QQ, [[QQ.one, QQ.one]]).matvec((QQ.one, THREE)),
    "Mat.matvec matrix": lambda A: Mat.identity(GF7, 2).matvec((QQ.one, QQ.one)),
    "Mat.matmul": lambda A: Mat.identity(QQ, 2).matmul(Mat.identity(GF7, 2)),
    "LinSolver.solve": lambda A: LinSolver(Mat.identity(QQ, 2)).solve((QQ.one, THREE)),
    "AlgebraK.kmul": lambda A: A.K.kmul(A.K.elem((QQ.one, THREE)), A.K.unit),
    "AlgebraK.left_mult_matrix": lambda A: A.K.left_mult_matrix(A.K.elem((QQ.one, THREE))),
    "a_mul": lambda A: A.a_mul(A.one, AElem(A, (QQ.one, THREE, QQ.zero, QQ.zero))),
    "AElem ==": lambda A: AElem(A, (THREE,) + (QQ.zero,) * 3) == A.x + A.one,
    "SmallComplex.to_sub AElem": lambda A: complex_of(A).to_sub(1, gf7_x()),
    "class_coords AElem": lambda A: cohomology_group(complex_of(A), 1).class_coords(gf7_x()),
    "classes_equal AElem": lambda A: classes_equal(complex_of(A), 1, gf7_x(), gf7_x()),
}


@pytest.mark.parametrize("loop", PAYLOAD_LOOPS.values(), ids=PAYLOAD_LOOPS.keys())
def test_foreign_scalar_fails_in_every_payload_loop(sweedler, loop):
    with pytest.raises(FieldError, match="cannot mix scalars"):
        loop(sweedler)


MIXED_UNDER_O = """
import sys
from orecohom.fields import QQ, FieldError, prime_field
from orecohom.kalgebra import cyclic_group, group_algebra
from orecohom.linalg import Mat
assert False, "assert statements must be stripped"
three, K = prime_field(7).from_int(3), group_algebra(cyclic_group(2), QQ)
for build in (lambda: Mat(QQ, [[three, QQ.one]]), lambda: K.elem((three, QQ.zero))):
    try:
        build()
    except FieldError as exc:
        print(sys.flags.optimize, str(exc))
"""


def test_foreign_entry_is_refused_under_optimize():
    """The field check of a container is not an assert: under python -O a
    `Mat` and `K.elem` still refuse a GF(7) entry where QQ is expected."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", MIXED_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["1 cannot mix scalars of QQ and GF(7)"] * 2


# The products on an operand of another field: a QQ algebra and a GF(7) one
# of the same shape, each read by the routes that sum on payload rows.
FOREIGN_PRODUCTS = """
from bar_reference import BarCochain, phi_eval
from orecohom import instances
from orecohom.products import SmallCochain, bracket_small_closed, cup_small
A, B = instances.sweedler()[0], instances.taft(2, 7, 6)[0]
odd = lambda alg: SmallCochain(alg, 1, alg.x, check=False)
CALLS = {
    "phi_eval": lambda: phi_eval(BarCochain(A, 1, {(1,): B.x})),
    "cup_small": lambda: cup_small(odd(A), odd(B)),
    "bracket_small_closed": lambda: bracket_small_closed(odd(A), odd(B), True),
}
"""


@pytest.mark.parametrize("name", ["phi_eval", "cup_small", "bracket_small_closed"])
def test_products_refuse_a_foreign_operand(name):
    namespace: dict = {}
    exec(FOREIGN_PRODUCTS, namespace)
    with pytest.raises(FieldError, match="cannot mix scalars"):
        namespace["CALLS"][name]()


def test_products_refuse_a_foreign_operand_under_optimize():
    """The field checks of `phi_eval`, `cup_small` and `bracket_small_closed`
    are not asserts: under python -O each refuses the GF(7) operand."""
    script = FOREIGN_PRODUCTS + """
import sys
from orecohom.fields import FieldError
assert False, "assert statements must be stripped"
for name, call in CALLS.items():
    try:
        call()
    except FieldError as exc:
        print(name, sys.flags.optimize, str(exc))
"""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{name} 1 cannot mix scalars of QQ and GF(7)"
                                        for name in ("phi_eval", "cup_small", "bracket_small_closed")]
