"""One stored form per object: a `Mat` is its sparse rows, {column: nonzero
entry} in column order, and an `AElem` its nonzero coordinates.

Every constructor of `Mat` is checked to store rows with no zero entry, in
column order, and the dense views and operations (`data`, `column`,
`transpose`, `add`, `scale`, `matmul`, `matvec`, `==`) against the `Mat`
that stored its dense grid (`DenseMat` in conftest.py), over QQ, GF(7),
QQ(i) and GF(9), at densities 0, .3, .7 and 1, on shapes with no rows or
no columns included.  `Mat.key` is equal exactly when `==` holds.  A `Mat`
compiled to keep its zero entries, or to keep the order its rows came in,
or a `transpose` that fills its rows in decreasing row index, turns the
property red.  `transpose` sorts nothing, so its rows are checked to come
out in column order from rows that are not."""

import random

import pytest
from conftest import CASES, DenseMat, mutant

from orecohom.fields import QQ, extension_field, prime_field
from orecohom.linalg import Mat
from orecohom.monogenic import AElem

FIELDS = {"QQ": QQ, "GF7": prime_field(7), "QQ(i)": extension_field(QQ, [1, 0, 1], "i"),
          "GF9": extension_field(prime_field(3), [1, 0, 1], "t")}
DENSITIES = (0.0, 0.3, 0.7, 1.0)
SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (4, 5), (5, 4))


def entry(F, rng, density):
    if rng.random() >= density:
        return F.zero
    while True:
        x = F.random_element(rng, 5)
        if not x.is_zero():
            return x


def grid(F, rows, cols, rng, density):
    return [[entry(F, rng, density) for _ in range(cols)] for _ in range(rows)]


def shuffled_rows(F, g, rng):
    """The nonzero entries of each row of g as a dict whose keys are out of
    column order."""
    out = []
    for row in g:
        items = [(j, a) for j, a in enumerate(row) if not a.is_zero()]
        rng.shuffle(items)
        out.append(dict(items))
    return out


def stores_sparse_rows(M: Mat) -> bool:
    """Each stored row holds only nonzero entries of M's field inside its
    columns, in column order."""
    return len(M.sparse) == M.rows and all(
        list(row) == sorted(row)
        and all(0 <= j < M.cols and a.field is M.field and not a.is_zero() for j, a in row.items())
        for row in M.sparse
    )


def built(F, rng, rows, cols, density):
    """(Mat, DenseMat) pairs of one shape from every constructor of Mat."""
    g, columns = grid(F, rows, cols, rng, density), grid(F, cols, rows, rng, density)
    pairs = [
        (Mat(F, g, cols), DenseMat(F, g, cols)),
        (Mat.from_sparse_rows(F, shuffled_rows(F, g, rng), cols), DenseMat(F, g, cols)),
        (Mat.from_columns(F, columns, rows), DenseMat(F, columns, rows).transpose()),
        (Mat.zero(F, rows, cols), DenseMat(F, [[F.zero] * cols for _ in range(rows)], cols)),
    ]
    if rows == cols:
        ident = [[F.one if i == j else F.zero for j in range(cols)] for i in range(rows)]
        pairs.append((Mat.identity(F, rows), DenseMat(F, ident, cols)))
    return pairs


def agrees(M: Mat, D: DenseMat) -> None:
    assert stores_sparse_rows(M)
    assert (M.rows, M.cols) == (D.rows, D.cols)
    assert M.data == D.data
    assert [M.column(j) for j in range(M.cols)] == [D.column(j) for j in range(D.cols)]


def stored_form_agrees(F, seed):
    rng = random.Random(seed)
    for (rows, cols), density in ((s, d) for s in SHAPES for d in DENSITIES):
        pairs = built(F, rng, rows, cols, density)
        right = Mat(F, grid(F, cols, 3, rng, density), 3)
        right_dense = DenseMat(F, right.data, 3)
        v = tuple(entry(F, rng, density) for _ in range(cols))
        for M, D in pairs:
            agrees(M, D)
            agrees(M.transpose(), D.transpose())
            agrees(M.matmul(right), D.matmul(right_dense))
            assert M.matvec(v) == D.matvec(v)
            for s in (F.zero, F.one, -F.one, entry(F, rng, 1.0)):
                agrees(M.scale(s), D.scale(s))
            copy = Mat(F, M.data, cols)
            changed = [list(r) for r in M.data]
            if rows and cols:
                changed[0][0] = changed[0][0] + F.one
            for N, DN in [(copy, D), (Mat(F, changed, cols), DenseMat(F, changed, cols)), *pairs]:
                agrees(M.add(N), D.add(DN))
                assert (M == N) == (D == DN)
                assert (M.key() == N.key()) == (M == N)
            assert M == copy and M.key() == copy.key()
    zeros = [Mat.zero(F, r, c) for r, c in SHAPES]
    assert all((A.key() == B.key()) == (A is B) == (A == B) for A in zeros for B in zeros)


@pytest.mark.parametrize("name", FIELDS)
def test_mat_stores_sparse_rows_and_matches_dense(name):
    stored_form_agrees(FIELDS[name], 12)


SEEDED = {  # name -> (function, old source, new source)
    "zero entry kept": (Mat.__init__, "for j, a in enumerate(r) if a.v != zv}", "for j, a in enumerate(r)}"),
    "rows left unsorted": (Mat.from_sparse_rows.__func__, "for j in sorted(r)}", "for j in r}"),
    "transpose filled in reverse": (Mat.transpose, "in enumerate(self.sparse):", "in reversed(list(enumerate(self.sparse))):"),
}


def seeded(monkeypatch, name):
    fn, old, new = SEEDED[name]
    monkeypatch.setattr(Mat, fn.__name__, mutant(fn, old, new))


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_stored_form_fault_is_caught(monkeypatch, name):
    seeded(monkeypatch, name)
    with pytest.raises(AssertionError):
        for F in FIELDS.values():
            stored_form_agrees(F, 12)


@pytest.mark.parametrize("name", FIELDS)
def test_transpose_rows_are_in_column_order(monkeypatch, name):
    """`transpose` sorts nothing: it fills each row in increasing row index,
    so its rows are in column order, also when the rows it reads are not
    (``from_sparse_rows`` compiled to keep the order its rows came in)."""
    F, rng = FIELDS[name], random.Random(14)
    for (rows, cols), density in ((s, d) for s in SHAPES for d in DENSITIES):
        g = grid(F, rows, cols, rng, density)
        for unsorted in (False, True):
            with monkeypatch.context() as m:
                if unsorted:
                    seeded(m, "rows left unsorted")
                M = Mat.from_sparse_rows(F, shuffled_rows(F, g, rng), cols)
            T = M.transpose()
            assert all(list(row) == sorted(row) for row in T.sparse)
            assert stores_sparse_rows(T) and T.data == DenseMat(F, g, cols).transpose().data


@pytest.mark.parametrize("case", sorted(CASES))
def test_aelem_stores_its_nonzero_coordinates(case):
    alg = CASES[case]()
    F, rng = alg.field, random.Random(13)
    for density in DENSITIES:
        c = tuple(entry(F, rng, density) for _ in range(alg.adim))
        a = AElem(alg, c)
        assert a.coords == c
        assert a.nz == {i: x for i, x in enumerate(c) if not x.is_zero()}
        assert all(x.field is F and not x.is_zero() for x in a.nz.values())
        assert a == AElem(alg, a.coords) and hash(a) == hash(AElem(alg, a.coords))
    with pytest.raises(ValueError, match="coordinate length"):
        AElem(alg, (F.zero,) * (alg.adim + 1))
