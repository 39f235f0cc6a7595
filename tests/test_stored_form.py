"""One stored form per object: a `Mat` is its payload rows, {column: nonzero
payload}, and an `AElem` its nonzero payload coordinates.

Every constructor of `Mat` is checked to store payload rows with no zero
entry, `from_sparse_rows` in the order its rows come in, and the dense views
and operations (`data`, `column`, `transpose`, `add`, `scale`, `matmul`,
`matvec`, `==`) against the `Mat` that stored its dense grid (`DenseMat` in
conftest.py), over QQ, GF(7), QQ(i) and GF(9), at densities 0, .3, .7 and 1,
on shapes with no rows or no columns included.  `Mat.key` is equal exactly
when `==` holds, also for equal matrices whose rows were built in different
orders.  `payloads` compiled to keep zero entries, a `key` that skips its
sort, or a `transpose` that fills its rows in decreasing row index turns the
property red.  `transpose` sorts nothing, so its rows are checked to come
out in column order from rows that are not.

An element of K has one form at every level, the payload row {basis index:
nonzero payload}: `K.unit`, `f_terms`, `k_coeff`, `kmul`, `basis_elem`,
`Endo.apply` and a witness's value.  One that has been handed out is never
mutated: a `report` leaves `K.unit`, `f_terms`, `wrap_terms` and the witness
value equal to deep copies taken before it, and an echelon handed `K.unit`
to reduce and keep, without a copy, turns that red."""

import copy
import random
from pathlib import Path

import pytest
from conftest import CASES, DenseMat, mutant, payload_row

from orecohom import cli, kalgebra, linalg
from orecohom.closedforms import find_witness
from orecohom.fields import QQ, Scalar, extension_field, prime_field
from orecohom.linalg import Mat
from orecohom.monogenic import AElem
from orecohom.specio import load_instance

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"

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
    """The nonzero entries of each row of g as a payload row whose keys are
    out of column order."""
    out = []
    for row in g:
        items = [(j, a.v) for j, a in enumerate(row) if not a.is_zero()]
        rng.shuffle(items)
        out.append(dict(items))
    return out


def stores_sparse_rows(M: Mat) -> bool:
    """Each stored row holds only nonzero payloads inside M's columns."""
    zv = M.field.zero.v
    return len(M.sparse) == M.rows and all(
        0 <= j < M.cols and not isinstance(p, Scalar) and p != zv for row in M.sparse for j, p in row.items()
    )


def in_column_order(M: Mat) -> bool:
    return all(list(row) == sorted(row) for row in M.sparse)


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
        in_order, shuffled = pairs[0][0], pairs[1][0]  # one grid, rows built in two orders
        assert in_order == shuffled and in_order.key() == shuffled.key()
        right = Mat(F, grid(F, cols, 3, rng, density), 3)
        right_dense = DenseMat(F, right.data, 3)
        v = tuple(entry(F, rng, density) for _ in range(cols))
        for M, D in pairs:
            agrees(M, D)
            agrees(M.transpose(), D.transpose())
            assert in_column_order(M.transpose())
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


SEEDED = {  # name -> (owner, function, old source, new source)
    "zero entry kept": (linalg, linalg.payloads, "if s.v != zv:", "if True:"),
    "rows left unsorted": (Mat, Mat.key, "tuple(sorted(row.items()))", "tuple(row.items())"),
    "transpose filled in reverse": (Mat, Mat.transpose, "in enumerate(self.sparse):", "in reversed(list(enumerate(self.sparse))):"),
}


def seeded(monkeypatch, name):
    owner, fn, old, new = SEEDED[name]
    monkeypatch.setattr(owner, fn.__name__, mutant(fn, old, new))


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_stored_form_fault_is_caught(monkeypatch, name):
    seeded(monkeypatch, name)
    with pytest.raises(AssertionError):
        for F in FIELDS.values():
            stored_form_agrees(F, 12)


@pytest.mark.parametrize("name", FIELDS)
def test_transpose_rows_are_in_column_order(name):
    """`transpose` sorts nothing: it fills each row in increasing row index,
    so its rows are in column order, also when the rows it reads are not
    (``from_sparse_rows`` keeps the order its rows came in)."""
    F, rng = FIELDS[name], random.Random(14)
    for (rows, cols), density in ((s, d) for s in SHAPES for d in DENSITIES):
        g = grid(F, rows, cols, rng, density)
        for shuffled in (False, True):
            M = Mat.from_sparse_rows(F, shuffled_rows(F, g, rng) if shuffled else Mat(F, g, cols).sparse, cols)
            T = M.transpose()
            assert in_column_order(T)
            assert stores_sparse_rows(T) and T.data == DenseMat(F, g, cols).transpose().data


@pytest.mark.parametrize("case", sorted(CASES))
def test_aelem_stores_its_nonzero_coordinates(case):
    alg = CASES[case]()
    F, rng = alg.field, random.Random(13)
    for density in DENSITIES:
        c = tuple(entry(F, rng, density) for _ in range(alg.adim))
        a = AElem(alg, c)
        assert a.coords == c
        assert a.nz == payload_row(dict(enumerate(c)))
        assert all(not isinstance(p, Scalar) and p != F.zero.v for p in a.nz.values())
        assert a == AElem(alg, a.coords) and hash(a) == hash(AElem(alg, a.coords))
    with pytest.raises(ValueError, match="coordinate length"):
        AElem(alg, (F.zero,) * (alg.adim + 1))


# -- K's elements ---------------------------------------------------------------


def is_k_element(K, u) -> bool:
    """u is a payload row of K: a dict from basis indices to nonzero payloads."""
    zv = K.field.zero.v
    return type(u) is dict and all(0 <= b < K.dim and not isinstance(p, Scalar) and p != zv for b, p in u.items())


@pytest.mark.parametrize("case", sorted(CASES))
def test_k_elements_are_payload_rows(case):
    alg = CASES[case]()
    K, alpha, F = alg.K, alg.alpha, alg.field
    rng = random.Random(15)
    elems = [K.unit, *alg.f_terms, *(kappa for _, kappa in alg.wrap_terms)]
    elems += [K.basis_elem(b) for b in range(K.dim)]
    elems += [K.elem(tuple(entry(F, rng, d) for _ in range(K.dim))) for d in DENSITIES]
    for u in list(elems):
        elems += [alpha.apply(u), alpha.apply_power(2, u), *(K.kmul(u, v) for v in elems[: K.dim + 2])]
    for m in range(2 * alg.n + 1):
        elems += [alg.xpow(m).k_coeff(a) for a in range(alg.n)]
    witness = find_witness(alg)
    elems += [witness.value] if witness else []
    assert all(is_k_element(K, u) for u in elems)
    assert K.elem(K.unit) is K.unit


def report_mutations(path) -> tuple[list[str], Exception | None]:
    """Run `report` in process on one session, after deep copies of K's
    unit (taken before the algebra is built), of each row of `f_terms` and
    `wrap_terms` and of the witness value: the names of those that differ
    from their copy afterwards, and the error that stopped the run, if any."""
    args = cli.build_parser().parse_args(["report", str(path)])
    session = cli.Session(load_instance(str(path)), args)
    watched = {"K.unit": session.inst.K.unit}
    snapshot = copy.deepcopy(watched)
    error = None
    try:
        alg = session.algebra
        handed = {f"f_terms[{i}]": c for i, c in enumerate(alg.f_terms)}
        handed.update({f"wrap_terms[{j}]": kappa for j, kappa in alg.wrap_terms})
        if session.witness:
            handed["witness"] = session.witness.value
        watched.update(handed)
        snapshot.update(copy.deepcopy(handed))
        cli.RUNNERS["report"](session)
    except ValueError as exc:  # every error the CLI reports
        error = exc
    return [name for name, u in watched.items() if u != snapshot[name]], error


@pytest.mark.parametrize("name", ["gh4_u3", "swap3", "quaternion_pi"])
def test_report_leaves_handed_out_k_elements_unchanged(name):
    assert report_mutations(SPECS / f"{name}.json") == ([], None)


def test_seeded_uncopied_unit_is_caught(monkeypatch):
    """The unit of swap3's K is e1 + e2, so an echelon that keeps `K.unit`
    itself as a row reduces it in place once e1 joins."""
    walk = mutant(kalgebra._basis_walk, "span.add_payloads(dict(v))", "span.add_payloads(v)")
    monkeypatch.setattr(kalgebra, "_basis_walk", walk)
    assert "K.unit" in report_mutations(SPECS / "swap3.json")[0]
