"""The sparse inner loops against the dense ones they replaced (kept in
conftest.py): the payload zero tests, vector sums and scalings, matrix
products, `LinSolver.solve`, the eliminations behind `rref`, `kernel_basis`,
`rank` and `LinSolver`, `AlgebraK.kmul`, the center of K
(`twisted_invariants_k(K, alpha, 0)`), `MonogenicAlgebra.a_mul` and
`SmallComplex.d_ambient`; and the coefficient
layer built from the structure constants against its dense loops:
`algebra_validate`, `Endo.validate`, the multiplication matrices of K,
`Bimodule.regular` and the compiled table of A.  They run on random vectors
whose zero patterns are random (all-zero and all-nonzero included) over QQ,
GF(7), QQ(i) and GF(9), on every canned instance and on every demo spec.

The nonzero coordinates an element of A carries are checked against its
dense coordinates for every builder and operation, the tensor sums of the
resolution against its entrywise columns, the unit shortcut of
extension-field products against the full product, and the base-field
shortcut of extension-field inverses against fraction-free elimination.

The loops that run on field payloads (`row_sum`, `_accumulate` and through
it the echelon, `Mat.apply` behind `matvec`, `table_mul_into`, and
`row_sum` as the constraint rows of `twisted_kernel`) are checked against
the Scalar-level loops and dense routes they replaced, with a seeded
overwrite-the-sum fault in each; `row_sum` and `table_mul_into` remove a
sum that cancels, checked on forced cancellations with a seeded
keep-the-zero fault in each; and `Resolution.contraction_check` against
its TensorElem route (both kept in conftest.py), on intact and on broken
columns.  A `twisted_kernel` call boxes no Scalar.  The free-row
reads of reduced free-variable bases (`FreeRows`, and through it
`SmallComplex.to_sub`) are checked against `LinSolver` and the dense solve,
and class coordinates read from a sparse vector against those of its dense
tuple."""

import copy
import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    CASES,
    DenseLinSolver,
    all_rows_twisted_kernel,
    LegacyExtensionField,
    dense_a_mul,
    dense_center_basis,
    dense_compile,
    dense_d_ambient,
    dense_is_zero,
    dense_kernel_basis,
    dense_kmul,
    dense_left_mult_matrix,
    dense_matmul,
    dense_matvec,
    dense_regular,
    dense_right_mult_matrix,
    dense_rref,
    dense_solve,
    dense_vadd,
    dense_vscale,
    entrywise_d_column,
    entrywise_s_column,
    full_product,
    legacy_payload,
    mutant,
    mutate_columns,
    pair_loop_validate,
    payload_row,
    scalar_accumulate,
    scalar_combine,
    scalar_matvec,
    scalar_row,
    scalar_table_mul,
    tensor_contraction_check,
    triple_loop_validate,
)

from orecohom import kalgebra, linalg

from orecohom.cohomology import Bimodule, CohomologyError, build_small_complex, cohomology_group
from orecohom.fields import QQ, ExtensionField, Scalar, extension_field, prime_field
from orecohom.instances import gaussian_rationals, gh4_instance
from orecohom.kalgebra import algebra_validate, twisted_invariants_k
from orecohom.linalg import FreeRows, LinalgError, LinSolver, Mat, dense, kernel_basis, rank, rref, row_sum, support, vscale
from orecohom.monogenic import AElem, Resolution, TensorElem

GF7 = prime_field(7)
QI = gaussian_rationals()
GF9 = extension_field(prime_field(3), [1, 0, 1], "t")
FIELDS = {"QQ": QQ, "GF7": GF7, "QQ(i)": QI, "GF9": GF9}
# shares of nonzero entries: all-zero, sparse, dense, all-nonzero
DENSITIES = (0.0, 0.3, 0.7, 1.0)


def nonzero(F, rng):
    while True:
        x = F.random_element(rng, 5)
        if not x.is_zero():
            return x


def vector(F, n, rng, density):
    return tuple(nonzero(F, rng) if rng.random() < density else F.zero for _ in range(n))


def matrix(F, rows, cols, rng, density):
    return Mat(F, [vector(F, cols, rng, density) for _ in range(rows)], cols)


# -- fields and linear algebra on random data ----------------------------------


@pytest.mark.parametrize("name", FIELDS)
def test_payload_zero_tests_match(name):
    F = FIELDS[name]
    rng = random.Random(1)
    elements = [F.zero, F.one, -F.one] + [F.random_element(rng, 3) for _ in range(200)]
    if F.deg > 1:
        b = F.base
        elements += [F.scalar([b.zero, b.one]), F.scalar([b.one, b.zero]), F.gen]
    assert any(x == F.zero for x in elements[3:])
    for x in elements:
        old = legacy_payload(F, x)
        assert F._is_zero(x.v) == dense_is_zero(F, old) == x.is_zero() == (x == F.zero), x


@pytest.mark.parametrize("name", FIELDS)
def test_vector_sums_and_scalings_match(name):
    F = FIELDS[name]
    rng = random.Random(2)
    for da in DENSITIES:
        for db in DENSITIES:
            a, b = vector(F, 9, rng, da), vector(F, 9, rng, db)
            assert dense(F, row_sum(F, [(F.one.v, payloads(a)), (F.one.v, payloads(b))]), 9) == dense_vadd(a, b)
            for s in (F.zero, F.one, nonzero(F, rng)):
                assert vscale(s, a) == dense_vscale(s, a)
                assert all(x.field is F for x in vscale(s, a))


@pytest.mark.parametrize("name", FIELDS)
def test_matrix_products_match(name):
    F = FIELDS[name]
    rng = random.Random(3)
    for rows, inner, cols in ((0, 3, 2), (3, 0, 2), (1, 1, 1), (4, 5, 3), (6, 6, 6)):
        for dm in DENSITIES:
            A = matrix(F, rows, inner, rng, dm)
            for dv in DENSITIES:
                v = vector(F, inner, rng, dv)
                assert A.matvec(v) == dense_matvec(A, v)
                B = matrix(F, inner, cols, rng, dv)
                assert A.matmul(B) == dense_matmul(A, B)


@pytest.mark.parametrize("name", FIELDS)
def test_solves_match(name):
    F = FIELDS[name]
    rng = random.Random(4)
    for rows, cols in ((0, 2), (3, 0), (4, 4), (6, 3), (3, 6)):
        for dm in DENSITIES:
            # a product of two random factors, so ranks below full occur
            M = matrix(F, rows, 2, rng, dm).matmul(matrix(F, 2, cols, rng, dm))
            M = M.add(matrix(F, rows, cols, rng, dm / 4))
            S = LinSolver(M)
            for dv in DENSITIES:
                x = vector(F, cols, rng, dv)
                for b in (vector(F, rows, rng, dv), M.matvec(x)):
                    assert S.solve(b) == dense_solve(S, b)
                assert S.solve(M.matvec(x)) is not None


def with_zero_lines(M, rng):
    """M with one random row and one random column set to zero."""
    if not M.rows or not M.cols:
        return M
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    z = M.field.zero
    return Mat(
        M.field,
        [[z if a == i or b == j else x for b, x in enumerate(row)] for a, row in enumerate(M.data)],
        M.cols,
    )


@pytest.mark.parametrize("name", FIELDS)
def test_eliminations_match_dense(name):
    """`rref`, `kernel_basis`, `rank` and `LinSolver` on the echelon tracker
    give what the dense Gauss-Jordan loops gave, on empty, square, tall and
    wide matrices that are random, of rank at most 2, or with a zero row and
    column, against consistent and inconsistent right-hand sides."""
    F = FIELDS[name]
    rng = random.Random(5)
    deficient = inconsistent = 0
    for rows, cols in ((0, 3), (3, 0), (0, 0), (1, 1), (4, 4), (6, 3), (3, 6), (2, 7), (7, 2)):
        for dm in DENSITIES:
            for M in (
                matrix(F, rows, cols, rng, dm),
                matrix(F, rows, 2, rng, dm).matmul(matrix(F, 2, cols, rng, dm)),
                with_zero_lines(matrix(F, rows, cols, rng, dm), rng),
            ):
                R, pivots = rref(M)
                assert (R, pivots) == dense_rref(M)
                assert kernel_basis(M) == dense_kernel_basis(M)
                assert rank(M) == len(pivots)
                deficient += len(pivots) < min(rows, cols)
                S, D = LinSolver(M), DenseLinSolver(M)
                assert (S.pivots, S.rank) == (D.pivots, D.rank)
                for dv in DENSITIES:
                    x = vector(F, cols, rng, dv)
                    for b in (vector(F, rows, rng, dv), M.matvec(x)):
                        assert S.solve(b) == D.solve(b)
                        inconsistent += D.solve(b) is None
    assert deficient and inconsistent


@pytest.mark.parametrize("name", FIELDS)
def test_free_row_reads_match_solves(name):
    """On the free-variable basis B of a random null space, `FreeRows` finds
    the free columns of the rref as B's free rows, `read` gives
    `LinSolver(B).solve` on vectors inside and outside span(B), and a copy of
    B with one column doubled is refused as not in that form."""
    F = FIELDS[name]
    rng = random.Random(8)
    outside = doubled = 0
    for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 4), (3, 6), (2, 7), (7, 2)):
        for dm in DENSITIES:
            for M in (matrix(F, rows, cols, rng, dm),
                      matrix(F, rows, 2, rng, dm).matmul(matrix(F, 2, cols, rng, dm))):
                B = kernel_basis(M)
                free, S = FreeRows(B), LinSolver(B)
                assert free.free == [c for c in range(M.cols) if c not in rref(M)[1]]
                for dv in DENSITIES:
                    x = vector(F, B.cols, rng, dv)
                    for w in (vector(F, B.rows, rng, dv), B.matvec(x)):
                        assert free.read(w) == S.solve(w)
                        outside += S.solve(w) is None
                    assert free.read(B.matvec(x)) == x
                if B.cols:
                    k = rng.randrange(B.cols)
                    two = F.scalar(2)
                    cols2 = [vscale(two, c) if j == k else c for j, c in enumerate(B.columns_list())]
                    with pytest.raises(LinalgError, match="not in reduced free-variable form"):
                        FreeRows(Mat.from_columns(F, cols2, B.rows))
                    doubled += 1
    assert outside and doubled


# -- the algebras, bimodules and complexes of real instances -------------------


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """An instance and its complex through degree 3.  The f of sweedler_bad
    is not admissible, so its differentials leave the twisted invariants:
    its complex stops at degree 0 and d is compared on random vectors only."""
    alg = CASES[request.param]()
    top = 0 if request.param == "spec:sweedler_bad" else 3
    return alg, build_small_complex(alg, Bimodule.regular(alg), top)


def test_kmul_matches(case):
    K = case[0].K
    rng = random.Random(5)
    basis = [K.basis_elem(i) for i in range(K.dim)]
    pairs = [(u, v) for u in basis for v in basis]
    pairs += [(vector(K.field, K.dim, rng, du), vector(K.field, K.dim, rng, dv)) for du in DENSITIES for dv in DENSITIES]
    for u, v in pairs:
        assert K.kmul(u, v) == dense_kmul(K, u, v)


def test_center_basis_matches(case):
    alg = case[0]
    center = twisted_invariants_k(alg.K, alg.alpha, 0)
    assert center == dense_center_basis(alg.K)
    assert center is twisted_invariants_k(alg.K, alg.alpha, 0)


def test_coefficient_checks_match(case):
    alg = case[0]
    assert algebra_validate(alg.K) == triple_loop_validate(alg.K)
    assert alg.alpha.validate() == pair_loop_validate(alg.alpha)


def test_mult_matrices_match(case):
    K = case[0].K
    rng = random.Random(8)
    elems = [K.basis_elem(i) for i in range(K.dim)]
    elems += [vector(K.field, K.dim, rng, d) for d in DENSITIES]
    for u in elems:
        assert K.left_mult_matrix(u) == dense_left_mult_matrix(K, u)
        assert K.right_mult_matrix(u) == dense_right_mult_matrix(K, u)
    basis = elems[: K.dim]
    right, left = K.actions
    assert [R.key() for R in right] == [dense_right_mult_matrix(K, e).key() for e in basis]
    assert [L.key() for L in left] == [dense_left_mult_matrix(K, e).key() for e in basis]


def test_regular_bimodule_matches(case):
    alg = case[0]
    M, D = Bimodule.regular(alg), dense_regular(Bimodule, alg)
    assert (list(M.L_k), list(M.R_k), M.Lx, M.Rx) == (D.L_k, D.R_k, D.Lx, D.Rx)


def test_compiled_table_matches(case):
    alg = case[0]
    old = copy.copy(alg)
    dense_compile(old)
    assert old.mul_table is not alg.mul_table
    assert alg.mul_table == old.mul_table
    assert [[alg.xpow(m).k_coeff(j) for j in range(alg.n)] for m in range(2 * alg.n + 1)] == old.xpow_nf


def test_a_mul_matches(case):
    alg = case[0]
    rng = random.Random(6)
    elems = [alg.one, alg.x] + [AElem(alg, vector(alg.field, alg.adim, rng, d)) for d in DENSITIES for _ in range(2)]
    for a in elems:
        for b in elems:
            assert alg.a_mul(a, b) == dense_a_mul(alg, a, b)


def test_d_ambient_and_solves_match(case):
    alg, C = case
    rng = random.Random(7)
    for r in (1, 2, 3):
        built = r <= C.max_degree
        vectors = [vector(alg.field, C.M.dim, rng, d) for d in DENSITIES]
        vectors += C.bases[r - 1].columns_list() if built else []
        for v in vectors:
            w = C.d_ambient(r, v)
            assert w == dense_d_ambient(C.M, r, v), f"degree {r}"
            if built:
                expected = dense_solve(LinSolver(C.bases[r]), w)
                if expected is None:
                    with pytest.raises(CohomologyError, match=f"degree-{r} cochain space"):
                        C.to_sub(r, w)
                else:
                    assert C.to_sub(r, w) == expected


def sparse(v: tuple) -> dict:
    return {i: x for i, x in enumerate(v) if not x.is_zero()}


def class_reads(H, v: tuple) -> list[tuple]:
    """``class_coords`` of v as a tuple and as a sparse vector, each as
    ("coords", result) or ("raised", error type, message)."""
    out = []
    for w in (v, sparse(v)):
        try:
            out.append(("coords", H.class_coords(w)))
        except (CohomologyError, LinalgError) as exc:
            out.append(("raised", type(exc), str(exc)))
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_sparse_class_coords_match_the_dense_route(name):
    """Class coordinates of a sparse vector equal those of its dense tuple on
    random cocycles, shifted by random coboundaries too; a vector outside
    C^r and a cochain off the cocycles raise the same CohomologyError either
    way; a dense tuple of the wrong length and a sparse index outside dim M
    raise LinalgError."""
    alg = CASES[f"cyclic:{name}"]()
    C = build_small_complex(alg, Bimodule.regular(alg), 5)
    F, rng = alg.field, random.Random(12)
    seen = set()
    for r in range(4):
        H = cohomology_group(C, r)
        for d in DENSITIES:
            z = H.kernel.matvec(vector(F, H.kernel.cols, rng, d))
            if r:
                z = dense_vadd(z, C.dmats[r].matvec(vector(F, C.dim_cochain(r - 1), rng, d)))
            dense, sparse_read = class_reads(H, C.to_ambient(r, z))
            assert dense == sparse_read and dense[0] == "coords" and len(dense[1]) == H.dim
            for v in (vector(F, C.M.dim, rng, d), C.to_ambient(r, vector(F, C.dim_cochain(r), rng, d))):
                dense, sparse_read = class_reads(H, v)
                assert dense == sparse_read
                if dense[0] == "raised":
                    assert dense[1] is CohomologyError
                    seen.add(dense[2].split("degree-")[0])
        for bad in (C.to_ambient(r, (F.zero,) * C.dim_cochain(r))[:-1], (F.one,) * (C.M.dim + 1)):
            with pytest.raises(LinalgError):
                H.class_coords(bad)
        for index in (-1, C.M.dim):
            with pytest.raises(LinalgError, match=f"index {index} outside"):
                H.class_coords({index: F.one})
    assert seen == {"vector is not a cocycle", "vector is not in the "}


# -- one free-row read per distinct basis --------------------------------------


def test_equal_bases_share_one_solver(gh4_u3):
    """Degrees with one cached basis share one free-row read of it."""
    C = gh4_u3[2]
    assert len(C.free_rows) == 8
    assert len({id(F) for F in C.free_rows}) == 4
    for r in range(8):
        assert C.free_rows[r].B is C.bases[r]
        for s in range(8):
            assert (C.free_rows[r] is C.free_rows[s]) == (C.bases[r] is C.bases[s])


# -- the nonzero coordinates of elements of A and tensors ----------------------


def carries_its_support(a: AElem) -> bool:
    """The nonzero coordinates a stores are exactly those of its coords."""
    return a.nz == payload_row(dict(enumerate(a.coords)))


def test_elements_carry_their_support(case):
    """Every builder of A and every operation on its elements stores the
    nonzero coordinates of the dense ones; an element given by its coords
    keeps their nonzero entries.  The operations match the dense loops."""
    alg = case[0]
    F, K = alg.field, alg.K
    rng = random.Random(9)
    built = [alg.basis_vector(i) for i in range(alg.adim)] + [alg.zero_elem(), alg.one, alg.x]
    built += [alg.k_embed(K.basis_elem(b)) for b in range(K.dim)]
    built += [alg.monomial(vector(F, K.dim, rng, d), a) for d in DENSITIES for a in range(alg.n)]
    built += [alg.xpow(m) for m in range(2 * alg.n + 2)]
    given = [AElem(alg, vector(F, alg.adim, rng, d)) for d in DENSITIES]
    for a in built:
        assert carries_its_support(a)
    for bad in (lambda: alg.basis_vector(-1), lambda: alg.monomial(K.unit, alg.n)):
        with pytest.raises(IndexError):
            bad()
    assert all(carries_its_support(a) for a in given)
    sample = given + rng.sample(built, 6)
    scalars = (F.zero, F.one, -F.one, nonzero(F, rng))
    for a in sample:
        results = [-a, a - a] + [s * a for s in scalars] + [a * s for s in scalars]
        assert (-a).coords == tuple(-x for x in a.coords) and (a - a).is_zero()
        assert all((s * a).coords == (a * s).coords == dense_vscale(s, a.coords) for s in scalars)
        for b in sample:
            results += [a + b, a - b, a * b]
            assert (a + b).coords == dense_vadd(a.coords, b.coords)
            assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
            assert a * b == dense_a_mul(alg, a, b)
        assert all(carries_its_support(r) for r in results)


def test_tensor_sums_match_entrywise(case):
    """`apply_d` and `apply_s` sum the columns of a tensor into one dict; they
    equal the entrywise columns summed entry by entry, and the left factors
    of the tensor carry their nonzero coordinates."""
    alg = case[0]
    F, res, rng = alg.field, Resolution(alg, 3), random.Random(10)
    routes = ((res.apply_d, entrywise_d_column, res.twist, lambda r: res.twist(r - 1)),
              (res.apply_s, entrywise_s_column, lambda r: res.twist(r - 1), res.twist))
    for r in (1, 2, 3):
        for density in (0.0, 0.1, 0.4):
            for apply, column, source, target in routes:
                t = TensorElem(alg, source(r), payload_row(dict(enumerate(vector(F, res.tdim, rng, density)))))
                want: dict = {}
                for flat, s in scalar_row(F, t.coords).items():
                    for i, v in scalar_row(F, column(res, r, flat).coords).items():
                        want[i] = want.get(i, F.zero) + s * v
                assert apply(r, t) == TensorElem(alg, target(r), payload_row(want))
                blocks = t._blocks()
                assert list(blocks) == t.powers()
                for c, u in blocks.items():
                    assert u == t.left_factor(c) and carries_its_support(u)


# -- the unit shortcut of extension-field products -----------------------------

# Q(cbrt 2) is generated by a root of t^3 - 1/2, so its reduction table has
# the common denominator 2.
EXTENSIONS = {
    "QQ(i)": (QQ, [1, 0, 1], "i"),
    "QQ(cbrt2)": (QQ, [Fraction(-1, 2), 0, 0, 1], "c"),
    "GF9": (prime_field(3), [1, 0, 1], "t"),
    "GF16": (prime_field(2), [1, 1, 0, 0, 1], "t"),
}


def unit_shortcut_property():
    """A derandomized hypothesis test: on each field, products of elements
    drawn with 0, 1, -1 and other units often equal the full product and
    the product of the legacy field on the same minpoly."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = {}
    for name, (base, minpoly, symbol) in EXTENSIONS.items():
        F = extension_field(base, minpoly, symbol)
        special = [F.zero, F.one, -F.one, F.gen, -F.gen, F.gen.inv()]
        coord = st.integers(0, F.char - 1) if F.char else st.fractions(max_denominator=6)
        drawn = st.lists(coord, min_size=F.deg, max_size=F.deg).map(F.scalar)
        fields[name] = F, LegacyExtensionField(base, minpoly, symbol), st.one_of(st.sampled_from(special), drawn)
    assert fields["QQ(cbrt2)"][0]._tden > 1

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(fields)), st.data())
    def check(name, data):
        F, L, elements = fields[name]
        a, b = data.draw(elements), data.draw(elements)
        legacy = Scalar(L, legacy_payload(F, a)) * Scalar(L, legacy_payload(F, b))
        got = a * b
        assert (got.v, legacy_payload(F, got)) == (full_product(F, a.v, b.v), legacy.v)

    return check


def test_unit_shortcut_matches_full_product():
    unit_shortcut_property()()


def test_seeded_wrong_unit_shortcut_is_caught(monkeypatch):
    """The shortcut handing back the unit factor instead of the other one
    turns the property red.  Q(i) has its own `_mul` now; Q(cbrt 2), GF9
    and GF16 still reach this one, and hypothesis reports GF16 (1 * 0)."""
    full = ExtensionField._mul
    monkeypatch.setattr(ExtensionField, "_mul", lambda self, a, b: a if a == self._one_v else full(self, a, b))
    with pytest.raises(AssertionError):
        unit_shortcut_property()()


# -- the base-field shortcut of extension-field inverses -----------------------


def base_inverse_property():
    """A derandomized hypothesis test: on each field, the inverse of a
    nonzero element, base-field values (negative and non-integral ones over
    QQ) drawn often, equals the inverse by fraction-free elimination.  On
    Q(i) this compares the conjugate formula of the degree-2 class."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = {}
    for name, (base, minpoly, symbol) in EXTENSIONS.items():
        F = extension_field(base, minpoly, symbol)
        coord = st.integers(0, F.char - 1) if F.char else st.fractions(max_denominator=6)
        in_base = coord.map(lambda c, F=F: F.scalar([c]))
        drawn = st.lists(coord, min_size=F.deg, max_size=F.deg).map(F.scalar)
        special = [F.one, -F.one, F.from_int(2), -F.from_int(2), F.gen, F.gen.inv()]
        elements = st.one_of(st.sampled_from(special), in_base, drawn)
        fields[name] = F, elements.filter(lambda a: not a.is_zero())
    assert fields["QQ(cbrt2)"][0]._tden > 1

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(fields)), st.data())
    def check(name, data):
        F, elements = fields[name]
        a = data.draw(elements)
        assert a.inv().v == F._bareiss_inv(a.v)

    return check


def test_base_field_inverse_matches_elimination():
    base_inverse_property()()


def test_seeded_wrong_sign_in_base_inverse_is_caught(monkeypatch):
    """The shortcut dropping the sign of a negative base-field value turns the
    property red.  Q(i) has its own `_inv` now, and over GF(p) no coordinate
    is negative, so Q(cbrt 2) is the field that catches it."""

    def unsigned(self, a):
        nums, den = a
        if nums[0] and not any(nums[1:]):
            return self._normal((den,) + self._pad, abs(nums[0]))
        return self._bareiss_inv(a)

    monkeypatch.setattr(ExtensionField, "_inv", unsigned)
    with pytest.raises(AssertionError):
        base_inverse_property()()


# -- the payload loops against the Scalar-level loops --------------------------

# the nonzero entries a vector or table is drawn with
KINDS = ("1", "-1", "random")


def entry(F, rng, kind):
    return F.one if kind == "1" else -F.one if kind == "-1" else nonzero(F, rng)


def drawn(F, n, rng, density, kind):
    """A vector of length n whose nonzero entries, a share ``density`` of
    them, are of the given kind."""
    return tuple(entry(F, rng, kind) if rng.random() < density else F.zero for _ in range(n))


def payloads(v: tuple) -> dict:
    """The nonzero entries of v as {index: payload}."""
    return {j: x.v for j, x in support(v)}


def constraint_actions(F, n, rng, density, kind):
    """Two right and two left actions whose rows past the third are zero, so
    their twisted kernel is at least n - 6 dimensional, and a twist whose
    nonzero entries are of the given kind."""
    def action():
        return Mat(F, [drawn(F, n, rng, density, kind) if i < 3 else (F.zero,) * n for i in range(n)], n)
    return [action(), action()], [action(), action()], Mat(F, [drawn(F, 2, rng, density, kind) for _ in range(2)], 2)


def payload_loops_agree(F, seed):
    """`row_sum`, `_accumulate`, `Mat.matvec`, `table_mul_into`, the echelon
    behind `rref` and `kernel_basis` (whose `_reduce` and `add_payloads` run
    on `_accumulate`) and the constraint rows of `twisted_kernel`, read
    through their modules, equal the Scalar-level loops on random vectors of
    every density whose coefficients and entries are 1, -1 or random; sums
    that accumulate on one index and sums that cancel to zero are included,
    and every payload row returned holds no zero payload."""
    rng, n, zv = random.Random(seed), 6, F.zero.v
    for density, (ka, kb) in itertools.product(DENSITIES, itertools.product(KINDS, repeat=2)):
        a, b = drawn(F, n, rng, density, ka), drawn(F, n, rng, density, kb)
        ca, cb = entry(F, rng, ka), entry(F, rng, kb)
        terms = [(ca, dict(support(a))), (cb, support(b)), (cb, support(a)), (-cb, dict(support(b)))]
        got = linalg.row_sum(F, [(c.v, payload_row(dict(v))) for c, v in terms])
        assert scalar_row(F, got) == scalar_combine(terms), (density, ka, kb)
        assert zv not in got.values()
        out, ref = payloads(a), dict(support(a))
        linalg._accumulate(out, cb.v, payloads(b).items(), F)
        scalar_accumulate(ref, cb, support(b), zv)
        assert scalar_row(F, out) == ref and zv not in out.values()
        linalg._accumulate(out, (-cb).v, payloads(b).items(), F)
        assert out == payloads(a)
        A = Mat(F, [drawn(F, n, rng, density, kb) for _ in range(4)] + [b, a], n)
        assert A.matvec(a) == scalar_matvec(A, a)
        assert linalg.rref(A) == dense_rref(A) and linalg.kernel_basis(A) == dense_kernel_basis(A)
        right, left, twist = constraint_actions(F, n, rng, density, kb)
        for L, T in ((left, twist), (right, Mat.identity(F, 2))):
            assert kalgebra.twisted_kernel(F, n, right, L, T, None) == all_rows_twisted_kernel(F, n, right, L, T)
        table = {(i, j): [(rng.randrange(n), entry(F, rng, kb)) for _ in range(rng.randint(1, 3))]
                 for i in range(n) for j in range(n) if rng.random() < 0.5}
        got = kalgebra.table_mul_into({}, {ij: [(k, x.v) for k, x in t] for ij, t in table.items()}, F,
                                      payloads(a).items(), payloads(b).items())
        assert scalar_row(F, got) == scalar_table_mul(table, support(a), support(b))
        assert zv not in got.values()


@pytest.mark.parametrize("name", FIELDS)
def test_payload_loops_match_scalar_loops(name):
    payload_loops_agree(FIELDS[name], 11)


# Each loop with a unit shortcut that overwrites the running sum instead of
# adding to it; the constraint rows of `twisted_kernel` are `row_sum` as
# kalgebra reads it, and `matvec` runs on `Mat.apply`.
OVERWRITING_UNIT = {  # name -> (owner, attribute, its function, old source, new source)
    "row_sum": (linalg, "row_sum", linalg.row_sum, "if p is not None:", "if p is not None and not unit:"),
    "_accumulate": (linalg, "_accumulate", linalg._accumulate, "if p is not None:", "if p is not None and not unit:"),
    "matvec": (Mat, "apply", Mat.apply, "acc = t if acc is None else", "acc = t if acc is None or a == one else"),
    "table_mul_into": (kalgebra, "table_mul_into", kalgebra.table_mul_into, "if p is not None:",
                       "if p is not None and not unit:"),
    "twisted_kernel": (kalgebra, "row_sum", linalg.row_sum, "if p is not None:", "if p is not None and not unit:"),
}


@pytest.mark.parametrize("loop", OVERWRITING_UNIT)
def test_seeded_overwriting_unit_shortcut_is_caught(monkeypatch, loop):
    owner, name, fn, old, new = OVERWRITING_UNIT[loop]
    monkeypatch.setattr(owner, name, mutant(fn, old, new))
    with pytest.raises(AssertionError):
        for F in FIELDS.values():
            payload_loops_agree(F, 11)


def cancelled_sums_property():
    """A derandomized hypothesis test, on QQ, GF(7), QQ(i) and GF(9), with
    cancellations forced: `row_sum` of c r, other terms and -c r, and of
    c r and -c r; `table_mul_into` of u v where e_i2 and e_i have the same
    products and u_i2 = -u_i, and of u v then (-u) v into the same row.
    Each stores no zero payload and equals `scalar_combine` /
    `scalar_table_mul`; the sums of a term and its negative are empty."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    n = 5
    index = st.integers(0, n - 1)

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True,
                         report_multiple_bugs=False)
    @hypothesis.given(st.sampled_from(sorted(FIELDS)), st.data())
    def check(name, data):
        F = FIELDS[name]
        zv = F.zero.v
        random_elem = st.integers(0, 2**16).map(lambda seed: nonzero(F, random.Random(seed)))
        elem = st.one_of(st.sampled_from([F.one, -F.one]), random_elem)
        row = st.dictionaries(index, elem, max_size=n)
        c, r = data.draw(elem), data.draw(row)
        for terms in ([(c, r), *data.draw(st.lists(st.tuples(elem, row), max_size=3)), (-c, r)], [(c, r), (-c, r)]):
            got = linalg.row_sum(F, [(x.v, payload_row(v)) for x, v in terms])
            assert zv not in got.values() and scalar_row(F, got) == scalar_combine(terms)
        assert linalg.row_sum(F, [(c.v, payload_row(r)), ((-c).v, payload_row(r))]) == {}
        products = st.lists(st.tuples(index, elem), min_size=1, max_size=3)
        table = data.draw(st.dictionaries(st.tuples(index, index), products))
        u, v = data.draw(row), data.draw(row)
        i, i2 = data.draw(st.permutations(range(n)))[:2]
        for j in range(n):  # e_i2 e_j = e_i e_j
            table.pop((i2, j), None)
            if (i, j) in table:
                table[i2, j] = table[i, j]
        if i in u:
            u[i2] = -u[i]
        payload_table = {ij: [(k, x.v) for k, x in terms] for ij, terms in table.items()}
        got = kalgebra.table_mul_into({}, payload_table, F, payload_row(u).items(), payload_row(v).items())
        assert zv not in got.values()
        assert scalar_row(F, got) == scalar_table_mul(table, u.items(), v.items())
        kalgebra.table_mul_into(got, payload_table, F, [(k, F._neg(x)) for k, x in payload_row(u).items()],
                                payload_row(v).items())
        assert got == {}

    return check


def test_cancelled_sums_are_removed():
    cancelled_sums_property()()


@pytest.mark.parametrize("loop", ["row_sum", "table_mul_into"])
def test_seeded_kept_zero_sum_is_caught(monkeypatch, loop):
    """The `del acc[k]` branch dropped: a cancelled sum is kept as a zero
    payload."""
    owner = linalg if loop == "row_sum" else kalgebra
    monkeypatch.setattr(owner, loop, mutant(getattr(owner, loop), "del acc[k]", "acc[k] = t"))
    with pytest.raises(AssertionError):
        cancelled_sums_property()()


def test_twisted_kernel_boxes_only_its_output(monkeypatch):
    """On the regular bimodule of gh4(3), its actions built first, one
    `twisted_kernel` call constructs no Scalar: its basis is a matrix of
    payload rows, and it is the basis of every constraint."""
    alg = gh4_instance(3)[0]
    M = Bimodule.regular(alg)
    R_k, L_k = list(M.R_k), list(M.L_k)
    boxes, init = [], Scalar.__init__

    def counting(self, field, v):
        boxes.append(v)
        init(self, field, v)

    for r in range(4):
        twist = alg.alpha.power_matrix(r)
        with monkeypatch.context() as m:
            m.setattr(Scalar, "__init__", counting)
            basis = kalgebra.twisted_kernel(M.field, M.dim, R_k, L_k, twist, alg.alpha.generators)
        assert boxes == [] and basis.cols > 0, r
        assert basis == all_rows_twisted_kernel(M.field, M.dim, R_k, L_k, twist)
        boxes.clear()


# -- the contraction check on stored columns -----------------------------------


def test_contraction_check_matches_tensor_route(case):
    """On every canned instance and demo spec (sweedler_bad fails in degree
    2), through D = 6 and D = 9."""
    alg = case[0]
    for top in (6, 9):
        assert Resolution(alg, top).contraction_check() == tensor_contraction_check(Resolution(alg, top))


def with_d_d_break(res, r, flat, col):
    """d'_3 at the first basis tensor of block 1 moved off the kernel of
    d'_2 by adding e_0; on gh4_u3 (n = 2) no sigma column reads that flat, so
    only d.d sees it."""
    if r == 3 and flat == res.alg.adim:
        return col + TensorElem(res.alg, col.twist, {0: res.alg.field.one.v})
    return col


BROKEN_COLUMNS = {  # name -> (d' or sigma, wrap, first failure on gh4_u3)
    "sigma doubled": ("s", lambda res, r, flat, col: col + col if r % 2 == 0 and flat == res.alg.adim else col,
                      "homotopy identity fails in degree 1 at basis {adim}"),
    "d' negated": ("d", lambda res, r, flat, col: -col if r == 2 and flat == 1 else col,
                   "homotopy identity fails in degree 1 at basis {after}"),
    "d.d broken": ("d", with_d_d_break, "d.d is nonzero in degree 3 at basis {adim}"),
}


@pytest.mark.parametrize("name", BROKEN_COLUMNS)
def test_contraction_check_reports_broken_columns_as_tensor_route(gh4_u3, monkeypatch, name):
    which, wrap, failure = BROKEN_COLUMNS[name]
    alg = gh4_u3[0]
    mutate_columns(monkeypatch, which, wrap)
    got = Resolution(alg, 6).contraction_check()
    assert got == tensor_contraction_check(Resolution(alg, 6))
    assert got.failures == (failure.format(adim=alg.adim, after=alg.adim + 1),)
