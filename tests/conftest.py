"""Helpers shared by more than one test module or called only by tests, and
the computations that faster code replaced, kept verbatim as oracles for it."""

import functools
import inspect
import itertools
import logging
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from orecohom import closedforms as cf
from orecohom import instances
from orecohom.cohomology import (
    CohomologyError,
    Bimodule,
    SmallComplex,
    build_small_complex,
    classes_equal,
    cohomology_group,
    twisted_invariants,
)
from orecohom.fields import (
    QQ,
    ExtensionField,
    Field,
    FieldError,
    PrimeField,
    RationalField,
    Scalar,
    _certify_irreducible,
    extension_field,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_scale,
    poly_trim,
    prime_field,
)
from orecohom.instances import gh4_instance
from orecohom.kalgebra import (
    AlgebraError,
    AlgebraK,
    Endo,
    ValidationReport,
    algebra_validate,
    char_power,
    character_from_values,
    character_order,
    cyclic_group,
    endo_from_character,
    group_algebra,
    identity_endo,
    quaternion_algebra,
    twisted_invariants_k,
)
from orecohom.linalg import (
    EchelonTracker,
    LinalgError,
    LinSolver,
    Mat,
    intersect_spans,
    kernel_basis,
    quotient_basis,
    rank,
    dense,
    payloads,
    row_sum,
    span_equal,
)
from orecohom.monogenic import (
    AElem,
    MonogenicAlgebra,
    MonogenicError,
    Resolution,
    twist_exponent,
)
from orecohom.products import (
    ProductsError,
    SmallCochain,
    phi_closed,
    psi_terms,
)
from orecohom.specio import load_instance

from bar_reference import (
    BarCochain,
    TensorElem,
    _sign,
    all_bar_indices,
    apply_d,
    apply_s,
    canonical_k,
    d_column,
    leftmul,
    phi_eval,
    psi_eval,
    rightmul_xpow,
)

SPECS = sorted((Path(__file__).resolve().parent.parent / "demos" / "specs").glob("*.json"))


def quaternion_half_turn():
    F, cos, sin, ch, sh, fc = instances.quaternion_half_turn_data()
    K, alpha = quaternion_algebra(F, cos, sin, ch, sh)
    return MonogenicAlgebra(K, alpha, fc)


def rank_one(data):
    """The group-algebra twist of a rank-one data set, with f = x^n."""
    F, G, chi, _, n = data[:5]
    K = group_algebra(G, F)
    return MonogenicAlgebra(K, endo_from_character(K, chi), [{}] * n)


# The canned instances of `instances.py`; the rank-one data sets with f = x^n.
CANNED = {
    "sweedler": lambda: instances.sweedler()[0],
    "sweedler_invertible": lambda: instances.sweedler_invertible()[0],
    "taft37": lambda: instances.taft(3, 7, 2)[0],
    "c4_sign": lambda: instances.c4_sign()[0],
    "gh4_u2": lambda: instances.gh4_instance(2)[0],
    "triple_shift": instances.qq_triple_shift,
    "pair_swap": instances.qq_pair_swap,
    "line_cubic": instances.line_cubic,
    "untwisted_square": instances.untwisted_square,
    "gf3_cubic": instances.gf3_cubic,
    "rank_one_case1": lambda: rank_one(instances.rank_one_case1_data()),
    "rank_one_case2": lambda: rank_one(instances.rank_one_case2_data()),
    "rank_one_broken": lambda: rank_one(instances.rank_one_broken_data()),
    "quaternion_half_turn": quaternion_half_turn,
}



def twisted_cyclic(F, order, root):
    """The cyclic group algebra over F twisted by g -> root, with f = x^order - 1
    (admissible since root^order = 1), so the even differential reads a
    nonzero constant term."""
    G = cyclic_group(order)
    K = group_algebra(G, F)
    alpha = endo_from_character(K, character_from_values(G, F, {"g": root}))
    return MonogenicAlgebra(K, alpha, [{}] * (order - 1) + [{"1": -1}])


def linear_g_coefficient():
    """QQ[C2] with the identity twist and f = x^2 + g x: an admissible f whose
    x^1 coefficient is not a scalar, so d' and its operator read L(g)."""
    K = group_algebra(cyclic_group(2), QQ)
    return MonogenicAlgebra(K, identity_endo(K), [{"g": 1}, {}])


def quaternion_rotated():
    """The quaternions over QQ rotated by the angle with cos = -7/25 and
    sin = 24/25 (half-angle 3/5, 4/5), with f = x^2: alpha(i) and alpha(j)
    have two terms each."""
    F = QQ
    K, alpha = quaternion_algebra(F, Fraction(-7, 25), Fraction(24, 25), Fraction(3, 5), Fraction(4, 5))
    return MonogenicAlgebra(K, alpha, [{}, {}])


def sqrt5_galois():
    """QQ(sqrt 5) = QQ<1, t> with t t = 1 + t, twisted by its Galois map
    t -> 1 - t, with f = x^2 - 1: t t and alpha(t) have two terms each.  A is
    the split cyclic algebra (QQ(sqrt 5)/QQ, alpha, 1), isomorphic to
    M_2(QQ)."""
    F = QQ
    o, z = F.one, F.zero
    quads = [(0, 0, 0, o), (0, 1, 1, o), (1, 0, 1, o), (1, 1, 0, o), (1, 1, 1, o)]
    K = AlgebraK.from_structure_constants(F, 2, ["1", "t"], (o, z), quads)
    return MonogenicAlgebra(K, Endo(K, Mat(F, [[o, o], [z, -o]])), [{}, {"1": -1}])


_QI = instances.gaussian_rationals()
_GF9 = extension_field(prime_field(3), [1, 0, 1], "t")

# The canned instances, every demo spec (unchecked: sweedler_bad is not
# admissible), twisted cyclic group algebras over QQ, GF(7), QQ(i), GF(9), an
# admissible f with a non-scalar middle coefficient, and two instances whose
# compiled table reads K-products of more than one term.
CASES = {
    **CANNED,
    **{f"spec:{p.stem}": (lambda p=p: load_instance(str(p)).algebra(check=False)) for p in SPECS},
    "cyclic:QQ": lambda: twisted_cyclic(QQ, 2, -1),
    "cyclic:GF7": lambda: twisted_cyclic(prime_field(7), 3, 2),
    "cyclic:QQ(i)": lambda: twisted_cyclic(_QI, 4, _QI.gen),
    "cyclic:GF9": lambda: twisted_cyclic(_GF9, 4, _GF9.gen),
    "linear-g": linear_g_coefficient,
    "quaternion_rotated": quaternion_rotated,
    "sqrt5_galois": sqrt5_galois,
}


def admissible_coefficients(K, alpha, i: int) -> Mat:
    """Basis (as columns) of the values lambda_i may take in an admissible f:
    alpha-fixed with lambda_i mu = alpha^i(mu) lambda_i on a K-basis, the two
    rules `validate_f` enforces.  Both are linear in lambda_i, so the space is
    one exact kernel."""

    def block_rows(condition):
        cols = [dense(K.field, condition(K.basis_elem(b)), K.dim) for b in range(K.dim)]
        return [[cols[b][r] for b in range(K.dim)] for r in range(K.dim)]

    rows = block_rows(lambda v: k_add(K.field, alpha.apply(v), v, -1))
    for j in range(K.dim):
        mu = K.basis_elem(j)
        amu = alpha.apply_power(i, mu)
        rows += block_rows(
            lambda v, mu=mu, amu=amu: k_add(K.field, K.kmul(v, mu), K.kmul(amu, v), -1)
        )
    return kernel_basis(Mat(K.field, rows))


@pytest.fixture
def admissible_space():
    return admissible_coefficients


@pytest.fixture(scope="session")
def gh4_u3():
    """The order-12 two-generator instance, its character and its complex
    through degree 7: built once and shared by every module that uses it."""
    alg, chi = gh4_instance(3)
    return alg, chi, build_small_complex(alg, Bimodule.regular(alg), 7)


def iterative_invariants(M, r: int) -> Mat:
    """Basis (columns) of M^{alpha^r} = {m : m lambda = alpha^r(lambda) m},
    computed by iteratively restricting to the kernel of each basis constraint.

    The dense computation `twisted_invariants` used before its stacked sparse
    kernel, kept verbatim as an oracle for it."""
    alg = M.alg
    field = M.field
    basis = Mat.identity(field, M.dim)
    for b in range(alg.K.dim):
        if basis.cols == 0:
            break
        lam = alg.K.basis_elem(b)
        con = M.R_k[b].add(M.L_elem(alg.alpha.apply_power(r, lam)).scale(-field.one))
        restricted = con.matmul(basis)
        ker = kernel_basis(restricted)
        basis = basis.matmul(ker)
    return basis


def stacked_invariants_k(K, alpha, r: int) -> Mat:
    """Basis of {u in K : u b = alpha^r(b) u for all b}, as columns.

    The dense `twisted_invariants_k` from before the shared sparse kernel,
    kept verbatim as an oracle for it."""
    rows = []
    for i in range(K.dim):
        e = K.basis_elem(i)
        R = K.right_mult_matrix(e)
        L = K.left_mult_matrix(alpha.apply_power(r, e))
        for r1, r2 in zip(R.data, L.data):
            rows.append([a - b for a, b in zip(r1, r2)])
    return kernel_basis(Mat(K.field, rows, K.dim))


@pytest.fixture
def iterative_oracle():
    return iterative_invariants


@pytest.fixture
def stacked_oracle_k():
    return stacked_invariants_k


# -- the dense inner loops the sparse ones replaced ----------------------------


def dense_is_zero(field, a) -> bool:
    """Each field's payload zero test before it read the payload directly."""
    if isinstance(field, (RationalField, PrimeField)):
        return a == 0
    if isinstance(field, ExtensionField):
        return all(dense_is_zero(field.base, c) for c in a)
    raise TypeError(field)


def legacy_payload(field, x):
    """The payload x had before every extension moved to integers over one
    denominator: a tuple of base payloads, Fractions over QQ and residues
    over GF(p).  Other fields kept theirs."""
    if isinstance(field, ExtensionField):
        nums, den = x.v
        if field.char:
            return nums
        return tuple(Fraction(n, den) for n in nums)
    return x.v


def full_product(F, a, b):
    """The schoolbook product of two payloads of F, folded and normalised,
    with no shortcut."""
    (an, ad), (bn, bd) = a, b
    raw = [0] * (2 * F.deg - 1)
    for i, x in enumerate(an):
        for j, y in enumerate(bn):
            raw[i + j] += x * y
    return F._normal(F._fold(raw), ad * bd * F._tden)


def boxed_encode(self, s):
    """`ExtensionField.encode` before it read the payload over QQ: every
    coordinate boxed as a base-field Scalar and written by the base field."""
    v = self.scalar(s).v
    return [self.base.encode(Scalar(self.base, c)) for c in self._coords(v)]


def dense_vadd(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def k_add(field, u: dict, v: dict, sign: int = 1) -> dict:
    """u + v, or u - v for sign -1, for elements of K (payload rows)."""
    one = field.one.v
    return row_sum(field, [(one, u), (one if sign > 0 else field._neg(one), v)])


def k_neg(field, u: dict) -> dict:
    return {b: field._neg(p) for b, p in u.items()}


def support(v: tuple) -> list[tuple[int, Scalar]]:
    """`linalg.support`, a read of the nonzero entries of a dense vector as
    (index, entry) pairs, in index order, from before K's elements became
    payload rows."""
    zv = v[0].field.zero.v if v else None
    return [(j, x) for j, x in enumerate(v) if x.v != zv]


def scalar_row(field, row: dict) -> dict:
    """A payload row {index: payload} boxed as {index: Scalar of field}."""
    return {k: Scalar(field, p) for k, p in row.items()}


def payload_row(row: dict) -> dict:
    """A sparse vector {index: Scalar} as the payload row of its nonzero entries."""
    return {k: s.v for k, s in row.items() if not s.is_zero()}


def scalar_table(field, table: dict) -> dict:
    """Structure constants {(i, j): [(k, payload)]} with each payload boxed."""
    return {ij: [(k, Scalar(field, p)) for k, p in terms] for ij, terms in table.items()}


def dense_vscale(s, a: tuple) -> tuple:
    return tuple(s * x for x in a)


def dense_matvec(self, v: tuple) -> tuple:
    """`Mat.matvec` before it read the support of v once."""
    if len(v) != self.cols:
        raise LinalgError("shape mismatch in matvec")
    out = []
    for row in self.data:
        s = self.field.zero
        for a, x in zip(row, v):
            if not a.is_zero() and not x.is_zero():
                s = s + a * x
        out.append(s)
    return tuple(out)


def dense_matmul(self, other):
    """`Mat.matmul` before it read the support of each row once."""
    if self.cols != other.rows:
        raise LinalgError("shape mismatch in matmul")
    cols = other.transpose().data
    return Mat(
        self.field,
        [
            [
                sum(
                    (a * b for a, b in zip(row, col) if not a.is_zero()),
                    self.field.zero,
                )
                for col in cols
            ]
            for row in self.data
        ],
        other.cols,
    )


def dense_solve(self, b: tuple) -> tuple | None:
    """`LinSolver.solve` before it read the support of b once."""
    if len(b) != self.M.rows:
        raise LinalgError("shape mismatch in solve")
    field = self.M.field
    y = []
    for sparse in self.E:
        row = [Scalar(field, sparse[j]) if j in sparse else field.zero for j in range(self.M.rows)]
        s = field.zero
        for e, x in zip(row, b):
            if not e.is_zero() and not x.is_zero():
                s = s + e * x
        y.append(s)
    for i in range(self.rank, self.M.rows):
        if not y[i].is_zero():
            return None
    x = [field.zero] * self.M.cols
    for i, c in enumerate(self.pivots):
        x[c] = y[i]
    return tuple(x)


def dense_kmul(self, u: tuple, v: tuple) -> tuple:
    """`AlgebraK.kmul` before it read the support of v once (it read the
    structure constants through the `mul_basis` accessor, now gone)."""
    out = [self.field.zero] * self.dim
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if b.is_zero():
                continue
            ab = a * b
            for k, s in self.mul_table.get((i, j), []):
                out[k] = out[k] + ab * Scalar(self.field, s)
    return tuple(out)


# -- K's elements as tuples of Scalars ------------------------------------------
# The routes that read K's elements before they became payload rows, kept as
# they were but for the products and twists in K, which run on the tuples
# through `dense_kmul` and `Mat.matvec`.


def tuple_basis(K, b: int) -> tuple:
    return dense(K.field, K.basis_elem(b), K.dim)


def tuple_validate_f(K, alpha, f_coeffs: list) -> ValidationReport:
    """`monogenic.validate_f` when K's elements were tuples: f_coeffs lists
    lambda_1 .. lambda_n as tuples of Scalars."""
    failures = []
    n = len(f_coeffs)
    if n < 2:
        return ValidationReport(False, ("degree must be at least 2",))
    lam = [tuple(c) for c in f_coeffs]
    for i, li in enumerate(lam, start=1):
        if alpha.matrix.matvec(li) != li:
            failures.append(f"coefficient {i} is not alpha-fixed")
    for i, li in enumerate(lam, start=1):
        if all(c.is_zero() for c in li):
            continue
        for b in range(K.dim):
            mu = tuple_basis(K, b)
            if dense_kmul(K, li, mu) != dense_kmul(K, alpha.power_matrix(i).matvec(mu), li):
                failures.append(
                    f"coefficient {i} fails the commutation rule at basis {b}"
                )
                return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def tuple_witness_check(alg: MonogenicAlgebra, u: tuple) -> tuple:
    """`closedforms.witness_check` when K's elements were tuples, on a tuple
    u: the fields (value, central, power_fixed, differences_regular) of its
    `WitnessData`."""
    K, alpha, n = alg.K, alg.alpha, alg.n
    central = all(
        dense_kmul(K, u, tuple_basis(K, b)) == dense_kmul(K, tuple_basis(K, b), u)
        for b in range(K.dim)
    )
    power_fixed = alpha.power_matrix(n).matvec(u) == u
    regular = True
    for i in range(1, n):
        diff = tuple(a - b for a, b in zip(u, alpha.power_matrix(i).matvec(u)))
        if all(c.is_zero() for c in diff):
            regular = False
            break
        if rank(dense_left_mult_matrix(K, diff)) < K.dim or rank(dense_right_mult_matrix(K, diff)) < K.dim:
            regular = False
            break
    return u, central, power_fixed, regular


def tuple_action(M: Bimodule, basis_actions, u: tuple) -> Mat:
    """`Bimodule._action` when K's elements were tuples: the basis actions
    scaled and added one matrix at a time."""
    out = Mat.zero(M.field, M.dim, M.dim)
    for b, c in enumerate(u):
        if not c.is_zero():
            out = out.add(basis_actions[b].scale(c))
    return out


def tuple_hom(M: Bimodule, t: TensorElem) -> Mat:
    """`Bimodule.hom` when K's elements were tuples: each K-coefficient k_a
    boxed, and the test for k_a = s 1 run on Scalars."""
    F, dim = M.field, M.alg.K.dim
    unit, one = dense(F, M.alg.K.unit, dim), F.one
    i = next(j for j, c in enumerate(unit) if not c.is_zero())
    out = None
    for c in t.powers():
        u = t.left_factor(c)
        for a in u.x_degrees():
            k = dense(F, u.k_coeff(a), dim)
            s = k[i] / unit[i]
            ops = [M.Lx_pow(a)] * (a > 0) + [M.Rx_pow(c)] * (c > 0)
            if dense_vscale(s, unit) != k:
                ops, s = [tuple_action(M, M.L_k, k), *ops], one
            term = functools.reduce(Mat.matmul, ops or [M.Lx_pow(0)])
            term = term if s == one else term.scale(s)
            out = term if out is None else out.add(term)
    return Mat.zero(F, M.dim, M.dim) if out is None else out


def dense_a_mul(self, a: AElem, b: AElem) -> AElem:
    """`MonogenicAlgebra.a_mul` before it read the support of b once."""
    out = [self.field.zero] * self.adim
    for i, ca in enumerate(a.coords):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b.coords):
            if cb.is_zero():
                continue
            cab = ca * cb
            for k, s in self.mul_table.get((i, j), ()):
                out[k] = out[k] + cab * Scalar(self.field, s)
    return AElem(self, out)


def dense_d_ambient(M: Bimodule, r: int, v: tuple) -> tuple:
    """`SmallComplex.d_ambient` of a complex over M before the bimodule
    compiled its operators: it walks the x-powers on each vector, with the
    differential written out for each parity rather than read off
    `Resolution.d_generator`.  Its matrix-vector products and sums are the
    dense ones above."""
    if r % 2 == 1:
        return tuple(
            a - b for a, b in zip(dense_matvec(M.Lx, v), dense_matvec(M.Rx, v))
        )
    alg = M.alg
    out = (M.field.zero,) * M.dim
    for i in range(1, alg.n + 1):
        li = alg.f_terms[i]
        if not li:
            continue
        Lc = M.L_elem(li)
        for l in range(i):
            w = dense_matvec(M.Rx_pow(i - l - 1), v)
            w = dense_matvec(M.Lx_pow(l), w)
            out = dense_vadd(out, dense_matvec(Lc, w))
    return out


def dense_center_basis(self) -> Mat:
    """The center of K before it was solved as `twisted_invariants_k(K,
    alpha, 0)` or built from the nonzero structure constants: a dense
    dim^2 x dim kernel on every call."""
    rows = []
    for i in range(self.dim):
        e = self.basis_elem(i)
        L = self.left_mult_matrix(e)
        R = self.right_mult_matrix(e)
        for r1, r2 in zip(L.data, R.data):
            rows.append([a - b for a, b in zip(r1, r2)])
    return kernel_basis(Mat(self.field, rows, self.dim))


# -- the coefficient-layer loops over dense basis vectors -----------------------


def triple_loop_validate(K) -> ValidationReport:
    """`kalgebra.algebra_validate` before it read the nonzero structure
    constants: four dense `kmul`s per basis triple."""
    failures = []
    for i in range(K.dim):
        e = K.basis_elem(i)
        if K.kmul(K.unit, e) != e or K.kmul(e, K.unit) != e:
            failures.append(f"unit law fails at basis {i} ({K.basis_names[i]})")
    for i, j, k in itertools.product(range(K.dim), repeat=3):
        ei, ej, ek = (K.basis_elem(t) for t in (i, j, k))
        lhs = K.kmul(K.kmul(ei, ej), ek)
        rhs = K.kmul(ei, K.kmul(ej, ek))
        if lhs != rhs:
            failures.append(f"associativity fails at triple ({i},{j},{k})")
            return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def pair_loop_validate(self) -> ValidationReport:
    """`Endo.validate` before it read the sparse columns of alpha: dense
    `apply` and `kmul` calls per basis pair."""
    failures = []
    alg = self.alg
    if self.apply(alg.unit) != alg.unit:
        failures.append("endomorphism does not fix the unit")
    for i, j in itertools.product(range(alg.dim), repeat=2):
        ei, ej = alg.basis_elem(i), alg.basis_elem(j)
        lhs = self.apply(alg.kmul(ei, ej))
        rhs = alg.kmul(self.apply(ei), self.apply(ej))
        if lhs != rhs:
            failures.append(f"multiplicativity fails at pair ({i},{j})")
            return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def dense_left_mult_matrix(self, u: tuple) -> Mat:
    """`AlgebraK.left_mult_matrix` before the shared sparse builder, on a
    dense u."""
    cols = [dense_kmul(self, u, dense(self.field, self.basis_elem(j), self.dim)) for j in range(self.dim)]
    return Mat.from_columns(self.field, cols, self.dim)


def dense_right_mult_matrix(self, u: tuple) -> Mat:
    """`AlgebraK.right_mult_matrix` before the shared sparse builder, on a
    dense u."""
    cols = [dense_kmul(self, dense(self.field, self.basis_elem(j), self.dim), u) for j in range(self.dim)]
    return Mat.from_columns(self.field, cols, self.dim)


def dense_regular(cls, alg: MonogenicAlgebra) -> Bimodule:
    """`Bimodule.regular` before the shared sparse builder: each action
    matrix from dim `a_mul` calls on dense basis vectors (`mat_of`)."""
    dim = alg.adim

    def mat_of(op) -> Mat:
        cols = []
        for j in range(dim):
            coords = [alg.field.zero] * dim
            coords[j] = alg.field.one
            cols.append(op(AElem(alg, coords)).coords)
        return Mat.from_columns(alg.field, cols, dim)

    L_k = [
        mat_of(lambda v, b=b: alg.a_mul(alg.k_embed(alg.K.basis_elem(b)), v))
        for b in range(alg.K.dim)
    ]
    R_k = [
        mat_of(lambda v, b=b: alg.a_mul(v, alg.k_embed(alg.K.basis_elem(b))))
        for b in range(alg.K.dim)
    ]
    Lx = mat_of(lambda v: alg.a_mul(alg.x, v))
    Rx = mat_of(lambda v: alg.a_mul(v, alg.x))
    return cls(alg, L_k, Lx, R_k, Rx)


def dense_compile(self) -> None:
    """`MonogenicAlgebra._compile` before it read the K products from the
    structure constants: dense `kmul`s on basis vectors.  It sets
    ``xpow_nf`` and ``mul_table`` on self, so run it on a copy."""
    K, n = self.K, self.n
    # normal form of x^m for 0 <= m <= 2n: list over j < n of elements of K
    nf: list[list[dict]] = []
    for m in range(n):
        row = [{}] * n
        row[m] = K.unit
        nf.append(row)
    for m in range(n, 2 * n + 1):
        row = [{}] * n
        for i, li in enumerate(reversed(self.f_terms[:-1]), start=1):
            if not li:
                continue
            c = self.alpha.apply_power(m - n, li)
            for j, prev in enumerate(nf[m - i]):
                row[j] = k_add(self.field, row[j], K.kmul(c, prev), -1)
        nf.append(row)
    self.xpow_nf = nf
    # sparse multiplication table on the flat basis
    table: dict[tuple[int, int], list[tuple]] = {}  # (i, j) -> [(k, payload)]
    for b, a in itertools.product(range(K.dim), range(n)):
        eb = K.basis_elem(b)
        for b2, a2 in itertools.product(range(K.dim), range(n)):
            u = K.kmul(eb, self.alpha.apply_power(a, K.basis_elem(b2)))
            if not u:
                continue
            terms: list[tuple] = []
            for j, cj in enumerate(self.xpow_nf[a + a2]):
                w = K.kmul(u, cj)
                terms += [(self.idx(b3, j), w[b3]) for b3 in sorted(w)]
            if terms:
                table[(self.idx(b, a), self.idx(b2, a2))] = terms
    self.mul_table = table


# -- the group checks before Light's test -------------------------------------


def scan_group_data(labels, table):
    """`GroupData(labels, table)` before it certified associativity on its
    generators: the scan of every triple, always.  Returns (identity,
    inverses), or the message of the AlgebraError it raised."""
    n = len(labels)
    if len(table) != n or any(len(row) != n for row in table):
        return "group table must be square over the label list"
    ident = next((e for e in range(n) if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if ident is None:
        return "group table has no identity"
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"group table not associative at ({a},{b},{c})"
    inverses = []
    for a in range(n):
        inv = next((b for b in range(n) if table[a][b] == ident), None)
        if inv is None or table[inv][a] != ident:
            return f"element {labels[a]} has no inverse"
        inverses.append(inv)
    return ident, inverses


def scan_validate_character(G, chi) -> ValidationReport:
    """`kalgebra.validate_character` before it certified multiplicativity on
    the generators of G: the scan of every pair, always."""
    failures = []
    field = chi[0].field
    if chi[G.identity] != field.one:
        failures.append("character does not send the identity to 1")
    for g in range(G.order):
        if chi[g].is_zero():
            failures.append(f"character vanishes at {G.labels[g]}")
    for a, b in itertools.product(range(G.order), repeat=2):
        if chi[G.mul(a, b)] != chi[a] * chi[b]:
            failures.append(f"character not multiplicative at ({a},{b})")
            return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


# -- the coefficient-layer checks and kernels before the generator certificates


def scan_algebra_validate(K) -> ValidationReport:
    """`kalgebra.algebra_validate` before it tried the certificate of
    `AlgebraK.generators`: the unit law on every basis element and the ordered
    scan of every triple, always."""
    failures = []
    for i in range(K.dim):
        e = K.basis_elem(i)
        if K.kmul(K.unit, e) != e or K.kmul(e, K.unit) != e:
            failures.append(f"unit law fails at basis {i} ({K.basis_names[i]})")
    prod, none = basis_products(K.field, scalar_table(K.field, K.mul_table)), {}
    for i, j in itertools.product(range(K.dim), repeat=2):
        eij = prod.get((i, j), none).items()
        for k in range(K.dim):
            lhs = scalar_combine((c, prod.get((m, k), none)) for m, c in eij)
            rhs = scalar_combine((c, prod.get((i, m), none)) for m, c in prod.get((j, k), none).items())
            if lhs != rhs:
                failures.append(f"associativity fails at triple ({i},{j},{k})")
                return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def scan_endo_validate(self) -> ValidationReport:
    """`Endo.validate` before it tried the certificate of `Endo.generators`:
    the unit and the ordered scan of every basis pair, always."""
    failures = []
    alg = self.alg
    if self.apply(alg.unit) != alg.unit:
        failures.append("endomorphism does not fix the unit")
    prod, none = basis_products(alg.field, scalar_table(alg.field, alg.mul_table)), {}
    image = [dict(support(self.matrix.column(i))) for i in range(alg.dim)]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        lhs = scalar_combine((c, image[m]) for m, c in prod.get((i, j), none).items())
        rhs = scalar_combine(
            (a * b, prod.get((p, q), none))
            for p, a in image[i].items()
            for q, b in image[j].items()
        )
        if lhs != rhs:
            failures.append(f"multiplicativity fails at pair ({i},{j})")
            return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def all_rows_twisted_kernel(field: Field, dim: int, right, left, twist: Mat) -> Mat:
    """`kalgebra.twisted_kernel` before it read the generators of K: the
    constraint block of every basis element b, stacked in order, from the
    action matrices ``right[b]`` and ``left[c]``."""
    zero = field.zero
    tracker = EchelonTracker(field, dim)
    for b, R in enumerate(right):
        terms = [(t, left[c]) for c, t in enumerate(twist.column(b)) if not t.is_zero()]
        for i in range(dim):
            row = scalar_row(field, R.sparse[i])
            for t, L in terms:
                for j, a in scalar_row(field, L.sparse[i]).items():
                    row[j] = row[j] - t * a if j in row else -(t * a)
            if all(a.is_zero() for a in row.values()):
                continue
            dense = [zero] * dim
            for j, a in row.items():
                dense[j] = a
            tracker.add_payloads(payloads(field, enumerate(dense)))
            if tracker.dim == dim:
                return tracker.kernel()
    return tracker.kernel()


def all_rows_invariants(M: Bimodule, r: int) -> Mat:
    """M^{alpha^r} from every basis constraint, uncached."""
    return all_rows_twisted_kernel(M.field, M.dim, M.R_k, M.L_k, M.alg.alpha.power_matrix(r))


def all_rows_invariants_k(K: AlgebraK, alpha, r: int) -> Mat:
    """K^{alpha^r} from every basis constraint, uncached."""
    return all_rows_twisted_kernel(K.field, K.dim, *K.actions, alpha.power_matrix(r))


def disagreements(alg: MonogenicAlgebra) -> list[str]:
    """The routes on which the generator certificates and the generator
    kernel differ from the scans and the all-rows kernel, on K, its twist and
    the regular bimodule of A, for every distinct power of the twist."""
    K, alpha = alg.K, alg.alpha
    out = []
    if algebra_validate(K) != scan_algebra_validate(K):
        out.append("algebra_validate")
    if alpha.validate() != scan_endo_validate(alpha):
        out.append("Endo.validate")
    M = Bimodule.regular(alg)
    seen = set()
    for t in range((alpha.order or 3) + 1):
        key = alpha.power_matrix(t).data
        if key in seen:
            continue
        seen.add(key)
        if twisted_invariants_k(K, alpha, t) != all_rows_invariants_k(K, alpha, t):
            out.append(f"twisted_invariants_k at t = {t}")
        if twisted_invariants(M, t) != all_rows_invariants(M, t):
            out.append(f"twisted_invariants at t = {t}")
    return out


def square_zero(K: AlgebraK, alpha) -> MonogenicAlgebra:
    """A = K[x; alpha]/(x^2), unchecked: f = x^2 is admissible for every
    twist, and an unchecked build compiles a table for broken K too."""
    zero = (K.field.zero,) * K.dim
    return MonogenicAlgebra(K, alpha, [zero, zero], check=False)


# -- coefficient algebras with twists, and their structure constants rebased ---


def nonzero(F, rng):
    while True:
        x = F.random_element(rng, 4)
        if not x.is_zero():
            return x


def quads_of(K):
    return [(i, j, k, Scalar(K.field, s)) for (i, j), terms in K.mul_table.items() for k, s in terms]


def with_table(K, quads, unit=None):
    return AlgebraK.from_structure_constants(
        K.field, K.dim, K.basis_names, K.unit if unit is None else unit, quads
    )


def matrix_algebra(F):
    """2 x 2 matrices on E11, E12, E21, E22 (E_ab E_bd = E_ad), twisted by
    E -> g E g^-1 for g = [[1, 1], [0, 1]]: an automorphism that is not
    diagonal."""
    quads = [(2 * a + b, 2 * b + d, 2 * a + d, F.one) for a in range(2) for b in range(2) for d in range(2)]
    K = AlgebraK.from_structure_constants(
        F, 4, ["E11", "E12", "E21", "E22"], (F.one, F.zero, F.zero, F.one), quads
    )
    o, z = F.one, F.zero
    g, ginv = ((o, o), (z, o)), ((o, -o), (z, o))
    cols = []
    for a in range(2):
        for b in range(2):
            img = [[g[r][a] * ginv[b][c] for c in range(2)] for r in range(2)]
            cols.append((img[0][0], img[0][1], img[1][0], img[1][1]))
    return K, Endo(K, Mat.from_columns(F, cols, 4))


def quaternions(F):
    """The quaternions with the half-turn about the k-axis."""
    return quaternion_algebra(F, -F.one, F.zero, F.zero, F.one)


def cyclic3(F):
    """The group algebra of C3 with the automorphism g -> g^2."""
    K = group_algebra(cyclic_group(3), F)
    o, z = F.one, F.zero
    return K, Endo(K, Mat(F, [[o, z, z], [z, z, o], [z, o, z]]))


BASES = {"M2": matrix_algebra, "H": quaternions, "C3": cyclic3}


def rebased(K, alpha, rng):
    """K and alpha in the basis f_a = sum_r P[r][a] e_r for a random
    invertible P: the same algebra, with dense structure constants."""
    F, d = K.field, K.dim
    while True:
        P = Mat(F, [[F.random_element(rng, 3) for _ in range(d)] for _ in range(d)])
        S = LinSolver(P)
        if S.rank == d:
            break
    cols = P.transpose().sparse
    quads = [
        (a, b, k, Scalar(F, s))
        for a in range(d)
        for b in range(d)
        for k, s in sorted(S.solve_row(K.kmul(cols[a], cols[b])).items())
    ]
    K2 = AlgebraK.from_structure_constants(F, d, K.basis_names, S.solve_row(K.unit), quads)
    twist = [S.solve_row(alpha.apply(c)) for c in cols]
    return K2, Endo(K2, Mat.from_sparse_rows(F, twist, d).transpose())


# -- the tensor square one flat entry at a time ---------------------------------
# `TensorElem`, `Resolution` and `ComparisonMaps.phi_recursive` before every
# action became one product in A per left factor u_c of u (x) x^c.


def derivation_tensor(alg: MonogenicAlgebra, i: int) -> TensorElem:
    """The divided-difference tensor of x^i: sum_l x^l (x) x^{i-l-1}, twist 1,
    for any i >= 0; exponents at or above n are reduced to normal form.  The
    TensorElem route of ``monogenic._derivation``."""
    out = TensorElem.zero(alg, 1)
    for l in range(i):
        out = out + rightmul_xpow(TensorElem.from_aelem(alg.xpow(l), 0, 1), i - l - 1)
    return out


def augmentation(t: TensorElem) -> AElem:
    """The multiplication map from degree 0 of the resolution to A."""
    alg = t.alg
    out = alg.zero_elem()
    for c, u in t._blocks().items():
        out = out + u * alg.xpow(c)
    return out


def sigma0(a: AElem) -> TensorElem:
    return TensorElem.from_aelem(a, 0, 0)


def basis_tensor(res: Resolution, r: int, flat: int) -> TensorElem:
    return TensorElem(res.alg, res.twist(r), {flat: res.alg.field.one.v})


def split_flat(t: TensorElem, flat: int) -> tuple[int, int, int]:
    """`TensorElem._split`: the (b, a, c) of the basis tensor lambda_b x^a (x) x^c."""
    dimk = t.alg.K.dim
    return flat % dimk, (flat // dimk) % t.alg.n, flat // (dimk * t.alg.n)


def entrywise_leftmul(self: TensorElem, a: AElem) -> TensorElem:
    alg = self.alg
    out: dict[int, Scalar] = {}
    prods: dict[int, AElem] = {}
    for flat, s in scalar_row(alg.field, self.coords).items():
        base = (flat // alg.adim) * alg.adim
        pos = flat - base
        prod = prods.get(pos)
        if prod is None:
            unit = [alg.field.zero] * alg.adim
            unit[pos] = alg.field.one
            prod = alg.a_mul(a, AElem(alg, unit))
            prods[pos] = prod
        for i, v in enumerate(prod.coords):
            if v.is_zero():
                continue
            key = base + i
            sv = s * v
            cur = out.get(key)
            out[key] = sv if cur is None else cur + sv
    return TensorElem(alg, self.twist, payload_row(out))


def entrywise_rightmul_k(self: TensorElem, mu) -> TensorElem:
    alg = self.alg
    mu = alg.K.elem(mu)
    out = TensorElem.zero(alg, self.twist)
    for flat, s in scalar_row(alg.field, self.coords).items():
        b, a, c = split_flat(self, flat)
        mig = alg.k_embed(alg.alpha.apply_power(self.twist + c, mu))
        prod = alg.a_mul(alg.monomial(alg.K.basis_elem(b), a), mig)
        out = out.add_scaled(TensorElem.from_aelem(prod, c, self.twist), s)
    return out


def entrywise_rightmul_x(self: TensorElem) -> TensorElem:
    alg = self.alg
    n = alg.n
    out = TensorElem.zero(alg, self.twist)
    shifted: dict = {}  # flat -> payload
    for flat, s in scalar_row(alg.field, self.coords).items():
        b, a, c = split_flat(self, flat)
        if c + 1 < n:
            shifted[flat + alg.adim] = s.v
        else:
            left = alg.monomial(alg.K.basis_elem(b), a)
            for j in range(n):
                cj = alg.xpow(n).k_coeff(j)
                if not cj:
                    continue
                mig = alg.k_embed(alg.alpha.apply_power(self.twist, cj))
                out = out.add_scaled(
                    TensorElem.from_aelem(alg.a_mul(left, mig), j, self.twist), s
                )
    return out + TensorElem(alg, self.twist, shifted)


def entrywise_rightmul_xpow(t: TensorElem, d: int) -> TensorElem:
    for _ in range(d):
        t = entrywise_rightmul_x(t)
    return t


def entrywise_d_generator(self: Resolution, r: int) -> TensorElem:
    """`Resolution.d_generator` before its cache moved onto the instance."""
    alg = self.alg
    tw = self.twist(r - 1)
    if r % 2 == 1:
        x1 = TensorElem.from_aelem(alg.x, 0, tw)
        onex = entrywise_rightmul_x(TensorElem.from_aelem(alg.one, 0, tw))
        return x1 - onex
    out = TensorElem.zero(alg, tw)
    for i in range(1, alg.n + 1):
        coeff = alg.f_terms[i]
        if not coeff:
            continue
        left = alg.k_embed(coeff)
        for l in range(i):
            term = TensorElem.from_aelem(
                alg.a_mul(left, alg.xpow(l)), i - l - 1, tw
            )
            out = out + term
    return out


def entrywise_d_column(self: Resolution, r: int, flat: int) -> TensorElem:
    dimk = self.alg.K.dim
    b = flat % dimk
    a = (flat // dimk) % self.alg.n
    c = flat // (dimk * self.alg.n)
    img = entrywise_leftmul(
        entrywise_d_generator(self, r), self.alg.monomial(self.alg.K.basis_elem(b), a)
    )
    return entrywise_rightmul_xpow(img, c)


def entrywise_s_column(self: Resolution, r: int, flat: int) -> TensorElem:
    alg = self.alg
    dimk = alg.K.dim
    b = flat % dimk
    a = (flat // dimk) % alg.n
    c = flat // (dimk * alg.n)
    left = alg.monomial(alg.K.basis_elem(b), a)
    tw = self.twist(r)
    if r % 2 == 1:
        out = TensorElem.zero(alg, tw)
        for l in range(c):
            out = out + TensorElem.from_aelem(
                alg.a_mul(left, alg.xpow(l)), c - l - 1, tw
            )
        return -out
    if c == alg.n - 1:
        return TensorElem.from_aelem(left, 0, tw)
    return TensorElem.zero(alg, tw)


def entrywise_phi_recursive(res: Resolution, r: int, memo: dict) -> dict:
    """`ComparisonMaps.phi_recursive`, one product per flat entry of the
    generator image; ``memo`` holds the lower degrees."""
    alg = res.alg
    if r == 0:
        return {(): alg.one}
    if r in memo:
        return memo[r]
    prev = entrywise_phi_recursive(res, r - 1, memo)
    dgen = entrywise_d_generator(res, r)
    sgn = alg.field.one if r % 2 == 0 else -alg.field.one
    out: dict[tuple, AElem] = {}
    dimk = alg.K.dim
    for flat, s in scalar_row(alg.field, dgen.coords).items():
        b = flat % dimk
        a = (flat // dimk) % alg.n
        c = flat // (dimk * alg.n)
        lead = alg.monomial(alg.K.basis_elem(b), a) * s
        right = alg.xpow(c)
        for key, left in prev.items():
            base = lead * left
            if base.is_zero():
                continue
            here = sum(key)
            for e in range(1, alg.n):
                kappa = right.k_coeff(e)
                if not kappa:
                    continue
                moved = alg.alpha.apply_power(here, kappa)
                term = (base * alg.k_embed(moved)) * sgn
                newkey = key + (e,)
                cur = out.get(newkey)
                out[newkey] = term if cur is None else cur + term
    out = {k: v for k, v in out.items() if not v.is_zero()}
    memo[r] = out
    return out


def unfolded_contraction_check(self: Resolution) -> ValidationReport:
    """`Resolution.contraction_check` before it checked each identity once per
    (r mod 2, alpha^{t(r-1)}): every degree through max_degree."""
    alg = self.alg
    failures = []
    for flat in range(alg.adim):
        a = alg.basis_vector(flat)
        if augmentation(sigma0(a)) != a:
            failures.append(f"augmentation section fails at basis {flat}")
            return ValidationReport(False, tuple(failures))
    for flat in range(self.tdim):
        t = basis_tensor(self, 0, flat)
        lhs = apply_d(self, 1, apply_s(self, 1, t)) + sigma0(augmentation(t))
        if lhs != t:
            failures.append(f"degree-0 homotopy identity fails at basis {flat}")
            return ValidationReport(False, tuple(failures))
    for r in range(1, self.max_degree + 1):
        for flat in range(self.tdim):
            t = basis_tensor(self, r, flat)
            lhs = apply_d(self, r + 1, apply_s(self, r + 1, t)) + apply_s(
                self, r, apply_d(self, r, t)
            )
            if lhs != t:
                failures.append(
                    f"homotopy identity fails in degree {r} at basis {flat}"
                )
                return ValidationReport(False, tuple(failures))
    for r in range(2, self.max_degree + 2):
        for flat in range(self.tdim):
            if not apply_d(self, r - 1, d_column(self, r, flat)).is_zero():
                failures.append(f"d.d is nonzero in degree {r} at basis {flat}")
                return ValidationReport(False, tuple(failures))
    return ValidationReport(True, ())


def mutate_columns(monkeypatch, which: str, wrap) -> None:
    """Patch `Resolution.d_rows` (which = "d") or `s_rows` ("s"), the payload
    rows every reader of a column of d' or sigma reads, so that the column
    at flat in degree r becomes wrap(res, r, flat, col), col that column
    read as a TensorElem; the mutated rows are kept per (resolution, r)."""
    rows_of, memo = getattr(Resolution, f"{which}_rows"), {}

    def mutated(self, r):
        if (self, r) not in memo:
            twist = self.twist(r - 1) if which == "d" else self.twist(r)
            memo[self, r] = [wrap(self, r, flat, TensorElem(self.alg, twist, row)).coords
                             for flat, row in enumerate(rows_of(self, r))]
        return memo[self, r]

    monkeypatch.setattr(Resolution, f"{which}_rows", mutated)


# -- the Ore extension B = K[x, alpha] ------------------------------------------
# Multiplication and division in B, which the engine used before it computed
# only in A: the reference for A's product, `xpow_bar` and the normality of f.


class OrePoly:
    """Skew polynomial with left coefficients in K, each given in any form
    `K.elem` takes and kept as an element of K, constant term first."""

    def __init__(self, K: AlgebraK, alpha, coeffs):
        coeffs = [K.elem(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.K = K
        self.alpha = alpha
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def monomial(cls, K: AlgebraK, alpha, coeff, d: int) -> "OrePoly":
        return cls(K, alpha, [{}] * d + [coeff])

    def __add__(self, other: "OrePoly") -> "OrePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            k_add(
                self.K.field,
                self.coeffs[i] if i < len(self.coeffs) else {},
                other.coeffs[i] if i < len(other.coeffs) else {},
            )
            for i in range(n)
        ]
        return OrePoly(self.K, self.alpha, out)

    def __neg__(self) -> "OrePoly":
        return OrePoly(self.K, self.alpha, [k_neg(self.K.field, v) for v in self.coeffs])

    def __sub__(self, other: "OrePoly") -> "OrePoly":
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, OrePoly) and self.K is other.K and self.coeffs == other.coeffs


def ore_mul(P: OrePoly, Q: OrePoly) -> OrePoly:
    """Product in K[x, alpha]: (c x^d)(e x^h) = c alpha^d(e) x^{d+h}."""
    K, alpha = P.K, P.alpha
    if P.is_zero() or Q.is_zero():
        return OrePoly(K, alpha, [])
    out = [{}] * (P.degree + Q.degree + 1)
    for d, c in enumerate(P.coeffs):
        if not c:
            continue
        for h, e in enumerate(Q.coeffs):
            if not e:
                continue
            out[d + h] = k_add(K.field, out[d + h], K.kmul(c, alpha.apply_power(d, e)))
    return OrePoly(K, alpha, out)


def ore_divmod(P: OrePoly, f: OrePoly) -> tuple[OrePoly, OrePoly]:
    """Unique (Pbar, Pddot) with P = Pbar * f + Pddot and deg Pddot < deg f,
    for f monic."""
    K, alpha = P.K, P.alpha
    n = f.degree
    if n < 0 or f.coeffs[-1] != K.unit:
        raise MonogenicError("division requires a monic divisor")
    quot = OrePoly(K, alpha, [])
    rem = P
    while not rem.is_zero() and rem.degree >= n:
        d = rem.degree
        lead = OrePoly.monomial(K, alpha, rem.coeffs[-1], d - n)
        quot = quot + lead
        rem = rem - ore_mul(lead, f)
        if not rem.is_zero() and rem.degree >= d:
            raise MonogenicError("division failed to reduce the degree")
    return quot, rem


def f_ore(alg: MonogenicAlgebra) -> OrePoly:
    return OrePoly(alg.K, alg.alpha, alg.f_terms)


def from_ore(alg: MonogenicAlgebra, P: OrePoly) -> AElem:
    """Image of an Ore polynomial in A (reduces by f first)."""
    _, rem = ore_divmod(P, f_ore(alg))
    return AElem._of(alg, {alg.idx(b, d): p for d, vec in enumerate(rem.coeffs) for b, p in vec.items()})


def to_ore(alg: MonogenicAlgebra, a: AElem) -> OrePoly:
    return OrePoly(alg.K, alg.alpha, [a.k_coeff(d) for d in range(alg.n)])


def ore_check_compiled(alg: MonogenicAlgebra) -> None:
    """`MonogenicAlgebra.check_compiled` when it multiplied in B."""
    K, alpha = alg.K, alg.alpha
    for b in range(K.dim):
        lam = alg.k_embed(K.basis_elem(b))
        rhs = alg.a_mul(alg.k_embed(alpha.apply(K.basis_elem(b))), alg.x)
        if alg.a_mul(alg.x, lam) != rhs:
            raise MonogenicError(f"compiled table breaks the commutation rule at basis {b}")
    f = f_ore(alg)
    xp = OrePoly.monomial(K, alpha, K.unit, 1)
    if ore_mul(f, xp) != ore_mul(xp, f):
        raise MonogenicError("f does not commute with x")
    for b in range(K.dim):
        lam = OrePoly.monomial(K, alpha, K.basis_elem(b), 0)
        tw = OrePoly.monomial(K, alpha, alpha.apply_power(alg.n, K.basis_elem(b)), 0)
        if ore_mul(f, lam) != ore_mul(tw, f):
            raise MonogenicError(f"f lambda = alpha^n(lambda) f fails at basis {b}")


def derivation_of_ore(alg: MonogenicAlgebra, P: OrePoly) -> TensorElem:
    out = TensorElem.zero(alg, 1)
    for d, vec in enumerate(P.coeffs):
        if not vec:
            continue
        out = out + leftmul(derivation_tensor(alg, d), alg.k_embed(vec))
    return out


def ore_normality_check(alg: MonogenicAlgebra) -> ValidationReport:
    """`monogenic.normality_check` when it formed f x^i in B."""
    failures = []
    f = f_ore(alg)
    df = derivation_of_ore(alg, f)
    for i in range(alg.n):
        xi = OrePoly.monomial(alg.K, alg.alpha, alg.K.unit, i)
        lhs = derivation_of_ore(alg, ore_mul(f, xi))
        if lhs != leftmul(df, alg.xpow(i)):
            failures.append(f"derivation of f x^{i} differs from x^{i} action")
        if lhs != rightmul_xpow(df, i):
            failures.append(f"derivation of f x^{i} differs from right x^{i} action")
        if failures:
            break
    return ValidationReport(not failures, tuple(failures))


def uncached_xpow_bar(self: MonogenicAlgebra, e: int) -> AElem:
    """`MonogenicAlgebra.xpow_bar` when it divided x^e by f in B, one division
    per call."""
    P = OrePoly.monomial(self.K, self.alpha, self.K.unit, e)
    q, _ = ore_divmod(P, f_ore(self))
    if q.degree >= self.n:
        return from_ore(self, q)
    return AElem._of(self, {self.idx(b, d): p for d, vec in enumerate(q.coeffs) for b, p in vec.items()})


# -- the dense eliminations `EchelonTracker` replaced ---------------------------


def dense_rref(M: Mat) -> tuple[Mat, list[int]]:
    """`linalg.rref` before it ran on `EchelonTracker`: Gauss-Jordan over the
    columns, first-nonzero pivoting, whole rows at a time."""
    rows = [list(r) for r in M.data]
    pivots: list[int] = []
    r = 0
    for c in range(M.cols):
        sel = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return Mat(M.field, rows, M.cols), pivots


def dense_kernel_basis(M: Mat) -> Mat:
    """`linalg.kernel_basis` before it: the free columns of `dense_rref`."""
    R, pivots = dense_rref(M)
    field = M.field
    free = [c for c in range(M.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [field.zero] * M.cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -R.data[i][fc]
        cols.append(tuple(v))
    return Mat.from_columns(field, cols, M.cols)


class DenseLinSolver(LinSolver):
    """`LinSolver` with the `__init__` it had before it ran on
    `EchelonTracker`: Gauss-Jordan on [M | I] over M's columns.  `solve` is
    the shared one."""

    def __init__(self, M: Mat):
        self.M = M
        field = M.field
        aug = [list(r) + [field.one if i == j else field.zero for j in range(M.rows)]
               for i, r in enumerate(M.data)]
        pivots: list[int] = []
        r = 0
        for c in range(M.cols):
            sel = None
            for i in range(r, len(aug)):
                if not aug[i][c].is_zero():
                    sel = i
                    break
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            inv = aug[r][c].inv()
            aug[r] = [x * inv for x in aug[r]]
            for i in range(len(aug)):
                if i != r and not aug[i][c].is_zero():
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
            if r == len(aug):
                break
        self.pivots = pivots
        self.rank = len(pivots)
        # E @ M is the rref; each E_i kept sparse, in the form `solve` reads
        self.E = [{j: e.v for j, e in enumerate(row[M.cols:]) if not e.is_zero()} for row in aug]


def boxed_minimal_polynomial(M: Mat) -> list[Scalar]:
    """`linalg.minimal_polynomial` when it read the powers of M as tuples of
    Scalars, column by column, and solved for the combination with `solve`."""
    if M.rows != M.cols:
        raise LinalgError("square matrix required")
    field = M.field
    n = M.rows
    t = EchelonTracker(field, n * n)
    powers = [Mat.identity(field, n)]

    def flat(A: Mat) -> tuple:
        return tuple(x for c in A.columns_list() for x in c)

    while t.add_payloads(payloads(field, enumerate(flat(powers[-1])))):
        powers.append(powers[-1].matmul(M))
    k = len(powers) - 1  # M^k depends on lower powers
    cols = [flat(P) for P in powers[:k]]
    sol = LinSolver(Mat.from_columns(field, cols, n * n)).solve(flat(powers[k]))
    if sol is None:
        raise LinalgError(f"M^{k} is not a combination of its lower powers")
    return [-c for c in sol] + [field.one]


# -- the field payload the integer one replaced ---------------------------------

logger = logging.getLogger("orecohom.fields")


def poly_xgcd(a: list, b: list, field: Field) -> tuple[list, list, list]:
    """g, u, v with u*a + v*b = g and g monic (or empty when a = b = 0)."""
    r0, r1 = poly_trim(list(a)), poly_trim(list(b))
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = poly_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, poly_scale(poly_mul(q, s1, field), -field.one), field)
        t0, t1 = t1, poly_add(t0, poly_scale(poly_mul(q, t1, field), -field.one), field)
    if r0:
        c = r0[-1].inv()
        r0, s0, t0 = poly_scale(r0, c), poly_scale(s0, c), poly_scale(t0, c)
    return r0, s0, t0


class LegacyExtensionField(Field):
    """`ExtensionField` before its payload became integer coordinates over
    one denominator: every payload a tuple of base payloads (Fractions over
    QQ, residues over GF(p)), inverted through `poly_xgcd`.  Kept verbatim,
    apart from its name, as an oracle for `ExtensionField` over both QQ and
    GF(p); build it directly, not through `extension_field`."""

    def __init__(self, base: Field, minpoly: tuple, symbol: str):
        if isinstance(base, ExtensionField):
            raise FieldError("towers are not supported; give one minpoly over QQ or GF(p)")
        if not isinstance(base, (RationalField, PrimeField)):
            raise FieldError(f"unsupported extension base {base}")
        coeffs = [base.scalar(c) if not isinstance(c, Scalar) else c for c in minpoly]
        if len(coeffs) < 2:
            raise FieldError("minpoly must have degree >= 1")
        if coeffs[-1] != base.one:
            raise FieldError("minpoly must be monic")
        self.base = base
        self.minpoly = tuple(c.v for c in coeffs)
        self.symbol = symbol
        self.deg = len(coeffs) - 1
        self.char = base.char
        cert = _certify_irreducible(coeffs, base)
        if cert is False:
            raise FieldError(f"minpoly {self._poly_str()} is reducible over {base}")
        if cert is None:
            logger.warning(
                "irreducibility of %s over %s not certified (degree > 4); trusting caller",
                self._poly_str(), base,
            )
        # precompute reductions of t^deg .. t^{2 deg - 2}
        self._tpow = self._reduction_table()

    def _poly_str(self) -> str:
        return " + ".join(
            f"{self.base._repr(c)}*t^{i}" for i, c in enumerate(self.minpoly)
        )

    def _reduction_table(self):
        b = self.base
        d = self.deg
        top = tuple(b._neg(c) for c in self.minpoly[:-1])  # t^d = -(lower part)
        table = [top]
        for _ in range(d - 2):
            prev = table[-1]
            shifted = (b._from_int(0),) + prev[:-1]
            carry = prev[-1]
            table.append(
                tuple(b._add(shifted[i], b._mul(carry, top[i])) for i in range(d))
            )
        return table

    @functools.cached_property
    def gen(self) -> Scalar:
        """The designated root t of the minimal polynomial."""
        b = self.base
        coords = [b._from_int(0)] * self.deg
        if self.deg == 1:
            coords[0] = self._tpow[0][0]
        else:
            coords[1] = b._from_int(1)
        return Scalar(self, tuple(coords))

    def _add(self, a, b):
        bb = self.base
        return tuple(bb._add(a[i], b[i]) for i in range(self.deg))

    def _neg(self, a):
        bb = self.base
        return tuple(bb._neg(c) for c in a)

    def _mul(self, a, b):
        bb = self.base
        d = self.deg
        raw = [bb._from_int(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                raw[i + j] = bb._add(raw[i + j], bb._mul(ai, bj))
        out = list(raw[:d])
        for k in range(d, 2 * d - 1):
            c = raw[k]
            if not c:
                continue
            red = self._tpow[k - d]
            for i in range(d):
                out[i] = bb._add(out[i], bb._mul(c, red[i]))
        return tuple(out)

    def _inv(self, a):
        bb = self.base
        apoly = [Scalar(bb, c) for c in a]
        mpoly = [Scalar(bb, c) for c in self.minpoly]
        g, u, _ = poly_xgcd(apoly, mpoly, bb)
        if len(g) != 1:
            raise FieldError(
                f"non-invertible element; minpoly {self._poly_str()} is reducible"
            )
        u = poly_scale(u, g[0].inv())
        coords = [c.v for c in u] + [bb._from_int(0)] * (self.deg - len(u))
        return tuple(coords[: self.deg])

    def _is_zero(self, a):
        return not any(a)

    def _from_int(self, n):
        bb = self.base
        return tuple([bb._from_int(n)] + [bb._from_int(0)] * (self.deg - 1))

    def _coerce_payload(self, x):
        bb = self.base
        if isinstance(x, Fraction) and self.char == 0:
            return tuple([x] + [bb._from_int(0)] * (self.deg - 1))
        if isinstance(x, (list, tuple)):
            if len(x) > self.deg:
                raise FieldError(f"coordinate vector longer than degree {self.deg}")
            coords = [bb.scalar(c).v for c in x]
            coords += [bb._from_int(0)] * (self.deg - len(coords))
            return tuple(coords)
        raise FieldError(f"cannot interpret {x!r} as an element of {self}")

    def _repr(self, a):
        terms = []
        for i, c in enumerate(a):
            if not c:
                continue
            cs = self.base._repr(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*{self.symbol}" if cs != "1" else self.symbol)
            else:
                terms.append(
                    f"{cs}*{self.symbol}^{i}" if cs != "1" else f"{self.symbol}^{i}"
                )
        return " + ".join(terms) if terms else "0"

    def encode(self, s):
        v = self.scalar(s).v
        return [self.base.encode(Scalar(self.base, c)) for c in v]

    def decode(self, obj):
        if isinstance(obj, int):
            return self.from_int(obj)
        if isinstance(obj, str) and self.char == 0:
            return self.scalar(Fraction(obj))
        if isinstance(obj, list):
            return self.scalar([self.base.decode(c) for c in obj])
        raise FieldError(f"bad {self} encoding: {obj!r}")

    def random_element(self, rng, bound: int = 9):
        return self.scalar(
            [self.base.random_element(rng, bound) for _ in range(self.deg)]
        )

    def elements(self):
        if self.char == 0:
            raise FieldError("infinite field")
        import itertools

        base_payloads = [e.v for e in self.base.elements()]
        for combo in itertools.product(base_payloads, repeat=self.deg):
            yield Scalar(self, tuple(combo))

    def __repr__(self):
        return f"{self.base}[{self.symbol}]/<{self._poly_str()}>"


# -- the unfolded small complex the fold replaced ------------------------------


def unfolded_complex(alg: MonogenicAlgebra, max_degree: int) -> tuple[list, list]:
    """The bases C^0 .. C^D and the differentials d^1 .. d^D (index 0 is None)
    of the small complex of A's regular bimodule, every degree on a fresh
    ``Bimodule.regular(alg)`` with a fresh solver: no cache is hit and
    nothing is shared between degrees, as before ``SmallComplex`` compiled
    one differential per distinct twist.  The periods it shows are computed,
    not assumed.  The differential is `dense_d_ambient`'s formula, not the
    engine's operator read off the resolution."""
    bases = [twisted_invariants(Bimodule.regular(alg), twist_exponent(r, alg.n))
             for r in range(max_degree + 1)]
    dmats = [None]
    for r in range(1, max_degree + 1):
        M = Bimodule.regular(alg)
        src = twisted_invariants(M, twist_exponent(r - 1, alg.n))
        dst = twisted_invariants(M, twist_exponent(r, alg.n))
        solver = LinSolver(dst)
        cols = [solver.solve(dense_d_ambient(M, r, v)) for v in src.columns_list()]
        assert None not in cols, f"d^{r} leaves the cochain space"
        dmats.append(Mat.from_columns(alg.field, cols, dst.cols))
    return bases, dmats


def unfolded_dims(bases: list, dmats: list, up_to: int) -> list[int]:
    """dim H^r = dim C^r - rank d^{r+1} - rank d^r for r <= up_to, with the
    ranks from `dense_rref`."""
    ranks = [0] + [len(dense_rref(d)[1]) for d in dmats[1:]]
    return [bases[r].cols - ranks[r + 1] - ranks[r] for r in range(up_to + 1)]


def twist_period(alg: MonogenicAlgebra, limit: int = 64) -> int:
    """2k for the least k >= 1 with alpha^{kn} = id as a matrix: the period in
    r of the twists alpha^{t(r)}."""
    ident = Mat.identity(alg.field, alg.K.dim)
    for k in range(1, limit + 1):
        if alg.alpha.power_matrix(k * alg.n) == ident:
            return 2 * k
    raise AssertionError(f"alpha^(kn) is not the identity for k <= {limit}")


# -- helpers only the tests call -----------------------------------------------


def in_span(basis: Mat, v: tuple) -> bool:
    return LinSolver(basis).solve(v) is not None


def class_sums(K: AlgebraK) -> list[dict]:
    if K.group is None:
        raise AlgebraError("class sums need group metadata")
    return [{g: K.field.one.v for g in cls} for cls in K.group.conj_classes()]


def identity_one_cochain(alg: MonogenicAlgebra) -> BarCochain:
    """The 1-cochain sending each basis monomial to itself."""
    return BarCochain(alg, 1, {(i,): alg.xpow(i) for i in range(1, alg.n)})


# -- the eager bar routes: every index of the target degree ------------------
# The reference for `BarOracle`, which evaluates the same slot compositions
# and cup only at the indices phi reads.


def cup_bar(g: BarCochain, h: BarCochain) -> BarCochain:
    """Index-splitting product on bar cochains."""
    if g.alg is not h.alg:
        raise ProductsError("mismatched algebras")
    alg = g.alg
    p = g.degree
    table = {}
    for idx in all_bar_indices(alg, p + h.degree):
        left = g.at(idx[:p])
        if left.is_zero():
            continue
        right = h.at(idx[p:])
        if right.is_zero():
            continue
        table[idx] = left * right
    return BarCochain(alg, p + h.degree, table)


def circle_j(g: BarCochain, h: BarCochain, j: int) -> BarCochain:
    """Composition of h into the j-th slot of g, normalized."""
    if g.alg is not h.alg:
        raise ProductsError("mismatched algebras")
    r, rp = g.degree, h.degree
    if not 1 <= j <= r:
        raise ProductsError(f"slot {j} out of range for degree {r}")
    alg = g.alg
    table = {}
    for idx in all_bar_indices(alg, r + rp - 1):
        pre = idx[: j - 1]
        inner = h.at(idx[j - 1 : j - 1 + rp])
        if inner.is_zero():
            continue
        post = idx[j - 1 + rp :]
        tw = sum(pre)
        acc = alg.zero_elem()
        for e in range(1, alg.n):
            kappa = inner.k_coeff(e)
            if not kappa:
                continue
            gval = g.at(pre + (e,) + post)
            if gval.is_zero():
                continue
            moved = alg.alpha.apply_power(tw, kappa)
            acc = acc + alg.k_embed(moved) * gval
        if not acc.is_zero():
            table[idx] = acc
    return BarCochain(alg, r + rp - 1, table)


def linear_combination(alg: MonogenicAlgebra, degree: int, terms) -> BarCochain:
    """The sum of s g over the pairs (s, g) of ``terms``, bar cochains of ``degree``."""
    table = {}
    for s, g in terms:
        for idx, v in g.table.items():
            table[idx] = table[idx] + v * s if idx in table else v * s
    return BarCochain(alg, degree, table)


def compose_bar(g: BarCochain, h: BarCochain) -> BarCochain:
    """The alternating sum of slot compositions of h into g."""
    r, rp = g.degree, h.degree
    terms = [(_sign(g.alg, (j + 1) * (rp + 1)), circle_j(g, h, j)) for j in range(1, r + 1)]
    return linear_combination(g.alg, max(r + rp - 1, 0), terms)


def bracket_bar(g: BarCochain, h: BarCochain) -> BarCochain:
    """Graded commutator of the composition product."""
    r, rp = g.degree, h.degree
    terms = [(g.alg.field.one, compose_bar(g, h)),
             (-_sign(g.alg, (r + 1) * (rp + 1)), compose_bar(h, g))]
    return linear_combination(g.alg, max(r + rp - 1, 0), terms)


def compose_place_small(a: SmallCochain, b: SmallCochain, j: int) -> SmallCochain:
    """Slot composition transported to the small complex."""
    return phi_eval(circle_j(psi_eval(a), psi_eval(b), j))


# -- the oracle and the closed forms on AElems ---------------------------------
# `products` before its oracle and closed routes summed into payload rows:
# every term an AElem of its own, every sum a new AElem.  The references
# for `psi_value`, `BarOracle.phi` and `_composition`, `cup_small` and
# `bracket_small_closed`; the composition is evaluated straight from psi,
# with none of the oracle's stores.


def aelem_psi_value(alg: MonogenicAlgebra, value: AElem, idx: tuple) -> AElem:
    acc = alg.zero_elem()
    for u, c in psi_terms(alg, idx):
        term = u * value
        if c:
            term = term * alg.xpow(c)
        acc = acc + term
    return acc


def aelem_phi(alg: MonogenicAlgebra, r: int, value_at) -> AElem:
    acc = alg.zero_elem()
    for key, coeff in phi_closed(alg, r).items():
        val = value_at(key)
        if not val.is_zero():
            acc = acc + coeff * val
    return acc


def aelem_composition(a: SmallCochain, b: SmallCochain, key: tuple) -> AElem:
    """The alternating sum over the slots j of psi(a) o_j psi(b) at ``key``."""
    alg = a.alg
    r, rp = a.degree, b.degree
    acc = alg.zero_elem()
    for j in range(1, r + 1):
        pre, post = key[: j - 1], key[j - 1 + rp :]
        inner = aelem_psi_value(alg, b.value, key[j - 1 : j - 1 + rp])
        slot = alg.zero_elem()
        for e in filter(None, inner.x_degrees()):
            factor = alg.k_embed(alg.alpha.apply_power(sum(pre), inner.k_coeff(e)))
            gval = aelem_psi_value(alg, a.value, pre + (e,) + post)
            if not gval.is_zero():
                slot = slot + factor * gval
        acc = acc + slot * _sign(alg, (j + 1) * (rp + 1))
    return acc


def aelem_cup_oracle(a: SmallCochain, b: SmallCochain) -> AElem:
    p = a.degree
    return aelem_phi(a.alg, p + b.degree, lambda key: aelem_psi_value(a.alg, a.value, key[:p])
                     * aelem_psi_value(a.alg, b.value, key[p:]))


def aelem_bracket_generic(a: SmallCochain, b: SmallCochain) -> AElem:
    alg, r, rp = a.alg, a.degree, b.degree
    deg = r + rp - 1
    first = aelem_phi(alg, deg, lambda key: aelem_composition(a, b, key))
    second = aelem_phi(alg, deg, lambda key: aelem_composition(b, a, key))
    return first - second * _sign(alg, (r + 1) * (rp + 1))


def aelem_cup_small(a: SmallCochain, b: SmallCochain) -> AElem:
    alg = a.alg
    if a.degree % 2 == 0 or b.degree % 2 == 0:
        return a.value * b.value
    value = alg.zero_elem()
    for i in range(2, alg.n + 1):
        lam = alg.f_terms[i]
        if not lam:
            continue
        lam_a = alg.k_embed(lam)
        for j1 in range(i - 1):
            for j2 in range(i - 1 - j1):
                j3 = i - 2 - j1 - j2
                value = value + lam_a * alg.xpow(j1) * a.value * alg.xpow(j2) * b.value * alg.xpow(j3)
    return value


def aelem_bracket_small_closed(a: SmallCochain, b: SmallCochain) -> AElem:
    alg = a.alg
    n, alpha = alg.n, alg.alpha

    def need(c: SmallCochain):
        lam = canonical_k(c) if c.degree % 2 == 0 else c.canonical_kx()
        if lam is None:
            raise ProductsError("input is not in canonical form")
        return lam

    la, lb = need(a), need(b)
    if a.degree % 2 == 0 and b.degree % 2 == 0:
        return alg.zero_elem()
    if a.degree % 2 == 0:
        return alg.k_embed(alg.K.kmul(alpha.norm(a.degree // 2 * n).apply(lb), la))
    if b.degree % 2 == 0:
        out = alg.K.kmul(alpha.norm(b.degree // 2 * n).apply(la), lb)
        return alg.k_embed(k_neg(alg.field, out))
    first = alg.K.kmul(alpha.norm(a.degree // 2 * n + 1).apply(lb), la)
    second = alg.K.kmul(alpha.norm(b.degree // 2 * n + 1).apply(la), lb)
    return alg.monomial(k_add(alg.field, first, second, -1), 1)


def phi_psi_class_identity(C: SmallComplex, r: int) -> bool:
    """phi after psi fixes every degree-r cohomology class."""
    alg = C.alg
    H = cohomology_group(C, r)
    for rep in H.reps_ambient:
        m = SmallCochain(alg, r, AElem(alg, rep), check=False)
        back = phi_eval(psi_eval(m))
        if not classes_equal(C, r, back.value.coords, rep):
            return False
    return True


# -- the per-degree closed-form tables the fold replaced -----------------------
# Each degree computes its closed side and its comparisons from its own
# inputs, with nothing shared between degrees: the tables of `closedforms`
# before they folded that work by the identities of its inputs, kept
# verbatim as oracles for them.


def unfolded_collapsed_spaces(C: SmallComplex, witness, up_to: int) -> dict:
    alg = cf._regular_alg(C)
    w = cf._need_witness(witness)
    closed_dims, generic_dims, mismatches = [], [], []
    for r in range(up_to + 1):
        W = cf._w_space(alg, r // 2)
        emb = cf._embed_k_columns(alg, W, 0 if r % 2 == 0 else 1)
        closed_dims.append(W.cols)
        generic_dims.append(C.bases[r].cols)
        if not span_equal(emb, C.bases[r]):
            mismatches.append(f"cochain space mismatch in degree {r}")
    return cf._result("collapsed-cochain-spaces", w.hypothesis_list(),
                      {"dims": closed_dims}, {"dims": generic_dims}, mismatches)


def unfolded_collapsed_differentials(C: SmallComplex, witness, up_to: int) -> dict:
    alg = cf._regular_alg(C)
    w = cf._need_witness(witness)
    A1 = alpha_minus_id(alg)
    T = cf._trace_matrix(alg)
    mismatches = []
    closed_cols: dict[str, list] = {}
    for r in range(1, up_to + 1):
        src = C.bases[r - 1]
        cols = []
        xdeg = r % 2
        for j in range(src.cols):
            w_k = (A1 if xdeg else T).apply(AElem(alg, src.column(j)).k_coeff(1 - xdeg))
            amb = alg.monomial(w_k if xdeg else k_neg(alg.field, w_k), xdeg).coords
            try:
                cols.append(C.to_sub(r, amb))
            except CohomologyError:
                mismatches.append(f"closed differential leaves the cochain space in degree {r}")
                cols = None
                break
        if cols is None:
            continue
        closed = Mat.from_columns(C.field, cols, C.bases[r].cols)
        closed_cols[str(r)] = [[alg.field.encode(x) for x in col] for col in cols]
        if closed != C.dmats[r]:
            mismatches.append(f"differential mismatch in degree {r}")
    return cf._result("collapsed-differentials", w.hypothesis_list(),
                      {"matrices": closed_cols}, {"matrices": "compiled"}, mismatches)


def unfolded_collapsed_cohomology(C: SmallComplex, witness, up_to: int) -> dict:
    alg = cf._regular_alg(C)
    w = cf._need_witness(witness)
    up_to = cf._top_degree(C, up_to)
    A1 = alpha_minus_id(alg)
    T = cf._trace_matrix(alg)
    fixed = kernel_basis(A1)
    mismatches: list[str] = []
    closed_dims: list[int] = []
    for r in range(up_to + 1):
        m = r // 2
        W = cf._w_space(alg, m)
        if r == 0:
            space = intersect_spans(fixed, dense_center_basis(alg.K))
            closed_dims.append(space.cols)
            emb = cf._embed_k_columns(alg, space, 0)
            gen_ker0 = C.bases[0].matmul(kernel_basis(C.dmats[1]))
            if not span_equal(emb, gen_ker0):
                mismatches.append("degree 0 space mismatch")
            continue
        xdeg = r % 2
        if xdeg:
            cocycles = intersect_spans(W, kernel_basis(T))
            boundaries = A1.matmul(W)
        else:
            cocycles = intersect_spans(fixed, W)
            boundaries = T.matmul(cf._w_space(alg, m - 1))
        closed_dims.append(cf._quotient_dim(boundaries, cocycles))
        gen_ker = C.bases[r].matmul(kernel_basis(C.dmats[r + 1]))
        if not span_equal(cf._embed_k_columns(alg, cocycles, xdeg), gen_ker):
            mismatches.append(f"cocycle space mismatch in degree {r}")
        gen_im = C.bases[r].matmul(C.dmats[r])
        if not span_equal(cf._embed_k_columns(alg, boundaries, xdeg), gen_im):
            mismatches.append(f"coboundary space mismatch in degree {r}")
    return cf._dims_result("collapsed-cohomology", w.hypothesis_list(), C, up_to, closed_dims,
                           mismatches)


def unfolded_classes_of_closed_reps(C: SmallComplex, r: int, reps: Mat, mismatches: list,
                                    tag: str) -> None:
    H = cohomology_group(C, r)
    coords = []
    for j in range(reps.cols):
        v = reps.column(j)
        try:
            coords.append(H.class_coords(v))
        except CohomologyError:
            mismatches.append(f"{tag}: representative {j} is not a cocycle in degree {r}")
            return
    got = EchelonTracker.of_columns(Mat.from_columns(C.field, coords, H.dim)).dim if coords else 0
    if got != reps.cols or reps.cols != H.dim:
        mismatches.append(
            f"{tag}: degree {r} closed representatives give rank {got}, "
            f"expected {H.dim}"
        )


def unfolded_fixed_block_dims(C: SmallComplex, fixed: Mat, up_to: int, mismatches: list) -> list:
    alg = C.alg
    K = alg.K
    Rn = K.right_mult_matrix(cf._n_lambda(alg))
    ann = kernel_basis(Rn)
    closed_dims = [intersect_spans(fixed, dense_center_basis(K)).cols]
    for r in range(1, up_to + 1):
        m = r // 2
        fixed_m = intersect_spans(fixed, cf._w_space(alg, m))
        if r % 2 == 1:
            reps_k = intersect_spans(fixed_m, ann)
        else:
            fixed_below = intersect_spans(fixed, cf._w_space(alg, m - 1))
            reps_k = quotient_basis(Rn.matmul(fixed_below), fixed_m)
        closed_dims.append(reps_k.cols)
        unfolded_classes_of_closed_reps(
            C, r, cf._embed_k_columns(alg, reps_k, r % 2), mismatches,
            "odd table" if r % 2 else "even table",
        )
    return closed_dims


def unfolded_diagonalizable(C: SmallComplex, witness, up_to: int) -> dict:
    alg = cf._regular_alg(C)
    w = cf._need_witness(witness)
    up_to = cf._top_degree(C, up_to)
    diag = cf.certify_diagonalizable(alg.alpha)
    epi = alg.alpha.is_automorphism
    hyps = w.hypothesis_list() + [
        cf._hyp("twist is certified diagonalizable", diag),
        cf._hyp("twist is bijective", epi),
    ]
    if not (diag and epi):
        raise cf.ClosedFormError("closed table needs a certified diagonalizable bijective twist")
    mismatches: list[str] = []
    closed_dims = unfolded_fixed_block_dims(C, kernel_basis(alpha_minus_id(alg)), up_to,
                                            mismatches)
    ch = getattr(alg.field, "char", 0)
    if ch != 2 or alg.n % 2 == 1 or alg.n % 4 == 0:
        odd_cup_rule = "zero"
    else:
        odd_cup_rule = "product-with-constant-coefficient"
    return cf._dims_result("diagonalizable-cohomology", hyps, C, up_to, closed_dims, mismatches,
                           odd_cup_rule=odd_cup_rule)


def unfolded_group_cohomology(C: SmallComplex, chi, up_to: int, witness) -> dict:
    alg = cf._regular_alg(C)
    w = cf._need_witness(witness)
    up_to = cf._top_degree(C, up_to)
    kN = cf._kernel_span(alg.K, chi)
    mismatches: list[str] = []
    fixed = kernel_basis(alpha_minus_id(alg))
    if not span_equal(kN, fixed):
        mismatches.append("character kernel span differs from the fixed space")
    closed_dims = unfolded_fixed_block_dims(C, kN, up_to, mismatches)
    return cf._dims_result(
        "group-algebra-cohomology",
        w.hypothesis_list() + [cf._hyp("twist is a character twist", True)],
        C, up_to, closed_dims, mismatches,
    )


def unfolded_annihilator_table(C: SmallComplex, up_to: int) -> dict:
    alg = cf._regular_alg(C)
    ident = Mat.identity(alg.K.field, alg.K.dim)
    if alg.alpha.matrix != ident:
        raise cf.ClosedFormError("annihilator table needs the identity twist")
    up_to = cf._top_degree(C, up_to)
    model = C.bases[0]
    fprime = cf._formal_derivative_elem(alg)
    L = C.M.hom(fprime.nz)
    Lsub = cf._restrict_to_span(model, L)
    closed_dims = [model.cols] + [model.cols - rank(Lsub)] * up_to
    ann_reps = model.matmul(kernel_basis(Lsub))
    quot_reps = model.matmul(quotient_basis(Lsub, Mat.identity(C.field, model.cols)))
    mismatches: list[str] = []
    for r in range(1, up_to + 1):
        if r % 2 == 1:
            unfolded_classes_of_closed_reps(C, r, ann_reps, mismatches, "annihilator table")
        else:
            unfolded_classes_of_closed_reps(C, r, quot_reps, mismatches, "quotient table")
    return cf._dims_result(
        "untwisted-annihilator-table", [cf._hyp("twist is the identity", True)],
        C, up_to, closed_dims, mismatches,
    )


def unfolded_membership_period(K: AlgebraK, chi: list, n: int) -> dict:
    if K.group is None:
        raise cf.ClosedFormError("membership periods need group metadata")
    G = K.group
    field = K.field
    v = character_order(G, char_power(chi, n))
    bound = 2 * v
    rows = []
    ok_all = True
    for cls in G.conj_classes():
        g0 = cls[0]
        member = []
        for m in range(bound + 1):
            chim = char_power(chi, m * n)
            member.append(all(chim[h] == field.one for h in G.centralizer(g0)))
        m0 = next((m for m in range(1, bound + 1) if member[m]), None)
        law = member[0] and all(
            member[m] == (m0 is not None and m % m0 == 0) for m in range(1, bound + 1)
        )
        ok_all = ok_all and law
        rows.append({"class": G.labels[g0], "m0": m0, "law_holds": law})
    return {
        "theorem": "class-membership-period",
        "period_order": v,
        "rows": rows,
        "match": ok_all,
    }


# -- the Scalar-level loops ------------------------------------------------------
# `linalg.combine` (now `row_sum`), `_accumulate`, `Mat.matvec`,
# `kalgebra.table_mul` (now `table_mul_into`) and the TensorElem route of
# `Resolution.contraction_check` before the inner loops ran on field payloads:
# one Scalar operator call per product and per sum.  `scalar_table_mul` calls
# `scalar_combine` where `table_mul` called `combine`.


def scalar_combine(terms) -> dict[int, Scalar]:
    """The sum of c * v over the (c, v) in ``terms``, each v a sparse vector
    {index: entry} or its (index, entry) pairs, as a sparse vector with its
    zero entries dropped."""
    out: dict[int, Scalar] = {}
    for c, v in terms:
        for k, s in v.items() if isinstance(v, dict) else v:
            t = c * s
            out[k] = out[k] + t if k in out else t
    if not out:
        return out
    zv = next(iter(out.values())).field.zero.v
    return {k: s for k, s in out.items() if s.v != zv}


def scalar_accumulate(out: dict, c: Scalar, pairs, zv) -> None:
    """out -= c * v in place, for the sparse vector v given by its (index,
    entry) pairs; entries that cancel are dropped."""
    c = -c
    for j, x in pairs:
        t = out[j] + c * x if j in out else c * x
        if t.v == zv:
            del out[j]
        else:
            out[j] = t


def scalar_matvec(self, v: tuple) -> tuple:
    if len(v) != self.cols:
        raise LinalgError("shape mismatch in matvec")
    zv, z = self.field.zero.v, self.field.zero
    terms = [[a * v[j] for j, a in row if v[j].v != zv] for row in sparse_rows(self)]
    return tuple(sum(t[1:], t[0]) if t else z for t in terms)


def scalar_table_mul(table, u, v) -> dict[int, Scalar]:
    """The product u v on an algebra with basis products ``table``:
    {(i, j): [(k, s), ...]} for e_i e_j = sum of s e_k.  u and v are given
    by the (index, entry) pairs of their nonzero coordinates, and so is the
    product, as a sparse vector {index: entry}."""
    right = list(v)
    return scalar_combine((a * b, table[i, j]) for i, a in u for j, b in right if (i, j) in table)


def tensor_contraction_check(self: Resolution) -> ValidationReport:
    """Exact verification that sigma contracts the complex onto A:
    augmentation . sigma0 = id, d'_1 sigma_1 + sigma_0 . augmentation = id,
    d'_{r+1} sigma_{r+1} + sigma_r d'_r = id, and d' . d' = 0.  d'_r and
    sigma_r read r only through its ``_fold`` (the parity and the twisted
    wrap terms of x^n), which also fixes the class of r + 1, so each
    identity is checked in the first degree r of each class: degrees 1
    and 2 for an admissible f."""
    alg = self.alg
    for flat in range(alg.adim):
        a = alg.basis_vector(flat)
        if augmentation(sigma0(a)) != a:
            return ValidationReport(False, (f"augmentation section fails at basis {flat}",))
    for flat in range(self.tdim):
        t = basis_tensor(self, 0, flat)
        lhs = apply_d(self, 1, apply_s(self, 1, t)) + sigma0(augmentation(t))
        if lhs != t:
            return ValidationReport(False, (f"degree-0 homotopy identity fails at basis {flat}",))
    first: dict[int, int] = {}  # class -> its first degree, ascending
    for r in range(1, self.max_degree + 1):
        first.setdefault(self._fold(r), r)
    for r in first.values():
        for flat in range(self.tdim):
            t = basis_tensor(self, r, flat)
            lhs = apply_d(self, r + 1, apply_s(self, r + 1, t)) + apply_s(self, r, apply_d(self, r, t))
            if lhs != t:
                return ValidationReport(False, (f"homotopy identity fails in degree {r} at basis {flat}",))
    for r in first.values():
        for flat in range(self.tdim):
            if not apply_d(self, r, d_column(self, r + 1, flat)).is_zero():
                return ValidationReport(False, (f"d.d is nonzero in degree {r + 1} at basis {flat}",))
    return ValidationReport(True, ())


# -- the dense `Mat` that stored its grid --------------------------------------


def sparse_rows(A) -> list[list[tuple[int, Scalar]]]:
    """The nonzero (column, entry) pairs of each row of A, in column order,
    read off its dense rows: `linalg.sparse_rows` before `Mat` stored them."""
    zv = A.field.zero.v
    return [[(j, a) for j, a in enumerate(row) if a.v != zv] for row in A.data]


class DenseMat:
    """`Mat` when it stored the dense grid ``data`` and read its sparse rows
    off it, with the operations it had then; only the cache of the sparse
    rows is left out."""

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: Field, data, cols: int | None = None):
        rows = tuple(tuple(row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise LinalgError("ragged rows")
            if cols is not None and cols != width:
                raise LinalgError("cols mismatch")
            cols = width
        elif cols is None:
            cols = 0
        self.field = field
        self.data = rows
        self.rows = len(rows)
        self.cols = cols

    @classmethod
    def from_sparse_rows(cls, field: Field, rows, cols: int) -> "DenseMat":
        z = field.zero
        sparse = [sorted(r.items()) for r in rows]
        data = []
        for r in sparse:
            row = [z] * cols
            for j, a in r:
                row[j] = a
            data.append(row)
        return cls(field, data, cols)

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "DenseMat":
        data = list(zip(*self.data)) if self.rows else [()] * self.cols
        return DenseMat(self.field, data, self.rows)

    def matvec(self, v: tuple) -> tuple:
        return scalar_matvec(self, v)

    def matmul(self, other: "DenseMat") -> "DenseMat":
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        right = sparse_rows(other)
        out = [scalar_combine((a, right[k]) for k, a in row) for row in sparse_rows(self)]
        return DenseMat.from_sparse_rows(self.field, out, other.cols)

    def add(self, other: "DenseMat") -> "DenseMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        return DenseMat(
            self.field,
            [dense_vadd(r1, r2) for r1, r2 in zip(self.data, other.data)],
            self.cols,
        )

    def scale(self, s: Scalar) -> "DenseMat":
        return DenseMat(self.field, [dense_vscale(s, r) for r in self.data], self.cols)

    def __eq__(self, other):
        if not isinstance(other, DenseMat):
            return NotImplemented
        return (
            self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2)
            )
        )


# -- the derived quantities before each got one definition on its owner --------


def delta_sum(alpha: Endo, mu: dict, l: int) -> dict:
    """`products.delta_sum`, the partial orbit sum of mu in K under alpha,
    with l terms, before the closed bracket read `Endo.norm`."""
    acc, cur = {}, mu
    for _ in range(l):
        acc = k_add(alpha.alg.field, acc, cur)
        cur = alpha.apply(cur)
    return acc


def twist_norm(alpha: Endo, l: int) -> Mat:
    """`closedforms._twist_norm`, the matrix of lam -> sum_{i < l} alpha^i(lam)
    on K-coordinates (it took l = n), before `Endo.norm`."""
    K = alpha.alg
    out = Mat.zero(K.field, K.dim, K.dim)
    for i in range(l):
        out = out.add(alpha.power_matrix(i))
    return out


def alpha_minus_id(alg: MonogenicAlgebra) -> Mat:
    """`closedforms._alpha_minus_id`, before `Endo.minus_identity`."""
    K = alg.K
    ident = Mat.identity(K.field, K.dim)
    return alg.alpha.matrix.add(ident.scale(-K.field.one))


def all_basis_is_twisted(value: AElem, t: int) -> bool:
    """`products._is_twisted` before it read the generators of the twist:
    value lambda = alpha^t(lambda) value for each basis element lambda of K."""
    alg = value.alg
    for b in range(alg.K.dim):
        e = alg.K.basis_elem(b)
        if value * alg.k_embed(e) != alg.k_embed(alg.alpha.apply_power(t, e)) * value:
            return False
    return True


def unsummed_table(field: Field, quads) -> dict:
    """The table `AlgebraK` kept before it summed at entry: the entries of each
    (i, j) as given, repeats included, only zero entries dropped."""
    table: dict = {}
    for i, j, k, s in quads:
        table.setdefault((i, j), []).append((k, field.scalar(s)))
    return {ij: [(k, s) for k, s in terms if not s.is_zero()] for ij, terms in table.items()}


def basis_products(field: Field, table: dict) -> dict:
    """`AlgebraK.basis_products` of an unsummed table: e_i e_j as a sparse
    vector {k: coefficient} for each pair (i, j) whose product is nonzero."""
    one = field.one
    return {ij: prod for ij, terms in table.items() if (prod := scalar_combine([(one, terms)]))}


def hand_summed_center(field: Field, dim: int, table: dict) -> Mat:
    """The center of K from an unsummed table: row (i, k), column j, the e_k
    coefficient of e_i e_j - e_j e_i, summed by hand from the entries."""
    rows: dict = {}
    for (i, j), terms in table.items():
        for k, s in terms:
            row = rows.setdefault((i, k), {})
            row[j] = row[j] + s if j in row else s
            row = rows.setdefault((j, k), {})
            row[i] = row[i] - s if i in row else -s
    zv = field.zero.v
    sparse = [{j: a.v for j, a in rows[key].items() if a.v != zv} for key in sorted(rows)]
    return kernel_basis(Mat.from_sparse_rows(field, [r for r in sparse if r], dim))


def xpow_nf_rows(alg: MonogenicAlgebra) -> list[list[dict]]:
    """`MonogenicAlgebra.xpow_nf`: for 0 <= m <= 2n, the K-coefficient of the
    normal form of x^m at each x^j, j < n."""
    K, n = alg.K, alg.n
    nf: list[list[dict]] = []
    for m in range(n):
        row = [{}] * n
        row[m] = K.unit
        nf.append(row)
    for m in range(n, 2 * n + 1):
        row = [{}] * n
        for i, ci in enumerate(alg.f_terms[:n]):
            if not ci:
                continue
            c = alg.alpha.apply_power(m - n, ci)
            for j, prev in enumerate(nf[m - n + i]):
                row[j] = k_add(alg.field, row[j], K.kmul(c, prev), -1)
        nf.append(row)
    return nf


def mutant(fn, old: str, new: str):
    """fn compiled from its source with ``old`` replaced by ``new``, in a copy
    of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile("from __future__ import annotations\n" + source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[fn.__name__]


# -- the group core before it ran one echelon -----------------------------------


def quotient_route_core(C: SmallComplex, r: int) -> tuple[Mat, Mat, list, LinSolver]:
    """`cohomology._GroupCore` before it ran one echelon: the image of d^r
    from its own echelon, then `quotient_basis`, which tests containment in
    an echelon of the kernel and eliminates the image again.  Returns the
    image, the representatives over C^r and in M, and the class solver."""
    field, dim = C.field, C.dim_cochain(r)
    kernel = kernel_basis(C.dmats[r + 1])
    if r == 0:
        image = Mat.from_columns(field, [], dim)
    else:
        image = EchelonTracker(field, dim).extend(C.dmats[r])
    reps_sub = quotient_basis(image, kernel)
    reps_ambient = [C.bases[r].matvec(c) for c in reps_sub.columns_list()]
    mixed = Mat.from_columns(field, reps_sub.columns_list() + image.columns_list(), dim)
    return image, reps_sub, reps_ambient, LinSolver(mixed)
