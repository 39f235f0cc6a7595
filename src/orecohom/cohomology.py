"""The small two-periodic cochain complex of a monogenic extension and its
cohomology, over any finite-dimensional A-bimodule.

Degree bookkeeping: d^r is the differential INTO C^r, so H^r is
ker d^{r+1} / im d^r and computing H^r requires the complex to be built
through degree r + 1.  The twist exponent of C^r is mn for r = 2m and
mn + 1 for r = 2m + 1; cochain spaces are the twisted invariants M^{alpha^t}.
d^r is Hom(d'_r, M) for the resolution that ``validate`` certifies.

Each piece of the complex is built once per distinct input and shared by
every degree with that input: each action of K's basis on the regular
bimodule, on its first read (``kalgebra.BasisActions``, which builds K's
actions on itself the same way); the cochain basis and the read of its free
rows per exact twist matrix alpha^{t(r)}; the differential per (pair of
bases, parity); the d.d check per pair of differentials; and the core of
H^r, one echelon, per (d^r, d^{r+1}, C^r), whose class solver is built on
its first class read.  Coordinates in a cochain space are read off the free
rows of its reduced basis (``linalg.FreeRows``), so a complex build runs no
solver.  When alpha^{kn} = id the degrees past the first period are
therefore aliases of earlier ones; the sharing reads only these inputs,
never the order of alpha.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .fields import Scalar
from .kalgebra import BasisActions, ValidationReport, mult_matrix, twisted_kernel
from .linalg import EchelonTracker, FreeRows, LinSolver, Mat, dense, kernel_basis, matrix_sum, row_sum, same_field
from .monogenic import AElem, MonogenicAlgebra, Resolution, TensorElem, twist_exponent


class CohomologyError(ValueError):
    pass


class Bimodule:
    """A-bimodule given by the matrices of the left and right actions of K's
    basis elements, ``L_k`` and ``R_k``, and of x, ``Lx`` and ``Rx``.

    ``L_k`` and ``R_k`` are indexable sequences of dim K matrices.  For the
    regular bimodule they are ``kalgebra.BasisActions``, as K's actions on
    itself are: each matrix is built on its first read, so a complex builds
    only the actions that its twisted invariants and differentials read."""

    def __init__(self, alg: MonogenicAlgebra, L_k: Sequence[Mat], Lx: Mat, R_k: Sequence[Mat], Rx: Mat):
        self.alg = alg
        self.field = alg.field
        self.dim = Lx.rows
        self.L_k = L_k
        self.Lx = Lx
        self.R_k = R_k
        self.Rx = Rx
        self._Lx_pow: dict[int, Mat] = {0: Mat.identity(self.field, self.dim)}
        self._Rx_pow: dict[int, Mat] = {0: Mat.identity(self.field, self.dim)}
        self._invariants: dict[int, Mat] = {}  # id of alpha^r -> twisted_invariants

    @classmethod
    def regular(cls, alg: MonogenicAlgebra) -> "Bimodule":
        """M = A with multiplication actions: those of x built at once, those
        of K's basis elements, A's first dim K basis vectors e_b x^0, each on
        its first read."""
        F, dim, table = alg.field, alg.adim, alg.mul_table
        Lx = mult_matrix(F, dim, table, alg.x.nz)
        Rx = mult_matrix(F, dim, table, alg.x.nz, left=False)
        R_k, L_k = (BasisActions(F, dim, table, alg.K.dim, left) for left in (False, True))
        return cls(alg, L_k, Lx, R_k, Rx)

    @classmethod
    def from_actions(cls, alg: MonogenicAlgebra, L_k, Lx, R_k, Rx) -> "Bimodule":
        """The bimodule of the given actions, once checked: dim K actions of
        K's basis on each side, every action a dim x dim matrix with
        dim = ``Lx.rows``, and the bimodule laws of ``validate``.  Raises
        CohomologyError naming the first mismatch."""
        L_k, R_k = list(L_k), list(R_k)
        for side, actions in (("left", L_k), ("right", R_k)):
            if len(actions) != alg.K.dim:
                raise CohomologyError(
                    f"{len(actions)} {side} actions of K's basis, expected dim K = {alg.K.dim}"
                )
        dim = Lx.rows
        named = [("Lx", Lx), ("Rx", Rx), *((f"L_k[{b}]", A) for b, A in enumerate(L_k)),
                 *((f"R_k[{b}]", A) for b, A in enumerate(R_k))]
        for name, A in named:
            if (A.rows, A.cols) != (dim, dim):
                raise CohomologyError(f"{name} is {A.rows}x{A.cols}, expected {dim}x{dim}")
        M = cls(alg, L_k, Lx, R_k, Rx)
        rep = M.validate()
        if not rep.ok:
            raise CohomologyError("; ".join(rep.failures))
        return M

    def L_elem(self, u) -> Mat:
        return self._action(self.L_k, u)

    def R_elem(self, u) -> Mat:
        return self._action(self.R_k, u)

    def _action(self, basis_actions: Sequence[Mat], u) -> Mat:
        """The action of u in K, in any form ``K.elem`` takes: the basis
        actions at its nonzero coordinates, combined by one ``matrix_sum``."""
        acts = ((c, basis_actions[b]) for b, c in self.alg.K.elem(u).items())
        return Mat.from_sparse_rows(self.field, matrix_sum(self.field, acts, self.dim), self.dim)

    def Lx_pow(self, e: int) -> Mat:
        if e not in self._Lx_pow:
            self._Lx_pow[e] = self.Lx.matmul(self.Lx_pow(e - 1))
        return self._Lx_pow[e]

    def Rx_pow(self, e: int) -> Mat:
        if e not in self._Rx_pow:
            self._Rx_pow[e] = self.Rx.matmul(self.Rx_pow(e - 1))
        return self._Rx_pow[e]

    def hom(self, t: TensorElem) -> Mat:
        """The matrix of m -> sum_c u_c m x^c for t = sum_c u_c (x) x^c; u_c =
        sum_a k_a x^a acts as L(k_a) Lx^a, with no x^0 factor, or as s if k_a = s 1.
        The test k_a = s 1 runs on payloads, so the L(k_a) it spares are never
        built; the (s, term) pairs are summed by one ``matrix_sum``."""
        F, unit = self.field, self.alg.K.unit
        i, one, mul, terms = min(unit), F.one.v, F._mul, []
        inv = Scalar(F, unit[i]).inv().v  # boxed: a report's one Scalar inverse, which bench/spans.py counts
        for c in t.powers():
            u = t.left_factor(c)
            for a in u.x_degrees():
                k = u.k_coeff(a)
                s = mul(k[i], inv) if i in k else None
                ops = [self.Lx_pow(a)] * (a > 0) + [self.Rx_pow(c)] * (c > 0)
                if s is None or k != {j: mul(s, p) for j, p in unit.items()}:
                    ops, s = [self.L_elem(k), *ops], one
                terms.append((s, functools.reduce(Mat.matmul, ops or [self.Lx_pow(0)])))
        return Mat.from_sparse_rows(F, matrix_sum(F, terms, self.dim), self.dim)

    def validate(self) -> ValidationReport:
        failures = []
        alg = self.alg
        K = alg.K
        ident = Mat.identity(self.field, self.dim)
        if self.L_elem(K.unit) != ident:
            failures.append("left action of the unit is not the identity")
        if self.R_elem(K.unit) != ident:
            failures.append("right action of the unit is not the identity")
        for i in range(K.dim):
            for j in range(K.dim):
                ei, ej = K.basis_elem(i), K.basis_elem(j)
                if self.L_k[i].matmul(self.L_k[j]) != self.L_elem(K.kmul(ei, ej)):
                    failures.append(f"left action not multiplicative at ({i},{j})")
                if self.R_k[j].matmul(self.R_k[i]) != self.R_elem(K.kmul(ei, ej)):
                    failures.append(f"right action not anti-multiplicative at ({i},{j})")
                if failures:
                    return ValidationReport(False, tuple(failures))
        for b in range(K.dim):
            lam = K.basis_elem(b)
            tw = alg.alpha.apply(lam)
            if self.Lx.matmul(self.L_k[b]) != self.L_elem(tw).matmul(self.Lx):
                failures.append(f"left x-relation fails at basis {b}")
            if self.R_k[b].matmul(self.Rx) != self.Rx.matmul(self.R_elem(tw)):
                failures.append(f"right x-relation fails at basis {b}")
            if failures:
                return ValidationReport(False, tuple(failures))
        for Lg in [*self.L_k, self.Lx]:
            for Rh in [*self.R_k, self.Rx]:
                if Lg.matmul(Rh) != Rh.matmul(Lg):
                    failures.append("left and right actions do not commute")
                    return ValidationReport(False, tuple(failures))
        Lf = self.Lx_pow(alg.n)
        Rf = self.Rx_pow(alg.n)
        for i, ci in enumerate(alg.f_terms[:-1]):
            Lf = Lf.add(self.L_elem(ci).matmul(self.Lx_pow(i)))
            Rf = Rf.add(self.Rx_pow(i).matmul(self.R_elem(ci)))
        if not Lf.is_zero():
            failures.append("f does not act as zero on the left")
        if not Rf.is_zero():
            failures.append("f does not act as zero on the right")
        return ValidationReport(not failures, tuple(failures))


def twisted_invariants(M: Bimodule, r: int) -> Mat:
    """Basis (columns) of M^{alpha^r} = {m : m lambda = alpha^r(lambda) m}.

    The columns are the reduced free-variable basis of the solution space:
    column f has a one at free coordinate f and zeros at the other free
    coordinates, which fixes its pivot entries.  That basis is unique, so it
    does not depend on how the constraints are solved: restricting to one
    basis constraint at a time keeps the identity on the surviving free
    coordinates and ends at the same columns as one reduction of all the
    stacked rows (``twisted_kernel``).  Only the constraints of the twist's
    certified ``generators`` are stacked.  They cut out M^{alpha^r} when the
    actions of K on M make it a K-bimodule: ``from_actions`` checks that, and
    the actions of ``regular`` are products in K twisted by powers of alpha,
    a K-bimodule once K and alpha are certified, whatever f.  So of the
    actions of K on the regular bimodule only those ``twisted_kernel`` reads
    are built: R of each generator, and L of the support of its twist.

    Cached on M, keyed by the power ``alpha.power_matrix(r)``, which is one
    object for equal powers: degrees whose twists are equal matrices share
    one solve and one basis object.  ``SmallComplex`` keys its
    differentials and group cores on the identity of these objects, so this
    cache is where the folding of the complex by period starts."""
    alpha = M.alg.alpha
    twist = alpha.power_matrix(r)
    basis = M._invariants.get(id(twist))
    if basis is None:
        generators = alpha.generators if alpha.alg is M.alg.K else None
        basis = M._invariants[id(twist)] = twisted_kernel(M.field, M.dim, M.R_k, M.L_k, twist, generators)
    return basis


class SmallComplex:
    """The small complex C^r = M^{alpha^{t(r)}} with compiled differentials
    d^r = Hom(d'_r, M), the ``M.hom`` of ``Resolution.d_generator(r)``.

    C^r and d^r depend on r only through the twist alpha^{t(r)} and the
    parity of r, so equal inputs share one object:
    - ``bases[r]`` is the ``twisted_invariants`` basis, cached on M by the
      exact entries of alpha^{t(r)}, and ``free_rows[r]`` is one
      ``FreeRows`` read per distinct basis: that basis is in reduced
      free-variable form, so ``to_sub`` and the compiled differentials read
      coordinates off its free rows, each read checked to lie in C^r;
    - ``dmats[r]`` is compiled once per (basis of degree r - 1, basis of
      degree r, r mod 2), by identity of the cached bases;
    - d^{r+1} d^r = 0 is checked once per distinct pair of differentials;
    - the groups of ``cohomology_group`` share their cores (see
      ``CohomologyGroup``).
    Once alpha^{kn} = id the complex repeats with period 2k and the later
    degrees are aliases.  Nothing reads the order of alpha: a twist whose
    powers are never equal matrices compiles every degree.  A degree outside
    0..max_degree raises CohomologyError; a negative one does not index from
    the top."""

    def __init__(self, alg: MonogenicAlgebra, M: Bimodule, max_degree: int):
        self.alg = alg
        self.M = M
        self.max_degree = max_degree
        self.field = M.field
        self._groups: dict[int, "CohomologyGroup"] = {}
        self._cores: dict[tuple, "_GroupCore"] = {}  # ids of (d^r, d^{r+1}, C^r) -> core
        res = Resolution(alg, max_degree)
        self._d_ops = [M.hom(res.d_generator(2)), M.hom(res.d_generator(1))]  # by r mod 2
        self.bases = [twisted_invariants(M, twist_exponent(r, alg.n)) for r in range(max_degree + 1)]
        reads = {id(B): FreeRows(B) for B in {id(B): B for B in self.bases}.values()}  # one per basis object
        self.free_rows = [reads[id(B)] for B in self.bases]
        self.dmats: list[Mat | None] = [None]
        compiled: dict[tuple, Mat] = {}  # ids of (C^{r-1}, C^r), r mod 2 -> d^r
        for r in range(1, max_degree + 1):
            key = (id(self.bases[r - 1]), id(self.bases[r]), r % 2)
            if key not in compiled:
                compiled[key] = self._compile_d(r)
            self.dmats.append(compiled[key])
        checked: set[tuple] = set()  # ids of (d^{r+1}, d^r)
        for r in range(1, max_degree):
            pair = (id(self.dmats[r + 1]), id(self.dmats[r]))
            if pair in checked:
                continue
            checked.add(pair)
            prod = self.dmats[r + 1].matmul(self.dmats[r])
            if not prod.is_zero():
                raise CohomologyError(f"d.d is nonzero into degree {r + 1}")

    def twist(self, r: int) -> int:
        return twist_exponent(r, self.alg.n)

    def _built(self, r: int) -> int:
        """r, once checked to be a built degree."""
        if not 0 <= r <= self.max_degree:
            raise CohomologyError(f"degree {r} is outside the built degrees 0..{self.max_degree}")
        return r

    def dim_cochain(self, r: int) -> int:
        return self.bases[self._built(r)].cols

    def d_ambient(self, r: int, v: tuple) -> tuple:
        """The differential into degree r evaluated on an ambient M-vector."""
        return self._d_ops[r % 2].matvec(v)

    def _compile_d(self, r: int) -> Mat:
        """d^r, each image of a column of C^{r-1} read off the free rows of
        C^r, all on payload rows."""
        op = self._d_ops[r % 2]
        D = self.free_rows[r].matrix(op.apply(v) for v in self.bases[r - 1].transpose().sparse)
        if D is None:
            raise CohomologyError(f"differential image leaves the twisted invariants in degree {r}")
        return D

    def to_sub(self, r: int, v_ambient) -> tuple:
        """The coordinates in C^r of an ambient M-vector, a tuple, a sparse
        vector {index: entry} or, for M = A, an ``AElem``, read off the free
        rows of the basis (an AElem on its payloads); CohomologyError when
        the vector is not in C^r, and LinalgError when a tuple's length is
        not dim M or a sparse index lies outside it."""
        read = self.free_rows[self._built(r)]
        sol = read.coords(self._ambient_row(r, v_ambient))
        if sol is None:
            raise CohomologyError(f"vector is not in the degree-{r} cochain space")
        return dense(self.field, sol, read.B.cols)

    def _ambient_row(self, r: int, v_ambient) -> dict:
        """An ambient vector in any form ``to_sub`` reads, as a payload row;
        an ``AElem`` of another field raises :func:`~orecohom.fields.mixed`."""
        if isinstance(v_ambient, AElem):
            same_field(self.field, v_ambient.alg.field)
            return v_ambient.nz
        return self.free_rows[self._built(r)].unbox(v_ambient)


def build_small_complex(alg: MonogenicAlgebra, M: Bimodule, max_degree: int) -> SmallComplex:
    return SmallComplex(alg, M, max_degree)


class _GroupCore:
    """What H^r reads from its inputs d^r, d^{r+1} and C^r alone: the kernel
    of d^{r+1}, the image of d^r (empty for r = 0), the representatives (a
    complement of the image in the kernel, over C^r and in M, the latter as
    the payload rows ``reps_rows``, boxed as ``reps_ambient`` on its first
    read) and the solver for class coordinates, which is built on the first
    ``class_row``: a complex build and ``complex_report`` read none.

    One echelon gives both the image and the representatives: the columns of
    d^r that join it, then the kernel columns that join it after them.  Its
    rows depend only on the span added, so the representatives are those of
    ``quotient_basis(image, kernel)``.  The free-variable kernel columns are
    independent, so the image lies in ker d^{r+1} exactly when the echelon
    ends with as many rows as the kernel has columns; otherwise this raises
    CohomologyError naming r."""

    def __init__(self, complex_: SmallComplex, r: int):
        field = complex_.field
        dim = complex_.dim_cochain(r)
        self.kernel = kernel_basis(complex_.dmats[r + 1])
        echelon = EchelonTracker(field, dim)
        if r == 0:
            self.image = Mat.from_columns(field, [], dim)
        else:
            self.image = echelon.extend(complex_.dmats[r])
        self.reps_sub = echelon.extend(self.kernel)
        if echelon.dim != self.kernel.cols:
            raise CohomologyError(f"the image of d^{r} leaves the kernel of d^{r + 1} in degree {r}")
        self.basis = B = complex_.bases[r]
        self.reps_rows = [B.apply(c) for c in self.reps_sub.transpose().sparse]

    @functools.cached_property
    def reps_ambient(self) -> list[tuple]:
        """The representatives in M, as dense tuples of Scalars."""
        B = self.basis
        return [dense(B.field, row, B.rows) for row in self.reps_rows]

    @functools.cached_property
    def class_solver(self) -> LinSolver:
        """The solver over [representatives | image]."""
        reps, image = self.reps_sub, self.image
        cols = reps.transpose().sparse + image.transpose().sparse
        return LinSolver(Mat.from_sparse_rows(reps.field, cols, reps.rows).transpose())


class CohomologyGroup:
    """H^r of a small complex with explicit ambient representatives and
    deterministic class coordinates.

    The degree-independent part is a ``_GroupCore`` kept on the complex and
    keyed by the identities of (d^r, d^{r+1}, C^r), so the degrees r >= 1 of
    one period share it.  ``dmats[0]`` is None, so H^0 has a key of its own.
    The representatives in M are read as payload rows (``reps_rows``) or as
    dense tuples of Scalars (``reps_ambient``).  The group keeps its degree: its errors name the degree asked for."""

    def __init__(self, complex_: SmallComplex, r: int):
        if complex_._built(r) + 1 > complex_.max_degree:
            raise CohomologyError(
                f"degree {r} needs the complex built through degree {r + 1}"
            )
        self.complex = complex_
        self.degree = r
        key = (id(complex_.dmats[r]), id(complex_.dmats[r + 1]), id(complex_.bases[r]))
        if key not in complex_._cores:
            complex_._cores[key] = _GroupCore(complex_, r)
        self.core = core = complex_._cores[key]
        self.kernel = core.kernel
        self.image = core.image
        self.reps_sub = core.reps_sub
        self.reps_rows = core.reps_rows
        self.dim = core.reps_sub.cols

    @property
    def reps_ambient(self) -> list[tuple]:
        """The representatives in M, as dense tuples of Scalars."""
        return self.core.reps_ambient

    def class_coords(self, v_ambient) -> tuple:
        """``class_row`` of an ambient vector in any form ``to_sub`` reads,
        as a tuple of Scalars."""
        C = self.complex
        return dense(C.field, self.class_row(C._ambient_row(self.degree, v_ambient)), self.dim)

    def class_row(self, nz: dict) -> dict:
        """The coordinates of a cocycle's class over the representatives, as
        a payload row, for the cocycle's ambient payload row nz; read off the
        free rows of C^r, tested with d^{r+1} and solved on payloads."""
        C, r = self.complex, self.degree
        v_sub = C.free_rows[r].coords(nz)
        if v_sub is None:
            raise CohomologyError(f"vector is not in the degree-{r} cochain space")
        if C.dmats[r + 1].apply(v_sub):
            raise CohomologyError("vector is not a cocycle")
        sol = self.core.class_solver.solve_row(v_sub)
        if sol is None:
            raise CohomologyError("cocycle outside kernel span (inconsistent state)")
        return {k: p for k, p in sol.items() if k < self.dim}


def cohomology_group(C: SmallComplex, r: int) -> CohomologyGroup:
    if r not in C._groups:
        C._groups[r] = CohomologyGroup(C, r)
    return C._groups[r]


def classes_equal(C: SmallComplex, r: int, a, b) -> bool:
    """Whether two ambient cocycles in degree r, each in any form ``to_sub``
    reads, are cohomologous.  A tuple whose length is not dim M raises
    LinalgError, on either side."""
    H, F = cohomology_group(C, r), C.field
    one = F.one.v
    return not H.class_row(row_sum(F, [(one, C._ambient_row(r, a)), (F._neg(one), C._ambient_row(r, b))]))


def cohomology_dims(C: SmallComplex, up_to: int) -> list[int]:
    return [cohomology_group(C, r).dim for r in range(up_to + 1)]


def complex_report(C: SmallComplex) -> list[dict]:
    """Per-degree data for reports; covers 0 .. max_degree - 1.  Each
    distinct payload of the representatives is encoded once per call."""
    out = []
    code, zv, dim = C.field.encoder(), C.field.zero.v, C.M.dim
    encoded: dict[int, list] = {}  # id of a group core -> its encoded representatives
    for r in range(C.max_degree):
        H = cohomology_group(C, r)
        if id(H.core) not in encoded:
            encoded[id(H.core)] = [[code(row.get(i, zv)) for i in range(dim)] for row in H.reps_rows]
        rank_in = 0 if r == 0 else H.image.cols
        rank_out = C.dim_cochain(r) - H.kernel.cols
        entry = {
            "degree": r,
            "dim_cochain": C.dim_cochain(r),
            "twist_exponent": C.twist(r),
            "rank_in": rank_in,
            "rank_out": rank_out,
            "dim_H": H.dim,
            "representatives": encoded[id(H.core)],
        }
        out.append(entry)
    return out
