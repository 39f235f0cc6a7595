"""The small two-periodic cochain complex of a monogenic extension and its
cohomology, over any finite-dimensional A-bimodule.

Degree bookkeeping: d^r is the differential INTO C^r, so H^r is
ker d^{r+1} / im d^r and computing H^r requires the complex to be built
through degree r + 1.  The twist exponent of C^r is mn for r = 2m and
mn + 1 for r = 2m + 1; cochain spaces are the twisted invariants M^{alpha^t}.
d^r is Hom(d'_r, M) for the resolution that ``validate`` certifies.

Each piece of the complex is built once per distinct input and shared by
every degree with that input: the cochain basis per exact twist matrix
alpha^{t(r)}, the differential per (pair of bases, parity), the d.d check per
pair of differentials, and the core of H^r per (d^r, d^{r+1}, C^r).  When
alpha^{kn} = id the degrees past the first period are therefore aliases of
earlier ones; the sharing reads only these inputs, never the order of alpha.
"""

from __future__ import annotations

import functools

from .kalgebra import ValidationReport, mult_matrix, twisted_kernel
from .linalg import (EchelonTracker, LinSolver, Mat, kernel_basis, quotient_basis, sparse_rows,
                     support, vscale)
from .monogenic import MonogenicAlgebra, Resolution, TensorElem, twist_exponent


class CohomologyError(ValueError):
    pass


class Bimodule:
    """A-bimodule given by left/right action matrices for K-basis elements and x."""

    def __init__(self, alg: MonogenicAlgebra, L_k: list[Mat], Lx: Mat, R_k: list[Mat], Rx: Mat):
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
        """M = A with multiplication actions."""
        F, dim, table = alg.field, alg.adim, alg.mul_table
        basis = [alg.k_embed(alg.K.basis_elem(b)).coords for b in range(alg.K.dim)]
        L_k = [mult_matrix(F, dim, table, u) for u in basis]
        R_k = [mult_matrix(F, dim, table, u, left=False) for u in basis]
        Lx = mult_matrix(F, dim, table, alg.x.coords)
        Rx = mult_matrix(F, dim, table, alg.x.coords, left=False)
        return cls(alg, L_k, Lx, R_k, Rx)

    @classmethod
    def from_actions(cls, alg: MonogenicAlgebra, L_k, Lx, R_k, Rx) -> "Bimodule":
        M = cls(alg, list(L_k), Lx, list(R_k), Rx)
        rep = M.validate()
        if not rep.ok:
            raise CohomologyError("; ".join(rep.failures))
        return M

    def L_elem(self, u) -> Mat:
        return self._action(self.L_k, u)

    def R_elem(self, u) -> Mat:
        return self._action(self.R_k, u)

    def _action(self, basis_actions: list[Mat], u) -> Mat:
        """The action of u in K: the combination of the basis actions."""
        out = Mat.zero(self.field, self.dim, self.dim)
        for b, c in enumerate(self.alg.K.elem(u).coords):
            if not c.is_zero():
                out = out.add(basis_actions[b].scale(c))
        return out

    def Lx_pow(self, e: int) -> Mat:
        if e not in self._Lx_pow:
            self._Lx_pow[e] = self.Lx.matmul(self.Lx_pow(e - 1))
        return self._Lx_pow[e]

    def Rx_pow(self, e: int) -> Mat:
        if e not in self._Rx_pow:
            self._Rx_pow[e] = self.Rx.matmul(self.Rx_pow(e - 1))
        return self._Rx_pow[e]

    @functools.cached_property
    def sparse_actions(self) -> tuple[list, list]:
        """The ``sparse_rows`` of R_k and of L_k, read once per bimodule."""
        return [sparse_rows(A) for A in self.R_k], [sparse_rows(A) for A in self.L_k]

    def hom(self, t: TensorElem) -> Mat:
        """The matrix of m -> sum_c u_c m x^c for t = sum_c u_c (x) x^c; u_c =
        sum_a k_a x^a acts as L(k_a) Lx^a, with no x^0 factor, or as s if k_a = s 1."""
        unit, one = self.alg.K.unit, self.field.one
        i = next(j for j, c in enumerate(unit) if not c.is_zero())
        out = None
        for c in t.powers():
            u = t.left_factor(c)
            for a in u.x_degrees():
                k = u.k_coeff(a).coords
                s = k[i] / unit[i]
                ops = [self.Lx_pow(a)] * (a > 0) + [self.Rx_pow(c)] * (c > 0)
                if vscale(s, unit) != k:
                    ops, s = [self.L_elem(k), *ops], one
                term = functools.reduce(Mat.matmul, ops or [self.Lx_pow(0)])
                term = term if s == one else term.scale(s)
                out = term if out is None else out.add(term)
        return Mat.zero(self.field, self.dim, self.dim) if out is None else out

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
                ei, ej = K.basis_elem(i).coords, K.basis_elem(j).coords
                if self.L_k[i].matmul(self.L_k[j]) != self.L_elem(K.kmul(ei, ej)):
                    failures.append(f"left action not multiplicative at ({i},{j})")
                if self.R_k[j].matmul(self.R_k[i]) != self.R_elem(K.kmul(ei, ej)):
                    failures.append(f"right action not anti-multiplicative at ({i},{j})")
                if failures:
                    return ValidationReport(False, tuple(failures))
        for b in range(K.dim):
            lam = K.basis_elem(b).coords
            tw = alg.alpha.apply(lam)
            if self.Lx.matmul(self.L_k[b]) != self.L_elem(tw).matmul(self.Lx):
                failures.append(f"left x-relation fails at basis {b}")
            if self.R_k[b].matmul(self.Rx) != self.Rx.matmul(self.R_elem(tw)):
                failures.append(f"right x-relation fails at basis {b}")
            if failures:
                return ValidationReport(False, tuple(failures))
        for Lg in self.L_k + [self.Lx]:
            for Rh in self.R_k + [self.Rx]:
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
    a K-bimodule once K and alpha are certified, whatever f.

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
        basis = M._invariants[id(twist)] = twisted_kernel(
            M.field, M.dim, *M.sparse_actions, twist, generators
        )
    return basis


class SmallComplex:
    """The small complex C^r = M^{alpha^{t(r)}} with compiled differentials
    d^r = Hom(d'_r, M), the ``M.hom`` of ``Resolution.d_generator(r)``.

    C^r and d^r depend on r only through the twist alpha^{t(r)} and the
    parity of r, so equal inputs share one object:
    - ``bases[r]`` is the ``twisted_invariants`` basis, cached on M by the
      exact entries of alpha^{t(r)}, and ``solvers[r]`` is one solver per
      distinct basis;
    - ``dmats[r]`` is compiled once per (basis of degree r - 1, basis of
      degree r, r mod 2), by identity of the cached bases;
    - d^{r+1} d^r = 0 is checked once per distinct pair of differentials;
    - the groups of ``cohomology_group`` share their cores (see
      ``CohomologyGroup``).
    Once alpha^{kn} = id the complex repeats with period 2k and the later
    degrees are aliases.  Nothing reads the order of alpha: a twist whose
    powers are never equal matrices compiles every degree."""

    def __init__(self, alg: MonogenicAlgebra, M: Bimodule, max_degree: int):
        self.alg = alg
        self.M = M
        self.max_degree = max_degree
        self.field = M.field
        self._groups: dict[int, "CohomologyGroup"] = {}
        self._cores: dict[tuple, "_GroupCore"] = {}  # ids of (d^r, d^{r+1}, C^r) -> core
        res = Resolution(alg, max_degree)
        self._d_ops = [M.hom(res.d_generator(2)), M.hom(res.d_generator(1))]  # by r mod 2
        self.bases: list[Mat] = []
        self.solvers: list[LinSolver] = []
        by_basis: dict[int, LinSolver] = {}  # id of a cached basis -> its solver
        for r in range(max_degree + 1):
            B = twisted_invariants(M, twist_exponent(r, alg.n))
            if id(B) not in by_basis:
                by_basis[id(B)] = LinSolver(B)
            self.bases.append(B)
            self.solvers.append(by_basis[id(B)])
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

    def dim_cochain(self, r: int) -> int:
        return self.bases[r].cols

    def d_ambient(self, r: int, v: tuple) -> tuple:
        """The differential into degree r evaluated on an ambient M-vector."""
        return self._d_ops[r % 2].matvec(v)

    def _compile_d(self, r: int) -> Mat:
        cols = []
        for j in range(self.bases[r - 1].cols):
            v = self.bases[r - 1].column(j)
            w = self.d_ambient(r, v)
            sol = self.solvers[r].solve(w)
            if sol is None:
                raise CohomologyError(
                    f"differential image leaves the twisted invariants in degree {r}"
                )
            cols.append(sol)
        return Mat.from_columns(self.field, cols, self.bases[r].cols)

    def to_sub(self, r: int, v_ambient: tuple) -> tuple:
        sol = self.solvers[r].solve(v_ambient)
        if sol is None:
            raise CohomologyError(f"vector is not in the degree-{r} cochain space")
        return sol

    def to_ambient(self, r: int, v_sub: tuple) -> tuple:
        return self.bases[r].matvec(v_sub)


def build_small_complex(alg: MonogenicAlgebra, M: Bimodule, max_degree: int) -> SmallComplex:
    return SmallComplex(alg, M, max_degree)


class _GroupCore:
    """What H^r reads from its inputs d^r, d^{r+1} and C^r alone: the kernel
    of d^{r+1}, the image of d^r (empty for r = 0), the representatives (a
    complement of the image in the kernel, over C^r and in M) and the solver
    for class coordinates."""

    def __init__(self, complex_: SmallComplex, r: int):
        field = complex_.field
        dim = complex_.dim_cochain(r)
        self.kernel = kernel_basis(complex_.dmats[r + 1])
        if r == 0:
            self.image = Mat.from_columns(field, [], dim)
        else:
            self.image = EchelonTracker(field, dim).extend(complex_.dmats[r])
        self.reps_sub = quotient_basis(self.image, self.kernel)
        self.reps_ambient = [complex_.to_ambient(r, c) for c in self.reps_sub.columns_list()]
        mixed = Mat.from_columns(
            field, self.reps_sub.columns_list() + self.image.columns_list(), dim
        )
        self.class_solver = LinSolver(mixed)


class CohomologyGroup:
    """H^r of a small complex with explicit ambient representatives and
    deterministic class coordinates.

    The degree-independent part is a ``_GroupCore`` kept on the complex and
    keyed by the identities of (d^r, d^{r+1}, C^r), so the degrees r >= 1 of
    one period share it.  ``dmats[0]`` is None, so H^0 has a key of its own.
    The group keeps its degree: its errors name the degree asked for."""

    def __init__(self, complex_: SmallComplex, r: int):
        if r + 1 > complex_.max_degree:
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
        self.reps_ambient = core.reps_ambient
        self.dim = core.reps_sub.cols

    def is_cocycle_sub(self, v_sub: tuple) -> bool:
        return not support(self.complex.dmats[self.degree + 1].matvec(v_sub))

    def class_coords(self, v_ambient: tuple) -> tuple:
        """Coordinates of a cocycle's class over the representative basis."""
        v_sub = self.complex.to_sub(self.degree, v_ambient)
        if not self.is_cocycle_sub(v_sub):
            raise CohomologyError("vector is not a cocycle")
        sol = self.core.class_solver.solve(v_sub)
        if sol is None:
            raise CohomologyError("cocycle outside kernel span (inconsistent state)")
        return sol[: self.dim]

    def is_coboundary(self, v_ambient: tuple) -> bool:
        return not support(self.class_coords(v_ambient))


def cohomology_group(C: SmallComplex, r: int) -> CohomologyGroup:
    if r not in C._groups:
        C._groups[r] = CohomologyGroup(C, r)
    return C._groups[r]


def classes_equal(C: SmallComplex, r: int, a: tuple, b: tuple) -> bool:
    """Whether two ambient cocycles in degree r are cohomologous."""
    H = cohomology_group(C, r)
    diff = tuple(x - y for x, y in zip(a, b))
    return not support(H.class_coords(diff))


def cohomology_dims(C: SmallComplex, up_to: int) -> list[int]:
    return [cohomology_group(C, r).dim for r in range(up_to + 1)]


def complex_report(C: SmallComplex) -> list[dict]:
    """Per-degree data for reports; covers 0 .. max_degree - 1."""
    out = []
    encoded: dict[int, list] = {}  # id of a group core -> its encoded representatives
    for r in range(C.max_degree):
        H = cohomology_group(C, r)
        if id(H.core) not in encoded:
            encoded[id(H.core)] = [[C.field.encode(c) for c in rep] for rep in H.reps_ambient]
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
