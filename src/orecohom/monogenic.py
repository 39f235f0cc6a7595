"""The quotient algebra A = K[x, alpha]/<f> and the two-periodic bimodule
resolution of A with its contracting homotopy.

Conventions, fixed once here and relied on everywhere downstream:

* B = K[x, alpha] is the Ore extension with left coefficients:
  P = sum c_d x^d with c_d in K, and x lambda = alpha(lambda) x.  B is notation
  only: the engine computes in A, through its compiled table, and on
  coefficient lists.
* f = x^n + lambda_1 x^{n-1} + ... + lambda_n is monic of degree n >= 2 and its
  coefficients must be alpha-fixed and satisfy lambda_i mu = alpha^i(mu) lambda_i;
  `validate_f` checks exactly that.  The algebra holds f in one form,
  ``f_terms`` = [c_0, ..., c_n] with c_i the coefficient of x^i and c_n = 1.
* A has k-basis {lambda_b x^a : b < dim K, 0 <= a < n}, flat index a*dimK + b.
* The twisted tensor square carries k-basis {lambda_b x^a (x) x^c} with all
  middle K-coefficients pushed into the left factor through the twist:
  u (x) mu x^c = u . alpha^{r+c}(mu) (x) x^c.  Flat index (c*n + a)*dimK + b,
  that is c*dimA + i with i the flat index of lambda_b x^a in A.
"""

from __future__ import annotations

import functools
import itertools

from .fields import Field, Scalar, mixed
from .kalgebra import AlgebraError, AlgebraK, Endo, ValidationReport, algebra_validate, table_mul
from .linalg import combine, support, vadd


class MonogenicError(ValueError):
    pass


def validate_f(K: AlgebraK, alpha: Endo, f_coeffs: list) -> ValidationReport:
    """Check the admissibility of f = x^n + lambda_1 x^{n-1} + ... + lambda_n:
    each lambda_i is alpha-fixed and lambda_i mu = alpha^i(mu) lambda_i on a
    K-basis.  f_coeffs lists lambda_1 .. lambda_n (constant term last)."""
    failures = []
    n = len(f_coeffs)
    if n < 2:
        return ValidationReport(False, ("degree must be at least 2",))
    lam = [K.elem(c) for c in f_coeffs]
    for i, li in enumerate(lam, start=1):
        if alpha.apply(li) != li:
            failures.append(f"coefficient {i} is not alpha-fixed")
    for i, li in enumerate(lam, start=1):
        if all(c.is_zero() for c in li):
            continue
        for b in range(K.dim):
            mu = K.basis_elem(b)
            if K.kmul(li, mu) != K.kmul(alpha.apply_power(i, mu), li):
                failures.append(
                    f"coefficient {i} fails the commutation rule at basis {b}"
                )
                return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def instance_checks(K: AlgebraK, alpha: Endo, f_coeffs: list) -> list[tuple[str, ValidationReport]]:
    """The checks that A = K[x, alpha]/<f> presumes of its data, in order, by
    name: K is associative and unital, alpha fixes its unit, is
    multiplicative and invertible, and f is admissible (``validate_f``).
    ``validate`` reports each; a checked ``MonogenicAlgebra`` refuses the
    first that fails.  On a valid K and twist the first two read the cached
    generator certificates that the twisted invariants read."""
    k_rep, twist_rep = algebra_validate(K), alpha.validate()
    if twist_rep.ok and not alpha.is_automorphism:
        twist_rep = ValidationReport(False, ("twist matrix is not invertible",))
    return [("coefficient-algebra", k_rep), ("twist", twist_rep),
            ("defining-polynomial", validate_f(K, alpha, f_coeffs))]


class AElem:
    """Element of A in normal form, stored as its nonzero coordinates over
    {lambda_b x^a}: ``nz`` is {flat index: nonzero entry}, Scalars of A's
    field taken as given.

    ``AElem(alg, coords)`` takes the dense coordinates and keeps their
    nonzero entries; products, sums, scalings and the basis builders of the
    algebra (``monomial``, ``k_embed``, ``basis_vector``) make ``nz``
    directly.  ``coords``, the dense tuple, is built on each read.  ``==``
    raises :func:`mixed` on an entry of another field."""

    __slots__ = ("alg", "nz")

    def __init__(self, alg: "MonogenicAlgebra", coords):
        coords = tuple(coords)
        if len(coords) != alg.adim:
            raise MonogenicError("coordinate length mismatch")
        zv = alg.field.zero.v
        self.alg = alg
        self.nz = {i: s for i, s in enumerate(coords) if s.v != zv}

    @classmethod
    def _of(cls, alg: "MonogenicAlgebra", nz: dict) -> "AElem":
        """The element with the nonzero coordinates nz, {flat index: entry}."""
        out = cls.__new__(cls)
        out.alg, out.nz = alg, nz
        return out

    @property
    def coords(self) -> tuple:
        zero, nz = self.alg.field.zero, self.nz
        return tuple(nz.get(i, zero) for i in range(self.alg.adim))

    def __add__(self, other):
        one = self.alg.field.one
        return AElem._of(self.alg, combine([(one, self.nz), (one, other.nz)]))

    def __sub__(self, other):
        one = self.alg.field.one
        return AElem._of(self.alg, combine([(one, self.nz), (-one, other.nz)]))

    def __neg__(self):
        return AElem._of(self.alg, {i: -s for i, s in self.nz.items()})

    def __mul__(self, other):
        if isinstance(other, AElem):
            return self.alg.a_mul(self, other)
        return AElem._of(self.alg, combine([(self.alg.field.scalar(other), self.nz)]))

    def __rmul__(self, other):
        return AElem._of(self.alg, combine([(self.alg.field.scalar(other), self.nz)]))

    def is_zero(self):
        return not self.nz

    def k_coeff(self, a: int) -> tuple:
        """The K-coefficient of x^a."""
        d, nz, zero = self.alg.K.dim, self.nz, self.alg.field.zero
        return tuple(nz.get(i, zero) for i in range(a * d, (a + 1) * d))

    def x_degrees(self):
        """Indices a with nonzero x^a coefficient."""
        return sorted({i // self.alg.K.dim for i in self.nz})

    def __eq__(self, other):
        if not isinstance(other, AElem) or self.alg is not other.alg:
            return False
        field = self.alg.field
        for s in (*self.nz.values(), *other.nz.values()):
            if s.field is not field:
                raise mixed(field, s.field)
        return self.nz == other.nz

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.nz)))

    def __repr__(self):
        names, terms = self.alg.K.basis_names, []
        for a in range(self.alg.n):
            k = " + ".join(f"({c})*{names[b]}" for b, c in enumerate(self.k_coeff(a)) if not c.is_zero())
            if k:
                terms.append(f"({k})*x^{a}" if a else f"({k})")
        return " + ".join(terms) if terms else "0"


class MonogenicAlgebra:
    """A = K[x, alpha]/<f> with compiled normal-form multiplication.  A checked
    build runs ``instance_checks`` before it compiles and ``check_compiled``
    after.  A failed check of K or the twist raises AlgebraError with its
    first failure, a failed check of f MonogenicError with all of its
    failures; so a twist that is not an invertible endomorphism is refused.
    ``check=False`` compiles whatever it is given."""

    def __init__(self, K: AlgebraK, alpha: Endo, f_coeffs: list, check: bool = True):
        self.K = K
        self.alpha = alpha
        self.field: Field = K.field
        lam = [K.elem(c) for c in f_coeffs]  # lambda_1 .. lambda_n
        self.n = len(lam)
        self.f_terms = [*reversed(lam), K.unit]  # c_0 .. c_n, c_i at x^i
        if check:
            for name, rep in instance_checks(K, alpha, f_coeffs):
                if not rep.ok and name == "defining-polynomial":
                    raise MonogenicError("; ".join(rep.failures))
                if not rep.ok:
                    raise AlgebraError(rep.failures[0])
        self.adim = K.dim * self.n
        self._xpow_bar: dict[int, AElem] = {}
        self._compile()
        if check:
            self.check_compiled()

    # -- basis bookkeeping ---------------------------------------------------

    def idx(self, b: int, a: int) -> int:
        return a * self.K.dim + b

    def basis_vector(self, i: int) -> AElem:
        """The flat basis element lambda_b x^a, i = a*dimK + b."""
        if not 0 <= i < self.adim:
            raise IndexError("basis index out of range")
        return AElem._of(self, {i: self.field.one})

    @functools.cached_property
    def one(self) -> AElem:
        return self.k_embed(self.K.unit)

    def zero_elem(self) -> AElem:
        return AElem._of(self, {})

    def k_embed(self, u) -> AElem:
        return self.monomial(u, 0)

    def monomial(self, u, a: int) -> AElem:
        """The element u x^a for u in K and 0 <= a < n.  A tuple of dim K
        Scalars of A's field is taken as given; raw values go through
        ``K.elem``."""
        if not (isinstance(u, tuple) and len(u) == self.K.dim
                and all(isinstance(c, Scalar) and c.field is self.field for c in u)):
            u = self.K.elem(u)
        if not 0 <= a < self.n:
            raise IndexError("x-degree out of range")
        zv, base = self.field.zero.v, a * self.K.dim
        return AElem._of(self, {base + b: c for b, c in enumerate(u) if c.v != zv})

    @functools.cached_property
    def x(self) -> AElem:
        return self.monomial(self.K.unit, 1)

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        """Set the stored powers of ``xpow``, ``wrap_terms`` and the sparse
        ``mul_table``: (e_b x^a)(e_b2 x^a2) = u x^(a + a2) with
        u = e_b alpha^a(e_b2).  For a + a2 < n, x^(a + a2) is its own normal
        form and u is stored as it is, which takes K's unit law on trust: a
        checked build runs ``instance_checks`` first; else u multiplies each
        nonzero K-coefficient of the normal form."""
        K, n = self.K, self.n
        # normal form of x^m for 0 <= m <= 2n: list over j < n of K-coordinate vectors
        zero = tuple(self.field.zero for _ in range(K.dim))
        nf: list[list[tuple]] = []
        for m in range(n):
            row = [zero] * n
            row[m] = K.unit
            nf.append(row)
        for m in range(n, 2 * n + 1):
            row = [zero] * n
            for i, ci in enumerate(self.f_terms[:n]):
                if all(c.is_zero() for c in ci):
                    continue
                c = self.alpha.apply_power(m - n, ci)
                for j, prev in enumerate(nf[m - n + i]):
                    row[j] = vadd(row[j], tuple(-s for s in K.kmul(c, prev)))
            nf.append(row)
        self._xpows = [AElem(self, [c for cj in row for c in cj]) for row in nf]  # flat index j*dimK + b
        # x^n = sum_j kappa_j x^j: the nonzero kappa_j, read by every right x action
        self.wrap_terms = [(j, kappa) for j, kappa in enumerate(nf[n]) if support(kappa)]
        # alpha^a(e_b2) is column b2 of alpha^a; the reduced powers x^n .. x^(2n - 2)
        # keep their nonzero K-coefficients as (j, sparse c_j)
        images = [self.alpha.power_matrix(a).transpose().sparse for a in range(n)]
        reduced = [[(j, cj) for j, c in enumerate(row) if (cj := support(c))] for row in nf[n:]]
        table: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        one = self.field.one
        for b, a in itertools.product(range(K.dim), range(n)):
            for b2, image in enumerate(images[a]):
                u = sorted(table_mul(K.mul_table, [(b, one)], image.items()).items())
                if not u:
                    continue
                for a2 in range(n):
                    if a + a2 < n:
                        terms = [(self.idx(b3, a + a2), s) for b3, s in u]
                    else:
                        terms = []
                        for j, cj in reduced[a + a2 - n]:
                            w = table_mul(K.mul_table, u, cj)
                            terms += [(self.idx(b3, j), w[b3]) for b3 in sorted(w)]
                    if terms:
                        table[(self.idx(b, a), self.idx(b2, a2))] = terms
        self.mul_table = table

    def check_compiled(self) -> None:
        """Raise MonogenicError unless the compiled table obeys the commutation
        rule and f is normal; run by a checked build, after ``instance_checks``."""
        K, alpha = self.K, self.alpha
        # x lambda = alpha(lambda) x for all basis lambda, on the compiled table
        for b in range(K.dim):
            lam = K.basis_elem(b)
            lhs = self.a_mul(self.x, self.k_embed(lam))
            rhs = self.a_mul(self.k_embed(alpha.apply(lam)), self.x)
            if lhs != rhs:
                raise MonogenicError(f"compiled table breaks the commutation rule at basis {b}")
        # f is normal in B, read at each x^d: f x = x f is c_d alpha^d(1) = 1 alpha(c_d),
        # and f mu = alpha^n(mu) f is c_d alpha^d(mu) = alpha^n(mu) c_d
        if any(K.kmul(c, alpha.apply_power(d, K.unit)) != K.kmul(K.unit, alpha.apply(c))
               for d, c in enumerate(self.f_terms)):
            raise MonogenicError("f does not commute with x")
        for b in range(K.dim):
            mu = K.basis_elem(b)
            tw = alpha.apply_power(self.n, mu)
            if any(K.kmul(c, alpha.apply_power(d, mu)) != K.kmul(tw, c)
                   for d, c in enumerate(self.f_terms)):
                raise MonogenicError(f"f lambda = alpha^n(lambda) f fails at basis {b}")

    # -- arithmetic ----------------------------------------------------------

    def a_mul(self, a: AElem, b: AElem) -> AElem:
        """The product on the compiled table, read on the nonzero
        coordinates of both factors."""
        return AElem._of(self, table_mul(self.mul_table, a.nz.items(), b.nz.items()))

    def xpow(self, m: int) -> AElem:
        """Normal form of x^m in A, any m >= 0.  For m <= 2n it is the element
        the compile stored, one object per m, which callers must not mutate;
        above, the product of two lower powers."""
        if m <= 2 * self.n:
            return self._xpows[m]
        return self.a_mul(self.xpow(m // 2), self.xpow(m - m // 2))

    def xpow_bar(self, e: int) -> AElem:
        """Image in A of the quotient q_e of x^e = q_e f + r_e, deg r_e < n.

        q_e = 0 for e < n and q_n = 1; multiplying by x on the left gives
        q_{e+1} = x q_e + alpha(c), with c the x^{n-1} coefficient of r_e, the
        normal form of x^e.  Each exponent is computed once."""
        bar = self._xpow_bar.get(e)
        if bar is None:
            if e <= self.n:
                bar = self.one if e == self.n else self.zero_elem()
            else:
                c = self.xpow(e - 1).k_coeff(self.n - 1)
                bar = self.x * self.xpow_bar(e - 1) + self.k_embed(self.alpha.apply(c))
            self._xpow_bar[e] = bar
        return bar


# ---------------------------------------------------------------------------
# twisted tensor square and the resolution
# ---------------------------------------------------------------------------


class TensorElem:
    """Element of the twisted tensor square on basis {lambda_b x^a (x) x^c},
    held sparsely as flat index -> nonzero Scalar.  Read by power of x, it is
    sum_c u_c (x) x^c with left factors u_c in A, and every action is one
    product in A on each nonzero u_c."""

    __slots__ = ("alg", "twist", "coords")

    def __init__(self, alg: MonogenicAlgebra, twist: int, coords: dict):
        self.alg = alg
        self.twist = twist
        zv = alg.field.zero.v
        self.coords = {i: s for i, s in coords.items() if s.v != zv}

    @classmethod
    def zero(cls, alg: MonogenicAlgebra, twist: int) -> "TensorElem":
        return cls(alg, twist, {})

    @classmethod
    def from_blocks(cls, alg: MonogenicAlgebra, twist: int, blocks: dict) -> "TensorElem":
        """sum_c u_c (x) x^c for the entries c: u_c of ``blocks``."""
        adim = alg.adim
        coords = {c * adim + i: s for c, u in blocks.items() for i, s in u.nz.items()}
        return cls(alg, twist, coords)

    @classmethod
    def from_aelem(cls, left: AElem, c: int, twist: int) -> "TensorElem":
        return cls.from_blocks(left.alg, twist, {c: left})

    def powers(self) -> list[int]:
        """The c with a nonzero left factor u_c, ascending."""
        return sorted({flat // self.alg.adim for flat in self.coords})

    def left_factor(self, c: int) -> AElem:
        adim = self.alg.adim
        base = c * adim
        part = {i - base: s for i, s in self.coords.items() if base <= i < base + adim}
        return AElem._of(self.alg, part)

    def _blocks(self) -> dict[int, AElem]:
        """The nonzero left factors {c: u_c}, by ascending c."""
        adim, parts = self.alg.adim, {}
        for flat, s in self.coords.items():
            c, i = divmod(flat, adim)
            parts.setdefault(c, {})[i] = s
        return {c: AElem._of(self.alg, parts[c]) for c in sorted(parts)}

    def add_scaled(self, other: "TensorElem", s: Scalar | None = None) -> "TensorElem":
        """self + s * other (s = None stands for 1)."""
        if self.twist != other.twist:
            raise MonogenicError("twist mismatch in tensor sum")
        one = self.alg.field.one
        out = combine([(one, self.coords), (one if s is None else s, other.coords)])
        return TensorElem(self.alg, self.twist, out)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return self.add_scaled(other)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        return self.add_scaled(other, -self.alg.field.one)

    def __neg__(self) -> "TensorElem":
        return TensorElem(self.alg, self.twist, {i: -s for i, s in self.coords.items()})

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        return (
            isinstance(other, TensorElem)
            and self.alg is other.alg
            and self.twist == other.twist
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.alg), self.twist, frozenset(self.coords)))

    def leftmul(self, a: AElem) -> "TensorElem":
        """a . (u_c (x) x^c) = (a u_c) (x) x^c."""
        blocks = {c: a * u for c, u in self._blocks().items()}
        return TensorElem.from_blocks(self.alg, self.twist, blocks)

    def rightmul_k(self, mu) -> "TensorElem":
        """Right action of mu in K: migrates through the twist,
        (u_c (x) x^c) mu = u_c alpha^{t+c}(mu) (x) x^c."""
        alg = self.alg
        mu = alg.K.elem(mu)
        blocks = {
            c: u * alg.k_embed(alg.alpha.apply_power(self.twist + c, mu))
            for c, u in self._blocks().items()
        }
        return TensorElem.from_blocks(alg, self.twist, blocks)

    def rightmul_x(self) -> "TensorElem":
        """Shift u_c (x) x^c to u_c (x) x^{c+1}; the top block meets
        x^n = sum_j kappa_j x^j and becomes sum_j u_{n-1} alpha^t(kappa_j) (x) x^j."""
        alg, n = self.alg, self.alg.n
        factors = self._blocks()
        blocks = {c + 1: u for c, u in factors.items() if c + 1 < n}
        top = factors.get(n - 1)
        if top is not None:
            for j, kappa in alg.wrap_terms:
                term = top * alg.k_embed(alg.alpha.apply_power(self.twist, kappa))
                blocks[j] = blocks[j] + term if j in blocks else term
        return TensorElem.from_blocks(alg, self.twist, blocks)

    def rightmul_xpow(self, d: int) -> "TensorElem":
        out = self
        for _ in range(d):
            out = out.rightmul_x()
        return out

    def __repr__(self):
        terms = [f"({u}) (x) x^{c}" for c, u in self._blocks().items()]
        return " + ".join(terms) if terms else "0"


def derivation_tensor(alg: MonogenicAlgebra, i: int) -> TensorElem:
    """The divided-difference tensor of x^i: sum_l x^l (x) x^{i-l-1}, twist 1.

    Defined for any i >= 0; exponents at or above n are reduced to normal form."""
    out = TensorElem.zero(alg, 1)
    for l in range(i):
        term = TensorElem.from_aelem(alg.xpow(l), 0, 1).rightmul_xpow(i - l - 1)
        out = out + term
    return out


def derivation(alg: MonogenicAlgebra, coeffs: list) -> TensorElem:
    """Image of sum_d coeffs[d] x^d, with coeffs[d] K-coordinates, under the
    K-derivation sending x to 1 (x) 1 (coefficients pass left)."""
    out = TensorElem.zero(alg, 1)
    for d, vec in enumerate(coeffs):
        if all(c.is_zero() for c in vec):
            continue
        out = out + derivation_tensor(alg, d).leftmul(alg.k_embed(vec))
    return out


def normality_check(alg: MonogenicAlgebra) -> ValidationReport:
    """On the twist-1 tensor square: the derivation of f x^i equals both
    x^i . (derivation of f) and (derivation of f) . x^i, for 0 <= i < n.
    The coefficient of f x^i at x^{d+i} is c_d alpha^d(1)."""
    failures = []
    K = alg.K
    df = derivation(alg, alg.f_terms)
    fx = [K.kmul(c, alg.alpha.apply_power(d, K.unit)) for d, c in enumerate(alg.f_terms)]
    zero = (alg.field.zero,) * K.dim
    for i in range(alg.n):
        lhs = derivation(alg, [zero] * i + fx)
        mid = df.leftmul(alg.xpow(i))
        rhs = df.rightmul_xpow(i)
        if lhs != mid:
            failures.append(f"derivation of f x^{i} differs from x^{i} action")
        if lhs != rhs:
            failures.append(f"derivation of f x^{i} differs from right x^{i} action")
        if failures:
            break
    return ValidationReport(not failures, tuple(failures))


def twist_exponent(r: int, n: int) -> int:
    """Twist of the degree-r term of the resolution/complex: mn for r = 2m,
    mn + 1 for r = 2m + 1."""
    return (r // 2) * n + (r % 2)


class Resolution:
    """The two-periodic resolution of A by twisted tensor squares, through a
    fixed top degree, with maps stored columnwise on the flat tensor basis.
    The generator images, and the columns per class of degrees, are cached.

    A column of d'_r reads the twist only where the right action of x wraps
    x^n to sum_j kappa_j x^j, through alpha^{t(r-1)}(kappa_j); sigma_r reads
    no twist.  So the columns are keyed by ``_fold``: for an admissible f,
    whose kappa_j are alpha-fixed, the classes are the two parities."""

    def __init__(self, alg: MonogenicAlgebra, max_degree: int):
        self.alg = alg
        self.max_degree = max_degree
        self.tdim = alg.adim * alg.n
        self._generators: dict[int, TensorElem] = {}
        self._folds: dict[int, int] = {}  # degree -> its fold class
        self._fold_keys: dict[tuple, int] = {}  # (r mod 2, alpha^{t(r-1)}(kappa_j)) -> class
        self._d_cols: dict[tuple[int, int], TensorElem] = {}  # (class, flat) -> column
        self._s_cols: dict[tuple[int, int], TensorElem] = {}

    def twist(self, r: int) -> int:
        return twist_exponent(r, self.alg.n)

    def _fold(self, r: int) -> int:
        """The class of degree r under (r mod 2, the payloads of
        alpha^{t(r-1)}(kappa_j) for the ``wrap_terms`` kappa_j of x^n): d'_r
        and sigma_r read r only through it, up to the twist tag of their
        columns.  It fixes alpha^{t(r)}(kappa_j) too, since t(r) - t(r-1)
        depends only on the parity of r."""
        cls = self._folds.get(r)
        if cls is None:
            alg, t = self.alg, self.twist(r - 1)
            wraps = tuple(tuple(s.v for s in alg.alpha.apply_power(t, kappa))
                          for _, kappa in alg.wrap_terms)
            cls = self._folds[r] = self._fold_keys.setdefault((r % 2, wraps), len(self._fold_keys))
        return cls

    def _tagged(self, col: TensorElem, twist: int) -> TensorElem:
        return col if col.twist == twist else TensorElem(self.alg, twist, col.coords)

    def basis_tensor(self, r: int, flat: int) -> TensorElem:
        return TensorElem(self.alg, self.twist(r), {flat: self.alg.field.one})

    def d_generator(self, r: int) -> TensorElem:
        """Image of the generator 1 (x) 1 under d'_r, in the degree r-1 module:
        x (x) 1 - 1 (x) x for odd r, the derivation of f for even r.  The one
        definition of d': the small complex is its Hom into M."""
        if r in self._generators:
            return self._generators[r]
        alg = self.alg
        tw = self.twist(r - 1)
        if r % 2 == 1:
            onex = TensorElem.from_aelem(alg.one, 0, tw).rightmul_x()
            out = TensorElem.from_aelem(alg.x, 0, tw) - onex
        else:
            out = TensorElem(alg, tw, derivation(alg, alg.f_terms).coords)
        self._generators[r] = out
        return out

    def d_column(self, r: int, flat: int) -> TensorElem:
        """d'_r applied to the flat basis vector e_i (x) x^c, flat = c*adim + i,
        of the degree-r module: e_i . d'_r(1 (x) 1) . x^c."""
        key = self._fold(r), flat
        col = self._d_cols.get(key)
        if col is None:
            c, i = divmod(flat, self.alg.adim)
            col = self.d_generator(r).leftmul(self.alg.basis_vector(i)).rightmul_xpow(c)
            self._d_cols[key] = col
        return self._tagged(col, self.twist(r - 1))

    def _apply(self, column, r: int, t: TensorElem, twist: int) -> TensorElem:
        """sum of s * column(r, flat) over the entries flat: s of t, summed
        into one dict."""
        out = combine((s, column(r, flat).coords) for flat, s in t.coords.items())
        return TensorElem(self.alg, twist, out)

    def apply_d(self, r: int, t: TensorElem) -> TensorElem:
        return self._apply(self.d_column, r, t, self.twist(r - 1))

    def s_column(self, r: int, flat: int) -> TensorElem:
        """sigma_r applied to the flat basis vector e_i (x) x^c of the degree
        r-1 module."""
        key = self._fold(r), flat
        col = self._s_cols.get(key)
        if col is None:
            alg = self.alg
            c, i = divmod(flat, alg.adim)
            left = alg.basis_vector(i)
            tw = self.twist(r)
            col = TensorElem.zero(alg, tw)
            if r % 2 == 1:
                for l in range(c):
                    col = col - TensorElem.from_aelem(left * alg.xpow(l), c - l - 1, tw)
            elif c == alg.n - 1:
                col = TensorElem.from_aelem(left, 0, tw)
            self._s_cols[key] = col
        return self._tagged(col, self.twist(r))

    def apply_s(self, r: int, t: TensorElem) -> TensorElem:
        return self._apply(self.s_column, r, t, self.twist(r))

    def augmentation(self, t: TensorElem) -> AElem:
        """The multiplication map from degree 0 to A."""
        alg = self.alg
        out = alg.zero_elem()
        for c, u in t._blocks().items():
            out = out + u * alg.xpow(c)
        return out

    def sigma0(self, a: AElem) -> TensorElem:
        return TensorElem.from_aelem(a, 0, 0)

    def contraction_check(self) -> ValidationReport:
        """Exact verification that sigma contracts the complex onto A:
        augmentation . sigma0 = id, d'_1 sigma_1 + sigma_0 . augmentation = id,
        d'_{r+1} sigma_{r+1} + sigma_r d'_r = id, and d' . d' = 0.  d'_r and
        sigma_r read r only through its ``_fold`` (the parity and the twisted
        wrap terms of x^n), which also fixes the class of r + 1, so each
        identity is checked in the first degree r of each class: degrees 1
        and 2 for an admissible f.  Past the first identity no tensor is
        built: the columns of d' and sigma are read once per degree as dicts;
        on each basis tensor e, (d'_1 sigma_1 + sigma_0 . augmentation) e and
        (d'_{r+1} sigma_{r+1} + sigma_r d'_r) e are one ``combine`` each,
        compared with e, and d'_r d'_{r+1} e is one that must be empty."""
        alg = self.alg
        for flat in range(alg.adim):
            a = alg.basis_vector(flat)
            if self.augmentation(self.sigma0(a)) != a:
                return ValidationReport(False, (f"augmentation section fails at basis {flat}",))
        first: dict[int, int] = {}  # class -> its first degree, ascending
        for r in range(1, self.max_degree + 1):
            first.setdefault(self._fold(r), r)
        flats, one = range(self.tdim), alg.field.one
        degrees = sorted({*first.values(), *(r + 1 for r in first.values())})  # 1 among them
        s = {r: [self.s_column(r, flat).coords for flat in flats] for r in degrees}
        d = {r: [self.d_column(r, flat).coords for flat in flats] for r in degrees}
        for flat in flats:
            c, i = divmod(flat, alg.adim)
            section = (alg.basis_vector(i) * alg.xpow(c)).nz  # sigma_0 . augmentation
            lhs = combine([*((x, d[1][j]) for j, x in s[1][flat].items()), (one, section)])
            if lhs != {flat: one}:
                return ValidationReport(False, (f"degree-0 homotopy identity fails at basis {flat}",))
        for r in first.values():
            for flat in flats:
                lhs = combine([*((x, d[r + 1][j]) for j, x in s[r + 1][flat].items()),
                               *((x, s[r][j]) for j, x in d[r][flat].items())])
                if lhs != {flat: one}:
                    return ValidationReport(False, (f"homotopy identity fails in degree {r} at basis {flat}",))
        for r in first.values():
            for flat in flats:
                if combine((x, d[r][j]) for j, x in d[r + 1][flat].items()):
                    return ValidationReport(False, (f"d.d is nonzero in degree {r + 1} at basis {flat}",))
        return ValidationReport(True, ())
