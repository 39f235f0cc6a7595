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
* An element of K is a payload row {basis index: nonzero payload}, as
  ``AlgebraK.elem`` returns it: ``K.unit``, ``f_terms``, ``wrap_terms`` and
  ``k_coeff`` hold it; one that has been handed out is never mutated.
* A has k-basis {lambda_b x^a : b < dim K, 0 <= a < n}, flat index a*dimK + b.
* The twisted tensor square carries k-basis {lambda_b x^a (x) x^c} with all
  middle K-coefficients pushed into the left factor through the twist:
  u (x) mu x^c = u . alpha^{r+c}(mu) (x) x^c.  Flat index (c*n + a)*dimK + b,
  that is c*dimA + i with i the flat index of lambda_b x^a in A.  A tensor
  is its payload row and nothing else: ``Resolution.d_generator`` returns one
  and ``cohomology.Bimodule.hom`` reads one; there is no tensor type.
* Elements of A and of the tensor square, A's compiled table, the actions,
  the resolution's columns and the checks all hold payload rows {flat index:
  nonzero payload} of A's field and read A's and K's tables through
  ``table_mul_into``.  Scalars enter at ``AElem(alg, coords)`` and
  ``AlgebraK.elem`` and leave at ``coords`` and ``__repr__``.
"""

from __future__ import annotations

import functools

from .fields import Field, Scalar
from .kalgebra import AlgebraError, AlgebraK, Endo, ValidationReport, algebra_validate, table_mul_into
from .linalg import dense, payloads, row_sum, same_field


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
        if not li:
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
    {lambda_b x^a}: ``nz`` is the payload row {flat index: nonzero payload}
    of A's field.

    ``AElem(alg, coords)`` takes the dense coordinates, Scalars of A's field
    (:func:`mixed` on another field's), and keeps their nonzero payloads;
    ``_of`` keeps a payload row as given (the group cores' representatives
    enter so), and products, sums, scalings and the basis builders of the
    algebra (``monomial``, ``k_embed``, ``basis_vector``) make ``nz``
    directly.
    ``coords``, the dense tuple, is boxed on each read; ``k_coeff`` is an
    element of K.  An operand of another field raises :func:`mixed`."""

    __slots__ = ("alg", "nz")

    def __init__(self, alg: "MonogenicAlgebra", coords):
        coords = tuple(coords)
        if len(coords) != alg.adim:
            raise MonogenicError("coordinate length mismatch")
        self.alg = alg
        self.nz = payloads(alg.field, enumerate(coords))

    @classmethod
    def _of(cls, alg: "MonogenicAlgebra", nz: dict) -> "AElem":
        """The element with the nonzero coordinates nz, a payload row."""
        out = cls.__new__(cls)
        out.alg, out.nz = alg, nz
        return out

    @property
    def coords(self) -> tuple:
        return dense(self.alg.field, self.nz, self.alg.adim)

    def _sum(self, other: "AElem", sign) -> "AElem":
        F = self.alg.field
        same_field(F, other.alg.field)
        return AElem._of(self.alg, row_sum(F, [(F.one.v, self.nz), (sign, other.nz)]))

    def __add__(self, other):
        return self._sum(other, self.alg.field.one.v)

    def __sub__(self, other):
        F = self.alg.field
        return self._sum(other, F._neg(F.one.v))

    def __neg__(self):
        neg = self.alg.field._neg
        return AElem._of(self.alg, {i: neg(p) for i, p in self.nz.items()})

    def __mul__(self, other):
        if isinstance(other, AElem):
            return self.alg.a_mul(self, other)
        F = self.alg.field
        return AElem._of(self.alg, row_sum(F, [(F.scalar(other).v, self.nz)]))

    def __rmul__(self, other):
        return self * other

    def is_zero(self):
        return not self.nz

    def k_coeff(self, a: int) -> dict:
        """The K-coefficient of x^a, a new element of K."""
        d = self.alg.K.dim
        return {i - a * d: p for i, p in self.nz.items() if i // d == a}

    def x_degrees(self):
        """Indices a with nonzero x^a coefficient."""
        return sorted({i // self.alg.K.dim for i in self.nz})

    def __eq__(self, other):
        if not isinstance(other, AElem) or self.alg is not other.alg:
            return False
        return self.nz == other.nz

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.nz)))

    def __repr__(self):
        F, names, terms = self.alg.field, self.alg.K.basis_names, []
        for a in range(self.alg.n):
            k = self.k_coeff(a)
            k = " + ".join(f"({Scalar(F, k[b])})*{names[b]}" for b in sorted(k))
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
        return AElem._of(self, {i: self.field.one.v})

    @functools.cached_property
    def one(self) -> AElem:
        return self.k_embed(self.K.unit)

    def zero_elem(self) -> AElem:
        return AElem._of(self, {})

    def k_embed(self, u) -> AElem:
        return self.monomial(u, 0)

    def monomial(self, u, a: int) -> AElem:
        """The element u x^a for u an element of K and 0 <= a < n; raw
        values go through ``K.elem`` first."""
        if not 0 <= a < self.n:
            raise IndexError("x-degree out of range")
        base = a * self.K.dim
        return AElem._of(self, {base + b: p for b, p in self.K.elem(u).items()})

    @functools.cached_property
    def x(self) -> AElem:
        return self.monomial(self.K.unit, 1)

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        """Set the stored powers of ``xpow``, ``wrap_terms`` and the sparse
        ``mul_table``: (e_b x^a)(e_b2 x^a2) = u x^(a + a2) with
        u = e_b alpha^a(e_b2), formed once per (a, b, b2) for every a2.  When
        column b2 of alpha^a is one entry s e_c and K's table has e_b e_c = p e_k,
        u = (s p) e_k is read off it; else u is one ``table_mul_into``.  For
        a + a2 < n, x^(a + a2) is its own normal form and u is stored as it
        is, which takes K's unit law on trust: a checked build runs
        ``instance_checks`` first; else u multiplies each nonzero
        K-coefficient of the normal form.  All of it runs on payload rows."""
        K, n, F = self.K, self.n, self.field
        ktab, neg = K.mul_table, F._neg
        # normal form of x^m for 0 <= m <= 2n: list over j < n of K-coefficients
        unit, fs = K.unit, self.f_terms[:n]
        nf: list[list[dict]] = [[unit if j == m else {} for j in range(n)] for m in range(n)]
        for m in range(n, 2 * n + 1):
            twisted = [(i, self.alpha.power_matrix(m - n).apply(ci)) for i, ci in enumerate(fs) if ci]
            row = []
            for j in range(n):  # -sum_i alpha^(m-n)(c_i) (x^(m-n+i))_j
                acc: dict = {}
                for i, c in twisted:
                    table_mul_into(acc, ktab, F, c.items(), nf[m - n + i][j].items())
                row.append({b: neg(p) for b, p in acc.items()})
            nf.append(row)
        d = K.dim
        self._xpows = [AElem._of(self, {j * d + b: p for j, cj in enumerate(row) for b, p in cj.items()})
                       for row in nf]
        # x^n = sum_j kappa_j x^j: the nonzero kappa_j, read by every right x action
        self.wrap_terms = [(j, kappa) for j, kappa in enumerate(nf[n]) if kappa]
        # alpha^a(e_b2) is column b2 of alpha^a; the reduced powers x^n .. x^(2n - 2)
        # keep their nonzero K-coefficients as (j, c_j pairs)
        reduced = [[(j * d, cj.items()) for j, cj in enumerate(row) if cj] for row in nf[n:]]
        table: dict[tuple[int, int], list[tuple]] = {}
        one, mul = F.one.v, F._mul
        for a in range(n):  # the flat index of e_b x^a is a d + b
            low = [(a2 * d, (a + a2) * d) for a2 in range(n - a)]  # x^(a + a2) at its offset
            high = [(a2 * d, reduced[a + a2 - n]) for a2 in range(n - a, n)]
            images = [list(image.items()) for image in self._alpha_columns(a)]
            for b in range(d):
                eb = ((b, one),)
                for b2, image in enumerate(images):
                    t = ktab.get((b, image[0][0])) if len(image) == 1 else None
                    if t is not None and len(t) == 1:  # alpha^a(e_b2) = s e_c, e_b e_c = p e_k
                        (k, p), s = t[0], image[0][1]
                        u = [(k, p if s == one else mul(s, p))]
                    else:
                        u = sorted(table_mul_into({}, ktab, F, eb, image).items())
                        if not u:
                            continue
                    for col, off in low:
                        table[(a * d + b, col + b2)] = [(off + b3, p) for b3, p in u]
                    for col, powers in high:
                        terms = []
                        for off, cj in powers:
                            w = table_mul_into({}, ktab, F, u, cj)
                            terms += [(off + b3, w[b3]) for b3 in sorted(w)]
                        if terms:
                            table[(a * d + b, col + b2)] = terms
        self.mul_table = table

    def _alpha_columns(self, d: int) -> list[dict]:
        """Column b of alpha^d, alpha^d(e_b), as a payload row, b < dim K."""
        return self.alpha.power_matrix(d).transpose().sparse

    def check_compiled(self) -> None:
        """Raise MonogenicError unless the compiled table obeys the commutation
        rule and f is normal; run by a checked build, after ``instance_checks``.
        It runs on payloads and reads alpha^d(mu) off the columns of alpha^d,
        as ``_compile`` does.  A zero c_d is skipped: both sides are 0.  The
        commutation runs on every basis element of K, not only on
        ``alpha.generators``: that the lambda it holds for form a subalgebra
        needs the compiled table to be associative, which nothing certifies."""
        F, ktab, atab = self.field, self.K.mul_table, self.mul_table
        cols = [self._alpha_columns(d) for d in range(self.n + 1)]
        # x lambda = alpha(lambda) x for all basis lambda, on the compiled table
        x = self.x.nz
        for b in range(self.K.dim):
            if _product(atab, F, x, {b: F.one.v}) != _product(atab, F, cols[1][b], x):
                raise MonogenicError(f"compiled table breaks the commutation rule at basis {b}")
        # f is normal in B, read at each x^d: f x = x f is c_d alpha^d(1) = 1 alpha(c_d),
        # and f mu = alpha^n(mu) f is c_d alpha^d(mu) = alpha^n(mu) c_d
        unit, power = self.K.unit, self.alpha.power_matrix
        fs = [(d, c) for d, c in enumerate(self.f_terms) if c]
        if any(_product(ktab, F, c, power(d).apply(unit)) != _product(ktab, F, unit, power(1).apply(c))
               for d, c in fs):
            raise MonogenicError("f does not commute with x")
        for b in range(self.K.dim):
            if any(_product(ktab, F, c, cols[d][b]) != _product(ktab, F, cols[self.n][b], c) for d, c in fs):
                raise MonogenicError(f"f lambda = alpha^n(lambda) f fails at basis {b}")

    # -- arithmetic ----------------------------------------------------------

    def a_mul(self, a: AElem, b: AElem) -> AElem:
        """The product on the compiled table, read on the nonzero
        coordinates of both factors."""
        F = self.field
        same_field(F, a.alg.field)
        same_field(F, b.alg.field)
        return AElem._of(self, table_mul_into({}, self.mul_table, F, a.nz.items(), b.nz.items()))

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


# -- the actions on payload rows {flat index: payload}, read straight off the
# basis tables through ``table_mul_into``: the one route of the left action
# of A and the right action of x, for tensors, columns and checks alike


def _product(table, field: Field, u: dict, v: dict) -> dict:
    return table_mul_into({}, table, field, u.items(), v.items())


def _left(alg: MonogenicAlgebra, a: dict, row: dict, acc: dict) -> dict:
    """acc += a . row on the tensor square: (a u_c) (x) x^c on each block."""
    for flat, s in row.items():
        c, j = divmod(flat, alg.adim)
        table_mul_into(acc, alg.mul_table, alg.field, a.items(), ((j, s),), c * alg.adim)
    return acc


def _right_x(alg: MonogenicAlgebra, row: dict, wraps) -> dict:
    """row . x: u_c (x) x^c goes to u_c (x) x^{c+1}, and the top block, which
    meets x^n, to sum_j u_{n-1} alpha^t(kappa_j) (x) x^j, for ``wraps`` the
    ``_wraps`` of the row's twist t."""
    adim = alg.adim
    top = (alg.n - 1) * adim
    acc = {flat + adim: s for flat, s in row.items() if flat < top}
    for flat, s in row.items():
        if flat >= top:
            for j, kappa in wraps:
                table_mul_into(acc, alg.mul_table, alg.field, ((flat - top, s),), kappa, j * adim)
    return acc


def _wraps(alg: MonogenicAlgebra, t: int) -> tuple:
    """(j, the (index, payload) pairs of alpha^t(kappa_j)) for the wrap terms
    x^n = sum_j kappa_j x^j: what the right action of x reads at twist t."""
    power = alg.alpha.power_matrix(t)
    return tuple((j, tuple(power.apply(kappa).items())) for j, kappa in alg.wrap_terms)


def _derivation(alg: MonogenicAlgebra, coeffs: list[dict]) -> dict:
    """The payload row, on the twist-1 tensor square, of the image of
    sum_d coeffs[d] x^d under the K-derivation sending x to 1 (x) 1
    (coefficients pass left).  That of x^m, sum_{l<m} x^l (x) x^{m-l-1}, is
    that of x^{m-1} times x plus x^{m-1} (x) 1, in normal form."""
    F, wraps, one = alg.field, _wraps(alg, 1), alg.field.one.v
    acc, dx = {}, {}
    for d, u in enumerate(coeffs):
        _left(alg, u, dx, acc)
        dx = row_sum(F, [(one, _right_x(alg, dx, wraps)), (one, alg.xpow(d).nz)])
    return acc


def normality_check(alg: MonogenicAlgebra) -> ValidationReport:
    """On the twist-1 tensor square: the derivation of f x^i equals both
    x^i . (derivation of f) and (derivation of f) . x^i, for 0 <= i < n.
    The coefficient of f x^i at x^{d+i} is c_d alpha^d(1).  It runs on
    payload rows, as ``check_compiled`` does."""
    F, power, unit = alg.field, alg.alpha.power_matrix, alg.K.unit
    fx = [_product(alg.K.mul_table, F, c, power(d).apply(unit)) for d, c in enumerate(alg.f_terms)]
    wraps, failures = _wraps(alg, 1), []
    df = rhs = _derivation(alg, alg.f_terms)
    for i in range(alg.n):
        lhs = _derivation(alg, [{}] * i + fx)
        rhs = _right_x(alg, rhs, wraps) if i else rhs
        if lhs != _left(alg, alg.xpow(i).nz, df, {}):
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
    fixed top degree, with maps stored columnwise on the flat tensor basis
    as payload rows {flat: payload}.

    A column of d'_r reads the twist only where the right action of x wraps
    x^n to sum_j kappa_j x^j, through alpha^{t(r-1)}(kappa_j); sigma_r reads
    no twist.  So the columns of d'_r are built once per ``_fold`` class, and
    those of sigma_r once per parity: for an admissible f, whose kappa_j are
    alpha-fixed, the classes are the two parities."""

    def __init__(self, alg: MonogenicAlgebra, max_degree: int):
        self.alg = alg
        self.max_degree = max_degree
        self.tdim = alg.adim * alg.n
        self._generators: dict[int, dict] = {}
        self._folds: dict[int, int] = {}  # degree -> its fold class
        self._fold_keys: dict[tuple, int] = {}  # (r mod 2, _wraps at t(r-1)) -> class, in class order
        self._d_rows: dict[int, tuple] = {}  # class -> the columns of d'
        self._s_rows: dict[int, tuple] = {}  # r mod 2 -> the columns of sigma

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
            key = (r % 2, _wraps(self.alg, self.twist(r - 1)))
            cls = self._folds[r] = self._fold_keys.setdefault(key, len(self._fold_keys))
        return cls

    def d_generator(self, r: int) -> dict:
        """Image of the generator 1 (x) 1 under d'_r, in the degree r-1 module,
        as its payload row {c*adim + i: payload}: x (x) 1 - 1 (x) x for odd r,
        the derivation of f for even r.  The one definition of d': the small
        complex is its Hom into M.  The row is cached per r and must not be
        mutated."""
        if r in self._generators:
            return self._generators[r]
        alg, F = self.alg, self.alg.field
        if r % 2 == 1:
            onex = _right_x(alg, alg.one.nz, _wraps(alg, self.twist(r - 1)))
            row = row_sum(F, [(F.one.v, alg.x.nz), (F._neg(F.one.v), onex)])
        else:
            row = _derivation(alg, alg.f_terms)
        self._generators[r] = row
        return row

    @functools.cached_property
    def _left_xpows(self) -> list[list[dict]]:
        """e_i x^l as payload rows, by l < n and flat index i of A."""
        alg, F = self.alg, self.alg.field
        return [[_product(alg.mul_table, F, {i: F.one.v}, alg.xpow(l).nz)
                 for i in range(alg.adim)] for l in range(alg.n)]

    def d_rows(self, r: int) -> tuple[dict, ...]:
        """The columns of d'_r, by flat index c*adim + i of the basis tensor
        e_i (x) x^c of the degree-r module: e_i . d'_r(1 (x) 1) by table
        lookups on ``d_generator(r)``, then column (c, i) as column
        (c - 1, i) times x.  Built once per ``_fold`` class and shared by
        its degrees, whose twist tag t(r - 1) the rows do not carry."""
        cls = self._fold(r)
        rows = self._d_rows.get(cls)
        if rows is None:
            alg, wraps = self.alg, list(self._fold_keys)[cls][1]
            gen = self.d_generator(r)
            rows = [{}] * self.tdim
            for i in range(alg.adim):
                rows[i] = col = _left(alg, {i: alg.field.one.v}, gen, {})
                for c in range(1, alg.n):
                    rows[c * alg.adim + i] = col = _right_x(alg, col, wraps)
            rows = self._d_rows[cls] = tuple(rows)
        return rows

    def s_rows(self, r: int) -> tuple[dict, ...]:
        """The columns of sigma_r, by flat index of the basis tensor
        e_i (x) x^c of the degree r-1 module: -sum_{l<c} e_i x^l (x) x^{c-l-1}
        for odd r; e_i (x) 1 at c = n - 1, else zero, for even r.  Built once
        per parity and shared by the degrees of that parity."""
        rows = self._s_rows.get(r % 2)
        if rows is None:
            alg, adim, n = self.alg, self.alg.adim, self.alg.n
            if r % 2:
                neg, ex = alg.field._neg, self._left_xpows
                rows = [{(c - l - 1) * adim + k: neg(p) for l in range(c) for k, p in ex[l][i].items()}
                        for c in range(n) for i in range(adim)]
            else:
                rows = [{i: alg.field.one.v} if c == n - 1 else {} for c in range(n) for i in range(adim)]
            rows = self._s_rows[r % 2] = tuple(rows)
        return rows

    def contraction_check(self) -> ValidationReport:
        """Exact verification that sigma contracts the complex onto A:
        augmentation . sigma0 = id, d'_1 sigma_1 + sigma_0 . augmentation = id,
        d'_{r+1} sigma_{r+1} + sigma_r d'_r = id, and d' . d' = 0.  d'_r and
        sigma_r read r only through its ``_fold`` (the parity and the twisted
        wrap terms of x^n), which also fixes the class of r + 1, so each
        identity is checked in the first degree r of each class: degrees 1
        and 2 for an admissible f.  It boxes nothing: on each basis tensor e,
        the left side of an identity is one sum of payload rows, compared
        with {e: 1}, or with {} for d'_r d'_{r+1} e.  MonogenicError when
        max_degree is below 1, the least degree it reads."""
        if self.max_degree < 1:
            raise MonogenicError(f"the contraction check reads degrees 1 and up; max_degree {self.max_degree} is below 1")
        alg, field = self.alg, self.alg.field
        one, adim, ex = field.one.v, alg.adim, self._left_xpows
        for i in range(adim):  # augmentation . sigma_0 sends e_i to e_i x^0
            if ex[0][i] != {i: one}:
                return ValidationReport(False, (f"augmentation section fails at basis {i}",))
        first: dict[int, int] = {}  # class -> its first degree, ascending
        for r in range(1, self.max_degree + 1):
            first.setdefault(self._fold(r), r)
        flats = range(self.tdim)
        degrees = sorted({*first.values(), *(r + 1 for r in first.values())})  # 1 among them
        s = {r: self.s_rows(r) for r in degrees}
        d = {r: self.d_rows(r) for r in degrees}
        for flat in flats:
            c, i = divmod(flat, adim)  # sigma_0 . augmentation sends e_i (x) x^c to e_i x^c (x) 1
            lhs = row_sum(field, [*((x, d[1][j]) for j, x in s[1][flat].items()), (one, ex[c][i])])
            if lhs != {flat: one}:
                return ValidationReport(False, (f"degree-0 homotopy identity fails at basis {flat}",))
        for r in first.values():
            for flat in flats:
                lhs = row_sum(field, [*((x, d[r + 1][j]) for j, x in s[r + 1][flat].items()),
                                       *((x, s[r][j]) for j, x in d[r][flat].items())])
                if lhs != {flat: one}:
                    return ValidationReport(False, (f"homotopy identity fails in degree {r} at basis {flat}",))
        for r in first.values():
            for flat in flats:
                if row_sum(field, ((x, d[r][j]) for j, x in d[r + 1][flat].items())):
                    return ValidationReport(False, (f"d.d is nonzero in degree {r + 1} at basis {flat}",))
        return ValidationReport(True, ())
