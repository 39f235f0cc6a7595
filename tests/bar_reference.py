"""The eager bar route and the recursive comparison maps: test references
for the engine's closed, demand-driven route.

The engine evaluates psi and phi in closed form (``products.psi_terms``,
``phi_terms``) and the bar side only where phi reads it (``BarOracle``).
This module keeps the routes that evaluate the bar side at every index
(``BarCochain``, ``psi_eval``, ``phi_eval``, ``bar_differential``), the
homotopy recursion for psi and phi that the closed maps are checked against
(``ComparisonMaps``), the commutation of both maps with the differentials
(``chain_map_report``), and the readers that only these routes and the tests
use: the canonical cochains of K and Kx, the tensor type ``TensorElem``
(the engine holds a tensor as its payload row alone), the left action of A
and the right action of x^d on a tensor, and the maps of the resolution
applied to a tensor.  Each calls the engine's closed maps through the module
(``products.psi_terms``, ``products.phi_closed``, ``products.psi_value``),
so a test that patches one of them reaches these routes too.
"""

from __future__ import annotations

import itertools

from orecohom import products
from orecohom.cohomology import SmallComplex, twisted_invariants
from orecohom.fields import Scalar
from orecohom.kalgebra import ValidationReport
from orecohom.linalg import row_sum, same_field
from orecohom.monogenic import AElem, MonogenicAlgebra, MonogenicError, Resolution, _left, _right_x, _wraps, twist_exponent
from orecohom.products import BarOracle, ProductsError, SmallCochain, _is_twisted

# -- canonical cochains ---------------------------------------------------------


def from_k(alg: MonogenicAlgebra, degree: int, lam) -> SmallCochain:
    if degree % 2:
        raise ProductsError("K-valued canonical cochains have even degree")
    return SmallCochain(alg, degree, alg.k_embed(alg.K.elem(lam)))


def from_kx(alg: MonogenicAlgebra, degree: int, lam) -> SmallCochain:
    if degree % 2 == 0:
        raise ProductsError("Kx-valued canonical cochains have odd degree")
    return SmallCochain(alg, degree, alg.monomial(alg.K.elem(lam), 1))


def canonical_k(self: SmallCochain) -> dict | None:
    """The K part when this is an even cochain supported in x-degree 0."""
    if self.degree % 2:
        return None
    if any(a != 0 for a in self.value.x_degrees()):
        return None
    return self.value.k_coeff(0)


# -- the tensor square, the actions on a tensor and the maps of the resolution --


class TensorElem:
    """Element of the twisted tensor square on basis {lambda_b x^a (x) x^c},
    held as the payload row ``coords`` {flat index: nonzero payload} of A's
    field.  ``TensorElem(alg, twist, coords)`` keeps a new row of the nonzero
    payloads of coords; ``_of`` keeps a row as given, for the sums and
    actions, which each make a new row with no zero payload.
    Read by power of x, it is sum_c u_c (x) x^c with left factors u_c in A.
    Its actions run on that row, on A's compiled table: the left action of A
    and the right action of x are ``_left`` and ``_right_x``."""

    __slots__ = ("alg", "twist", "coords")

    def __init__(self, alg: MonogenicAlgebra, twist: int, coords: dict):
        zv = alg.field.zero.v
        self.alg = alg
        self.twist = twist
        self.coords = {i: p for i, p in coords.items() if p != zv}

    @classmethod
    def _of(cls, alg: MonogenicAlgebra, twist: int, row: dict) -> "TensorElem":
        """The tensor with the nonzero coordinates row, a payload row."""
        out = cls.__new__(cls)
        out.alg, out.twist, out.coords = alg, twist, row
        return out

    @classmethod
    def zero(cls, alg: MonogenicAlgebra, twist: int) -> "TensorElem":
        return cls._of(alg, twist, {})

    @classmethod
    def from_aelem(cls, left: AElem, c: int, twist: int) -> "TensorElem":
        """left (x) x^c."""
        return cls._of(left.alg, twist, {c * left.alg.adim + i: p for i, p in left.nz.items()})

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
        F = self.alg.field
        same_field(F, other.alg.field)
        if s is not None:
            same_field(F, s.field)
        out = row_sum(F, [(F.one.v, self.coords), (F.one.v if s is None else s.v, other.coords)])
        return TensorElem._of(self.alg, self.twist, out)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return self.add_scaled(other)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        return self.add_scaled(other, -self.alg.field.one)

    def __neg__(self) -> "TensorElem":
        neg = self.alg.field._neg
        return TensorElem._of(self.alg, self.twist, {i: neg(p) for i, p in self.coords.items()})

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

    def __repr__(self):
        terms = [f"({u}) (x) x^{c}" for c, u in self._blocks().items()]
        return " + ".join(terms) if terms else "0"


def leftmul(self: TensorElem, a: AElem) -> TensorElem:
    """a . (u_c (x) x^c) = (a u_c) (x) x^c."""
    same_field(self.alg.field, a.alg.field)
    return TensorElem._of(self.alg, self.twist, _left(self.alg, a.nz, self.coords, {}))


def rightmul_xpow(self: TensorElem, d: int) -> TensorElem:
    alg, wraps, row = self.alg, _wraps(self.alg, self.twist), self.coords
    for _ in range(d):
        row = _right_x(alg, row, wraps)
    return TensorElem._of(alg, self.twist, row)


def d_column(self: Resolution, r: int, flat: int) -> TensorElem:
    """d'_r applied to the flat basis vector e_i (x) x^c, flat = c*adim + i,
    of the degree-r module: e_i . d'_r(1 (x) 1) . x^c."""
    return TensorElem(self.alg, self.twist(r - 1), self.d_rows(r)[flat])


def s_column(self: Resolution, r: int, flat: int) -> TensorElem:
    """sigma_r applied to the flat basis vector e_i (x) x^c of the degree
    r-1 module."""
    return TensorElem(self.alg, self.twist(r), self.s_rows(r)[flat])


def _apply(self: Resolution, rows: tuple[dict, ...], t: TensorElem, twist: int) -> TensorElem:
    """sum of s * rows[flat] over the entries flat: s of t, on payloads."""
    field = self.alg.field
    same_field(field, t.alg.field)
    return TensorElem._of(self.alg, twist, row_sum(field, ((p, rows[flat]) for flat, p in t.coords.items())))


def apply_d(self: Resolution, r: int, t: TensorElem) -> TensorElem:
    return _apply(self, self.d_rows(r), t, self.twist(r - 1))


def apply_s(self: Resolution, r: int, t: TensorElem) -> TensorElem:
    return _apply(self, self.s_rows(r), t, self.twist(r))


# -- the eager bar route ----------------------------------------------------------


def all_bar_indices(alg: MonogenicAlgebra, p: int):
    return itertools.product(range(1, alg.n), repeat=p)


class BarCochain:
    """Normalized relative cochain: a table over index tuples in {1..n-1}^p."""

    __slots__ = ("alg", "degree", "table")

    def __init__(self, alg: MonogenicAlgebra, degree: int, table: dict, check: bool = False):
        if degree < 0:
            raise ProductsError("negative cochain degree")
        clean = {}
        for idx, val in table.items():
            idx = tuple(idx)
            if len(idx) != degree or any(not 1 <= i < alg.n for i in idx):
                raise ProductsError(f"bad index {idx} for degree {degree}")
            if not val.is_zero():
                clean[idx] = val
        self.alg = alg
        self.degree = degree
        self.table = clean
        if check:
            for idx, val in clean.items():
                if not _is_twisted(val, sum(idx)):
                    raise ProductsError(f"value at {idx} is not twisted-invariant")

    def at(self, idx) -> AElem:
        return self.table.get(tuple(idx), self.alg.zero_elem())

    def scale(self, s) -> "BarCochain":
        s = self.alg.field.scalar(s)
        return BarCochain(self.alg, self.degree, {i: v * s for i, v in self.table.items()})

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other):
        return (
            isinstance(other, BarCochain)
            and self.alg is other.alg
            and self.degree == other.degree
            and self.table == other.table
        )

    def __repr__(self):
        return f"BarCochain(deg={self.degree}, {len(self.table)} entries)"


def psi_eval(m: SmallCochain) -> BarCochain:
    """The small-to-bar comparison map in m's degree, at every bar index."""
    alg = m.alg
    table = {idx: products.psi_value(alg, m.value, idx) for idx in all_bar_indices(alg, m.degree)}
    return BarCochain(alg, m.degree, table)


def phi_eval(g: BarCochain) -> SmallCochain:
    """The bar-to-small comparison map in g's degree."""
    return SmallCochain(g.alg, g.degree, BarOracle(g.alg).phi(g.degree, g.at), check=False)


def bar_differential(g: BarCochain) -> BarCochain:
    """The normalized Hochschild coboundary on index tables.

    Merged slot products are re-expanded in normal form; the K-component of a
    merge drops (its slot normalizes to the unit) and each x^e component's
    coefficient migrates out to the left, twisted by alpha across the indices
    it passes."""
    alg = g.alg
    p = g.degree
    sign = {0: alg.field.one, 1: -alg.field.one}
    table = {}
    for idx in all_bar_indices(alg, p + 1):
        acc = alg.xpow(idx[0]) * g.at(idx[1:])
        for j in range(1, p + 1):
            merged = alg.xpow(idx[j - 1] + idx[j])
            tw = sum(idx[: j - 1])
            for e in filter(None, merged.x_degrees()):  # the x-degrees e >= 1 it has
                sub = idx[: j - 1] + (e,) + idx[j + 1 :]
                gval = g.at(sub)
                if gval.is_zero():
                    continue
                moved = alg.alpha.apply_power(tw, merged.k_coeff(e))
                acc = acc + (alg.k_embed(moved) * gval) * sign[j % 2]
        acc = acc + (g.at(idx[:p]) * alg.xpow(idx[p])) * sign[(p + 1) % 2]
        table[idx] = acc
    return BarCochain(alg, p + 1, table)


def _sign(alg: MonogenicAlgebra, parity: int):
    return alg.field.one if parity % 2 == 0 else -alg.field.one


# -- resolution-level comparison maps ----------------------------------------


class ComparisonMaps:
    """Chain maps between the twisted-square resolution and the normalized
    relative bar resolution, with closed formulas cross-checked against the
    homotopy recursion."""

    def __init__(self, alg: MonogenicAlgebra, max_degree: int = 5):
        self.alg = alg
        self.max_degree = max_degree
        self.res = Resolution(alg, max_degree)
        self._psi_rec: dict[tuple, TensorElem] = {}
        self._phi_rec: dict[int, dict] = {}

    # psi: bar side to twisted squares, evaluated on monomial middle slots

    def psi_closed(self, idx: tuple) -> TensorElem:
        tw = twist_exponent(len(idx), self.alg.n)
        out = TensorElem.zero(self.alg, tw)
        for u, c in products.psi_terms(self.alg, idx):
            out = out + TensorElem.from_aelem(u, c, tw)
        return out

    def psi_recursive(self, idx: tuple) -> TensorElem:
        idx = tuple(idx)
        if not idx:
            return TensorElem.from_aelem(self.alg.one, 0, 0)
        if idx in self._psi_rec:
            return self._psi_rec[idx]
        alg = self.alg
        r = len(idx)
        total = leftmul(self.psi_recursive(idx[1:]), alg.xpow(idx[0]))
        for j in range(1, r):
            merged = alg.xpow(idx[j - 1] + idx[j])
            tw = sum(idx[: j - 1])
            sgn = _sign(alg, j)
            for e in filter(None, merged.x_degrees()):  # the x-degrees e >= 1 it has
                sub = idx[: j - 1] + (e,) + idx[j + 1 :]
                moved = alg.alpha.apply_power(tw, merged.k_coeff(e))
                piece = leftmul(self.psi_recursive(sub), alg.k_embed(moved))
                total = total.add_scaled(piece, sgn)
        last = rightmul_xpow(self.psi_recursive(idx[:-1]), idx[-1])
        total = total.add_scaled(last, _sign(alg, r))
        out = apply_s(self.res, r, total)
        self._psi_rec[idx] = out
        return out

    # phi: twisted squares to bar side; the image of the generator is stored
    # as a map from middle index tuples to the left outer factor (the right
    # outer factor is always the unit)

    def phi_recursive(self, r: int) -> dict:
        if r == 0:
            return {(): self.alg.one}
        if r in self._phi_rec:
            return self._phi_rec[r]
        alg = self.alg
        prev = self.phi_recursive(r - 1)
        dgen = TensorElem._of(alg, self.res.twist(r - 1), self.res.d_generator(r))
        sgn = _sign(alg, r)
        out: dict[tuple, AElem] = {}
        for c in dgen.powers():
            lead = dgen.left_factor(c)
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
        self._phi_rec[r] = out
        return out

    def comparison_report(self, degree_bound: int = 4) -> ValidationReport:
        """Closed formulas agree with the homotopy recursion through the bound."""
        failures = []
        for r in range(degree_bound + 1):
            for idx in all_bar_indices(self.alg, r):
                if self.psi_closed(idx) != self.psi_recursive(idx):
                    failures.append(f"psi mismatch at degree {r}, index {idx}")
                    return ValidationReport(False, tuple(failures))
            if products.phi_closed(self.alg, r) != self.phi_recursive(r):
                failures.append(f"phi mismatch at degree {r}")
                return ValidationReport(False, tuple(failures))
        return ValidationReport(True, ())


# -- chain-map and class-level validation ------------------------------------


def chain_map_report(C: SmallComplex, degree_bound: int = 3) -> ValidationReport:
    """Exact commutation of both comparison maps with the differentials.

    Requires a complex over the regular bimodule, built past the bound."""
    alg = C.alg
    if C.M.dim != alg.adim:
        raise ProductsError("chain-map checks need the regular bimodule")
    if degree_bound + 1 > C.max_degree:
        raise ProductsError("complex not built far enough for the bound")
    failures = []
    for r in range(degree_bound + 1):
        for v in C.bases[r].columns_list():
            m = SmallCochain(alg, r, AElem(alg, v), check=False)
            lhs = bar_differential(psi_eval(m))
            dm = SmallCochain(alg, r + 1, AElem(alg, C.d_ambient(r + 1, v)), check=False)
            if lhs != psi_eval(dm):
                failures.append(f"bar differential disagrees with psi in degree {r}")
                return ValidationReport(False, tuple(failures))
    oracle = BarOracle(alg)  # phi's terms, once per degree
    for r in range(degree_bound + 1):
        for idx in all_bar_indices(alg, r):
            for w in twisted_invariants(C.M, sum(idx)).columns_list():
                g = BarCochain(alg, r, {idx: AElem(alg, w)})
                lhs = AElem(alg, C.d_ambient(r + 1, oracle.phi(r, g.at).coords))
                rhs = oracle.phi(r + 1, bar_differential(g).at)
                if lhs != rhs:
                    failures.append(
                        f"small differential disagrees with phi in degree {r}"
                    )
                    return ValidationReport(False, tuple(failures))
    return ValidationReport(True, ())
