"""Cup product and Gerstenhaber bracket on the small complex.

Two independent routes are implemented and cross-checked: closed formulas on
small cochains, and a normalized bar-complex oracle reached through the
comparison maps psi (small to bar) and phi (bar to small).  The bar side works
with tables indexed by tuples in {1..n-1}^p whose values are twisted-invariant
elements of A; a composed or merged slot value with a K-component migrates
that component left through the preceding slots (twisting by alpha along the
way), and slots reduced to the unit are killed by normalization.

A ``BarOracle`` evaluates the oracle on demand, for one algebra and one run.
phi in degree r reads a bar cochain only at the indices of its terms
(``phi_closed``), so the oracle evaluates a cup or an alternating sum of slot
compositions only at those indices, and psi of a cochain only at the indices
they read.  It keeps psi of each cochain at each index it was read, phi's
terms in each degree, phi of the slot compositions of each ordered pair of
cochains and the bracket of each pair.  A cochain is keyed on (degree, value
coordinates), turned into a small int once per call.  The degree bound of a
bracket is checked before any lookup and is not part of the key.  The closed
forms (``cup_small``, ``bracket_small_closed``) never read the oracle, so an
agreement of the two routes still compares independent computations.

A ``ProductStore`` keeps the class coordinates of each product of class
representatives a run reads, closed and oracle alike, each computed once;
the class tables, the agreements and the closed-form checks read it.
"""

from __future__ import annotations

import itertools

from .cohomology import SmallComplex, cohomology_group, twisted_invariants
from .kalgebra import ValidationReport
from .monogenic import AElem, MonogenicAlgebra, Resolution, TensorElem, twist_exponent


class ProductsError(ValueError):
    pass


NEEDS_WITNESS = "closed bracket needs an established witness hypothesis"


def _is_twisted(value: AElem, t: int) -> bool:
    """Whether value lambda = alpha^t(lambda) value for every lambda in K.

    Only the certified generators of the twist (``Endo.generators``) are
    tested, as in ``twisted_kernel``; every basis element is tested when the
    twist has no certificate or is an endomorphism of another algebra than
    A's K.  The argument of ``twisted_kernel`` carries over whatever f is,
    since a product of A with K on either side never reduces by f:
    (c x^a) lambda = c alpha^a(lambda) x^a.  So on a certified K and twist
    the lambda that pass form a subalgebra of K, which holds the generators
    and hence is all of K."""
    alg = value.alg
    K, alpha = alg.K, alg.alpha
    gens = alpha.generators if alpha.alg is K else None
    for b in range(K.dim) if gens is None else gens:
        e = K.basis_elem(b)
        if value * alg.k_embed(e) != alg.k_embed(alpha.apply_power(t, e)) * value:
            return False
    return True


class SmallCochain:
    """A degree-tagged element of the small complex with coefficients in A."""

    __slots__ = ("alg", "degree", "value")

    def __init__(self, alg: MonogenicAlgebra, degree: int, value: AElem, check: bool = True):
        if degree < 0:
            raise ProductsError("negative cochain degree")
        self.alg = alg
        self.degree = degree
        self.value = value
        if check and not _is_twisted(value, twist_exponent(degree, alg.n)):
            raise ProductsError(
                f"value is not invariant for the degree-{degree} twist"
            )

    @classmethod
    def from_k(cls, alg: MonogenicAlgebra, degree: int, lam) -> "SmallCochain":
        if degree % 2:
            raise ProductsError("K-valued canonical cochains have even degree")
        return cls(alg, degree, alg.k_embed(alg.K.elem(lam)))

    @classmethod
    def from_kx(cls, alg: MonogenicAlgebra, degree: int, lam) -> "SmallCochain":
        if degree % 2 == 0:
            raise ProductsError("Kx-valued canonical cochains have odd degree")
        return cls(alg, degree, alg.monomial(alg.K.elem(lam), 1))

    def canonical_k(self) -> tuple | None:
        """The K part when this is an even cochain supported in x-degree 0."""
        if self.degree % 2:
            return None
        if any(a != 0 for a in self.value.x_degrees()):
            return None
        return self.value.k_coeff(0)

    def canonical_kx(self) -> tuple | None:
        """The K part when this is an odd cochain supported in x-degree 1."""
        if self.degree % 2 == 0:
            return None
        if any(a != 1 for a in self.value.x_degrees()):
            return None
        return self.value.k_coeff(1)

    def __add__(self, other):
        self._match(other)
        return SmallCochain(self.alg, self.degree, self.value + other.value, check=False)

    def __sub__(self, other):
        self._match(other)
        return SmallCochain(self.alg, self.degree, self.value - other.value, check=False)

    def __neg__(self):
        return SmallCochain(self.alg, self.degree, -self.value, check=False)

    def _match(self, other):
        if self.alg is not other.alg or self.degree != other.degree:
            raise ProductsError("cochain degree mismatch")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, SmallCochain)
            and self.alg is other.alg
            and self.degree == other.degree
            and self.value == other.value
        )

    def __repr__(self):
        return f"SmallCochain(deg={self.degree}, {self.value!r})"


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


def _pair_bar(alg: MonogenicAlgebra, idx: tuple) -> AElem:
    """Product of division quotients over consecutive index pairs."""
    out = alg.one
    for h in range(len(idx) // 2):
        out = out * alg.xpow_bar(idx[2 * h] + idx[2 * h + 1])
        if out.is_zero():
            break
    return out


def psi_terms(alg: MonogenicAlgebra, idx: tuple):
    """The closed small-to-bar comparison map at the bar index ``idx``, as
    terms (u, c): the generator of the small resolution in degree len(idx)
    maps to the sum of u (x) x^c.  Shared by ``psi_value`` and
    ``ComparisonMaps.psi_closed``; ``psi_recursive`` is the independent route."""
    r = len(idx)
    bar = _pair_bar(alg, idx if r % 2 == 0 else idx[:-1])
    if bar.is_zero():
        return
    if r % 2 == 0:
        yield bar, 0
        return
    c = idx[-1]
    for l in range(c):
        yield bar * alg.xpow(l), c - l - 1


def phi_terms(alg: MonogenicAlgebra, r: int):
    """The closed bar-to-small comparison map in degree r, as terms
    (index, lead, e): the degree-r generator maps to the sum over the terms
    of lead x^e at that bar index, read through ``phi_closed``;
    ``ComparisonMaps.phi_recursive`` is the independent route."""
    if r <= 1:
        yield (1,) * r, alg.one, 0
        return
    m = r // 2
    K = alg.K
    for i in itertools.product(range(1, alg.n + 1), repeat=m):
        lam = K.unit
        for ij in i:
            lam = K.kmul(lam, alg.f_terms[ij])
            if all(c.is_zero() for c in lam):
                break
        if all(c.is_zero() for c in lam):
            continue
        lead = alg.k_embed(lam)
        for ell in itertools.product(*[range(1, ij) for ij in i]):
            key = []
            for j in range(m, 0, -1):
                key.extend((1, ell[j - 1]))
            if r % 2:
                key.append(1)
            yield tuple(key), lead, sum(i) - sum(ell) - m


def psi_value(alg: MonogenicAlgebra, value: AElem, idx: tuple) -> AElem:
    """psi of the small cochain with this value, at the bar index ``idx``:
    the sum of u value x^c over the terms of ``psi_terms``."""
    acc = alg.zero_elem()
    for u, c in psi_terms(alg, idx):
        term = u * value
        if c:
            term = term * alg.xpow(c)
        acc = acc + term
    return acc


def phi_closed(alg: MonogenicAlgebra, r: int) -> dict:
    """phi in degree r as {bar index: sum of lead x^e over the terms of
    ``phi_terms`` at that index}, zero sums dropped: phi of a bar cochain g
    is the sum of coefficient * g(index)."""
    out: dict[tuple, AElem] = {}
    for key, lead, e in phi_terms(alg, r):
        term = lead * alg.xpow(e)
        cur = out.get(key)
        out[key] = term if cur is None else cur + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def psi_eval(m: SmallCochain) -> BarCochain:
    """The small-to-bar comparison map in m's degree, at every bar index."""
    alg = m.alg
    table = {idx: psi_value(alg, m.value, idx) for idx in all_bar_indices(alg, m.degree)}
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


def cup_small(a: SmallCochain, b: SmallCochain) -> SmallCochain:
    """Closed-form cup product on the small complex."""
    alg = a.alg
    if a.degree % 2 == 0 or b.degree % 2 == 0:
        value = a.value * b.value
    else:
        value = alg.zero_elem()
        for i in range(2, alg.n + 1):
            lam = alg.f_terms[i]
            if all(c.is_zero() for c in lam):
                continue
            lam_a = alg.k_embed(lam)
            for j1 in range(i - 1):
                for j2 in range(i - 1 - j1):
                    j3 = i - 2 - j1 - j2
                    value = value + lam_a * alg.xpow(j1) * a.value * alg.xpow(
                        j2
                    ) * b.value * alg.xpow(j3)
    return SmallCochain(alg, a.degree + b.degree, value, check=False)


class BarOracle:
    """The bar-complex route for the cochains of one algebra, evaluated where
    phi reads it, each piece once (see the module docstring).  Each call
    hands back the stored object, which callers must not mutate.  One run
    owns one oracle, held by its ``ProductStore``; a library call without one
    builds a fresh oracle.  Besides the pieces above it keeps the twisted
    factors of psi(b) at each slice a composition reads (``_twisted_factors``),
    which do not depend on the cochain b is composed into."""

    def __init__(self, alg: MonogenicAlgebra):
        self.alg = alg
        self._ids: dict[tuple, int] = {}  # (degree, sorted nonzero (index, payload)) -> id
        self._cochains: list[SmallCochain] = []  # id -> the cochain
        self._lifts: list[dict] = []  # id -> {bar index: psi value}
        self._phi: dict[int, dict] = {}  # degree -> phi_closed
        self._factors: dict[tuple, list] = {}  # (id, slice, twist) -> twisted factors
        self._compositions: dict[tuple, AElem] = {}  # (id, id) -> phi of the slot sum
        self._brackets: dict[tuple, SmallCochain] = {}  # (id, id) -> bracket
        self._asked: tuple = (None, None, None)  # the pair ``bracket`` looked up last, with its ids

    def _id(self, m: SmallCochain) -> int:
        if m.alg is not self.alg:
            raise ProductsError("cochain of another algebra than the oracle's")
        key = m.degree, tuple(sorted(m.value.nz.items()))
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._cochains)
            self._cochains.append(m)
            self._lifts.append({})
        return i

    def _lift(self, i: int, idx: tuple) -> AElem:
        """psi of cochain i at the bar index ``idx``."""
        lift = self._lifts[i]
        val = lift.get(idx)
        if val is None:
            val = lift[idx] = psi_value(self.alg, self._cochains[i].value, idx)
        return val

    def phi(self, r: int, value_at) -> AElem:
        """phi in degree r of the bar cochain whose value at a bar index is
        ``value_at(index)``, read only at the indices of phi's terms."""
        terms = self._phi.get(r)
        if terms is None:
            terms = self._phi[r] = phi_closed(self.alg, r)
        acc = self.alg.zero_elem()
        for key, coeff in terms.items():
            val = value_at(key)
            if not val.is_zero():
                acc = acc + coeff * val
        return acc

    def _twisted_factors(self, ib: int, piece: tuple, tw: int) -> list:
        """The pairs (e, k_embed(alpha^tw(kappa_e))) over the x-degrees e >= 1
        of psi(b) at the bar index ``piece`` (b = cochain ib), kappa_e its
        K-coefficient of x^e.  They do not depend on the cochain b is
        composed into, so each is built once per (b, piece, tw)."""
        key = ib, piece, tw
        out = self._factors.get(key)
        if out is None:
            alg, inner = self.alg, self._lift(ib, piece)
            out = self._factors[key] = [
                (e, alg.k_embed(alg.alpha.apply_power(tw, inner.k_coeff(e))))
                for e in filter(None, inner.x_degrees())  # the x-degrees e >= 1 it has
            ]
        return out

    def _composition(self, ia: int, ib: int, key: tuple) -> AElem:
        """The alternating sum over the slots j of psi(a) o_j psi(b) at ``key``
        (a, b = cochains ia, ib): psi(b) at the slice slot j fills, and psi(a)
        with that slice replaced by each x-degree e of psi(b)'s value there,
        its K-coefficient migrating left through the preceding slots."""
        alg = self.alg
        r, rp = self._cochains[ia].degree, self._cochains[ib].degree
        acc = alg.zero_elem()
        for j in range(1, r + 1):
            pre, post = key[: j - 1], key[j - 1 + rp :]
            factors = self._twisted_factors(ib, key[j - 1 : j - 1 + rp], sum(pre))
            if not factors:
                continue
            slot = alg.zero_elem()
            for e, factor in factors:
                gval = self._lift(ia, pre + (e,) + post)
                if not gval.is_zero():
                    slot = slot + factor * gval
            acc = acc + slot * _sign(alg, (j + 1) * (rp + 1))
        return acc

    def _compose(self, ia: int, ib: int) -> AElem:
        """phi of the alternating sum of slot compositions of psi(b) into psi(a)."""
        out = self._compositions.get((ia, ib))
        if out is None:
            r = self._cochains[ia].degree + self._cochains[ib].degree - 1
            out = self.phi(r, lambda key: self._composition(ia, ib, key))
            self._compositions[(ia, ib)] = out
        return out

    def bracket(self, a: SmallCochain, b: SmallCochain, bound: int = 5) -> SmallCochain:
        """``bracket_small_generic(a, b, bound)``; past the bound it raises
        even when the pair is already known."""
        _check_bracket_bound(a.degree, b.degree, bound)
        key = self._id(a), self._id(b)
        out = self._brackets.get(key)
        if out is None:
            self._asked = a, b, key
            out = self._brackets[key] = bracket_small_generic(a, b, bound, self)
        return out

    def _pair_ids(self, a: SmallCochain, b: SmallCochain) -> tuple[int, int]:
        """The ids of a and b, as ``bracket`` found them when it asks
        ``bracket_small_generic`` for this very pair: a bracket takes each
        id once."""
        last_a, last_b, ids = self._asked
        return ids if a is last_a and b is last_b else (self._id(a), self._id(b))


def cup_small_oracle(
    a: SmallCochain, b: SmallCochain, oracle: BarOracle | None = None
) -> SmallCochain:
    """Cup product computed through the bar complex: phi of the
    index-splitting product of the lifts, on ``oracle``."""
    if oracle is None:
        oracle = BarOracle(a.alg)
    ia, ib = oracle._id(a), oracle._id(b)
    p = a.degree

    def at(key):
        left = oracle._lift(ia, key[:p])
        return left if left.is_zero() else left * oracle._lift(ib, key[p:])

    return SmallCochain(a.alg, p + b.degree, oracle.phi(p + b.degree, at), check=False)


def _check_bracket_bound(p: int, q: int, bound: int) -> None:
    """Raise when the bracket of degrees p and q lands past the bound."""
    deg = p + q - 1
    if max(deg, 0) > bound:
        raise ProductsError(f"bracket degree {deg} exceeds bound {bound}")


def bracket_small_generic(
    a: SmallCochain, b: SmallCochain, bound: int = 5, oracle: BarOracle | None = None
) -> SmallCochain:
    """Gerstenhaber bracket through the bar-complex oracle: phi of the graded
    commutator of the slot compositions of the lifts, on ``oracle``."""
    r, rp = a.degree, b.degree
    _check_bracket_bound(r, rp, bound)
    alg = a.alg
    if r == 0 and rp == 0:
        return SmallCochain(alg, 0, alg.zero_elem(), check=False)
    if oracle is None:
        oracle = BarOracle(alg)
    ia, ib = oracle._pair_ids(a, b)
    value = oracle._compose(ia, ib) - oracle._compose(ib, ia) * _sign(alg, (r + 1) * (rp + 1))
    return SmallCochain(alg, r + rp - 1, value, check=False)


def bracket_small_closed(a: SmallCochain, b: SmallCochain, witness) -> SmallCochain:
    """Closed-form bracket for canonical cochains, valid under a central
    regular witness (which forces the canonical forms to be exhaustive)."""
    if not witness:
        raise ProductsError(NEEDS_WITNESS)
    alg = a.alg
    n = alg.n
    alpha = alg.alpha
    deg = max(a.degree + b.degree - 1, 0)

    def need(c: SmallCochain):
        lam = c.canonical_k() if c.degree % 2 == 0 else c.canonical_kx()
        if lam is None:
            raise ProductsError("input is not in canonical form")
        return lam

    la, lb = need(a), need(b)
    if a.degree % 2 == 0 and b.degree % 2 == 0:
        return SmallCochain(alg, deg, alg.zero_elem(), check=False)
    if a.degree % 2 == 0:
        m = a.degree // 2
        out = alg.K.kmul(alpha.norm(m * n).matvec(lb), la)
        return SmallCochain(alg, deg, alg.k_embed(out), check=False)
    if b.degree % 2 == 0:
        m = b.degree // 2
        out = alg.K.kmul(alpha.norm(m * n).matvec(la), lb)
        neg = tuple(-c for c in out)
        return SmallCochain(alg, deg, alg.k_embed(neg), check=False)
    m, mp = a.degree // 2, b.degree // 2
    first = alg.K.kmul(alpha.norm(m * n + 1).matvec(lb), la)
    second = alg.K.kmul(alpha.norm(mp * n + 1).matvec(la), lb)
    out = tuple(x - y for x, y in zip(first, second))
    return SmallCochain(alg, deg, alg.monomial(out, 1), check=False)


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
        for u, c in psi_terms(self.alg, idx):
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
        total = self.psi_recursive(idx[1:]).leftmul(alg.xpow(idx[0]))
        for j in range(1, r):
            merged = alg.xpow(idx[j - 1] + idx[j])
            tw = sum(idx[: j - 1])
            sgn = _sign(alg, j)
            for e in filter(None, merged.x_degrees()):  # the x-degrees e >= 1 it has
                sub = idx[: j - 1] + (e,) + idx[j + 1 :]
                moved = alg.alpha.apply_power(tw, merged.k_coeff(e))
                piece = self.psi_recursive(sub).leftmul(alg.k_embed(moved))
                total = total.add_scaled(piece, sgn)
        last = self.psi_recursive(idx[:-1]).rightmul_xpow(idx[-1])
        total = total.add_scaled(last, _sign(alg, r))
        out = self.res.apply_s(r, total)
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
        dgen = self.res.d_generator(r)
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
                    if all(c.is_zero() for c in kappa):
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
            if phi_closed(self.alg, r) != self.phi_recursive(r):
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


class ProductStore:
    """The class coordinates of the products of C's class representatives,
    each computed on its first read and only once.  For a pair (p, q, ia,
    ib), representative ia of H^p and ib of H^q, it holds the closed and the
    oracle cup (``cup_small``, ``cup_small_oracle``) and the oracle and the
    closed bracket (``BarOracle.bracket``, ``bracket_small_closed``).  A
    value goes to class coordinates from its payloads (``AElem.nz``), once
    per distinct value.  Each route computes its own products, so equal
    stored coordinates still compare two computations: a zero class of the
    difference.  A bracket's oracle bound is checked on every read and is
    not part of the key.  One run owns one store (``cli.Session.products``)
    with the run's bar oracle; a library call without one builds one."""

    def __init__(self, C: SmallComplex, oracle: BarOracle | None = None):
        self.C = C
        self.oracle = BarOracle(C.alg) if oracle is None else oracle
        self._reps: dict[int, list[SmallCochain]] = {}  # degree -> representatives
        self._coords: dict[tuple, tuple] = {}  # (product, p, q, ia, ib) -> class coordinates
        self._classes: dict[tuple, tuple] = {}  # (degree, sorted (index, payload)) -> class coordinates

    @classmethod
    def of(cls, C: SmallComplex, store: "ProductStore | None" = None, oracle: BarOracle | None = None):
        """``store``, checked to be C's (and ``oracle``'s); else a fresh one."""
        if store is None:
            return cls(C, oracle)
        if store.C is not C or (oracle is not None and oracle is not store.oracle):
            raise ProductsError("the product store belongs to another complex or oracle")
        return store

    def reps(self, p: int) -> list[SmallCochain]:
        """The class representatives of H^p, as cochains."""
        out = self._reps.get(p)
        if out is None:
            alg = self.C.alg
            out = self._reps[p] = [SmallCochain(alg, p, AElem._of(alg, row), check=False)
                                   for row in cohomology_group(self.C, p).reps_rows]
        return out

    def pairs(self, p: int, q: int):
        """Every pair (ia, ib) of representatives of H^p and H^q, ia outermost."""
        return itertools.product(range(len(self.reps(p))), range(len(self.reps(q))))

    def _read(self, product: str, deg: int, p: int, q: int, ia: int, ib: int, compute) -> tuple:
        key = product, p, q, ia, ib
        out = self._coords.get(key)
        if out is None:
            out = self._coords[key] = self.class_of(deg, compute(self.reps(p)[ia], self.reps(q)[ib]).value)
        return out

    def class_of(self, deg: int, value: AElem) -> tuple:
        """The class coordinates in H^deg of a cocycle with this value, read
        once per distinct value: many products are equal, most often zero."""
        key = deg, tuple(sorted(value.nz.items()))
        out = self._classes.get(key)
        if out is None:
            out = self._classes[key] = cohomology_group(self.C, deg).class_coords(value)
        return out

    def cup(self, p: int, q: int, ia: int, ib: int) -> tuple:
        return self._read("cup", p + q, p, q, ia, ib, cup_small)

    def cup_oracle(self, p: int, q: int, ia: int, ib: int) -> tuple:
        return self._read("cup-oracle", p + q, p, q, ia, ib, lambda a, b: cup_small_oracle(a, b, self.oracle))

    def bracket(self, p: int, q: int, ia: int, ib: int, bound: int = 5) -> tuple:
        """The oracle bracket; past the bound it raises even when the pair is stored."""
        _check_bracket_bound(p, q, bound)
        return self._read("bracket", max(p + q - 1, 0), p, q, ia, ib,
                          lambda a, b: self.oracle.bracket(a, b, bound))

    def closed_bracket(self, p: int, q: int, ia: int, ib: int, witness) -> tuple:
        """The closed bracket; ProductsError without a witness or when a
        representative is not in canonical form."""
        if not witness:
            raise ProductsError(NEEDS_WITNESS)
        return self._read("closed-bracket", max(p + q - 1, 0), p, q, ia, ib,
                          lambda a, b: bracket_small_closed(a, b, witness))


def _class_table(store: ProductStore, degrees, read) -> list[dict]:
    """``read(p, q, ia, ib)``, the class coordinates of a product, for every
    pair of class representatives in each degree pair (p, q) of ``degrees``;
    each distinct payload is encoded once per call."""
    code = store.C.field.encoder()
    return [
        {
            "deg_a": p,
            "deg_b": q,
            "basis_index_a": ia,
            "basis_index_b": ib,
            "result_class_coords": [code(c.v) for c in read(p, q, ia, ib)],
        }
        for p, q in degrees
        for ia, ib in store.pairs(p, q)
    ]


def cup_class_table(C: SmallComplex, max_total: int, store: ProductStore | None = None) -> list[dict]:
    """Cup products of cohomology class representatives, as class coordinates,
    read from ``store`` (a fresh one when none is given)."""
    store = ProductStore.of(C, store)
    degrees = [
        (p, q)
        for p in range(max_total + 1)
        for q in range(max_total + 1 - p)
        if p + q + 1 <= C.max_degree
    ]
    return _class_table(store, degrees, store.cup)


def bracket_class_table(
    C: SmallComplex,
    max_total: int,
    bound: int = 5,
    oracle: BarOracle | None = None,
    store: ProductStore | None = None,
) -> list[dict]:
    """Generic-oracle brackets of class representatives, as class coordinates,
    read from ``store``, else from a fresh store on ``oracle`` (a fresh one
    when none is given)."""
    store = ProductStore.of(C, store, oracle)
    degrees = [
        (p, q)
        for p in range(max_total + 1)
        for q in range(max_total + 1 - p)
        if 0 <= p + q - 1 <= bound and p + q <= C.max_degree
    ]
    return _class_table(store, degrees, lambda p, q, ia, ib: store.bracket(p, q, ia, ib, bound))
