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
terms in each degree and phi of the slot compositions of each ordered pair
of cochains, which the brackets of (a, b) and (b, a) share.  A cochain is
keyed on (degree, value coordinates), turned into a small int once per call.
``cup_small_oracle`` and ``bracket_small_generic`` take the oracle they
read; the product store keeps each product they return.  The closed
forms (``cup_small``, ``bracket_small_closed``) never read the oracle, so an
agreement of the two routes still compares independent computations.

Both routes sum their products on payload rows (``AElem.nz``), into one
row through ``kalgebra.table_mul_into``: no term builds an ``AElem``.  The
eager bar route, which evaluates the bar side at every index, and the
homotopy recursion for psi and phi are test references
(``tests/bar_reference.py``).

A ``ProductStore`` keeps the class coordinates of each product of class
representatives a run reads, closed and oracle alike, each computed once
(the oracle ones on the store's own oracle), as a payload row over the
representatives (``CohomologyGroup.class_row``); the class tables encode
them densely, and the agreements and the closed-form checks compare or
combine the rows.
"""

from __future__ import annotations

import itertools

from .cohomology import SmallComplex, cohomology_group
from .kalgebra import table_mul_into
from .linalg import row_sum, same_field
from .monogenic import AElem, MonogenicAlgebra, twist_exponent


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

    def canonical_kx(self) -> dict | None:
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
    maps to the sum of u (x) x^c, read by ``psi_value``.  The homotopy
    recursion that checks it is a test reference (``tests/bar_reference.py``)."""
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
    of lead x^e at that bar index, read through ``phi_closed``.  The
    homotopy recursion that checks it is a test reference
    (``tests/bar_reference.py``)."""
    if r <= 1:
        yield (1,) * r, alg.one, 0
        return
    m = r // 2
    K = alg.K
    for i in itertools.product(range(1, alg.n + 1), repeat=m):
        lam = K.unit
        for ij in i:
            lam = K.kmul(lam, alg.f_terms[ij])
            if not lam:
                break
        if not lam:
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
    the sum of (u value) x^c over the terms of ``psi_terms``, into one row."""
    F, table = alg.field, alg.mul_table
    same_field(F, value.alg.field)
    acc, v = {}, value.nz.items()
    for u, c in psi_terms(alg, idx):
        uv = table_mul_into({} if c else acc, table, F, u.nz.items(), v)  # u value, into acc at c = 0
        if c:
            table_mul_into(acc, table, F, uv.items(), alg.xpow(c).nz.items())
    return AElem._of(alg, acc)


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


def cup_small(a: SmallCochain, b: SmallCochain) -> SmallCochain:
    """Closed-form cup product on the small complex.  For odd a and b it is
    the sum of lambda_i x^j1 a x^j2 b x^j3 over j1 + j2 + j3 = i - 2,
    multiplied left to right, into one row."""
    alg = a.alg
    if a.degree % 2 == 0 or b.degree % 2 == 0:
        return SmallCochain(alg, a.degree + b.degree, a.value * b.value, check=False)
    F, table, xpow = alg.field, alg.mul_table, alg.xpow
    same_field(F, a.value.alg.field)
    same_field(F, b.value.alg.field)
    acc, av, bv = {}, a.value.nz.items(), b.value.nz.items()
    for i in range(2, alg.n + 1):
        lam = alg.k_embed(alg.f_terms[i]).nz
        for j1 in range(i - 1 if lam else 0):
            left = table_mul_into({}, table, F, lam.items(), xpow(j1).nz.items())
            left = table_mul_into({}, table, F, left.items(), av)
            for j2 in range(i - 1 - j1):
                mid = table_mul_into({}, table, F, left.items(), xpow(j2).nz.items())
                mid = table_mul_into({}, table, F, mid.items(), bv)
                table_mul_into(acc, table, F, mid.items(), xpow(i - 2 - j1 - j2).nz.items())
    return SmallCochain(alg, a.degree + b.degree, AElem._of(alg, acc), check=False)


class BarOracle:
    """The bar-complex route for the cochains of one algebra, evaluated where
    phi reads it, each piece once (see the module docstring).  Each call
    hands back the stored object, which callers must not mutate.  One run
    owns one oracle, held by its ``ProductStore``.  Besides the pieces above
    it keeps the twisted factors of psi(b) at each slice a composition reads
    (``_twisted_factors``), which do not depend on the cochain b is composed
    into."""

    def __init__(self, alg: MonogenicAlgebra):
        self.alg = alg
        self._ids: dict[tuple, int] = {}  # (degree, sorted nonzero (index, payload)) -> id
        self._cochains: list[SmallCochain] = []  # id -> the cochain
        self._lifts: list[dict] = []  # id -> {bar index: psi value}
        self._phi: dict[int, dict] = {}  # degree -> phi_closed
        self._factors: dict[tuple, list] = {}  # (id, slice, twist) -> twisted factors
        self._compositions: dict[tuple, AElem] = {}  # (id, id) -> phi of the slot sum

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
        F, table, acc = self.alg.field, self.alg.mul_table, {}
        for key, coeff in terms.items():
            val = value_at(key)
            if val.nz:
                same_field(F, val.alg.field)
                table_mul_into(acc, table, F, coeff.nz.items(), val.nz.items())
        return AElem._of(self.alg, acc)

    def _twisted_factors(self, ib: int, piece: tuple, tw: int) -> list:
        """The pairs (e, alpha^tw(kappa_e)) over the x-degrees e >= 1 of
        psi(b) at the bar index ``piece`` (b = cochain ib), kappa_e its
        K-coefficient of x^e as a payload row, sliced off the lift's ``nz``.
        They do not depend on the cochain b is composed into, so each is
        built once per (b, piece, tw)."""
        key = ib, piece, tw
        out = self._factors.get(key)
        if out is None:
            slices: dict[int, dict] = {}
            for i, p in self._lift(ib, piece).nz.items():
                e, k = divmod(i, self.alg.K.dim)
                if e:
                    slices.setdefault(e, {})[k] = p
            twist = self.alg.alpha.power_matrix(tw)
            out = self._factors[key] = [(e, twist.apply(kappa)) for e, kappa in slices.items()]
        return out

    def _composition(self, ia: int, ib: int, key: tuple) -> AElem:
        """The alternating sum over the slots j of psi(a) o_j psi(b) at ``key``
        (a, b = cochains ia, ib): psi(b) at the slice slot j fills, and psi(a)
        with that slice replaced by each x-degree e of psi(b)'s value there,
        its K-coefficient migrating left through the preceding slots.  The
        slot's sign goes into the factor, and every term sums into one row."""
        F, table = self.alg.field, self.alg.mul_table
        r, rp = self._cochains[ia].degree, self._cochains[ib].degree
        acc = {}
        for j in range(1, r + 1):
            pre, post = key[: j - 1], key[j - 1 + rp :]
            odd = (j + 1) * (rp + 1) % 2
            for e, factor in self._twisted_factors(ib, key[j - 1 : j - 1 + rp], sum(pre)):
                gval = self._lift(ia, pre + (e,) + post).nz
                if gval:
                    u = [(k, F._neg(p)) for k, p in factor.items()] if odd else factor.items()
                    table_mul_into(acc, table, F, u, gval.items())
        return AElem._of(self.alg, acc)

    def _compose(self, ia: int, ib: int) -> AElem:
        """phi of the alternating sum of slot compositions of psi(b) into psi(a)."""
        out = self._compositions.get((ia, ib))
        if out is None:
            r = self._cochains[ia].degree + self._cochains[ib].degree - 1
            out = self.phi(r, lambda key: self._composition(ia, ib, key))
            self._compositions[(ia, ib)] = out
        return out


def cup_small_oracle(a: SmallCochain, b: SmallCochain, oracle: BarOracle) -> SmallCochain:
    """Cup product computed through the bar complex: phi of the
    index-splitting product of the lifts, on ``oracle``."""
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
    a: SmallCochain, b: SmallCochain, bound: int, oracle: BarOracle
) -> SmallCochain:
    """Gerstenhaber bracket through the bar-complex oracle: phi of the graded
    commutator of the slot compositions of the lifts, on ``oracle``."""
    r, rp = a.degree, b.degree
    _check_bracket_bound(r, rp, bound)
    alg = a.alg
    if r == 0 and rp == 0:
        return SmallCochain(alg, 0, alg.zero_elem(), check=False)
    ia, ib = oracle._id(a), oracle._id(b)
    F = alg.field
    s = F.one.v if (r + 1) * (rp + 1) % 2 else F._neg(F.one.v)  # minus the sign of the commutator
    value = row_sum(F, [(F.one.v, oracle._compose(ia, ib).nz), (s, oracle._compose(ib, ia).nz)])
    return SmallCochain(alg, r + rp - 1, AElem._of(alg, value), check=False)


def bracket_small_closed(a: SmallCochain, b: SmallCochain, witness) -> SmallCochain:
    """Closed-form bracket for canonical cochains, valid under a central
    regular witness (which forces the canonical forms to be exhaustive), on
    their K-parts and K's table."""
    if not witness:
        raise ProductsError(NEEDS_WITNESS)
    alg = a.alg
    F, n, norm, d = alg.field, alg.n, alg.alpha.norm, alg.K.dim
    deg = max(a.degree + b.degree - 1, 0)

    def need(c: SmallCochain) -> dict:
        """The K-part of c: an even c lies at x^0, an odd one at x^1."""
        same_field(F, c.value.alg.field)
        e = c.degree % 2
        if any(i // d != e for i in c.value.nz):
            raise ProductsError("input is not in canonical form")
        return {i - e * d: p for i, p in c.value.nz.items()}

    def negated(row: dict) -> list:
        return [(k, F._neg(p)) for k, p in row.items()]

    la, lb = need(a), need(b)
    ktab, out = alg.K.mul_table, {}
    if a.degree % 2 == 0 and b.degree % 2:
        table_mul_into(out, ktab, F, norm(a.degree // 2 * n).apply(lb).items(), la.items())
    elif a.degree % 2 and b.degree % 2 == 0:
        table_mul_into(out, ktab, F, negated(norm(b.degree // 2 * n).apply(la)), lb.items())
    elif a.degree % 2:  # both odd: the difference, at x^1
        table_mul_into(out, ktab, F, norm(a.degree // 2 * n + 1).apply(lb).items(), la.items(), d)
        table_mul_into(out, ktab, F, negated(norm(b.degree // 2 * n + 1).apply(la)), lb.items(), d)
    return SmallCochain(alg, deg, AElem._of(alg, out), check=False)


class ProductStore:
    """The class coordinates of the products of C's class representatives,
    each computed on its first read and only once.  For a pair (p, q, ia,
    ib), representative ia of H^p and ib of H^q, it holds the closed and the
    oracle cup (``cup_small``, ``cup_small_oracle``) and the oracle and the
    closed bracket (``bracket_small_generic``, ``bracket_small_closed``).  A
    value goes to class coordinates from its payloads (``AElem.nz``), once
    per distinct value, and is kept as the payload row of ``class_row``,
    {representative: nonzero payload}, which the store's readers must not
    mutate: equal classes are equal rows.  Each route computes its own
    products, so equal stored rows still compare two computations: a zero
    class of the difference.  A bracket's oracle bound is checked on every
    read and is not part of the key.  One run owns one store
    (``cli.Session.products``), which owns the run's bar oracle."""

    def __init__(self, C: SmallComplex):
        self.C = C
        self.oracle = BarOracle(C.alg)
        self._reps: dict[int, list[SmallCochain]] = {}  # degree -> representatives
        self._coords: dict[tuple, dict] = {}  # (product, p, q, ia, ib) -> class coordinates
        self._classes: dict[tuple, dict] = {}  # (degree, sorted (index, payload)) -> class coordinates

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

    def _read(self, product: str, deg: int, p: int, q: int, ia: int, ib: int, compute) -> dict:
        key = product, p, q, ia, ib
        out = self._coords.get(key)
        if out is None:
            out = self._coords[key] = self.class_of(deg, compute(self.reps(p)[ia], self.reps(q)[ib]).value)
        return out

    def class_of(self, deg: int, value: AElem) -> dict:
        """The class coordinates in H^deg of a cocycle with this value, as a
        payload row (``CohomologyGroup.class_row``), read once per distinct
        value: many products are equal, most often zero."""
        key = deg, tuple(sorted(value.nz.items()))
        out = self._classes.get(key)
        if out is None:
            out = self._classes[key] = cohomology_group(self.C, deg).class_row(value.nz)
        return out

    def cup(self, p: int, q: int, ia: int, ib: int) -> dict:
        return self._read("cup", p + q, p, q, ia, ib, cup_small)

    def cup_oracle(self, p: int, q: int, ia: int, ib: int) -> dict:
        return self._read("cup-oracle", p + q, p, q, ia, ib, lambda a, b: cup_small_oracle(a, b, self.oracle))

    def bracket(self, p: int, q: int, ia: int, ib: int, bound: int = 5) -> dict:
        """The oracle bracket; past the bound it raises even when the pair is stored."""
        _check_bracket_bound(p, q, bound)
        return self._read("bracket", max(p + q - 1, 0), p, q, ia, ib,
                          lambda a, b: bracket_small_generic(a, b, bound, self.oracle))

    def closed_bracket(self, p: int, q: int, ia: int, ib: int, witness) -> dict:
        """The closed bracket; ProductsError without a witness or when a
        representative is not in canonical form."""
        if not witness:
            raise ProductsError(NEEDS_WITNESS)
        return self._read("closed-bracket", max(p + q - 1, 0), p, q, ia, ib,
                          lambda a, b: bracket_small_closed(a, b, witness))


def _class_table(store: ProductStore, degrees, read) -> list[dict]:
    """``read(p, q, ia, ib)``, the class coordinates of a product in H^deg as
    a payload row, written densely to dim H^deg, for every pair of class
    representatives in each (p, q, deg) of ``degrees``; each distinct
    payload is encoded once per call."""
    C = store.C
    code, zv = C.field.encoder(), C.field.zero.v
    return [
        {
            "deg_a": p,
            "deg_b": q,
            "basis_index_a": ia,
            "basis_index_b": ib,
            "result_class_coords": [code(row.get(i, zv)) for i in range(cohomology_group(C, deg).dim)],
        }
        for p, q, deg in degrees
        for ia, ib in store.pairs(p, q)
        for row in [read(p, q, ia, ib)]
    ]


def cup_class_table(store: ProductStore, max_total: int) -> list[dict]:
    """Cup products of the class representatives of the store's complex, as
    class coordinates, read from ``store``."""
    degrees = [
        (p, q, p + q)
        for p in range(max_total + 1)
        for q in range(max_total + 1 - p)
        if p + q + 1 <= store.C.max_degree
    ]
    return _class_table(store, degrees, store.cup)


def bracket_class_table(store: ProductStore, max_total: int, bound: int) -> list[dict]:
    """Generic-oracle brackets of the class representatives of the store's
    complex, as class coordinates, read from ``store``."""
    degrees = [
        (p, q, p + q - 1)
        for p in range(max_total + 1)
        for q in range(max_total + 1 - p)
        if 0 <= p + q - 1 <= bound and p + q <= store.C.max_degree
    ]
    return _class_table(store, degrees, lambda p, q, ia, ib: store.bracket(p, q, ia, ib, bound))
