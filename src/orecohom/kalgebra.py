"""Coefficient algebras: structure constants, group algebras, quaternions.

An :class:`AlgebraK` stores one summed table of structure constants c_{ij}^k
over one exact field together with optional group metadata: repeated
(i, j, k) entries are added and zero sums dropped as the table enters, and
every product, action matrix and check reads that one table, whose
constants are field payloads.  An element of K is the tuple of its
coordinates over the basis, Scalars of that field taken as given; raw values
enter through ``AlgebraK.elem``.  Basis actions, on K and on A, are
:class:`BasisActions`, each matrix built on its first read; the center of K
is ``twisted_invariants_k(K, alpha, 0)``.  Twisting endomorphisms
live in :class:`Endo`, which keeps alpha - id and the partial norms of alpha;
the group-algebra case builds them from characters.  The checks
are exact and read the nonzero structure constants: the unit law on every basis
element, associativity as L(e_i e_j) = L(e_i) L(e_j) for the left
multiplications L, and a twist's multiplicativity on every basis pair.  Each
check first tries a certificate on the algebra generators of K
(``AlgebraK.generators``, ``Endo.generators``), which proves the full
condition when it passes; the basis scan runs only when it fails, to name
the first failure.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, Scalar
from .linalg import EchelonTracker, Mat, dense, kernel_basis, payloads, rank, row_sum, same_field


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


class GroupData:
    """A finite group as a verified multiplication table on element indices."""

    def __init__(self, labels: list[str], table: list[list[int]]):
        n = len(labels)
        if len(table) != n or any(len(row) != n for row in table):
            raise AlgebraError("group table must be square over the label list")
        ident = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise AlgebraError("group table has no identity")
        for a, b, c in itertools.product(range(n), repeat=3):
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise AlgebraError(f"group table not associative at ({a},{b},{c})")
        inverses = []
        for a in range(n):
            inv = next((b for b in range(n) if table[a][b] == ident), None)
            if inv is None or table[inv][a] != ident:
                raise AlgebraError(f"element {labels[a]} has no inverse")
            inverses.append(inv)
        self.order = n
        self.labels = list(labels)
        self.table = [list(r) for r in table]
        self.identity = ident
        self.inverses = inverses

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mul(self.mul(h, g), self.inverses[h])

    @functools.cached_property
    def conj_class_of(self) -> list[int]:
        """conj_class_of[g] = smallest index in the class of g."""
        rep = list(range(self.order))
        for g in range(self.order):
            orbit = {self.conj(h, g) for h in range(self.order)}
            m = min(orbit)
            for x in orbit:
                rep[x] = min(rep[x], m)
        return rep

    def conj_classes(self) -> list[list[int]]:
        classes: dict[int, list[int]] = {}
        for g in range(self.order):
            classes.setdefault(self.conj_class_of[g], []).append(g)
        return [classes[k] for k in sorted(classes)]

    def centralizer(self, g: int) -> list[int]:
        return [h for h in range(self.order) if self.mul(h, g) == self.mul(g, h)]

    def center_indices(self) -> list[int]:
        return [g for g in range(self.order) if len(self.centralizer(g)) == self.order]

    def subgroup_generated(self, gens: list[int]) -> list[int]:
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    for b in (self.mul(a, g), self.mul(a, self.inverses[g])):
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
            frontier = nxt
        return sorted(seen)

    def quotient_group(self, normal: list[int]) -> tuple["GroupData", list[int]]:
        """Quotient by a (verified) normal subgroup; returns (Q, projection)."""
        nset = set(normal)
        if self.identity not in nset:
            raise AlgebraError("subgroup must contain the identity")
        for h in range(self.order):
            for x in normal:
                if self.conj(h, x) not in nset:
                    raise AlgebraError("subgroup is not normal")
        coset_of = [-1] * self.order
        cosets: list[list[int]] = []
        for g in range(self.order):
            if coset_of[g] >= 0:
                continue
            cs = sorted(self.mul(g, x) for x in normal)
            for x in cs:
                coset_of[x] = len(cosets)
            cosets.append(cs)
        labels = [self.labels[cs[0]] + "N" for cs in cosets]
        table = [
            [coset_of[self.mul(cs[0], ds[0])] for ds in cosets] for cs in cosets
        ]
        return GroupData(labels, table), coset_of


def cyclic_group(n: int) -> GroupData:
    labels = ["1"] + [f"g^{j}" if j > 1 else "g" for j in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return GroupData(labels, table)


def group_from_presentation_gh4(u: int) -> GroupData:
    """Order-4u group with normal form g^j h^l (0 <= j < u, 0 <= l < 4),
    subject to g^u = h^4 = 1 and h g = g^-1 h."""
    if u < 1:
        raise AlgebraError("u must be positive")

    def idx(j: int, l: int) -> int:
        return (j % u) * 4 + (l % 4)

    def label(j: int, l: int) -> str:
        parts = []
        if j % u:
            parts.append("g" if j % u == 1 else f"g^{j % u}")
        if l % 4:
            parts.append("h" if l % 4 == 1 else f"h^{l % 4}")
        return "*".join(parts) if parts else "1"

    labels = [label(j, l) for j in range(u) for l in range(4)]
    table = [[0] * (4 * u) for _ in range(4 * u)]
    for j, l, j2, l2 in itertools.product(range(u), range(4), range(u), range(4)):
        sign = -1 if l % 2 else 1
        table[idx(j, l)][idx(j2, l2)] = idx(j + sign * j2, l + l2)
    G = GroupData(labels, table)
    # the defining relations, rechecked on the finished table
    g, h = G.labels.index("g") if u > 1 else G.identity, G.labels.index("h")
    if G.conj(h, g) != G.inverses[g]:
        raise AlgebraError("the finished table breaks h g h^-1 = g^-1")
    return G


def group_from_table(labels: list[str], table: list[list[int]]) -> GroupData:
    return GroupData(labels, table)


class AlgebraK:
    """Finite-dimensional associative unital algebra via sparse structure constants.

    The unit holds Scalars of ``field`` and the table is given as (k,
    Scalar) pairs; :meth:`from_structure_constants` coerces raw entries, and
    an entry of another field raises :func:`mixed`.  The table is summed
    where it enters: ``mul_table`` maps each (i, j) with e_i e_j != 0 to the
    ordered list of (k, payload of nonzero c_{ij}^k) pairs, each k once, the
    entries given for the same (i, j, k) added and pairs whose product is
    zero left out.  A's compiled table has the same form."""

    def __init__(
        self,
        field: Field,
        dim: int,
        basis_names: list[str],
        unit: tuple,
        mul_table: dict[tuple[int, int], list[tuple[int, Scalar]]],
        group: GroupData | None = None,
    ):
        self.field = field
        self.dim = dim
        self.basis_names = list(basis_names)
        self.unit = tuple(unit)
        one = field.one.v
        self.mul_table = {
            ij: sorted(prod.items()) for ij, terms in mul_table.items()
            if (prod := row_sum(field, ((one, payloads(field, [kc])) for kc in terms)))
        }
        self.group = group

    @classmethod
    def from_structure_constants(
        cls, field: Field, dim: int, basis_names, unit, quads, group=None
    ) -> "AlgebraK":
        table: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        for i, j, k, s in quads:
            table.setdefault((i, j), []).append((k, field.scalar(s)))
        unit = tuple(field.scalar(c) for c in unit)
        return cls(field, dim, list(basis_names), unit, table, group)

    def kmul(self, u: tuple, v: tuple) -> tuple:
        F = self.field
        u, v = payloads(F, enumerate(u)).items(), payloads(F, enumerate(v)).items()
        return dense(F, table_mul_into({}, self.mul_table, F, u, v), self.dim)

    def elem(self, x) -> tuple:
        """The coordinates of x, coerced to the field: a scalar times the unit,
        a basis label, a {label: scalar} dict or a sequence of dim scalars."""
        if isinstance(x, (int, Fraction, Scalar)):
            s = self.field.scalar(x)
            return tuple(s * c for c in self.unit)
        if isinstance(x, str):
            x = {x: 1}
        if isinstance(x, dict):
            coords = [self.field.zero] * self.dim
            for name, c in x.items():
                if name not in self.basis_names:
                    raise AlgebraError(f"unknown basis label {name!r}; K's labels are {self.basis_names}")
                coords[self.basis_names.index(name)] = self.field.scalar(c)
            return tuple(coords)
        coords = tuple(self.field.scalar(c) for c in x)
        if len(coords) != self.dim:
            raise AlgebraError("coordinate length mismatch")
        return coords

    def basis_elem(self, i: int) -> tuple:
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return tuple(coords)

    @functools.cached_property
    def generators(self) -> tuple[int, ...] | None:
        """Basis indices of algebra generators of K, or None when K fails the
        certificate below.

        The walk takes the basis in order and keeps e_b when it is not in W,
        the span of the unit and of the left-nested words (((g_1 g_2) g_3) ...)
        in the generators kept so far; W is kept closed under right
        multiplication by every kept generator.  Each e_b is in W once its turn
        has passed, so at the end W = K, exactly.  On the group algebras of
        gh4 the walk keeps h and g.

        The indices are returned only when the unit law holds on every basis
        element and (e_i e_j) g = e_i (e_j g) on every triple with g a kept
        generator.  Then K is associative: for fixed a, b the w with
        (ab)w = a(bw) form a subspace that holds 1 (the unit law), hence each
        g = 1g, and with w also wg, since
        (ab)(wg) = ((ab)w)g = (a(bw))g = a((bw)g) = a(b(wg)),
        each step being a checked triple or the hypothesis on w.  That subspace
        contains W = K.  So a certified K passes ``algebra_validate``."""
        gens = self._spanning_generators()
        return gens if self._certifies(gens) else None

    def _spanning_generators(self) -> tuple[int, ...]:
        """The walk of ``generators``: the basis indices it keeps."""
        span = EchelonTracker(self.field, self.dim)
        words: list[tuple] = []  # the vectors that joined the span: a basis of W
        done: list[int] = []  # how many kept generators each word was multiplied by
        gens: list[int] = []

        def grow(v: tuple) -> None:
            if span.add(v):
                words.append(v)
                done.append(0)

        grow(self.unit)
        for b in range(self.dim):
            e = self.basis_elem(b)
            if span.contains(e):
                continue
            gens.append(b)
            grow(e)
            i = 0
            while i < len(words):
                while done[i] < len(gens):
                    grow(self.kmul(words[i], self.basis_elem(gens[done[i]])))
                    done[i] += 1
                i += 1
        return tuple(gens)

    def _certifies(self, gens: tuple[int, ...]) -> bool:
        """The certificate of ``generators``: the unit law on every basis
        element and associativity on every triple (e_i, e_j, g), g in gens."""
        return not _unit_law_failures(self) and all(
            _associative_at(self, i, j, g)
            for i, j in itertools.product(range(self.dim), repeat=2)
            for g in gens
        )

    def left_mult_matrix(self, u: tuple) -> Mat:
        return mult_matrix(self.field, self.dim, self.mul_table, payloads(self.field, enumerate(u)))

    def right_mult_matrix(self, u: tuple) -> Mat:
        u = payloads(self.field, enumerate(u))
        return mult_matrix(self.field, self.dim, self.mul_table, u, left=False)

    @functools.cached_property
    def actions(self) -> tuple[BasisActions, BasisActions]:
        """The matrices R(e_b) and L(e_b) of each basis element e_b."""
        F, dim, table = self.field, self.dim, self.mul_table
        return tuple(BasisActions(F, dim, table, dim, left) for left in (False, True))


def table_mul_into(acc: dict, table, field: Field, u, v, base: int = 0) -> dict:
    """acc[base + k] += (u v)_k on an algebra with basis products ``table``:
    {(i, j): [(k, payload), ...]} for e_i e_j = sum of c e_k.  u and v are
    given by the (index, payload) pairs of their nonzero coordinates, v
    re-iterable, and the sum runs on payloads of ``field`` in one pass: a
    sum that cancels is removed from acc where it happens, so an acc given
    with nonzero payloads only is left with nonzero payloads only."""
    mul, add, one, zv = field._mul, field._add, field.one.v, field.zero.v
    for i, a in u:
        for j, b in v:
            terms = table.get((i, j))
            if terms is None:
                continue
            ab = b if a == one else a if b == one else mul(a, b)
            unit = ab == one
            for k, s in terms:
                t, k = s if unit else mul(ab, s), k + base
                p = acc.get(k)
                if p is not None:
                    t = add(p, t)
                    if t == zv:
                        del acc[k]
                        continue
                acc[k] = t
    return acc


def mult_matrix(field: Field, dim: int, table, u: dict, left: bool = True) -> Mat:
    """The matrix of v -> u v (or v -> v u when ``left`` is false) on an algebra
    with basis products ``table`` (see ``table_mul_into``), for u a payload
    row {index: nonzero payload}.  Column j, u e_j (or e_j u), is read off
    the nonzero entries of u and the table, straight into payload rows; a
    sum that cancels is removed where it happens."""
    rows: list[dict] = [{} for _ in range(dim)]  # row k: {column j: payload}
    mul, add, one, zv = field._mul, field._add, field.one.v, field.zero.v
    for i, a in u.items():
        for j in range(dim):
            terms = table.get((i, j) if left else (j, i))
            if terms:
                for k, s in terms:
                    t, row = s if a == one else mul(a, s), rows[k]
                    p = row.get(j)
                    if p is not None:
                        t = add(p, t)
                        if t == zv:
                            del row[j]
                            continue
                    row[j] = t
    return Mat.from_sparse_rows(field, rows, dim)


class BasisActions(Sequence):
    """The actions of the first ``count`` basis vectors e_b on one side of a
    dim-dimensional algebra with basis products ``table``, as a sequence of
    ``count`` matrices: matrix b, of v -> e_b v (or v -> v e_b when ``left``
    is false), is built by ``mult_matrix`` on its first read and kept, so a
    solve builds only the actions it reads: K's on itself (``AlgebraK.actions``)
    and on the regular bimodule of A (``Bimodule.regular``)."""

    def __init__(self, field: Field, dim: int, table, count: int, left: bool = True):
        self.field, self.dim, self.table, self.left = field, dim, table, left
        self._mats: list[Mat | None] = [None] * count

    def __len__(self) -> int:
        return len(self._mats)

    def __getitem__(self, b: int) -> Mat:
        b = range(len(self._mats))[b]  # an index in range, or IndexError
        A = self._mats[b]
        if A is None:
            F = self.field
            A = self._mats[b] = mult_matrix(F, self.dim, self.table, {b: F.one.v}, left=self.left)
        return A


def _unit_law_failures(K: AlgebraK) -> list[str]:
    """The basis elements e with 1 e != e or e 1 != e, as failure strings."""
    failures = []
    for i in range(K.dim):
        e = K.basis_elem(i)
        if K.kmul(K.unit, e) != e or K.kmul(e, K.unit) != e:
            failures.append(f"unit law fails at basis {i} ({K.basis_names[i]})")
    return failures


def _associative_at(K: AlgebraK, i: int, j: int, k: int) -> bool:
    """(e_i e_j) e_k = e_i (e_j e_k), both sides summed from the summed
    structure constants of K."""
    F, table, one = K.field, K.mul_table, K.field.one.v
    lhs = table_mul_into({}, table, F, table.get((i, j), ()), ((k, one),))
    rhs = table_mul_into({}, table, F, ((i, one),), table.get((j, k), ()))
    return lhs == rhs


def algebra_validate(K: AlgebraK) -> ValidationReport:
    """Check the unit law on every basis element, then associativity as the
    exact test L(e_i e_j) = L(e_i) L(e_j), with L(u) the matrix of v -> u v.
    Column k of the two sides is (e_i e_j) e_k and e_i (e_j e_k); both are
    summed from the nonzero structure constants and compared for each triple
    (i, j, k) in lexicographic order.  Reports every unit failure and the
    first failing triple.

    When ``K.generators`` is certified, both checks are proved to pass and
    the scan is skipped; otherwise it runs in full, so a failure is reported
    the same either way."""
    if K.generators is not None:
        return ValidationReport(True)
    failures = _unit_law_failures(K)
    for i, j, k in itertools.product(range(K.dim), repeat=3):
        if not _associative_at(K, i, j, k):
            failures.append(f"associativity fails at triple ({i},{j},{k})")
            return ValidationReport(False, tuple(failures))
    return ValidationReport(not failures, tuple(failures))


def group_algebra(G: GroupData, field: Field) -> AlgebraK:
    quads = [
        (a, b, G.mul(a, b), field.one) for a in range(G.order) for b in range(G.order)
    ]
    unit = [field.one if i == G.identity else field.zero for i in range(G.order)]
    return AlgebraK.from_structure_constants(
        field, G.order, G.labels, unit, quads, group=G
    )


def scalar_algebra(field: Field) -> AlgebraK:
    """The field itself as a one-dimensional algebra."""
    return AlgebraK.from_structure_constants(
        field, 1, ["1"], [field.one], [(0, 0, 0, field.one)]
    )


class Endo:
    """Algebra endomorphism of K given by its matrix on the basis.

    Its powers are computed once each, and equal powers are one object: each
    new power is looked up by its ``Mat.key``, so caches keyed on a power
    (the twisted invariants of K and of a bimodule) key it by identity and
    never hash its entries again."""

    def __init__(self, alg: AlgebraK, matrix: Mat):
        if matrix.rows != alg.dim or matrix.cols != alg.dim:
            raise AlgebraError("endomorphism matrix must be dim x dim")
        self.alg = alg
        self.matrix = matrix
        self._distinct: dict[tuple, Mat] = {}  # payloads of a power -> that power
        self._powers: dict[int, Mat] = {}
        for r, P in enumerate((Mat.identity(alg.field, alg.dim), matrix)):
            self._powers[r] = self._distinct.setdefault(P.key(), P)
        self._invariants: dict[int, Mat] = {}  # id of alpha^r -> twisted_invariants_k
        self._norms: list[Mat] = [Mat.zero(alg.field, alg.dim, alg.dim)]  # l -> norm(l)

    def apply(self, u: tuple) -> tuple:
        return self.matrix.matvec(u)

    def power_matrix(self, r: int) -> Mat:
        if r < 0:
            raise AlgebraError("negative twist exponent")
        if r not in self._powers:
            P = self.power_matrix(r - 1).matmul(self.matrix)
            self._powers[r] = self._distinct.setdefault(P.key(), P)
        return self._powers[r]

    def apply_power(self, r: int, u: tuple) -> tuple:
        return self.power_matrix(r).matvec(u)

    @functools.cached_property
    def is_automorphism(self) -> bool:
        return rank(self.matrix) == self.alg.dim

    @functools.cached_property
    def minus_identity(self) -> Mat:
        """The matrix of alpha - id, built once per twist: the odd closed
        differential and the closed tables read it."""
        F = self.alg.field
        return self.matrix.add(Mat.identity(F, self.alg.dim).scale(-F.one))

    @functools.cached_property
    def fixed_space(self) -> Mat:
        """Basis (columns) of the fixed space ker(alpha - id), the
        ``kernel_basis`` of ``minus_identity``: solved once per twist and read
        by every closed cohomology table that needs it."""
        return kernel_basis(self.minus_identity)

    def norm(self, l: int) -> Mat:
        """The partial norm sum_{i < l} alpha^i, the zero matrix for l = 0:
        the orbit sums of the closed bracket and, at l = n, the trace map of
        the closed tables.  Built iteratively, norm(l + 1) = norm(l) +
        alpha^l, and each kept, so a run pays one matrix sum per l."""
        if l < 0:
            raise AlgebraError("negative norm length")
        norms = self._norms
        while len(norms) <= l:
            norms.append(norms[-1].add(self.power_matrix(len(norms) - 1)))
        return norms[l]

    @functools.cached_property
    def order(self) -> int | None:
        """Multiplicative order of the matrix, or None if it exceeds 4 dim^2."""
        ident = Mat.identity(self.alg.field, self.alg.dim)
        for r in range(1, 4 * self.alg.dim * self.alg.dim + 1):
            if self.power_matrix(r) == ident:
                return r
        return None

    @functools.cached_property
    def generators(self) -> tuple[int, ...] | None:
        """K's ``generators`` when alpha passes the certificate below, else
        None (also when K fails its own).

        The certificate: alpha fixes the unit and alpha(e_i g) =
        alpha(e_i) alpha(g) for every basis element e_i and generator g.  On a
        certified K this makes alpha multiplicative: the w with
        alpha(x w) = alpha(x) alpha(w) for every x form a subspace that holds
        1, and with w also wg, since
        alpha(x(wg)) = alpha((xw)g) = alpha(xw) alpha(g)
        = alpha(x) alpha(w) alpha(g) = alpha(x) alpha(wg),
        by associativity and the checked pairs; it contains every word in the
        generators, so all of K.  Every power alpha^r is then a unital algebra
        endomorphism too, which ``twisted_kernel`` relies on."""
        gens = self.alg.generators
        return gens if gens is not None and self._certifies(gens) else None

    def _certifies(self, gens: tuple[int, ...]) -> bool:
        """The certificate of ``generators``: alpha fixes the unit and is
        multiplicative on every pair (e_i, g), g in gens."""
        alg, image = self.alg, self._images()
        return self.apply(alg.unit) == alg.unit and all(
            self._multiplicative_at(image, i, g) for i in range(alg.dim) for g in gens
        )

    def _images(self) -> list[dict]:
        """alpha(e_i) for each basis element, as the payload column i."""
        return self.matrix.transpose().sparse

    def _multiplicative_at(self, image: list, i: int, j: int) -> bool:
        """alpha(e_i e_j) = alpha(e_i) alpha(e_j), with the products read from
        the nonzero structure constants."""
        F, table = self.alg.field, self.alg.mul_table
        lhs = row_sum(F, ((c, image[m]) for m, c in table.get((i, j), ())))
        return lhs == table_mul_into({}, table, F, image[i].items(), image[j].items())

    def validate(self) -> ValidationReport:
        """Check that alpha fixes the unit and that alpha(e_i e_j) =
        alpha(e_i) alpha(e_j) for each basis pair (i, j) in lexicographic
        order, with alpha(e_i) the sparse column i of the matrix and the
        products read from the nonzero structure constants.  Reports the
        first failing pair.

        When ``generators`` is certified, every pair is proved to pass and the
        scan is skipped; otherwise it runs in full, so a failure is reported
        the same either way."""
        if self.generators is not None:
            return ValidationReport(True)
        failures = []
        alg = self.alg
        if self.apply(alg.unit) != alg.unit:
            failures.append("endomorphism does not fix the unit")
        image = self._images()
        for i, j in itertools.product(range(alg.dim), repeat=2):
            if not self._multiplicative_at(image, i, j):
                failures.append(f"multiplicativity fails at pair ({i},{j})")
                return ValidationReport(False, tuple(failures))
        return ValidationReport(not failures, tuple(failures))


def identity_endo(alg: AlgebraK) -> Endo:
    return Endo(alg, Mat.identity(alg.field, alg.dim))


def validate_character(G: GroupData, chi: list[Scalar]) -> ValidationReport:
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


def endo_from_character(K: AlgebraK, chi: list[Scalar]) -> Endo:
    """Diagonal twist g -> chi(g) g on a group algebra."""
    if K.group is None:
        raise AlgebraError("character twist needs group metadata")
    rep = validate_character(K.group, chi)
    if not rep.ok:
        raise AlgebraError("; ".join(rep.failures))
    field = K.field
    M = Mat(
        field,
        [
            [chi[j] if i == j else field.zero for j in range(K.dim)]
            for i in range(K.dim)
        ],
    )
    return Endo(K, M)


def character_from_values(G: GroupData, field: Field, gen_values: dict[str, Scalar]) -> list[Scalar]:
    """Extend generator values to all of G by the labels' normal form.

    gen_values maps a label (e.g. "g", "h") to its character value; every group
    element must be reachable as a product of the given generators."""
    if unknown := [name for name in gen_values if name not in G.labels]:
        raise AlgebraError(f"unknown group label {unknown[0]!r}; the group's labels are {G.labels}")
    gens = {G.labels.index(name): field.scalar(v) for name, v in gen_values.items()}
    chi: list[Scalar | None] = [None] * G.order
    chi[G.identity] = field.one
    frontier = [G.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, val in gens.items():
                b = G.mul(a, g)
                want = chi[a] * val
                if chi[b] is None:
                    chi[b] = want
                    nxt.append(b)
                elif chi[b] != want:
                    raise AlgebraError("generator values are inconsistent")
        frontier = nxt
    if any(c is None for c in chi):
        raise AlgebraError("given generators do not generate the group")
    return chi  # type: ignore[return-value]


def char_power(chi: list[Scalar], r: int) -> list[Scalar]:
    return [c ** r for c in chi]


def character_order(G: GroupData, chi: list[Scalar]) -> int:
    field = chi[0].field
    v = 1
    cur = list(chi)
    while any(c != field.one for c in cur):
        cur = [c0 * c for c0, c in zip(chi, cur)]
        v += 1
        if v > 4 * G.order:
            raise AlgebraError("character order out of range")
    return v


def character_kernel(G: GroupData, chi: list[Scalar]) -> list[int]:
    field = chi[0].field
    return [g for g in range(G.order) if chi[g] == field.one]


def quaternion_algebra(
    field: Field, cos: Scalar, sin: Scalar, cos_half: Scalar, sin_half: Scalar
) -> tuple[AlgebraK, Endo]:
    """Quaternions with the rotation twist about the k-axis (``rotation_endo``)."""
    names = ["1", "i", "j", "k"]
    o, z = field.one, field.zero
    # i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j, anticommuting
    quads = [(0, t, t, o) for t in range(4)] + [(t, 0, t, o) for t in range(1, 4)]
    signs = {
        (1, 1): (0, -o), (2, 2): (0, -o), (3, 3): (0, -o),
        (1, 2): (3, o), (2, 1): (3, -o),
        (2, 3): (1, o), (3, 2): (1, -o),
        (3, 1): (2, o), (1, 3): (2, -o),
    }
    quads += [(i, j, k, s) for (i, j), (k, s) in signs.items()]
    alg = AlgebraK.from_structure_constants(field, 4, names, (o, z, z, z), quads)
    return alg, rotation_endo(alg, cos, sin, cos_half, sin_half)


def rotation_endo(K: AlgebraK, cos: Scalar, sin: Scalar, cos_half: Scalar, sin_half: Scalar) -> Endo:
    """The rotation of the quaternions K in the i-j plane, about the k-axis.

    The four inputs must satisfy both Pythagorean identities and the
    double-angle relations cos = cos_half^2 - sin_half^2, sin = 2 cos_half sin_half."""
    field = K.field
    cos, sin = field.scalar(cos), field.scalar(sin)
    cos_half, sin_half = field.scalar(cos_half), field.scalar(sin_half)
    o, z = field.one, field.zero
    if cos * cos + sin * sin != o:
        raise AlgebraError("cos^2 + sin^2 = 1 fails")
    if cos_half * cos_half + sin_half * sin_half != o:
        raise AlgebraError("half-angle Pythagorean identity fails")
    if cos != cos_half * cos_half - sin_half * sin_half or sin != 2 * cos_half * sin_half:
        raise AlgebraError("double-angle identities fail")
    M = Mat(
        field,
        [
            [o, z, z, z],
            [z, cos, -sin, z],
            [z, sin, cos, z],
            [z, z, z, o],
        ],
    )
    alpha = Endo(K, M)
    rep = alpha.validate()
    if not rep.ok:
        raise AlgebraError("; ".join(rep.failures))
    return alpha


def twisted_kernel(field: Field, dim: int, right: Sequence[Mat], left: Sequence[Mat], twist: Mat,
                   generators: tuple[int, ...] | None) -> Mat:
    """Basis (columns) of {m : R_b m = sum_c twist[c][b] L_c m for every b}.

    With R_b and L_c the right and left actions of K's basis elements on a
    dim-dimensional module, the matrices ``right[b]`` and ``left[c]``, and
    ``twist`` the matrix of alpha^r, these are the m with
    m e_b = alpha^r(e_b) m.  Each row of a constraint R_b - L(alpha^r(e_b))
    is one ``row_sum`` of the rows of the action matrices by the entries of
    column b of ``twist``, the payload row the echelon keeps; a matrix of
    another field raises :func:`mixed`.  The rows go into one echelon until
    full rank, whose free-variable kernel is the basis.  Only the actions of
    the stacked b and of the support of their twist columns are read, so a
    ``BasisActions`` sequence (K's own and the regular bimodule's) builds no
    others.

    Only the constraints of the b in ``generators`` are stacked, or of every
    b when it is None.  Pass the certified ``Endo.generators`` of the twist,
    and only for a module that is a K-bimodule: L(lam mu) = L(lam) L(mu),
    R(lam mu) = R(mu) R(lam), the two sides commute and the unit acts as the
    identity, as for ``Bimodule.regular`` and K over itself once K and alpha
    are certified.  Then for each m the lam with m lam = alpha^r(lam) m form a
    subalgebra: it holds 1, as alpha^r(1) = 1, and with lam and mu also
    lam mu, since m lam mu = alpha^r(lam) m mu = alpha^r(lam) alpha^r(mu) m =
    alpha^r(lam mu) m.  It holds the generators, so it is K, and the
    generators' constraints cut out the same space as all of them.  The
    reduced free-variable basis of a space is unique, so the columns are the
    same as from every constraint, not only their span."""
    same_field(field, twist.field)
    tracker, neg = EchelonTracker(field, dim), field._neg
    twist_cols = twist.transpose().sparse
    for b in range(len(right)) if generators is None else generators:
        terms = [(field.one.v, right[b])] + [(neg(t), left[c]) for c, t in twist_cols[b].items()]
        for _, A in terms:
            same_field(field, A.field)
        for i in range(dim):
            row = row_sum(field, ((cv, A.sparse[i]) for cv, A in terms))  # R_b[i] - sum_c t_cb L_c[i]
            if row:
                tracker.add_payloads(row)
                if tracker.dim == dim:
                    return tracker.kernel()
    return tracker.kernel()


def twisted_invariants_k(K: AlgebraK, alpha: Endo, r: int) -> Mat:
    """Basis of {u in K : u b = alpha^r(b) u for all b}, as columns: the
    twisted invariants of K as a bimodule over itself, solved from the
    constraints of ``alpha.generators`` (see ``twisted_kernel``); at r = 0,
    the center of K.  Cached on alpha, keyed by the power alpha^r, which is
    one object for equal powers, so equal twist powers share one solve."""
    if K is not alpha.alg:
        raise AlgebraError("the twist is an endomorphism of another algebra")
    twist = alpha.power_matrix(r)
    basis = alpha._invariants.get(id(twist))
    if basis is None:
        basis = alpha._invariants[id(twist)] = twisted_kernel(
            K.field, K.dim, *K.actions, twist, alpha.generators
        )
    return basis
