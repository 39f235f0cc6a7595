"""Deterministic exact linear algebra over the fields in :mod:`orecohom.fields`.

Vectors are tuples of :class:`~orecohom.fields.Scalar`; sparse vectors are
dicts {index: nonzero entry}.  A matrix is immutable and stored as its sparse
rows only, each in column order; its dense grid and columns are built when
read, and a column is read sparse as a row of the transpose.  The rows of
the one elimination, ``EchelonTracker``, are payload rows {column: nonzero
payload}: an entry is checked and unboxed once as it enters, eliminated on
payloads, and boxed only when it leaves (``rows``, ``kernel``, a solver's
``E``).  The inner loops touch only nonzero entries, test for zero on the
payload (exact, as payloads are canonical), add and multiply payloads
through the field's ``_add``/``_mul``, skip products by the unit, and box
one Scalar per nonzero entry they return; an entry of another field raises
:func:`~orecohom.fields.mixed`.  Pivoting always selects the first nonzero
entry, so every basis this module emits is reproducible across runs and
platforms.
"""

from __future__ import annotations

import bisect
import functools

from .fields import Field, Scalar, mixed


class LinalgError(ValueError):
    pass


def vadd(a: tuple, b: tuple) -> tuple:
    zv = a[0].field.zero.v if a else None
    return tuple(
        y if x.v == zv else x if y.v == zv else x + y
        for x, y in zip(a, b, strict=True)
    )


def vscale(s: Scalar, a: tuple) -> tuple:
    zv = s.field.zero.v
    if s.v == zv:
        return (s,) * len(a)
    return tuple(x if x.v == zv else s * x for x in a)


def support(v: tuple) -> list[tuple[int, Scalar]]:
    """The nonzero entries of v as (index, entry) pairs, in index order."""
    zv = v[0].field.zero.v if v else None
    return [(j, x) for j, x in enumerate(v) if x.v != zv]


def combine(terms) -> dict[int, Scalar]:
    """The sum of c * v over the (c, v) in ``terms``, each v a sparse vector
    {index: entry} or its (index, entry) pairs, summed on payloads in the
    field of the first c, as a sparse vector with its zero entries dropped."""
    acc: dict = {}  # index -> payload
    field = None
    for c, v in terms:
        if field is None:
            field = c.field
            mul, add, one_v = field._mul, field._add, field.one.v
        elif c.field is not field:
            raise mixed(field, c.field)
        cv, unit = c.v, c.v == one_v
        for k, s in v.items() if isinstance(v, dict) else v:
            if s.field is not field:
                raise mixed(field, s.field)
            t = s.v if unit else mul(cv, s.v)
            p = acc.get(k)
            acc[k] = t if p is None else add(p, t)
    return boxed(field, acc)


def boxed(field: Field, acc: dict) -> dict[int, Scalar]:
    """The nonzero payloads of acc, {index: payload}, as Scalars of field."""
    if not acc:
        return {}
    zv = field.zero.v
    return {k: Scalar(field, p) for k, p in acc.items() if p != zv}


def _accumulate(out: dict, c, pairs, field: Field) -> None:
    """out -= c * v in place, all on payloads of ``field``: out is {index:
    payload}, c a payload and v given by its (index, payload) pairs; zero
    sums drop."""
    mul, add, zv = field._mul, field._add, field.zero.v
    nc = field._neg(c)
    unit = nc == field.one.v
    for j, x in pairs:
        t = x if unit else mul(nc, x)
        p = out.get(j)
        if p is not None:
            t = add(p, t)
            if t == zv:
                del out[j]
                continue
        out[j] = t


class Mat:
    """Immutable rectangular matrix over one field, stored as its sparse rows:
    ``sparse[i]`` is the dict {column: nonzero entry} of row i, in column
    order.

    The entries are taken as given and must be Scalars of ``field``; coerce
    raw values with :meth:`Field.scalar` before building a matrix.  Every
    constructor keeps only the nonzero entries, and ``data``, the dense grid
    of rows, is built on each read."""

    __slots__ = ("field", "rows", "cols", "sparse")

    def __init__(self, field: Field, data, cols: int | None = None):
        rows = [tuple(row) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise LinalgError("ragged rows")
            if cols is not None and cols != width:
                raise LinalgError("cols mismatch")
            cols = width
        elif cols is None:
            cols = 0
        zv = field.zero.v
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.sparse = [{j: a for j, a in enumerate(r) if a.v != zv} for r in rows]

    @classmethod
    def from_sparse_rows(cls, field: Field, rows, cols: int) -> "Mat":
        """The matrix whose row i has the nonzero entries rows[i], a dict
        {column: nonzero entry}."""
        M = cls.__new__(cls)
        M.field, M.cols = field, cols
        M.sparse = [{j: r[j] for j in sorted(r)} for r in rows]
        M.rows = len(M.sparse)
        return M

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls.from_sparse_rows(field, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls.from_sparse_rows(field, [{i: field.one} for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, columns, nrows: int) -> "Mat":
        columns = list(columns)
        if any(len(c) != nrows for c in columns):
            raise LinalgError("column length mismatch")
        return cls(field, columns, nrows).transpose()

    @property
    def data(self) -> tuple:
        """The dense rows, built on each read."""
        z = self.field.zero
        return tuple(tuple(row.get(j, z) for j in range(self.cols)) for row in self.sparse)

    def column(self, j: int) -> tuple:
        z = self.field.zero
        return tuple(row.get(j, z) for row in self.sparse)

    def columns_list(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        """Row j is filled in increasing i, so it is in column order as built."""
        T = Mat.__new__(Mat)
        T.field, T.rows, T.cols = self.field, self.cols, self.rows
        T.sparse = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, a in row.items():
                T.sparse[j][i] = a
        return T

    def matvec(self, v: tuple) -> tuple:
        if len(v) != self.cols:
            raise LinalgError("shape mismatch in matvec")
        field = self.field
        mul, add, zv, one_v = field._mul, field._add, field.zero.v, field.one.v
        out = []
        for row in self.sparse:
            acc = None
            for j, a in row.items():
                x = v[j]
                xv = x.v
                if xv == zv:
                    continue
                if x.field is not field or a.field is not field:
                    raise mixed(field, a.field if x.field is field else x.field)
                av = a.v
                t = xv if av == one_v else av if xv == one_v else mul(av, xv)
                acc = t if acc is None else add(acc, t)
            out.append(field.zero if acc is None or acc == zv else Scalar(field, acc))
        return tuple(out)

    def matmul(self, other: "Mat") -> "Mat":
        """Row i of the product is the combination of the sparse rows of
        ``other`` by the nonzero entries of row i."""
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        right = other.sparse
        out = [combine((a, right[k]) for k, a in row.items()) for row in self.sparse]
        return Mat.from_sparse_rows(self.field, out, other.cols)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        one = self.field.one
        out = [combine([(one, r1), (one, r2)]) for r1, r2 in zip(self.sparse, other.sparse)]
        return Mat.from_sparse_rows(self.field, out, self.cols)

    def scale(self, s: Scalar) -> "Mat":
        return Mat.from_sparse_rows(self.field, [combine([(s, r)]) for r in self.sparse], self.cols)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def key(self) -> tuple:
        """A key equal for two matrices of one field exactly when they are
        equal: the number of columns and the payloads of the nonzero entries
        of each row.  An entry of another field raises :func:`mixed`."""
        field = self.field
        for row in self.sparse:
            for a in row.values():
                if a.field is not field:
                    raise mixed(field, a.field)
        return self.cols, tuple(tuple((j, a.v) for j, a in row.items()) for row in self.sparse)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field is other.field and self.key() == other.key()

    def __hash__(self):
        return hash((id(self.field), self.rows, self.cols))

    def __repr__(self):
        z = self.field.zero
        body = "; ".join(" ".join(repr(row.get(j, z)) for j in range(self.cols)) for row in self.sparse)
        return f"Mat({self.rows}x{self.cols}: {body})"


def rref(M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns (R, pivot cols)."""
    t = EchelonTracker.of_rows(M)
    rows = t.rows + [{}] * (M.rows - t.dim)
    return Mat.from_sparse_rows(M.field, rows, M.cols), list(t.lead)


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Mat) -> Mat:
    """Columns form a basis of the null space of M (the standard free-variable
    basis), read off the rows of its rref."""
    return EchelonTracker.of_rows(rref(M)[0]).kernel()


def solve(M: Mat, b: tuple) -> tuple | None:
    """One solution of M x = b, or None when inconsistent."""
    return LinSolver(M).solve(b)


class LinSolver:
    """Precomputed elimination for solving M x = b repeatedly against one M.

    The rows of [M | I] go through one echelon with its pivots in M's
    columns.  A reduced row [R_i | E_i] keeps E_i M = R_i; a row whose M part
    reduces to zero leaves its E_i, unnormalised, in the left null space of M.
    The rows go in and are reduced as payloads, and ``E`` boxes each of its
    entries once: it holds each E_i as a sparse row {column: nonzero entry},
    first the rows of the rref, in pivot order, then the null rows."""

    def __init__(self, M: Mat):
        self.M = M
        field, n = M.field, M.cols
        t = EchelonTracker(field, n + M.rows, pivot_cols=n)
        null, one_v = [], field.one.v
        for i, row in enumerate(M.sparse):
            w = t._payloads(row)
            w[n + i] = one_v
            if not t.add_payloads(w):
                null.append(w)
        self.pivots = list(t.lead)
        self.rank = t.dim
        self.E = [{j - n: Scalar(field, e) for j, e in row.items() if j >= n} for row in t._rows + null]

    def solve(self, b: tuple) -> tuple | None:
        if len(b) != self.M.rows:
            raise LinalgError("shape mismatch in solve")
        y = combine((x, self._columns[j]) for j, x in support(b))  # E b
        if any(i >= self.rank for i in y):
            return None
        x = [self.M.field.zero] * self.M.cols
        for i, s in y.items():
            x[self.pivots[i]] = s
        return tuple(x)

    @functools.cached_property
    def _columns(self) -> list[dict[int, Scalar]]:
        """E by columns, {row: entry} each, so a solve reads only the columns
        at the nonzero entries of b."""
        cols: list[dict[int, Scalar]] = [{} for _ in range(self.M.rows)]
        for i, row in enumerate(self.E):
            for j, e in row.items():
                cols[j][i] = e
        return cols


class FreeRows:
    """Coordinates in a reduced free-variable basis B (``kernel_basis``,
    ``twisted_kernel``) read off its free rows, without elimination.  Column k
    is one at its free row f_k, zero at the other free rows, and f_k is its
    last nonzero row, as an echelon row's entries lie right of its lead; so
    w in span(B) has the coordinates (w[f_0], ..., w[f_{k-1}]).  ``read``
    checks B sol = w on the nonzero entries, so a w outside the span reads as
    None, never as wrong coordinates, since B's columns are independent.  A
    basis in another form raises LinalgError."""

    def __init__(self, B: Mat):
        last = [-1] * B.cols  # the last nonzero row of each column
        for i, row in enumerate(B.sparse):
            for k in row:
                last[k] = i
        one_v = B.field.one.v
        if any(f < 0 or B.sparse[f].keys() != {k} or B.sparse[f][k].v != one_v for k, f in enumerate(last)):
            raise LinalgError("the basis is not in reduced free-variable form")
        self.B, self.free = B, last
        self._negated = [{i: -x for i, x in col.items()} for col in B.transpose().sparse]

    def read(self, w) -> tuple | None:
        """The coordinates of w, a tuple of length ``B.rows`` or a sparse
        vector {index: entry}, over B's columns, or None when w is not in
        their span.  A tuple of another length, or a sparse index outside
        0..rows-1, raises LinalgError."""
        rows, zero = self.B.rows, self.B.field.zero
        if isinstance(w, dict):
            for j in w:
                if not 0 <= j < rows:
                    raise LinalgError(f"index {j} outside the rows 0..{rows - 1}")
            sol, nonzero = tuple([w.get(f, zero) for f in self.free]), w
        elif len(w) != rows:
            raise LinalgError("shape mismatch in read")
        else:
            sol, nonzero = tuple([w[f] for f in self.free]), support(w)
        if not nonzero:
            return sol
        terms = [(c, col) for c, col in zip(sol, self._negated) if c.v != zero.v]
        return None if combine([(self.B.field.one, nonzero), *terms]) else sol

    def matrix(self, vectors) -> Mat | None:
        """The matrix whose columns are the coordinates of ``vectors``, or
        None when one of them is not in span(B)."""
        cols = []
        for w in vectors:
            cols.append(self.read(w))
            if cols[-1] is None:
                return None
        return Mat.from_columns(self.B.field, cols, self.B.cols)


class EchelonTracker:
    """Incrementally maintained reduced row echelon form: the package's one
    Gauss-Jordan elimination.

    The rows lead at their first nonzero entry, which is a one, and are zero
    in every other row's leading column, so they depend only on the span
    added.  Leading columns lie among the first ``pivot_cols`` (default: all).
    Each row is a payload row, a dict {column: nonzero payload}, so
    eliminating with it touches only its nonzero entries, reducing a vector
    touches only the rows that lead at one of its nonzero entries, and
    neither boxes a Scalar.  An entry's field and column are checked once, as
    it enters (``add``, ``contains``); ``rows`` boxes the rows on each read,
    and ``kernel`` boxes each entry it returns once."""

    def __init__(self, field: Field, n: int, pivot_cols: int | None = None):
        self.field = field
        self.n = n
        self.pivot_cols = n if pivot_cols is None else pivot_cols
        self._rows: list[dict] = []
        self.lead: list[int] = []
        self._by_lead: dict[int, dict] = {}

    @classmethod
    def of_rows(cls, M: Mat) -> "EchelonTracker":
        """The echelon of the span of M's rows."""
        t = cls(M.field, M.cols)
        for row in M.sparse:
            t.add(row)
        return t

    @classmethod
    def of_columns(cls, M: Mat) -> "EchelonTracker":
        """The echelon of the span of M's columns."""
        return cls.of_rows(M.transpose())

    @property
    def rows(self) -> list[dict[int, Scalar]]:
        """The rows as sparse vectors {column: nonzero entry}, boxed on each read."""
        field = self.field
        return [{j: Scalar(field, p) for j, p in row.items()} for row in self._rows]

    def _payloads(self, v) -> dict:
        """v, a tuple of length n or a sparse vector {index: entry}, as a
        payload dict {index: nonzero payload}.  An entry of another field
        raises :func:`mixed`; a tuple of another length, or a sparse index
        outside 0..n-1, raises LinalgError."""
        field, n, zv, w = self.field, self.n, self.field.zero.v, {}
        if not isinstance(v, dict) and len(v) != n:
            raise LinalgError("vector length mismatch")
        for j, x in v.items() if isinstance(v, dict) else enumerate(v):
            if x.field is not field:
                raise mixed(field, x.field)
            if x.v != zv:
                if not 0 <= j < n:
                    raise LinalgError(f"index {j} outside the columns 0..{n - 1}")
                w[j] = x.v
        return w

    def _reduce(self, w: dict) -> None:
        """Reduce the payload row w in place by every row.  A row adds
        entries only off the other rows' leading columns, so the rows that
        take part are those leading at an entry of w to begin with."""
        by_lead, field = self._by_lead, self.field
        for c in [c for c in w if c in by_lead]:
            _accumulate(w, w[c], by_lead[c].items(), field)

    def contains(self, v) -> bool:
        """Whether v, a tuple of length n or a sparse vector {index: entry},
        is in the span of the rows."""
        w = self._payloads(v)
        self._reduce(w)
        return not w

    def add(self, v) -> bool:
        """Insert v, a tuple of length n or a sparse vector {index: entry};
        True when it joined the echelon (for full pivot columns: when the
        span grew)."""
        return self.add_payloads(self._payloads(v))

    def add_payloads(self, w: dict) -> bool:
        """``add`` for a payload row w, {column in 0..n-1: nonzero payload of
        the field}, which the caller has checked.  w is reduced in place and
        may be kept as a row."""
        self._reduce(w)
        if not w:
            return False
        c = min(w)
        if c >= self.pivot_cols:
            return False
        field = self.field
        if w[c] != field.one.v:
            mul, inv = field._mul, field._inv(w[c])
            for j, x in w.items():
                w[j] = mul(inv, x)
        for row in self._rows:
            f = row.get(c)
            if f is not None:
                _accumulate(row, f, w.items(), field)
        pos = bisect.bisect(self.lead, c)
        self._rows.insert(pos, w)
        self.lead.insert(pos, c)
        self._by_lead[c] = w
        return True

    def extend(self, M: Mat) -> Mat:
        """Add M's columns in order; returns those that joined, as columns."""
        joined = [c for c in M.transpose().sparse if self.add(c)]
        return Mat.from_sparse_rows(M.field, joined, M.rows).transpose()

    def kernel(self) -> Mat:
        """The free-variable basis of the null space of the rows, as columns:
        for each free column fc, a one at fc and minus row i's entry at fc in
        column lead[i].  A row is zero at the other rows' leading columns, so
        its entries off its own lead are at free columns."""
        field, neg = self.field, self.field._neg
        pivots = set(self.lead)
        free = {fc: k for k, fc in enumerate(fc for fc in range(self.n) if fc not in pivots)}
        out: list[dict] = [{} for _ in range(self.n)]
        for fc, k in free.items():
            out[fc] = {k: field.one}
        for row, pc in zip(self._rows, self.lead):
            out[pc] = {free[j]: Scalar(field, neg(x)) for j, x in row.items() if j != pc}
        return Mat.from_sparse_rows(field, out, len(free))

    @property
    def dim(self) -> int:
        return len(self._rows)


def span_equal(A: Mat, B: Mat) -> bool:
    if A.rows != B.rows:
        return False
    t = EchelonTracker.of_columns(A)
    if any(not t.contains(c) for c in B.transpose().sparse):
        return False
    return EchelonTracker.of_columns(B).dim == t.dim


def quotient_basis(sub: Mat, amb: Mat) -> Mat:
    """Columns of amb extending a basis of span(sub) to span(amb).

    Raises LinalgError when span(sub) is not contained in span(amb)."""
    if sub.rows != amb.rows:
        raise LinalgError("ambient dimension mismatch")
    full = EchelonTracker.of_columns(amb)
    for c in sub.transpose().sparse:
        if not full.contains(c):
            raise LinalgError("inconsistent subspace: sub not inside amb")
    return EchelonTracker.of_columns(sub).extend(amb)


def intersect_spans(A: Mat, B: Mat) -> Mat:
    """Basis of span(A) ∩ span(B), as columns."""
    if A.rows != B.rows:
        raise LinalgError("ambient dimension mismatch")
    field = A.field
    if A.cols == 0 or B.cols == 0:
        return Mat.from_columns(field, [], A.rows)
    # the kernel of [A | -B] pairs the combinations of A's columns with
    # those of B's that are equal; its A part, through A, spans the meet
    n = A.cols
    stacked = [{**ra, **{n + j: -x for j, x in rb.items()}} for ra, rb in zip(A.sparse, B.sparse)]
    ker = kernel_basis(Mat.from_sparse_rows(field, stacked, n + B.cols))
    a_cols = A.transpose().sparse
    t = EchelonTracker(field, A.rows)
    cols = []
    for kc in ker.transpose().sparse:
        v = combine((x, a_cols[j]) for j, x in kc.items() if j < n)
        if t.add(v):
            cols.append(v)
    return Mat.from_sparse_rows(field, cols, A.rows).transpose()


def minimal_polynomial(M: Mat) -> list[Scalar]:
    """Monic minimal polynomial of a square matrix, constant-first coefficients."""
    if M.rows != M.cols:
        raise LinalgError("square matrix required")
    field = M.field
    n = M.rows
    t = EchelonTracker(field, n * n)
    powers = [Mat.identity(field, n)]

    def flat(A: Mat) -> tuple:
        return tuple(x for c in A.columns_list() for x in c)

    while t.add(flat(powers[-1])):
        powers.append(powers[-1].matmul(M))
    k = len(powers) - 1  # M^k depends on lower powers
    cols = [flat(P) for P in powers[:k]]
    sol = solve(Mat.from_columns(field, cols, n * n), flat(powers[k]))
    if sol is None:
        raise LinalgError(f"M^{k} is not a combination of its lower powers")
    return [-c for c in sol] + [field.one]
