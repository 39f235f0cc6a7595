"""Deterministic exact linear algebra over the fields in :mod:`orecohom.fields`.

Vectors are tuples of :class:`~orecohom.fields.Scalar`; matrices are immutable
row grids that keep their sparse rows once read: for each row the (column,
entry) pairs of its nonzero entries, in column order.  Sparse vectors, and
the rows of the eliminations and of a solver, are dicts {index: nonzero
entry}.  The inner loops touch only nonzero entries and test for zero on the
payload (``x.v == field.zero.v``), which is exact because payloads are
canonical.  Pivoting always selects the first nonzero entry, so every basis
this module emits is reproducible across runs and platforms.
"""

from __future__ import annotations

import bisect
import functools

from .fields import Field, Scalar


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


def _accumulate(out: dict, c: Scalar, pairs, zv) -> None:
    """out -= c * v in place, for the sparse vector v given by its (index,
    entry) pairs; entries that cancel are dropped."""
    c = -c
    for j, x in pairs:
        t = out[j] + c * x if j in out else c * x
        if t.v == zv:
            del out[j]
        else:
            out[j] = t


def sparse_rows(A: "Mat") -> list[list[tuple[int, Scalar]]]:
    """The nonzero (column, entry) pairs of each row of A, in column order;
    read once per matrix and kept on it."""
    rows = A._sparse
    if rows is None:
        zv = A.field.zero.v
        rows = A._sparse = [[(j, a) for j, a in enumerate(row) if a.v != zv] for row in A.data]
    return rows


class Mat:
    """Immutable rectangular matrix with entries in a single field.

    The entries are taken as given and must be Scalars of ``field``; coerce
    raw values with :meth:`Field.scalar` before building a matrix.  Its
    ``sparse_rows`` are computed on first read and kept, since the entries
    never change."""

    __slots__ = ("field", "data", "rows", "cols", "_sparse")

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
        self._sparse = None

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, columns, nrows: int) -> "Mat":
        columns = list(columns)
        for c in columns:
            if len(c) != nrows:
                raise LinalgError("column length mismatch")
        return cls(
            field,
            [[columns[j][i] for j in range(len(columns))] for i in range(nrows)],
            len(columns),
        )

    @classmethod
    def from_sparse_rows(cls, field: Field, rows, cols: int) -> "Mat":
        """The matrix whose row i has the nonzero entries rows[i], a dict
        {column: nonzero entry}; its sparse rows are kept."""
        z = field.zero
        sparse = [sorted(r.items()) for r in rows]
        data = []
        for r in sparse:
            row = [z] * cols
            for j, a in r:
                row[j] = a
            data.append(row)
        M = cls(field, data, cols)
        M._sparse = sparse
        return M

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns_list(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Mat":
        data = list(zip(*self.data)) if self.rows else [()] * self.cols
        return Mat(self.field, data, self.rows)

    def matvec(self, v: tuple) -> tuple:
        if len(v) != self.cols:
            raise LinalgError("shape mismatch in matvec")
        zv, z = self.field.zero.v, self.field.zero
        terms = [[a * v[j] for j, a in row if v[j].v != zv] for row in sparse_rows(self)]
        return tuple(sum(t[1:], t[0]) if t else z for t in terms)

    def matmul(self, other: "Mat") -> "Mat":
        """Row i of the product is the combination of the sparse rows of
        ``other`` by the nonzero entries of row i."""
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        right = sparse_rows(other)
        out = [combine((a, right[k]) for k, a in row) for row in sparse_rows(self)]
        return Mat.from_sparse_rows(self.field, out, other.cols)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        return Mat(
            self.field,
            [vadd(r1, r2) for r1, r2 in zip(self.data, other.data)],
            self.cols,
        )

    def scale(self, s: Scalar) -> "Mat":
        return Mat(self.field, [vscale(s, r) for r in self.data], self.cols)

    def is_zero(self) -> bool:
        return not any(sparse_rows(self))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2)
            )
        )

    def __hash__(self):
        return hash((id(self.field), self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def rref(M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns (R, pivot cols)."""
    t = EchelonTracker(M.field, M.cols)
    for row in sparse_rows(M):
        t.add(dict(row))
    rows = t.rows + [{}] * (M.rows - t.dim)
    return Mat.from_sparse_rows(M.field, rows, M.cols), list(t.lead)


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Mat) -> Mat:
    """Columns form a basis of the null space of M (the standard free-variable basis)."""
    R, pivots = rref(M)
    return _free_basis(M.field, M.cols, sparse_rows(R), pivots)


def _free_basis(field: Field, n: int, rows, lead: list[int]) -> Mat:
    """The free-variable null space basis of reduced echelon rows, given as
    (column, entry) pairs, with leading columns ``lead``: for each free
    column fc, a one at fc and minus row i's entry at fc in column lead[i].
    A row is zero at the other rows' leading columns, so its entries off its
    own lead are at free columns."""
    pivots = set(lead)
    free = {fc: k for k, fc in enumerate(fc for fc in range(n) if fc not in pivots)}
    out: list[dict] = [{} for _ in range(n)]
    for fc, k in free.items():
        out[fc] = {k: field.one}
    for row, pc in zip(rows, lead):
        out[pc] = {free[j]: -x for j, x in row if j != pc}
    return Mat.from_sparse_rows(field, out, len(free))


def solve(M: Mat, b: tuple) -> tuple | None:
    """One solution of M x = b, or None when inconsistent."""
    return LinSolver(M).solve(b)


class LinSolver:
    """Precomputed elimination for solving M x = b repeatedly against one M.

    The rows of [M | I] go through one echelon with its pivots in M's
    columns.  A reduced row [R_i | E_i] keeps E_i M = R_i; a row whose M part
    reduces to zero leaves its E_i, unnormalised, in the left null space of M.
    ``E`` holds each E_i as a sparse row {column: nonzero entry}: first the
    rows of the rref, in pivot order, then the null rows."""

    def __init__(self, M: Mat):
        self.M = M
        field, n = M.field, M.cols
        t = EchelonTracker(field, n + M.rows, pivot_cols=n)
        null = []
        for i, row in enumerate(sparse_rows(M)):
            w = dict(row)
            w[n + i] = field.one
            t._reduce(w)
            if not t._insert(w):
                null.append(w)
        self.pivots = list(t.lead)
        self.rank = t.dim
        self.E = [{j - n: e for j, e in row.items() if j >= n} for row in t.rows + null]

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


class EchelonTracker:
    """Incrementally maintained reduced row echelon form: the package's one
    Gauss-Jordan elimination.

    The rows lead at their first nonzero entry, which is a one, and are zero
    in every other row's leading column, so they depend only on the span
    added.  Leading columns lie among the first ``pivot_cols`` (default: all).
    Each row is sparse, a dict {column: nonzero entry}, so eliminating with
    it touches only its nonzero entries, and reducing a vector touches only
    the rows that lead at one of its nonzero entries."""

    def __init__(self, field: Field, n: int, pivot_cols: int | None = None):
        self.field = field
        self.n = n
        self.pivot_cols = n if pivot_cols is None else pivot_cols
        self.rows: list[dict[int, Scalar]] = []
        self.lead: list[int] = []
        self._by_lead: dict[int, dict[int, Scalar]] = {}

    @classmethod
    def of_columns(cls, M: Mat) -> "EchelonTracker":
        """The echelon of the span of M's columns."""
        t = cls(M.field, M.rows)
        for c in M.columns_list():
            t.add(c)
        return t

    def _reduce(self, w: dict) -> None:
        """Reduce the sparse vector w in place by every row.  A row adds
        entries only off the other rows' leading columns, so the rows that
        take part are those leading at an entry of w to begin with."""
        by_lead, zv = self._by_lead, self.field.zero.v
        for c in [c for c in w if c in by_lead]:
            _accumulate(w, w[c], by_lead[c].items(), zv)

    def contains(self, v: tuple) -> bool:
        w = dict(support(v))
        self._reduce(w)
        return not w

    def add(self, v) -> bool:
        """Insert v, a tuple of length n or a sparse vector {index: nonzero
        entry}; True when it joined the echelon (for full pivot columns: when
        the span grew)."""
        if isinstance(v, dict):
            w = dict(v)
        elif len(v) != self.n:
            raise LinalgError("vector length mismatch")
        else:
            w = dict(support(v))
        self._reduce(w)
        return self._insert(w)

    def _insert(self, w: dict) -> bool:
        """Join a sparse vector already reduced by every row, normalised at
        its leading entry, and clear its leading column from the other rows."""
        if not w:
            return False
        c = min(w)
        if c >= self.pivot_cols:
            return False
        field = self.field
        if w[c].v != field.one.v:
            inv = w[c].inv()
            w = {j: inv * x for j, x in w.items()}
        zv = field.zero.v
        for row in self.rows:
            f = row.get(c)
            if f is not None:
                _accumulate(row, f, w.items(), zv)
        pos = bisect.bisect(self.lead, c)
        self.rows.insert(pos, w)
        self.lead.insert(pos, c)
        self._by_lead[c] = w
        return True

    def extend(self, M: Mat) -> Mat:
        """Add M's columns in order; returns those that joined, as columns."""
        return Mat.from_columns(M.field, [c for c in M.columns_list() if self.add(c)], M.rows)

    def kernel(self) -> Mat:
        """The free-variable basis of the null space of the rows, as columns."""
        return _free_basis(self.field, self.n, [r.items() for r in self.rows], self.lead)

    @property
    def dim(self) -> int:
        return len(self.rows)


def span_equal(A: Mat, B: Mat) -> bool:
    if A.rows != B.rows:
        return False
    t = EchelonTracker.of_columns(A)
    if any(not t.contains(c) for c in B.columns_list()):
        return False
    return EchelonTracker.of_columns(B).dim == t.dim


def quotient_basis(sub: Mat, amb: Mat) -> Mat:
    """Columns of amb extending a basis of span(sub) to span(amb).

    Raises LinalgError when span(sub) is not contained in span(amb)."""
    if sub.rows != amb.rows:
        raise LinalgError("ambient dimension mismatch")
    full = EchelonTracker.of_columns(amb)
    for c in sub.columns_list():
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
    stacked = Mat(
        field,
        [list(ra) + [-x for x in rb] for ra, rb in zip(A.data, B.data)],
        A.cols + B.cols,
    )
    ker = kernel_basis(stacked)
    t = EchelonTracker(field, A.rows)
    cols = []
    for kc in ker.columns_list():
        v = A.matvec(kc[: A.cols])
        if t.add(v):
            cols.append(v)
    return Mat.from_columns(field, cols, A.rows)


def minimal_polynomial(M: Mat) -> list[Scalar]:
    """Monic minimal polynomial of a square matrix, constant-first coefficients."""
    if M.rows != M.cols:
        raise LinalgError("square matrix required")
    field = M.field
    n = M.rows
    t = EchelonTracker(field, n * n)
    powers = [Mat.identity(field, n)]

    def flat(A: Mat) -> tuple:
        return tuple(x for row in A.data for x in row)

    while t.add(flat(powers[-1])):
        powers.append(powers[-1].matmul(M))
    k = len(powers) - 1  # M^k depends on lower powers
    cols = [flat(P) for P in powers[:k]]
    sol = solve(Mat.from_columns(field, cols, n * n), flat(powers[k]))
    if sol is None:
        raise LinalgError(f"M^{k} is not a combination of its lower powers")
    return [-c for c in sol] + [field.one]
