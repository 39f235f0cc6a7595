"""Deterministic exact linear algebra over the fields in :mod:`orecohom.fields`.

Dense vectors are tuples of :class:`~orecohom.fields.Scalar`.  Every other
container stores field payloads and holds its field: a payload row is a dict
{index: nonzero payload}, a matrix is its payload rows, and the one
elimination, ``EchelonTracker``, keeps payload rows too.  Scalars are
unboxed as they enter (``Mat(field, dense)``, ``Mat.from_columns``,
``Mat.matvec``, ``EchelonTracker.add`` and ``contains``, ``LinSolver.solve``,
``FreeRows.read``), each checked to be of the container's field, and boxed
only as they leave (``Mat.data``, ``column``, ``columns_list``, ``matvec``,
``solve``, ``read``).  An operation on two
containers checks their fields once; an entry or operand of another field
raises :func:`~orecohom.fields.mixed`.  The inner loops touch only nonzero
entries, test for zero on the payload (exact, as payloads are canonical),
add and multiply through the field's ``_add``/``_mul`` and skip products by
the unit.  Each sum is one pass: a sum that cancels is removed where it
happens (``row_sum``, ``_accumulate``, ``kalgebra.table_mul_into``), so a
payload row never holds the zero payload and needs no second pass.
Pivoting always selects the first nonzero entry, so every basis this
module emits is reproducible across runs and platforms.
"""

from __future__ import annotations

import bisect
import functools

from .fields import Field, Scalar, mixed


class LinalgError(ValueError):
    pass


def vscale(s: Scalar, a: tuple) -> tuple:
    zv = s.field.zero.v
    if s.v == zv:
        return (s,) * len(a)
    return tuple(x if x.v == zv else s * x for x in a)


def support(v: tuple) -> list[tuple[int, Scalar]]:
    """The nonzero entries of v as (index, entry) pairs, in index order."""
    zv = v[0].field.zero.v if v else None
    return [(j, x) for j, x in enumerate(v) if x.v != zv]


def same_field(field: Field, other: Field) -> None:
    """The one field check of an operand: :func:`mixed` unless other is field."""
    if other is not field:
        raise mixed(field, other)


def payloads(field: Field, entries) -> dict:
    """The nonzero entries of (index, Scalar) pairs, each index once, as a
    payload row {index: payload}; :func:`mixed` on an entry of another field."""
    zv, out = field.zero.v, {}
    for k, s in entries:
        if s.field is not field:
            raise mixed(field, s.field)
        if s.v != zv:
            out[k] = s.v
    return out


def dense(field: Field, row: dict, n: int, base: int = 0) -> tuple:
    """Entries base .. base + n - 1 of the payload row as a tuple of Scalars."""
    zero = field.zero
    return tuple(zero if (p := row.get(i)) is None else Scalar(field, p) for i in range(base, base + n))


def row_sum(field: Field, terms) -> dict:
    """The sum of c * row over the (c, row) pairs of ``terms``, c a payload
    and row a payload row {index: nonzero payload}, as a new payload row, in
    one pass: a zero c is skipped, the first row is copied (scaled unless c
    is the unit) and a sum that cancels is removed where it happens."""
    mul, add, one, zv = field._mul, field._add, field.one.v, field.zero.v
    acc = None
    for c, row in terms:
        if c == zv:
            continue
        unit = c == one
        if acc is None:
            acc = dict(row) if unit else {k: mul(c, x) for k, x in row.items()}
            continue
        for k, x in row.items():
            t = x if unit else mul(c, x)
            p = acc.get(k)
            if p is not None:
                t = add(p, t)
                if t == zv:
                    del acc[k]
                    continue
            acc[k] = t
    return {} if acc is None else acc


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
    """Immutable rectangular matrix over one field, stored as its payload
    rows: ``sparse[i]`` is the dict {column: nonzero payload} of row i, in
    the order it was built.

    ``Mat(field, dense)`` and ``from_columns`` take Scalars of ``field``
    (coerce raw values with :meth:`Field.scalar` first) and raise
    :func:`mixed` on an entry of another field; ``from_sparse_rows`` takes
    payload rows as they are.  ``data``, the dense grid of rows, and the
    columns are boxed on each read."""

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
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.sparse = [payloads(field, enumerate(r)) for r in rows]

    @classmethod
    def from_sparse_rows(cls, field: Field, rows, cols: int) -> "Mat":
        """The matrix whose row i is rows[i], a payload row {column: nonzero
        payload}, stored as given."""
        M = cls.__new__(cls)
        M.field, M.cols = field, cols
        M.sparse = list(rows)
        M.rows = len(M.sparse)
        return M

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls.from_sparse_rows(field, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        one = field.one.v
        return cls.from_sparse_rows(field, [{i: one} for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, columns, nrows: int) -> "Mat":
        columns = list(columns)
        if any(len(c) != nrows for c in columns):
            raise LinalgError("column length mismatch")
        return cls(field, columns, nrows).transpose()

    @property
    def data(self) -> tuple:
        """The dense rows, boxed on each read."""
        return tuple(dense(self.field, row, self.cols) for row in self.sparse)

    def column(self, j: int) -> tuple:
        field, zero = self.field, self.field.zero
        return tuple(zero if (p := row.get(j)) is None else Scalar(field, p) for row in self.sparse)

    def columns_list(self) -> list[tuple]:
        return [dense(self.field, col, self.rows) for col in self.transpose().sparse]

    def transpose(self) -> "Mat":
        """Row j is filled in increasing i, so it is in column order as built."""
        T = Mat.__new__(Mat)
        T.field, T.rows, T.cols = self.field, self.cols, self.rows
        T.sparse = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, a in row.items():
                T.sparse[j][i] = a
        return T

    def apply(self, w: dict) -> dict:
        """M w for a payload row w {column: nonzero payload}, as a payload
        row {row: nonzero payload}."""
        field = self.field
        mul, add, zv, one = field._mul, field._add, field.zero.v, field.one.v
        out = {}
        for i, row in enumerate(self.sparse):
            acc = None
            for j, a in row.items():
                x = w.get(j)
                if x is not None:
                    t = x if a == one else a if x == one else mul(a, x)
                    acc = t if acc is None else add(acc, t)
            if acc is not None and acc != zv:
                out[i] = acc
        return out

    def matvec(self, v: tuple) -> tuple:
        if len(v) != self.cols:
            raise LinalgError("shape mismatch in matvec")
        return dense(self.field, self.apply(payloads(self.field, enumerate(v))), self.rows)

    def matmul(self, other: "Mat") -> "Mat":
        """Row i of the product is the combination of the rows of ``other``
        by the nonzero entries of row i."""
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        field, right = self.field, other.sparse
        same_field(field, other.field)
        out = [row_sum(field, ((a, right[k]) for k, a in row.items())) for row in self.sparse]
        return Mat.from_sparse_rows(field, out, other.cols)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in add")
        field = self.field
        same_field(field, other.field)
        one = field.one.v
        out = [row_sum(field, [(one, r1), (one, r2)]) for r1, r2 in zip(self.sparse, other.sparse)]
        return Mat.from_sparse_rows(field, out, self.cols)

    def scale(self, s: Scalar) -> "Mat":
        field = self.field
        same_field(field, s.field)
        return Mat.from_sparse_rows(field, [row_sum(field, [(s.v, r)]) for r in self.sparse], self.cols)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def key(self) -> tuple:
        """A key equal for two matrices of one field exactly when they are
        equal: the number of columns and the nonzero (column, payload)
        entries of each row, sorted, as the rows are stored in the order
        they were built."""
        return self.cols, tuple(tuple(sorted(row.items())) for row in self.sparse)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field is other.field and self.cols == other.cols and self.sparse == other.sparse

    def __hash__(self):
        return hash((id(self.field), self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(map(repr, row)) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def rref(M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns (R, pivot
    cols).  R holds the payload rows of an echelon local to the call."""
    t = EchelonTracker.of_rows(M)
    rows = t._rows + [{} for _ in range(M.rows - t.dim)]
    return Mat.from_sparse_rows(M.field, rows, M.cols), t.lead


def _free_kernel(field: Field, n: int, rows, lead) -> Mat:
    """The free-variable basis of the null space of reduced echelon rows in n
    columns, row i leading with a one at lead[i] (rows past the last lead
    are ignored), as columns: for each free column fc, a one at fc and minus
    row i's entry at fc in column lead[i].  A row is zero at the other
    rows' leading columns, so its entries off its own lead are at free
    columns."""
    neg, one = field._neg, field.one.v
    pivots = set(lead)
    free = {fc: k for k, fc in enumerate(fc for fc in range(n) if fc not in pivots)}
    out: list[dict] = [{} for _ in range(n)]
    for fc, k in free.items():
        out[fc] = {k: one}
    for row, pc in zip(rows, lead):
        out[pc] = {free[j]: neg(x) for j, x in row.items() if j != pc}
    return Mat.from_sparse_rows(field, out, len(free))


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Mat) -> Mat:
    """Columns form a basis of the null space of M (the standard free-variable
    basis), read off the rows and pivots of its rref."""
    R, lead = rref(M)
    return _free_kernel(M.field, M.cols, R.sparse, lead)


def solve(M: Mat, b: tuple) -> tuple | None:
    """One solution of M x = b, or None when inconsistent."""
    return LinSolver(M).solve(b)


class LinSolver:
    """Precomputed elimination for solving M x = b repeatedly against one M.

    The rows of [M | I] go through one echelon with its pivots in M's
    columns.  A reduced row [R_i | E_i] keeps E_i M = R_i; a row whose M part
    reduces to zero leaves its E_i, unnormalised, in the left null space of M.
    ``E`` holds each E_i as a payload row {column: nonzero payload}, first
    the rows of the rref, in pivot order, then the null rows."""

    def __init__(self, M: Mat):
        self.M = M
        field, n = M.field, M.cols
        t = EchelonTracker(field, n + M.rows, pivot_cols=n)
        null, one_v = [], field.one.v
        for i, row in enumerate(M.sparse):
            w = dict(row)
            w[n + i] = one_v
            if not t.add_payloads(w):
                null.append(w)
        self.pivots = list(t.lead)
        self.rank = t.dim
        self.E = [{j - n: e for j, e in row.items() if j >= n} for row in t._rows + null]

    def solve(self, b: tuple) -> tuple | None:
        if len(b) != self.M.rows:
            raise LinalgError("shape mismatch in solve")
        field, cols = self.M.field, self._columns
        y = row_sum(field, ((x, cols[j]) for j, x in payloads(field, enumerate(b)).items()))  # E b
        if any(i >= self.rank for i in y):
            return None
        return dense(field, {self.pivots[i]: p for i, p in y.items()}, self.M.cols)

    @functools.cached_property
    def _columns(self) -> list[dict]:
        """E by columns, {row: payload} each, so a solve reads only the
        columns at the nonzero entries of b."""
        cols: list[dict] = [{} for _ in range(self.M.rows)]
        for i, row in enumerate(self.E):
            for j, e in row.items():
                cols[j][i] = e
        return cols


class FreeRows:
    """Coordinates in a reduced free-variable basis B (``kernel_basis``,
    ``twisted_kernel``) read off its free rows, without elimination.  Column k
    is one at its free row f_k, zero at the other free rows, and f_k is its
    last nonzero row, as an echelon row's entries lie right of its lead; so
    w in span(B) has the coordinates (w[f_0], ..., w[f_{k-1}]).  ``coords``
    checks B sol = w on the nonzero entries, so a w outside the span reads as
    None, never as wrong coordinates, since B's columns are independent.  A
    basis in another form raises LinalgError."""

    def __init__(self, B: Mat):
        last = [-1] * B.cols  # the last nonzero row of each column
        for i, row in enumerate(B.sparse):
            for k in row:
                last[k] = i
        one_v, neg = B.field.one.v, B.field._neg
        if any(f < 0 or B.sparse[f].keys() != {k} or B.sparse[f][k] != one_v for k, f in enumerate(last)):
            raise LinalgError("the basis is not in reduced free-variable form")
        self.B, self.free = B, last
        self._negated = [{i: neg(x) for i, x in col.items()} for col in B.transpose().sparse]

    def coords(self, w: dict) -> dict | None:
        """The coordinates of the payload row w over B's columns, as a
        payload row, or None when w is not in their span."""
        sol = {k: p for k, f in enumerate(self.free) if (p := w.get(f)) is not None}
        if not w:
            return sol
        field, negated = self.B.field, self._negated
        rest = row_sum(field, [(field.one.v, w), *((p, negated[k]) for k, p in sol.items())])
        return None if rest else sol

    def read(self, w) -> tuple | None:
        """The coordinates of w, a tuple of length ``B.rows`` or a sparse
        vector {index: entry}, over B's columns, or None when w is not in
        their span.  A tuple of another length, or a sparse index outside
        0..rows-1, raises LinalgError."""
        rows, field = self.B.rows, self.B.field
        if isinstance(w, dict):
            for j in w:
                if not 0 <= j < rows:
                    raise LinalgError(f"index {j} outside the rows 0..{rows - 1}")
            w = w.items()
        elif len(w) != rows:
            raise LinalgError("shape mismatch in read")
        else:
            w = enumerate(w)
        sol = self.coords(payloads(field, w))
        return None if sol is None else dense(field, sol, self.B.cols)

    def matrix(self, rows) -> Mat | None:
        """The matrix whose columns are the coordinates of the payload rows
        ``rows``, or None when one of them is not in span(B)."""
        cols = []
        for w in rows:
            cols.append(self.coords(w))
            if cols[-1] is None:
                return None
        return Mat.from_sparse_rows(self.B.field, cols, self.B.cols).transpose()


class EchelonTracker:
    """Incrementally maintained reduced row echelon form: the package's one
    Gauss-Jordan elimination.

    The rows lead at their first nonzero entry, which is a one, and are zero
    in every other row's leading column, so they depend only on the span
    added.  Leading columns lie among the first ``pivot_cols`` (default: all).
    Each row is a payload row, a dict {column: nonzero payload}, so
    eliminating with it touches only its nonzero entries, and reducing a
    vector touches only the rows that lead at one of its nonzero entries.
    A Scalar entry's field and column are checked once, as it enters
    (``add``, ``contains``); the rows of a matrix enter as copies, after one
    check of its field, and ``kernel`` returns a matrix of payload rows."""

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
            t.add_payloads(dict(row))
        return t

    @classmethod
    def of_columns(cls, M: Mat) -> "EchelonTracker":
        """The echelon of the span of M's columns."""
        return cls.of_rows(M.transpose())

    def _payloads(self, v) -> dict:
        """v, a tuple of length n or a sparse vector {index: entry}, as a
        payload dict {index: nonzero payload}.  An entry of another field
        raises :func:`mixed`; a tuple of another length, or a sparse index
        outside 0..n-1, raises LinalgError."""
        n = self.n
        if not isinstance(v, dict) and len(v) != n:
            raise LinalgError("vector length mismatch")
        w = payloads(self.field, v.items() if isinstance(v, dict) else enumerate(v))
        for j in w:
            if not 0 <= j < n:
                raise LinalgError(f"index {j} outside the columns 0..{n - 1}")
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
        return self.contains_payloads(self._payloads(v))

    def contains_payloads(self, w: dict) -> bool:
        """``contains`` for a payload row w, {column in 0..n-1: nonzero
        payload of the field}, which it reduces in place."""
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
        same_field(self.field, M.field)
        joined = [c for c in M.transpose().sparse if self.add_payloads(dict(c))]
        return Mat.from_sparse_rows(M.field, joined, M.rows).transpose()

    def kernel(self) -> Mat:
        """The free-variable basis of the null space of the rows, as columns
        (``_free_kernel``)."""
        return _free_kernel(self.field, self.n, self._rows, self.lead)

    @property
    def dim(self) -> int:
        return len(self._rows)


def span_equal(A: Mat, B: Mat) -> bool:
    if A.rows != B.rows:
        return False
    t = EchelonTracker.of_columns(A)
    same_field(t.field, B.field)
    if any(not t.contains_payloads(c) for c in B.transpose().sparse):
        return False
    return EchelonTracker.of_columns(B).dim == t.dim


def quotient_basis(sub: Mat, amb: Mat) -> Mat:
    """Columns of amb extending a basis of span(sub) to span(amb).

    Raises LinalgError when span(sub) is not contained in span(amb)."""
    if sub.rows != amb.rows:
        raise LinalgError("ambient dimension mismatch")
    full = EchelonTracker.of_columns(amb)
    same_field(full.field, sub.field)
    for c in sub.transpose().sparse:
        if not full.contains_payloads(c):
            raise LinalgError("inconsistent subspace: sub not inside amb")
    return EchelonTracker.of_columns(sub).extend(amb)


def intersect_spans(A: Mat, B: Mat) -> Mat:
    """Basis of span(A) ∩ span(B), as columns."""
    if A.rows != B.rows:
        raise LinalgError("ambient dimension mismatch")
    field = A.field
    same_field(field, B.field)
    if A.cols == 0 or B.cols == 0:
        return Mat.zero(field, A.rows, 0)
    # the kernel of [A | -B] pairs the combinations of A's columns with
    # those of B's that are equal; its A part, through A, spans the meet
    n, neg = A.cols, field._neg
    stacked = [{**ra, **{n + j: neg(x) for j, x in rb.items()}} for ra, rb in zip(A.sparse, B.sparse)]
    ker = kernel_basis(Mat.from_sparse_rows(field, stacked, n + B.cols))
    a_cols = A.transpose().sparse
    t = EchelonTracker(field, A.rows)
    cols = []
    for kc in ker.transpose().sparse:
        v = row_sum(field, ((x, a_cols[j]) for j, x in kc.items() if j < n))
        if t.add_payloads(dict(v)):
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
