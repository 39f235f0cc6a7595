"""Deterministic exact linear algebra over the fields in :mod:`orecohom.fields`.

Vectors are tuples of :class:`~orecohom.fields.Scalar`; matrices are immutable
row grids.  Pivoting always selects the first nonzero entry, so every basis
this module emits is reproducible across runs and platforms.
"""

from __future__ import annotations

import bisect

from .fields import Field, Scalar


class LinalgError(ValueError):
    pass


def vadd(a: tuple, b: tuple) -> tuple:
    return tuple(
        y if x.is_zero() else x if y.is_zero() else x + y
        for x, y in zip(a, b, strict=True)
    )


def vscale(s: Scalar, a: tuple) -> tuple:
    if s.is_zero():
        return (s,) * len(a)
    return tuple(x if x.is_zero() else s * x for x in a)


def support(v: tuple) -> list[tuple[int, Scalar]]:
    """The nonzero entries of v as (index, entry) pairs, in index order."""
    return [(j, x) for j, x in enumerate(v) if not x.is_zero()]


def combine(terms) -> dict[int, Scalar]:
    """The sum of c * v over the (c, v) in ``terms``, each v a sparse vector
    {index: entry}, as a sparse vector with its zero entries dropped."""
    out: dict[int, Scalar] = {}
    for c, v in terms:
        for k, s in v.items():
            t = c * s
            out[k] = out[k] + t if k in out else t
    return {k: s for k, s in out.items() if not s.is_zero()}


def is_zero_vec(a: tuple) -> bool:
    return all(x.is_zero() for x in a)


def _dot_rows(field: Field, rows, nonzero: list[tuple[int, Scalar]]) -> tuple:
    """Each row dotted with the vector whose nonzero entries are ``nonzero``."""
    out = []
    for row in rows:
        s = field.zero
        for j, x in nonzero:
            a = row[j]
            if not a.is_zero():
                s = s + a * x
        out.append(s)
    return tuple(out)


class Mat:
    """Immutable rectangular matrix with entries in a single field.

    The entries are taken as given and must be Scalars of ``field``; coerce
    raw values with :meth:`Field.scalar` before building a matrix."""

    __slots__ = ("field", "data", "rows", "cols")

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
        return _dot_rows(self.field, self.data, support(v))

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in matmul")
        cols = other.transpose().data
        return Mat(
            self.field,
            [_dot_rows(self.field, cols, support(row)) for row in self.data],
            other.cols,
        )

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
        return all(is_zero_vec(r) for r in self.data)

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
    for row in M.data:
        t.add(row)
    zero = (M.field.zero,) * M.cols
    return Mat(M.field, t.rows + [zero] * (M.rows - t.dim), M.cols), list(t.lead)


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Mat) -> Mat:
    """Columns form a basis of the null space of M (the standard free-variable basis)."""
    R, pivots = rref(M)
    return _free_basis(M.field, M.cols, R.data, pivots)


def _free_basis(field: Field, n: int, rows, lead: list[int]) -> Mat:
    """The free-variable null space basis of reduced echelon rows with leading
    columns ``lead``: for each free column fc, a one at fc and minus row i's
    entry at fc in column lead[i]."""
    pivots = set(lead)
    cols = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for row, pc in zip(rows, lead):
            v[pc] = -row[fc]
        cols.append(tuple(v))
    return Mat.from_columns(field, cols, n)


def solve(M: Mat, b: tuple) -> tuple | None:
    """One solution of M x = b, or None when inconsistent."""
    return LinSolver(M).solve(b)


class LinSolver:
    """Precomputed elimination for solving M x = b repeatedly against one M.

    The rows of [M | I] go through one echelon with its pivots in M's
    columns.  A reduced row [R_i | E_i] keeps E_i M = R_i; a row whose M part
    reduces to zero leaves its E_i, unnormalised, in the left null space of M."""

    def __init__(self, M: Mat):
        self.M = M
        field, n, m = M.field, M.cols, M.rows
        t = EchelonTracker(field, n + m, pivot_cols=n)
        null = []
        for i, row in enumerate(M.data):
            unit = [field.zero] * m
            unit[i] = field.one
            v = t.reduce(row + tuple(unit))
            if not t._insert(v):
                null.append(v[n:])
        self.pivots = list(t.lead)
        self.rank = t.dim
        self.E = [row[n:] for row in t.rows] + null  # E @ M is the rref

    def solve(self, b: tuple) -> tuple | None:
        if len(b) != self.M.rows:
            raise LinalgError("shape mismatch in solve")
        field = self.M.field
        y = _dot_rows(field, self.E, support(b))
        for i in range(self.rank, self.M.rows):
            if not y[i].is_zero():
                return None
        x = [field.zero] * self.M.cols
        for i, c in enumerate(self.pivots):
            x[c] = y[i]
        return tuple(x)


class EchelonTracker:
    """Incrementally maintained reduced row echelon form: the package's one
    Gauss-Jordan elimination.

    The rows lead at their first nonzero entry, which is a one, and are zero
    in every other row's leading column, so they depend only on the span
    added.  Leading columns lie among the first ``pivot_cols`` (default: all).
    Each row keeps the indices of its nonzero entries, so eliminating with it
    touches only those."""

    def __init__(self, field: Field, n: int, pivot_cols: int | None = None):
        self.field = field
        self.n = n
        self.pivot_cols = n if pivot_cols is None else pivot_cols
        self.rows: list[tuple] = []
        self.lead: list[int] = []
        self._support: list[list[int]] = []

    @classmethod
    def of_columns(cls, M: Mat) -> "EchelonTracker":
        """The echelon of the span of M's columns."""
        t = cls(M.field, M.rows)
        for c in M.columns_list():
            t.add(c)
        return t

    def reduce(self, v: tuple) -> tuple:
        v = list(v)
        for row, c, support in zip(self.rows, self.lead, self._support):
            f = v[c]
            if not f.is_zero():
                for j in support:
                    v[j] = v[j] - f * row[j]
        return tuple(v)

    def contains(self, v: tuple) -> bool:
        return is_zero_vec(self.reduce(v))

    def add(self, v: tuple) -> bool:
        """Insert v; True when it joined the echelon (for full pivot columns:
        when the span grew)."""
        if len(v) != self.n:
            raise LinalgError("vector length mismatch")
        return self._insert(self.reduce(v))

    def _insert(self, v: tuple) -> bool:
        """Join a vector already reduced by every row, normalised at its
        leading entry, and clear its leading column from the other rows."""
        support = [j for j, x in enumerate(v) if not x.is_zero()]
        if not support or support[0] >= self.pivot_cols:
            return False
        c = support[0]
        inv = v[c].inv()
        v = list(v)
        for j in support:
            v[j] = inv * v[j]
        v = tuple(v)
        touched = set(support)
        for i, row in enumerate(self.rows):
            f = row[c]
            if not f.is_zero():
                new = list(row)
                for j in support:
                    new[j] = new[j] - f * v[j]
                self.rows[i] = tuple(new)
                # entries off v's support are unchanged
                self._support[i] = [j for j in self._support[i] if j not in touched] + [
                    j for j in support if not new[j].is_zero()
                ]
        pos = bisect.bisect(self.lead, c)
        self.rows.insert(pos, v)
        self.lead.insert(pos, c)
        self._support.insert(pos, support)
        return True

    def extend(self, M: Mat) -> Mat:
        """Add M's columns in order; returns those that joined, as columns."""
        return Mat.from_columns(M.field, [c for c in M.columns_list() if self.add(c)], M.rows)

    def kernel(self) -> Mat:
        """The free-variable basis of the null space of the rows, as columns."""
        return _free_basis(self.field, self.n, self.rows, self.lead)

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
