"""Deterministic exact linear algebra over the fields in :mod:`orecohom.fields`.

Vectors are tuples of :class:`~orecohom.fields.Scalar`; matrices are immutable
row grids.  Pivoting always selects the first nonzero entry, so every basis
this module emits is reproducible across runs and platforms.
"""

from __future__ import annotations

from .fields import Field, FieldError, Scalar


class LinalgError(ValueError):
    pass


def vzero(field: Field, n: int) -> tuple:
    return (field.zero,) * n


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
    """Immutable rectangular matrix with entries in a single field."""

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: Field, data, cols: int | None = None):
        rows = tuple(tuple(field.scalar(x) for x in row) for row in data)
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
    rows = [list(r) for r in M.data]
    pivots: list[int] = []
    r = 0
    for c in range(M.cols):
        sel = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return Mat(M.field, rows, M.cols), pivots


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Mat) -> Mat:
    """Columns form a basis of the null space of M (the standard free-variable basis)."""
    R, pivots = rref(M)
    field = M.field
    free = [c for c in range(M.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [field.zero] * M.cols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -R.data[i][fc]
        cols.append(tuple(v))
    return Mat.from_columns(field, cols, M.cols)


def solve(M: Mat, b: tuple) -> tuple | None:
    """One solution of M x = b, or None when inconsistent."""
    return LinSolver(M).solve(b)


class LinSolver:
    """Precomputed elimination for solving M x = b repeatedly against one M."""

    def __init__(self, M: Mat):
        self.M = M
        field = M.field
        aug = [list(r) + [field.one if i == j else field.zero for j in range(M.rows)]
               for i, r in enumerate(M.data)]
        pivots: list[int] = []
        r = 0
        for c in range(M.cols):
            sel = None
            for i in range(r, len(aug)):
                if not aug[i][c].is_zero():
                    sel = i
                    break
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            inv = aug[r][c].inv()
            aug[r] = [x * inv for x in aug[r]]
            for i in range(len(aug)):
                if i != r and not aug[i][c].is_zero():
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
            if r == len(aug):
                break
        self.pivots = pivots
        self.rank = len(pivots)
        self.E = [row[M.cols:] for row in aug]  # E @ M is the rref

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


def in_span(basis: Mat, v: tuple) -> bool:
    return solve(basis, v) is not None


class EchelonTracker:
    """Incrementally maintained reduced echelon span for membership tests.

    Each row keeps the indices of its nonzero entries, so eliminating with it
    touches only those."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.rows: list[tuple] = []
        self.lead: list[int] = []
        self._support: list[list[int]] = []

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
        """Insert v; True when the span grew."""
        if len(v) != self.n:
            raise LinalgError("vector length mismatch")
        v = self.reduce(v)
        support = [j for j, x in enumerate(v) if not x.is_zero()]
        if not support:
            return False
        c = support[0]
        inv = v[c].inv()
        v = list(v)
        for j in support:
            v[j] = inv * v[j]
        v = tuple(v)
        for i, row in enumerate(self.rows):
            f = row[c]
            if not f.is_zero():
                new = list(row)
                for j in support:
                    new[j] = new[j] - f * v[j]
                self.rows[i] = tuple(new)
                self._support[i] = [j for j, x in enumerate(new) if not x.is_zero()]
        pos = next((i for i, l in enumerate(self.lead) if l > c), len(self.lead))
        self.rows.insert(pos, v)
        self.lead.insert(pos, c)
        self._support.insert(pos, support)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def span_equal(A: Mat, B: Mat) -> bool:
    if A.rows != B.rows:
        return False
    t = EchelonTracker(A.field, A.rows)
    for c in A.columns_list():
        t.add(c)
    da = t.dim
    if any(not t.contains(c) for c in B.columns_list()):
        return False
    t2 = EchelonTracker(B.field, B.rows)
    for c in B.columns_list():
        t2.add(c)
    return t2.dim == da


def quotient_basis(sub: Mat, amb: Mat) -> Mat:
    """Columns of amb extending a basis of span(sub) to span(amb).

    Raises LinalgError when span(sub) is not contained in span(amb)."""
    if sub.rows != amb.rows:
        raise LinalgError("ambient dimension mismatch")
    full = EchelonTracker(amb.field, amb.rows)
    for c in amb.columns_list():
        full.add(c)
    for c in sub.columns_list():
        if not full.contains(c):
            raise LinalgError("inconsistent subspace: sub not inside amb")
    t = EchelonTracker(amb.field, amb.rows)
    for c in sub.columns_list():
        t.add(c)
    reps = [c for c in amb.columns_list() if t.add(c)]
    return Mat.from_columns(amb.field, reps, amb.rows)


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
