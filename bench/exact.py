"""Exact arithmetic for the correctness checks, written apart from ``orecohom``.

Scalars arrive in the engine's JSON encoding: "a/b" strings over Q, ints over
GF(p), and ["a/b", "c/d"] pairs over Q(i).  Ranks, products and character
orders here use only Fractions and ints, so a check never compares the
engine with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Rational:
    zero, one = Fraction(0), Fraction(1)

    def read(self, enc):
        return Fraction(enc)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


class PrimeField:
    zero, one = 0, 1

    def __init__(self, p: int):
        self.p = p

    def read(self, enc):
        return int(enc) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


class Gaussian:
    """Q(i) as pairs (re, im) of Fractions."""

    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def read(self, enc):
        if isinstance(enc, list):
            return (Fraction(enc[0]), Fraction(enc[1]))
        return (Fraction(enc), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        return (a[0] / n, -a[1] / n)


def field_for(desc: dict):
    """The arithmetic for a spec's "field" entry (Q, GF(p) or Q(i))."""
    if desc["kind"] == "Q":
        return Rational()
    if desc["kind"] == "Fp":
        return PrimeField(desc["p"])
    if desc["kind"] == "ext" and [int(c) for c in desc["minpoly"]] == [1, 0, 1] and "p" not in desc:
        return Gaussian()
    raise ValueError(f"no independent arithmetic for field {desc}")


def rank(F, rows: list[list]) -> int:
    rows = [r[:] for r in rows]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(x, inv) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f != F.zero:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def is_zero_product(F, a: list[list], b: list[list]) -> bool:
    """Whether the matrix product a.b is zero."""
    for row in a:
        for j in range(len(b[0]) if b else 0):
            acc = F.zero
            for k, x in enumerate(row):
                if x != F.zero and b[k][j] != F.zero:
                    acc = F.add(acc, F.mul(x, b[k][j]))
            if acc != F.zero:
                return False
    return True


def element_order(F, x, bound: int = 64) -> int:
    y = x
    for k in range(1, bound + 1):
        if y == F.one:
            return k
        y = F.mul(y, x)
    raise ValueError(f"element order exceeds {bound}")


def twist_period(F, generator_values: dict, n: int) -> int:
    """2 * ord(chi^n), from the character's values on the group generators."""
    order = 1
    for enc in generator_values.values():
        v = F.read(enc)
        vn = F.one
        for _ in range(n):
            vn = F.mul(vn, v)
        order = lcm(order, element_order(F, vn))
    return 2 * order


def complex_dims(F, dims_cochain: list[int], dmats: list[list[list]]) -> list[int]:
    """dim H^r = dim C^r - rank d^{r+1} - rank d^r for r < len(dmats) - 1.

    dmats[r] is d^r: C^{r-1} -> C^r as a list of rows (dmats[0] unused).
    Raises ValueError unless every d^{r+1} d^r is zero.
    """
    ranks = [0] + [rank(F, m) if m and m[0] else 0 for m in dmats[1:]]
    for r in range(1, len(dmats) - 1):
        if dmats[r + 1] and dmats[r] and dmats[r][0] and not is_zero_product(F, dmats[r + 1], dmats[r]):
            raise ValueError(f"d^{r + 1} d^{r} is not zero")
    return [dims_cochain[r] - ranks[r + 1] - ranks[r] for r in range(len(dmats) - 1)]


def is_periodic(dims: list[int], period: int) -> bool:
    """dims[r] == dims[r + period] for every positive r in range."""
    return all(dims[r] == dims[r + period] for r in range(1, len(dims) - period))
