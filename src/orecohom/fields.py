r"""Exact field arithmetic over the rationals, prime fields, and simple extensions.

Every scalar is a :class:`Scalar` holding a reference to its field context and a
normalized payload:

* rationals -- an ``int`` when the value is integral, otherwise a
  ``fractions.Fraction`` in lowest terms with denominator > 1, so the
  integral bulk of the work runs on machine ints,
* ``GF(p)`` -- an ``int`` in ``[0, p)``,
* a simple extension ``base[t]/<minpoly>`` of either -- a pair ``(nums,
  den)``: a constant-first tuple of ``deg(minpoly)`` ints and one int
  ``den > 0`` with ``gcd(*nums, den) == 1``, standing for
  ``sum(nums[i] t^i) / den``; over ``GF(p)`` every num lies in ``[0, p)``
  and ``den == 1``.

``ExtensionField.__new__`` picks the class of an extension: over GF(p)
``_PrimeExtensionField``, of degree 2 over QQ ``_QuadraticField``
(straight-line arithmetic), else ``ExtensionField`` itself.

Field contexts are cached, so two requests for the same field return the
identical object and scalars can be compared by payload.  Towers are rejected:
an extension base must be the rationals or a prime field, which keeps equality
a coordinate comparison.
"""

from __future__ import annotations

import functools
import itertools
import logging
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg

logger = logging.getLogger(__name__)


class FieldError(ValueError):
    """Raised for invalid field constructions or cross-field operations."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def mixed(a: "Field", b: "Field") -> FieldError:
    """The error raised when scalars of two different fields meet."""
    return FieldError(f"cannot mix scalars of {a} and {b}")


class Scalar:
    """An element of an exact field: a field context plus a normalized payload.
    Each operator boxes its result.  The containers (``Mat``, ``AElem``,
    ``TensorElem``, the structure constants) store payloads and their inner
    loops (``linalg.row_sum``, ``kalgebra.table_mul_into``, the echelon) run
    on them; a Scalar is unboxed where it enters a container, checked to be
    of its field, and boxed where it leaves, raising :func:`mixed` as
    ``_coerce`` does."""

    __slots__ = ("field", "v")

    def __init__(self, field: "Field", v):
        self.field = field
        self.v = v

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise mixed(self.field, other.field)
            return other
        if isinstance(other, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.v, o.v))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.v, self.field._neg(o.v)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(o.v, self.field._neg(self.v)))

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.v))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.v, o.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int):
        """Square-and-multiply on payloads: about 2 log2 |e| products."""
        if not isinstance(e, int):
            return NotImplemented
        F = self.field
        base, out, e = (self.inv() if e < 0 else self).v, F.one.v, abs(e)
        while e:
            if e & 1:
                out = F._mul(out, base)
            e >>= 1
            if e:
                base = F._mul(base, base)
        return Scalar(F, out)

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.field}")
        return Scalar(self.field, self.field._inv(self.v))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.v)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.v == o.v

    def __hash__(self):
        return hash((id(self.field), self.v))

    def __repr__(self):
        return self.field._repr(self.v)


class Field:
    """Base class for field contexts.  Subclasses implement payload arithmetic."""

    char: int
    deg: int  # extension degree over the prime subfield (1 for QQ / GF(p))

    @functools.cached_property
    def zero(self) -> Scalar:
        return self.from_int(0)

    @functools.cached_property
    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        return Scalar(self, self._from_int(n))

    def scalar(self, x) -> Scalar:
        """Coerce an int, Fraction, Scalar, string such as "3/4" (QQ) or coordinate
        list (extensions, constant-first) into this field.

        This is where raw values enter: K's coordinate tuples hold Scalars of
        their field as given, ``AElem``, ``Mat`` and ``AlgebraK``'s table
        keep the nonzero payloads of the Scalars they are given, and the
        entry points (``decode``, ``AlgebraK.elem``,
        ``AlgebraK.from_structure_constants``, scalar multiplication) coerce
        through here.  Booleans are rejected."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise FieldError(f"cannot coerce scalar of {x.field} into {self}")
            return x
        if isinstance(x, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(x, int):
            return self.from_int(x)
        return Scalar(self, self._coerce_payload(x))

    def describe(self) -> dict:
        raise NotImplementedError

    def encode(self, s: Scalar):
        """JSON encoding of one scalar."""
        raise NotImplementedError

    def decode(self, obj) -> Scalar:
        """Inverse of :meth:`encode`; also accepts plain ints, not booleans."""
        raise NotImplementedError

    def encoder(self):
        """:meth:`encode` as a function of the payload that encodes each
        distinct payload once, for one output: its memo dies with it.  An
        encoding that is a list is copied on each call, so no two places of
        the output share one."""
        codes: dict = {}

        def code(p):
            c = codes.get(p)
            if c is None:
                c = codes[p] = self.encode(Scalar(self, p))
            return list(c) if type(c) is list else c

        return code

    def random_element(self, rng, bound: int = 9) -> Scalar:
        raise NotImplementedError

    # payload-level hooks
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _from_int(self, n: int):
        raise NotImplementedError

    def _coerce_payload(self, x):
        raise NotImplementedError

    def _repr(self, a) -> str:
        raise NotImplementedError


def _qq(x):
    """The QQ payload of the rational x (an int or a Fraction): x's
    numerator when its denominator is 1, else x.  An int and the Fraction of
    the same value are equal and hash alike, so payloads still compare and
    hash by value."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    """The rationals, with the payload of :func:`_qq`: an int when the value
    is integral, else a Fraction in lowest terms with denominator > 1.
    Negation keeps that form, so ``_neg`` needs no normalising."""

    char = 0
    deg = 1

    def _add(self, a, b):
        return _qq(a + b)

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return _qq(a * b)

    def _inv(self, a):
        # Fraction(1, a), not 1 / a, which is a float when a is an int
        return _qq(Fraction(1, a))

    def _is_zero(self, a):
        return not a

    def _from_int(self, n):
        return _qq(n)

    def _coerce_payload(self, x):
        if isinstance(x, Fraction):
            return _qq(x)
        if isinstance(x, str):
            return _qq(Fraction(x))
        raise FieldError(f"cannot interpret {x!r} as a rational")

    def _repr(self, a):
        return str(a)

    def describe(self):
        return {"kind": "Q"}

    def encode(self, s):
        f = self.scalar(s).v
        return f"{f.numerator}/{f.denominator}"

    def decode(self, obj):
        if isinstance(obj, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(obj, int):
            return self.from_int(obj)
        if isinstance(obj, str):
            try:
                return Scalar(self, _qq(Fraction(obj)))
            except (ValueError, ZeroDivisionError):
                pass
        raise FieldError(f"bad rational encoding: {obj!r}")

    def random_element(self, rng, bound: int = 9):
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        return Scalar(self, _qq(Fraction(num, den)))

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Field):
    deg = 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return not a

    def _from_int(self, n):
        return n % self.p

    def _coerce_payload(self, x):
        raise FieldError(f"cannot interpret {x!r} as an element of GF({self.p})")

    def _repr(self, a):
        return str(a)

    def describe(self):
        return {"kind": "Fp", "p": self.p}

    def encode(self, s):
        return self.scalar(s).v

    def decode(self, obj):
        if isinstance(obj, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(obj, int):
            return self.from_int(obj)
        raise FieldError(f"bad GF({self.p}) encoding: {obj!r}")

    def random_element(self, rng, bound: int = 9):
        return self.from_int(rng.randrange(self.p))

    def elements(self):
        return (self.from_int(i) for i in range(self.p))

    def __repr__(self):
        return f"GF({self.p})"


@functools.cache
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


# ---------------------------------------------------------------------------
# polynomial helpers over a base field (coefficient lists, constant-first)
# ---------------------------------------------------------------------------


def poly_trim(c: list) -> list:
    while c and c[-1].is_zero():
        c = c[:-1]
    return c


def poly_add(a: list, b: list, field: Field) -> list:
    n = max(len(a), len(b))
    z = field.zero
    out = [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)]
    return poly_trim(out)


def poly_scale(a: list, s: Scalar) -> list:
    return poly_trim([c * s for c in a])


def poly_mul(a: list, b: list, field: Field) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return poly_trim(out)


def poly_divmod(a: list, b: list, field: Field) -> tuple[list, list]:
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    lead = b[-1].inv()
    while len(poly_trim(r)) >= len(b):
        r = poly_trim(r)
        shift = len(r) - len(b)
        c = r[-1] * lead
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = r[shift + i] - c * bi
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: list, b: list, field: Field) -> list:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b, field)
        a, b = b, r
    if a:
        a = poly_scale(a, a[-1].inv())
    return a


def poly_derivative(a: list, field: Field) -> list:
    return poly_trim([a[i] * i for i in range(1, len(a))])


def poly_eval(a: list, x: Scalar, field: Field) -> Scalar:
    out = field.zero
    for c in reversed(a):
        out = out * x + c
    return out


def _int_divisors(m: int) -> list[int]:
    m = abs(m)
    out = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            out.add(m // d)
        d += 1
    return sorted(out)


def polynomial_roots(a: list, field: Field) -> tuple[list[Scalar], bool]:
    """Roots of a nonzero polynomial in ``field``, with a completeness flag.

    Returns ``(roots, complete)``: ``complete`` is True when the roots listed,
    counted with multiplicity via linear-factor division, exhaust the degree.
    Search is exhaustive over finite fields and the rational-root test over ℚ;
    over an infinite extension only 0, ±1, and the power-basis generator are
    probed, so ``complete`` may be False there.
    """
    a = poly_trim(list(a))
    if not a:
        raise FieldError("zero polynomial has every root")
    roots: list[Scalar] = []
    rem = a

    def try_root(x: Scalar) -> None:
        nonlocal rem
        while len(rem) > 1 and poly_eval(rem, x, field).is_zero():
            q, r = poly_divmod(rem, [-x, field.one], field)
            if r:
                raise FieldError(f"a root {x} left the nonzero remainder {r}")
            roots.append(x)
            rem = q

    if isinstance(field, (PrimeField, ExtensionField)) and field.char > 0:
        for x in field.elements():
            try_root(x)
            if len(rem) == 1:
                break
    elif isinstance(field, RationalField):
        try_root(field.zero)
        if len(rem) > 1:
            den = lcm(*[c.v.denominator for c in rem])
            ints = [int(c.v * den) for c in rem]
            for p in _int_divisors(ints[0]):
                for q in _int_divisors(ints[-1]):
                    try_root(field.scalar(Fraction(p, q)))
                    try_root(field.scalar(Fraction(-p, q)))
    else:
        probes = [field.zero, field.one, -field.one]
        if isinstance(field, ExtensionField):
            probes.append(field.gen)
        for x in probes:
            try_root(x)
    return roots, len(rem) == 1


def _certify_irreducible(minpoly: list, base: Field) -> bool | None:
    """True/False when decidable here (deg ≤ 4 over ℚ, any degree over GF(p)),
    None when the check is out of scope."""
    d = len(minpoly) - 1
    if isinstance(base, PrimeField):
        # f irreducible over GF(p) iff f | t^{p^d} - t and
        # gcd(f, t^{p^{d/q}} - t) = 1 for every prime q | d
        p = base.p
        tp = poly_divmod([base.zero] * p + [base.one], minpoly, base)[1]

        def frob_iterate(e: int) -> list:
            # t^{p^e} mod f via cur(t) -> cur(t^p), Frobenius fixing GF(p)
            cur = [base.zero, base.one]
            for _ in range(e):
                out: list = []
                power = [base.one]
                for c in cur:
                    out = poly_add(out, poly_scale(power, c), base)
                    power = poly_divmod(poly_mul(power, tp, base), minpoly, base)[1]
                cur = poly_divmod(out, minpoly, base)[1]
            return cur

        full = poly_add(frob_iterate(d), [base.zero, -base.one], base)
        if poly_trim(full):
            return False
        dd = d
        primes = set()
        q = 2
        while q * q <= dd:
            if dd % q == 0:
                primes.add(q)
                while dd % q == 0:
                    dd //= q
            q += 1
        if dd > 1:
            primes.add(dd)
        for q in primes:
            part = poly_add(frob_iterate(d // q), [base.zero, -base.one], base)
            if len(poly_gcd(part, minpoly, base)) > 1:
                return False
        return True
    if isinstance(base, RationalField):
        if d == 1:
            return True
        roots, _ = polynomial_roots(minpoly, base)
        if roots:
            return False
        if d in (2, 3):
            return True
        if d == 4:
            # no rational root, so reducible iff a product of two rational
            # quadratics; depress t = y + sh to y^4 + Ay^2 + By + C first
            m = poly_scale(minpoly, minpoly[-1].inv())
            sh = -m[3] / 4
            comp: list = []
            power = [base.one]
            for c in m:
                comp = poly_add(comp, poly_scale(power, c), base)
                power = poly_mul(power, [sh, base.one], base)
            comp = comp + [base.zero] * (5 - len(comp))
            A, B, C = comp[2], comp[1], comp[0]
            if B.is_zero():
                # (y^2+u)(y^2+v): u+v = A, uv = C
                if _rational_sqrt(A * A - 4 * C) is not None:
                    return False
                # (y^2+sy+u)(y^2-sy+u): u^2 = C, s^2 = 2u - A, s != 0
                sc = _rational_sqrt(C)
                if sc is not None:
                    for u in (sc, -sc):
                        s2 = 2 * u - A
                        if not s2.is_zero() and _rational_sqrt(s2) is not None:
                            return False
                return True
            # B != 0: splitting (y^2+sy+u)(y^2-sy+v) forces s^2 to be a nonzero
            # rational-square root of z^3 + 2Az^2 + (A^2-4C)z - B^2
            res = [-(B * B), A * A - 4 * C, 2 * A, base.one]
            rts, _ = polynomial_roots(res, base)
            for z in rts:
                if not z.is_zero() and _rational_sqrt(z) is not None:
                    return False
            return True
        return None
    return None


def _rational_sqrt(s: Scalar):
    """Exact square root of a rational scalar, or None."""
    f = s.v
    if f < 0:
        return None
    from math import isqrt

    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Scalar(s.field, _qq(Fraction(rn, rd)))
    return None


class ExtensionField(Field):
    """Simple extension base[t]/<minpoly> of QQ or GF(p), with the standard
    number-field payload (H. Cohen, *A Course in Computational Algebraic
    Number Theory*, GTM 138, §4.2): ``(nums, den)``, a constant-first tuple of
    ``deg`` ints and one int ``den > 0`` with ``gcd(*nums, den) == 1``,
    standing for ``sum(nums[i] t^i) / den``.  Zero is ``((0, .., 0), 1)``, so
    equal elements have equal payloads.

    The reduction table holds t^deg .. t^(2 deg - 2) as integer vectors over
    one common denominator ``_tden`` (1 when the minpoly is integral), so
    every operation runs on ints.  Over GF(p) the constructor returns a
    :class:`_PrimeExtensionField`, which runs the same arithmetic on the
    integer lifts and only normalises differently.  For degree 2 over QQ it
    returns a :class:`_QuadraticField`; degree >= 3 over QQ runs the generic
    fold below and inverts by Bareiss elimination."""

    def __new__(cls, base: Field, minpoly: tuple, symbol: str):
        if cls is ExtensionField:
            if isinstance(base, PrimeField):
                cls = _PrimeExtensionField
            elif len(minpoly) == 3:
                cls = _QuadraticField
        return super().__new__(cls)

    def __init__(self, base: Field, minpoly: tuple, symbol: str):
        if isinstance(base, ExtensionField):
            raise FieldError("towers are not supported; give one minpoly over QQ or GF(p)")
        if not isinstance(base, (RationalField, PrimeField)):
            raise FieldError(f"unsupported extension base {base}")
        coeffs = [base.scalar(c) for c in minpoly]
        if len(coeffs) < 2:
            raise FieldError("minpoly must have degree >= 1")
        if coeffs[-1] != base.one:
            raise FieldError("minpoly must be monic")
        self.base = base
        self.minpoly = tuple(c.v for c in coeffs)
        self.symbol = symbol
        self.deg = len(coeffs) - 1
        self.char = base.char
        cert = _certify_irreducible(coeffs, base)
        if cert is False:
            raise FieldError(f"minpoly {self._poly_str()} is reducible over {base}")
        if cert is None:
            logger.warning(
                "irreducibility of %s over %s not certified (degree > 4); trusting caller",
                self._poly_str(), base,
            )
        # reductions of t^deg .. t^{2 deg - 2}, as ints over one denominator
        table = self._reduction_table()
        den = lcm(*(c.denominator for row in table for c in row))
        self._tden = den
        self._tpow = tuple(
            tuple(c.numerator * (den // c.denominator) for c in row) for row in table
        )
        self._pad = (0,) * (self.deg - 1)
        self._zero_v = self._from_int(0)
        self._one_v = self._from_int(1)

    def _poly_str(self) -> str:
        return " + ".join(
            f"{self.base._repr(c)}*t^{i}" for i, c in enumerate(self.minpoly)
        )

    def _reduction_table(self):
        b = self.base
        d = self.deg
        top = tuple(b._neg(c) for c in self.minpoly[:-1])  # t^d = -(lower part)
        table = [top]
        for _ in range(d - 2):
            prev = table[-1]
            shifted = (b._from_int(0),) + prev[:-1]
            carry = prev[-1]
            table.append(
                tuple(b._add(shifted[i], b._mul(carry, top[i])) for i in range(d))
            )
        return table

    @functools.cached_property
    def gen(self) -> Scalar:
        """The designated root t of the minimal polynomial."""
        b = self.base
        coords = [b._from_int(0)] * self.deg
        if self.deg == 1:
            coords[0] = b._neg(self.minpoly[0])
        else:
            coords[1] = b._from_int(1)
        return Scalar(self, self._from_coords(coords))

    def _coords(self, a):
        """The base payloads of a's coordinates, constant-first: the nums
        themselves when den is 1."""
        nums, den = a
        if den == 1:
            return nums
        return tuple(_qq(Fraction(x, den)) for x in nums)

    def _from_coords(self, coords):
        """The payload with these base-payload coordinates (length deg)."""
        # over the lcm of reduced denominators the gcd is already 1
        den = lcm(*(c.denominator for c in coords))
        return tuple(c.numerator * (den // c.denominator) for c in coords), den

    @staticmethod
    def _normal(nums, den):
        """The payload of sum(nums[i] t^i) / den, for den > 0."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                return tuple(x // g for x in nums), den // g
        return tuple(nums), den

    def _fold(self, raw: list) -> list:
        """``_tden`` times the reduction of sum(raw[k] t^k), len(raw) < 2 deg."""
        d, D = self.deg, self._tden
        out = raw[:d] if D == 1 else [D * x for x in raw[:d]]
        for c, red in zip(raw[d:], self._tpow):
            if c:
                for i, r in enumerate(red):
                    out[i] += c * r
        return out

    def _add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            return self._normal(tuple(map(add, an, bn)), ad)
        return self._normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def _neg(self, a):
        return tuple(map(neg, a[0])), a[1]

    def _mul(self, a, b):
        # most factors in group-algebra work are the unit; its products are free
        if a == self._one_v:
            return b
        if b == self._one_v:
            return a
        an, ad = a
        bn, bd = b
        raw = [0] * (2 * self.deg - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    raw[i + j] += x * y
        return self._normal(self._fold(raw), ad * bd * self._tden)

    def _inv(self, a):
        """The inverse of a nonzero payload: of a base-field value nums[0]/den
        directly, else by ``_bareiss_inv``."""
        nums, den = a
        c = nums[0]
        if c and not any(nums[1:]):
            return self._normal((den if c > 0 else -den,) + self._pad, abs(c))
        return self._bareiss_inv(a)

    def _bareiss_inv(self, a):
        """Solve m u = e_0 for the matrix m of multiplication by sum(nums[i]
        t^i), scaled to ints, by fraction-free elimination (E. Bareiss, Math.
        Comp. 22, 1968); then a^-1 = den * u."""
        nums, den = a
        d, D = self.deg, self._tden
        cols = [self._fold([0] * j + list(nums) + [0] * (d - 1 - j)) for j in range(d)]
        rows = [list(r) + [int(i == 0)] for i, r in enumerate(zip(*cols))]  # [D m | e_0]
        prev = 1
        for k in range(d):
            p = next((i for i in range(k, d) if rows[i][k]), None)
            if p is None:
                raise FieldError(
                    f"non-invertible element; minpoly {self._poly_str()} is reducible"
                )
            rows[k], rows[p] = rows[p], rows[k]
            piv = rows[k]
            for i in range(k + 1, d):
                r = rows[i]
                r[k + 1:] = [(piv[k] * r[j] - r[k] * piv[j]) // prev for j in range(k + 1, d + 1)]
            prev = piv[k]
        # back substitution for x = prev * u, which is integral by Cramer's rule
        x = [0] * d
        for i in reversed(range(d)):
            r = rows[i]
            s = prev * r[d] - sum(r[j] * x[j] for j in range(i + 1, d))
            x[i] = s // r[i]
        scale = den * D if prev > 0 else -den * D
        return self._normal([scale * c for c in x], abs(prev))

    def _is_zero(self, a):
        return a == self._zero_v

    def _from_int(self, n):
        return (n,) + self._pad, 1

    def _coerce_payload(self, x):
        bb = self.base
        if isinstance(x, Fraction) and self.char == 0:
            x = [x]
        if isinstance(x, (list, tuple)):
            if len(x) > self.deg:
                raise FieldError(f"coordinate vector longer than degree {self.deg}")
            coords = [bb.scalar(c).v for c in x]
            coords += [bb._from_int(0)] * (self.deg - len(coords))
            return self._from_coords(coords)
        raise FieldError(f"cannot interpret {x!r} as an element of {self}")

    def _repr(self, a):
        terms = []
        for i, c in enumerate(self._coords(a)):
            if not c:
                continue
            cs = self.base._repr(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*{self.symbol}" if cs != "1" else self.symbol)
            else:
                terms.append(
                    f"{cs}*{self.symbol}^{i}" if cs != "1" else f"{self.symbol}^{i}"
                )
        return " + ".join(terms) if terms else "0"

    def describe(self):
        d = {
            "kind": "ext",
            "minpoly": [self.base.encode(Scalar(self.base, c)) for c in self.minpoly],
            "symbol": self.symbol,
        }
        if isinstance(self.base, PrimeField):
            d["p"] = self.base.p
        return d

    def encode(self, s):
        # over QQ: each coordinate nums[i]/den in lowest terms, as QQ writes it
        nums, den = self.scalar(s).v
        out = []
        for x in nums:
            g = gcd(x, den)
            out.append(f"{x // g}/{den // g}")
        return out

    def decode(self, obj):
        if isinstance(obj, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(obj, int):
            return self.from_int(obj)
        if isinstance(obj, str) and self.char == 0:
            return self.scalar([self.base.decode(obj)])
        if isinstance(obj, list):
            return self.scalar([self.base.decode(c) for c in obj])
        raise FieldError(f"bad {self} encoding: {obj!r}")

    def random_element(self, rng, bound: int = 9):
        return self.scalar(
            [self.base.random_element(rng, bound) for _ in range(self.deg)]
        )

    def __repr__(self):
        return f"{self.base}[{self.symbol}]/<{self._poly_str()}>"


class _QuadraticField(ExtensionField):
    """A degree-2 extension of QQ: the payload of :class:`ExtensionField`,
    with straight-line ``_add``, ``_mul`` and ``_inv`` read off the stored
    reduction t^2 = (r0 + r1 t)/D (``_tpow[0]``, ``_tden``).  The inverse
    is by the conjugate: (a0 + a1 t)((D a0 + r1 a1) - D a1 t) = N with
    N = D a0^2 + r1 a0 a1 - r0 a1^2, nonzero for a != 0 as the minpoly is
    irreducible, so (a/den)^-1 = den ((D a0 + r1 a1) - D a1 t)/N."""

    def _add(self, a, b):
        (a0, a1), ad = a
        (b0, b1), bd = b
        if ad == bd:
            c0, c1, den = a0 + b0, a1 + b1, ad
        else:
            c0, c1, den = a0 * bd + b0 * ad, a1 * bd + b1 * ad, ad * bd
        if den != 1 and (g := gcd(den, c0, c1)) != 1:
            return (c0 // g, c1 // g), den // g
        return (c0, c1), den

    def _mul(self, a, b):
        if a == self._one_v:
            return b
        if b == self._one_v:
            return a
        (a0, a1), ad = a
        (b0, b1), bd = b
        (r0, r1), = self._tpow
        D = self._tden
        p = a1 * b1
        c0 = D * a0 * b0 + r0 * p
        c1 = D * (a0 * b1 + a1 * b0) + r1 * p
        den = ad * bd * D
        if den != 1 and (g := gcd(den, c0, c1)) != 1:
            return (c0 // g, c1 // g), den // g
        return (c0, c1), den

    def _inv(self, a):
        (a0, a1), ad = a
        (r0, r1), = self._tpow
        D = self._tden
        N = D * a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1
        if not N:
            raise FieldError(f"non-invertible element; minpoly {self._poly_str()} is reducible")
        if N < 0:
            N, ad = -N, -ad
        c0, c1 = ad * (D * a0 + r1 * a1), -ad * D * a1
        g = gcd(N, c0, c1)
        return (c0 // g, c1 // g), N // g


class _PrimeExtensionField(ExtensionField):
    """GF(p)[t]/<minpoly>: the payload ``(nums, 1)`` with every num in
    ``[0, p)``.  The arithmetic above runs on these integer lifts and this
    class only reduces the result mod p.  In ``_inv`` the Bareiss
    determinant is the norm of the element, a unit mod p because the minpoly
    is certified irreducible over GF(p); a multiple of p is reported as the
    reducible minpoly it would betray."""

    def _coords(self, a):
        return a[0]

    def _normal(self, nums, den):
        p = self.char
        if den != 1:
            if not den % p:
                raise FieldError(
                    f"non-invertible element; minpoly {self._poly_str()} is reducible"
                )
            s = pow(den, -1, p)
            return tuple(x * s % p for x in nums), 1
        return tuple(x % p for x in nums), 1

    def _neg(self, a):
        p = self.char
        return tuple(-x % p for x in a[0]), 1

    def encode(self, s):
        v = self.scalar(s).v
        return [self.base.encode(Scalar(self.base, c)) for c in self._coords(v)]

    def _from_int(self, n):
        return (n % self.char,) + self._pad, 1

    def elements(self):
        for combo in itertools.product(range(self.char), repeat=self.deg):
            yield Scalar(self, (combo, 1))


@functools.cache
def _extension_field_cached(base: Field, minpoly: tuple, symbol: str) -> ExtensionField:
    return ExtensionField(base, minpoly, symbol)


def extension_field(base: Field, minpoly, symbol: str = "t") -> ExtensionField:
    coeffs = tuple(base.scalar(c).v for c in minpoly)
    return _extension_field_cached(base, coeffs, symbol)


def cyclotomic_minpoly(n: int) -> list[int]:
    """Coefficients (constant-first, leading 1) of the n-th cyclotomic polynomial,
    computed by dividing t^n - 1 by the product of the proper-divisor polynomials."""
    if n < 1:
        raise FieldError("n must be positive")
    num = [QQ.from_int(0)] * n + [QQ.one]
    num[0] = -QQ.one
    den = [QQ.one]
    for d in range(1, n):
        if n % d == 0:
            phi_d = [QQ.from_int(c) for c in cyclotomic_minpoly(d)]
            den = poly_mul(den, phi_d, QQ)
    q, r = poly_divmod(num, den, QQ)
    if r:
        raise FieldError(f"cyclotomic division for n = {n} left the remainder {r}")
    out = [int(c.v) for c in q]
    if any(Fraction(c) != q[i].v for i, c in enumerate(out)):
        raise FieldError(f"cyclotomic polynomial for n = {n} has non-integer coefficients")
    return out


def make_field(desc) -> Field:
    """Build a field context from its JSON descriptor (or pass one through)."""
    if isinstance(desc, Field):
        return desc
    if isinstance(desc, str):
        if desc in ("Q", "QQ"):
            return QQ
        raise FieldError(f"unknown field descriptor {desc!r}")
    if not isinstance(desc, dict) or "kind" not in desc:
        raise FieldError(f"bad field descriptor: {desc!r}")
    kind = desc["kind"]
    if kind == "Q":
        return QQ
    p = desc.get("p")
    if (kind == "Fp" or "p" in desc) and type(p) is not int:
        raise FieldError(f"p must be an integer, got {p!r}")
    if kind == "Fp":
        return prime_field(p)
    if kind == "ext":
        base = prime_field(p) if "p" in desc else QQ
        if not isinstance(desc.get("minpoly"), list):
            raise FieldError("an extension field needs a minpoly coefficient list")
        minpoly = [base.decode(c) for c in desc["minpoly"]]
        return extension_field(base, minpoly, desc.get("symbol", "t"))
    raise FieldError(f"unknown field kind {kind!r}")
