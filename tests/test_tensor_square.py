"""The twisted tensor square on A's own product, against the entrywise loops it
replaced (kept in conftest.py): the left action of A and the right action of
x (``monogenic._left`` and ``_right_x``, read through `leftmul` and
`rightmul_xpow` of bar_reference.py), the columns of `Resolution` and
`ComparisonMaps.phi_recursive`;
and `MonogenicAlgebra.xpow_bar` against division by f in B.  They run on random sparse tensors at every
twist up to 2 ord(alpha) + 1, on every canned instance, demo spec and twisted
cyclic case, over QQ, GF(7), QQ(i) and GF(9).  The resolution's caches live
on the instance, so a finished `Resolution` is collected."""

import gc
import random
import weakref

import pytest
from conftest import (
    CASES,
    SPECS,
    entrywise_d_column,
    entrywise_leftmul,
    entrywise_phi_recursive,
    entrywise_rightmul_x,
    entrywise_s_column,
    payload_row,
    scalar_row,
    uncached_xpow_bar,
)

from bar_reference import ComparisonMaps, TensorElem, d_column, leftmul, rightmul_xpow, s_column

from orecohom import cli, monogenic
from orecohom.monogenic import AElem, Resolution

# shares of nonzero entries: empty, sparse, dense, full
DENSITIES = (0.0, 0.2, 0.6, 1.0)


def nonzero(F, rng):
    while True:
        x = F.random_element(rng, 5)
        if not x.is_zero():
            return x


def scalars(F, n, rng, density):
    return [nonzero(F, rng) if rng.random() < density else F.zero for _ in range(n)]


def random_tensor(alg, twist, rng, density):
    tdim = alg.adim * alg.n
    return TensorElem(alg, twist, payload_row(dict(enumerate(scalars(alg.field, tdim, rng, density)))))


@pytest.fixture(scope="module", params=sorted(CASES))
def alg(request):
    return CASES[request.param]()


def twists(alg):
    """Each twist class twice over, or 0 .. 5 for a twist of infinite order
    (the quaternions rotated by an angle that is no rational multiple of pi)."""
    return range(2 * alg.alpha.order + 2 if alg.alpha.order else 6)


def test_actions_match_entrywise(alg):
    rng = random.Random(11)
    F = alg.field
    for t in twists(alg):
        for density in DENSITIES:
            T = random_tensor(alg, t, rng, density)
            a = AElem(alg, scalars(F, alg.adim, rng, rng.choice(DENSITIES)))
            assert T.powers() == [c for c in range(alg.n) if not T.left_factor(c).is_zero()]
            assert leftmul(T, a) == entrywise_leftmul(T, a)
            assert rightmul_xpow(T, 1) == entrywise_rightmul_x(T)


def test_sums_match_the_merge(alg):
    rng = random.Random(12)
    F = alg.field
    for density in DENSITIES:
        T, U = (random_tensor(alg, 1, rng, density) for _ in range(2))
        s = nonzero(F, rng)
        t, u = scalar_row(F, T.coords), scalar_row(F, U.coords)
        want = {i: t.get(i, F.zero) + s * u.get(i, F.zero) for i in {*t, *u}}
        assert T.add_scaled(U, s) == TensorElem(alg, 1, payload_row(want))
        assert T + U == T.add_scaled(U, F.one)
        assert T - U == T + (-U)
        assert (T - T).is_zero()
    with pytest.raises(monogenic.MonogenicError):
        TensorElem.zero(alg, 0) + TensorElem.zero(alg, 1)


def test_constructor_drops_zero_payloads(alg):
    """`TensorElem(alg, twist, coords)` keeps a new row of the nonzero
    payloads of coords: a row with a zero payload gives the tensor of the
    row without it, equal in `is_zero`, `==` and `hash`."""
    F = alg.field
    zero = TensorElem(alg, 1, {0: F.zero.v, 3: F.zero.v})
    assert zero.is_zero() and zero == TensorElem.zero(alg, 1) and hash(zero) == hash(TensorElem.zero(alg, 1))
    row = {0: F.one.v, 2: F.zero.v}
    t = TensorElem(alg, 1, row)
    assert t.coords == {0: F.one.v} and t.coords is not row
    assert t == TensorElem(alg, 1, {0: F.one.v}) and hash(t) == hash(TensorElem(alg, 1, {0: F.one.v}))


def test_resolution_columns_are_new_rows(alg):
    """A column read through `d_column` or `s_column` is a row of its own:
    changing it leaves the resolution's kept columns as they were."""
    res = Resolution(alg, 3)
    for r in (1, 2):
        for column, rows in ((d_column, res.d_rows), (s_column, res.s_rows)):
            kept = [dict(row) for row in rows(r)]
            for flat in range(res.tdim):
                column(res, r, flat).coords[res.tdim] = alg.field.one.v
            assert list(rows(r)) == kept, r


def test_resolution_columns_match_entrywise(alg):
    """Every d and sigma column in the degrees whose twist is at most
    2 ord(alpha) + 1."""
    res = Resolution(alg, 3)
    top = max(twists(alg))
    degrees = [r for r in range(1, 2 * top + 2) if res.twist(r - 1) <= top]
    for r in degrees:
        for flat in range(res.tdim):
            assert d_column(res, r, flat) == entrywise_d_column(res, r, flat), (r, flat)
            assert s_column(res, r, flat) == entrywise_s_column(res, r, flat), (r, flat)
        assert res.d_generator(r) is res.d_generator(r)


def test_phi_recursive_matches_entrywise(alg):
    maps, memo = ComparisonMaps(alg, 4), {}
    for r in range(5):
        assert maps.phi_recursive(r) == entrywise_phi_recursive(maps.res, r, memo), r


def test_xpow_bar_divides_each_exponent_once(alg, monkeypatch):
    """Every quotient below 3n equals division by f in B, and asking again
    hands back the stored quotient without a product in A."""
    exponents = range(3 * alg.n)
    first = [alg.xpow_bar(e) for e in exponents]
    assert first == [uncached_xpow_bar(alg, e) for e in exponents]

    def no_product(*args):
        raise AssertionError("xpow_bar computed an exponent twice")

    monkeypatch.setattr(monogenic.MonogenicAlgebra, "a_mul", no_product)
    assert all(alg.xpow_bar(e) is bar for e, bar in zip(exponents, first))


def test_finished_resolution_is_collected():
    alg = CASES["sweedler"]()
    res = Resolution(alg, 4)
    assert res.contraction_check().ok
    ref = weakref.ref(res)
    del res
    gc.collect()
    assert ref() is None


def test_validate_leaves_no_resolution(monkeypatch, capsys):
    refs = []
    init = Resolution.__init__

    def recording_init(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Resolution, "__init__", recording_init)
    assert cli.main(["validate", str(next(p for p in SPECS if p.stem == "sweedler"))]) == 0
    capsys.readouterr()
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
