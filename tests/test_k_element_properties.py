"""Property test: K's elements as payload rows give what the tuple routes
gave.

On Taft algebras with n = 3 over GF(7) and GF(13), every cube root of unity
as the twist, and on gh4(2) and gh4(3), with random elements of K and random
tensors, the payload routes equal the tuple routes kept in `conftest.py`:
`validate_f` gives the same report on random defining polynomials, admissible
coefficients among them; `witness_check` the same `WitnessData` fields, its
value boxed, and on gh4(3), whose K is not commutative, some drawn element
is not central; and `Bimodule.hom` the same matrix, on left factors whose
K-coefficients are zero, scalar multiples of the unit or arbitrary.  A
`validate_f` that drops the alpha^i of its commutation test turns it red."""

import functools

import pytest
from bar_reference import TensorElem
from conftest import admissible_coefficients, mutant, tuple_hom, tuple_validate_f, tuple_witness_check

from orecohom import instances, monogenic
from orecohom.cohomology import Bimodule
from orecohom.closedforms import witness_check
from orecohom.kalgebra import twisted_invariants_k
from orecohom.linalg import dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CASES = {
    **{f"taft(3, {p}, {z})": functools.partial(instances.taft, 3, p, z)
       for p in (7, 13) for z in range(1, p) if pow(z, 3, p) == 1},
    "gh4(2)": functools.partial(instances.gh4_instance, 2),
    "gh4(3)": functools.partial(instances.gh4_instance, 3),
}
SMALL = st.integers(-2, 2)


@functools.cache
def case(name: str):
    """The algebra, its regular bimodule, and per x-degree i >= 1 the
    admissible values of lambda_i, as columns; the center of K at index 0."""
    alg = CASES[name]()[0]
    K, alpha = alg.K, alg.alpha
    spaces = [twisted_invariants_k(K, alpha, 0)] + [admissible_coefficients(K, alpha, i) for i in range(1, alg.n + 1)]
    return alg, Bimodule.regular(alg), spaces


def combination(draw, F, columns) -> tuple:
    """A random combination of the columns of a matrix, as a tuple."""
    out = (F.zero,) * columns.rows
    for col in columns.columns_list():
        c = F.from_int(draw(SMALL))
        out = tuple(x + c * y for x, y in zip(out, col))
    return out


def k_element(draw, alg, spaces, kind: str, i: int = 0) -> tuple:
    """An element of K as a tuple: zero, a multiple of the unit, a random
    one, or a random element of spaces[i] (the center at i = 0)."""
    F, dim = alg.field, alg.K.dim
    if kind == "zero":
        return (F.zero,) * dim
    if kind == "scalar":
        return dense(F, alg.K.elem(draw(SMALL)), dim)
    if kind == "random":
        return tuple(F.from_int(draw(SMALL)) for _ in range(dim))
    return combination(draw, F, spaces[i])


def tensor(draw, alg) -> TensorElem:
    """A tensor whose left factors have K-coefficients of every kind."""
    dim, row = alg.K.dim, {}
    for c in range(alg.n):
        for a in range(alg.n):
            kind = draw(st.sampled_from(["zero", "scalar", "random"]))
            u = alg.K.elem(k_element(draw, alg, (), kind))
            row.update({c * alg.adim + a * dim + b: p for b, p in u.items()})
    return TensorElem._of(alg, 0, row)


def k_routes_property(names: list[str], centrals: list):
    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True,
                         report_multiple_bugs=False)
    @hypothesis.given(st.sampled_from(names), st.data())
    def check(name, data):
        alg, M, spaces = case(name)
        K, alpha, F = alg.K, alg.alpha, alg.field
        kinds = st.sampled_from(["zero", "scalar", "random", "space"])
        f = [k_element(data.draw, alg, spaces, data.draw(kinds), i) for i in range(1, alg.n + 1)]
        assert monogenic.validate_f(K, alpha, f) == tuple_validate_f(K, alpha, f)
        u = k_element(data.draw, alg, spaces, data.draw(kinds))
        w = witness_check(alg, K.elem(u))
        assert (dense(F, w.value, K.dim), w.central, w.power_fixed, w.differences_regular) == tuple_witness_check(alg, u)
        centrals.append(w.central)
        t = tensor(data.draw, alg)
        assert M.hom(t.coords) == tuple_hom(M, t)

    return check


@pytest.mark.parametrize("family", ["taft", "gh4"])
def test_k_routes_match_the_tuple_routes(family):
    centrals = []
    k_routes_property([name for name in CASES if name.startswith(family)], centrals)()
    assert family != "gh4" or not all(centrals)


def test_seeded_untwisted_commutation_is_caught(monkeypatch):
    """`validate_f` testing lambda_i mu = mu lambda_i: the alpha^i dropped."""
    untwisted = mutant(monogenic.validate_f, "K.kmul(alpha.apply_power(i, mu), li)", "K.kmul(mu, li)")
    monkeypatch.setattr(monogenic, "validate_f", untwisted)
    with pytest.raises(AssertionError):
        k_routes_property(sorted(CASES), [])()
