"""Property tests of the bar oracle and the closed products.

On random Taft-type algebras (the cyclic group of order n over GF(p)
twisted by an n-th root of unity, f = x^n) and random cochains, linear
combinations of the cochain basis and not only class representatives, the
demand-driven bar oracle's cup and bracket equal phi of the eager routes of
`conftest.py` in every degree through 4.

On Taft algebras with n = 3 (the identity twist among them) and on
gh4(2) and gh4(3), and random cocycles (representatives plus coboundaries),
the payload routes of psi, phi, the slot compositions and the closed cup
and bracket equal their AElem routes in `conftest.py`, and `class_row`
equals the payloads of `class_coords`, errors included.  gh4(2)'s group is abelian; gh4(3), of order 12, is the
smallest member whose K is not commutative, and some of its draws have a
K-coefficient outside the center of K."""

import functools

import pytest
from conftest import (
    aelem_bracket_generic,
    aelem_bracket_small_closed,
    aelem_cup_oracle,
    aelem_cup_small,
    aelem_psi_value,
    bracket_bar,
    cup_bar,
    mutant,
)
from bar_reference import all_bar_indices, phi_eval, psi_eval

from orecohom import instances
from orecohom.cohomology import Bimodule, CohomologyError, build_small_complex, cohomology_group
from orecohom.linalg import dense, payloads
from orecohom.monogenic import AElem
from orecohom.products import (
    BarOracle,
    ProductsError,
    SmallCochain,
    bracket_small_closed,
    bracket_small_generic,
    cup_small,
    cup_small_oracle,
    psi_value,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOP = 4
# (n, p) with p = 1 mod n, so GF(p) holds the n-th roots of unity
ORDERS = [(2, 3), (2, 5), (3, 7), (3, 13), (4, 5), (4, 13)]


@functools.cache
def taft_complex(n: int, p: int, zeta: int):
    alg = instances.taft(n, p, zeta)[0]
    return build_small_complex(alg, Bimodule.regular(alg), TOP + 2)


@st.composite
def cochains(draw):
    """A complex and three cochains of it, each in a degree through TOP + 1."""
    n, p = draw(st.sampled_from(ORDERS))
    zeta = draw(st.sampled_from([z for z in range(1, p) if pow(z, n, p) == 1]))
    C = taft_complex(n, p, zeta)
    out = []
    for _ in range(3):
        r = draw(st.integers(0, TOP + 1))
        value = C.alg.zero_elem()
        for v in C.bases[r].columns_list():
            value = value + AElem(C.alg, v) * draw(st.integers(0, p - 1))
        out.append(SmallCochain(C.alg, r, value, check=False))
    return C, out


@hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
@hypothesis.given(cochains())
def test_demand_driven_oracle_matches_the_eager_routes(case):
    C, ms = case
    oracle = BarOracle(C.alg)
    for a in ms:
        for b in ms:
            la, lb = psi_eval(a), psi_eval(b)
            if a.degree + b.degree <= TOP:
                assert cup_small_oracle(a, b, oracle) == phi_eval(cup_bar(la, lb))
            if 0 < a.degree + b.degree <= TOP + 1:
                assert bracket_small_generic(a, b, TOP, oracle) == phi_eval(bracket_bar(la, lb))


# Taft algebras with n = 3 and every cube root of unity zeta, gh4(2) and gh4(3).
# zeta = 1 is the identity twist: no collapse witness, and even cochains
# reach x^1 and x^2, so the signed slots of a composition are not empty.
PAYLOAD_CASES = {
    **{f"taft(3, {p}, {z})": functools.partial(instances.taft, 3, p, z)
       for p in (7, 13) for z in range(1, p) if pow(z, 3, p) == 1},
    "gh4(2)": functools.partial(instances.gh4_instance, 2),
    "gh4(3)": functools.partial(instances.gh4_instance, 3),
}


@functools.cache
def payload_case(name: str):
    alg = PAYLOAD_CASES[name]()[0]
    return build_small_complex(alg, Bimodule.regular(alg), TOP + 1)


def draw_cocycle(draw, C, r: int) -> SmallCochain:
    """A combination of the representatives of H^r plus a coboundary."""
    coeff = st.integers(-2, 2)
    alg, value = C.alg, C.alg.zero_elem()
    for row in cohomology_group(C, r).reps_rows:
        value = value + AElem._of(alg, dict(row)) * draw(coeff)
    if r:
        for col in C.bases[r - 1].columns_list():
            value = value + AElem(alg, C.d_ambient(r, col)) * draw(coeff)
    return SmallCochain(alg, r, value, check=False)


def outcome(route, *args):
    """The value of the route, or the message of the ProductsError it raises."""
    try:
        return route(*args)
    except ProductsError as exc:
        return str(exc)


def error_of(read, v) -> str:
    with pytest.raises(CohomologyError) as exc:
        read(v)
    return str(exc.value)


def k_central(alg, value: AElem) -> bool:
    """Whether every K-coefficient of the element of A commutes with K."""
    K = alg.K
    return all(K.kmul(c, K.basis_elem(b)) == K.kmul(K.basis_elem(b), c)
               for c in map(value.k_coeff, range(alg.n)) for b in range(K.dim))


def payload_routes_property(names: list[str], centrals: list):
    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True,
                         report_multiple_bugs=False)
    @hypothesis.given(st.sampled_from(names), st.data())
    def check(name, data):
        C = payload_case(name)
        alg, F = C.alg, C.field
        a, b = (draw_cocycle(data.draw, C, data.draw(st.integers(0, 3))) for _ in range(2))
        centrals.append(k_central(alg, a.value) and k_central(alg, b.value))
        for idx in all_bar_indices(alg, a.degree):
            assert psi_value(alg, a.value, idx) == aelem_psi_value(alg, a.value, idx)
        assert cup_small(a, b).value == aelem_cup_small(a, b)
        closed = outcome(lambda: bracket_small_closed(a, b, True).value)
        assert closed == outcome(aelem_bracket_small_closed, a, b)
        oracle = BarOracle(alg)
        if a.degree + b.degree <= TOP:
            assert cup_small_oracle(a, b, oracle).value == aelem_cup_oracle(a, b)
        if 0 < a.degree + b.degree <= TOP + 1:
            assert bracket_small_generic(a, b, TOP, oracle).value == aelem_bracket_generic(a, b)
        H, r = cohomology_group(C, a.degree), a.degree
        assert H.class_row(a.value.nz) == payloads(F, enumerate(H.class_coords(a.value)))
        outside = [i for i in range(alg.adim) if C.free_rows[r].coords({i: F.one.v}) is None]
        broken = [AElem(alg, col) for col in C.bases[r].columns_list() if any(C.d_ambient(r + 1, col))]
        for extra in [alg.basis_vector(i) for i in outside[:1]] + broken[:1]:
            v = a.value + extra
            want = error_of(H.class_row, v.nz)
            assert want == error_of(H.class_coords, v) == error_of(H.class_coords, v.coords)

    return check


@pytest.mark.parametrize("family", ["taft", "gh4"])
def test_payload_routes_match_the_aelem_routes(family):
    centrals = []
    payload_routes_property([name for name in PAYLOAD_CASES if name.startswith(family)], centrals)()
    assert family != "gh4" or not all(centrals)


def test_seeded_unsigned_slot_is_caught(monkeypatch):
    """`_composition` with the slot sign dropped: every slot added."""
    unsigned = mutant(BarOracle._composition, "odd = (j + 1) * (rp + 1) % 2", "odd = 0")
    monkeypatch.setattr(BarOracle, "_composition", unsigned)
    with pytest.raises(AssertionError):
        payload_routes_property(sorted(PAYLOAD_CASES), [])()
