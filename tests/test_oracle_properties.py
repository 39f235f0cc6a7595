"""Property test: on random Taft-type algebras (the cyclic group of order n
over GF(p) twisted by an n-th root of unity, f = x^n) and random cochains,
linear combinations of the cochain basis and not only class
representatives, the demand-driven bar oracle's cup and bracket equal phi of
the eager routes of `conftest.py` in every degree through 4."""

import functools

import pytest
from conftest import bracket_bar, cup_bar

from orecohom import instances
from orecohom.cohomology import Bimodule, build_small_complex
from orecohom.monogenic import AElem
from orecohom.products import BarOracle, SmallCochain, cup_small_oracle, phi_eval, psi_eval

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
                assert oracle.bracket(a, b, TOP) == phi_eval(bracket_bar(la, lb))
