"""Property test: on random coefficient algebras and twists, the generator
certificates and the kernel of the generators' constraints agree with the
ordered scans and the all-rows kernel of `conftest.py`, on K, on its twist
and on the regular bimodule of K[x; alpha]/(x^2), valid or broken."""

import random

import pytest
from conftest import BASES, disagreements, quads_of, rebased, square_zero, with_table

from orecohom.fields import QQ, prime_field
from orecohom.kalgebra import AlgebraK, Endo
from orecohom.linalg import Mat

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SIGNS = st.integers(-1, 1)


def truncated_powers(F, c0, c1, c2) -> list:
    """The structure constants of F[t]/(t^3 - c2 t^2 - c1 t - c0) on 1, t, t^2."""
    powers = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (c0, c1, c2)]
    powers.append((c2 * c0, c0 + c2 * c1, c1 + c2 * c2))  # t^4 = t . t^3
    return [(i, j, k, F.scalar(s)) for i in range(3) for j in range(3) for k, s in enumerate(powers[i + j])]


@st.composite
def coefficient_algebras(draw):
    """K and a twist over QQ or GF(7), in a random basis: a base algebra with
    its automorphism, or F[t]/(a random monic cubic) or a unit with random
    products of two more basis elements, each with the identity or a random
    twist fixing the unit; then perhaps one structure constant and one twist
    entry perturbed."""
    F = draw(st.sampled_from([QQ, prime_field(7)]))
    base = draw(st.sampled_from(sorted(BASES) + ["cubic", "random"]))
    o, z = F.one, F.zero
    if base in BASES:
        K, alpha = BASES[base](F)
    else:
        if base == "cubic":
            quads = truncated_powers(F, *(draw(SIGNS) for _ in range(3)))
        else:
            quads = [(0, j, j, o) for j in range(3)] + [(j, 0, j, o) for j in (1, 2)]
            quads += [(i, j, k, F.scalar(draw(SIGNS))) for i in (1, 2) for j in (1, 2) for k in range(3)]
        K = AlgebraK.from_structure_constants(F, 3, ["1", "a", "b"], (o, z, z), quads)
        cols = [(o, z, z), (z, o, z), (z, z, o)]
        if draw(st.booleans()):
            cols[1:] = [(z, *(F.scalar(draw(SIGNS)) for _ in range(2))) for _ in range(2)]
        alpha = Endo(K, Mat.from_columns(F, cols, 3))
    K, alpha = rebased(K, alpha, random.Random(draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        ijk = tuple(draw(st.integers(0, K.dim - 1)) for _ in range(3))
        K = with_table(K, quads_of(K) + [(*ijk, F.scalar(draw(st.integers(1, 3))))])
        alpha = Endo(K, alpha.matrix)
    if draw(st.booleans()):
        rows = [list(r) for r in alpha.matrix.data]
        rows[draw(st.integers(0, K.dim - 1))][draw(st.integers(0, K.dim - 1))] += o
        alpha = Endo(K, Mat(F, rows))
    return K, alpha


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(coefficient_algebras())
def test_random_structure_constants(case):
    assert disagreements(square_zero(*case)) == []
