"""The coefficient-layer checks on broken inputs, against the dense loops they
replaced (kept in conftest.py): `algebra_validate` against the triple loop and
`Endo.validate` against the pair loop, over QQ, GF(7) and QQ(i).

Each base algebra is also taken in a random basis, so that its structure
constants and its twist are dense.  The broken inputs are one structure
constant perturbed, one (i, j, k) entry listed twice (split into two parts
that sum to the constant, or repeated), a perturbed unit, and a twist with one
perturbed entry.  The two routes must give the same failure list, so the same
first failing triple or pair."""

import random

import pytest
from conftest import pair_loop_validate, triple_loop_validate

from orecohom.fields import QQ, prime_field
from orecohom.instances import gaussian_rationals
from orecohom.kalgebra import (
    AlgebraK,
    Endo,
    algebra_validate,
    cyclic_group,
    group_algebra,
    quaternion_algebra,
)
from orecohom.linalg import LinSolver, Mat

FIELDS = {"QQ": QQ, "GF7": prime_field(7), "QQ(i)": gaussian_rationals()}


def nonzero(F, rng):
    while True:
        x = F.random_element(rng, 4)
        if not x.is_zero():
            return x


def quads_of(K):
    return [(i, j, k, s) for (i, j), terms in K.mul_table.items() for k, s in terms]


def with_table(K, quads, unit=None):
    return AlgebraK.from_structure_constants(
        K.field, K.dim, K.basis_names, K.unit if unit is None else unit, quads
    )


def matrix_algebra(F):
    """2 x 2 matrices on E11, E12, E21, E22 (E_ab E_bd = E_ad), twisted by
    E -> g E g^-1 for g = [[1, 1], [0, 1]]: an automorphism that is not
    diagonal."""
    quads = [(2 * a + b, 2 * b + d, 2 * a + d, F.one) for a in range(2) for b in range(2) for d in range(2)]
    K = AlgebraK.from_structure_constants(
        F, 4, ["E11", "E12", "E21", "E22"], (F.one, F.zero, F.zero, F.one), quads
    )
    o, z = F.one, F.zero
    g, ginv = ((o, o), (z, o)), ((o, -o), (z, o))
    cols = []
    for a in range(2):
        for b in range(2):
            img = [[g[r][a] * ginv[b][c] for c in range(2)] for r in range(2)]
            cols.append((img[0][0], img[0][1], img[1][0], img[1][1]))
    return K, Endo(K, Mat.from_columns(F, cols, 4))


def quaternions(F):
    """The quaternions with the half-turn about the k-axis."""
    return quaternion_algebra(F, -F.one, F.zero, F.zero, F.one)


def cyclic3(F):
    """The group algebra of C3 with the automorphism g -> g^2."""
    K = group_algebra(cyclic_group(3), F)
    o, z = F.one, F.zero
    return K, Endo(K, Mat(F, [[o, z, z], [z, z, o], [z, o, z]]))


BASES = {"M2": matrix_algebra, "H": quaternions, "C3": cyclic3}


def rebased(K, alpha, rng):
    """K and alpha in the basis f_a = sum_r P[r][a] e_r for a random
    invertible P: the same algebra, with dense structure constants."""
    F, d = K.field, K.dim
    while True:
        P = Mat(F, [[F.random_element(rng, 3) for _ in range(d)] for _ in range(d)])
        S = LinSolver(P)
        if S.rank == d:
            break
    cols = P.columns_list()
    quads = [
        (a, b, k, s)
        for a in range(d)
        for b in range(d)
        for k, s in enumerate(S.solve(K.kmul(cols[a], cols[b])))
        if not s.is_zero()
    ]
    K2 = AlgebraK.from_structure_constants(F, d, K.basis_names, S.solve(K.unit), quads)
    twist = [S.solve(alpha.apply(c)) for c in cols]
    return K2, Endo(K2, Mat.from_columns(F, twist, d))


def instances(F, rng):
    """Each base algebra with its twist, as given and in a random basis."""
    out = []
    for make in BASES.values():
        K, alpha = make(F)
        out += [(K, alpha), rebased(K, alpha, rng)]
    return out


def assert_same_reports(K, alpha=None):
    rep = algebra_validate(K)
    assert rep == triple_loop_validate(K)
    if alpha is not None:
        assert alpha.validate() == pair_loop_validate(alpha)
    return rep


@pytest.mark.parametrize("name", FIELDS)
def test_valid_instances_pass_both_routes(name):
    F = FIELDS[name]
    for K, alpha in instances(F, random.Random(10)):
        assert len(quads_of(K)) >= K.dim
        assert assert_same_reports(K, alpha).ok
        assert alpha.validate().ok


@pytest.mark.parametrize("name", FIELDS)
def test_perturbed_constant_fails_at_the_same_triple(name):
    F = FIELDS[name]
    rng = random.Random(11)
    failing = set()
    for K, _ in instances(F, rng):
        for _ in range(4):
            ijk, t = tuple(rng.randrange(K.dim) for _ in range(3)), nonzero(F, rng)
            quads = [q for q in quads_of(K) if q[:3] != ijk]
            s = sum((q[3] for q in quads_of(K) if q[:3] == ijk), F.zero)
            rep = assert_same_reports(with_table(K, quads + [(*ijk, s + t)]))
            failing.update(rep.failures)
    assert len(failing) >= 6


@pytest.mark.parametrize("name", FIELDS)
def test_repeated_entries_are_summed(name):
    F = FIELDS[name]
    rng = random.Random(12)
    broken = 0
    for K, _ in instances(F, rng):
        quads = quads_of(K)
        for _ in range(3):
            i, j, k, s = quads[rng.randrange(len(quads))]
            rest = [q for q in quads if q[:3] != (i, j, k)]
            t = nonzero(F, rng)
            # two parts that sum to the constant: the same algebra
            assert assert_same_reports(with_table(K, rest + [(i, j, k, s - t), (i, j, k, t)])).ok
            # the entry listed twice: the constant doubles
            rep = assert_same_reports(with_table(K, rest + [(i, j, k, s), (i, j, k, s)]))
            broken += not rep.ok
    assert broken >= 12


@pytest.mark.parametrize("name", FIELDS)
def test_broken_unit_fails_alike(name):
    F = FIELDS[name]
    rng = random.Random(13)
    for K, _ in instances(F, rng):
        unit = list(K.unit)
        unit[rng.randrange(K.dim)] += nonzero(F, rng)
        rep = assert_same_reports(with_table(K, quads_of(K), tuple(unit)))
        assert rep.failures and "unit law fails" in rep.failures[0]


@pytest.mark.parametrize("name", FIELDS)
def test_perturbed_twist_fails_at_the_same_pair(name):
    F = FIELDS[name]
    rng = random.Random(14)
    failing = set()
    for K, alpha in instances(F, rng):
        for _ in range(4):
            rows = [list(r) for r in alpha.matrix.data]
            rows[rng.randrange(K.dim)][rng.randrange(K.dim)] += nonzero(F, rng)
            beta = Endo(K, Mat(F, rows))
            rep = beta.validate()
            assert rep == pair_loop_validate(beta)
            failing.update(rep.failures)
    assert any("does not fix the unit" in f for f in failing)
    assert sum("multiplicativity fails" in f for f in failing) >= 4
