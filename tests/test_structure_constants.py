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
from conftest import (
    BASES,
    nonzero,
    pair_loop_validate,
    quads_of,
    rebased,
    triple_loop_validate,
    with_table,
)

from orecohom.fields import QQ, prime_field
from orecohom.instances import gaussian_rationals
from orecohom.kalgebra import Endo, algebra_validate
from orecohom.linalg import Mat

FIELDS = {"QQ": QQ, "GF7": prime_field(7), "QQ(i)": gaussian_rationals()}


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
