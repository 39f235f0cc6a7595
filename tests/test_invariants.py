"""The sparse twisted-invariant kernel against the computations it replaced:
the iterative restriction for bimodules and the dense stacked kernel for the
coefficient algebra.  Both oracles live in conftest.py."""

import pytest
from conftest import CANNED, CASES, SPECS, dense_d_ambient

from orecohom import instances
from orecohom.cohomology import Bimodule, build_small_complex, twisted_invariants
from orecohom.kalgebra import AlgebraError, twisted_invariants_k
from orecohom.linalg import Mat
from orecohom.monogenic import MonogenicAlgebra
from orecohom.specio import load_instance


def exponents(alpha) -> range:
    assert alpha.order is not None
    return range(2 * alpha.order + 2)


def assert_bimodule_matches(M: Bimodule, oracle) -> None:
    alpha = M.alg.alpha
    # the oracle reads the twist only through the matrix alpha^t
    expected: dict = {}
    for t in exponents(alpha):
        key = alpha.power_matrix(t).data
        if key not in expected:
            expected[key] = oracle(M, t)
        assert twisted_invariants(M, t) == expected[key], f"t = {t}"


def assert_coefficients_match(alg: MonogenicAlgebra, oracle) -> None:
    for t in exponents(alg.alpha):
        assert twisted_invariants_k(alg.K, alg.alpha, t) == oracle(alg.K, alg.alpha, t), f"t = {t}"


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_instances_match_oracles(name, iterative_oracle, stacked_oracle_k):
    alg = CANNED[name]()
    assert_bimodule_matches(Bimodule.regular(alg), iterative_oracle)
    assert_coefficients_match(alg, stacked_oracle_k)


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_demo_specs_match_oracles(path, iterative_oracle, stacked_oracle_k):
    alg = load_instance(str(path)).algebra(check=False)
    assert_bimodule_matches(Bimodule.regular(alg), iterative_oracle)
    assert_coefficients_match(alg, stacked_oracle_k)


def block_sum(X: Mat, Y: Mat) -> Mat:
    z = X.field.zero
    rows = [list(r) + [z] * Y.cols for r in X.data]
    rows += [[z] * X.cols + list(r) for r in Y.data]
    return Mat(X.field, rows, X.cols + Y.cols)


def scrambled_direct_sum(alg: MonogenicAlgebra) -> tuple[Bimodule, Bimodule]:
    """A and A ⊕ A in the basis of the all-ones upper triangular matrix P,
    whose inverse is I - (superdiagonal).  The change of basis fills the
    action matrices, so no computation on them can lean on the sparsity of
    A's actions."""
    A = Bimodule.regular(alg)
    F, n = alg.field, 2 * A.dim
    P = Mat(F, [[F.one if j >= i else F.zero for j in range(n)] for i in range(n)])
    P_inv = Mat(F, [[F.one if j == i else -F.one if j == i + 1 else F.zero for j in range(n)] for i in range(n)])
    assert P.matmul(P_inv) == Mat.identity(F, n)

    def scrambled(X: Mat) -> Mat:
        return P.matmul(block_sum(X, X)).matmul(P_inv)

    return A, Bimodule.from_actions(
        alg, [scrambled(L) for L in A.L_k], scrambled(A.Lx), [scrambled(R) for R in A.R_k], scrambled(A.Rx)
    )


def test_scrambled_direct_sum_matches_oracle(iterative_oracle):
    A, M = scrambled_direct_sum(instances.taft(3, 7, 2)[0])
    assert_bimodule_matches(M, iterative_oracle)
    assert twisted_invariants(M, 1).cols == 2 * twisted_invariants(A, 1).cols


@pytest.mark.parametrize("name", ["linear-g", "taft37"])
def test_scrambled_direct_sum_differentials_match(name):
    """The complex over a bimodule that is not A itself: its differentials,
    read off the resolution, equal the formula written for each parity."""
    _, M = scrambled_direct_sum(CASES[name]())
    C = build_small_complex(M.alg, M, 3)
    for r in (1, 2, 3):
        for v in C.bases[r - 1].columns_list() + Mat.identity(M.field, M.dim).columns_list():
            assert C.d_ambient(r, v) == dense_d_ambient(M, r, v), f"degree {r}"


def test_equal_twists_share_one_solve():
    alg = instances.c4_sign()[0]
    M = Bimodule.regular(alg)
    assert twisted_invariants(M, 0) is twisted_invariants(M, 2 * alg.alpha.order)
    assert twisted_invariants_k(alg.K, alg.alpha, 1) is twisted_invariants_k(alg.K, alg.alpha, 1 + alg.alpha.order)


def test_coefficient_invariants_need_the_twist_of_that_algebra():
    alg = instances.sweedler()[0]
    other = instances.sweedler()[0]
    with pytest.raises(AlgebraError, match="another algebra"):
        twisted_invariants_k(other.K, alg.alpha, 0)
