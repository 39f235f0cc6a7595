"""Helpers shared by more than one test module."""

import pytest

from orecohom.cohomology import Bimodule, build_small_complex
from orecohom.instances import gh4_instance
from orecohom.linalg import Mat, kernel_basis


def admissible_coefficients(K, alpha, i: int) -> Mat:
    """Basis (as columns) of the values lambda_i may take in an admissible f:
    alpha-fixed with lambda_i mu = alpha^i(mu) lambda_i on a K-basis, the two
    rules `validate_f` enforces.  Both are linear in lambda_i, so the space is
    one exact kernel."""

    def block_rows(condition):
        cols = [condition(K.basis_elem(b).coords) for b in range(K.dim)]
        return [[cols[b][r] for b in range(K.dim)] for r in range(K.dim)]

    rows = block_rows(lambda v: tuple(a - b for a, b in zip(alpha.apply(v), v)))
    for j in range(K.dim):
        mu = K.basis_elem(j).coords
        amu = alpha.apply_power(i, mu)
        rows += block_rows(
            lambda v, mu=mu, amu=amu: tuple(
                a - b for a, b in zip(K.kmul(v, mu), K.kmul(amu, v))
            )
        )
    return kernel_basis(Mat(K.field, rows))


@pytest.fixture
def admissible_space():
    return admissible_coefficients


@pytest.fixture(scope="session")
def gh4_u3():
    """The order-12 two-generator instance, its character and its complex
    through degree 7: built once and shared by every module that uses it."""
    alg, chi = gh4_instance(3)
    return alg, chi, build_small_complex(alg, Bimodule.regular(alg), 7)


def iterative_invariants(M, r: int) -> Mat:
    """Basis (columns) of M^{alpha^r} = {m : m lambda = alpha^r(lambda) m},
    computed by iteratively restricting to the kernel of each basis constraint.

    The dense computation `twisted_invariants` used before its stacked sparse
    kernel, kept verbatim as an oracle for it."""
    alg = M.alg
    field = M.field
    basis = Mat.identity(field, M.dim)
    for b in range(alg.K.dim):
        if basis.cols == 0:
            break
        lam = alg.K.basis_elem(b).coords
        con = M.R_k[b].add(M.L_elem(alg.alpha.apply_power(r, lam)).scale(-field.one))
        restricted = con.matmul(basis)
        ker = kernel_basis(restricted)
        basis = basis.matmul(ker)
    return basis


def stacked_invariants_k(K, alpha, r: int) -> Mat:
    """Basis of {u in K : u b = alpha^r(b) u for all b}, as columns.

    The dense `twisted_invariants_k` from before the shared sparse kernel,
    kept verbatim as an oracle for it."""
    rows = []
    for i in range(K.dim):
        e = K.basis_elem(i).coords
        R = K.right_mult_matrix(e)
        L = K.left_mult_matrix(alpha.apply_power(r, e))
        for r1, r2 in zip(R.data, L.data):
            rows.append([a - b for a, b in zip(r1, r2)])
    return kernel_basis(Mat(K.field, rows, K.dim))


@pytest.fixture
def iterative_oracle():
    return iterative_invariants


@pytest.fixture
def stacked_oracle_k():
    return stacked_invariants_k
