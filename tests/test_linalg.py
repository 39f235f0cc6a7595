import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import in_span

from orecohom.fields import QQ, extension_field, prime_field
from orecohom.linalg import (
    EchelonTracker,
    LinalgError,
    LinSolver,
    Mat,
    intersect_spans,
    kernel_basis,
    minimal_polynomial,
    quotient_basis,
    rank,
    rref,
    solve,
    span_equal,
)


def qmat(rows):
    return Mat(QQ, [[QQ.from_int(x) for x in r] for r in rows])


def test_kernel_examples():
    assert kernel_basis(Mat.identity(QQ, 2)).cols == 0
    assert kernel_basis(Mat.zero(QQ, 2, 2)).cols == 2
    K = kernel_basis(qmat([[1, 1], [1, 1]]))
    assert K.cols == 1
    v = K.column(0)
    assert v[0] == -v[1] and not v[0].is_zero()


def test_rank_nullity_random():
    rng = random.Random(99)
    for field in (QQ, prime_field(5)):
        for _ in range(40):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            M = Mat(field, [[field.random_element(rng, 4) for _ in range(c)] for _ in range(r)])
            K = kernel_basis(M)
            assert rank(M) + K.cols == c
            for col in K.columns_list():
                assert all(x.is_zero() for x in M.matvec(col))


def test_solve():
    M = qmat([[1, 2], [3, 4]])
    x = solve(M, (QQ.from_int(5), QQ.from_int(11)))
    assert x is not None and M.matvec(x) == (QQ.from_int(5), QQ.from_int(11))
    # inconsistent system
    M2 = qmat([[1, 1], [1, 1]])
    assert solve(M2, (QQ.zero, QQ.one)) is None


def test_linsolver_many_rhs():
    rng = random.Random(3)
    M = Mat(QQ, [[QQ.random_element(rng, 5) for _ in range(4)] for _ in range(6)])
    ls = LinSolver(M)
    for _ in range(20):
        xs = tuple(QQ.random_element(rng, 5) for _ in range(4))
        b = M.matvec(xs)
        got = ls.solve(b)
        assert got is not None and M.matvec(got) == b


def test_quotient_basis_examples():
    e = Mat.identity(QQ, 2)
    zero_sub = Mat.from_columns(QQ, [], 2)
    assert quotient_basis(zero_sub, e).cols == 2
    assert quotient_basis(e, e).cols == 0
    sub = Mat.from_columns(QQ, [(QQ.one, QQ.one)], 2)
    reps = quotient_basis(sub, e)
    assert reps.cols == 1
    v = reps.column(0)
    assert v[0] != v[1]  # not proportional to (1,1)
    with pytest.raises(LinalgError):
        quotient_basis(e, sub)  # sub-span not inside span{(1,1)}


def test_span_helpers():
    A = Mat.from_columns(QQ, [(QQ.one, QQ.zero), (QQ.one, QQ.one)], 2)
    B = Mat.identity(QQ, 2)
    assert span_equal(A, B)
    assert in_span(A, (QQ.from_int(3), QQ.from_int(-2)))
    C = Mat.from_columns(QQ, [(QQ.one, QQ.one)], 2)
    assert not span_equal(A, C)
    I = intersect_spans(
        Mat.from_columns(QQ, [(QQ.one, QQ.zero), (QQ.zero, QQ.one)], 2),
        Mat.from_columns(QQ, [(QQ.one, QQ.one)], 2),
    )
    assert I.cols == 1 and I.column(0)[0] == I.column(0)[1]


def test_echelon_tracker():
    t = EchelonTracker(QQ, 3)
    assert t.add((QQ.one, QQ.zero, QQ.one))
    assert t.add((QQ.zero, QQ.one, QQ.one))
    assert not t.add((QQ.one, QQ.one, QQ.from_int(2)))
    assert t.dim == 2
    assert t.contains((QQ.from_int(2), QQ.from_int(3), QQ.from_int(5)))
    assert not t.contains((QQ.zero, QQ.zero, QQ.one))


def test_echelon_refuses_sparse_indices_outside_its_columns():
    """A sparse index outside 0..n-1 raises, as a tuple of the wrong length
    does, instead of reading as dependent, leading at a negative column or
    lying outside the span; nothing joins the echelon."""
    t = EchelonTracker(QQ, 2)
    for bad in ({5: QQ.one}, {-1: QQ.one}, {0: QQ.one, 2: QQ.one}):
        with pytest.raises(LinalgError, match="outside the columns 0..1"):
            t.add(bad)
    assert t.dim == 0 and t.add({1: QQ.one})
    with pytest.raises(LinalgError, match="outside the columns 0..1"):
        t.contains({7: QQ.one})
    with pytest.raises(LinalgError, match="vector length mismatch"):
        t.contains((QQ.one,) * 3)
    assert t._rows == [{1: QQ.one.v}] and t.lead == [1]


def test_rref_deterministic_first_pivot():
    M = qmat([[0, 2], [3, 0]])
    R, pivots = rref(M)
    assert pivots == [0, 1]
    assert R == Mat.identity(QQ, 2)


GUARD_UNDER_O = """
import sys
import orecohom.linalg as L
from orecohom.fields import QQ
assert False, "assert statements must be stripped"
L.solve = lambda M, b: None
try:
    L.minimal_polynomial(L.Mat.identity(QQ, 2))
except L.LinalgError as exc:
    print(sys.flags.optimize, type(exc).__name__)
"""


def test_minimal_polynomial_guard_survives_optimize():
    """Under python -O, a solve that finds no combination of the lower powers
    still raises LinalgError instead of returning a garbage polynomial."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", GUARD_UNDER_O], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "LinalgError"]


def test_minimal_polynomial():
    # nilpotent Jordan block: minpoly t^2
    N = qmat([[0, 1], [0, 0]])
    mp = minimal_polynomial(N)
    assert [c.v for c in mp] == [0, 0, 1]
    # diagonal with repeated eigenvalue: minpoly (t-1)(t-2)
    D = qmat([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    mp = minimal_polynomial(D)
    assert [c.v for c in mp] == [2, -3, 1]
    F = extension_field(QQ, [1, 0, 1], "i")
    J = Mat(F, [[F.zero, -F.one], [F.one, F.zero]])
    mp = minimal_polynomial(J)
    assert [repr(c) for c in mp] == ["1", "0", "1"]


SPAN_FIELDS = {
    "QQ": QQ,
    "GF7": prime_field(7),
    "QQ(i)": extension_field(QQ, [1, 0, 1], "i"),
    "GF9": extension_field(prime_field(3), [1, 0, 1], "t"),
}


@pytest.mark.parametrize("name", SPAN_FIELDS)
def test_span_helpers_leave_their_inputs_unchanged(name):
    """A transpose transposes back to an equal matrix.  `span_equal`,
    `quotient_basis`, `intersect_spans` and `EchelonTracker.extend` reduce
    columns of their inputs: each leaves every input's rows and columns as
    they were, on random matrices of every density, with spans equal,
    nested and apart."""
    F, rng = SPAN_FIELDS[name], random.Random(23)

    def column(n, density):
        return tuple(F.random_element(rng, 4) if rng.random() < density else F.zero for _ in range(n))

    for n, density in ((n, d) for n in (1, 3, 5) for d in (0.0, 0.4, 1.0)):
        A = Mat.from_columns(F, [column(n, density) for _ in range(3)], n)
        B = Mat.from_columns(F, [column(n, density) for _ in range(2)], n)
        S = A.matmul(Mat.from_columns(F, [column(3, 0.7) for _ in range(2)], 3))  # inside span(A)
        assert A.transpose().transpose() == A
        kept = [(M, [dict(r) for r in M.sparse], M.transpose().sparse) for M in (A, B, S)]
        span_equal(A, A)
        span_equal(A, S)
        span_equal(B, A)
        quotient_basis(S, A)
        quotient_basis(A, A)
        intersect_spans(A, B)
        intersect_spans(S, A)
        EchelonTracker(F, n).extend(A)
        EchelonTracker(F, n).extend(S)
        for M, rows, cols in kept:
            assert M.sparse == rows and M.transpose().sparse == cols, (n, density)
