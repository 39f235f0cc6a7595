"""Each quantity derived from the twist or from K has one definition, on its
owner: `Endo.minus_identity` and `Endo.norm`, the generator test of
`products._is_twisted`, the summed table of `AlgebraK` with its center, which
is the twisted invariants `twisted_invariants_k(K, alpha, 0)`, and the
stored powers of `MonogenicAlgebra.xpow`.  K's actions, like A's, are
`BasisActions` built on first read.  Each is
compared with the definition it replaced (kept in conftest.py) on every demo
spec's algebra and on gh4 u = 2, and three seeded mistakes must each be
caught: a norm without its last term, a twisted-invariance test that reads
only the first generator of gh4's K, and a summing step that keeps the last
of a repeated (i, j, k) entry instead of adding it."""

from pathlib import Path

import pytest
from conftest import (
    all_basis_is_twisted,
    alpha_minus_id,
    basis_products,
    delta_sum,
    hand_summed_center,
    mutant,
    quads_of,
    scalar_table,
    twist_norm,
    unsummed_table,
    xpow_nf_rows,
)

from orecohom import products
from orecohom.cohomology import Bimodule
from orecohom.instances import gh4_instance
from orecohom.kalgebra import AlgebraK, Endo, identity_endo, twisted_invariants_k, twisted_kernel
from orecohom.linalg import kernel_basis
from orecohom.monogenic import AElem
from orecohom.specio import load_instance

SPECS = sorted((Path(__file__).resolve().parent.parent / "demos" / "specs").glob("*.json"))
ALGEBRAS = {
    **{p.stem: (lambda p=p: load_instance(str(p)).algebra(check=False)) for p in SPECS},
    "gh4:2": lambda: gh4_instance(2)[0],
}


@pytest.fixture(scope="module", params=sorted(ALGEBRAS))
def alg(request):
    return ALGEBRAS[request.param]()


def norm_disagreements(alg) -> list[str]:
    """Where `Endo.norm` differs from the summed powers and from the orbit
    loop on each basis element, at 0 <= l <= 2n + 1."""
    alpha, K = alg.alpha, alg.K
    out = []
    for l in range(2 * alg.n + 2):
        N = alpha.norm(l)
        if N != twist_norm(alpha, l):
            out.append(f"norm({l}) differs from the summed powers")
        for b in range(K.dim):
            e = K.basis_elem(b)
            if N.apply(e) != delta_sum(alpha, e, l):
                out.append(f"norm({l}) differs from the orbit sum at basis {b}")
    return out


def is_twisted_disagreements(is_twisted, alg) -> list[str]:
    """Where ``is_twisted`` differs from the all-basis test, for each twist
    0 <= t <= 2n + 1, on the basis of A, the twisted invariants of the
    regular bimodule and the invariants of each generator's constraints
    alone, which need not be invariant under the others."""
    M = Bimodule.regular(alg)
    gens = alg.alpha.generators or ()
    out = []
    for t in range(2 * alg.n + 2):
        twist = alg.alpha.power_matrix(t)
        values = [alg.basis_vector(i) for i in range(alg.adim)]
        for subset in (None, *((g,) for g in gens)):
            values += [AElem(alg, c) for c in
                       twisted_kernel(alg.field, alg.adim, M.R_k, M.L_k, twist, subset).columns_list()]
        out += [f"t = {t}: {v}" for v in values if is_twisted(v, t) != all_basis_is_twisted(v, t)]
    return out


def split_quads(K) -> list[tuple]:
    """K's structure constants with each entry s given as the two parts s + 1
    and -1, and a pair of entries that cancel at k = 0 for each (i, j)."""
    one = K.field.one
    out = []
    for i, j, k, s in quads_of(K):
        out += [(i, j, k, s + one), (i, j, k, -one), (i, j, 0, one), (i, j, 0, -one)]
    return out


def table_disagreements(K) -> list[str]:
    """Where K rebuilt from ``split_quads`` differs from K, and where either
    differs from the unsummed table summed by the old definitions."""
    F, quads = K.field, split_quads(K)
    K2 = AlgebraK.from_structure_constants(F, K.dim, K.basis_names, K.unit, quads)
    raw = unsummed_table(F, quads)
    want = {ij: sorted((k, c.v) for k, c in prod.items()) for ij, prod in basis_products(F, raw).items()}
    out = []
    if K2.mul_table != want:
        out.append("the table is not the sum of its entries")
    if K.mul_table != want:
        out.append("the table differs from the table of its summed entries")
    if any([k for k, _ in terms] != sorted({k for k, _ in terms}) or any(p == F.zero.v for _, p in terms)
           for terms in K2.mul_table.values()):
        out.append("a (k, entry) list repeats a k, is out of order or holds a zero")
    centers = [twisted_invariants_k(k, identity_endo(k), 0) for k in (K2, K)]
    if not centers[0] == centers[1] == hand_summed_center(F, K.dim, raw):
        out.append("the center differs from the hand-summed center")
    return out


def test_norms_match_orbit_sums(alg):
    assert norm_disagreements(alg) == []
    assert alg.alpha.norm(alg.n) is alg.alpha.norm(alg.n)


def test_minus_identity_matches(alg):
    assert alg.alpha.minus_identity == alpha_minus_id(alg)
    assert alg.alpha.fixed_space == kernel_basis(alpha_minus_id(alg))


def test_is_twisted_matches_all_basis_test(alg):
    assert is_twisted_disagreements(products._is_twisted, alg) == []


def test_table_is_summed_at_entry(alg):
    assert table_disagreements(alg.K) == []
    table = scalar_table(alg.field, alg.K.mul_table)
    assert twisted_invariants_k(alg.K, alg.alpha, 0) == hand_summed_center(alg.field, alg.K.dim, table)


def test_xpow_returns_the_stored_rows(alg):
    rows, n = xpow_nf_rows(alg), alg.n
    for m in range(2 * n + 1):
        assert [alg.xpow(m).k_coeff(j) for j in range(n)] == rows[m]
        assert alg.xpow(m) is alg.xpow(m)


# -- seeded mistakes -------------------------------------------------------------


def test_seeded_norm_without_last_term_is_caught(monkeypatch, alg):
    monkeypatch.setattr(Endo, "norm", mutant(Endo.norm, "return norms[l]", "return norms[max(l - 1, 0)]"))
    assert norm_disagreements(alg)


def test_seeded_first_generator_only_is_caught(gh4_u3):
    """gh4's K needs two generators, h and g; testing h alone passes values
    that g's constraint refutes."""
    alg = gh4_u3[0]
    assert len(alg.alpha.generators) == 2
    first_only = mutant(products._is_twisted, "else gens:", "else gens[:1]:")
    assert is_twisted_disagreements(first_only, alg)


def test_seeded_summing_that_keeps_the_last_entry_is_caught(monkeypatch, alg):
    monkeypatch.setattr(AlgebraK, "from_structure_constants", mutant(
        AlgebraK.from_structure_constants, "row_sum(field, ((one, payloads(field, [kc])) for kc in terms))",
        "payloads(field, terms)"))
    assert table_disagreements(alg.K)
