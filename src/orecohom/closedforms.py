"""Closed-form cohomology tables and their verification against the generic
pipeline.

Every function here evaluates a closed description of some cohomological
datum -- cochain spaces, differentials, cohomology dimensions, product rules --
and then recomputes the same datum through the generic machinery
(twisted-invariant subspaces, compiled differentials, quotient bases).  The
results come back in a uniform check dict:

    {"theorem": <slug>, "hypotheses": [{"name", "holds"}, ...],
     "closed_table": ..., "generic_table": ..., "match": bool,
     "mismatches": [...]}

Hard precondition failures raise ClosedFormError; computational disagreements
are recorded in ``mismatches`` and flip ``match`` instead of raising, so a
report can show exactly where a closed description stops being valid.

The tables that run through every degree (the collapsed spaces,
differentials and cohomology, the fixed-block tables of the diagonalizable
and group-algebra checks, the annihilator table) fold their per-degree work
as ``SmallComplex`` folds the complex: each piece is keyed on the parity and
the identities of what it reads (the block spaces of ``_w_space``, one
object per distinct twist power, and the bases, differentials and group
cores of C), computed once per key in a memo local to the call (``_once``)
and read by every degree with that key.  Each degree still gets its own row,
matrix and mismatch string.

Preconditions are tested in one order, so a skip names the first that
fails: regular bimodule, the run is the model (the rank-one and rotation
checks, whose data define a twist and f that C's must equal), character
(given, else read off the twist), collapse witness, identity twist, top degree
(by default the highest the complex reaches), then the check's own hypotheses;
the rank-one check reads its witness after them.  A WitnessData passed in is
never searched for again; only None starts a search.

The witness element lambda-check that drives the collapsed descriptions is a
central, n-th-power-fixed element whose differences from its own twists are
two-sided regular.  When one exists, the twisted-invariant cochain spaces
collapse onto the coefficient algebra (even degrees) and its x-multiples
(odd degrees), and every middle coefficient of the defining polynomial is
forced to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .fields import (
    Field,
    RationalField,
    Scalar,
    poly_derivative,
    poly_gcd,
    polynomial_roots,
)
from .linalg import (
    EchelonTracker,
    FreeRows,
    Mat,
    combine,
    intersect_spans,
    kernel_basis,
    minimal_polynomial,
    quotient_basis,
    rank,
    span_equal,
    support,
    vscale,
)
from .kalgebra import (
    AlgebraK,
    Endo,
    GroupData,
    char_power,
    character_kernel,
    character_order,
    endo_from_character,
    group_algebra,
    identity_endo,
    rotation_endo,
    scalar_algebra,
    twisted_invariants_k,
    validate_character,
)
from .monogenic import AElem, MonogenicAlgebra, TensorElem, validate_f
from .cohomology import (
    Bimodule,
    CohomologyError,
    SmallComplex,
    build_small_complex,
    cohomology_dims,
    cohomology_group,
)
from .products import ProductStore


class ClosedFormError(ValueError):
    pass


# -- check-dict plumbing -------------------------------------------------------


def _hyp(name: str, holds: bool) -> dict:
    return {"name": name, "holds": bool(holds)}


def _result(theorem: str, hypotheses: list, closed, generic, mismatches: list) -> dict:
    return {
        "theorem": theorem,
        "hypotheses": hypotheses,
        "closed_table": closed,
        "generic_table": generic,
        "match": not mismatches,
        "mismatches": list(mismatches),
    }


def _regular_alg(C: SmallComplex) -> MonogenicAlgebra:
    """The algebra of C, once C is checked to be its regular bimodule's complex."""
    if C.M.dim != C.alg.adim:
        raise ClosedFormError("closed tables describe the regular bimodule")
    return C.alg


def _top_degree(C: SmallComplex, up_to: int | None) -> int:
    """The top degree of a cohomology table, by default the highest that C
    reaches: H^r needs the cochains of degree r + 1."""
    if up_to is None:
        up_to = C.max_degree - 1
    if up_to + 1 > C.max_degree:
        raise ClosedFormError(
            f"table through degree {up_to} needs the complex built through degree {up_to + 1}"
        )
    return up_to


def _character(alg: MonogenicAlgebra, chi: list[Scalar] | None) -> list[Scalar]:
    """The given character, else the one read off the diagonal twist.  A
    given character must be that twist's diagonal, since a spec builds the
    twist from its character; CohomologyError when it is not (a fault, such
    as a character that is not multiplicative)."""
    if chi is None:
        return character_of(alg.K, alg.alpha)
    diagonal = [{} if c.is_zero() else {g: c} for g, c in enumerate(chi)]
    if diagonal != alg.alpha.matrix.sparse:
        raise CohomologyError("the character is not the diagonal of the twist")
    return chi


def _dims_result(
    theorem: str, hypotheses: list, C: SmallComplex, up_to: int,
    closed_dims: list[int], mismatches: list, **closed,
) -> dict:
    """The check dict of a dimension table, compared with the generic one."""
    generic_dims = cohomology_dims(C, up_to)
    if closed_dims != generic_dims:
        mismatches.append("dimension tables differ")
    return _result(theorem, hypotheses, {"dims": closed_dims, **closed}, {"dims": generic_dims},
                   mismatches)


# -- witness elements ----------------------------------------------------------


@dataclass(frozen=True)
class WitnessData:
    """A candidate collapse witness with its three verified properties."""

    value: tuple
    central: bool
    power_fixed: bool
    differences_regular: bool

    def __bool__(self) -> bool:
        return self.central and self.power_fixed and self.differences_regular

    def hypothesis_list(self) -> list:
        return [
            _hyp("witness is central", self.central),
            _hyp("witness is fixed by the n-th twist power", self.power_fixed),
            _hyp("witness twist differences are regular", self.differences_regular),
        ]


def witness_check(alg: MonogenicAlgebra, candidate) -> WitnessData:
    """Evaluate the three collapse-witness conditions on one element."""
    K, alpha, n = alg.K, alg.alpha, alg.n
    u = K.elem(candidate)
    central = all(
        K.kmul(u, K.basis_elem(b)) == K.kmul(K.basis_elem(b), u)
        for b in range(K.dim)
    )
    power_fixed = alpha.apply_power(n, u) == u
    regular = True
    for i in range(1, n):
        diff = tuple(a - b for a, b in zip(u, alpha.apply_power(i, u)))
        if all(c.is_zero() for c in diff):
            regular = False
            break
        if rank(K.left_mult_matrix(diff)) < K.dim or rank(K.right_mult_matrix(diff)) < K.dim:
            regular = False
            break
    return WitnessData(u, central, power_fixed, regular)


def find_witness(alg: MonogenicAlgebra, candidates=()) -> WitnessData | None:
    """Search for a collapse witness.

    Order: caller-supplied candidates, then central group elements when the
    coefficient algebra is a group algebra, then a basis of the center (for a
    group algebra these are the class sums).  Each distinct nonzero element
    is tried once; returns the first that passes all three conditions, or
    None.
    """
    K = alg.K
    pool = [K.elem(c) for c in candidates]
    if K.group is not None:
        pool += [K.basis_elem(g) for g in K.group.center_indices()]
    center = _w_space(alg, 0)
    pool += center.columns_list()
    if center.cols > 1:
        weighted = [K.field.zero] * K.dim
        for j in range(center.cols):
            s = K.field.from_int(j + 1)
            weighted = [a + s * c for a, c in zip(weighted, center.column(j))]
        pool.append(tuple(weighted))
    for lam in dict.fromkeys(pool):
        if all(c.is_zero() for c in lam):
            continue
        w = witness_check(alg, lam)
        if w:
            return w
    return None


NO_WITNESS = "no collapse witness available for this instance"


def _need_witness(alg: MonogenicAlgebra, witness) -> WitnessData:
    if witness is None:
        witness = find_witness(alg)
    elif not isinstance(witness, WitnessData):
        witness = witness_check(alg, witness)
    if not witness:
        raise ClosedFormError(NO_WITNESS)
    return witness


# -- coefficient-space helpers -------------------------------------------------


def _embed_k_columns(alg: MonogenicAlgebra, cols: Mat, xdeg: int) -> Mat:
    """Columns of K-coordinates, embedded at one x-degree of the regular module."""
    return Mat.from_columns(
        alg.field, [alg.monomial(c, xdeg).coords for c in cols.columns_list()], alg.adim
    )


def _w_space(alg: MonogenicAlgebra, m: int) -> Mat:
    """The coefficient space K^{alpha^{mn}} of block m; at m = 0, the center."""
    return twisted_invariants_k(alg.K, alg.alpha, m * alg.n)


def _n_lambda(alg: MonogenicAlgebra) -> tuple:
    """n times the constant coefficient of f, in K-coordinates."""
    return vscale(alg.field.from_int(alg.n), alg.f_terms[0])


def _trace_matrix(alg: MonogenicAlgebra) -> Mat:
    """Matrix of lam -> sum_{l < n} alpha^l(lam) * lambda_n on K-coordinates."""
    return alg.K.right_mult_matrix(alg.f_terms[0]).matmul(alg.alpha.norm(alg.n))


def _quotient_dim(sub: Mat, amb: Mat) -> int:
    return EchelonTracker.of_columns(amb).dim - EchelonTracker.of_columns(sub).dim


def _once(memo: dict, key: tuple, work):
    """``work()`` the first time ``key`` is met in ``memo``, the same result
    after.  A table keys its per-degree work on the parity and the
    identities of the inputs that work reads (the block spaces of
    ``_w_space``, the bases and differentials of C, the cores of its groups,
    earlier results of this memo), as ``SmallComplex`` does: equal inputs
    are one object, so each distinct input is computed once."""
    if key not in memo:
        memo[key] = work()
    return memo[key]


def _closed_reps_mismatch(C: SmallComplex, r: int, reps: Mat, tag: str) -> str | None:
    """None when the closed representatives inject onto a basis of H^r, else
    the mismatch with its degree left as the field ``{r}``.  It reads r only
    through the basis of C^r and the core of H^r, so one result serves every
    degree that shares them."""
    H = cohomology_group(C, r)
    coords = []
    for j in range(reps.cols):
        try:
            coords.append(H.class_coords(reps.column(j)))
        except CohomologyError:
            return f"{tag}: representative {j} is not a cocycle in degree {{r}}"
    got = EchelonTracker.of_columns(Mat.from_columns(C.field, coords, H.dim)).dim if coords else 0
    if got != reps.cols or reps.cols != H.dim:
        return f"{tag}: degree {{r}} closed representatives give rank {got}, expected {H.dim}"
    return None


# -- collapsed cochain spaces and differentials --------------------------------


def check_collapsed_cochain_spaces(
    C: SmallComplex, witness=None, up_to: int | None = None
) -> dict:
    """Under a witness, the degree-2m cochain space is the m-block coefficient
    space and the degree-(2m+1) space is its x-multiple."""
    alg = _regular_alg(C)
    w = _need_witness(alg, witness)
    if up_to is None:
        up_to = C.max_degree
    closed_dims, generic_dims, mismatches = [], [], []
    embedded, equal = {}, {}
    for r in range(up_to + 1):
        W, basis = _w_space(alg, r // 2), C.bases[r]
        emb = _once(embedded, (r % 2, id(W)), lambda: _embed_k_columns(alg, W, r % 2))
        closed_dims.append(W.cols)
        generic_dims.append(basis.cols)
        if not _once(equal, (id(emb), id(basis)), lambda: span_equal(emb, basis)):
            mismatches.append(f"cochain space mismatch in degree {r}")
    return _result(
        "collapsed-cochain-spaces",
        w.hypothesis_list(),
        {"dims": closed_dims},
        {"dims": generic_dims},
        mismatches,
    )


def check_collapsed_differentials(
    C: SmallComplex, witness=None, up_to: int | None = None
) -> dict:
    """Under a witness, the odd differential is lam -> (alpha(lam) - lam) x and
    the even differential is lam x -> -sum_l alpha^l(lam) lambda_n."""
    alg = _regular_alg(C)
    w = _need_witness(alg, witness)
    if up_to is None:
        up_to = C.max_degree
    ops = (_trace_matrix(alg), alg.alpha.minus_identity)  # by r mod 2
    mismatches = []
    closed_cols: dict[str, list] = {}
    compiled: dict[tuple, tuple] = {}
    for r in range(1, up_to + 1):
        key = (id(C.bases[r - 1]), id(C.bases[r]), id(C.dmats[r]), r % 2)
        cols, equal = _once(compiled, key, lambda: _closed_differential(C, r, ops[r % 2]))
        if cols is None:
            mismatches.append(f"closed differential leaves the cochain space in degree {r}")
            continue
        closed_cols[str(r)] = cols
        if not equal:
            mismatches.append(f"differential mismatch in degree {r}")
    return _result(
        "collapsed-differentials",
        w.hypothesis_list(),
        {"matrices": closed_cols},
        {"matrices": "compiled"},
        mismatches,
    )


def _closed_differential(C: SmallComplex, r: int, op: Mat) -> tuple[list | None, bool]:
    """The closed d^r on the basis of C^{r-1} through ``op`` (alpha - id for
    odd r, the trace map for even r), its columns encoded, and whether it
    equals ``C.dmats[r]``; (None, False) when it leaves C^r."""
    alg, xdeg, cols = C.alg, r % 2, []
    for v in C.bases[r - 1].columns_list():
        w_k = op.matvec(AElem(alg, v).k_coeff(1 - xdeg))
        amb = alg.monomial(w_k if xdeg else vscale(-alg.field.one, w_k), xdeg).coords
        try:
            cols.append(C.to_sub(r, amb))
        except CohomologyError:
            return None, False
    closed = Mat.from_columns(C.field, cols, C.bases[r].cols)
    return [[alg.field.encode(x) for x in col] for col in cols], closed == C.dmats[r]


def collapsed_cohomology_table(
    C: SmallComplex, witness=None, up_to: int | None = None
) -> dict:
    """Cohomology of a witnessed instance from coefficient-space data alone:
    fixed-central part in degree 0, trace-kernel over twist-image in odd
    degrees, fixed part of the next block over the trace image in even ones."""
    alg = _regular_alg(C)
    w = _need_witness(alg, witness)
    up_to = _top_degree(C, up_to)
    A1 = alg.alpha.minus_identity
    T = _trace_matrix(alg)
    fixed = alg.alpha.fixed_space
    trace_kernel = kernel_basis(T)
    space = intersect_spans(fixed, _w_space(alg, 0))
    closed_dims = [space.cols]
    mismatches: list[str] = []
    gen_ker0 = C.bases[0].matmul(cohomology_group(C, 0).kernel)
    if not span_equal(_embed_k_columns(alg, space, 0), gen_ker0):
        mismatches.append("degree 0 space mismatch")
    closed: dict[tuple, tuple] = {}  # r mod 2, ids of its blocks -> (cocycles, boundaries)
    compared: dict[tuple, tuple] = {}  # ids of (closed, core of H^r) -> checks
    for r in range(1, up_to + 1):
        m, xdeg = r // 2, r % 2
        W = _w_space(alg, m)
        if xdeg:
            pair = _once(closed, (1, id(W)), lambda: (intersect_spans(W, trace_kernel), A1.matmul(W)))
        else:
            below = _w_space(alg, m - 1)
            pair = _once(closed, (0, id(W), id(below)),
                         lambda: (intersect_spans(fixed, W), T.matmul(below)))
        H = cohomology_group(C, r)
        dim, cocycles_ok, boundaries_ok = _once(compared, (id(pair), id(H.core)), lambda: (
            _quotient_dim(pair[1], pair[0]),
            span_equal(_embed_k_columns(alg, pair[0], xdeg), C.bases[r].matmul(H.kernel)),
            span_equal(_embed_k_columns(alg, pair[1], xdeg), C.bases[r].matmul(C.dmats[r])),
        ))
        closed_dims.append(dim)
        if not cocycles_ok:
            mismatches.append(f"cocycle space mismatch in degree {r}")
        if not boundaries_ok:
            mismatches.append(f"coboundary space mismatch in degree {r}")
    return _dims_result(
        "collapsed-cohomology", w.hypothesis_list(), C, up_to, closed_dims, mismatches
    )


# -- cyclic-group comparison ---------------------------------------------------


def _restrict_to_span(space: Mat, M: Mat) -> Mat:
    """Matrix of M acting on span(space), in the coordinates of its columns,
    read off their free rows (``FreeRows``): every caller's space is a
    reduced free-variable basis, ``_w_space(alg, 0)`` or ``C.bases[0]``.
    Every caller's M preserves its span, so an image outside it is a fault."""
    restricted = FreeRows(space).matrix(M.matvec(v) for v in space.columns_list())
    if restricted is None:
        raise CohomologyError("operator does not preserve the subspace")
    return restricted


def cyclic_group_cohomology(C: SmallComplex, witness=None, up_to: int | None = None) -> dict:
    """When the constant coefficient is invertible and the twist has order
    dividing n, the cohomology agrees with group cohomology of a cyclic group
    acting on the center through the twist: fixed points in degree 0, then
    norm kernel over twist image and twist kernel over norm image alternating."""
    alg = _regular_alg(C)
    K = alg.K
    w = _need_witness(alg, witness)
    up_to = _top_degree(C, up_to)
    lam_n = alg.f_terms[0]
    invertible = rank(K.left_mult_matrix(lam_n)) == K.dim
    ident = Mat.identity(K.field, K.dim)
    power_trivial = alg.alpha.power_matrix(alg.n) == ident
    hyps = w.hypothesis_list() + [
        _hyp("constant coefficient is invertible", invertible),
        _hyp("twist has order dividing n", power_trivial),
    ]
    if not (invertible and power_trivial):
        raise ClosedFormError("cyclic-group comparison needs an invertible constant "
                              "coefficient and a twist of order dividing n")
    Z = _w_space(alg, 0)
    a1 = _restrict_to_span(Z, alg.alpha.minus_identity)
    nz = _restrict_to_span(Z, alg.alpha.norm(alg.n))
    z = Z.cols
    h0 = z - rank(a1)
    h_odd = (z - rank(nz)) - rank(a1)
    h_even = (z - rank(a1)) - rank(nz)
    closed = [h0] + [h_odd if r % 2 == 1 else h_even for r in range(1, up_to + 1)]
    return _dims_result("cyclic-group-comparison", hyps, C, up_to, closed, [])


# -- diagonalizable twists -----------------------------------------------------


def certify_diagonalizable(alpha: Endo) -> bool:
    """Certify (or refute) diagonalizability over the ground field.

    A diagonal matrix is certified directly.  Otherwise the minimal polynomial
    must be squarefree and split with roots the field machinery can exhaust;
    when the root search is inconclusive a ClosedFormError is raised rather
    than guessing.
    """
    M = alpha.matrix
    field = M.field
    if all(j == i for i, row in enumerate(M.sparse) for j in row):
        return True
    mp = minimal_polynomial(M)
    g = poly_gcd(mp, poly_derivative(mp, field), field)
    if len(g) > 1:
        return False
    roots, complete = polynomial_roots(mp, field)
    if complete:
        return len(set(roots)) == len(mp) - 1
    # over the rationals and over finite fields the root search is exhaustive,
    # so an incomplete factorization proves the polynomial does not split
    if isinstance(field, RationalField) or getattr(field, "char", 0) > 0:
        return False
    raise ClosedFormError("cannot certify diagonalizability: the root search "
                          "over this field is not exhaustive")


def _fixed_block_dims(C: SmallComplex, fixed: Mat, up_to: int, mismatches: list) -> list[int]:
    """Closed dimensions from a fixed space of the twist: its central part in
    degree 0; in odd degree 2m+1, its elements in block m annihilating n times
    the constant coefficient; in even degree 2m, its block-m elements modulo
    that multiple of its block-(m-1) elements.  The closed representatives of
    each positive degree are checked against H^r."""
    alg = C.alg
    Rn = alg.K.right_mult_matrix(_n_lambda(alg))
    ann = kernel_basis(Rn)
    closed_dims = [intersect_spans(fixed, _w_space(alg, 0)).cols]
    parts: dict[tuple, Mat] = {}  # id of a block space -> its fixed part

    def fixed_part(W: Mat) -> Mat:
        return _once(parts, (id(W),), lambda: intersect_spans(fixed, W))

    reps: dict[tuple, Mat] = {}  # r mod 2, ids of its blocks -> representatives in K
    checked: dict[tuple, str | None] = {}  # r mod 2, ids of (reps, core of H^r) -> mismatch
    for r in range(1, up_to + 1):
        m, xdeg = r // 2, r % 2
        W = _w_space(alg, m)
        if xdeg:
            reps_k = _once(reps, (1, id(W)), lambda: intersect_spans(fixed_part(W), ann))
        else:
            below = _w_space(alg, m - 1)
            reps_k = _once(reps, (0, id(W), id(below)),
                           lambda: quotient_basis(Rn.matmul(fixed_part(below)), fixed_part(W)))
        closed_dims.append(reps_k.cols)
        key = (xdeg, id(reps_k), id(cohomology_group(C, r).core))
        mismatch = _once(checked, key, lambda: _closed_reps_mismatch(
            C, r, _embed_k_columns(alg, reps_k, xdeg), "odd table" if xdeg else "even table"))
        if mismatch:
            mismatches.append(mismatch.format(r=r))
    return closed_dims


def diagonalizable_cohomology_table(
    C: SmallComplex, witness=None, up_to: int | None = None
) -> dict:
    """For a diagonalizable twist the cohomology embeds as explicit subspaces:
    odd classes are fixed block elements annihilating n times the constant
    coefficient; even classes are fixed next-block elements modulo that
    multiple of the fixed block."""
    alg = _regular_alg(C)
    w = _need_witness(alg, witness)
    up_to = _top_degree(C, up_to)
    diag = certify_diagonalizable(alg.alpha)
    epi = alg.alpha.is_automorphism
    hyps = w.hypothesis_list() + [
        _hyp("twist is certified diagonalizable", diag),
        _hyp("twist is bijective", epi),
    ]
    if not (diag and epi):
        raise ClosedFormError("closed table needs a certified diagonalizable bijective twist")
    mismatches: list[str] = []
    closed_dims = _fixed_block_dims(C, alg.alpha.fixed_space, up_to, mismatches)
    ch = getattr(alg.field, "char", 0)
    if ch != 2 or alg.n % 2 == 1 or alg.n % 4 == 0:
        odd_cup_rule = "zero"
    else:
        odd_cup_rule = "product-with-constant-coefficient"
    return _dims_result(
        "diagonalizable-cohomology", hyps, C, up_to, closed_dims, mismatches,
        odd_cup_rule=odd_cup_rule,
    )


# -- identity twist ------------------------------------------------------------


def _formal_derivative_elem(alg: MonogenicAlgebra) -> AElem:
    """sum_i i * c_i x^{i-1}, the derivative of the defining polynomial."""
    total = alg.zero_elem()
    for i in range(1, alg.n + 1):
        s = alg.field.from_int(i)
        total = total + alg.monomial(vscale(s, alg.f_terms[i]), i - 1)
    return total


def _check_derivative_differentials(C: SmallComplex, up_to: int, mismatches: list) -> None:
    """Odd differentials vanish and even ones are left multiplication by the
    derivative of the defining polynomial, through degree up_to."""
    L = C.M.hom(TensorElem.from_aelem(_formal_derivative_elem(C.alg), 0, 0))
    for r in range(1, up_to + 1):
        if r % 2 == 1:
            if not C.dmats[r].is_zero():
                mismatches.append(f"odd differential is nonzero in degree {r}")
            continue
        cols = [C.to_sub(r, L.matvec(v)) for v in C.bases[r - 1].columns_list()]
        if Mat.from_columns(C.field, cols, C.bases[r].cols) != C.dmats[r]:
            mismatches.append(f"even differential is not derivative multiplication "
                              f"in degree {r}")


def untwisted_model_check(C: SmallComplex, up_to: int | None = None) -> dict:
    """With the identity twist every cochain space is the center polynomial
    model (center of K times the x powers), odd differentials vanish, and even
    differentials multiply by the derivative of the defining polynomial."""
    alg = _regular_alg(C)
    ident = Mat.identity(alg.K.field, alg.K.dim)
    is_id = alg.alpha.matrix == ident
    hyps = [_hyp("twist is the identity", is_id)]
    if not is_id:
        raise ClosedFormError("untwisted model needs the identity twist")
    if up_to is None:
        up_to = C.max_degree
    Z = _w_space(alg, 0)
    model_cols = []
    for d in range(alg.n):
        emb = _embed_k_columns(alg, Z, d)
        model_cols.extend(emb.columns_list())
    model = Mat.from_columns(alg.field, model_cols, alg.adim)
    mismatches = []
    for r in range(up_to + 1):
        if not span_equal(model, C.bases[r]):
            mismatches.append(f"cochain space is not the center model in degree {r}")
    fprime = _formal_derivative_elem(alg)
    _check_derivative_differentials(C, up_to, mismatches)
    return _result(
        "untwisted-model",
        hyps,
        {"model_dim": model.cols, "derivative": repr(fprime)},
        {"dims": [C.bases[r].cols for r in range(up_to + 1)]},
        mismatches,
    )


def untwisted_annihilator_table(C: SmallComplex, up_to: int | None = None) -> dict:
    """Identity-twist cohomology: the full center model in degree 0, the
    annihilator of the derivative in odd degrees, the model modulo the
    derivative's multiples in even degrees."""
    alg = _regular_alg(C)
    ident = Mat.identity(alg.K.field, alg.K.dim)
    if alg.alpha.matrix != ident:
        raise ClosedFormError("annihilator table needs the identity twist")
    up_to = _top_degree(C, up_to)
    model = C.bases[0]
    fprime = _formal_derivative_elem(alg)
    L = C.M.hom(TensorElem.from_aelem(fprime, 0, 0))
    Lsub = _restrict_to_span(model, L)
    # the annihilator (kernel) and the quotient (cokernel) of one square map
    # have the same dimension, and the same representatives serve every degree
    closed_dims = [model.cols] + [model.cols - rank(Lsub)] * up_to
    ann_reps = model.matmul(kernel_basis(Lsub))
    quot_reps = model.matmul(quotient_basis(Lsub, Mat.identity(C.field, model.cols)))
    mismatches: list[str] = []
    checked: dict[tuple, str | None] = {}  # r mod 2, id of the core of H^r -> mismatch
    for r in range(1, up_to + 1):
        reps, tag = (ann_reps, "annihilator table") if r % 2 else (quot_reps, "quotient table")
        key = (r % 2, id(cohomology_group(C, r).core))
        mismatch = _once(checked, key, lambda: _closed_reps_mismatch(C, r, reps, tag))
        if mismatch:
            mismatches.append(mismatch.format(r=r))
    return _dims_result(
        "untwisted-annihilator-table", [_hyp("twist is the identity", True)],
        C, up_to, closed_dims, mismatches,
    )


# -- group algebras with character twists --------------------------------------


def character_of(K: AlgebraK, alpha: Endo) -> list[Scalar]:
    """Recover the character from a diagonal twist of a group algebra."""
    if K.group is None:
        raise ClosedFormError("character data needs group metadata")
    rows = alpha.matrix.sparse
    if any(j != i for i, row in enumerate(rows) for j in row):
        raise ClosedFormError("twist is not diagonal on the group basis")
    chi = [row.get(j, K.field.zero) for j, row in enumerate(rows)]
    rep = validate_character(K.group, chi)
    if not rep.ok:
        raise ClosedFormError("diagonal twist entries are not a character")
    return chi


def character_class_basis(K: AlgebraK, chi: list[Scalar], r: int) -> dict:
    """Basis of the r-twisted centrality space from conjugacy-class data.

    A class contributes exactly when every element commuting with it has
    trivial r-th character power; the contributing vector propagates a unit
    coefficient along conjugation, scaled by that character power.  The span
    is checked against the generic twisted-centrality computation.  For a
    character and a group table the propagation is consistent, so an
    inconsistent one is a fault (chi not multiplicative, or bad conjugation
    data) and raises CohomologyError.
    """
    if K.group is None:
        raise ClosedFormError("class basis needs group metadata")
    G = K.group
    field = K.field
    chir = char_power(chi, r)
    eligible: list[bool] = []
    vectors: list[tuple] = []
    classes = G.conj_classes()
    for cls in classes:
        g0 = cls[0]
        ok = all(chir[h] == field.one for h in G.centralizer(g0))
        eligible.append(ok)
        if not ok:
            continue
        coeff: dict[int, Scalar] = {g0: field.one}
        frontier = [g0]
        consistent = True
        while frontier:
            nxt = []
            for g in frontier:
                for h in range(G.order):
                    tgt = G.conj(h, g)
                    want = coeff[g] * chir[h]
                    if tgt not in coeff:
                        coeff[tgt] = want
                        nxt.append(tgt)
                    elif coeff[tgt] != want:
                        consistent = False
            frontier = nxt
        if not consistent or set(coeff) != set(cls):
            raise CohomologyError("class coefficient propagation is inconsistent")
        v = [field.zero] * K.dim
        for g, c in coeff.items():
            v[g] = c
        vectors.append(tuple(v))
    basis = Mat.from_columns(field, vectors, K.dim)
    alpha = endo_from_character(K, chi)
    generic = twisted_invariants_k(K, alpha, r)
    return {
        "classes": [[G.labels[g] for g in cls] for cls in classes],
        "eligible": eligible,
        "basis": basis,
        "matches_generic": span_equal(basis, generic),
    }


def _kernel_span(K: AlgebraK, chi: list[Scalar]) -> Mat:
    """Span of the group elements in the character kernel, as K-columns."""
    cols = [K.basis_elem(g) for g in character_kernel(K.group, chi)]
    return Mat.from_columns(K.field, cols, K.dim)


def group_algebra_cohomology_table(
    C: SmallComplex, chi: list[Scalar] | None = None, up_to: int | None = None, witness=None
) -> dict:
    """Character-twist group-algebra cohomology from class data: invariant
    kernel sums in degree 0, kernel elements in the right twist block
    annihilating n times the constant coefficient in odd degrees, and the
    corresponding quotient in even degrees."""
    alg = _regular_alg(C)
    chi = _character(alg, chi)
    w = _need_witness(alg, witness)
    up_to = _top_degree(C, up_to)
    kN = _kernel_span(alg.K, chi)
    mismatches: list[str] = []
    if not span_equal(kN, alg.alpha.fixed_space):
        mismatches.append("character kernel span differs from the fixed space")
    closed_dims = _fixed_block_dims(C, kN, up_to, mismatches)
    return _dims_result(
        "group-algebra-cohomology",
        w.hypothesis_list() + [_hyp("twist is a character twist", True)],
        C, up_to, closed_dims, mismatches,
    )


def class_membership_period(K: AlgebraK, chi: list[Scalar], n: int) -> dict:
    """Each conjugacy class joins the even twist blocks periodically: there is
    an m0 with membership at block m exactly when m0 divides m.  Scans blocks
    up to twice the order of the n-th character power."""
    if K.group is None:
        raise ClosedFormError("membership periods need group metadata")
    G = K.group
    field = K.field
    v = character_order(G, char_power(chi, n))
    bound = 2 * v
    powers = [char_power(chi, m * n) for m in range(bound + 1)]  # chi^{mn}, by block m
    rows = []
    ok_all = True
    for cls in G.conj_classes():
        g0 = cls[0]
        centralizer = G.centralizer(g0)
        member = [all(chim[h] == field.one for h in centralizer) for chim in powers]
        m0 = next((m for m in range(1, bound + 1) if member[m]), None)
        law = member[0] and all(
            member[m] == (m0 is not None and m % m0 == 0) for m in range(1, bound + 1)
        )
        ok_all = ok_all and law
        rows.append({"class": G.labels[g0], "m0": m0, "law_holds": law})
    return {
        "theorem": "class-membership-period",
        "period_order": v,
        "rows": rows,
        "match": ok_all,
    }


def cohomology_periodicity(C: SmallComplex, chi: list[Scalar] | None = None,
                           up_to: int | None = None) -> dict:
    """Dimensions repeat with period twice the order of the n-th character
    power (degree 0 excluded); with n times the constant coefficient zero the
    odd dimension equals the preceding even one and the period-degree
    dimension returns to degree 0's."""
    alg = _regular_alg(C)
    chi = _character(alg, chi)
    up_to = _top_degree(C, up_to)
    v = character_order(alg.K.group, char_power(chi, alg.n))
    dims = cohomology_dims(C, up_to)
    mismatches = []
    for r in range(1, up_to - 2 * v + 1):
        if dims[r] != dims[r + 2 * v]:
            mismatches.append(f"dimension differs between degrees {r} and {r + 2 * v}")
    nlam_zero = all(c.is_zero() for c in _n_lambda(alg))
    if nlam_zero:
        for m in range(0, (up_to - 1) // 2 + 1):
            if dims[2 * m + 1] != dims[2 * m]:
                mismatches.append(
                    f"odd dimension at degree {2 * m + 1} differs from degree {2 * m}"
                )
        if 2 * v <= up_to and dims[2 * v] != dims[0]:
            mismatches.append("period-degree dimension differs from degree 0")
    return {
        "theorem": "cohomology-periodicity",
        "hypotheses": [_hyp("n times constant coefficient vanishes", nlam_zero)],
        "period": 2 * v,
        "dims": dims,
        "match": not mismatches,
        "mismatches": mismatches,
    }


def presentation_report(C: SmallComplex, chi: list[Scalar] | None = None,
                        up_to: int | None = None, store: ProductStore | None = None) -> dict:
    """Algebra generators of the cohomology of a character-twist instance:
    the degree-0 ring, module generators in low odd and even degrees, and the
    unit class at the period degree, whose cup action is checked to be a
    degreewise bijection.  Cup by the unit class is read off the closed cups
    of the class representatives in ``store`` (a fresh one when none is
    given): the image of class i of H^r is the sum over the representatives
    j of H^{2v} of the unit's coordinate j times the cup of i and j.

    The check skips when the unit class vanishes and either n lambda_n is a
    unit of K or every H^r with 1 <= r <= up_to is zero (A separable over K,
    as for f = x^2 + g x over QQ[C2]): there is then no period generator to
    claim.  Under a collapse the boundaries of degree 2v are T(W_{v-1}), T
    the trace map of `_trace_matrix`, and mu = (n lambda_n)^-1 is
    alpha-fixed, as lambda_n is, and lies in W_{v-1}: lambda_n twists by
    alpha^n, so mu twists by alpha^-n = alpha^((v-1)n).  So T(mu) =
    n mu lambda_n = 1, and the unit is a coboundary.  Without a collapse an
    invertible n lambda_n says nothing (f = (x-1)^2 (x+1) over QQ:
    n lambda_n = 3, yet the unit class is not zero), so the vanishing is read
    from the cohomology, not assumed."""
    alg = _regular_alg(C)
    chi = _character(alg, chi)
    up_to = _top_degree(C, up_to)
    v = character_order(alg.K.group, char_power(chi, alg.n))
    if 2 * v > up_to:
        raise ClosedFormError("table too short to reach the period degree")
    K = alg.K
    unit_cls = cohomology_group(C, 2 * v).class_coords(alg.one.nz)
    unit_zero = all(c.is_zero() for c in unit_cls)
    if unit_zero and rank(K.left_mult_matrix(_n_lambda(alg))) == K.dim:
        raise ClosedFormError(
            "n times the constant coefficient is invertible: the unit is a "
            "coboundary at the period degree"
        )
    dims = cohomology_dims(C, up_to)
    if unit_zero and not any(dims[1:]):
        raise ClosedFormError(
            "the unit class and every positive-degree group vanish: no period "
            "generator to claim"
        )
    nlam_zero = all(c.is_zero() for c in _n_lambda(alg))
    gens = [{"degree": 0, "count": dims[0], "kind": "degree-zero ring"}]
    for first, kind in ((1, "odd module generators"), (2, "even module generators")):
        for r in range(first, 2 * v, 2):
            if r <= up_to and dims[r]:
                gens.append({"degree": r, "count": dims[r], "kind": kind})
    gens.append({"degree": 2 * v, "count": 1, "kind": "unit class"})
    mismatches: list[str] = []
    if unit_zero:
        mismatches.append("unit class vanishes at the period degree")
    store, unit_terms = ProductStore.of(C, store), support(unit_cls)
    for r in range(1, up_to - 2 * v + 1):
        H_src = cohomology_group(C, r)
        H_tgt = cohomology_group(C, r + 2 * v)
        if H_src.dim != H_tgt.dim:
            mismatches.append(f"period map degree {r}: dimensions differ")
            continue
        images = [combine((u, enumerate(store.cup(r, 2 * v, i, j))) for j, u in unit_terms)
                  for i in range(H_src.dim)]
        if rank(Mat.from_sparse_rows(C.field, images, H_tgt.dim)) != H_src.dim:
            mismatches.append(f"period map degree {r}: cup by the unit class "
                              f"is not bijective")
    exterior_pattern = None
    if nlam_zero:
        inner_even_zero = all(
            dims[2 * m] == 0 for m in range(1, v) if 2 * m <= up_to
        )
        if inner_even_zero:
            expected = [
                dims[0] if (r % (2 * v)) in (0, 1) else 0 for r in range(up_to + 1)
            ]
            exterior_pattern = {
                "claim": "degree-zero ring tensor an exterior generator and a "
                         "period generator",
                "holds": dims == expected,
            }
            if not exterior_pattern["holds"]:
                mismatches.append("exterior tensor dimension pattern fails")
    return {
        "theorem": "cohomology-presentation",
        "hypotheses": [_hyp("n times constant coefficient vanishes", nlam_zero)],
        "period": 2 * v,
        "dims": dims,
        "generators": gens,
        "exterior_pattern": exterior_pattern,
        "match": not mismatches,
        "mismatches": mismatches,
    }


# -- rank-one extensions of group algebras --------------------------------------


def rank_one_f(field: Field, G: GroupData, g1: int, n: int, xi: Scalar) -> list:
    """lambda_1 .. lambda_n of f = x^n - xi (g1^n - 1) over the group algebra of G."""
    g1n = reduce(G.mul, [g1] * n)
    lam_n = [field.zero] * G.order
    lam_n[G.identity] = xi
    lam_n[g1n] = lam_n[g1n] - xi
    return [tuple([field.zero] * G.order)] * (n - 1) + [tuple(lam_n)]


def rank_one_quotient_report(
    field: Field,
    G: GroupData,
    chi: list[Scalar],
    g1_label: str,
    n: int,
    xi,
    up_to: int = 5,
) -> dict:
    """Hypotheses and quotient model of k[G][x; alpha] / (x^n - xi (g1^n - 1)):
    g1 is central with chi(g1) a primitive n-th root of unity, and the table
    of x^n = 0 over k[G / <g1^n>] is verified through up_to.  When chi^n is
    nontrivial that model carries every table, and f must fail admissibility
    over k[G] when also g1^n != 1: lambda_n = xi (1 - g1^n) is alpha-fixed
    and central, so lambda_n g = alpha^n(g) lambda_n reads (1 - chi^n(g)) g
    lambda_n = 0, which for lambda_n != 0, that is g1^n != 1, holds iff chi^n
    is trivial.  When chi^n is trivial, ``rank_one_hopf_report`` compares A
    with that model."""
    rep = validate_character(G, chi)
    if not rep.ok:
        raise ClosedFormError("; ".join(rep.failures))
    if g1_label not in G.labels:
        raise ClosedFormError(f"no group element labeled {g1_label}")
    g1 = G.labels.index(g1_label)
    if len(G.centralizer(g1)) != G.order:
        raise ClosedFormError("distinguished element must be central")
    xi = field.scalar(xi)
    if xi.is_zero():
        raise ClosedFormError("scale must be a unit")
    powers = [chi[g1] ** d for d in range(1, n + 1)]
    if powers[-1] != field.one or field.one in powers[:-1]:
        raise ClosedFormError(
            "character value at the distinguished element must be a primitive "
            f"root of unity of order {n}"
        )
    ch = getattr(field, "char", 0)
    if ch and G.order % ch == 0:
        raise ClosedFormError("group order must be invertible in the field")
    case_trivial = all(c == field.one for c in char_power(chi, n))
    g1n = reduce(G.mul, [g1] * n)
    Q, proj = G.quotient_group(G.subgroup_generated([g1n]))
    # chi(g1)^n = 1, so chi is constant on the cosets of <g1^n>
    chit = [chi[proj.index(q)] for q in range(Q.order)]
    Kq = group_algebra(Q, field)
    alg_q = MonogenicAlgebra(Kq, endo_from_character(Kq, chit), [field.zero] * n)
    Cq = build_small_complex(alg_q, Bimodule.regular(alg_q), up_to + 1)
    quotient_table = group_algebra_cohomology_table(Cq, chit, up_to)
    report = {
        "theorem": "rank-one-extension",
        "hypotheses": [
            _hyp("distinguished element is central", True),
            _hyp("character value has exact order n", True),
            _hyp("group order invertible in the field", True),
            _hyp("n-th character power is trivial", case_trivial),
        ],
        "case": "monogenic over the group algebra" if case_trivial
                else "monogenic over the quotient group algebra",
        "quotient_group_order": Q.order,
        "quotient_table": quotient_table,
        "match": quotient_table["match"],
        "mismatches": list(quotient_table["mismatches"]),
    }
    if not case_trivial:
        report["hypotheses"].append(_hyp("n-th power of the distinguished element is not 1",
                                         g1n != G.identity))
    if not case_trivial and g1n != G.identity:
        K = group_algebra(G, field)
        direct = validate_f(K, endo_from_character(K, chi), rank_one_f(field, G, g1, n, xi))
        report["hypotheses"].append(
            _hyp("defining polynomial is not admissible over the full group algebra",
                 not direct.ok)
        )
        if direct.ok:
            report["mismatches"].append(
                "expected the defining polynomial to fail admissibility over the "
                "full group algebra"
            )
            report["match"] = False
    return report


def rank_one_hopf_report(
    C: SmallComplex,
    chi: list[Scalar],
    g1_label: str,
    xi,
    up_to: int | None = None,
    witness=None,
    store: ProductStore | None = None,
) -> dict:
    """The rank-one check on C, the complex of k[G][x; alpha] / (x^n - xi (g1^n - 1))
    for these chi, g1 and xi.  With chi^n trivial, C's group table is verified
    and matched with the quotient model's in positive degrees, and odd-odd
    bracket classes through up_to with the oracle and, in degree one, with the
    commutator class (higher odd degrees keep trace terms).  The bracket
    classes are read from ``store`` (a fresh one when none is given)."""
    alg = _regular_alg(C)
    K, field, G = alg.K, alg.field, alg.K.group
    if alg.alpha.matrix != endo_from_character(K, chi).matrix:
        raise ClosedFormError("rank-one analysis needs the character twist; the run's twist differs")
    if g1_label not in G.labels:
        raise ClosedFormError(f"no group element labeled {g1_label}")
    xi = field.scalar(xi)
    if alg.f_terms[-2::-1] != rank_one_f(field, G, G.labels.index(g1_label), alg.n, xi):
        raise ClosedFormError("rank-one analysis needs f = x^n - xi (g1^n - 1); the run's f differs")
    up_to = _top_degree(C, up_to)
    report = rank_one_quotient_report(field, G, chi, g1_label, alg.n, xi, up_to)
    if any(c != field.one for c in char_power(chi, alg.n)):
        return report  # the quotient model carries every table
    w_ext = _need_witness(alg, witness)
    table = group_algebra_cohomology_table(C, chi, up_to, w_ext)
    report["extension_table"] = table
    mismatches = report["mismatches"]
    mismatches.extend(f"extension table: {m}" for m in table["mismatches"])
    report["dims"] = cohomology_dims(C, up_to)
    report["quotient_dims"] = report["quotient_table"]["generic_table"]["dims"]
    if report["dims"][1:] != report["quotient_dims"][1:]:
        mismatches.append("quotient model dimensions differ in positive degrees")
    bracket_rows = []
    store = ProductStore.of(C, store)
    for ra, rb in ((1, 1), (1, 3), (3, 1), (3, 3)):
        deg = ra + rb - 1
        if deg > up_to:
            continue
        for ia, ib in store.pairs(ra, rb):
            lam, mu = store.reps(ra)[ia].canonical_kx(), store.reps(rb)[ib].canonical_kx()
            if lam is None or mu is None:
                continue
            closed = store.closed_bracket(ra, rb, ia, ib, w_ext)
            got = store.bracket(ra, rb, ia, ib)
            agree = got == closed
            row = {"degrees": [ra, rb], "closed_matches_oracle": agree}
            if not agree:
                mismatches.append(
                    f"odd-odd bracket at degrees ({ra},{rb}) disagrees with the recursion oracle"
                )
            if ra == rb == 1:
                comm = tuple(
                    p - q for p, q in zip(K.kmul(mu, lam), K.kmul(lam, mu))
                )
                same = got == store.class_of(deg, alg.monomial(comm, 1))
                row["matches_commutator_class"] = same
                if not same:
                    mismatches.append("degree-one bracket class is not the commutator class")
            bracket_rows.append(row)
    report["bracket_rows"] = bracket_rows
    report["match"] = not mismatches
    return report


# -- quaternions under a rotation twist ----------------------------------------


def _quaternion_half_power(K: AlgebraK, cos_half: Scalar, sin_half: Scalar, e: int) -> tuple:
    """Coordinates of the rotation's half-angle unit raised to the power e."""
    base = tuple(K.field.scalar(c) for c in (cos_half, 0, 0, sin_half if e >= 0 else -sin_half))
    out = K.unit
    for _ in range(abs(e)):
        out = K.kmul(out, base)
    return out


def quaternion_companion(K: AlgebraK, cos_half, sin_half, f_coeffs: list) -> list[Scalar]:
    """The scalars sigma_u with lambda_u = sigma_u h^-u, h the half-angle unit,
    for f = x^n + lambda_1 x^(n-1) + ... + lambda_n over the quaternions K.
    Only such f are admissible under the rotation; others raise ClosedFormError."""
    n = len(f_coeffs)
    if n < 2:
        raise ClosedFormError("defining polynomial needs degree at least 2")
    sigma: list[Scalar] = []
    for u in range(1, n + 1):
        lam = K.elem(f_coeffs[u - 1])
        w = K.kmul(lam, _quaternion_half_power(K, cos_half, sin_half, u))
        if any(not w[t].is_zero() for t in (1, 2, 3)):
            raise ClosedFormError(
                f"coefficient {u} is not a scalar multiple of the inverse "
                f"half-angle power"
            )
        sigma.append(w[0])
    return sigma


def quaternion_rotation_report(
    C: SmallComplex,
    cos: Scalar,
    sin: Scalar,
    cos_half: Scalar,
    sin_half: Scalar,
    up_to: int | None = None,
) -> dict:
    """Quaternion coefficients under the rotation twist with these angle values,
    which C's twist must be.  The twisted-invariant spaces, the vanishing odd
    differentials, the even ones as left multiplication by the derivative of
    f, and a degreewise change of basis onto the complex of f's companion
    (``quaternion_companion``) are verified exactly through up_to, and the
    dimensions agree with the companion's annihilator table."""
    alg = _regular_alg(C)
    K, field, n = alg.K, alg.field, alg.n
    if alg.alpha.matrix != rotation_endo(K, cos, sin, cos_half, sin_half).matrix:
        raise ClosedFormError("rotation analysis needs the rotation twist; the run's twist differs")
    up_to = _top_degree(C, up_to)
    sigma = quaternion_companion(K, cos_half, sin_half, alg.f_terms[-2::-1])
    mismatches: list[str] = []
    theta: list[Mat] = []
    for r in range(up_to + 1):
        t = C.twist(r)
        cols = [alg.monomial(_quaternion_half_power(K, cos_half, sin_half, u - t), u).coords
                for u in range(n)]
        theta.append(Mat.from_columns(field, cols, alg.adim))
        if not span_equal(theta[r], C.bases[r]):
            mismatches.append(f"twisted-invariant space mismatch in degree {r}")
    _check_derivative_differentials(C, up_to, mismatches)
    comp_K = scalar_algebra(field)
    comp = MonogenicAlgebra(comp_K, identity_endo(comp_K), sigma)
    Cc = build_small_complex(comp, Bimodule.regular(comp), up_to + 1)
    for r in range(1, up_to + 1):
        for u in range(n):
            via_comp = Cc.d_ambient(r, comp.basis_vector(u).coords)
            lhs = theta[r].matvec(via_comp)
            rhs = C.d_ambient(r, theta[r - 1].column(u))
            if lhs != rhs:
                mismatches.append(
                    f"change of basis does not intertwine the differentials in "
                    f"degree {r}"
                )
                break
    dims_a = cohomology_dims(C, up_to)
    dims_c = cohomology_dims(Cc, up_to)
    if dims_a != dims_c:
        mismatches.append("dimensions differ from the companion model")
    companion_table = untwisted_annihilator_table(Cc, up_to)
    if not companion_table["match"]:
        mismatches.append("companion annihilator table mismatch")
    return {
        "theorem": "quaternion-rotation",
        "hypotheses": [
            _hyp("rotation data satisfies the angle identities", True),
            _hyp("coefficients are scalar multiples of inverse half-angle powers", True),
        ],
        "companion_coefficients": [field.encode(s) for s in sigma],
        "closed_table": {"dims": dims_c},
        "generic_table": {"dims": dims_a},
        "companion_table": companion_table,
        "match": not mismatches,
        "mismatches": mismatches,
    }
