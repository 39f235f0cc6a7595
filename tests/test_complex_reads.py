"""The small complex builds what it reads.  The regular bimodule builds each
action of K's basis on its first read, so a complex builds the actions of x
and those its twisted invariants and differentials read.  K's actions on
itself are built the same way (`kalgebra.BasisActions`), and the center of K
is the twisted invariants at alpha^0, so a report builds only the actions of
K's certified generators and solves no center of its own.  Each cohomology
group core runs one echelon for the image and the representatives; they must
equal the route it replaced (`quotient_route_core` in conftest.py), and the
core must refuse an image that leaves the kernel.  Two seeded mistakes must
each be caught: an action built from the wrong basis index, and a core
without its dimension test.  Coordinates in a cochain space are read off the
free rows of its basis, so a complex build and a `cohomology` run build no
solver, and a core builds its class solver on its first class read; the
reads refuse a degree outside the built range and a vector of the wrong
length."""

import pytest
from conftest import SPECS, dense_regular, mutant, quotient_route_core

from orecohom import cli, cohomology, kalgebra, linalg
from orecohom.cohomology import (
    Bimodule,
    CohomologyError,
    CohomologyGroup,
    build_small_complex,
    cohomology_dims,
    cohomology_group,
    complex_report,
)
from orecohom.instances import gh4_instance
from orecohom.linalg import LinalgError, Mat
from orecohom.specio import load_instance

GH4_U3 = next(p for p in SPECS if p.stem == "gh4_u3")


def counted_calls(monkeypatch, attr: str, modules=(kalgebra,)) -> list:
    """The arguments of each call of kalgebra's ``attr``, made through its
    binding in any of ``modules``."""
    calls, original = [], getattr(kalgebra, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, attr, counting)
    return calls


def counted_actions(monkeypatch) -> list:
    """Count the multiplication matrices built: those of x by the cohomology
    module, and those of K and of A's basis by the kalgebra module."""
    return counted_calls(monkeypatch, "mult_matrix", (cohomology, kalgebra))


def counted_builds(monkeypatch) -> list:
    """The (sequence, basis index) of each matrix a `BasisActions` builds:
    the reads that call `mult_matrix`."""
    calls, builds = counted_actions(monkeypatch), []
    getitem = kalgebra.BasisActions.__getitem__

    def reading(self, b):
        before = len(calls)
        A = getitem(self, b)
        if len(calls) > before:
            builds.append((self, range(len(self))[b]))
        return A

    monkeypatch.setattr(kalgebra.BasisActions, "__getitem__", reading)
    return builds


def test_gh4_complex_builds_the_actions_it_reads(monkeypatch):
    """gh4(2) has dim K = 8, so the eager build made 18 matrices.  Its
    complex to degree 8 reads Lx, Rx, R of K's two certified generators and L
    of the one basis element in each generator's twist.  Reading every action
    builds the rest once."""
    alg = gh4_instance(2)[0]
    calls = counted_actions(monkeypatch)
    M = Bimodule.regular(alg)
    cohomology_dims(build_small_complex(alg, M, 8), 7)
    assert len(calls) == 6
    for _ in range(2):
        actions = [*M.L_k, *M.R_k]
        assert len(calls) == 2 * alg.K.dim + 2
    assert all(A is B for A, B in zip(actions, [*M.L_k, *M.R_k]))


def test_gh4_u3_cohomology_builds_six_actions(monkeypatch, capsys):
    """dim K = 12 on gh4_u3: 26 matrices eagerly."""
    calls = counted_actions(monkeypatch)
    assert cli.main(["cohomology", str(GH4_U3)]) == 0
    capsys.readouterr()
    assert len(calls) == 6


def test_actions_index_like_a_sequence():
    alg = gh4_instance(2)[0]
    K = alg.K
    M, D = Bimodule.regular(alg), dense_regular(Bimodule, alg)
    assert len(M.L_k) == len(M.R_k) == K.dim
    assert M.L_k[-1] == D.L_k[-1] and M.R_k[-1] is M.R_k[K.dim - 1]
    with pytest.raises(IndexError):
        M.L_k[K.dim]
    right, left = K.actions
    assert len(right) == len(left) == K.dim
    e = K.basis_elem(K.dim - 1)
    assert left[-1] == K.left_mult_matrix(e) and right[-1] == K.right_mult_matrix(e)
    assert left[-1] is left[K.dim - 1] and right[-1] is right[K.dim - 1]
    for side in (right, left):
        with pytest.raises(IndexError):
            side[K.dim]
        with pytest.raises(IndexError):
            side[-K.dim - 1]


def test_gh4_u3_report_builds_four_of_ks_actions(monkeypatch, capsys):
    """dim K = 12 on gh4_u3, so K has 24 action matrices on itself.  A report
    builds R and L of the certified generators h and g: its two solves of K's
    twisted invariants, at alpha^0 (the center) and at alpha^2 = alpha^n,
    read no others.  kalgebra runs no other elimination than the fixed space
    of alpha, so the center has no solve of its own."""
    alg = load_instance(str(GH4_U3)).algebra()
    K, alpha = alg.K, alg.alpha
    assert [K.basis_names[g] for g in alpha.generators] == ["h", "g"]
    builds = counted_builds(monkeypatch)
    solves = counted_calls(monkeypatch, "twisted_kernel")
    eliminations = counted_calls(monkeypatch, "kernel_basis")
    assert cli.main(["report", str(GH4_U3)]) == 0
    capsys.readouterr()
    k_builds = sorted((seq.left, b) for seq, b in builds if seq.dim == K.dim)
    assert k_builds == sorted((left, g) for left in (False, True) for g in alpha.generators)
    k_solves = [args[4] for args in solves if args[1] == K.dim]
    assert k_solves == [alpha.power_matrix(0), alpha.power_matrix(2)]
    assert [args[0] for args in eliminations] == [alpha.minus_identity]


def test_action_from_the_wrong_basis_index_is_caught(monkeypatch):
    """An on-demand build that reads basis element b + 1 for b differs from
    the dense actions, which `test_sparse_loops.py::test_regular_bimodule_matches`
    compares, and from_actions refuses it."""
    alg = gh4_instance(2)[0]
    getitem = kalgebra.BasisActions.__getitem__
    wrong = mutant(getitem, "if i == b else", "if i == (b + 1) % len(self) else")
    monkeypatch.setattr(kalgebra.BasisActions, "__getitem__", wrong)
    M, D = Bimodule.regular(alg), dense_regular(Bimodule, alg)
    assert list(M.L_k) != D.L_k and list(M.R_k) != D.R_k
    with pytest.raises(CohomologyError):
        Bimodule.from_actions(alg, M.L_k, M.Lx, M.R_k, M.Rx)


# -- coordinates read off the free rows --------------------------------------------


def counted_solvers(monkeypatch) -> list:
    """The matrix of each `LinSolver` built."""
    built, init = [], linalg.LinSolver.__init__

    def counting(self, M):
        built.append(M)
        init(self, M)

    monkeypatch.setattr(linalg.LinSolver, "__init__", counting)
    return built


def test_complex_builds_and_cohomology_runs_build_no_solver(monkeypatch, capsys):
    """The cochain bases are read through their free rows, and no class
    solver is built before a class is read."""
    built = counted_solvers(monkeypatch)
    alg = gh4_instance(2)[0]
    complex_report(build_small_complex(alg, Bimodule.regular(alg), 8))
    assert cli.main(["cohomology", str(GH4_U3)]) == 0
    capsys.readouterr()
    assert built == []


def test_gh4_u3_report_builds_one_class_solver_per_core_read(monkeypatch, capsys):
    """A report builds one class solver for each distinct group core whose
    class coordinates it reads, and no other solver."""
    built = counted_solvers(monkeypatch)
    cores, class_coords = [], CohomologyGroup.class_coords

    def reading(self, v):
        cores.append(self.core)
        return class_coords(self, v)

    monkeypatch.setattr(CohomologyGroup, "class_coords", reading)
    assert cli.main(["report", str(GH4_U3)]) == 0
    capsys.readouterr()
    distinct = list({id(core): core for core in cores}.values())
    assert distinct and len(built) == len(distinct)
    assert sorted(map(id, built)) == sorted(id(core.class_solver.M) for core in distinct)


def test_degrees_outside_the_built_range_are_refused():
    """A negative degree does not index from the top of the complex."""
    alg = gh4_instance(2)[0]
    C = build_small_complex(alg, Bimodule.regular(alg), 4)
    v = alg.one.coords
    for r in (-1, -5, 5):
        for read in (lambda: C.to_sub(r, v), lambda: C.to_ambient(r, (C.field.zero,) * 8),
                     lambda: C.dim_cochain(r), lambda: cohomology_group(C, r)):
            with pytest.raises(CohomologyError, match=f"degree {r} is outside the built degrees 0..4"):
                read()
    with pytest.raises(CohomologyError, match="degree 4 needs the complex built through degree 5"):
        cohomology_group(C, 4)


def test_reads_refuse_short_and_long_vectors():
    """The free-row read neither reads past the end of a vector nor ignores
    extra entries: both lengths raise, through `to_sub` and `class_coords`."""
    alg = gh4_instance(2)[0]
    C = build_small_complex(alg, Bimodule.regular(alg), 4)
    H = cohomology_group(C, 0)
    v = H.reps_ambient[0]
    assert H.class_coords(v) == tuple(C.field.one if i == 0 else C.field.zero for i in range(H.dim))
    for w in (v[:-1], v + (C.field.zero,), v + (C.field.one,)):
        for read in (lambda: C.to_sub(0, w), lambda: H.class_coords(w)):
            with pytest.raises(LinalgError, match="shape mismatch"):
                read()


# -- one echelon per group core --------------------------------------------------


def spec_complex(path):
    inst = load_instance(str(path))
    alg = inst.algebra()
    return build_small_complex(alg, Bimodule.regular(alg), inst.default_degree() + 1)


def gh4_complex():
    alg = gh4_instance(2)[0]
    return build_small_complex(alg, Bimodule.regular(alg), 8)


COMPLEXES = {
    **{p.stem: (lambda p=p: spec_complex(p)) for p in SPECS if p.stem != "sweedler_bad"},
    "gh4:2": gh4_complex,
}


@pytest.fixture(scope="module", params=sorted(COMPLEXES))
def complex_(request):
    return COMPLEXES[request.param]()


def test_one_echelon_core_equals_the_quotient_route(complex_):
    C = complex_
    for r in range(C.max_degree):
        H = cohomology_group(C, r)
        image, reps_sub, reps_ambient, solver = quotient_route_core(C, r)
        assert (H.image, H.reps_sub) == (image, reps_sub), r
        assert (H.image.rows, H.reps_sub.rows) == (image.rows, reps_sub.rows)
        assert H.reps_ambient == reps_ambient
        cocycles = H.kernel.columns_list() + reps_sub.columns_list()
        cocycles += [tuple(a + b for a, b in zip(u, v)) for u in reps_sub.columns_list() for v in image.columns_list()]
        for v in cocycles:
            assert H.core.class_solver.solve(v) == solver.solve(v)
            assert H.class_coords(C.to_ambient(r, v)) == solver.solve(v)[: H.dim]


def broken_complex():
    """Sweedler's complex with d^r replaced, after the build and so past its
    d.d check, by a map onto a basis vector of C^r that d^{r+1} does not kill,
    at the first degree r >= 1 where one exists."""
    C = spec_complex(next(p for p in SPECS if p.stem == "sweedler"))
    zv = C.field.zero.v
    for r in range(1, C.max_degree):
        d_next = C.dmats[r + 1]
        moved = [j for j in range(d_next.cols) if any(x.v != zv for x in d_next.column(j))]
        if moved and C.dim_cochain(r - 1):
            e_j = tuple(C.field.one if i == moved[0] else C.field.zero for i in range(C.dim_cochain(r)))
            C.dmats[r] = Mat.from_columns(C.field, [e_j] * C.dim_cochain(r - 1), C.dim_cochain(r))
            return C, r
    raise AssertionError("no degree to break")


def refuses_an_image_outside_the_kernel() -> bool:
    C, r = broken_complex()
    try:
        cohomology_group(C, r)
    except CohomologyError as exc:
        return f"degree {r}" in str(exc)
    return False


def test_core_refuses_an_image_outside_the_kernel():
    assert refuses_an_image_outside_the_kernel()


def test_core_without_its_dimension_test_is_caught(monkeypatch):
    init = cohomology._GroupCore.__init__
    monkeypatch.setattr(cohomology._GroupCore, "__init__",
                        mutant(init, "if echelon.dim != self.kernel.cols:", "if False:"))
    assert not refuses_an_image_outside_the_kernel()
