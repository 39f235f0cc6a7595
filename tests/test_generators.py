"""The algebra generators of K and the certificates they carry, against the
routes they replaced (kept in conftest.py): `algebra_validate` and
`Endo.validate` against their ordered scans, and the twisted invariants of K
and of A against the kernel of every basis constraint.

Once K and its twist pass their certificates, the constraints of the
generators cut out the same space as all of them, and the reduced basis is
unique, so the columns must be equal, not only their span.  When a
certificate fails, the scan and the all-rows kernel run instead, so broken
inputs must give the same failure strings and the same columns too.  The last
tests seed the two mistakes the route could make, a certificate that passes
everything and a generator left out, and show that each one is caught.  The
random instances are in `test_generator_properties.py`."""

import collections
import functools
import json
import random

import pytest
from conftest import (
    BASES,
    CASES,
    SPECS,
    all_rows_twisted_kernel,
    disagreements,
    nonzero,
    quads_of,
    rebased,
    scan_algebra_validate,
    scan_endo_validate,
    square_zero,
    with_table,
)

from orecohom import cli, cohomology, kalgebra
from orecohom.cohomology import Bimodule, build_small_complex, complex_report
from orecohom.fields import QQ, prime_field
from orecohom.instances import gh4_instance
from orecohom.kalgebra import AlgebraK, Endo, algebra_validate, scalar_algebra
from orecohom.linalg import Mat
from orecohom.monogenic import MonogenicAlgebra, MonogenicError, validate_f
from orecohom.specio import load_instance

# The generators the walk keeps on each demo spec, by basis label.
PINNED = {
    "c4_sign": ["g"],
    "gh4_u3": ["h", "g"],
    "quaternion_pi": ["i", "j"],
    "swap3": ["e1"],
    "sweedler": ["g"],
    "sweedler_bad": ["g"],
    "taft37": ["g"],
    "truncated_square": [],
}


def names(K, gens):
    return None if gens is None else [K.basis_names[b] for b in gens]


GH4 = {f"gh4_u{u}": (lambda u=u: gh4_instance(u)[0]) for u in (2, 3, 4)}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(GH4))
def test_routes_agree_on_every_case(name):
    """Every CASES entry (the canned instances, the quaternions, every demo
    spec, the twisted cyclic algebras) and gh4 for u = 2, 3, 4."""
    alg = {**CASES, **GH4}[name]()
    assert disagreements(alg) == []
    assert alg.K.generators is not None and alg.alpha.generators == alg.K.generators


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_generators_of_each_demo_spec(path):
    inst = load_instance(str(path))
    assert names(inst.K, inst.K.generators) == PINNED[path.stem]
    assert inst.alpha.generators == inst.K.generators


def test_every_demo_spec_is_pinned():
    assert sorted(p.stem for p in SPECS) == sorted(PINNED)


def test_generators_of_small_algebras():
    assert scalar_algebra(QQ).generators == ()
    K, alpha = BASES["M2"](QQ)
    assert names(K, K.generators) == ["E11", "E12", "E21"]
    assert alpha.generators == K.generators


@pytest.mark.parametrize("base", sorted(BASES))
def test_rebased_algebras_take_the_generator_route(base):
    rng = random.Random(20)
    for F in (QQ, prime_field(7)):
        K, alpha = rebased(*BASES[base](F), rng)
        assert K.generators is not None and alpha.generators is not None
        assert disagreements(square_zero(K, alpha)) == []


def test_broken_table_failing_off_the_generators():
    """h^2 . h^3 perturbed in gh4_u3's K: the certificate fails, and the scan
    names the first failing triple, whose last entry is not a generator, so
    the certificate's triples could not have named it."""
    K = gh4_instance(3)[0].K
    gens = K.generators
    h2, h3 = K.basis_names.index("h^2"), K.basis_names.index("h^3")
    broken = with_table(K, quads_of(K) + [(h2, h3, K.basis_names.index("g"), K.field.one)])
    assert broken.generators is None
    rep = algebra_validate(broken)
    assert rep == scan_algebra_validate(broken)
    assert rep.failures == ("associativity fails at triple (1,1,3)",)
    assert 3 not in gens


def test_broken_twist_failing_off_the_generators():
    """gh4_u3's twist with alpha(h^3) doubled: the first failing pair is
    (h, h^2), and h^2 is not a generator."""
    alg = gh4_instance(3)[0]
    K, alpha = alg.K, alg.alpha
    h3 = K.basis_names.index("h^3")
    rows = [list(r) for r in alpha.matrix.data]
    rows[h3][h3] = rows[h3][h3] * 2
    beta = Endo(K, Mat(K.field, rows))
    assert beta.generators is None
    rep = beta.validate()
    assert rep == scan_endo_validate(beta)
    assert rep.failures == ("multiplicativity fails at pair (1,2)",)
    assert 2 not in K.generators
    assert disagreements(MonogenicAlgebra(K, beta, [{}, {}], check=False)) == []


@pytest.mark.parametrize("base", sorted(BASES))
def test_perturbed_rebased_algebras_fall_back_alike(base):
    """One structure constant or one twist entry perturbed, in a random basis
    where every constant is nonzero: both routes give the same reports and
    the same columns."""
    rng = random.Random(21)
    F = prime_field(7)
    K, alpha = rebased(*BASES[base](F), rng)
    for _ in range(3):
        ijk = tuple(rng.randrange(K.dim) for _ in range(3))
        s = sum((q[3] for q in quads_of(K) if q[:3] == ijk), F.zero)
        quads = [q for q in quads_of(K) if q[:3] != ijk] + [(*ijk, s + nonzero(F, rng))]
        K2 = with_table(K, quads)
        assert disagreements(square_zero(K2, Endo(K2, alpha.matrix))) == []
        rows = [list(r) for r in alpha.matrix.data]
        rows[rng.randrange(K.dim)][rng.randrange(K.dim)] += nonzero(F, rng)
        assert disagreements(square_zero(K, Endo(K, Mat(F, rows)))) == []


# -- a broken K or twist: the library runs every constraint, the CLI refuses it --


NON_ASSOCIATIVE = {
    # 1, a, b with a a = b, a b = 1, b a = b b = 0: (a a) a = 0 but a (a a) = 1.
    "field": {"kind": "Q"},
    "K": {"kind": "table", "dim": 3, "basis": ["1", "a", "b"], "unit": [1, 0, 0],
          "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1], [2, 0, 2, 1],
                  [1, 1, 2, 1], [1, 2, 0, 1]]},
    "alpha": {"kind": "identity"},
    "f": {"n": 2, "coeffs": [[0, 0, 0], [0, 0, 0]]},
}

NON_MULTIPLICATIVE = {
    # QQ[C3] with g -> g but g^2 -> -g^2.
    "field": {"kind": "Q"},
    "K": {"kind": "group", "group": {"kind": "cyclic", "order": 3}},
    "alpha": {"kind": "matrix", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
    "f": {"n": 2, "coeffs": [[0, 0, 0], [0, 0, 0]]},
}

BROKEN_SPECS = {"non-associative": NON_ASSOCIATIVE, "non-multiplicative": NON_MULTIPLICATIVE}


def write_spec(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(BROKEN_SPECS[name]))
    return path


def cohomology_rows(path) -> list[dict]:
    """`complex_report` of the small complex of a fresh load of the spec,
    built unchecked to one past its default degree."""
    inst = load_instance(str(path))
    alg = inst.algebra(check=False)
    return complex_report(build_small_complex(alg, Bimodule.regular(alg), inst.default_degree() + 1))


def all_rows_cohomology_rows(monkeypatch, path) -> list[dict]:
    """The same build with `twisted_kernel` stacking every basis constraint."""
    with monkeypatch.context() as m:
        def kernel(field, dim, right, left, twist, generators):
            return all_rows_twisted_kernel(field, dim, right, left, twist)

        for module in (kalgebra, cohomology):
            m.setattr(module, "twisted_kernel", kernel)
        return cohomology_rows(path)


def gate_holds(capsys, monkeypatch, tmp_path, name) -> bool:
    """The cohomology table of a broken spec equals the all-rows route's."""
    path = write_spec(tmp_path, name)
    return cohomology_rows(path) == all_rows_cohomology_rows(monkeypatch, path)


@pytest.mark.parametrize("name", sorted(BROKEN_SPECS))
def test_broken_specs_run_every_constraint(name, capsys, monkeypatch, tmp_path):
    assert gate_holds(capsys, monkeypatch, tmp_path, name)
    inst = load_instance(str(tmp_path / f"{name}.json"))
    assert inst.alpha.generators is None


def first_failure(path) -> str:
    inst = load_instance(str(path))
    rep = algebra_validate(inst.K)
    return (rep if not rep.ok else inst.alpha.validate()).failures[0]


@pytest.mark.parametrize("verb", ["validate", "cohomology", "products", "theorems", "report"])
@pytest.mark.parametrize("name", sorted(BROKEN_SPECS))
def test_broken_specs_exit_1_under_every_verb(name, verb, capsys, tmp_path):
    """`validate` and `report` report the failed check; the other verbs
    refuse the spec on an `error:` line naming the first failure."""
    path = write_spec(tmp_path, name)
    expected = {
        "non-associative": "associativity fails at triple (1,1,1)",
        "non-multiplicative": "multiplicativity fails at pair (1,1)",
    }[name]
    assert first_failure(path) == expected
    assert cli.main([verb, str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    if verb in ("validate", "report"):
        v = json.loads(out) if verb == "validate" else json.loads(out)["validate"]
        assert not v["ok"] and any(expected in c["failures"] for c in v["checks"])
    else:
        assert out == "" and err == f"error: {expected}\n"


VALID_SPECS = [p for p in SPECS if p.stem != "sweedler_bad"]


def ungated_algebra(session):
    """`cli.Session.algebra` without its check of K and the twist."""
    inst = session.inst
    f_report = validate_f(inst.K, inst.alpha, inst.f_coeffs)
    if not f_report.ok:
        raise MonogenicError("; ".join(f_report.failures))
    alg = inst.algebra(check=False)
    alg.check_compiled()
    return alg


def certificate_work(monkeypatch, argv, gate: bool) -> collections.Counter:
    """How often one CLI run walks for generators, checks a certificate and
    tests a triple or pair, with the session's check of K and its twist in
    place or left out."""
    calls = collections.Counter()
    with monkeypatch.context() as m:
        for owner, name in [(AlgebraK, "_spanning_generators"), (AlgebraK, "_certifies"),
                            (Endo, "_certifies"), (Endo, "_multiplicative_at"),
                            (kalgebra, "_unit_law_failures"), (kalgebra, "_associative_at")]:
            def counted(*args, inner=getattr(owner, name), key=f"{owner.__name__}.{name}"):
                calls[key] += 1
                return inner(*args)

            m.setattr(owner, name, counted)
        if not gate:
            ungated = functools.cached_property(ungated_algebra)
            ungated.__set_name__(cli.Session, "algebra")
            m.setattr(cli.Session, "algebra", ungated)
        assert cli.main(argv) == 0
    return calls


@pytest.mark.parametrize("verb", ["cohomology", "products", "theorems"])
@pytest.mark.parametrize("path", VALID_SPECS, ids=[p.stem for p in VALID_SPECS])
def test_valid_specs_do_no_extra_certificate_work(path, verb, monkeypatch, capsys):
    """Refusing a broken K or twist costs a valid spec nothing: the session
    reads the certificates the twisted invariants compute anyway."""
    argv = [verb, str(path), "--format", "json"]
    with_gate = certificate_work(monkeypatch, argv, gate=True)
    assert with_gate == certificate_work(monkeypatch, argv, gate=False)
    assert with_gate["AlgebraK._certifies"] >= 1 and with_gate["Endo._certifies"] >= 1
    assert capsys.readouterr().err == ""


# -- seeded mistakes ------------------------------------------------------------


def algebra_certificate_passes_everything(monkeypatch):
    monkeypatch.setattr(AlgebraK, "_certifies", lambda self, gens: True)


def twist_certificate_passes_everything(monkeypatch):
    monkeypatch.setattr(Endo, "_certifies", lambda self, gens: True)


def last_generator_dropped(monkeypatch):
    walk = AlgebraK._spanning_generators
    monkeypatch.setattr(AlgebraK, "_spanning_generators", lambda self: walk(self)[:-1])


def broken_table_agrees(*fixtures) -> bool:
    K = gh4_instance(3)[0].K
    broken = with_table(K, quads_of(K) + [(2, 3, 4, K.field.one)])
    return algebra_validate(broken) == scan_algebra_validate(broken)


def gh4_agrees(*fixtures) -> bool:
    """At u = 3, unlike u = 2, g is not central in A, so its constraint counts."""
    return not disagreements(gh4_instance(3)[0])


def gh4_spec_pinned(*fixtures) -> bool:
    K = load_instance(str(next(p for p in SPECS if p.stem == "gh4_u3"))).K
    return names(K, K.generators) == PINNED["gh4_u3"]


# mutation -> the checks it must turn red, each called with (capsys,
# monkeypatch, tmp_path) and True when the routes agree
MUTATIONS = {
    "algebra certificate passes everything": (algebra_certificate_passes_everything, [
        broken_table_agrees,
        lambda *fixtures: gate_holds(*fixtures, "non-associative"),
    ]),
    "twist certificate passes everything": (twist_certificate_passes_everything, [
        lambda *fixtures: gate_holds(*fixtures, "non-multiplicative"),
    ]),
    "last generator dropped": (last_generator_dropped, [gh4_agrees, gh4_spec_pinned]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_seeded_mistake_turns_each_check_red(mutation, capsys, monkeypatch, tmp_path):
    mutate, checks = MUTATIONS[mutation]
    fixtures = (capsys, monkeypatch, tmp_path)
    assert all(check(*fixtures) for check in checks)
    mutate(monkeypatch)
    for check in checks:
        assert not check(*fixtures)
