"""One list of instance checks: `instance_checks` is what a checked
`MonogenicAlgebra` refuses and what the CLI's `validate` reports."""

import json

import pytest
from conftest import SPECS
from test_cli import NON_INVERTIBLE_TWIST
from test_generators import BROKEN_SPECS

from orecohom.cli import main
from orecohom.fields import QQ
from orecohom.kalgebra import AlgebraError, AlgebraK, Endo, cyclic_group, group_algebra
from orecohom.linalg import Mat
from orecohom.monogenic import MonogenicAlgebra, MonogenicError, instance_checks
from orecohom.specio import load_instance


def q_times_q() -> AlgebraK:
    """Q x Q on its idempotents e1, e2."""
    return AlgebraK.from_structure_constants(QQ, 2, ["e1", "e2"], [1, 1], [(0, 0, 0, 1), (1, 1, 1, 1)])


def twist(K: AlgebraK, rows) -> Endo:
    return Endo(K, Mat(QQ, [[QQ.scalar(c) for c in row] for row in rows]))


TWISTS = {  # name -> (K, matrix rows, the failure a checked build raises)
    # alpha(e1) = e1, alpha(e2) = 0 sends the unit e1 + e2 to e1
    "unit-not-fixed": (q_times_q, [[1, 0], [0, 0]], "endomorphism does not fix the unit"),
    # g -> g, g^2 -> g: alpha(g) alpha(g) = g^2 but alpha(g^2) = g
    "not-multiplicative": (lambda: group_algebra(cyclic_group(3), QQ), [[1, 0, 0], [0, 1, 0], [0, 1, 0]],
                           "multiplicativity fails at pair (1,1)"),
    # alpha(e1) = e1 + e2, alpha(e2) = 0: a unital endomorphism of rank 1
    "not-invertible": (q_times_q, [[1, 0], [1, 0]], "twist matrix is not invertible"),
}


@pytest.mark.parametrize("name", sorted(TWISTS))
def test_checked_build_refuses_a_twist_that_is_not_an_invertible_endomorphism(name):
    make_k, rows, failure = TWISTS[name]
    K = make_k()
    alpha = twist(K, rows)
    f = [[0] * K.dim, [0] * K.dim]
    with pytest.raises(AlgebraError) as exc:
        MonogenicAlgebra(K, alpha, f)
    assert str(exc.value) == failure
    if failure != "twist matrix is not invertible":
        assert alpha.validate().failures[0] == failure
    assert dict(instance_checks(K, alpha, f))["twist"].failures == (failure,)
    MonogenicAlgebra(K, alpha, f, check=False)  # the unchecked build compiles it


BAD_UNIT = {
    # Q x Q with the idempotent e1 declared as the unit
    "field": {"kind": "Q"},
    "K": {"kind": "table", "dim": 2, "basis": ["e1", "e2"], "unit": [1, 0],
          "mul": [[0, 0, 0, 1], [1, 1, 1, 1]]},
    "alpha": {"kind": "identity"},
    "f": {"coeffs": [[0, 0], [0, 0]]},
}

NEGATIVE_SPECS = {**BROKEN_SPECS, "bad-unit": BAD_UNIT, "non-invertible": NON_INVERTIBLE_TWIST}
DEMOS = {p.stem: str(p) for p in SPECS}


def spec_path(tmp_path, name) -> str:
    if name in DEMOS:
        return DEMOS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(NEGATIVE_SPECS[name]))
    return str(path)


@pytest.mark.parametrize("name", [*DEMOS, *sorted(NEGATIVE_SPECS)])
def test_checked_build_refuses_exactly_what_validate_fails(name, tmp_path, capsys):
    """`inst.algebra()` raises exactly when an entry of `instance_checks`
    fails, with the message `cohomology` prints after `error: `; `validate`
    reports the same entries in the same order."""
    path = spec_path(tmp_path, name)
    inst = load_instance(path)
    checks = instance_checks(inst.K, inst.alpha, inst.f_coeffs)
    assert [n for n, _ in checks] == ["coefficient-algebra", "twist", "defining-polynomial"]
    failed = [(n, rep) for n, rep in checks if not rep.ok]
    try:
        inst.algebra()
        message = None
    except (AlgebraError, MonogenicError) as exc:
        message = str(exc)
    assert (message is None) == (not failed)
    if failed:
        n, rep = failed[0]
        assert message == ("; ".join(rep.failures) if n == "defining-polynomial" else rep.failures[0])
        assert main(["cohomology", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["validate", path]) == (1 if failed else 0)
    reported = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["ok"], tuple(c["failures"])) for c in reported[:3]] == [
        (n, rep.ok, rep.failures) for n, rep in checks]
