"""Seeded mutations: each check of the CLI must turn red when the code it
guards is broken.  A table maps each check to a mutation (applied with
``monkeypatch``) and to the spec it runs on; the mutated run must exit 1 and
report the check as failed, while the same run without the mutation passes.

The closed-vs-oracle agreements, the rank-one bracket rows and the period map
read the run's product store, which computes each product once: the
mutations patch the names the store calls (``products.cup_small``,
``products.bracket_small_closed``, ``products.psi_terms`` under the oracle),
so these entries also show that sharing the work does not let one route stand
in for the other.  One mutant of the payload oracle drops the slot sign of a
composition; it shows on a spec without a witness (see its test).  The last
tests break the resolution itself: its
generator, which both `validate` and the small complex read, and its
contracting homotopy, which `validate` checks."""

import json
from pathlib import Path

import pytest
from conftest import mutant, mutate_columns

from orecohom import cli, products
from orecohom.linalg import row_sum
from orecohom.monogenic import Resolution

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def negate_closed_bracket(monkeypatch):
    """The closed bracket with its sign flipped."""
    closed = products.bracket_small_closed
    monkeypatch.setattr(products, "bracket_small_closed", lambda a, b, witness: -closed(a, b, witness))


def drop_odd_psi_tail(monkeypatch):
    """psi in odd degree without its last term, the one ending in x^0."""
    terms = products.psi_terms

    def mutated(alg, idx):
        out = list(terms(alg, idx))
        return out[:-1] if len(idx) % 2 else out

    monkeypatch.setattr(products, "psi_terms", mutated)


def zero_small_cup(monkeypatch):
    """The closed cup product on the small complex, returning zero."""
    monkeypatch.setattr(
        products, "cup_small",
        lambda a, b: products.SmallCochain(a.alg, a.degree + b.degree, a.alg.zero_elem()),
    )


# check -> (verb, spec and further CLI arguments, payload key of its rows, mutation)
MUTATIONS = {
    "bracket_closed_vs_oracle":
        (["products", "sweedler.json"], "bracket_closed_vs_oracle", negate_closed_bracket),
    "cup_closed_vs_oracle":
        (["products", "sweedler.json"], "cup_closed_vs_oracle", drop_odd_psi_tail),
    "presentation":
        (["theorems", "taft37.json", "--which", "presentation"], "checks", zero_small_cup),
    "rank-one-hopf":
        (["theorems", "c4_sign.json", "--which", "rank-one-hopf"], "checks", negate_closed_bracket),
}


def verdict(row):
    """True or False for an agreement row or a theorem check, None for a skip."""
    if "agree" in row:
        return row["agree"]
    return {"ok": True, "mismatch": False}.get(row["status"])


def run_rows(capsys, verb, spec, *rest, key):
    rc = cli.main([verb, str(SPECS / spec), *rest])
    return rc, json.loads(capsys.readouterr().out)[key]


@pytest.mark.parametrize("check", sorted(MUTATIONS))
def test_mutation_turns_its_check_red(check, monkeypatch, capsys):
    argv, key, mutate = MUTATIONS[check]
    rc, rows = run_rows(capsys, *argv, key=key)
    assert rc == 0 and rows and all(verdict(row) is True for row in rows)
    mutate(monkeypatch)
    rc, rows = run_rows(capsys, *argv, key=key)
    assert rc == 1
    assert any(verdict(row) is False for row in rows)


def unsigned_slot(monkeypatch):
    """`BarOracle._composition` with the odd-slot sign dropped: every slot added."""
    composition = products.BarOracle._composition
    monkeypatch.setattr(products.BarOracle, "_composition",
                        mutant(composition, "odd = (j + 1) * (rp + 1) % 2", "odd = 0"))


def test_unsigned_slot_turns_the_oracle_bracket_red(monkeypatch, capsys):
    """Only a slot filled by an even cochain carries the sign, and psi of an
    even cochain, at each index phi reads, is 0 or the cochain itself.
    Under a collapse witness every even cochain lies at x^0, so those slots
    are empty: the mutant cannot turn `bracket_closed_vs_oracle` red on a
    spec with a witness.  On truncated_square (K = Q, the identity twist,
    f = x^2, no witness) the even cochains reach x^1, and the mutated oracle
    bracket of the bracket table is no cocycle: `products` exits 1."""
    spec = str(SPECS / "truncated_square.json")
    assert cli.main(["products", spec]) == 0
    capsys.readouterr()
    unsigned_slot(monkeypatch)
    assert cli.main(["products", spec]) == 1
    assert "vector is not a cocycle" in capsys.readouterr().err


def plus_odd_generator(monkeypatch):
    """d'_r(1 (x) 1) = x (x) 1 + 1 (x) x in odd degrees, for x (x) 1 - 1 (x) x."""
    d_generator = Resolution.d_generator

    def mutated(self, r):
        out = d_generator(self, r)
        if r % 2:  # the row of 1 (x) x: the unit's entries in the block c = 1
            alg, F = self.alg, self.alg.field
            onex = {alg.adim + i: p for i, p in alg.one.nz.items()}
            out = row_sum(F, [(F.one.v, out), (F.from_int(2).v, onex)])
        return out

    monkeypatch.setattr(Resolution, "d_generator", mutated)


def test_odd_generator_mutation_reaches_validate_and_cohomology(monkeypatch, capsys):
    """The complex is Hom of the resolution that `validate` certifies, so one
    wrong generator turns the contraction row red and changes the cohomology."""
    spec = str(SPECS / "sweedler.json")
    assert cli.main(["validate", spec]) == 0
    capsys.readouterr()
    assert cli.main(["cohomology", spec]) == 0
    before = capsys.readouterr().out
    plus_odd_generator(monkeypatch)
    assert cli.main(["validate", spec]) == 1
    rows = {row["name"]: row["ok"] for row in json.loads(capsys.readouterr().out)["checks"]}
    assert rows["contraction"] is False
    cli.main(["cohomology", spec])
    assert capsys.readouterr().out != before


def doubled_sigma_column(monkeypatch):
    """Every column of sigma_r doubled."""
    mutate_columns(monkeypatch, "s", lambda res, r, flat, col: col + col)


@pytest.mark.parametrize("spec", ["sweedler.json", "gh4_u3.json"])
def test_wrong_sigma_column_turns_contraction_red(spec, monkeypatch, capsys):
    """`contraction_check` sums the sigma and d columns of each basis tensor;
    a wrong sigma turns its row red and leaves every other row as it was."""
    path = str(SPECS / spec)
    assert cli.main(["validate", path]) == 0
    before = {row["name"]: row["ok"] for row in json.loads(capsys.readouterr().out)["checks"]}
    doubled_sigma_column(monkeypatch)
    assert cli.main(["validate", path]) == 1
    rows = {row["name"]: row["ok"] for row in json.loads(capsys.readouterr().out)["checks"]}
    assert rows == {**before, "contraction": False}
