"""Command-line behavior: spec parsing, verbs, formats, exit codes."""

import csv
import io
import json
from pathlib import Path

import pytest
from conftest import CASES

from orecohom import (
    Bimodule,
    build_small_complex,
    cli,
    closedforms,
    cohomology,
    cohomology_dims,
    kalgebra,
    monogenic,
    products,
)
from orecohom.cli import main
from orecohom.specio import Instance, SpecError, build_instance, load_instance

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def spec(name):
    return str(SPECS / name)


# -- spec file parsing --------------------------------------------------------


def test_load_instance_sweedler():
    inst = load_instance(spec("sweedler.json"))
    assert inst.K.dim == 2
    assert inst.n == 2
    assert inst.chi is not None
    assert inst.default_degree() == 4


def old_default_degree(inst: Instance) -> int:
    """`Instance.default_degree` before it compared alpha^n with the
    identity: the order of chi^n for a character spec, otherwise the order
    of a fresh `Endo` of alpha^n, then 2v + 2 capped at six."""
    if inst.max_degree is not None:
        return inst.max_degree
    if inst.chi is not None and inst.K.group is not None:
        v = kalgebra.character_order(inst.K.group, kalgebra.char_power(inst.chi, inst.n))
    else:
        v = kalgebra.Endo(inst.K, inst.alpha.power_matrix(inst.n)).order
    return 2 * v + 2 if v is not None and 2 * v + 2 <= 6 else 6


def test_default_degree_compares_the_twist_power_with_the_identity(monkeypatch):
    """The default degree is the old formula's on every demo spec and every
    `conftest.CASES` instance, and no longer searches the order of a twist."""
    insts = [load_instance(str(p)) for p in SPECS.glob("*.json")]
    for alg in (make() for make in CASES.values()):
        insts.append(Instance({}, alg.field, alg.K, alg.alpha, None, [], alg.n))
    want = [old_default_degree(inst) for inst in insts]

    def refuse(self):
        raise AssertionError("Endo.order was read")

    monkeypatch.setattr(kalgebra.Endo, "order", property(refuse))
    assert [inst.default_degree() for inst in insts] == want
    assert {4, 6} <= set(want)


def test_bad_json_is_a_spec_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"field": ')
    with pytest.raises(SpecError):
        load_instance(str(p))


def test_missing_key_is_a_spec_error():
    with pytest.raises(SpecError, match="missing the 'K' key"):
        build_instance({"field": "Q"})


def test_degree_mismatch_is_a_spec_error():
    with pytest.raises(SpecError, match="declares degree"):
        build_instance(
            {
                "field": "Q",
                "K": {
                    "kind": "table",
                    "dim": 1,
                    "basis": ["1"],
                    "unit": [1],
                    "mul": [[0, 0, 0, 1]],
                },
                "alpha": {"kind": "identity"},
                "f": {"n": 3, "coeffs": [[0], [0]]},
            }
        )


def test_spec_without_twist_is_rejected():
    with pytest.raises(SpecError, match="no twist"):
        build_instance(
            {
                "field": "Q",
                "K": {
                    "kind": "table",
                    "dim": 1,
                    "basis": ["1"],
                    "unit": [1],
                    "mul": [[0, 0, 0, 1]],
                },
                "f": {"coeffs": [[0], [0]]},
            }
        )


# -- validate -----------------------------------------------------------------


def test_validate_sweedler_passes(capsys):
    rc, payload = run_json(capsys, "validate", spec("sweedler.json"))
    assert rc == 0
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "coefficient-algebra",
        "twist",
        "defining-polynomial",
        "normality",
        "contraction",
    ]
    assert all(c["ok"] for c in payload["checks"])


def test_validate_flags_bad_coefficient(capsys):
    rc, payload = run_json(capsys, "validate", spec("sweedler_bad.json"))
    assert rc == 1
    assert payload["ok"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert not by_name["defining-polynomial"]["ok"]
    assert "normality" not in by_name


def test_malformed_spec_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"field": ')
    rc = main(["validate", str(p)])
    assert rc == 2
    assert "spec error" in capsys.readouterr().err


# the group of order 1, whose only label is "1"
TRIVIAL_GROUP = {"field": {"kind": "Q"}, "K": {"kind": "group", "group": {"kind": "cyclic", "order": 1}},
                 "f": {"n": 2, "coeffs": [[0], [0]]}}


@pytest.mark.parametrize("raw, character", [
    (json.loads(Path(spec("sweedler.json")).read_text()), {"h": -1}),
    (TRIVIAL_GROUP, {"g": 1}),
], ids=["C2-h", "trivial-group-g"])
def test_character_naming_a_missing_label_exits_2(tmp_path, capsys, raw, character):
    """A character value at a label the group lacks is a spec error naming
    the label, not a traceback."""
    p = tmp_path / "bad_label.json"
    p.write_text(json.dumps({**raw, "K": {**raw["K"], "character": character}}))
    rc = main(["validate", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("spec error:")
    assert f"unknown group label {next(iter(character))!r}" in captured.err
    assert captured.out == ""


def with_group(group: dict) -> dict:
    """sweedler.json with its cyclic group of order 2 replaced by ``group``."""
    raw = json.loads(Path(spec("sweedler.json")).read_text())
    return {**raw, "K": {**raw["K"], "group": group}}


def test_table_group_gives_the_cyclic_groups_cohomology(tmp_path, capsys):
    p = tmp_path / "c2_table.json"
    p.write_text(json.dumps(with_group({"kind": "table", "labels": ["1", "g"], "table": [[0, 1], [1, 0]]})))
    rc, table = run_json(capsys, "cohomology", str(p), "--format", "json")
    rc_cyclic, cyclic = run_json(capsys, "cohomology", spec("sweedler.json"), "--format", "json")
    assert rc == rc_cyclic == 0
    assert table["dims"] == cyclic["dims"] == [1, 1, 1, 1, 1]
    assert {**table, "instance": None} == {**cyclic, "instance": None}


@pytest.mark.parametrize("labels, table, reason", [
    (["1", "g"], [[0, 1], [1, -2]], "group table entry -2 at (1,1)"),
    (["1", "g"], [[0, 1], [1, True]], "group table entry True at (1,1)"),
    (["1", "g"], [[0, 1], [1, 0.0]], "group table entry 0.0 at (1,1)"),
    (["1", "g"], [[0, 1], [1]], "must be a list of 2 rows of 2 entries"),
    (["1", "g"], "0110", "must be a list of 2 rows of 2 entries"),
    ("1g", [[0, 1], [1, 0]], "labels must be a list of strings, got '1g'"),
    (["1", 2], [[0, 1], [1, 0]], "labels must be a list of strings"),
    (["1", "1"], [[0, 1], [1, 0]], "labels must be distinct"),
], ids=["negative-entry", "bool-entry", "float-entry", "ragged", "string-table",
        "string-labels", "int-label", "repeated-label"])
def test_malformed_group_table_exits_2(tmp_path, capsys, labels, table, reason):
    """A group table is read only as distinct string labels and a square
    list of label indices; any other form is a spec error naming it."""
    p = tmp_path / "bad_table.json"
    p.write_text(json.dumps(with_group({"kind": "table", "labels": labels, "table": table})))
    rc = main(["validate", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("spec error:")
    assert reason in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["validate", "cohomology"])
def test_non_associative_group_table_exits_2(tmp_path, capsys, verb):
    """The table of C4 with g g and g g^2 swapped: the identity law holds
    and the table is not associative.  The error names the first failing
    triple of the full scan, (g, g, g^2), whose last entry is not the
    generator g."""
    table = [[0, 1, 2, 3], [1, 3, 2, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    p = tmp_path / "swapped.json"
    p.write_text(json.dumps(with_group({"kind": "table", "labels": ["1", "g", "g^2", "g^3"], "table": table})))
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spec error: bad group table: group table not associative at (1,1,2)\n"


@pytest.mark.parametrize("verb", ["validate", "theorems"])
@pytest.mark.parametrize("basis, reason", [
    ([1, 2], "basis labels must be a list of strings, got [1, 2]"),
    (["a", "a"], "basis labels must be distinct, got ['a', 'a']"),
], ids=["int-labels", "repeated-label"])
def test_malformed_table_basis_exits_2(tmp_path, capsys, verb, basis, reason):
    """A structure-constant K names its basis by distinct strings: with a
    repeated label, `K.elem` and a witness candidate would silently read the
    first basis element of that name."""
    raw = json.loads(Path(spec("swap3.json")).read_text())
    raw["K"]["basis"] = basis
    p = tmp_path / "bad_basis.json"
    p.write_text(json.dumps(raw))
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"spec error: {reason}\n"


def test_missing_spec_file_exits_2(capsys):
    rc = main(["validate", "/no/such/file.json"])
    assert rc == 2
    capsys.readouterr()


def test_ill_typed_oracle_bound_option_exits_2(tmp_path, capsys):
    raw = json.loads(Path(spec("sweedler.json")).read_text())
    raw.setdefault("options", {})["oracle_bound"] = "3"
    p = tmp_path / "string_bound.json"
    p.write_text(json.dumps(raw))
    rc = main(["products", str(p)])
    assert rc == 2
    assert "oracle_bound must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_max_degree_exits_2(tmp_path, capsys, flag):
    raw = json.loads(Path(spec("sweedler.json")).read_text())
    raw["max_degree"] = flag
    p = tmp_path / "bool_degree.json"
    p.write_text(json.dumps(raw))
    rc = main(["cohomology", str(p)])
    assert rc == 2
    assert "max_degree must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["K mul", "K unit", "alpha", "f"])
def test_boolean_coefficient_exits_2(tmp_path, capsys, where):
    raw = json.loads(Path(spec("swap3.json")).read_text())
    if where == "K mul":
        raw["K"]["mul"][1][3] = True
    elif where == "K unit":
        raw["K"]["unit"][0] = True
    elif where == "alpha":
        raw["alpha"]["matrix"][0][1] = True
    else:
        raw["f"]["coeffs"][2][0] = True
    p = tmp_path / "bool_coefficient.json"
    p.write_text(json.dumps(raw))
    rc = main(["validate", str(p)])
    assert rc == 2
    assert "booleans are not field elements" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path, value, reason",
    [
        # read as 1, this index would be in range
        ("swap3.json", ("K", "mul", 1, 0), True, "has an index out of range"),
        ("swap3.json", ("K", "dim"), True, "dim must be a positive integer"),
        ("c4_sign.json", ("K", "group", "order"), True, "cyclic group order must be a positive integer"),
        ("gh4_u3.json", ("K", "group", "u"), True, "the first generator order u must be a positive integer"),
        ("taft37.json", ("field", "p"), 7.9, "p must be an integer"),
        ("taft37.json", ("field", "p"), "7", "p must be an integer"),
        ("taft37.json", ("field", "p"), None, "p must be an integer"),
    ],
)
def test_non_integer_spec_field_exits_2(tmp_path, capsys, name, path, value, reason):
    raw = json.loads(Path(spec(name)).read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "non_integer.json"
    p.write_text(json.dumps(raw))
    rc = main(["validate", str(p)])
    assert rc == 2
    assert reason in capsys.readouterr().err


VERBS = ["validate", "cohomology", "products", "theorems", "report"]


def set_option(key, value):
    return lambda raw: raw.setdefault("options", {}).update({key: value})


# case -> (spec, edit, reason printed)
MALFORMED = {
    "no-minpoly": (
        "gh4_u3.json", lambda raw: raw["field"].pop("minpoly"), "needs a minpoly coefficient list"
    ),
    "bad-minpoly": (
        "gh4_u3.json", lambda raw: raw["field"].update(minpoly=["abc", 0, 1]), "encoding: 'abc'"
    ),
    "candidate-label": (
        "sweedler.json", set_option("witness_candidates", ["nope"]), "'nope' names no basis element"
    ),
    "candidate-length": (
        "sweedler.json", set_option("witness_candidates", [[0, 1, 0]]), "a list of 2 scalars"
    ),
    "xi": ("c4_sign.json", set_option("xi", "x"), "options.xi: bad rational encoding: 'x'"),
    "xi-zero-division": ("c4_sign.json", set_option("xi", "1/0"), "options.xi: bad rational"),
    "g1-label": ("c4_sign.json", set_option("g1", "q"), "options.g1 'q' names no group element"),
    "g1-without-group": ("swap3.json", set_option("g1", "g"), "options.g1 'g' names no group"),
}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_spec_exits_2_from_every_verb(tmp_path, capsys, verb, case):
    name, edit, reason = MALFORMED[case]
    raw = json.loads(Path(spec(name)).read_text())
    edit(raw)
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(raw))
    rc = main([verb, str(p)])
    assert rc == 2
    assert reason in capsys.readouterr().err


# K = Q x Q on its idempotents e1, e2, with alpha(e1) = e1 + e2 and
# alpha(e2) = 0: alpha fixes the unit and is multiplicative, but it is not
# invertible.
NON_INVERTIBLE_TWIST = {
    "field": {"kind": "Q"},
    "K": {"kind": "table", "dim": 2, "basis": ["e1", "e2"], "unit": [1, 1],
          "mul": [[0, 0, 0, 1], [1, 1, 1, 1]]},
    "alpha": {"kind": "matrix", "matrix": [[1, 0], [1, 0]]},
    "f": {"n": 2, "coeffs": [[0, 0], [0, 0]]},
}


@pytest.mark.parametrize("verb", VERBS)
def test_non_invertible_twist_is_refused_by_every_verb(tmp_path, capsys, verb):
    """`validate` and `report` fail the twist check; the other verbs refuse
    the spec on an `error:` line naming that failure, from the same list of
    checks."""
    p = tmp_path / "non_invertible.json"
    p.write_text(json.dumps(NON_INVERTIBLE_TWIST))
    inst = load_instance(str(p))
    assert inst.alpha.validate().ok and not inst.alpha.is_automorphism
    assert main([verb, str(p), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    if verb in ("validate", "report"):
        v = json.loads(out) if verb == "validate" else json.loads(out)["validate"]
        by_name = {c["name"]: c for c in v["checks"]}
        assert not v["ok"] and by_name["twist"]["failures"] == ["twist matrix is not invertible"]
        assert by_name["coefficient-algebra"]["ok"] and by_name["defining-polynomial"]["ok"]
    else:
        assert out == "" and err == "error: twist matrix is not invertible\n"


@pytest.mark.parametrize("verb", ["products", "theorems", "report"])
@pytest.mark.parametrize(
    "flag, reason",
    [("nope", "'nope' names no basis element"), ("[0, 1, 0]", "must be a list of 2 scalars")],
    ids=["label", "length"],
)
def test_malformed_witness_flag_exits_2(capsys, verb, flag, reason):
    rc = main([verb, spec("sweedler.json"), "--witness", flag])
    assert rc == 2
    assert reason in capsys.readouterr().err


def test_negative_oracle_bound_flag_exits_2(capsys):
    rc = main(["products", spec("sweedler.json"), "--oracle-bound", "-1"])
    assert rc == 2
    assert "--oracle-bound must be at least 0" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process, and no call's options reach the next."""
    assert cli.build_parser() is cli.build_parser()
    rc, payload = run_json(capsys, "cohomology", spec("sweedler.json"), "--max-degree", "2")
    assert rc == 0 and payload["dims"] == [1, 1, 1]
    rc, payload = run_json(capsys, "validate", spec("sweedler.json"))
    assert rc == 0 and payload["ok"] is True
    rc, payload = run_json(capsys, "cohomology", spec("sweedler.json"))
    assert rc == 0 and payload["max_degree"] == load_instance(spec("sweedler.json")).default_degree()


# -- cohomology ---------------------------------------------------------------


def test_sweedler_dims_through_degree_six(capsys):
    rc, payload = run_json(
        capsys, "cohomology", spec("sweedler.json"), "--max-degree", "6"
    )
    assert rc == 0
    assert payload["dims"] == [1, 1, 1, 1, 1, 1, 1]
    assert [row["degree"] for row in payload["table"]] == list(range(7))


def test_truncated_square_default_degree(capsys):
    rc, payload = run_json(capsys, "cohomology", spec("truncated_square.json"))
    assert rc == 0
    assert payload["max_degree"] == 4
    assert payload["dims"] == [2, 1, 1, 1, 1]


def test_quaternion_half_turn_dims(capsys):
    rc, payload = run_json(capsys, "cohomology", spec("quaternion_pi.json"))
    assert rc == 0
    assert payload["dims"] == [2, 0, 0, 0, 0]


def test_csv_dimension_table(capsys):
    rc, out = run(
        capsys, "cohomology", spec("truncated_square.json"), "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1] == "0,2"
    assert lines[-1] == "4,1"


def test_products_csv_over_an_extension_field_keeps_its_columns(capsys):
    """A Q(i) coordinate is a list in the JSON; the CSV writes its entries
    joined by a space, so every data row has the header's 6 fields under
    `csv.reader` and each coordinate decodes back to the JSON's value."""
    path = spec("gh4_u3.json")
    rc, out = run(capsys, "products", path, "--format", "csv")
    rc_json, payload = run_json(capsys, "products", path)
    assert rc == rc_json == 0
    header, *data = csv.reader(io.StringIO(out))
    assert len(header) == 6
    want = [r["result_class_coords"] for kind in ("cup", "bracket") for r in payload[kind]]
    assert len(data) == len(want) > 0
    F = load_instance(path).field
    for row, coords in zip(data, want):
        assert len(row) == 6
        parts = row[5].split(";") if row[5] else []
        assert len(parts) == len(coords)
        for part, c in zip(parts, coords):
            assert isinstance(c, list) and F.decode(part.split(" ")) == F.decode(c)


# -- products -----------------------------------------------------------------


def test_products_closed_and_oracle_agree(capsys):
    rc, payload = run_json(
        capsys, "products", spec("sweedler.json"), "--max-degree", "3"
    )
    assert rc == 0
    assert payload["cup"], "cup table should not be empty"
    assert payload["bracket"], "bracket table should not be empty"
    assert all(row["agree"] for row in payload["cup_closed_vs_oracle"])
    assert all(row["agree"] for row in payload["bracket_closed_vs_oracle"])
    assert payload["witness"] != "none"


# -- theorems -----------------------------------------------------------------


def test_swap_instance_skips_closed_forms(capsys):
    rc, payload = run_json(capsys, "theorems", spec("swap3.json"))
    assert rc == 0
    assert payload["witness"] == "none"
    assert payload["generic_dims"] == [3, 1, 1, 1, 1, 1, 1]
    assert payload["checks"], "check list should not be empty"
    assert all(e["status"] == "skipped" for e in payload["checks"])


def test_c4_sign_theorems_all_consistent(capsys):
    rc, payload = run_json(capsys, "theorems", spec("c4_sign.json"))
    assert rc == 0
    status = {e["which"]: e["status"] for e in payload["checks"]}
    assert status["collapsed-cohomology"] == "ok"
    assert status["group-cohomology"] == "ok"
    assert status["rank-one-hopf"] == "ok"
    assert status["quaternion-rotation"] == "skipped"


def test_quaternion_theorems(capsys):
    rc, payload = run_json(capsys, "theorems", spec("quaternion_pi.json"))
    assert rc == 0
    status = {e["which"]: e["status"] for e in payload["checks"]}
    assert status["quaternion-rotation"] == "ok"


@pytest.mark.parametrize(
    "name, changes, which, reason",
    [
        ("c4_sign.json", {"f": {"n": 2, "coeffs": [[0, 0, 0, 0]] * 2}}, "rank-one-hopf", "the run's f differs"),
        ("c4_sign.json", {"alpha": {"kind": "identity"}}, "rank-one-hopf", "the run's twist differs"),
        ("quaternion_pi.json", {"alpha": {"kind": "identity"}}, "quaternion-rotation", "the run's twist differs"),
    ],
    ids=["rank-one-f", "rank-one-twist", "rotation-twist"],
)
def test_closed_model_of_another_algebra_skips(capsys, tmp_path, name, changes, which, reason):
    """The rank-one and rotation checks read the run's complex and compare its
    twist and f with the ones their data define; on a run whose f or twist
    differs they skip.  Reporting on the model instead would describe another
    algebra (c4_sign with f = x^2 has dims [2, 2, 2, 2, 2], its rank-one model
    [2, 1, 1, 1, 1])."""
    raw = {**json.loads((SPECS / name).read_text()), **changes}
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    rc, payload = run_json(capsys, "theorems", str(path), "--which", which)
    assert rc == 0
    [entry] = payload["checks"]
    assert entry["status"] == "skipped" and reason in entry["reason"]


def test_which_selects_checks(capsys):
    rc, payload = run_json(
        capsys,
        "theorems",
        spec("sweedler.json"),
        "--which",
        "collapsed-cohomology,periodicity",
    )
    assert rc == 0
    assert [e["which"] for e in payload["checks"]] == [
        "collapsed-cohomology",
        "periodicity",
    ]


def test_which_runs_each_named_check_once(capsys):
    """A check named twice runs once, in the order of its first mention."""
    rc, out = run(capsys, "theorems", spec("sweedler.json"), "--which", "periodicity,periodicity", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["check,status", "periodicity,ok"]
    rc, payload = run_json(capsys, "theorems", spec("sweedler.json"), "--which",
                           "periodicity, collapsed-cohomology,periodicity")
    assert rc == 0
    assert [e["which"] for e in payload["checks"]] == ["periodicity", "collapsed-cohomology"]


def test_unknown_which_exits_2(capsys):
    rc = main(["theorems", spec("sweedler.json"), "--which", "no-such-check"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("which", [",", " ", ""])
def test_which_naming_no_check_exits_2(capsys, which):
    """A `--which` that names no check is a spec error, not a run of none."""
    assert main(["theorems", spec("sweedler.json"), "--which", which]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spec error: --which {which!r} names no check; available: ")


@pytest.mark.parametrize("verb, which, problem", [("report", ",", "--which ',' names no check"),
                                                   ("theorems", "nope", "unknown checks ['nope']")])
def test_bad_which_exits_2_before_any_compile(capsys, monkeypatch, verb, which, problem):
    """`--which` is resolved when the run's session is made, as `--witness`
    is, so a selection that names no known check exits 2 before A is
    compiled."""
    calls = count_calls(monkeypatch, monogenic.MonogenicAlgebra, "_compile")
    assert main([verb, spec("gh4_u3.json"), "--which", which]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"spec error: {problem}; available: ")


def without_instance(payload):
    """The payload with every echo of the spec ("instance") left out."""
    if isinstance(payload, dict):
        return {k: without_instance(v) for k, v in payload.items() if k != "instance"}
    if isinstance(payload, list):
        return [without_instance(v) for v in payload]
    return payload


@pytest.mark.parametrize("verb", ["validate", "cohomology", "products", "theorems", "report"])
def test_table_is_summed_where_it_enters(capsys, tmp_path, verb):
    """A "table" K shaped like swap3, with e1 e1 given as two halves and a
    pair of e1 e2 entries that cancel, runs as swap3's summed table does:
    the same CSV and the same JSON, up to the echo of the spec."""
    raw = json.loads((SPECS / "swap3.json").read_text())
    raw["K"]["mul"] = [[0, 0, 0, "1/2"], [0, 0, 0, "1/2"], [1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 0, -1]]
    path = tmp_path / "swap3_unsummed.json"
    path.write_text(json.dumps(raw))
    for fmt in ("csv", "json"):
        summed = run(capsys, verb, spec("swap3.json"), "--format", fmt)
        given = run(capsys, verb, str(path), "--format", fmt)
        if fmt == "json":
            summed, given = [(rc, without_instance(json.loads(out))) for rc, out in (summed, given)]
        assert given == summed


def test_witness_flag_accepts_label_and_coords(capsys):
    rc, payload = run_json(
        capsys,
        "theorems",
        spec("sweedler.json"),
        "--witness",
        "g",
        "--which",
        "collapsed-cohomology",
    )
    assert rc == 0
    assert payload["witness"] == ["0/1", "1/1"]
    rc, payload = run_json(
        capsys,
        "theorems",
        spec("sweedler.json"),
        "--witness",
        "[0, 1]",
        "--which",
        "collapsed-cohomology",
    )
    assert rc == 0
    assert payload["witness"] == ["0/1", "1/1"]


def test_witness_flag_one_is_a_label(capsys):
    """``1`` names the unit of c4_sign's group algebra, not the JSON number 1."""
    rc, with_flag = run(capsys, "products", spec("c4_sign.json"), "--witness", "1")
    assert rc == 0
    assert with_flag == run(capsys, "products", spec("c4_sign.json"))[1]


# -- report and output handling -----------------------------------------------


def test_report_has_all_sections(capsys):
    rc, payload = run_json(capsys, "report", spec("taft37.json"))
    assert rc == 0
    assert payload["ok"] is True
    assert payload["validate"]["ok"] is True
    assert payload["cohomology"]["dims"] == [1, 1, 1, 1, 1]
    assert payload["products"]["cup"]
    assert any(e["status"] == "ok" for e in payload["theorems"]["checks"])


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_report_equals_its_parts(capsys, name):
    parts = {}
    for verb in ("validate", "cohomology", "products", "theorems"):
        rc, out = run(capsys, verb, spec(name))
        parts[verb] = rc, json.loads(out) if out else None
    rc, report = run_json(capsys, "report", spec(name))
    assert rc == max(code for code, _ in parts.values())
    _, validate = parts.pop("validate")
    validate.pop("instance")
    assert report["validate"] == validate
    for verb, (_, payload) in parts.items():
        if validate["ok"]:
            payload.pop("instance")
            assert report[verb] == payload, verb
        else:
            assert verb not in report


def count_calls(monkeypatch, owner, attr, modules=()):
    """Replace owner.attr (and its binding in each module) by a counting
    wrapper; returns the list the wrapper appends to."""
    calls = []
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for target in (owner, *modules):
        monkeypatch.setattr(target, attr, counting)
    return calls


@pytest.mark.parametrize(
    "name, builds",
    [("sweedler.json", 1), ("taft37.json", 1), ("c4_sign.json", 2), ("quaternion_pi.json", 2)],
)
def test_report_builds_the_complex_once(capsys, monkeypatch, name, builds):
    """One build of the instance's complex, which every check reads; the
    rank-one check adds its quotient model's complex on c4_sign and the
    rotation check its companion's on quaternion_pi, as theorems alone does."""
    calls = count_calls(monkeypatch, cohomology.SmallComplex, "__init__")
    assert run(capsys, "report", spec(name))[0] == 0
    assert len(calls) == builds
    calls.clear()
    assert run(capsys, "theorems", spec(name))[0] == 0
    assert len(calls) == builds


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_report_searches_for_the_witness_once(capsys, monkeypatch, name):
    """Every check reads the run's one witness search, and skips without a
    second search when it found nothing.  c4_sign's rank-one check searches
    once more, on its quotient model only: one search per distinct algebra.
    sweedler_bad fails validation before any search."""
    calls = count_calls(monkeypatch, closedforms, "find_witness", (cli,))
    rc = run(capsys, "report", spec(name))[0]
    assert rc == (1 if name == "sweedler_bad.json" else 0)
    assert len(calls) == {"c4_sign.json": 2, "sweedler_bad.json": 0}.get(name, 1)
    assert len({id(args[0]) for args in calls}) == len(calls)


@pytest.mark.parametrize("name", ["gh4_u3.json", "c4_sign.json"])
def test_report_reads_the_character_once(capsys, monkeypatch, name):
    """The run reads its character once (`Session.chi`), and the checks
    that read it (group-cohomology, membership-period, periodicity,
    presentation, the rank-one quotient model) take it as given: they check
    it against the twist, and none reads a character off the twist."""
    calls = count_calls(monkeypatch, closedforms, "twist_character", (cli,))
    rebuilds = count_calls(monkeypatch, closedforms, "character_of")
    assert run(capsys, "report", spec(name))[0] == 0
    assert len(calls) == 1
    assert rebuilds == []


@pytest.mark.parametrize("name, reads", [("quaternion_pi.json", 1), ("swap3.json", 1), ("truncated_square.json", 1),
                                         ("gh4_u3.json", 0), ("c4_sign.json", 0)])
def test_report_reads_the_twist_for_a_character_once(capsys, monkeypatch, name, reads):
    """A spec with no character has it read off the twist once per run: the
    first read of `Session.chi` raises, and the four checks that read it
    each get that same error again, not a fresh `character_of`.  A spec
    with a character never reads one off the twist."""
    calls = count_calls(monkeypatch, closedforms, "character_of")
    assert run(capsys, "report", spec(name))[0] == 0
    assert len(calls) == reads


def test_session_chi_reraises_its_first_error(monkeypatch):
    """Every read of a run's missing character raises the one ClosedFormError
    its first read raised."""
    session = cli.Session(load_instance(spec("swap3.json")), cli.build_parser().parse_args(["report", spec("swap3.json")]))
    errors = []
    for _ in range(3):
        with pytest.raises(closedforms.ClosedFormError) as exc:
            session.chi
        errors.append(exc.value)
    assert errors[0] is errors[1] is errors[2]


@pytest.mark.parametrize("name", ["sweedler.json", "taft37.json", "c4_sign.json", "quaternion_pi.json"])
def test_report_compiles_the_algebra_once(capsys, monkeypatch, name):
    """validate's normality and contraction checks read the session's one
    compile of A, and the checked algebra is that same object.  The rank-one
    and rotation checks read it too and compile only their model: the
    quotient model on c4_sign, the companion on quaternion_pi."""
    calls = count_calls(monkeypatch, monogenic.MonogenicAlgebra, "__init__")
    assert run(capsys, "report", spec(name))[0] == 0
    assert len(calls) == {"c4_sign.json": 2, "quaternion_pi.json": 2}.get(name, 1)


def test_report_builds_one_bar_oracle(capsys, monkeypatch):
    """c4_sign's rank-one bracket rows read the run's oracle, which the
    products verb has already filled."""
    calls = count_calls(monkeypatch, products.BarOracle, "__init__")
    assert run(capsys, "report", spec("c4_sign.json"))[0] == 0
    assert len(calls) == 1


def with_non_multiplicative_character(monkeypatch):
    """Have each CLI session, once set up, hold its spec's character with
    chi(h) = 2: not multiplicative, so not the diagonal of the twist the spec
    builds from its own character."""
    init = cli.Session.__init__

    def bad(self, inst, args):
        init(self, inst, args)
        inst.chi = list(inst.chi)
        inst.chi[inst.K.group.labels.index("h")] = inst.field.from_int(2)

    monkeypatch.setattr(cli.Session, "__init__", bad)


def test_group_cohomology_refuses_a_non_multiplicative_character(capsys, monkeypatch):
    """The run's character with chi(h) = 2 is not multiplicative, so it is not
    the diagonal of the run's twist: the check reports an error and exits 1,
    where it printed ok (it read chi only through its kernel)."""
    with_non_multiplicative_character(monkeypatch)
    rc = main(["theorems", spec("gh4_u3.json"), "--which", "group-cohomology"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: the character is not the diagonal of the twist\n"


def test_membership_period_refuses_a_non_multiplicative_character(capsys, monkeypatch):
    """With chi(h) = 2 the membership-period check names the fault, that the
    character is not the diagonal of the twist, where it reported the
    symptom: a character order out of range."""
    with_non_multiplicative_character(monkeypatch)
    rc = main(["theorems", spec("gh4_u3.json"), "--which", "membership-period"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: the character is not the diagonal of the twist\n"


def test_report_computes_each_product_once(capsys, monkeypatch):
    """A gh4_u3 `report` runs the closed cup once per pair of class
    representatives, although the cup agreement and the period map read them
    again, and the oracle bracket once per distinct ordered pair; its
    products verb reads no dense `AElem.coords` and nothing calls
    `classes_equal`: each product reaches class coordinates from its sparse
    value, through the run's product store."""

    def key(m):
        return m.degree, tuple(sorted(m.value.nz.items()))

    cups = count_calls(monkeypatch, products, "cup_small")
    brackets = count_calls(monkeypatch, products, "bracket_small_generic")
    compared = count_calls(monkeypatch, cohomology, "classes_equal")
    dense, coords, verb = [], monogenic.AElem.coords, cli.run_products
    monkeypatch.setattr(monogenic.AElem, "coords", property(lambda self: dense.append(self) or coords.fget(self)))

    def products_verb(session):
        before = len(dense)
        out = verb(session)
        reads.append(len(dense) - before)
        return out

    reads = []
    monkeypatch.setattr(cli, "run_products", products_verb)
    rc, payload = run_json(capsys, "report", spec("gh4_u3.json"))
    assert rc == 0 and reads == [0]
    pairs = [(key(a), key(b)) for a, b in cups]
    assert len(pairs) == len(set(pairs)) == len(payload["products"]["cup"]) > 0
    asked = [(key(a), key(b)) for a, b, *_ in brackets]
    assert len(asked) == len(set(asked)) > 0
    assert compared == []
    assert all("classes_equal" not in vars(m) for m in (cli, closedforms, products))


@pytest.mark.parametrize("D", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("name", ["c4_sign.json", "quaternion_pi.json"])
def test_model_checks_read_the_run_complex_at_every_degree(capsys, name, D):
    """The rank-one and rotation checks read the run's complex, built through
    D + 1, with their tables capped at degree 5 and 4.  Each result equals
    the report on a complex built only through the cap plus one."""
    rc, payload = run_json(
        capsys, "theorems", spec(name), "--which", "rank-one-hopf,quaternion-rotation",
        "--max-degree", str(D),
    )
    assert rc == 0
    inst = load_instance(spec(name))
    alg = inst.algebra()
    if inst.rotation is None:
        which, up_to = "rank-one-hopf", min(D, 5)
        C = build_small_complex(alg, Bimodule.regular(alg), up_to + 1)
        store = products.ProductStore(C)
        want = closedforms.rank_one_hopf_report(
            C, inst.chi, *inst.rank_one, up_to, closedforms.find_witness(alg), store)
    else:
        which, up_to = "quaternion-rotation", min(D, 4)
        C = build_small_complex(alg, Bimodule.regular(alg), up_to + 1)
        want = closedforms.quaternion_rotation_report(C, *inst.rotation, up_to)
    [entry] = [e for e in payload["checks"] if e["status"] != "skipped"]
    assert entry["which"] == which and entry["status"] == "ok"
    assert entry["result"] == json.loads(json.dumps(want))


@pytest.mark.parametrize("verb", ["validate", "cohomology", "products", "theorems", "report"])
def test_inadmissible_f_fails_before_any_compile(capsys, monkeypatch, verb):
    calls = count_calls(monkeypatch, monogenic.MonogenicAlgebra, "_compile")
    rc = main([verb, spec("sweedler_bad.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert calls == []
    if verb in ("validate", "report"):
        payload = json.loads(captured.out)
        checks = payload["checks"] if verb == "validate" else payload["validate"]["checks"]
        failed = [c["name"] for c in checks if not c["ok"]]
        assert failed == ["defining-polynomial"]
    else:
        assert "coefficient 1 is not alpha-fixed" in captured.err


def test_fresh_runs_repeat_every_solve(capsys, monkeypatch):
    """Twisted invariants are solved once per distinct twist within a run and
    again in the next run: sweedler's twist has order 2, so the bimodule needs
    alpha^0 and alpha^1 and its coefficient blocks alpha^0 only.  The rational
    field is one object shared by every run, so a cache that outlived a run
    would be found."""
    calls = count_calls(monkeypatch, kalgebra, "twisted_kernel", (cohomology,))
    for _ in range(2):
        calls.clear()
        assert run(capsys, "report", spec("sweedler.json"))[0] == 0
        assert len(calls) == 3


@pytest.mark.parametrize("name", ["sweedler.json", "taft37.json", "c4_sign.json"])
def test_presentation_below_the_period_is_skipped(capsys, name):
    rc, payload = run_json(capsys, "theorems", spec(name), "--max-degree", "1")
    assert rc == 0
    entry = next(e for e in payload["checks"] if e["which"] == "presentation")
    assert entry["status"] == "skipped"
    assert entry["reason"] == "table too short to reach the period degree"


def test_presentation_skips_when_the_unit_is_a_coboundary(capsys, tmp_path):
    """C2 with chi(g) = -1 and f = x^2 + 1 over Q: n lambda_n = 2 is a unit,
    so the unit class is a coboundary at the period degree and the check
    skips instead of reporting a mismatch on a valid algebra."""
    path = tmp_path / "c2_unit_square.json"
    path.write_text(json.dumps({
        "field": {"kind": "Q"},
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 2},
              "character": {"g": -1}},
        "f": {"n": 2, "coeffs": [[0, 0], [1, 0]]},
    }))
    rc, payload = run_json(capsys, "theorems", str(path), "--which", "presentation")
    assert rc == 0
    (entry,) = payload["checks"]
    assert entry["status"] == "skipped"
    assert entry["reason"] == (
        "n times the constant coefficient is invertible: the unit is a coboundary "
        "at the period degree"
    )


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_every_verb_renders_every_spec(capsys, name, fmt):
    """Every verb in text and csv on every demo spec exits 0, or 1 on the
    inadmissible sweedler_bad, without a traceback.  `tests/test_golden.py`
    pins the JSON."""
    for verb in ("validate", "cohomology", "products", "theorems", "report"):
        rc = main([verb, spec(name), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == (1 if name == "sweedler_bad.json" else 0), verb
        assert "Traceback" not in captured.err, verb
        assert captured.out or rc == 1, verb


def test_failed_report_csv_is_the_validate_table(capsys):
    rc, out = run(capsys, "report", spec("sweedler_bad.json"), "--format", "csv")
    assert rc == 1
    assert out == (
        "check,ok\ncoefficient-algebra,true\ntwist,true\ndefining-polynomial,false\n"
    )
    assert run(capsys, "validate", spec("sweedler_bad.json"), "--format", "csv") == (rc, out)


def test_json_output_is_deterministic(capsys):
    _, first = run(capsys, "cohomology", spec("sweedler.json"), "--max-degree", "5")
    _, second = run(capsys, "cohomology", spec("sweedler.json"), "--max-degree", "5")
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "dims.json"
    rc, out = run(
        capsys, "cohomology", spec("sweedler.json"), "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["dims"] == [1, 1, 1, 1, 1]


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    """A path in a missing directory is a usage error with a one-line reason,
    not a traceback and not exit 1 (a failed mathematical check)."""
    target = tmp_path / "missing" / "x.json"
    rc = main(["cohomology", spec("sweedler.json"), "--out", str(target)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {target}: ") and err.count("\n") == 1
    assert not target.exists()


def test_instance_echo_reparses_to_same_dims(capsys):
    rc, payload = run_json(
        capsys, "cohomology", spec("sweedler.json"), "--max-degree", "4"
    )
    assert rc == 0
    inst = build_instance(payload["instance"])
    alg = inst.algebra()
    C = build_small_complex(alg, Bimodule.regular(alg), 5)
    assert cohomology_dims(C, 4) == payload["dims"]
