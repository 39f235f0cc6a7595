"""The one-pass JSON writer of `cli.render` against `json.dumps(sort_keys=True,
indent=2)`: on the payload of every verb and demo spec, on gh4 with u = 4 and
Taft with n = 4, and on generated nested payloads; types outside str, int,
bool, None, list and dict raise TypeError."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from orecohom import cli

SPECS = sorted((Path(__file__).resolve().parent.parent / "demos" / "specs").glob("*.json"))
VERBS = ("validate", "cohomology", "products", "theorems", "report")


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def written(payload) -> str:
    return cli.render("report", payload, "json", 0.0)


def extra_specs(tmp_path) -> list[Path]:
    """gh4 with u = 4 (|G| = 16) and Taft with n = 4 over GF(5), 2 of order 4."""
    gh4 = json.loads((SPECS[0].parent / "gh4_u3.json").read_text())
    gh4["K"]["group"]["u"] = 4
    gh4["f"]["coeffs"] = [[0] * 16, [0] * 16]
    taft = {
        "field": {"kind": "Fp", "p": 5},
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 4}, "character": {"g": 2}},
        "f": {"n": 4, "coeffs": [[0] * 4] * 4},
    }
    paths = []
    for name, spec in (("gh4_u4", gh4), ("taft4", taft)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        paths.append(path)
    return paths


def test_every_payload_is_written_as_json_dumps(tmp_path, monkeypatch):
    """Every run that renders (on sweedler_bad only validate and report do)."""
    render, seen = cli.render, []

    def capturing(verb, payload, fmt, elapsed_ms):
        seen.append(payload)
        return render(verb, payload, fmt, elapsed_ms)

    monkeypatch.setattr(cli, "render", capturing)
    specs, rendered = SPECS + extra_specs(tmp_path), 0
    for spec in specs:
        for verb in VERBS:
            seen.clear()
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
                cli.main([verb, str(spec)])
            if seen:
                assert out.getvalue() == dumps(seen[0]), (spec.name, verb)
                rendered += 1
    assert rendered == len(specs) * len(VERBS) - 3


def test_generated_payloads_are_written_as_json_dumps():
    """A derandomized hypothesis test over nested payloads: strings with
    quotes, backslashes, control and non-ASCII characters, integers past 64
    bits of either sign, bools, None and empty or nested-empty containers;
    lists of str only and of int only, lists that mix the two, lists of
    bools and empty lists.  The writer takes every list element by element,
    whatever its leaves."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé 😀'), st.characters()), max_size=8)
    ints = st.one_of(st.integers(), st.integers(-2**200, 2**200))
    leaves = st.one_of(st.none(), st.booleans(), ints, text)
    leaf_lists = st.one_of(
        st.lists(text, max_size=5), st.lists(ints, max_size=5), st.lists(st.one_of(text, ints), max_size=5),
        st.lists(st.one_of(ints, st.booleans()), max_size=5), st.lists(st.booleans(), max_size=5),
    )
    payloads = st.recursive(
        st.one_of(leaves, leaf_lists),
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(text, inner, max_size=4)),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(payloads)
    def check(payload):
        assert written(payload) == dumps(payload)

    check()
    for empty in ({}, [], {"a": {}}, [[]], {"": [{}, []]}):
        assert written(empty) == dumps(empty)
    for leaves_of_one_kind in (["a"], [0], [-2**70, 5], ["é", "\n", '"'], {"k": [[1, 2], ["a"], []]},
                               ["x", 1], [1, "x"], [True, 1], [1, False], [True], [None, 1]):
        assert written(leaves_of_one_kind) == dumps(leaves_of_one_kind)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1, 2}, {"k": [0.0]}, [("t",)], {1: "int key"}])
def test_other_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        written(bad)
